"""Phase-controlled spontaneous emission in a mirror-terminated waveguide.

A dipole emitter coupled to a single-mode waveguide sees its own
reflected field when the guide is terminated by a mirror; tuning the
round-trip phase modulates both the radiative decay rate and the
collected intensity.  This package covers the full workflow:

- ``modesolver``: effective-index solve of the quasi-TE0 mode and the
  e_x/e_y weights that set dipole-orientation coupling,
- ``opticalstack``: transfer-matrix reflectivity of the photonic-crystal
  mirror and the lumped reflectivity chain seen by the emitter,
- ``emission``: image-dipole rate and intensity modulation, visibilities,
- ``synthlab``: seeded synthetic sweeps (photon counts, decay histograms),
- ``inference``: Poisson lifetime fits, fringe fits and
  feasible-parameter estimation,
- ``csvio``: the one CSV table format, written and read in one place,
- ``config``: the run config's defaults, bounds and validation, and the
  JSON and manifest writers,
- ``svgplot``: dependency-free SVG line plots of the exported curves,
- ``errors``: the two exception families, input (exit 2) and numerical
  (exit 3),
- ``cli``: config-driven command line tying it together.

Units throughout: rates in 1/ns, lengths in nm, phases in rad.
"""

from .emission import DipoleOrientation, EmitterScene
from .modesolver import ModeProfile, WaveguideGeometry, mode_weights, solve_te0
from .opticalstack import MirrorChain, PhotonicCrystalSpec, tmm_reflectivity

__version__ = "1.0.0"

__all__ = [
    "DipoleOrientation",
    "EmitterScene",
    "MirrorChain",
    "ModeProfile",
    "PhotonicCrystalSpec",
    "WaveguideGeometry",
    "mode_weights",
    "solve_te0",
    "tmm_reflectivity",
    "__version__",
]
