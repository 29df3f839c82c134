"""Fixed reference tasks that track how fast the machine runs at the moment.

The 2-core shared virtual machine this benchmark was built on changes speed
by up to a third from one minute to the next, with other tenants of the host,
and a plain wall time carries that drift into every figure (see README.md).
So each measured time is multiplied by the scale of a reference task run
right after it: scale = nominal / measured reference time.  The result is the time the
operation would have taken on a machine where the reference takes its nominal
time; the nominal times are about what the tasks take on that machine, so the
figures stay close to wall seconds.

Each task resembles the work it stands beside, because the drift does not hit
all kinds of work alike:

- ``fresh_interpreter`` starts an isolated interpreter (``-I``: no
  PYTHONPATH, no current directory on the path) that imports a few
  standard-library modules: process start, file reads and module execution,
  like a command run from the shell or a set-up.
- ``matrix_loop`` multiplies 2x2 complex matrices built from numpy scalars:
  interpreter and numpy call overhead, like the in-process commands.

Neither runs code of the package, so a change to the package cannot move them.
"""

import subprocess
import sys
import time

import numpy as np

_INTERPRETER = [sys.executable, "-I", "-c", "import argparse, csv, dataclasses, hashlib, json"]
INTERPRETER_NOMINAL_S = 0.1
LOOP_NOMINAL_S = 0.012


def fresh_interpreter() -> float:
    """Scale from one run of a fresh interpreter importing standard-library modules."""
    start = time.perf_counter()
    subprocess.run(_INTERPRETER, check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return INTERPRETER_NOMINAL_S / (time.perf_counter() - start)


def matrix_loop() -> float:
    """Scale from 1500 products of 2x2 complex matrices built from numpy scalars."""
    start = time.perf_counter()
    m = np.eye(2, dtype=complex)
    for i in range(1500):
        c, s = np.cos(0.001 * i), np.sin(0.001 * i)
        m = m @ np.array([[c, 1j * s], [1j * s, c]])
    return LOOP_NOMINAL_S / (time.perf_counter() - start)
