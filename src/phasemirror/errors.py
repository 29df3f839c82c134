"""The two kinds of failure, and so the two failing exit codes.

Every exception class of the package derives from exactly one of these.
An InputError says the caller's input is wrong (a config, a table, an
argument): the CLI exits 2.  A NumericalError says a value computed from
valid input came out unusable (no bound mode, a fit that did not
converge): the CLI exits 3.  Any other exception is a fault in the
program.
"""


class InputError(ValueError):
    """An input, argument or file content the package refuses (exit 2)."""


class NumericalError(RuntimeError):
    """A value computed from valid input that cannot be used (exit 3)."""
