"""The two error kinds expann defines, one per failing exit code of the
command line: ``InputError`` (exit 2) for input outside the operators'
domain, and ``NumericalError`` (exit 4) for arithmetic on valid input that
degenerates.  The message names the cause."""


class InputError(Exception):
    """Input data, an argument or an index lies outside its domain."""


class NumericalError(Exception):
    """A computation on valid input hit a degenerate or out-of-range value."""
