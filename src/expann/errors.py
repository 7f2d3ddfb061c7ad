"""Exception hierarchy shared by all expann modules; the command line maps
``InputError`` to exit code 2 and ``NumericalError`` to exit code 4."""


class ExpannError(Exception):
    """Base class for all library-specific failures."""


class InputError(ExpannError):
    """Input data, an argument or an index lies outside its domain."""


class NumericalError(ExpannError):
    """A computation on valid input hit a degenerate or out-of-range value."""


class OutOfWindowError(InputError):
    """A grid lookup referenced an index outside the sample window."""


class EmptyWindowError(InputError):
    """A difference operator shrank the sample window to nothing."""


class DenominatorZeroError(NumericalError):
    """A quotient-based estimate hit a (near-)zero denominator."""


class InvalidCoshError(NumericalError):
    """A cosh estimate cannot be inverted to an admissible frequency."""


class InvalidParameterError(NumericalError):
    """A level parameter left the domain where refinement is defined."""


class SingularRuleError(NumericalError):
    """The insertion-rule system is singular for the given parameter."""


class RangeOverflowError(NumericalError):
    """A computed value overflowed the floating-point range."""


class TooShortError(InputError):
    """Input sequence is too short for the requested stencil."""


class FileFormatError(InputError):
    """An input file does not match the documented schema."""
