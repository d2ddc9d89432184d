"""Exception types shared across the package."""


class IsogenyKitError(Exception):
    """Base class for all library errors."""


class FieldMismatch(IsogenyKitError):
    """Operands live over different base fields."""


class DivisionByZero(IsogenyKitError):
    pass


class ZeroArgument(IsogenyKitError):
    pass


class AlgebraMismatch(IsogenyKitError):
    """Operands belong to different algebras."""


class DimensionMismatch(IsogenyKitError):
    pass


class DegenerateSpace(IsogenyKitError):
    pass


class NoIsotropicVector(IsogenyKitError):
    pass


class SearchBudgetExceeded(IsogenyKitError):
    """A bounded search over Q ran out of budget without a certificate."""


class IsotropicMirror(IsogenyKitError):
    """Reflection requested in a vector of norm zero."""


class IsotropicQ(IsogenyKitError):
    pass


class NonInvertible(IsogenyKitError):
    pass


class NotSpecialOrthogonal(IsogenyKitError):
    pass


class NormMismatch(IsogenyKitError):
    pass


class NormNotInBaseField(IsogenyKitError):
    pass


class NotFullySplit(IsogenyKitError):
    pass


class NotAntisymmetric(IsogenyKitError):
    pass


class CoverInvariantViolated(IsogenyKitError):
    """Pair (g, t) does not satisfy N(g) = t**2."""


class InvariantViolated(IsogenyKitError):
    """A computed result failed its own cross-check (a library fault)."""


class DecompositionFailed(IsogenyKitError):
    pass


class SingularReparam(IsogenyKitError):
    pass


class BadParameters(IsogenyKitError):
    pass


class BudgetExceeded(IsogenyKitError):
    pass


class UnknownSuite(IsogenyKitError):
    pass


class UnreadableInput(IsogenyKitError):
    """An input file the CLI cannot open or read."""


class ParseError(IsogenyKitError, ValueError):
    """Malformed input: a field spec, JSON or argument the CLI cannot read."""
