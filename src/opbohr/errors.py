"""Exception hierarchy shared by every module of the package."""


class OpBohrError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(OpBohrError):
    """Input value violates a structural invariant (non-finite, empty, wrong shape)."""


class ContractError(OpBohrError):
    """A documented precondition of an operation was violated."""


class DomainError(OpBohrError):
    """Argument lies outside the mathematical domain (|z| >= 1, r outside [0, 1), ...)."""


class NumericError(OpBohrError):
    """A numerical procedure failed or did not converge to its target."""


class ContourError(OpBohrError):
    """Integration contour violates its geometric preconditions."""


class RangeError(OpBohrError):
    """Argument magnitude exceeds the configured safe range (e.g. exp overflow cap)."""


class GenerationError(OpBohrError):
    """A generated instance failed its own certification checks (internal bug)."""
