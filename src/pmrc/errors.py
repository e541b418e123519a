"""Exception taxonomy shared across the package."""


class PmrcError(Exception):
    """Base class for package-specific failures."""


class ParameterError(PmrcError, ValueError):
    """Invalid code parameters or a violated call precondition."""


class SingularMatrixError(PmrcError):
    """Matrix lacks full column rank where the operation needs it."""


class InconsistentSystemError(PmrcError):
    """Linear system admits no solution."""


class ConstructionError(PmrcError):
    """No suitable encoding matrix exists over the requested field."""


class InfeasibleError(PmrcError):
    """The requested (s, t) budget or connectivity cannot be met."""


class DecodeFailure(PmrcError):
    """No candidate message within the error/erasure budget."""
