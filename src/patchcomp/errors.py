"""Exception types shared across the package, and the check of a numeric field."""

import math
from numbers import Integral, Real


class ValidationError(ValueError):
    """Invalid domain data: violated invariants, inconsistent dimensions."""


class GridResolutionError(ValidationError):
    """Requested resolution is too coarse for some patch."""


class NumericalError(RuntimeError):
    """A solver failed to reach its tolerance."""


class SteadyConvergenceError(NumericalError):
    """Newton did not converge or met a Jacobian that is not negative
    definite, the continuous-form oracle's moving Jacobian has couplings that
    are not positive or a similarity out of range, or the state lost
    positivity; carries the last residual.  (A species whose own couplings
    fail those checks is refused by its layout, as ValidationError, before
    any solve.)"""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class EigenSolveError(NumericalError):
    """Principal eigenpair could not be isolated at this resolution."""


class SimulationBlowUpError(NumericalError):
    """State escaped its a-priori bounds; indicates a scheme bug."""


def checked_number(value, path: str, *, count: bool = False, zero: bool = False):
    """``value`` if it is a finite number above zero (an integer for a
    ``count``, possibly zero with ``zero``); otherwise a ValidationError that
    names ``path``.  ``True``/``False`` are not numbers here."""
    kind = "an integer" if count else "a number"
    if isinstance(value, bool) or not isinstance(value, Integral if count else Real):
        raise ValidationError(f"{path}: must be {kind}, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{path}: must be finite, got {value!r}")
    if value < 0 or (value == 0 and not zero):
        bound = "at least 0" if zero else "positive"
        raise ValidationError(f"{path}: must be {bound}, got {value!r}")
    return value
