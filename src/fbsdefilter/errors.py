"""Exception types shared across the filter stack, and the one count rule."""

import numpy as np


class FilterError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(FilterError, ValueError):
    """Invalid configuration, incompatible arguments, or missing oracle."""


class ModelBlowUpError(FilterError, FloatingPointError):
    """SDE stepping produced non-finite states, at flat batch positions ``rows``."""

    rows = ()


class ContractionError(FilterError, ArithmeticError):
    """A particle is outside the fixed point's contraction region; reduce the step size."""


class DegenerateObservationError(FilterError, ArithmeticError):
    """Every particle's likelihood underflowed; the filter has lost the state."""


class EmptyDensityError(FilterError, ValueError):
    """Kernel density has no positive-weight component left to sample from."""


class DivergentLearningError(FilterError, ArithmeticError):
    """Gradient descent produced non-finite parameters (learning rate too large)."""


def check_count(name: str, value, low: int | None = 1, high: int | None = None,
                high_name: str | None = None):
    """Return ``value`` if it is an integer in ``[low, high]``, else refuse it.

    A bool or a float never passes; an array does when it is empty, or of an
    integer dtype with every entry in bounds.  ``None`` leaves a bound open.
    """
    values = np.asarray(value)
    if values.size and values.dtype.kind not in "iu":
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    too_low = low is not None and np.any(values < low)
    if high is not None and (too_low or np.any(values > high)):
        raise ConfigurationError(
            f"need {low} <= {name} <= {high_name or high}, got {value!r}")
    if too_low:
        raise ConfigurationError(f"{name} must be >= {low}, got {value!r}")
    return value
