"""Exception types shared across the filter stack, and the count, real-number and
point rules."""

import math

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

    A bool or a float never passes; a Python ``int`` of any size does, and an
    array when it is empty, or of an integer dtype with every entry in bounds.
    ``None`` leaves a bound open: a seed is ``check_count("seed", seed, None)``.
    """
    values = np.asarray(value)
    if values.size and values.dtype.kind not in "iu" and type(value) is not int:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    too_low = low is not None and np.any(values < low)
    if high is not None and (too_low or np.any(values > high)):
        raise ConfigurationError(
            f"need {low} <= {name} <= {high_name or high}, got {value!r}")
    if too_low:
        raise ConfigurationError(f"{name} must be >= {low}, got {value!r}")
    return value


def check_positive(name: str, value, zero_ok: bool = False) -> float:
    """``value`` as a float if it is a finite real number above zero, else refuse it.

    ``zero_ok`` also admits zero, for a step of length zero.  A bool, a string
    or anything ``float`` cannot convert is refused by ``name``; so are NaN and
    either infinity.
    """
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}") from None
    if not ((0 <= v if zero_ok else 0 < v) and v < math.inf):  # NaN fails both
        raise ConfigurationError(
            f"{name} must be finite and {'nonnegative' if zero_ok else 'positive'}, "
            f"got {v:g}")
    return v


def check_points(name: str, x, dim: int | None = None) -> np.ndarray:
    """``x`` as a float array of ``(n, dim)`` points, else refuse it by ``name``.

    ``dim``, when given, is the length the second axis must have.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or (dim is not None and x.shape[1] != dim):
        width = "" if dim is None else f" with dim={dim}"
        raise ConfigurationError(
            f"{name} must be an (n, dim) array{width}; got shape {x.shape}")
    return x
