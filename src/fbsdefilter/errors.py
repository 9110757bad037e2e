"""Exception types shared across the filter stack."""


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
