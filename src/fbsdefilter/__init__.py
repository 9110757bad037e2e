"""Kernel-learning FBSDE nonlinear filter with oracles and a rate harness."""

from .bayes import Likelihood, bayes_update, denominator_mc, likelihood_density
from .errors import (
    ConfigurationError,
    ContractionError,
    DegenerateObservationError,
    DivergentLearningError,
    EmptyDensityError,
    FilterError,
    ModelBlowUpError,
)
from .filtering import (
    FilterConfig,
    FilterState,
    BootstrapResult,
    KalmanResult,
    bootstrap_pf,
    initialize,
    kalman_filter,
    metropolis_resample,
    run_filter,
    step,
    write_checkpoint,
)
from .harness import (
    ConvergenceReport,
    ExperimentConfig,
    RecurrenceDiagnostic,
    denominator_rate_study,
    dt_rate_study,
    estimate_recurrence_coefficient,
    fit_loglog_slope,
    kde_rate_study,
    load_config,
    prediction_rate_study,
    run_experiment,
    run_rate_study,
)
from .kde import KernelDensity, gaussian_bandwidth, parzen_estimate
from .learn import LossReport, TrainConfig, hessian, loss_and_gradients, sgd_fit
from .model import (
    StateSpaceModel,
    TimeGrid,
    backward_sample,
    check_drift_divergence,
    euler_step,
    get_model,
    register_model,
    simulate_truth,
)
from .predict import (
    ParticleCloud,
    PredictConfig,
    predict_cloud,
    predict_value,
)
from .rngs import derive_seed, substream

__version__ = "0.1.0"
