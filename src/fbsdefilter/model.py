"""State-space models, SDE time stepping, and the built-in model zoo.

Convention: a single state is a float array of shape ``(dim_state,)`` and a
batch of states has shape ``(n, dim_state)``.  All model callables broadcast
over leading axes; scalar-valued maps (``drift_divergence``,
``initial_density``) drop the trailing state axis.  Diffusion and observation
noise are functions of time only, never of the state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ModelBlowUpError, check_count
from .rngs import substream

Array = np.ndarray

# Seed of the probe stream and largest accepted relative mismatch of
# ``check_drift_divergence``.
DIVERGENCE_CHECK_SEED = 0
DIVERGENCE_CHECK_RTOL = 1e-4


def matvec(mat: Array, vec: Array) -> Array:
    """Apply a (d_out, d_in) matrix to (..., d_in) vectors.

    Adds one input coordinate at a time to a zero ``(..., d_out)`` result
    instead of calling BLAS, so that a row's result does not depend on the
    batch shape it was computed in; this keeps batched runs bit-identical to
    per-sample runs, for any d_in, without a ``(..., d_out, d_in)``
    temporary.  For d_in < 8 this is the order of numpy's sum over a last
    axis, so the bits equal ``(mat * vec[..., None, :]).sum(axis=-1)``; from
    d_in = 8 on that sum adds pairwise and the last bit can differ.
    """
    mat = np.asarray(mat, dtype=float)
    vec = np.asarray(vec, dtype=float)
    out = np.zeros(vec.shape[:-1] + mat.shape[:1])
    for j in range(mat.shape[1]):
        out += mat[:, j] * vec[..., j, None]
    return out


def finite_difference_divergence(drift: Callable[[Array], Array], x: Array) -> Array:
    """Central-difference fallback for the divergence of a drift field.

    Step per coordinate is ``1e-5 * (1 + |x_j|)``.  Intended as a
    convenience for quick model prototyping; analytic divergences are
    preferred and are cross-checked against this estimate.
    """
    x = np.asarray(x, dtype=float)
    dim = x.shape[-1]
    out = np.zeros(x.shape[:-1])
    for j in range(dim):
        h = 1e-5 * (1.0 + np.abs(x[..., j]))
        bump = np.zeros_like(x)
        bump[..., j] = h
        out = out + (drift(x + bump)[..., j] - drift(x - bump)[..., j]) / (2.0 * h)
    return out


@dataclass(frozen=True)
class LinearGaussian:
    """Coefficients of a linear-Gaussian model, consumed by the Kalman oracle."""

    drift_matrix: Array
    obs_matrix: Array
    diffusion: Array
    obs_noise: Array
    mean0: Array
    cov0: Array

    def __post_init__(self):
        for name in ("drift_matrix", "obs_matrix", "diffusion", "obs_noise",
                     "mean0", "cov0"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


@dataclass
class StateSpaceModel:
    """Drift, diffusion, observation map, and initial law of a filtering problem.

    ``drift_divergence`` is the divergence of the drift field (the sum of the
    diagonal of its Jacobian).  If omitted, a central finite-difference
    fallback is installed; supply the analytic form whenever available.
    """

    dim_state: int
    dim_obs: int
    drift: Callable[[Array], Array]
    diffusion: Callable[[float], Array]
    obs_map: Callable[[Array], Array]
    obs_noise: Callable[[float], Array]
    initial_density: Callable[[Array], Array]
    initial_sampler: Callable[[int, np.random.Generator], Array]
    drift_divergence: Callable[[Array], Array] | None = None
    linear: LinearGaussian | None = None

    def __post_init__(self):
        check_count("dim_state", self.dim_state)
        check_count("dim_obs", self.dim_obs)
        if self.drift_divergence is None:
            drift = self.drift
            self.drift_divergence = lambda x: finite_difference_divergence(drift, x)

    @property
    def dim_noise(self) -> int:
        return int(np.asarray(self.diffusion(0.0)).shape[1])


def check_drift_divergence(model: StateSpaceModel) -> None:
    """Cross-check the model's divergence against finite differences.

    Raises ConfigurationError when the relative mismatch exceeds
    ``DIVERGENCE_CHECK_RTOL`` at any of 32 probe points drawn from N(0, 4 I)
    where the finite difference is finite, or when it is finite at none;
    catches hand-derived divergence errors in user models before they
    silently corrupt the prediction step.  The probes come from a stream of
    their own, so the check moves no other draw.
    """
    rng = substream(DIVERGENCE_CHECK_SEED, "divergence-check")
    probes = 2.0 * rng.standard_normal((32, model.dim_state))
    analytic = np.asarray(model.drift_divergence(probes), dtype=float)
    numeric = finite_difference_divergence(model.drift, probes)
    rows = np.flatnonzero(np.isfinite(numeric))
    if rows.size == 0:
        raise ConfigurationError(
            "drift has no finite difference at any divergence probe point")
    err = np.abs(analytic[rows] - numeric[rows]) / (1.0 + np.abs(numeric[rows]))
    # argmax returns the first NaN, which fails the comparison below
    worst = rows[int(np.argmax(err))]
    if not err.max() <= DIVERGENCE_CHECK_RTOL:
        raise ConfigurationError(
            "drift_divergence disagrees with finite differences at "
            f"x={probes[worst]}: analytic {analytic[worst]:.6g} vs "
            f"numeric {numeric[worst]:.6g}"
        )


@dataclass
class TimeGrid:
    """Strictly increasing time knots t_0 < t_1 < ... < t_K."""

    knots: Array

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float).ravel()
        if self.knots.size < 2:
            raise ConfigurationError("a time grid needs at least two knots")
        if not np.all(np.diff(self.knots) > 0):
            raise ConfigurationError("time knots must be strictly increasing")

    @classmethod
    def uniform(cls, horizon: float, steps: int) -> "TimeGrid":
        """``steps`` equal intervals from 0 to ``horizon``."""
        check_count("steps", steps)
        if not 0 < horizon < math.inf:
            raise ConfigurationError(f"horizon must be finite and positive, got {horizon:g}")
        return cls(np.linspace(0.0, horizon, steps + 1))

    @property
    def horizon(self) -> float:
        return float(self.knots[-1])

    @property
    def steps(self) -> int:
        return int(self.knots.size - 1)

    @property
    def dts(self) -> Array:
        return np.diff(self.knots)

    @property
    def max_dt(self) -> float:
        """Largest step; the step size quoted in convergence studies."""
        return float(np.max(self.dts))

    def time(self, k: int) -> float:
        return float(self.knots[k])

    def dt(self, k: int) -> float:
        """Length of the k-th interval (t_{k-1}, t_k], k = 1..steps."""
        if not 1 <= k <= self.steps:
            raise ConfigurationError(f"step index {k} outside 1..{self.steps}")
        return float(self.knots[k] - self.knots[k - 1])

    def observation_rows(self, observations: Array) -> Array:
        """``observations`` as a float array, refused unless one row per knot."""
        observations = np.atleast_2d(np.asarray(observations, dtype=float))
        if observations.shape[0] != self.steps + 1:
            raise ConfigurationError(
                f"need {self.steps + 1} observation rows, got {observations.shape[0]}")
        return observations


def _check_finite_state(x: Array, t: float, origin: Array) -> None:
    finite = np.isfinite(x)
    if not np.all(finite):
        idx = np.argwhere(~finite)
        err = ModelBlowUpError(
            f"non-finite state at t={t:.6g} (first bad entry index {tuple(idx[0])}); "
            f"stepped from {np.asarray(origin).ravel()[:4]}"
        )
        err.rows = np.flatnonzero(~finite.reshape(-1, x.shape[-1]).all(axis=1))
        raise err


def _sde_step(model: StateSpaceModel, t: float, x: Array, dt: float, dW: Array,
              sign: float) -> Array:
    """x + sign * drift(x) dt + diffusion(t) dW, checked for finite output."""
    if dt < 0:
        raise ConfigurationError("dt must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = x + sign * model.drift(x) * dt + matvec(model.diffusion(t), dW)
    _check_finite_state(out, t, x)
    return out


def euler_step(model: StateSpaceModel, t: float, x: Array, dt: float,
               dW: Array) -> Array:
    """One explicit forward step: x + drift(x) dt + diffusion(t) dW.

    ``dW`` is supplied by the caller (N(0, dt I) for a plain step) so runs are
    reproducible and couplings with reference solutions are possible.
    """
    return _sde_step(model, t, x, dt, dW, 1.0)


def backward_sample(model: StateSpaceModel, t_k: float, x_k: Array, dt: float,
                    dW: Array) -> Array:
    """Reverse-time sample: x_k - drift(x_k) dt + diffusion(t_k) dW."""
    return _sde_step(model, t_k, x_k, dt, dW, -1.0)


def advance(model: StateSpaceModel, grid: TimeGrid, k: int, x: Array,
            rng: np.random.Generator) -> Array:
    """Step k of the chain: Euler from t_{k-1} with N(0, dt_k I) draws from ``rng``."""
    dt = grid.dt(k)
    dW = rng.standard_normal(np.shape(x)[:-1] + (model.dim_noise,))
    return euler_step(model, grid.time(k - 1), x, dt, math.sqrt(dt) * dW)


def simulate_truth(model: StateSpaceModel, grid: TimeGrid, seed: int) -> tuple[Array, Array]:
    """Simulate a hidden path and its cumulative observation process.

    The observation starts at zero and accrues ``obs_map(state) * dt`` plus
    Gaussian increments with covariance ``obs_noise obs_noise^T dt``.  The
    drift term uses the right-endpoint state, matching the likelihood used in
    the update step.
    """
    check_count("seed", seed, None)
    rng_state = substream(seed, "truth-state")
    rng_obs = substream(seed, "truth-obs")
    n_steps = grid.steps
    states = np.empty((n_steps + 1, model.dim_state))
    obs = np.zeros((n_steps + 1, model.dim_obs))
    states[0] = model.initial_sampler(1, substream(seed, "truth-init"))[0]
    for k in range(1, n_steps + 1):
        dt = grid.dt(k)
        states[k] = advance(model, grid, k, states[k - 1], rng_state)
        dV = math.sqrt(dt) * rng_obs.standard_normal(model.dim_obs)
        obs[k] = obs[k - 1] + np.asarray(model.obs_map(states[k]), dtype=float) * dt \
            + matvec(model.obs_noise(grid.time(k)), dV)
    return states, obs


# --- exact Ornstein-Uhlenbeck reference ------------------------------------

def ou_exact_coupled_step(theta: float, sigma: float, x: Array, dt: float,
                          dW: Array, extra: Array) -> Array:
    """Exact one-step transition coupled to a given Brownian increment.

    The stochastic integral driving the exact transition is jointly Gaussian
    with the plain increment ``dW``; conditioning on ``dW`` leaves an
    independent residual, fed here through ``extra`` (standard normal).  This
    gives a genuine strong coupling against explicit Euler paths built from
    the same ``dW``.
    """
    decay = math.exp(-theta * dt)
    cov_w_i = (1.0 - decay) / theta
    var_i = (1.0 - decay * decay) / (2.0 * theta)
    beta = cov_w_i / dt
    resid_var = max(var_i - cov_w_i * cov_w_i / dt, 0.0)
    integral = beta * np.asarray(dW) + math.sqrt(resid_var) * np.asarray(extra)
    return np.asarray(x) * decay + sigma * integral


# --- model zoo ---------------------------------------------------------------

def _gaussian_law(mean, var) -> tuple[Callable[[Array], Array],
                                      Callable[[int, np.random.Generator], Array]]:
    """Density and sampler of N(mean, diag(var))."""
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    std = np.sqrt(var)
    norm = 1.0 / math.sqrt(float(np.prod(2.0 * math.pi * var)))

    def density(x: Array) -> Array:
        z = np.asarray(x, dtype=float) - mean
        return norm * np.exp(-0.5 * (z * z / var).sum(axis=-1))

    def sampler(n: int, rng: np.random.Generator) -> Array:
        return mean + std * rng.standard_normal((n, mean.size))

    return density, sampler


def _gaussian_noise_model(name: str, drift: Callable[[Array], Array],
                          divergence: Callable[[Array], Array], obs_matrix, diffusion,
                          obs_noise, mean0, cov0,
                          linear: LinearGaussian | None = None) -> StateSpaceModel:
    """The zoo's one constructor: a drift and its divergence, observed through
    ``obs_matrix`` under constant diffusion and observation noise matrices,
    started from N(``mean0``, ``cov0``).

    The initial sampler draws each coordinate independently, so ``cov0``
    must be diagonal; ``linear`` is the Kalman oracle's record of the same
    coefficients, when the drift is linear.
    """
    cov0 = np.asarray(cov0, dtype=float)
    if not np.array_equal(cov0, np.diag(np.diag(cov0))):
        raise ConfigurationError(f"model {name!r}: initial covariance must be diagonal")
    H, sigma, r = (np.asarray(m, dtype=float) for m in (obs_matrix, diffusion, obs_noise))
    density, sampler = _gaussian_law(mean0, np.diag(cov0))
    return StateSpaceModel(
        dim_state=cov0.shape[0], dim_obs=H.shape[0], drift=drift,
        drift_divergence=divergence, diffusion=lambda t: sigma,
        obs_map=lambda x: matvec(H, x), obs_noise=lambda t: r,
        initial_density=density, initial_sampler=sampler, linear=linear)


def _linear_gaussian_model(name: str, lin: LinearGaussian) -> StateSpaceModel:
    """The model whose drift ``F x``, noise, observation map and initial law are ``lin``."""
    F = lin.drift_matrix
    trace = float(np.trace(F))
    return _gaussian_noise_model(
        name, lambda x: matvec(F, x), lambda x: np.full(np.asarray(x).shape[:-1], trace),
        lin.obs_matrix, lin.diffusion, lin.obs_noise, lin.mean0, lin.cov0, lin)


def make_linear1d() -> StateSpaceModel:
    """Stable scalar linear model with linear observations (Kalman oracle)."""
    return _linear_gaussian_model(
        "linear1d", LinearGaussian(drift_matrix=[[-0.5]], obs_matrix=[[1.0]],
                                   diffusion=[[0.5]], obs_noise=[[0.5]],
                                   mean0=[0.5], cov0=[[0.25]]))


def make_ou1d() -> StateSpaceModel:
    """Unit-rate Ornstein-Uhlenbeck model; exact transition density known."""
    return _linear_gaussian_model(
        "ou1d", LinearGaussian(drift_matrix=[[-1.0]], obs_matrix=[[1.0]],
                               diffusion=[[1.0]], obs_noise=[[1.0]],
                               mean0=[0.0], cov0=[[0.5]]))  # stationary law


def make_doublewell1d() -> StateSpaceModel:
    """Bistable drift x - x^3; nonlinear stress test, no closed-form filter."""

    def drift(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return x - x ** 3

    def divergence(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return 1.0 - 3.0 * x[..., 0] ** 2

    return _gaussian_noise_model("doublewell1d", drift, divergence, obs_matrix=[[1.0]],
                                 diffusion=[[0.5]], obs_noise=[[0.5]], mean0=[1.0],
                                 cov0=[[0.25]])


def make_linear2d() -> StateSpaceModel:
    """Damped rotation in the plane; multidimensional consistency check."""
    return _linear_gaussian_model(
        "linear2d", LinearGaussian(drift_matrix=[[-0.5, -1.0], [1.0, -0.5]],
                                   obs_matrix=np.eye(2), diffusion=0.4 * np.eye(2),
                                   obs_noise=0.5 * np.eye(2), mean0=[0.0, 0.0],
                                   cov0=0.25 * np.eye(2)))


def make_linear4d() -> StateSpaceModel:
    """linear1d's coefficients on four independent coordinates; dimension ladder.

    The default ``n_kernels`` = 24 is too few bumps at d = 4.  At the oracle
    gate's shape (N = 2000, M = 256, sgd 8000, 10 steps of 0.1, seeds 0-9)
    the filter's posterior-mean RMSE against the Kalman filter, over the
    bootstrap particle filter's, reads 5.13 at L = 32, 1.72 at L = 64 and
    1.037 at L = 128.
    """
    return _linear_gaussian_model(
        "linear4d", LinearGaussian(drift_matrix=-0.5 * np.eye(4), obs_matrix=np.eye(4),
                                   diffusion=0.5 * np.eye(4), obs_noise=0.5 * np.eye(4),
                                   mean0=np.full(4, 0.5), cov0=0.25 * np.eye(4)))


MODEL_ZOO: dict[str, Callable[[], StateSpaceModel]] = {
    "linear1d": make_linear1d,
    "ou1d": make_ou1d,
    "doublewell1d": make_doublewell1d,
    "linear2d": make_linear2d,
    "linear4d": make_linear4d,
}


def get_model(name: str) -> StateSpaceModel:
    try:
        return MODEL_ZOO[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown model {name!r}; available: {sorted(MODEL_ZOO)}"
        ) from None


def register_model(name: str, factory: Callable[[], StateSpaceModel]) -> None:
    """Register a custom model factory under a selectable name."""
    if name in MODEL_ZOO:
        warnings.warn(f"overwriting registered model {name!r}", stacklevel=2)
    MODEL_ZOO[name] = factory
