"""Mini-batch descent in dual coordinates for row-partitioned linear systems.

The iteration keeps the dual variable z_k = J_p(x_k) and applies the affine
update z <- z - mu * g, re-deriving the primal iterate through the inverse
duality map.  Update directions:

  * "sgd":                  g = A_i^T j_p(A_i x - y_i), i drawn uniformly
  * "landweber":            g = A^T j_p(A x - y), deterministic full residual
  * "generalized_kaczmarz": g = A_i^T j_q(A_i x - y_i), 1 < q <= 2

where j_e is the duality map of the output l^r space with power e.
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import ConvergenceRecord, delta_metrics, residual_objective
from .exceptions import ConfigurationError, InvalidInputError, IterationInvariantError
from .noise import check_seed
from .operators import BlockOperator, ObservationSet, check_blocks_match, check_count
from .spaces import (
    SpaceDescriptor,
    bregman_distance,
    duality_map,
    inverse_duality_map,
    lr_norm,
)

__all__ = [
    "PolynomialSchedule",
    "SlowDecaySchedule",
    "ConstantSchedule",
    "APrioriStop",
    "SolverConfig",
    "IterationState",
    "ConstantsConfig",
    "RunResult",
    "step_size",
    "a_priori_stop_index",
    "stochastic_gradient",
    "sgd_step",
    "landweber_step",
    "theoretical_max_step",
    "estimate_constants",
    "initial_state",
    "iterate_n",
    "run",
    "run_seeds",
    "with_seed",
]


@dataclass(frozen=True)
class PolynomialSchedule:
    """mu_k = mu0 * k^(-beta).  Summable in the p*-th power when beta > 1/p*."""

    mu0: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.mu0 < math.inf:
            raise ConfigurationError(f"mu0 must be positive and finite; got {self.mu0}")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigurationError(f"decay exponent must lie in (0, 1]; got {self.beta}")

    def at(self, k: int) -> float:
        return self.mu0 * float(k) ** (-self.beta)


@dataclass(frozen=True)
class SlowDecaySchedule:
    """mu_k = scale / (1 + 0.05 * (k / n_batches)^(1/p* + 0.01)).

    Decays just fast enough that the p*-th powers of the steps are summable
    while the steps themselves are not.
    """

    scale: float
    n_batches: int
    p_conj: float

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:
            raise ConfigurationError(f"scale must be positive and finite; got {self.scale}")
        if self.n_batches < 1:
            raise ConfigurationError("n_batches must be >= 1")
        if self.p_conj <= 1:
            raise ConfigurationError("conjugate power must be > 1")

    def at(self, k: int) -> float:
        return self.scale / (1.0 + 0.05 * (k / self.n_batches) ** (1.0 / self.p_conj + 0.01))


@dataclass(frozen=True)
class ConstantSchedule:
    mu0: float

    def __post_init__(self):
        if not 0.0 < self.mu0 < math.inf:
            raise ConfigurationError(f"step size must be positive and finite; got {self.mu0}")

    def at(self, k: int) -> float:
        return self.mu0


StepSchedule = PolynomialSchedule | SlowDecaySchedule | ConstantSchedule


def step_size(schedule: StepSchedule, k: int) -> float:
    """Step size for iteration k (1-based)."""
    if k < 1:
        raise ConfigurationError(f"iteration index must be >= 1, got {k}")
    return schedule.at(k)


@dataclass(frozen=True)
class APrioriStop:
    """Noise-adapted early stopping: k(delta) = ceil(delta^(-theta*p/(1-beta))).

    delta is the data's noise level (ObservationSet.noise_level) and p the
    power of the solution space (SolverConfig.x_space.p); the rule holds only
    the two choices.  As delta shrinks, k(delta) grows without bound while
    k(delta) * delta^(p/(1-beta)) still vanishes, for any theta < 1.
    """

    beta: float = 0.0
    theta: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ConfigurationError(f"safety factor theta must lie in (0, 1); got {self.theta}")
        if not 0.0 <= self.beta < 1.0:
            raise ConfigurationError(f"beta must lie in [0, 1), where the stop index is defined; got {self.beta}")


def a_priori_stop_index(rule: APrioriStop, delta: float, power: float) -> int:
    """k(delta) for noise level delta and solution-space power p = power."""
    if not delta > 0:
        raise ConfigurationError(f"a-priori stopping needs a positive noise level; got delta = {delta}")
    log_k = -rule.theta * power / (1.0 - rule.beta) * math.log(delta)
    if log_k > 60:  # e^60 iterations is far beyond any runnable budget
        raise ConfigurationError(
            f"a-priori stop index exp({log_k:.1f}) is astronomically large; "
            "loosen beta/theta or raise the noise level"
        )
    return max(1, math.ceil(math.exp(log_k)))


@dataclass(frozen=True)
class SolverConfig:
    """Everything that determines a run: geometry, method, schedule, stopping, seed."""

    x_space: SpaceDescriptor
    y_space: SpaceDescriptor
    schedule: StepSchedule
    method: str = "sgd"
    q: float | None = None
    stopping: APrioriStop | None = None
    seed: int = 0
    epochs: int = 1

    def __post_init__(self):
        if self.method not in ("sgd", "landweber", "generalized_kaczmarz"):
            raise ConfigurationError(f"unknown method {reprlib.repr(self.method)}")
        if self.method == "generalized_kaczmarz":
            if self.q is None or not 1.0 < self.q <= 2.0:
                raise ConfigurationError(
                    f"generalized_kaczmarz needs a residual power 1 < q <= 2; got {self.q}"
                )
        elif self.q is not None:
            raise ConfigurationError("q is only meaningful for generalized_kaczmarz")
        check_count(self.epochs, "epochs", 0)
        check_seed(self.seed)
        if not isinstance(self.schedule, StepSchedule):
            raise ConfigurationError(f"unknown schedule: {self.schedule!r}")
        if isinstance(self.schedule, PolynomialSchedule):
            if self.schedule.beta <= 1.0 / self.x_space.p_conj:
                raise ConfigurationError(
                    f"polynomial decay needs beta > 1/p* = {1.0 / self.x_space.p_conj:.4g}; "
                    f"got beta = {self.schedule.beta}"
                )

    @property
    def gradient_exponent(self) -> float:
        """Duality power applied to the residual when forming the update."""
        return self.q if self.method == "generalized_kaczmarz" else self.x_space.p

    @functools.cached_property
    def residual_space(self) -> SpaceDescriptor:
        """The data space with the residual power: the geometry of every step's residual map."""
        return SpaceDescriptor(self.y_space.r, self.gradient_exponent)


def with_seed(cfg: SolverConfig, seed: int) -> SolverConfig:
    return replace(cfg, seed=seed)


@dataclass
class IterationState:
    """Primal iterate, its dual image, the iteration counter, and the index RNG."""

    x: np.ndarray
    dual_x: np.ndarray
    k: int
    rng: np.random.Generator


def initial_state(op: BlockOperator, cfg: SolverConfig) -> IterationState:
    """Zero start; J_p(0) = 0 lies in the closure of range(A^T) for free."""
    n = op.input_dim
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    return IterationState(np.zeros(n), np.zeros(n), 0, rng)


def _checked_start(op: BlockOperator, obs: ObservationSet, cfg: SolverConfig, **references) -> IterationState:
    """Run entry: check everything the steps and snapshots trust, the named reference
    vectors (x_true, x_ref) included, then start from zero."""
    if cfg.y_space.r != op.output_space.r:  # steps read r_y from cfg, the objective from op
        raise ConfigurationError(
            f"config data space l^{cfg.y_space.r} differs from the operator's l^{op.output_space.r}"
        )
    check_blocks_match(op, obs)
    for name, ref in references.items():
        if ref is not None and not np.isfinite(ref).all():
            raise InvalidInputError(f"{name} contains non-finite entries")
    return initial_state(op, cfg)


def stochastic_gradient(x, obs: ObservationSet, op: BlockOperator, i: int,
                        space: SpaceDescriptor) -> np.ndarray:
    """A_i^T applied to the duality map of A_i x - y_i in `space` (SolverConfig.residual_space)."""
    return op.apply_adjoint(i, duality_map(op.apply(i, x) - obs.blocks[i], space))


def _dual_step(state: IterationState, cfg: SolverConfig, mu: float, gradient: np.ndarray) -> IterationState:
    """The step of every method: z <- z - mu * gradient, then x = J_p^{-1}(z)."""
    dual = state.dual_x - mu * gradient
    return IterationState(inverse_duality_map(dual, cfg.x_space), dual, state.k + 1, state.rng)


# The steps multiply op.blocks / op.full_matrix directly, without the checks of
# BlockOperator.apply and friends: run entry (_checked_start) has checked the
# block sizes, the data and the data space, and the index is drawn in range.
# stochastic_gradient stays the checked form of the same product, bit for bit.

def sgd_step(state: IterationState, op: BlockOperator, obs: ObservationSet,
             cfg: SolverConfig, mu: float) -> IterationState:
    """One stochastic step: draw a block uniformly, move in the dual, remap."""
    i = int(state.rng.integers(op.n_blocks))
    A = op.blocks[i]
    return _dual_step(state, cfg, mu, A.T @ duality_map(A @ state.x - obs.blocks[i], cfg.residual_space))


def landweber_step(state: IterationState, op: BlockOperator, obs: ObservationSet,
                   cfg: SolverConfig, mu: float) -> IterationState:
    """One deterministic step: A^T applied to the duality map of the full residual A x - y."""
    A = op.full_matrix
    return _dual_step(state, cfg, mu, A.T @ duality_map(A @ state.x - obs.concatenated, cfg.residual_space))


def _advance(state: IterationState, op: BlockOperator, obs: ObservationSet,
             cfg: SolverConfig, until: int) -> IterationState:
    """Step until iteration `until` with mu_k from the schedule.

    Every step goes through the module-level sgd_step / landweber_step, so a
    wrapper bound to those names sees each one.
    """
    step = landweber_step if cfg.method == "landweber" else sgd_step
    schedule = cfg.schedule
    # Run entry checked operator, data and config, so a non-finite or overflowing
    # residual or dual iterate means divergence; numpy's own warning is silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            while state.k < until:
                mu = schedule.at(state.k + 1)
                state = step(state, op, obs, cfg, mu)
        except InvalidInputError as exc:
            raise IterationInvariantError(
                f"non-finite or overflowing residual or dual iterate at iteration {state.k + 1} "
                f"(step size mu = {mu:.3g}); reduce the step size"
            ) from exc
    return state


def iterate_n(op: BlockOperator, obs: ObservationSet, cfg: SolverConfig,
              n_iterations: int) -> IterationState:
    """Advance n_iterations from the zero start and return the final state."""
    check_count(n_iterations, "n_iterations", 0)
    return _advance(_checked_start(op, obs, cfg), op, obs, cfg, n_iterations)


@dataclass(frozen=True)
class ConstantsConfig:
    """Empirical smoothness/convexity constants of the solution-space geometry."""

    G_pstar: float
    C_p: float

    def __post_init__(self):
        if self.G_pstar <= 0 or self.C_p <= 0:
            raise ConfigurationError("geometry constants must be positive")


def theoretical_max_step(constants: ConstantsConfig, l_max: float, p_conj: float) -> float:
    """Largest constant step with guaranteed per-step error monotonicity.

    Solves mu^(p*-1) = p* / (G_{p*} L_max^{p*}).
    """
    if l_max <= 0 or p_conj <= 1:
        raise ConfigurationError("need l_max > 0 and p* > 1")
    return (p_conj / (constants.G_pstar * l_max ** p_conj)) ** (1.0 / (p_conj - 1.0))


def estimate_constants(desc: SpaceDescriptor, dim: int, samples: int = 200,
                       seed: int = 0) -> ConstantsConfig:
    """Sample-based surrogate for the geometry constants G_{p*} and C_p.

    G_{p*} is the running max of p* D_dual(z*, w*) / ||w* - z*||^{p*} over
    random dual pairs, inflated by 1.2; C_p the running min of
    p D(z, w) / ||w - z||^p over random primal pairs, deflated by 0.8.  In the
    Hilbert case both raw ratios are identically 1.
    """
    check_count(dim, "dim")
    check_count(samples, "samples")
    rng = np.random.Generator(np.random.Philox(key=seed))
    dual = desc.dual
    g_max = 0.0
    c_min = math.inf
    for _ in range(samples):
        z = rng.normal(size=dim) * math.exp(rng.uniform(-2.0, 2.0))
        w = rng.normal(size=dim) * math.exp(rng.uniform(-2.0, 2.0))
        gap = lr_norm(w - z, desc.r)
        if gap > 1e-12:
            c_min = min(c_min, desc.p * bregman_distance(z, w, desc) / gap ** desc.p)
        zs = rng.normal(size=dim) * math.exp(rng.uniform(-2.0, 2.0))
        ws = rng.normal(size=dim) * math.exp(rng.uniform(-2.0, 2.0))
        gap_s = lr_norm(ws - zs, dual.r)
        if gap_s > 1e-12:
            g_max = max(g_max, dual.p * bregman_distance(zs, ws, dual) / gap_s ** dual.p)
    if not math.isfinite(c_min) or g_max == 0.0:
        raise ConfigurationError("constant estimation degenerated; increase samples")
    return ConstantsConfig(1.2 * g_max, 0.8 * c_min)


@dataclass
class RunResult:
    record: ConvergenceRecord
    state: IterationState


def run(op: BlockOperator, obs: ObservationSet, cfg: SolverConfig,
        x_true=None, x_ref=None) -> RunResult:
    """Run the configured iteration from zero and record per-epoch diagnostics.

    x_ref is the reference for the Bregman column (usually the minimum norm
    solution); x_true feeds the normalised l1/l2 error columns.  Both are
    optional, leaving NaN columns, and must be finite when given.  An
    a-priori cfg.stopping replaces cfg.epochs: the run stops at
    k(obs.noise_level) with power cfg.x_space.p.  The run is fully
    determined by (cfg.seed, op, obs).
    """
    state = _checked_start(op, obs, cfg, x_true=x_true, x_ref=x_ref)
    per_epoch = 1 if cfg.method == "landweber" else op.n_blocks
    total = (cfg.epochs * per_epoch if cfg.stopping is None
             else a_priori_stop_index(cfg.stopping, obs.noise_level, cfg.x_space.p))

    def snapshot(state, mu):
        x = state.x  # finite: a step raises rather than return a non-finite iterate
        # One full pass gives the residual norm and the objective.  Run entry
        # checked data and x_ref, so a non-finite or overflowing value is divergence.
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                quantity = "residual"
                full_res = op.apply_all(x) - obs.concatenated
                res = lr_norm(full_res, cfg.y_space.r)
                quantity = "objective"
                obj = residual_objective(full_res, op, cfg.gradient_exponent)
            quantity = "Bregman distance"
            breg = bregman_distance(x, x_ref, cfg.x_space) if x_ref is not None else math.nan
        except InvalidInputError as exc:
            raise IterationInvariantError(
                f"diverged at iteration {state.k} (non-finite or overflowing {quantity}, "
                f"step size mu = {mu:.3g}); reduce the step size"
            ) from exc
        if x_true is not None:
            d1, d2 = delta_metrics(x, x_true)
        else:
            d1 = d2 = math.nan
        return (state.k / per_epoch, obj, res, breg, d1, d2, mu)

    rows = [snapshot(state, step_size(cfg.schedule, 1))]
    for until in range(per_epoch, total + per_epoch, per_epoch):
        state = _advance(state, op, obs, cfg, min(until, total))
        rows.append(snapshot(state, step_size(cfg.schedule, state.k)))
    return RunResult(ConvergenceRecord.from_rows(rows), state)


def run_seeds(op: BlockOperator, obs: ObservationSet, cfg: SolverConfig, n_seeds: int,
              x_true=None, x_ref=None) -> list[RunResult]:
    """run for seeds cfg.seed .. cfg.seed + n_seeds - 1, one result per seed in order.

    Every seed's config is built, so a bad seed fails, before the first run.  A
    Landweber run draws no random index, so its one run stands for every seed.
    """
    check_count(n_seeds, "n_seeds")
    cfgs = [with_seed(cfg, cfg.seed + j) for j in range(n_seeds)]
    if cfg.method == "landweber":
        return [run(op, obs, cfgs[0], x_true=x_true, x_ref=x_ref)] * n_seeds
    return [run(op, obs, cfg_j, x_true=x_true, x_ref=x_ref) for cfg_j in cfgs]
