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
from time import perf_counter

import numpy as np

from .diagnostics import ConvergenceRecord, _delta_rows, _objective_rows, _reference_norms
from .exceptions import ConfigurationError, DimensionMismatchError, InvalidInputError, IterationInvariantError
from .noise import check_seed, generator
from .operators import BlockOperator, ObservationSet, _row_products, check_blocks_match, check_count
from .spaces import (SpaceDescriptor, _bregman_rows, _exponent, _lr_norm_rows, _real, _scalar, _screen_rows,
                     bregman_distance, duality_map, inverse_duality_map, lr_norm)

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

    def __post_init__(self):  # every schedule keeps Python floats, so a numpy float32 steps as its float() does
        object.__setattr__(self, "mu0", _scalar(self.mu0, f"mu0 must be positive and finite; got {self.mu0}"))
        object.__setattr__(self, "beta", _scalar(self.beta, f"decay exponent must lie in (0, 1]; got {self.beta}",
                                                 lambda b: 0.0 < b <= 1.0))

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
        object.__setattr__(self, "scale", _scalar(self.scale, f"scale must be positive and finite; got {self.scale}"))
        check_count(self.n_batches, "n_batches")
        object.__setattr__(self, "p_conj", _exponent(self.p_conj, "p*"))

    def at(self, k: int) -> float:
        return self.scale / (1.0 + 0.05 * (k / self.n_batches) ** (1.0 / self.p_conj + 0.01))


@dataclass(frozen=True)
class ConstantSchedule:
    mu0: float

    def __post_init__(self):
        object.__setattr__(self, "mu0", _scalar(self.mu0, f"step size must be positive and inside the float range; "
                                                          f"got {self.mu0}"))

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
        _scalar(self.theta, f"safety factor theta must lie in (0, 1); got {self.theta}", lambda t: 0.0 < t < 1.0)
        _scalar(self.beta, f"beta must lie in [0, 1), where the stop index is defined; got {self.beta}",
                lambda b: 0.0 <= b < 1.0)


def a_priori_stop_index(rule: APrioriStop, delta: float, power: float) -> int:
    """k(delta) for noise level delta and solution-space power p = power."""
    delta = _scalar(delta, f"a-priori stopping needs a positive noise level; got delta = {delta}")
    log_k = -rule.theta * _exponent(power, "power") / (1.0 - rule.beta) * math.log(delta)
    if log_k > 60:  # e^60 iterations is far beyond any runnable budget
        raise ConfigurationError(f"a-priori stop index exp({log_k:.1f}) is astronomically large; "
                                 "loosen beta/theta or raise the noise level")
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
            if _exponent(self.q, "q") > 2.0:
                raise ConfigurationError(f"generalized_kaczmarz needs a residual power 1 < q <= 2; got {self.q}")
        elif self.q is not None:
            raise ConfigurationError("q is only meaningful for generalized_kaczmarz")
        check_count(self.epochs, "epochs", 0)
        check_seed(self.seed)
        if not isinstance(self.schedule, StepSchedule):
            raise ConfigurationError(f"unknown schedule: {self.schedule!r}")
        if isinstance(self.schedule, PolynomialSchedule):
            if self.schedule.beta <= 1.0 / self.x_space.p_conj:
                raise ConfigurationError(f"polynomial decay needs beta > 1/p* = {1.0 / self.x_space.p_conj:.4g}; "
                                         f"got beta = {self.schedule.beta}")

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
    rng = generator(cfg.seed)
    return IterationState(np.zeros(n), np.zeros(n), 0, rng)


def _checked_start(op: BlockOperator, obs: ObservationSet, cfg: SolverConfig, **references) -> IterationState:
    """Run entry: check everything the steps and snapshots trust, the named reference
    vectors (x_true, x_ref) included, then start from zero."""
    if cfg.y_space.r != op.output_space.r:  # steps read r_y from cfg, the objective from op
        raise ConfigurationError(
            f"config data space l^{cfg.y_space.r} differs from the operator's l^{op.output_space.r}"
        )
    check_blocks_match(op, obs)
    for name, ref in ((k, _real(v, k)) for k, v in references.items() if v is not None):
        if ref.shape != (op.input_dim,):
            raise DimensionMismatchError(f"{name} has shape {ref.shape}; the operator takes {op.input_dim} entries")
        if not np.isfinite(ref).all():
            raise InvalidInputError(f"{name} contains non-finite entries")
    return initial_state(op, cfg)


def stochastic_gradient(x, obs: ObservationSet, op: BlockOperator, i: int,
                        space: SpaceDescriptor) -> np.ndarray:
    """A_i^T applied to the duality map of A_i x - y_i in `space` (SolverConfig.residual_space)."""
    return op.apply_adjoint(i, duality_map(op.apply(i, x) - obs.blocks[i], space))


class _DualIterateError(InvalidInputError):
    """The inverse map's error on z - mu * g, which _advance reports as the dual iterate, not the residual."""


def _dual_step(state: IterationState, cfg: SolverConfig, mu: float, A, y) -> IterationState:
    """The step of every method: z <- z - mu * A^T j(A x - y), then x = J_p^{-1}(z), advancing state itself."""
    v = A @ state.x
    v -= y
    g = A.T @ duality_map(v, cfg.residual_space)
    g *= mu
    dual = np.subtract(state.dual_x, g, out=g)  # z - mu * g, in g's own buffer
    try:
        state.x, state.dual_x, state.k = inverse_duality_map(dual, cfg.x_space), dual, state.k + 1
    except InvalidInputError as exc:
        raise _DualIterateError(*exc.args) from exc
    return state


# The steps multiply op.blocks / op.full_matrix directly, without the checks of
# BlockOperator.apply and friends: run entry (_checked_start) has checked the
# block sizes, the data and the data space, and _advance draws the index in range.
# stochastic_gradient stays the checked form of the same product, bit for bit.
# Both steps stay module-level, one call per step, as perfbench/spans.py and the
# tests rebind these names to see every step.

def sgd_step(state: IterationState, op: BlockOperator, obs: ObservationSet,
             cfg: SolverConfig, mu: float, i: int) -> IterationState:
    """One stochastic step on block i, which the caller draws; advances state and returns it."""
    return _dual_step(state, cfg, mu, op.blocks[i], obs.blocks[i])


def landweber_step(state: IterationState, op: BlockOperator, obs: ObservationSet,
                   cfg: SolverConfig, mu: float) -> IterationState:
    """One deterministic step on the full residual A x - y; advances state and returns it."""
    return _dual_step(state, cfg, mu, op.full_matrix, obs.concatenated)


def _advance(state: IterationState, op: BlockOperator, obs: ObservationSet,
             cfg: SolverConfig, until: int, draws=None) -> IterationState:
    """Step state itself until iteration `until` with mu_k from the schedule, and return it.

    The SGD block indices come from state.rng, at most one epoch of them per
    integers call: the same indices and generator state as one draw per step.
    draws, when given, counts them per block.  Every step is one call of the
    module-level sgd_step / landweber_step, so a wrapper bound to those names
    sees each one.
    """
    schedule = cfg.schedule
    # Run entry checked operator, data and config, so a non-finite or overflowing
    # residual or dual iterate means divergence; numpy's own warning is silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if cfg.method == "landweber":
                while state.k < until:
                    landweber_step(state, op, obs, cfg, schedule.at(state.k + 1))
            while state.k < until:
                idx = state.rng.integers(op.n_blocks, size=min(until - state.k, op.n_blocks))
                if draws is not None:
                    draws += np.bincount(idx, minlength=op.n_blocks)
                for i in idx.tolist():
                    sgd_step(state, op, obs, cfg, schedule.at(state.k + 1), i)
        except InvalidInputError as exc:
            quantity = "dual iterate" if isinstance(exc, _DualIterateError) else "residual"
            raise IterationInvariantError(
                f"non-finite or overflowing {quantity} at iteration {state.k + 1} "
                f"(step size mu = {schedule.at(state.k + 1):.3g}); reduce the step size"
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

    def __post_init__(self):  # kept as Python floats, whose products in theoretical_max_step overflow to inf
        message = f"geometry constants must be positive and finite; got {self.G_pstar}, {self.C_p}"
        for name in ("G_pstar", "C_p"):
            object.__setattr__(self, name, _scalar(getattr(self, name), message))


def theoretical_max_step(constants: ConstantsConfig, l_max: float, p_conj: float) -> float:
    """Largest constant step with guaranteed per-step error monotonicity.

    Solves mu^(p*-1) = p* / (G_{p*} L_max^{p*}).
    """
    p_conj = _exponent(p_conj, "p*")
    l_max = _scalar(l_max, f"need finite l_max > 0; got l_max = {l_max}")
    try:
        step = (p_conj / (constants.G_pstar * l_max ** p_conj)) ** (1.0 / (p_conj - 1.0))
    except (OverflowError, ZeroDivisionError):  # Python float powers raise rather than give inf
        step = math.inf
    if not 0.0 < step < math.inf:  # a bound that underflows to 0 is no step either
        raise ConfigurationError(f"the step bound for l_max = {l_max}, p* = {p_conj} leaves the float range")
    return step


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
    rng = generator(seed)
    ratios = ([math.inf], [0.0])  # p D(z, w) / ||w - z||^p over the primal pairs, then over the dual pairs
    for _ in range(samples):
        for space, found in zip((desc, desc.dual), ratios):  # a primal pair, then a dual one
            z = rng.normal(size=dim) * math.exp(rng.uniform(-2.0, 2.0))
            w = rng.normal(size=dim) * math.exp(rng.uniform(-2.0, 2.0))
            gap = lr_norm(w - z, space.r)
            if gap > 1e-12:
                found.append(space.p * bregman_distance(z, w, space) / gap ** space.p)
    c_min, g_max = min(ratios[0]), max(ratios[1])
    if not math.isfinite(c_min) or g_max == 0.0:
        raise ConfigurationError("constant estimation degenerated; increase samples")
    return ConstantsConfig(1.2 * g_max, 0.8 * c_min)


@dataclass
class RunResult:
    """A run's per-epoch record and final state, with the work counters `work` reports: draws[i] counts the
    draws of block i (none for Landweber), step_s is the perf_counter time of the run's steps, and snapshot_s
    its share of the snapshot batches' time, each batch split evenly over its runs."""

    record: ConvergenceRecord
    state: IterationState
    draws: np.ndarray
    step_s: float
    snapshot_s: float

    def work(self) -> dict:
        """Steps, draws per block, snapshots and their seconds, as JSON values (manifest.json records them)."""
        return {"steps": self.state.k, "draws": self.draws.tolist(), "snapshots": self.record.epoch.size,
                "step_s": self.step_s, "snapshot_s": self.snapshot_s}


def run(op: BlockOperator, obs: ObservationSet, cfg: SolverConfig,
        x_true=None, x_ref=None) -> RunResult:
    """Run the configured iteration from zero and record per-epoch diagnostics.

    x_ref is the reference for the Bregman column (usually the minimum norm
    solution); x_true feeds the normalised l1/l2 error columns.  Both are
    optional, leaving NaN columns; when given, each must be a finite vector
    of length op.input_dim, and x_true nonzero.  An
    a-priori cfg.stopping replaces cfg.epochs: the run stops at
    k(obs.noise_level) with power cfg.x_space.p.  The run is fully
    determined by (cfg.seed, op, obs).
    """
    return run_seeds(op, obs, cfg, 1, x_true=x_true, x_ref=x_ref)[0]


def run_seeds(op: BlockOperator, obs: ObservationSet, cfg: SolverConfig, n_seeds: int,
              x_true=None, x_ref=None) -> list[RunResult]:
    """run for seeds cfg.seed .. cfg.seed + n_seeds - 1, one result per seed in order, bit for bit.  Run entry is
    checked once, before the first step; the seeds advance in lockstep, one snapshot batch per epoch.  When that
    fails, each seed re-runs alone in seed order, and the first to fail alone raises its error, the one a loop of
    single-seed runs raises first; if none does, the batch's error is raised.  One Landweber run serves every seed,
    its step and snapshot seconds split evenly over their results."""
    check_count(n_seeds, "n_seeds")
    check_seed(cfg.seed, "seed", n_seeds)
    if cfg.method == "landweber" and n_seeds > 1:
        one = run(op, obs, cfg, x_true=x_true, x_ref=x_ref)
        return [replace(one, step_s=one.step_s / n_seeds, snapshot_s=one.snapshot_s / n_seeds) for _ in range(n_seeds)]
    _checked_start(op, obs, cfg, x_true=x_true, x_ref=x_ref)
    per_epoch = 1 if cfg.method == "landweber" else op.n_blocks
    total = (cfg.epochs * per_epoch if cfg.stopping is None
             else a_priori_stop_index(cfg.stopping, obs.noise_level, cfg.x_space.p))
    snapshot = _snapshot_kernel(op, obs, cfg, x_true, x_ref)

    def lockstep(cfgs):
        states, records = [initial_state(op, c) for c in cfgs], [[] for _ in cfgs]
        draws = [np.zeros(op.n_blocks, dtype=np.int64) for _ in cfgs]
        step_s, snapshot_s = [0.0] * len(cfgs), 0.0
        for until in range(0, total + per_epoch, per_epoch):
            until = min(until, total)
            mu = step_size(cfg.schedule, max(until, 1))
            for j, (s, c) in enumerate(zip(states, cfgs)):
                start = perf_counter()
                _advance(s, op, obs, c, until, draws[j])
                step_s[j] += perf_counter() - start
            start = perf_counter()
            rows = snapshot(np.stack([s.x for s in states]), until, mu)
            snapshot_s += perf_counter() - start
            for record, row in zip(records, rows):
                record.append((until / per_epoch, *row, mu))
        return [RunResult(ConvergenceRecord.from_rows(r), s, d, t, snapshot_s / len(cfgs))
                for r, s, d, t in zip(records, states, draws, step_s)]

    cfgs = [with_seed(cfg, cfg.seed + j) for j in range(n_seeds)]
    try:
        return lockstep(cfgs)
    except IterationInvariantError as exc:
        if n_seeds == 1:  # a batch of one already failed alone
            raise
        error = exc
    for c in cfgs:  # outside the handler, so a seed's error carries only its own cause
        lockstep([c])
    raise error


def _snapshot_kernel(op, obs, cfg, x_true, x_ref):
    """snapshot(X, k, mu): (objective, residual, Bregman, delta1, delta2) of each row x of X, bit for bit what
    the 1-D functions give x alone.  A non-finite residual, objective or Bregman distance, checked in that order
    over all rows, raises IterationInvariantError; for one row it is x's own."""
    desc = cfg.x_space
    nw = None if x_ref is None else lr_norm(x_ref, desc.r)
    if x_true is not None:
        xt = _real(x_true, "x_true")
        norms = _reference_norms(xt)

    def snapshot(X, k, mu):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises the typed error below, not a warning
            try:
                quantity = "residual"
                R = _row_products(op.full_matrix, X) - obs.concatenated
                res = _lr_norm_rows(*_screen_rows(R), op.output_space.r)
                quantity = "objective"
                obj = _objective_rows(R, op, cfg.gradient_exponent)
                quantity = "Bregman distance"
                breg = [math.nan] * len(X) if x_ref is None else _bregman_rows(X, x_ref, nw, desc)
            except InvalidInputError as exc:
                raise IterationInvariantError(
                    f"diverged at iteration {k} (non-finite or overflowing {quantity}, "
                    f"step size mu = {mu:.3g}); reduce the step size"
                ) from exc
        deltas = [(math.nan, math.nan)] * len(X) if x_true is None else _delta_rows(X, xt, norms)
        return [(o, r, b, *d) for o, r, b, d in zip(obj, res, breg, deltas)]

    return snapshot
