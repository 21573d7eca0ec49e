"""Quality metrics, theoretical bound calculators, and seed-ensemble statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .exceptions import ConfigurationError, DimensionMismatchError, InvalidInputError
from .noise import check_seed, generator
from .operators import BlockOperator, CsrMatrix, ObservationSet, check_blocks_match, check_count, save_matrix_csv
from .spaces import SpaceDescriptor, _exponent, _real, _scalar, bregman_distance, lr_norm

__all__ = [
    "ConvergenceRecord",
    "EnsembleTrace",
    "StabilityResult",
    "objective",
    "delta_metrics",
    "support_f1",
    "polyak_bound",
    "rate_envelope",
    "ensemble_stats",
    "monte_carlo_mean",
    "stability_probe",
    "minimum_norm_solution",
]


@dataclass
class ConvergenceRecord:
    """Per-epoch trace of a solver run.

    Columns: epoch index, objective value, full residual norm, Bregman
    distance to the reference, normalised l1/l2 errors against the true
    signal, and the step size in effect.  Reference columns are NaN when no
    reference was supplied.
    """

    epoch: np.ndarray = field(default_factory=lambda: np.empty(0))
    objective: np.ndarray = field(default_factory=lambda: np.empty(0))
    residual: np.ndarray = field(default_factory=lambda: np.empty(0))
    bregman: np.ndarray = field(default_factory=lambda: np.empty(0))
    delta1: np.ndarray = field(default_factory=lambda: np.empty(0))
    delta2: np.ndarray = field(default_factory=lambda: np.empty(0))
    step: np.ndarray = field(default_factory=lambda: np.empty(0))

    _COLUMNS: ClassVar[tuple]  # the field names in order, set below the class

    def __post_init__(self):
        for name in self._COLUMNS:
            setattr(self, name, _real(getattr(self, name), f"column {name}"))
        self.validate()

    def validate(self):
        n = self.epoch.size
        for name, shape in ((c, getattr(self, c).shape) for c in self._COLUMNS):
            if shape != (n,):
                raise DimensionMismatchError(f"column {name} must be a 1-D vector of {n} entries; got shape {shape}")
        if n > 1 and not np.all(np.diff(self.epoch) > 0):
            raise InvalidInputError("epochs must be strictly increasing")
        for name in ("epoch", "objective", "residual", "step"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidInputError(f"column {name} contains non-finite entries")

    def column(self, name: str) -> np.ndarray:
        if name not in self._COLUMNS:
            raise ConfigurationError(f"column must be one of {self._COLUMNS}; got {name!r}")
        return getattr(self, name)

    def to_csv(self, path):
        save_matrix_csv(path, np.column_stack([getattr(self, c) for c in self._COLUMNS]), CSV_HEADER)

    @classmethod
    def from_rows(cls, rows) -> "ConvergenceRecord":
        return cls(*(zip(*rows) if rows else [[]] * len(cls._COLUMNS)))


ConvergenceRecord._COLUMNS = tuple(f.name for f in fields(ConvergenceRecord))
CSV_HEADER = ",".join(ConvergenceRecord._COLUMNS)


def objective(x, op: BlockOperator, obs: ObservationSet, exponent: float) -> float:
    """(1/N) sum_i (1/exponent) ||A_i x - y_i||^exponent in the output norm."""
    exponent = _exponent(exponent, "exponent")
    check_blocks_match(op, obs)
    with np.errstate(over="ignore"):  # an overflowing difference is the typed error below
        residual = op.apply_all(x) - obs.concatenated
    if not np.isfinite(residual).all():
        raise InvalidInputError("residual contains non-finite entries")
    return _objective_rows(residual[None], op, exponent)[0]


def _objective_rows(R: np.ndarray, op: BlockOperator, exponent: float) -> list:
    """The objective of each row of a 2-D R of block-ordered full residuals A x - y, each bit for bit the row's own.

    Each block norm is scaled by the block's max |r_j| like lr_norm, so large
    output exponents stay stable; an all-zero block keeps the scale 1.  Raises
    InvalidInputError, and lets no numpy warning escape, when the objective
    overflows.
    """
    ry = op.output_space.r
    a = np.abs(R)
    m = np.maximum.reduceat(a, op.block_starts, axis=1)
    m[m == 0.0] = 1.0
    norms = m * np.add.reduceat((a / np.repeat(m, op.block_sizes, axis=1)) ** ry, op.block_starts, axis=1) ** (1.0 / ry)
    with np.errstate(over="ignore"):
        values = (np.add.reduce(norms ** exponent, axis=1) / (exponent * op.n_blocks)).tolist()
    for value in values:
        if not math.isfinite(value):
            raise InvalidInputError(f"objective overflows the float range ({value})")
    return values


def _paired(x, x_true):
    """x and x_true as finite flat float vectors of one length."""
    x = _real(x, "x").ravel()
    xt = _real(x_true, "x_true").ravel()
    if x.shape != xt.shape:
        raise DimensionMismatchError("reconstruction and reference lengths differ")
    for name, v in (("x", x), ("x_true", xt)):
        if not np.isfinite(v).all():
            raise InvalidInputError(f"{name} contains non-finite entries")
    return x, xt


_TINY = np.finfo(float).tiny  # the smallest normal float


def _norms_rows(D) -> tuple[list, list]:
    """The l1 and l2 norms of each row of a 2-D D, from the plain sums of |d| and d * d.  As in ensemble_stats,
    a finite row's sum that overflows, or sum of squares below the normal range, is recomputed from the row
    over its max |d| and scaled back; a row with an infinite entry keeps inf.  No numpy warning escapes."""
    with np.errstate(over="ignore"):
        l1 = np.add.reduce(np.abs(D), axis=1).tolist()
        sq = np.add.reduce(D * D, axis=1).tolist()
    l2 = [math.sqrt(s) for s in sq]
    for i, (s1, s2) in enumerate(zip(l1, sq)):
        if s1 == math.inf or not _TINY <= s2 < math.inf:
            a = np.abs(D[i])
            m = float(np.maximum.reduce(a))
            if 0.0 < m < math.inf:
                a /= m
                if s1 == math.inf:
                    l1[i] = m * float(np.add.reduce(a))
                if not _TINY <= s2 < math.inf:
                    l2[i] = m * math.sqrt(float(np.add.reduce(a * a)))
    return l1, l2


def _reference_norms(xt) -> tuple[float, float]:
    """||x_true||_1 and ||x_true||_2, the denominators of delta1 and delta2."""
    (n1,), (n2,) = _norms_rows(xt[None])
    if n1 == 0.0:
        raise InvalidInputError("reference signal must be nonzero")
    return n1, n2


def _delta_rows(X, xt, norms) -> list:
    """(delta1, delta2) of each row of a 2-D X against xt, given norms = _reference_norms(xt)."""
    with np.errstate(over="ignore"):  # a huge x's errors are inf, not a warning
        D = xt - X
    return [(e1 / norms[0], e2 / norms[1]) for e1, e2 in zip(*_norms_rows(D))]


def delta_metrics(x, x_true):
    """Normalised l1 and l2 reconstruction errors (delta1, delta2), for any finite x and nonzero finite x_true."""
    x, xt = _paired(x, x_true)
    return _delta_rows(x[None], xt, _reference_norms(xt))[0]


def support_f1(x, x_true, threshold: float | None = None) -> float:
    """F1 score of {|x_j| > threshold} against the true support {x_true_j != 0}.

    The default threshold is 0.1 * max|x_true|.
    """
    x, xt = _paired(x, x_true)
    if threshold is None:
        threshold = 0.1 * float(np.max(np.abs(xt)))
    threshold = _scalar(threshold, f"threshold must be positive and finite; got {threshold}")
    predicted = np.abs(x) > threshold
    actual = np.abs(xt) > 0
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    if 2 * tp + fp + fn == 0:
        return 1.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def polyak_bound(delta0: float, alpha: float, steps) -> np.ndarray:
    """Closed-form majorant of the recursion d_{n+1} <= d_n - mu_{n+1} d_n^(1+alpha).

    Entry n of the result bounds d_n; entry 0 equals delta0.
    """
    alpha = _scalar(alpha, f"alpha must be finite and > 0; got {alpha}")
    return _majorant(delta0, alpha, _reals(steps, "step sizes must be positive and finite", lambda mu: 0.0 < mu))


def rate_envelope(delta0: float, alpha: float, per_step) -> np.ndarray:
    """Convergence-rate envelope under a Hoelder-type stability exponent alpha.

    For alpha = 1 the envelope after k steps is delta0 * exp(-sum_{j<=k} c_j);
    for alpha > 1 it is delta0 * (1 + (alpha-1) delta0^(alpha-1)
    sum_{j<=k} c_j)^(-1/(alpha-1)).  Entry 0 equals delta0.
    """
    alpha = _scalar(alpha, f"alpha must be finite and >= 1; got {alpha}", lambda a: 1.0 <= a < math.inf)
    rates = _reals(per_step, "per-step rates must be finite and >= 0", lambda c: 0.0 <= c)
    return _majorant(delta0, alpha - 1.0, rates)


def _reals(values, message: str, ok) -> np.ndarray:
    """values as a 1-D float array of finite entries for which ok holds, else ConfigurationError(message)."""
    try:
        v = _real(values, "values")
    except DimensionMismatchError:  # a non-number, a complex value or a ragged list: these are parameters
        raise ConfigurationError(message) from None
    if v.ndim != 1 or not (ok(v) & (v < math.inf)).all():
        raise ConfigurationError(message)
    return v


def _majorant(delta0: float, a: float, rates: np.ndarray) -> np.ndarray:
    """delta0 (1 + a delta0^a S_n)^(-1/a) over the partial sums S_0 = 0, S_n of rates; delta0 exp(-S_n) at a = 0.

    Rescaled in log space, so no term overflows: with log S_n accumulated by logaddexp and w = log delta0 +
    (log a + log S_n)/a, the factor is exp(-max(w, 0) - log1p(exp(-a|w|))/a); at S_0, w = -inf and it is 1.
    """
    delta0 = _scalar(delta0, f"delta0 must be finite and >= 0; got {delta0}", lambda d: 0.0 <= d < math.inf,
                     InvalidInputError)
    with np.errstate(divide="ignore", over="ignore"):  # log 0 = -inf; a sum or a|w| past the range is inf, exp(-inf) = 0
        if a == 0.0:
            return delta0 * np.exp(-np.concatenate([[0.0], np.cumsum(rates)]))
        w = np.log(delta0) + (math.log(a) + np.logaddexp.accumulate(np.log(np.concatenate([[0.0], rates])))) / a
        return delta0 * np.exp(-np.maximum(w, 0.0) - np.log1p(np.exp(-a * np.abs(w))) / a)


@dataclass
class EnsembleTrace:
    """Per-epoch sample mean and standard error over a seed ensemble."""

    epoch: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_seeds: int


def ensemble_stats(samples) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise sample mean and standard error over the rows (one per seed).

    The standard error is taken from the deviations off the first row, so equal
    samples give exactly 0, as does a single row.  A column of finite samples
    near the float range can overflow in the sum, the deviations or the squares;
    such a column is recomputed from its samples divided by its max |value|, then
    scaled back.  Every other column's mean is numpy's, bit for bit.
    """
    data = _real(samples, "samples")  # rows of unequal length are the reader's error
    if not data.ndim or not len(data):
        raise DimensionMismatchError(f"samples must be one or more rows of one length; got shape {data.shape}")
    data = np.vstack(data)
    n = data.shape[0]

    def stderr_of(d):
        return (d - d[0]).std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(d.shape[1])

    with np.errstate(over="ignore", invalid="ignore"):
        mean = data.mean(axis=0)
        stderr = stderr_of(data)
        redo = ~(np.isfinite(mean) & np.isfinite(stderr)) & np.isfinite(data).all(axis=0)
        if redo.any():
            scale = np.abs(data[:, redo]).max(axis=0)
            scaled = data[:, redo] / scale
            mean[redo] = scaled.mean(axis=0) * scale
            stderr[redo] = stderr_of(scaled) * scale
    return mean, stderr


def monte_carlo_mean(op, obs, cfg, n_seeds: int, field_name: str = "bregman",
                     x_true=None, x_ref=None) -> EnsembleTrace:
    """Run the solver with seeds cfg.seed .. cfg.seed + n_seeds - 1 and average.

    Returns the per-epoch sample mean and standard error of the requested
    record column.  Accumulation follows ascending seed order, so the result
    is deterministic; the mean itself is order-independent.
    """
    from . import solver  # deferred to avoid a module cycle

    check_count(n_seeds, "n_seeds, for a standard error,", 2)
    if field_name not in ConvergenceRecord._COLUMNS:
        raise ConfigurationError(f"field_name must be one of {ConvergenceRecord._COLUMNS}; got {field_name!r}")
    records = [r.record for r in solver.run_seeds(op, obs, cfg, n_seeds, x_true=x_true, x_ref=x_ref)]
    mean, stderr = ensemble_stats([r.column(field_name) for r in records])
    return EnsembleTrace(records[0].epoch, mean, stderr, n_seeds)


@dataclass
class StabilityResult:
    """Mean discrepancies between noise-coupled runs, one row per noise level."""

    deltas: np.ndarray
    bregman_gap: np.ndarray
    primal_gap: np.ndarray
    dual_gap: np.ndarray


def stability_probe(op, y_clean, cfg, k_fixed: int, deltas, n_seeds: int = 20,
                    noise_seed: int = 0) -> StabilityResult:
    """Couple clean and noisy runs through identical index draws.

    Seed j's clean run and its noisy run at each level (the clean data plus a
    Gaussian direction from Philox key noise_seed + j, rescaled to that exact
    level) advance k_fixed iterations with the same random indices; the mean
    Bregman distance, primal gap and dual-map gap of their end states are reported.
    Both key ranges, from cfg.seed and from noise_seed, and every level are checked before any run.
    """
    from . import solver

    check_count(n_seeds, "n_seeds")
    check_seed(cfg.seed, "seed", n_seeds)
    check_seed(noise_seed, "noise_seed", n_seeds)
    y_clean = _real(y_clean, "y_clean").ravel()
    obs_clean = ObservationSet.from_full(y_clean, op)
    deltas = _reals(deltas, f"deltas must be a 1-D sequence of finite noise levels >= 0; got {deltas!r}",
                    lambda d: 0.0 <= d)
    noisy_obs = []  # every seed's noisy data at each level, formed and checked before the first run
    for j in range(n_seeds):
        direction = generator(noise_seed + j).normal(size=y_clean.size)
        norm = lr_norm(direction, op.output_space.r)
        noisy_obs.append([])
        for delta in deltas:
            with np.errstate(over="ignore"):  # a level past the float range is the typed error below
                y_noisy = y_clean + (delta * direction / norm if delta > 0 else np.zeros_like(y_clean))
            if not np.isfinite(y_noisy).all():
                raise InvalidInputError(f"noise level {delta} takes the noisy data past the float range")
            noisy_obs[j].append(ObservationSet.from_full(y_noisy, op, noise_level=float(delta)))
    gaps = np.zeros((deltas.size, 3))  # per level: Bregman, primal and dual gaps, summed in seed order
    for j in range(n_seeds):
        cfg_j = solver.with_seed(cfg, cfg.seed + j)
        clean = solver.iterate_n(op, obs_clean, cfg_j, k_fixed)
        for di, obs_noisy in enumerate(noisy_obs[j]):
            noisy = solver.iterate_n(op, obs_noisy, cfg_j, k_fixed)
            gaps[di] += (bregman_distance(noisy.x, clean.x, cfg.x_space), lr_norm(noisy.x - clean.x, cfg.x_space.r),
                         lr_norm(noisy.dual_x - clean.dual_x, cfg.x_space.r_conj))
    return StabilityResult(deltas, *(gaps / n_seeds).T)


def minimum_norm_solution(A, y, x_space: SpaceDescriptor, landweber_steps: int = 100_000) -> np.ndarray:
    """Approximate the solution of A x = y with the smallest l^r norm.

    The minimum norm solution depends only on the norm exponent r of
    x_space, never on its gauge power.  For r = 2 this is the dense
    least-norm solve.  Otherwise a long deterministic descent run from zero
    is used, with the canonical convexity power max(r, 2) as the internal
    gauge and a constant step of 0.9 times the bound below; starting at zero
    keeps every iterate's dual image inside the closure of range(A^T), which
    pins the limit to the minimum norm solution.
    """
    if isinstance(A, CsrMatrix):  # lstsq and the spectral norm need the dense matrix
        raise ConfigurationError("minimum_norm_solution needs a dense matrix; got a CsrMatrix")
    op = BlockOperator(A, SpaceDescriptor.hilbert())  # both check their input, also for r = 2
    obs = ObservationSet.from_full(y, op)
    A, r = op.full_matrix, x_space.r
    if r == 2.0:
        sol, *_ = np.linalg.lstsq(A, obs.concatenated, rcond=None)
        return sol
    from . import solver

    spectral = np.linalg.norm(A, 2)
    if spectral == 0.0:  # A = 0: zero is the minimum norm least-squares solution, as lstsq gives at r = 2
        return np.zeros(A.shape[1])
    r_conj = x_space.r_conj
    with np.errstate(divide="ignore", over="ignore"):  # a step past the float range is ConstantSchedule's typed error
        if r < 2.0:
            # gauge 2: the dual l^(r*) (r* > 2) is 2-smooth with constant r* - 1
            mu = 0.9 / ((r_conj - 1.0) * spectral ** 2)
        else:
            # gauge r: the dual l^(r*) (r* < 2) is r*-smooth; use a safety factor 2.
            # The step needs ||A||_{l^r -> l^2} <= ||A||_2 n^(1/2 - 1/r), since
            # ||x||_2 <= n^(1/2 - 1/r) ||x||_r for x in R^n.
            norm = spectral * A.shape[1] ** (0.5 - 1.0 / r)
            mu = 0.9 * (r_conj / (2.0 * norm ** r_conj)) ** (1.0 / (r_conj - 1.0))
    cfg = solver.SolverConfig(
        x_space=SpaceDescriptor.for_norm(r),
        y_space=SpaceDescriptor.hilbert(),
        schedule=solver.ConstantSchedule(mu),
        method="landweber",
    )
    return solver.iterate_n(op, obs, cfg, landweber_steps).x
