"""Row-partitioned forward operators, dense or sparse, and problem builders.

Covers the two benchmark problems (a 1-D integral equation with a sparse
signal, and parallel-beam tomography of a disk phantom), the interleaved
row partition used for mini-batching, and Boyd's power method for operator
norms between l^r spaces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import ConfigurationError, DataFormatError, DimensionMismatchError, InvalidInputError
from .noise import generator
from .spaces import SpaceDescriptor, _duality_rows, _exponent, _lr_norm_rows, _scalar, _screen_rows

__all__ = [
    "CsrMatrix",
    "BlockOperator",
    "ObservationSet",
    "RadonGeometry",
    "NormEstimate",
    "partition_rows",
    "check_partition",
    "check_count",
    "build_integral_operator",
    "check_signal_size",
    "exact_sparse_signal",
    "build_radon_operator",
    "check_phantom_size",
    "sparse_disk_phantom",
    "boyd_operator_norm",
    "block_norms",
    "max_block_norm",
    "save_matrix_csv",
    "load_matrix_csv",
]


class CsrMatrix:
    """A sparse matrix in compressed sparse row form, held in plain numpy arrays.

    Row i stores the values ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``; a column may repeat within a row, and
    its values then add up.  ``A @ x`` is an ``np.add.reduceat`` segment sum
    over ``indptr`` into the non-empty rows only, since it gives an empty
    segment the next stored value; ``A.T @ y`` is a ``np.bincount`` over
    columns.  Both form the per-entry products in place, in the gathered ``x`` or
    the repeated ``y``.  ``rows(start, stop)`` is a view sharing ``indices`` and ``data``.
    """

    ndim = 2

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.data = np.asarray(data, dtype=float)
        self.shape = (int(shape[0]), int(shape[1]))
        m, n = self.shape
        if self.indptr.shape != (m + 1,) or self.indptr[0] != 0:
            raise DimensionMismatchError(f"indptr must have {m + 1} entries starting at 0")
        self.row_nnz = np.diff(self.indptr)
        if (self.row_nnz < 0).any() or not self.indices.shape == self.data.shape == (self.indptr[-1],):
            raise DimensionMismatchError("indptr, indices and data do not describe the same entries")
        if self.indices.size and not (0 <= self.indices.min() and self.indices.max() < n):
            raise DimensionMismatchError(f"column index outside [0, {n})")
        self.filled = np.flatnonzero(self.row_nnz)
        self.starts = self.indptr[self.filled]  # the filled rows' segment starts, for every product

    @property
    def T(self) -> "_CsrTranspose":
        return _CsrTranspose(self)

    def __matmul__(self, x) -> np.ndarray:
        g = _operand(x, self.shape[1])[self.indices]
        g *= self.data
        out = np.zeros(self.shape[0])
        out[self.filled] = np.add.reduceat(g, self.starts)
        return out

    def any(self) -> bool:
        return bool(self.data.any())

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (np.repeat(np.arange(self.shape[0]), self.row_nnz), self.indices), self.data)
        return out

    def rows(self, start: int, stop: int) -> "CsrMatrix":
        """Rows start .. stop-1 as a view of this matrix's indices and data."""
        if not (isinstance(start, (int, np.integer)) and isinstance(stop, (int, np.integer))
                and 0 <= start <= stop <= self.shape[0]):
            raise DimensionMismatchError(f"rows {start!r}:{stop!r} must be an ordered integer slice of [0, {self.shape[0]})")
        lo, hi = self.indptr[start], self.indptr[stop]
        return CsrMatrix(self.indptr[start:stop + 1] - lo, self.indices[lo:hi], self.data[lo:hi],
                         (stop - start, self.shape[1]))

    def take(self, rows) -> "CsrMatrix":
        """A new matrix of the given rows, in the given order."""
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= self.shape[0]):
            raise DimensionMismatchError(f"rows to take must be a 1-D sequence of integers in [0, {self.shape[0]})")
        rows = rows.astype(np.intp)
        counts = self.row_nnz[rows]
        ends = np.cumsum(counts)
        entries = np.repeat(self.indptr[rows] - (ends - counts), counts) + np.arange(counts.sum())
        return CsrMatrix(np.concatenate(([0], ends)), self.indices[entries], self.data[entries],
                         (rows.size, self.shape[1]))


class _CsrTranspose:
    """The transpose of a CsrMatrix, for products ``A.T @ y``."""

    def __init__(self, matrix: CsrMatrix):
        self.matrix = matrix
        self.shape = matrix.shape[::-1]

    def __matmul__(self, y) -> np.ndarray:
        A = self.matrix
        w = np.repeat(_operand(y, A.shape[0]), A.row_nnz)
        w *= A.data
        return np.bincount(A.indices, weights=w, minlength=A.shape[1])


def _operand(v, size: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (size,):
        raise DimensionMismatchError(f"expected a vector of length {size}, got shape {v.shape}")
    return v


@dataclass
class BlockOperator:
    """A forward operator stored once, as one matrix whose rows are in block order.

    ``full_matrix`` is a dense ``ndarray`` or a ``CsrMatrix``; ``block_sizes``
    gives each block's row count (one block when None), and ``blocks[i]`` is
    the row-slice view of ``full_matrix`` that block i covers, so the two
    cannot disagree.  A C-contiguous float64 matrix is used as given, so an
    in-place edit of it is seen by the operator; other dense input is copied
    once to C order.  ``row_order[k]`` is the original row that stored row k
    holds (``np.arange(m)`` when None), so an interleaved partition can be
    undone.
    """

    full_matrix: np.ndarray | CsrMatrix
    output_space: SpaceDescriptor = field(default_factory=SpaceDescriptor.hilbert)
    block_sizes: np.ndarray | None = None
    row_order: np.ndarray | None = None

    def __post_init__(self):
        sparse = isinstance(self.full_matrix, CsrMatrix)
        if not sparse:
            try:
                self.full_matrix = np.ascontiguousarray(self.full_matrix, dtype=float)
            except (TypeError, ValueError) as exc:  # a list of blocks of unequal shapes, say
                raise DimensionMismatchError(f"operator needs a 2-D matrix: {exc}") from exc
        A = self.full_matrix
        if A.ndim != 2 or not A.shape[1]:
            raise DimensionMismatchError(f"operator needs a 2-D matrix with at least one column; got shape {A.shape}")
        sizes = np.asarray([A.shape[0]] if self.block_sizes is None else self.block_sizes)
        if sizes.dtype.kind not in "iu" or sizes.ndim != 1 or not sizes.size or (sizes < 1).any() \
                or sizes.sum() != A.shape[0]:
            raise DimensionMismatchError(f"block sizes must be positive integers that sum to the {A.shape[0]} rows")
        if not np.isfinite(A.data if sparse else A).all():
            raise InvalidInputError("operator matrix contains non-finite entries")
        self.block_sizes = sizes.astype(np.intp)
        # Segment boundaries of a block-ordered row vector (see apply_all), for
        # per-block reductions with np.ufunc.reduceat.
        self.block_starts = np.cumsum(self.block_sizes) - self.block_sizes
        if sparse:
            self.blocks = [A.rows(a, a + m) for a, m in zip(self.block_starts, self.block_sizes)]
        else:
            self.blocks = np.split(A, self.block_starts[1:])
        order = np.arange(A.shape[0]) if self.row_order is None else np.asarray(self.row_order)
        # A permutation check by counting, not sorting (np.sort would page in code that no run
        # otherwise uses, about 0.13 MB of peak RSS), the range first so that bincount stays small.
        if order.shape != (A.shape[0],) or order.dtype.kind not in "iu" or order.min() < 0 \
                or order.max() >= A.shape[0] or (np.bincount(order.astype(np.intp)) != 1).any():
            raise DimensionMismatchError(f"row order must be a permutation of the {A.shape[0]} rows")
        self.row_order = order

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def input_dim(self) -> int:
        return self.full_matrix.shape[1]

    @property
    def total_rows(self) -> int:
        return self.full_matrix.shape[0]

    def apply(self, i: int, x) -> np.ndarray:
        """A_i x."""
        self._check_index(i)
        return self.blocks[i] @ _operand(x, self.input_dim)

    def apply_adjoint(self, i: int, ys) -> np.ndarray:
        """A_i^T ys."""
        self._check_index(i)
        return self.blocks[i].T @ _operand(ys, self.blocks[i].shape[0])

    def apply_all(self, x) -> np.ndarray:
        """Full product A x with rows in block order."""
        return self.full_matrix @ _operand(x, self.input_dim)

    def _check_index(self, i: int):
        if not isinstance(i, (int, np.integer)) or not 0 <= i < self.n_blocks:
            raise ConfigurationError(f"block index must be an integer in [0, {self.n_blocks}); got {i!r}")


@dataclass
class ObservationSet:
    """Block-ordered data stored once in ``concatenated``, with ``blocks[i]`` as
    views of it, plus the noise level of the whole data set."""

    blocks: list
    noise_level: float = 0.0

    def __post_init__(self):
        _scalar(self.noise_level, f"noise level must be finite and >= 0; got {self.noise_level}",
                lambda d: 0.0 <= d < math.inf)
        if not self.blocks:
            raise ConfigurationError("data needs at least one block")
        parts = [np.asarray(b, dtype=float).ravel() for b in self.blocks]
        self.concatenated = np.concatenate(parts)
        if not np.isfinite(self.concatenated).all():
            raise InvalidInputError("data contains non-finite entries")
        self.blocks = np.split(self.concatenated, np.cumsum([b.size for b in parts[:-1]]))

    @classmethod
    def from_full(cls, y_full, op: BlockOperator, noise_level: float = 0.0) -> "ObservationSet":
        """Split a full data vector with the same row selection as the operator."""
        y = np.asarray(y_full, dtype=float).ravel()
        if y.size != op.total_rows:
            raise DimensionMismatchError(f"data length {y.size} != operator rows {op.total_rows}")
        return cls(np.split(y[op.row_order], op.block_starts[1:]), noise_level)


def check_blocks_match(op: BlockOperator, obs: ObservationSet):
    """Raise DimensionMismatchError unless data block i has as many entries as A_i has rows."""
    sizes = [b.size for b in obs.blocks]
    if sizes != op.block_sizes.tolist():
        raise DimensionMismatchError(f"data block sizes {sizes} differ from the operator's {op.block_sizes.tolist()}")


def partition_rows(full, n_batches: int, output_space: SpaceDescriptor | None = None) -> BlockOperator:
    """Split a matrix (dense or CsrMatrix) into n_batches interleaved blocks.

    Block j takes rows j, j + n_batches, j + 2 n_batches, ...  This yields
    equisized, well balanced blocks; n_batches must divide the row count.
    """
    A = full if isinstance(full, CsrMatrix) else np.asarray(full, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatchError("expected a matrix")
    n_rows = A.shape[0]
    check_partition(n_rows, n_batches)
    order = np.arange(n_rows).reshape(-1, n_batches).T.ravel()  # the rows of block 0, then of block 1, ...
    stacked = A.take(order) if isinstance(A, CsrMatrix) else A[order]
    return BlockOperator(stacked, output_space or SpaceDescriptor.hilbert(), [n_rows // n_batches] * n_batches, order)


def check_partition(n_rows: int, n_batches: int) -> None:
    """partition_rows deals the rows into n_batches blocks of equal size."""
    check_count(n_batches, f"number of batches, which must divide the row count ({n_rows}),")
    if n_rows % n_batches != 0:
        raise ConfigurationError(f"number of batches ({n_batches}) must divide the row count ({n_rows})")


def check_count(value, name: str, minimum: int = 1) -> None:
    """A count (of batches, seeds, steps, ...) is an int or numpy integer, never a bool, of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}; got {value!r}")


def integral_kernel(t, s):
    """40 t (1 - s) for t <= s, else 40 s (1 - t); symmetric and >= 0 on [0,1]^2."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    return np.where(t <= s, 40.0 * t * (1.0 - s), 40.0 * s * (1.0 - t))


def build_integral_operator(n: int, midpoint_columns: bool = True) -> np.ndarray:
    """Quadrature discretisation of the integral operator on (0, 1).

    Entry (j, k) is kernel(t_j, s_k) / n with t_j = j/n (j = 0..n-1).  By
    default the column nodes are the subinterval midpoints s_k = (2k+1)/(2n);
    with midpoint_columns=False the nodes are (2k+1)/n, which run outside the
    interval and are kept only for comparison runs.
    """
    check_count(n, "discretisation size", 2)
    t = np.arange(n, dtype=float) / n
    if midpoint_columns:
        s = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    else:
        s = (2.0 * np.arange(n) + 1.0) / n
    # integral_kernel(t[:, None], s[None, :]) / n, written into the one output
    # array: no n x n temporaries besides the mask.
    K = np.multiply.outer(40.0 * t, 1.0 - s)
    np.multiply.outer(1.0 - t, 40.0 * s, out=K, where=np.greater.outer(t, s))
    K /= n
    return K


def check_signal_size(n: int) -> None:
    """exact_sparse_signal resolves its plateaus from n = 40 on."""
    if not isinstance(n, (int, np.integer)) or n < 40:  # check_count's rule, with the plateau reason
        raise ConfigurationError(f"need n >= 40 to resolve the signal plateaus, got {n!r}")


def exact_sparse_signal(n: int) -> np.ndarray:
    """Piecewise-constant sparse signal sampled at the midpoints (2j+1)/(2n).

    Value 1 on [9/40, 11/40] and [29/40, 31/40], value 2 on [19/40, 21/40],
    zero elsewhere.
    """
    check_signal_size(n)
    s = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    x = np.zeros(n)
    x[(s >= 9 / 40) & (s <= 11 / 40)] = 1.0
    x[(s >= 29 / 40) & (s <= 31 / 40)] = 1.0
    x[(s >= 19 / 40) & (s <= 21 / 40)] = 2.0
    return x


@dataclass(frozen=True)
class RadonGeometry:
    """2-D parallel-beam acquisition geometry.

    Angles are a * angle_step degrees for a = 0..n_angles-1; the detector
    array is centred and spans the circumscribed circle of the pixel grid.
    """

    grid_side: int
    n_angles: int
    angle_step: float
    n_detectors: int
    pixel_size: float

    def __post_init__(self):
        for name in ("grid_side", "n_angles", "n_detectors"):
            check_count(getattr(self, name), name)
        _scalar(self.pixel_size, f"pixel_size must be positive and finite; got {self.pixel_size}")
        _scalar(self.angle_step, f"angle_step must be positive and finite; got {self.angle_step}")
        if not self.n_angles * self.angle_step <= 180.0 + 1e-9:
            raise ConfigurationError(
                f"angle coverage {self.n_angles * self.angle_step} deg exceeds 180 deg"
            )

    @property
    def detector_spacing(self) -> float:
        return self.grid_side * self.pixel_size * math.sqrt(2.0) / self.n_detectors

    def detector_offsets(self) -> np.ndarray:
        d = np.arange(self.n_detectors, dtype=float)
        return (d - (self.n_detectors - 1) / 2.0) * self.detector_spacing

    def angles_deg(self) -> np.ndarray:
        return np.arange(self.n_angles, dtype=float) * self.angle_step


def build_radon_operator(geom: RadonGeometry) -> CsrMatrix:
    """Sparse parallel-beam projector: exact ray/pixel intersection lengths.

    Row (a * n_detectors + d) holds, for each pixel the ray (angle a,
    detector d) crosses, the length of the intersection.  Rays that miss the
    grid give empty rows, so the sinogram shape is always
    n_angles x n_detectors.  ``.toarray()`` gives the dense matrix.  Each
    angle keeps only its rays' entry counts, pixels and lengths, and the pixels
    are joined before the lengths: the build peaks near 1.5x the matrix.
    """
    offsets = geom.detector_offsets()
    counts, pixels, lengths = [], [], []
    for theta in geom.angles_deg():
        ray, pixel, length = _trace_rays(geom, theta, offsets)
        counts.append(np.bincount(ray, minlength=geom.n_detectors))
        pixels.append(pixel)
        lengths.append(length)
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    indices = np.concatenate(pixels)
    del pixels
    return CsrMatrix(indptr, indices, np.concatenate(lengths), (geom.n_angles * geom.n_detectors, geom.grid_side ** 2))


def _trace_rays(geom: RadonGeometry, angle_deg: float, offsets: np.ndarray):
    """Siddon traversal of the parallel rays {x . n = t}, t in offsets, through the grid.

    All rays of one angle are traced at once (the incremental form of Jacobs
    et al. 1998): each ray is clipped to the grid's bounding box, its
    crossings with the pixel edge lines inside the clip window are sorted, and
    every segment between consecutive crossings lies in one pixel.  Returns
    (ray, pixel, length) triplets sorted by ray, then pixel; a ray that
    misses the grid gives none.  The normal is n = (cos angle, sin angle), and pixel
    i * g + j covers the square centred at ((j + 0.5 - g/2) h, (g/2 - i - 0.5) h).
    """
    g = geom.grid_side
    h = geom.pixel_size
    half = g * h / 2.0
    edges = -half + h * np.arange(g + 1)
    theta = math.radians(angle_deg)
    nx, ny = math.cos(theta), math.sin(theta)
    dx, dy = -ny, nx
    px, py = offsets * nx, offsets * ny
    hit = np.ones(offsets.size, dtype=bool)
    s_min = np.full(offsets.size, -np.inf)
    s_max = np.full(offsets.size, np.inf)
    crossings = []
    for p0, d0 in ((px, dx), (py, dy)):
        if abs(d0) < 1e-15:
            hit &= np.abs(p0) <= half
        else:
            s1 = (-half - p0) / d0
            s2 = (half - p0) / d0
            s_min = np.maximum(s_min, np.minimum(s1, s2))
            s_max = np.minimum(s_max, np.maximum(s1, s2))
            crossings.append((edges[None, :] - p0[:, None]) / d0)
    hit &= s_max > s_min
    s_min, s_max = s_min[:, None], s_max[:, None]
    # Crossings outside the open clip window collapse onto its end, where they
    # only add segments of length zero.
    c = np.concatenate(crossings, axis=1)
    c = np.where((c > s_min) & (c < s_max), c, s_max)
    s = np.sort(np.concatenate([s_min, s_max, c], axis=1), axis=1)
    mids = 0.5 * (s[:, :-1] + s[:, 1:])
    lengths = np.diff(s, axis=1)
    cols = np.floor((px[:, None] + mids * dx + half) / h).astype(np.intp)
    rows = np.floor((half - (py[:, None] + mids * dy)) / h).astype(np.intp)
    keep = hit[:, None] & (cols >= 0) & (cols < g) & (rows >= 0) & (rows < g) & (lengths > 0)
    ray, _ = np.nonzero(keep)
    # Rounding can split one pixel's chord into adjacent segments; their
    # lengths are summed in order along the ray, and each ray's pixels sorted.
    key, at = np.unique(ray * g * g + (rows * g + cols)[keep], return_inverse=True)
    return key // (g * g), key % (g * g), np.bincount(at, weights=lengths[keep])


# Disk phantom layout: (centre_x, centre_y, radius, intensity) in unit-square
# coordinates.  Disks are pairwise disjoint and cover < 8% of the area.
_PHANTOM_DISKS = (
    (0.30, 0.35, 0.08, 1.0),
    (0.62, 0.30, 0.10, 2.0),
    (0.45, 0.70, 0.07, 1.0),
    (0.72, 0.68, 0.05, 2.0),
)


def check_phantom_size(grid_side: int) -> None:
    """sparse_disk_phantom draws its disks on grids from 16 x 16 on."""
    check_count(grid_side, "grid_side", 16)


def sparse_disk_phantom(grid_side: int) -> np.ndarray:
    """Deterministic image of a few disjoint constant disks on a zero background.

    Returned as a flat vector of length grid_side**2 (row-major).
    """
    check_phantom_size(grid_side)
    g = grid_side
    centres = (np.arange(g) + 0.5) / g
    xg, yg = np.meshgrid(centres, centres)  # yg varies along rows
    img = np.zeros((g, g))
    for cx, cy, rad, val in _PHANTOM_DISKS:
        inside = (xg - cx) ** 2 + (yg - cy) ** 2 <= rad ** 2
        img[inside] = val
    return img.ravel()


@dataclass(frozen=True)
class NormEstimate:
    """Result of a power-method norm estimation (always a lower bound).

    ``iterations`` and ``history`` are the best start's; ``starts`` counts the
    starts that ran.
    """

    value: float
    converged: bool
    iterations: int
    history: tuple = ()
    starts: int = 1


def boyd_operator_norm(
    A,
    rx: float = 2.0,
    ry: float = 2.0,
    tol: float = 1e-10,
    max_iter: int = 2000,
    restarts: int = 8,
) -> NormEstimate:
    """Estimate ||A||_{l^rx -> l^ry} (A dense or a CsrMatrix) by Boyd's power method.

    Iterates x <- J_dual(A^T J_ry(A x)), normalised to unit l^rx norm, where
    J_ry is the duality map of l^ry with power ry and J_dual the duality map
    of the dual space l^(rx*) with power rx*.  For rx = ry = 2 this is the
    classical power method on A^T A.  The Rayleigh-type estimate ||A x||_ry
    is non-decreasing within a start and converges to the norm from below.

    The first start is a strictly positive random vector.  When A is
    entrywise nonnegative and rx >= ry, that start alone reaches the global
    maximum (Boyd 1974, "The power method for l^p norms", Linear Algebra
    Appl. 9; Bhaskara & Vijayaraghavan 2011, "Approximating matrix p-norms",
    SODA), so it is the only one run.  Otherwise the fixed point need not be
    global, so ``restarts`` starts are run, the rest sign-random, and the
    largest estimate kept.  The starts come from Philox key 0, so the
    estimate is deterministic.
    """
    if not isinstance(A, CsrMatrix):
        A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionMismatchError("expected a matrix")
    rx, ry = _exponent(rx, "rx"), _exponent(ry, "ry")
    check_count(restarts, "restarts")
    check_count(max_iter, "max_iter")
    tol = _scalar(tol, f"tol must be finite and >= 0; got {tol}", lambda t: 0.0 <= t < math.inf)
    entries = A.data if isinstance(A, CsrMatrix) else A
    if not np.isfinite(entries).all():
        raise InvalidInputError("operator matrix contains non-finite entries")
    if not A.any():
        return NormEstimate(0.0, True, 0, starts=0)
    nonnegative = bool(np.all(entries >= 0.0))
    starts = 1 if nonnegative and rx >= ry else restarts
    X = _boyd_start_matrix(A.shape[1], starts)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing product is the screen's to reject
        best = max(_boyd_starts(A, rx, ry, tol, max_iter, X), key=lambda e: e.value)  # the first largest
    return replace(best, starts=starts)


@functools.lru_cache(maxsize=4)
def _boyd_start_matrix(n: int, starts: int) -> np.ndarray:
    """The starts on n columns, shared read-only: from Philox key 0, the first positive, the rest sign-random."""
    rng = generator(0)  # each row draws its values, then (after the first) its signs
    X = np.array([(rng.random(n) + 0.1) * (rng.choice([-1.0, 1.0], size=n) if s else 1.0) for s in range(starts)])
    X.flags.writeable = False
    return X


def _boyd_starts(A, rx, ry, tol, max_iter, X) -> list:
    """Boyd's iteration from every row of X at once; entry i is the NormEstimate of start X[i].

    A row leaves the batch when its start stops.  Each step is the one-start arithmetic row by row (see
    _row_products and spaces._duality_rows), so every estimate is its start's run alone, bit for bit.
    """
    rx_conj, to_rx = rx / (rx - 1.0), 1.0 / rx
    X = X / np.array(_lr_norm_rows(*_screen_rows(X), rx))[:, None]
    live = list(range(len(X)))  # the start that each row of X runs
    histories, prev, estimates = [[] for _ in live], [-math.inf] * len(live), [None] * len(live)
    for it in range(1, max_iter + 1):
        J, norms = _duality_rows(_row_products(A, X), ry, ry)  # J_ry(A x) and the estimates ||A x||_ry
        Z = _row_products(A, J, adjoint=True)
        # J_dual(z) / ||J_dual(z)||_rx is b / s^(1/rx), as ||b||_rx^rx = sum a^(rx*) = s; max|z| cancels.
        a, mz = _screen_rows(Z)
        B = a ** (rx_conj - 1.0)
        s = np.matmul(B[:, None, :], a[:, :, None]).ravel().tolist()
        np.copysign(B, Z, out=B)
        keep = []
        for i, start in enumerate(live):
            histories[start].append(norms[i])
            converged = norms[i] == 0.0 or mz[i] == 0.0 or abs(norms[i] - prev[start]) < tol
            if converged or it == max_iter:
                estimates[start] = NormEstimate(norms[i], converged, it, tuple(histories[start]))
            else:
                prev[start] = norms[i]
                keep.append(i)
        if not keep:
            return estimates
        X, live = (B, live) if len(keep) == len(live) else (B[keep], [live[i] for i in keep])
        X /= np.array([s[i] ** to_rx for i in keep])[:, None]


def _row_products(A, X, adjoint: bool = False) -> np.ndarray:
    """A @ x, or A.T @ x, for every row x of X, each bit for bit the 1-D product; callers hold the errstate."""
    if isinstance(A, CsrMatrix):  # per-entry work, with no call overhead to save: row by row
        M = A.T if adjoint else A
        # One row skips np.stack: it cuts CT's one-start Boyd at the CLI settings from 155 to 140 ms, same bits
        # (60-block block_norms: per process the median of 10 calls, then the median over 5 processes).
        return (M @ X[0])[None] if len(X) == 1 else np.stack([M @ x for x in X])
    # One stacked np.matmul makes the 1-D product's BLAS call per row; np.einsum does not.
    return np.matmul(X[:, None, :], A)[:, 0, :] if adjoint else np.matmul(A, X[:, :, None])[:, :, 0]


def block_norms(op: BlockOperator, rx: float, **kwargs) -> list:
    """Each block's NormEstimate of ||A_i||_{l^rx -> l^ry}, with ry the operator's output exponent."""
    return [boyd_operator_norm(b, rx, op.output_space.r, **kwargs) for b in op.blocks]


def max_block_norm(op: BlockOperator, rx: float, **kwargs) -> float:
    """max_i ||A_i||_{l^rx -> l^ry}, the largest of block_norms."""
    return max(e.value for e in block_norms(op, rx, **kwargs))


def save_matrix_csv(path, M, header: str | None = None):
    """Row-major CSV, one matrix row per line in '.17g', after an optional header line."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", encoding="ascii") as f:
        if header is not None:
            f.write(header + "\n")
        for row in M:
            f.write(",".join(format(v, ".17g") for v in row))
            f.write("\n")


def load_matrix_csv(path) -> np.ndarray:
    """The matrix of a comma-separated file; DataFormatError when the file does not parse."""
    with open(path, "r", encoding="ascii", errors="replace") as f:  # a non-ASCII byte fails as a cell
        rows = []
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise DataFormatError(f"{path}, line {line_no}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataFormatError(f"{path}: ragged rows")
    return np.asarray(rows, dtype=float)
