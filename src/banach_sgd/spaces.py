"""Finite-dimensional l^r geometry: norms, duality maps, dual pairings, Bregman distances.

All vectors are plain 1-D numpy arrays.  A space is described by its norm
exponent r and the power p of the gauge t -> t^(p-1) that defines the duality
map.  Only 1 < r < inf is supported: those spaces are smooth and convex of
power type, so the duality map is single-valued and invertible.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError, DimensionMismatchError, InvalidInputError

__all__ = [
    "SpaceDescriptor",
    "lr_norm",
    "duality_map",
    "inverse_duality_map",
    "dual_pairing",
    "bregman_distance",
]


@dataclass(frozen=True)
class SpaceDescriptor:
    """An l^r space paired with the duality-map power p.

    The conjugate exponents r* = r/(r-1) and p* = p/(p-1) are derived on
    demand and never stored, so they cannot drift out of sync.
    """

    r: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "r", _exponent(self.r, "r"))
        object.__setattr__(self, "p", _exponent(self.p, "p"))

    @property
    def r_conj(self) -> float:
        return self.r / (self.r - 1.0)

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @functools.cached_property
    def dual(self) -> "SpaceDescriptor":
        """Descriptor of the dual space, (r*, p*); built once per descriptor."""
        return SpaceDescriptor(self.r_conj, self.p_conj)

    @classmethod
    def hilbert(cls) -> "SpaceDescriptor":
        return cls(2.0, 2.0)

    @classmethod
    def for_norm(cls, r: float) -> "SpaceDescriptor":
        """Descriptor with the natural convexity power p = max(r, 2)."""
        return cls(r, max(r, 2.0))


def _scalar(value, message: str, ok=lambda v: 0.0 < v < math.inf, error=ConfigurationError) -> float:
    """value as a Python float: the one rule for every scalar parameter, an int or float (numpy ones too) for which
    ok holds, 0 < value < inf by default.  Raises error(message), which names the parameter, for anything else; a
    value that is not a number, a bool included, acts as NaN, which fails every range."""
    try:
        number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
        v = float(value) if number else math.nan
    except OverflowError:  # an int beyond the float range
        v = math.inf
    if not ok(v):
        raise error(message)
    return v


def _exponent(value, name: str) -> float:
    """_scalar's rule for every exponent, 1 < value < inf."""
    message = f"{name} must be an int or float with 1 < {name} < inf; got {value!r}"
    return _scalar(value, message, lambda e: 1.0 < e < math.inf)


def _scale(m: float, t: float, r: float, p: float) -> float:
    """The duality map's scale m^(p-1) t^(p-r) for max|x| = m and t = ||x / m||_r, in Python-float powers, with no
    norm factor for p == r or m == 0 (a zero vector's t = 0 has no negative power).  Raises InvalidInputError, with no
    numpy warning, when it overflows."""
    try:
        scale = m ** (p - 1.0) * t ** (p - r) if p != r and m > 0.0 else m ** (p - 1.0)
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise InvalidInputError(f"duality map overflows the float range (max|x| = {m:.3g}, r = {r:.3g}, p = {p:.3g})")
    return scale


_FLOAT = np.dtype(float)


def _real(x, name: str, rank=None, order="K") -> np.ndarray:
    """x as a float64 array: the one reader of every real array argument.  A float64 ndarray is returned as it is, with
    no copy or dtype screen; anything else is np.asarray(x, dtype=float, order=order), one copy, so ints, float32, None
    (as NaN) and object arrays of numbers read as always.  rank is what the caller needs: any (None), a 1-D vector
    with a 0-d value as one entry (1), a matrix (2) or an exact shape (a tuple).  Text, ragged nesting, complex values,
    an int past the float range and another rank raise DimensionMismatchError, naming the argument when numpy cannot
    read it."""
    if type(x) is not np.ndarray or x.dtype is not _FLOAT:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # numpy's ComplexWarning: the cast drops imaginary parts
                x = np.asarray(x, dtype=float, order=order)
        except (TypeError, ValueError, OverflowError, RuntimeWarning) as exc:
            raise DimensionMismatchError(f"cannot read {name} as real numbers: {exc}") from None
    if rank is None or x.ndim == rank or x.shape == rank:
        return x
    if rank == 1 and x.ndim == 0:
        return x.reshape(1)
    wanted = f"a vector of length {rank[0]}" if isinstance(rank, tuple) else ("a 1-D vector", "a matrix")[rank - 1]
    raise DimensionMismatchError(f"expected {wanted}, got shape {x.shape}")


def _screen(x, name: str = "x") -> tuple[np.ndarray, np.ndarray, float]:
    """The vector, |x_j| / max|x| and max|x|: the one finiteness check of the layer.

    A NaN or infinite entry makes max|x| non-finite.  The scaled entries keep
    every power in [0, 1], which avoids 0^negative and overflow for large r.
    """
    v = _real(x, name, 1)
    a = np.abs(v)
    m = float(np.maximum.reduce(a)) if a.size else 0.0  # a.max() without its wrapper
    if not math.isfinite(m):
        raise InvalidInputError("vector contains non-finite entries")
    if m > 0.0:
        a /= m
    return v, a, m


def _powers(xs, r: float) -> tuple[np.ndarray, float, float]:
    """sign(x_j) (|x_j| / m)^(r-1), s = sum (|x_j| / m)^r and m = max|x|, with one power pass.

    s is the dot product of those powers with |x_j| / m: a few ulps per entry from a sum of r-th powers.
    """
    v, a, m = _screen(xs, "xs")
    b = a ** (r - 1.0)
    s = float(np.dot(b, a))
    np.copysign(b, v, out=b)
    return b, s, m


def _screen_rows(X) -> tuple[np.ndarray, list]:
    """_screen of each row of a 2-D array: |X| over each row's max|x|, and the maxima as floats.

    A zero or empty row stays zero.  With _lr_norm_rows, row i gets the 1-D arithmetic bit for bit: the same
    ufuncs in the same order, pairwise sums along axis 1 as np.sum takes them, and Python-float powers
    for the per-row scalars (numpy array powers can differ in the last bit).
    """
    a = np.abs(X)
    m = np.maximum.reduce(a, axis=1, initial=0.0)
    ms = m.tolist()
    if not all(map(math.isfinite, ms)):
        raise InvalidInputError("vector contains non-finite entries")
    if 0.0 in ms:
        m[m == 0.0] = 1.0
    a /= m[:, None]
    return a, ms


def _lr_norm_rows(a, ms, r: float, roots=None) -> list:
    """lr_norm of each row, from _screen_rows's output and, if given, each row's (sum a_j^r)^(1/r)."""
    if roots is None:
        roots = [s ** (1.0 / r) for s in np.add.reduce(a ** r, axis=1).tolist()]
    norms = [m * t for m, t in zip(ms, roots)]
    if math.inf in norms:
        raise InvalidInputError(f"l^r norm overflows the float range (max|x| = {max(ms):.3g}, r = {r:.3g})")
    return norms


def _duality_rows(X, r: float, p: float) -> tuple[np.ndarray, list]:
    """duality_map of each row of a 2-D X with power p, formed in |X|'s buffer, and each row's lr_norm, bit for bit.

    Raises InvalidInputError, with no numpy warning, when a row is not finite or a norm or a scale overflows.  The
    step's two maps stay 1-D: at n = 200 one row of this form took 8.6 us to duality_map's 5.6 us at (r, p) = (2, 1.5),
    and 9.5 to 4.3 us at (3, 3) (timeit: per process the median of 5 best-of-7 runs of 2000 calls, then the median
    over 5 processes; 2-vCPU Xeon shared with other load, Python 3.11.7, numpy 2.4.6).
    """
    a, ms = _screen_rows(X)
    roots = [s ** (1.0 / r) for s in np.add.reduce(a ** r, axis=1).tolist()]
    norms = _lr_norm_rows(a, ms, r, roots)
    scales = [_scale(m, t, r, p) for m, t in zip(ms, roots)]
    if r != 2.0:
        a **= r - 1.0
    a *= np.array(scales)[:, None]  # each row times its own float, as row * scale
    np.copysign(a, X, out=a)
    return a, norms


def _bregman_rows(X, w, nw: float, desc: SpaceDescriptor) -> list:
    """bregman_distance(x, w, desc) of each row x of a 2-D X, bit for bit, given nw = ||w||, raising where it raises."""
    p = desc.p
    J, norms = _duality_rows(X, desc.r, p)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing difference or pairing raises below
        gaps = _real(w, "w") - X
        pairings = np.matmul(J[:, None, :], gaps[:, :, None]).ravel().tolist()  # <J_p(x), w - x>, a ddot per row
    try:
        distances = [(nw ** p - nz ** p) / p - d for nz, d in zip(norms, pairings)]
    except OverflowError:
        distances = [math.inf]
    if not all(map(math.isfinite, distances)):
        raise InvalidInputError(f"Bregman distance overflows: norms {max(norms):.3g} and {nw:.3g} at p = {p:.3g}")
    return distances


def lr_norm(x, r: float) -> float:
    """(sum |x_j|^r)^(1/r).  Scaled by max|x_j| so large exponents stay stable.

    Raises InvalidInputError when x is not finite or the norm overflows.
    """
    return _lr_norm_rows(*_screen_rows(_real(x, "x", 1)[None]), _exponent(r, "r"))[0]


def duality_map(x, desc: SpaceDescriptor) -> np.ndarray:
    """Componentwise ||x||_r^(p-r) |x_j|^(r-1) sign(x_j); maps 0 to 0, each zero with its own sign.

    This is the gradient of x -> ||x||_r^p / p, the single-valued duality map
    of the space.  Raises InvalidInputError when x is not finite or when the
    largest entry of the result, max|x|^(r-1) ||x||_r^(p-r), overflows.
    """
    v, a, m = _screen(x)
    r, p = desc.r, desc.p
    tn = float(np.add.reduce(a ** r)) ** (1.0 / r) if p != r else 1.0  # ||a||_r, unused for p == r; np.sum unwrapped
    # The scale times a ** (r - 1), given x's signs, formed in a's own buffer; a ** 1.0 is a.  A zero x has scale 0.
    if r != 2.0:
        a **= r - 1.0
    a *= _scale(m, tn, r, p)
    np.copysign(a, v, out=a)
    return a


def inverse_duality_map(xs, desc: SpaceDescriptor) -> np.ndarray:
    """Inverse of duality_map: the duality map of the dual space (r*, p*).

    For p* != r* and r* != 2 the dual norm comes from the result's own (r*-1)-th
    powers, one power pass instead of two, so the result equals duality_map's
    to a few ulps rather than bit for bit.
    """
    dual = desc.dual
    r, p = dual.r, dual.p
    if p == r or r == 2.0:
        return duality_map(xs, dual)
    b, s, m = _powers(xs, r)
    b *= _scale(m, s ** (1.0 / r), r, p)
    return b


def dual_pairing(xs, x) -> float:
    """Euclidean pairing <xs, x> = sum_j xs_j x_j."""
    a = _real(xs, "xs", 1)
    b = _real(x, "x", 1)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"pairing of length {a.size} with length {b.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        pairing = float(np.dot(a, b))
    # Any NaN or infinite entry, or an overflow, leaves the sum non-finite.
    if not math.isfinite(pairing):
        raise InvalidInputError("pairing of non-finite vectors or overflow in the sum")
    return pairing


def bregman_distance(z, w, desc: SpaceDescriptor) -> float:
    """Bregman distance (1/p*)||z||^p + (1/p)||w||^p - <J_p(z), w>.

    In exact arithmetic non-negative and zero iff z == w; not symmetric and no
    triangle inequality.  It is computed in the difference form
    (||w||^p - ||z||^p)/p - <J_p(z), w - z>, which is exactly 0 at z == w; as z
    nears w the terms still cancel, leaving rounding error of either sign.
    """
    zv = _real(z, "z", 1)
    wv = _real(w, "w", 1)
    if zv.shape != wv.shape:
        raise DimensionMismatchError(f"bregman_distance of length {zv.size} vs {wv.size}")
    return _bregman_rows(zv[None], wv, lr_norm(wv, desc.r), desc)[0]
