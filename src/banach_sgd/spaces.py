"""Finite-dimensional l^r geometry: norms, duality maps, dual pairings, Bregman distances.

All vectors are plain 1-D numpy arrays.  A space is described by its norm
exponent r and the power p of the gauge t -> t^(p-1) that defines the duality
map.  Only 1 < r < inf is supported: those spaces are smooth and convex of
power type, so the duality map is single-valued and invertible.
"""

from __future__ import annotations

import functools
import math
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
        if not (math.isfinite(self.r) and self.r > 1.0):
            raise ConfigurationError(
                f"norm exponent must satisfy 1 < r < inf (smooth, power-convex range); got r={self.r}"
            )
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise ConfigurationError(f"duality power must satisfy p > 1; got p={self.p}")

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


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def _screen(x) -> tuple[np.ndarray, np.ndarray, float]:
    """The vector, |x_j| / max|x| and max|x|: the one finiteness check of the layer.

    A NaN or infinite entry makes max|x| non-finite.  The scaled entries keep
    every power in [0, 1], which avoids 0^negative and overflow for large r.
    """
    v = _as_vector(x)
    a = np.abs(v)
    m = float(np.maximum.reduce(a)) if a.size else 0.0  # a.max() without its wrapper
    if not math.isfinite(m):
        raise InvalidInputError("vector contains non-finite entries")
    if m > 0.0:
        a /= m
    return v, a, m


def _powers(x, r: float) -> tuple[np.ndarray, float, float]:
    """sign(x_j) (|x_j| / m)^(r-1), s = sum (|x_j| / m)^r and m = max|x|, with one power pass.

    s is the dot product of those powers with |x_j| / m: a few ulps per entry from a sum of r-th powers.
    """
    v, a, m = _screen(x)
    b = a ** (r - 1.0)
    s = float(np.dot(b, a))
    b *= np.sign(v)
    return b, s, m


def _screen_rows(X) -> tuple[np.ndarray, list]:
    """_screen of each row of a 2-D array: |X| over each row's max|x|, and the maxima as floats.

    A zero row stays zero.  With _lr_norm_rows, row i gets the 1-D arithmetic bit for bit: the same
    ufuncs in the same order, pairwise sums along axis 1 as np.sum takes them, and Python-float powers
    for the per-row scalars (numpy array powers can differ in the last bit).
    """
    a = np.abs(X)
    m = np.maximum.reduce(a, axis=1)
    ms = m.tolist()
    if not all(map(math.isfinite, ms)):
        raise InvalidInputError("vector contains non-finite entries")
    if 0.0 in ms:
        m[m == 0.0] = 1.0
    a /= m[:, None] if len(ms) > 1 else m[0]  # a scalar divides one row about 0.3 us faster
    return a, ms


def _lr_norm_rows(a, ms, r: float) -> list:
    """lr_norm of each row, from _screen_rows's output."""
    norms = [m * s ** (1.0 / r) for m, s in zip(ms, np.add.reduce(a ** r, axis=1).tolist())]
    if math.inf in norms:
        raise InvalidInputError(f"l^r norm overflows the float range (max|x| = {max(ms):.3g}, r = {r:.3g})")
    return norms


def _bregman_rows(X, w, nw: float, desc: SpaceDescriptor) -> list:
    """bregman_distance(x, w, desc) of each row x of a finite 2-D X, bit for bit, given nw = ||w||.
    Where bregman_distance raises, the row's entry is not finite and no numpy warning escapes."""
    r, p = desc.r, desc.p
    a, ms = _screen_rows(X)
    sums = np.add.reduce(a ** r, axis=1).tolist()
    a **= r - 1.0
    a *= np.sign(X)  # before the scale, as multiplying by a sign is exact
    scales, terms = [], []
    for m, s in zip(ms, sums):
        try:  # duality_map's scale m^(p-1) ||a||^(p-r), and the norm terms from lr_norm's m ||a||
            scale = m ** (p - 1.0) * (s ** (1.0 / r)) ** (p - r) if m > 0.0 else 0.0
            term = (m * s ** (1.0 / r)) ** p / desc.p_conj + nw ** p / p
        except OverflowError:  # the distance is inf; a zero scale keeps the row's pairing finite
            scale, term = 0.0, math.inf
        scales.append(scale)
        terms.append(term)
    with np.errstate(over="ignore", invalid="ignore"):
        a *= np.array(scales)[:, None]  # each row times its own float, as row * scale
        pairings = np.matmul(a[:, None, :], np.asarray(w, dtype=float)[:, None]).ravel().tolist()  # a ddot per row
    return [t - d for t, d in zip(terms, pairings)]


def lr_norm(x, r: float) -> float:
    """(sum |x_j|^r)^(1/r).  Scaled by max|x_j| so large exponents stay stable.

    Raises InvalidInputError when x is not finite or the norm overflows.
    """
    if not (math.isfinite(r) and r > 1.0):
        raise ConfigurationError(f"lr_norm requires 1 < r < inf; got r={r}")
    _, a, m = _screen(x)
    if m == 0.0:
        return 0.0
    norm = m * float(np.sum(a ** r)) ** (1.0 / r)
    if norm == math.inf:
        raise InvalidInputError(f"l^r norm overflows the float range (max|x| = {m:.3g}, r = {r:.3g})")
    return norm


def duality_map(x, desc: SpaceDescriptor) -> np.ndarray:
    """Componentwise ||x||_r^(p-r) |x_j|^(r-1) sign(x_j); maps 0 to 0.

    This is the gradient of x -> ||x||_r^p / p, the single-valued duality map
    of the space.  Raises InvalidInputError when x is not finite or when the
    largest entry of the result, max|x|^(r-1) ||x||_r^(p-r), overflows.
    """
    v, a, m = _screen(x)
    if m == 0.0:
        return np.zeros_like(v)
    # The prefactor m^(p-1) restores the scale of the max-scaled entries; it
    # times tn^(p-r) is the largest entry of the result.  For p == r that
    # factor is exactly 1, so the norm is not computed.
    try:
        scale = m ** (desc.p - 1.0)
        if desc.p != desc.r:
            tn = float(np.add.reduce(a ** desc.r)) ** (1.0 / desc.r)  # np.sum without its wrapper
            scale *= tn ** (desc.p - desc.r)
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise InvalidInputError(
            f"duality map overflows the float range (max|x| = {m:.3g}, r = {desc.r:.3g}, p = {desc.p:.3g})"
        )
    # scale * a ** (r - 1) * sign(x), formed in a's own buffer; a ** 1.0 is a.
    if desc.r != 2.0:
        a **= desc.r - 1.0
    a *= scale
    a *= np.sign(v)
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
    try:
        scale = m ** (p - 1.0) * (s ** (1.0 / r)) ** (p - r) if m > 0.0 else 0.0
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise InvalidInputError(f"duality map overflows the float range (max|x| = {m:.3g}, r = {r:.3g}, p = {p:.3g})")
    b *= scale
    return b


def dual_pairing(xs, x) -> float:
    """Euclidean pairing <xs, x> = sum_j xs_j x_j."""
    a = _as_vector(xs)
    b = _as_vector(x)
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

    Non-negative, zero iff z == w; not symmetric and no triangle inequality.
    """
    zv = _as_vector(z)
    wv = _as_vector(w)
    if zv.shape != wv.shape:
        raise DimensionMismatchError(f"bregman_distance of length {zv.size} vs {wv.size}")
    nz = lr_norm(zv, desc.r)
    nw = lr_norm(wv, desc.r)
    try:
        distance = (
            nz ** desc.p / desc.p_conj
            + nw ** desc.p / desc.p
            - dual_pairing(duality_map(zv, desc), wv)
        )
    except OverflowError:
        distance = math.inf
    if not math.isfinite(distance):
        raise InvalidInputError(f"Bregman distance overflows: norms {nz:.3g} and {nw:.3g} at p = {desc.p:.3g}")
    return distance
