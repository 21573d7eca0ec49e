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
    m = float(a.max()) if a.size else 0.0
    if not math.isfinite(m):
        raise InvalidInputError("vector contains non-finite entries")
    if m > 0.0:
        a /= m
    return v, a, m


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
    # times tn^(p-r) is the largest entry of the result.
    tn = float(np.sum(a ** desc.r)) ** (1.0 / desc.r)
    try:
        scale = (m ** (desc.p - 1.0)) * (tn ** (desc.p - desc.r))
    except OverflowError:
        scale = math.inf
    if scale == math.inf:
        raise InvalidInputError(
            f"duality map overflows the float range (max|x| = {m:.3g}, r = {desc.r:.3g}, p = {desc.p:.3g})"
        )
    return scale * a ** (desc.r - 1.0) * np.sign(v)


def inverse_duality_map(xs, desc: SpaceDescriptor) -> np.ndarray:
    """Inverse of duality_map: the duality map of the dual space (r*, p*)."""
    return duality_map(xs, desc.dual)


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
