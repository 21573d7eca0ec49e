"""Seeded data corruption models and exact noise-level measurement.

Every random stream of the package comes from ``generator``: numpy's Philox
counter-based bit generator (Philox-4x64-10) under one checked key, so a given
(data, spec) pair always gives the same output, whatever the platform and history.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError, InvalidInputError
from .spaces import _scalar, lr_norm

__all__ = [
    "GaussianNoise",
    "ImpulseNoise",
    "SaltPepperNoise",
    "corrupt",
    "impulse_branch_low",
    "impulse_branch_high",
    "check_seed",
    "generator",
    "RNG_ALGORITHM",
]

RNG_ALGORITHM = "Philox-4x64-10 (numpy.random.Philox)"


def check_seed(seed: int, name: str = "seed", count: int = 1) -> None:
    """Seeds seed .. seed + count - 1 are Philox keys: integers (int or numpy, never a bool) in [0, 2**128)."""
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and 0 <= seed <= 2**128 - count):
        keys = f"{name} must be an integer" if count == 1 else f"{name} .. {name} + {count - 1} must be integers"
        raise ConfigurationError(f"{keys} in [0, 2**128), the Philox key range; got {name} = {reprlib.repr(seed)}")


def generator(key: int) -> np.random.Generator:
    """The random stream of one checked Philox key."""
    check_seed(key)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class GaussianNoise:
    """Additive i.i.d. normal(0, sigma^2) noise on every entry."""

    sigma: float
    seed: int = 0

    def __post_init__(self):
        _scalar(self.sigma, f"sigma must be finite and >= 0; got {self.sigma}", lambda s: 0.0 <= s < math.inf)
        check_seed(self.seed)


@dataclass(frozen=True)
class ImpulseNoise:
    """Random-valued impulse corruption.

    Each entry is left alone with probability 1 - pct; otherwise, with equal
    odds, it becomes (1 - xi) y or 1.4 xi + (1 - xi) y, with xi drawn fresh
    from Uniform(lo, hi), whose width must not overflow the draw, for every corrupted entry.
    """

    pct: float
    lo: float = 0.1
    hi: float = 0.4
    seed: int = 0

    def __post_init__(self):
        _scalar(self.pct, f"corruption probability must be in [0, 1]; got {self.pct}", lambda p: 0.0 <= p <= 1.0)
        interval = f"impulse magnitude interval needs lo < hi and a finite width hi - lo; got [{self.lo}, {self.hi}]"
        _scalar(_scalar(self.hi, interval, math.isfinite) - _scalar(self.lo, interval, math.isfinite), interval)
        check_seed(self.seed)


@dataclass(frozen=True)
class SaltPepperNoise:
    """A fixed fraction of entries replaced by salt or pepper values.

    Entries are chosen uniformly without replacement; each picked entry is set
    to salt_value or pepper_value with equal probability.  salt_value defaults
    to max(y) and pepper_value to 0.
    """

    pct: float
    salt_value: float | None = None
    pepper_value: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _scalar(self.pct, f"corruption fraction must be in [0, 1]; got {self.pct}", lambda p: 0.0 <= p <= 1.0)
        if self.salt_value is not None:
            _scalar(self.salt_value, f"salt_value must be finite; got {self.salt_value}", math.isfinite)
        _scalar(self.pepper_value, f"pepper_value must be finite; got {self.pepper_value}", math.isfinite)
        check_seed(self.seed)


def impulse_branch_low(y, xi):
    """Value of the damped impulse branch, (1 - xi) y."""
    return (1.0 - xi) * y


def impulse_branch_high(y, xi):
    """Value of the outlier impulse branch, 1.4 xi + (1 - xi) y."""
    return 1.4 * xi + (1.0 - xi) * y


def corrupt(y, spec, norm_exponent: float = 2.0):
    """Apply a noise model and return (noisy data, measured noise level).

    The second return value is the l^r norm (r = norm_exponent) of the
    realised perturbation, so downstream stopping rules can use the actual
    noise level rather than the nominal one.
    """
    y = np.asarray(y, dtype=float).ravel()
    rng = generator(spec.seed)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, naming the model
        if isinstance(spec, GaussianNoise):
            noisy = y + rng.normal(0.0, spec.sigma, size=y.size) if spec.sigma > 0 else y.copy()
        elif isinstance(spec, ImpulseNoise):
            u = rng.random(y.size)
            xi = rng.uniform(spec.lo, spec.hi, size=y.size)
            noisy = y.copy()
            low = u < spec.pct / 2.0
            high = (u >= spec.pct / 2.0) & (u < spec.pct)
            noisy[low] = impulse_branch_low(y[low], xi[low])
            noisy[high] = impulse_branch_high(y[high], xi[high])
        elif isinstance(spec, SaltPepperNoise):
            noisy = y.copy()
            k = int(round(spec.pct * y.size))
            if k > 0:
                idx = rng.choice(y.size, size=k, replace=False)
                salt = spec.salt_value if spec.salt_value is not None else float(np.max(y))
                is_salt = rng.random(k) < 0.5
                noisy[idx[is_salt]] = salt
                noisy[idx[~is_salt]] = spec.pepper_value
        else:
            raise ConfigurationError(f"unknown noise model: {spec!r}")
        diff = noisy - y
    if not (np.isfinite(noisy).all() and np.isfinite(diff).all()):
        raise InvalidInputError(
            f"noise {spec!r} leaves non-finite values, beyond the float range, on data with "
            f"max|y| = {np.abs(y).max(initial=0.0):.3g}"
        )
    delta = lr_norm(diff, norm_exponent) if diff.any() else 0.0
    return noisy, delta
