import re
from pathlib import Path

import numpy as np
import pytest

import banach_sgd
from banach_sgd import (
    ConstantSchedule,
    GaussianNoise,
    ImpulseNoise,
    SaltPepperNoise,
    SolverConfig,
    SpaceDescriptor,
    corrupt,
    lr_norm,
)
from banach_sgd.exceptions import ConfigurationError, InvalidInputError
from banach_sgd.noise import impulse_branch_high, impulse_branch_low


class TestBranchFormulas:
    def test_low_branch(self):
        assert impulse_branch_low(1.0, 0.2) == pytest.approx(0.8, abs=1e-15)

    def test_high_branch(self):
        assert impulse_branch_high(1.0, 0.2) == pytest.approx(1.08, abs=1e-15)


class TestNoNoise:
    def test_zero_sigma(self):
        y = np.array([1.0, 2.0, 3.0])
        noisy, delta = corrupt(y, GaussianNoise(sigma=0.0, seed=1))
        assert np.array_equal(noisy, y)
        assert delta == 0.0

    def test_zero_pct_impulse(self):
        y = np.linspace(0, 1, 50)
        noisy, delta = corrupt(y, ImpulseNoise(pct=0.0, seed=1))
        assert np.array_equal(noisy, y)
        assert delta == 0.0

    def test_zero_pct_salt_pepper(self):
        y = np.linspace(0, 1, 50)
        noisy, delta = corrupt(y, SaltPepperNoise(pct=0.0, seed=1))
        assert np.array_equal(noisy, y)
        assert delta == 0.0


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            GaussianNoise(sigma=0.3, seed=17),
            ImpulseNoise(pct=0.2, seed=17),
            SaltPepperNoise(pct=0.2, seed=17),
        ],
    )
    def test_identical_inputs_identical_outputs(self, spec):
        y = np.sin(np.arange(200) * 0.1)
        a, da = corrupt(y, spec)
        b, db = corrupt(y, spec)
        assert np.array_equal(a, b)
        assert da == db

    def test_different_seeds_differ(self):
        y = np.ones(100)
        a, _ = corrupt(y, GaussianNoise(sigma=0.1, seed=1))
        b, _ = corrupt(y, GaussianNoise(sigma=0.1, seed=2))
        assert not np.array_equal(a, b)


class TestMeasuredLevel:
    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    def test_delta_is_norm_of_perturbation(self, r):
        y = np.cos(np.arange(300) * 0.05)
        noisy, delta = corrupt(y, ImpulseNoise(pct=0.3, seed=5), norm_exponent=r)
        assert delta == pytest.approx(lr_norm(noisy - y, r), rel=1e-12)


class TestGaussianStatistics:
    def test_empirical_variance(self):
        y = np.zeros(200_000)
        sigma = 0.7
        noisy, _ = corrupt(y, GaussianNoise(sigma=sigma, seed=3))
        assert np.var(noisy) == pytest.approx(sigma**2, rel=0.05)


class TestImpulseStatistics:
    def test_corruption_fraction_and_branch_split(self):
        y = np.ones(200_000)
        pct = 0.05
        noisy, _ = corrupt(y, ImpulseNoise(pct=pct, seed=4))
        changed = noisy != y
        frac = changed.mean()
        assert abs(frac - pct) < 0.005
        # low branch values lie in (1-hi, 1-lo) = (0.6, 0.9); high branch adds 1.4*xi
        vals = noisy[changed]
        low = (vals > 0.55) & (vals < 0.95)
        split = low.mean()
        assert abs(split - 0.5) < 0.01

    def test_branch_values_match_formulas(self):
        # every corrupted value must be expressible by one of the two branches
        y = np.full(1000, 2.0)
        spec = ImpulseNoise(pct=0.5, lo=0.1, hi=0.4, seed=9)
        noisy, _ = corrupt(y, spec)
        changed = np.nonzero(noisy != y)[0]
        assert changed.size > 300
        for i in changed[:200]:
            v = noisy[i]
            # invert each branch for xi and accept if it lies in (lo, hi)
            xi_low = 1.0 - v / 2.0
            xi_high = (v - 2.0) / (1.4 - 2.0)
            ok_low = spec.lo < xi_low < spec.hi
            ok_high = spec.lo < xi_high < spec.hi
            assert ok_low or ok_high


class TestSaltPepper:
    def test_fraction_and_values(self):
        rng = np.random.Generator(np.random.Philox(key=8))
        y = rng.uniform(1.0, 2.0, size=10_000)
        spec = SaltPepperNoise(pct=0.1, seed=6)
        noisy, _ = corrupt(y, spec)
        changed = noisy != y
        assert abs(changed.mean() - 0.1) < 0.01
        changed_vals = np.unique(noisy[changed])
        assert set(np.round(changed_vals, 12)).issubset(
            {round(float(np.max(y)), 12), 0.0}
        )

    def test_explicit_values(self):
        y = np.ones(1000) * 5.0
        spec = SaltPepperNoise(pct=0.2, salt_value=9.0, pepper_value=-1.0, seed=7)
        noisy, _ = corrupt(y, spec)
        changed = noisy != y
        assert set(np.unique(noisy[changed])) == {9.0, -1.0}


class TestValidation:
    def test_bad_pct(self):
        with pytest.raises(ConfigurationError):
            ImpulseNoise(pct=1.5)

    def test_bad_interval(self):
        for lo, hi in ((0.4, 0.1), (-1e308, 1e308)):
            with pytest.raises(ConfigurationError):
                ImpulseNoise(pct=0.1, lo=lo, hi=hi)

    def test_bad_sigma(self):
        for sigma in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                GaussianNoise(sigma=sigma)

    @pytest.mark.parametrize("make", [
        lambda seed: GaussianNoise(sigma=0.1, seed=seed),
        lambda seed: ImpulseNoise(pct=0.1, seed=seed),
        lambda seed: SaltPepperNoise(pct=0.1, seed=seed),
        lambda seed: SolverConfig(x_space=SpaceDescriptor.hilbert(), y_space=SpaceDescriptor.hilbert(),
                                  schedule=ConstantSchedule(0.1), seed=seed),
    ])
    def test_seed_is_a_philox_key(self, make):
        make(2**128 - 1)
        for seed in (-1, 2**128, 2.5, "3", None):
            with pytest.raises(ConfigurationError, match="seed"):
                make(seed)


def test_only_noise_constructs_a_random_generator():
    """Every random stream comes from noise.generator, the one place that checks its Philox key."""
    package = Path(banach_sgd.__file__).parent
    construction = re.compile(r"\b(Philox|Generator|default_rng)\s*\(")
    offenders = [f"{path.name}:{number}" for path in sorted(package.glob("*.py")) if path.name != "noise.py"
                 for number, line in enumerate(path.read_text().splitlines(), start=1) if construction.search(line)]
    assert offenders == []
    assert construction.search((package / "noise.py").read_text())


class TestOverflow:
    @pytest.mark.parametrize("spec", [
        ImpulseNoise(pct=0.5, lo=1e307, hi=1.5e308),
        GaussianNoise(sigma=1e308),
        SaltPepperNoise(pct=0.5, salt_value=1.7e308, pepper_value=-1.7e308),
    ])
    def test_overflow_names_the_model_without_a_warning(self, spec):
        y = np.concatenate([np.linspace(0.0, 2.0, 50), np.full(50, -1.5e308)])
        with pytest.raises(InvalidInputError, match=type(spec).__name__):
            corrupt(y, spec)  # a RuntimeWarning would fail the test run
