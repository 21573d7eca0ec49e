import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from banach_sgd import (
    ConfigurationError,
    DimensionMismatchError,
    InvalidInputError,
    SpaceDescriptor,
    bregman_distance,
    dual_pairing,
    duality_map,
    inverse_duality_map,
    lr_norm,
)
from banach_sgd import spaces

# Shared parameter grid: dimensions, norm exponents, and both gauge choices.
DIMS = [1, 2, 3, 8, 17, 64]
EXPONENTS = [1.1, 1.5, 2.0, 3.0, 4.0]


def descriptor_grid():
    for r in EXPONENTS:
        for p in {2.0, r}:
            yield SpaceDescriptor(r, p)


def random_vectors(dim, count, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(count):
        v = rng.normal(size=dim) * np.exp(rng.uniform(-2, 2))
        if np.any(v != 0):
            yield v


class TestSpaceDescriptor:
    def test_conjugates_are_exact(self):
        for desc in descriptor_grid():
            assert abs(1.0 / desc.r + 1.0 / desc.r_conj - 1.0) < 1e-14
            assert abs(1.0 / desc.p + 1.0 / desc.p_conj - 1.0) < 1e-14

    def test_dual_of_dual_is_identity(self):
        d = SpaceDescriptor(1.5, 2.0)
        dd = d.dual.dual
        assert abs(dd.r - d.r) < 1e-12 and abs(dd.p - d.p) < 1e-12

    @pytest.mark.parametrize("r,p", [(1.0, 2.0), (0.5, 2.0), (np.inf, 2.0), (2.0, 1.0), (2.0, 0.0)])
    def test_rejects_out_of_range_exponents(self, r, p):
        with pytest.raises(ConfigurationError):
            SpaceDescriptor(r, p)

    def test_for_norm_uses_convexity_power(self):
        assert SpaceDescriptor.for_norm(1.1).p == 2.0
        assert SpaceDescriptor.for_norm(3.0).p == 3.0


class TestLrNorm:
    def test_euclidean_example(self):
        assert lr_norm([3.0, 4.0], 2.0) == pytest.approx(5.0, abs=1e-15)

    def test_cube_norm_example(self):
        # Frozen from the summation oracle: (1^3 + 2^3)^(1/3).
        assert lr_norm([1.0, -2.0], 3.0) == pytest.approx(9.0 ** (1.0 / 3.0), rel=1e-14)
        assert lr_norm([1.0, -2.0], 3.0) == pytest.approx(2.0800838230519041, rel=1e-12)

    def test_zero_vector(self):
        assert lr_norm(np.zeros(5), 1.7) == 0.0

    def test_matches_summation_oracle(self):
        for r in EXPONENTS:
            for v in random_vectors(9, 20, seed=1):
                direct = float(np.sum(np.abs(v) ** r) ** (1.0 / r))
                assert lr_norm(v, r) == pytest.approx(direct, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            lr_norm([1.0, np.nan], 2.0)
        with pytest.raises(InvalidInputError):
            lr_norm([np.inf, 0.0], 2.0)

    def test_definite(self):
        assert lr_norm([0.0, 1e-300], 1.5) > 0.0

    def test_overflow_is_a_typed_error(self):
        # finite entries whose norm exceeds the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="overflows"):
                lr_norm(np.array([1.7e308, 1.7e308]), 2)


class TestDualityMap:
    def test_hilbert_identity(self):
        x = np.array([3.0, 4.0])
        assert np.allclose(duality_map(x, SpaceDescriptor(2, 2)), x, atol=1e-15)

    def test_frozen_example_r3_p2(self):
        # Oracle: central differences of x -> 0.5 ||x||_3^2 at step 1e-6.
        got = duality_map(np.array([1.0, -2.0]), SpaceDescriptor(3, 2))
        assert got == pytest.approx([0.4807498567691362, -1.9229994270765447], rel=1e-10)

    def test_zero_maps_to_zero(self):
        for desc in descriptor_grid():
            assert np.all(duality_map(np.zeros(4), desc) == 0.0)

    def test_defining_identities_on_grid(self):
        # <J_p(x), x> = ||x||^p and ||J_p(x)||_{r*} = ||x||^(p-1).
        checked = 0
        for desc in descriptor_grid():
            for dim in DIMS:
                for v in random_vectors(dim, 4, seed=10 + dim):
                    j = duality_map(v, desc)
                    nx = lr_norm(v, desc.r)
                    assert dual_pairing(j, v) == pytest.approx(nx ** desc.p, rel=1e-12)
                    assert lr_norm(j, desc.r_conj) == pytest.approx(nx ** (desc.p - 1.0), rel=1e-12)
                    checked += 1
        assert checked >= 200

    def test_gradient_of_norm_power(self):
        # Central finite differences of x -> ||x||_r^p / p, step 1e-6, away from kinks.
        step = 1e-6
        for desc in descriptor_grid():
            rng = np.random.Generator(np.random.Philox(key=3))
            for _ in range(5):
                v = rng.uniform(0.05, 2.0, size=6) * rng.choice([-1.0, 1.0], size=6)
                assert np.all(np.abs(v) > 1e-2)
                j = duality_map(v, desc)
                for idx in range(v.size):
                    e = np.zeros_like(v)
                    e[idx] = step
                    fd = (
                        lr_norm(v + e, desc.r) ** desc.p - lr_norm(v - e, desc.r) ** desc.p
                    ) / (2 * step * desc.p)
                    assert j[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


    @pytest.mark.parametrize("x,desc", [
        # m^(p-1) is finite but the prefactor m^(p-1) ||x/m||^(p-r) is not
        ([1.3e154, 1.3e154, 0.0], SpaceDescriptor(2, 3)),
        # m^(p-1) itself overflows
        ([1e300, 1.0], SpaceDescriptor(50, 50)),
    ])
    def test_overflow_is_a_typed_error(self, x, desc):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="overflows"):
                duality_map(np.array(x), desc)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInputError, match="non-finite"):
                duality_map([1.0, bad], SpaceDescriptor(1.5, 2.0))


class TestInverseDualityMap:
    def test_hilbert_identity(self):
        xs = np.array([3.0, 4.0])
        assert np.allclose(inverse_duality_map(xs, SpaceDescriptor(2, 2)), xs, atol=1e-15)

    def test_round_trip_example(self):
        x = np.array([1.0, -2.0])
        desc = SpaceDescriptor(3, 2)
        assert np.allclose(inverse_duality_map(duality_map(x, desc), desc), x, rtol=1e-12)

    def test_zero(self):
        assert np.all(inverse_duality_map(np.zeros(3), SpaceDescriptor(1.5, 2)) == 0.0)

    def test_round_trip_on_grid(self):
        for desc in descriptor_grid():
            for dim in DIMS:
                for v in random_vectors(dim, 3, seed=77 + dim):
                    back = inverse_duality_map(duality_map(v, desc), desc)
                    assert np.linalg.norm(back - v) <= 1e-10 * max(1.0, np.linalg.norm(v))


class TestDualPairing:
    def test_orthogonal(self):
        assert dual_pairing([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_plain_sum(self):
        assert dual_pairing([2.0, 3.0], [1.0, 1.0]) == 5.0

    def test_pairing_with_duality_map_gives_norm_power(self):
        x = np.array([1.0, -2.0])
        desc = SpaceDescriptor(3, 2)
        assert dual_pairing(duality_map(x, desc), x) == pytest.approx(
            lr_norm(x, 3) ** 2, rel=1e-12
        )
        assert dual_pairing(duality_map(x, desc), x) == pytest.approx(4.3267487109222245, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dual_pairing([1.0], [1.0, 2.0])

    def test_rejects_non_finite_entries_and_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for xs, x in (([np.nan, 1.0], [1.0, 1.0]), ([np.inf], [0.0]), ([1e200, 1e200], [1e200, 1e200])):
                with pytest.raises(InvalidInputError):
                    dual_pairing(xs, x)

    def test_cauchy_schwarz(self):
        for desc in descriptor_grid():
            for v in random_vectors(7, 5, seed=5):
                for w in random_vectors(7, 2, seed=6):
                    lhs = abs(dual_pairing(w, v))
                    assert lhs <= lr_norm(w, desc.r_conj) * lr_norm(v, desc.r) * (1 + 1e-12)


class TestBregmanDistance:
    def test_hilbert_example(self):
        assert bregman_distance([1.0, 0.0], [0.0, 1.0], SpaceDescriptor(2, 2)) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_zero_at_equal_points(self):
        z = np.array([0.3, -0.7])
        for desc in descriptor_grid():
            assert abs(bregman_distance(z, z, desc)) < 1e-13

    def test_r3_p3_example(self):
        # Direct evaluation oracle: (1/p*)*1 + (1/p)*1 - 0 with p = 3, p* = 3/2.
        desc = SpaceDescriptor(3, 3)
        expected = 1.0 / desc.p_conj + 1.0 / desc.p
        assert expected == pytest.approx(1.0, abs=1e-15)
        assert bregman_distance([1.0, 0.0], [0.0, 1.0], desc) == pytest.approx(expected, rel=1e-14)

    def test_nonnegative_and_definite_on_grid(self):
        for desc in descriptor_grid():
            for dim in DIMS:
                rng = np.random.Generator(np.random.Philox(key=100 + dim))
                for _ in range(4):
                    z = rng.normal(size=dim)
                    w = rng.normal(size=dim)
                    d = bregman_distance(z, w, desc)
                    assert d >= -1e-12
                    if d < 1e-12:
                        assert np.linalg.norm(z - w) < 1e-6

    def test_three_point_identity(self):
        for desc in descriptor_grid():
            rng = np.random.Generator(np.random.Philox(key=200))
            for _ in range(10):
                z, v, w = (rng.normal(size=5) for _ in range(3))
                lhs = bregman_distance(z, w, desc)
                rhs = (
                    bregman_distance(z, v, desc)
                    + bregman_distance(v, w, desc)
                    + dual_pairing(duality_map(v, desc) - duality_map(z, desc), w - v)
                )
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_hilbert_two_convexity_is_equality(self):
        desc = SpaceDescriptor(2, 2)
        rng = np.random.Generator(np.random.Philox(key=300))
        for _ in range(20):
            z = rng.normal(size=6)
            w = rng.normal(size=6)
            d = bregman_distance(z, w, desc)
            assert d == pytest.approx(0.5 * np.sum((w - z) ** 2), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bregman_distance([1.0], [1.0, 2.0], SpaceDescriptor(2, 2))

    def test_overflow_is_a_typed_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="overflows"):
                bregman_distance(np.array([1e200, 1.0]), np.ones(2), SpaceDescriptor.hilbert())


class TestBregmanRows:
    """The snapshots take the Bregman distances of all iterates as the rows of one batch; each row must be
    bregman_distance of that row alone, bit for bit, and inf without a warning where that raises."""

    @pytest.mark.parametrize("desc", [SpaceDescriptor(2.0, 2.0), SpaceDescriptor(1.5, 2.0), SpaceDescriptor(1.1, 1.1),
                                      SpaceDescriptor(3.0, 1.5), SpaceDescriptor(1.3, 2.5)])
    @pytest.mark.parametrize("n_rows", [1, 2, 7])
    def test_rows_equal_bregman_distance_alone(self, desc, n_rows):
        rng = np.random.Generator(np.random.Philox(key=n_rows))
        X = rng.normal(size=(n_rows, 30)) * np.exp(rng.uniform(-3.0, 3.0, size=(n_rows, 1)))
        X[n_rows // 2] = 0.0
        X[-1, ::3] = 0.0
        w = rng.normal(size=30)
        rows = spaces._bregman_rows(X, w, lr_norm(w, desc.r), desc)
        assert rows == [bregman_distance(x, w, desc) for x in X]

    @pytest.mark.parametrize("desc", [SpaceDescriptor(1.5, 2.0), SpaceDescriptor(1.5, 3.0)], ids=["norm", "scale"])
    def test_an_overflowing_row_is_inf_without_a_warning(self, desc):
        # At p = 2 the norm term ||x||^p overflows; at p = 3 the duality map's scale max|x|^(p-1) does first.
        X = np.array([[1.0, -2.0, 0.5], [1e200, -1e200, 3.0], [0.0, 0.3, -0.1]])
        w = np.array([0.5, 1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = spaces._bregman_rows(X, w, lr_norm(w, desc.r), desc)
        with pytest.raises(InvalidInputError, match="overflows"):
            bregman_distance(X[1], w, desc)
        assert rows == [bregman_distance(X[0], w, desc), math.inf, bregman_distance(X[2], w, desc)]


def _oracle_lr_norm(v, r):
    """The norm as first written: scale by max|x|, sum the r-th powers."""
    m = float(np.max(np.abs(v)))
    if m == 0.0:
        return 0.0
    return m * float(np.sum((np.abs(v) / m) ** r)) ** (1.0 / r)


def _oracle_duality_map(v, r, p):
    """The map as first written, on t = x / max|x| with sign(t)."""
    m = float(np.max(np.abs(v)))
    if m == 0.0:
        return np.zeros_like(v)
    t = v / m
    tn = float(np.sum(np.abs(t) ** r)) ** (1.0 / r)
    return (m ** (p - 1.0)) * (tn ** (p - r)) * np.abs(t) ** (r - 1.0) * np.sign(t)


# Entries m * 10^e with m in [1, 10), e an integer in [-300, 299], either
# sign, or an exact zero.
_ENTRY = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, mant, e: sign * mant * 10.0 ** e,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.999), st.integers(-300, 299)),
)
_VECTOR = st.lists(_ENTRY, min_size=1, max_size=12).map(np.array)
_R = st.floats(1.01, 50.0)
_P = st.floats(1.0, 50.0, exclude_min=True)
_TYPED = (ConfigurationError, InvalidInputError, DimensionMismatchError)
_PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)


class TestProperties:
    @_PROPERTY
    @given(x=_VECTOR, r=_R, p=_P)
    def test_bit_equal_to_the_first_formulas(self, x, r, p):
        assert lr_norm(x, r) == _oracle_lr_norm(x, r)
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("ignore")
            try:
                want = _oracle_duality_map(x, r, p)
            except OverflowError:
                want = None
        if want is None or not np.isfinite(want).all():
            with pytest.raises(InvalidInputError, match="overflows"):
                duality_map(x, SpaceDescriptor(r, p))
            return
        got = duality_map(x, SpaceDescriptor(r, p))
        assert np.array_equal(got, want)
        # Bit for bit, except the sign of a zero where x_j / max|x| underflows:
        # the oracle takes sign(x_j / max|x|) = +0 there, the map sign(x_j).
        m = np.max(np.abs(x))
        scaled_nonzero = np.abs(x) / m > 0 if m > 0 else np.ones(x.size, dtype=bool)
        assert (got.view(np.int64) == want.view(np.int64))[scaled_nonzero].all()

    @_PROPERTY
    @given(x=_VECTOR, r=_R, p=_P)
    def test_inverse_map_agrees_with_the_dual_map(self, x, r, p):
        desc = SpaceDescriptor(r, p)
        dual = desc.dual
        try:
            want = duality_map(x, dual)
        except InvalidInputError:
            with pytest.raises(InvalidInputError, match="overflows"):
                inverse_duality_map(x, desc)
            return
        got = inverse_duality_map(x, desc)
        # Both multiply the same (r*-1)-th powers by a scale.  Only the sum in
        # the norm differs, b . a against sum(a^r*), each within n ulps; the
        # scale raises it to (p*-r*)/r*, and each Python power adds an ulp.
        tol = 4 * np.finfo(float).eps * (x.size + 1) * (1.0 + abs(dual.p - dual.r))
        assert (np.abs(got - want) <= tol * np.abs(want) + 2 * np.finfo(float).smallest_subnormal).all()

    @_PROPERTY
    @given(x=_VECTOR, r=_R, p=_P)
    def test_inverse_map_is_the_dual_map_bit_for_bit_without_a_norm_pass(self, x, r, p):
        # p* == r* needs no norm and r* == 2 no power, so both delegate to duality_map.
        for desc in (SpaceDescriptor(r, r), SpaceDescriptor(2.0, p)):
            try:
                want = duality_map(x, desc.dual)
            except InvalidInputError:
                with pytest.raises(InvalidInputError, match="overflows"):
                    inverse_duality_map(x, desc)
                continue
            assert inverse_duality_map(x, desc).tobytes() == want.tobytes()

    @_PROPERTY
    @given(pairs=st.lists(st.tuples(_ENTRY, _ENTRY), min_size=1, max_size=12), r=_R, p=_P)
    def test_bregman_distance_is_nonnegative(self, pairs, r, p):
        z, w = np.array(pairs).T
        top = max(lr_norm(z, r), lr_norm(w, r))
        try:
            d = bregman_distance(z, w, SpaceDescriptor(r, p))
        except InvalidInputError:
            # Raised only when a term, at most max(||z||, ||w||)^p, nears the
            # largest float (1.8e308).
            assert p * math.log10(top) > 307.0
            return
        # Each of the three terms is rounded at the scale max(||z||, ||w||)^p.
        assert d >= -1e-12 * top ** p

    @_PROPERTY
    @given(entries=st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-6.0, 0.0)),
                            min_size=1, max_size=12),
           top=st.floats(-150.0, 150.0), r=_R, p=st.floats(1.01, 50.0))
    def test_inverse_map_undoes_the_map(self, entries, top, r, p):
        # Entries within six decades of 10^top, so no (r-1)-th power of a
        # scaled entry underflows.
        x = np.array([sign * 10.0 ** (e + top) for sign, e in entries])
        m = float(np.max(np.abs(x)))
        assume(m > 0.0)
        assume(abs((p - 1.0) * math.log10(m)) < 300.0)  # m^(p-1) in the normal float range
        desc = SpaceDescriptor(r, p)
        back = inverse_duality_map(duality_map(x, desc), desc)
        # The inverse raises values that carry a few ulps each to the powers
        # 1/(r-1) and 1/(p-1), and every norm sums n terms.
        tol = 64 * np.finfo(float).eps * x.size * (desc.r_conj + desc.p_conj + r + p)
        assert np.max(np.abs(back - x)) <= tol * m

    @_PROPERTY
    @given(x=st.one_of(
               _VECTOR,
               st.lists(st.floats(), max_size=6).map(np.array),
               st.floats().map(np.array),
               st.lists(st.floats(-10, 10), min_size=4, max_size=4).map(lambda v: np.reshape(v, (2, 2))),
           ),
           w=_VECTOR, r=st.floats(), p=st.floats())
    def test_only_typed_errors_and_no_warnings(self, x, w, r, p):
        calls = (
            lambda: lr_norm(x, r),
            lambda: duality_map(x, SpaceDescriptor(r, p)),
            lambda: inverse_duality_map(x, SpaceDescriptor(r, p)),
            lambda: dual_pairing(x, w),
            lambda: bregman_distance(x, w, SpaceDescriptor(r, p)),
            lambda: bregman_distance(w, x, SpaceDescriptor(r, p)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                try:
                    call()
                except _TYPED:
                    pass
