import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from banach_sgd import cli, diagnostics, noise, operators, solver, spaces

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

    def test_empty_vectors_are_zero(self):
        assert lr_norm([], 1.5) == bregman_distance([], [], SpaceDescriptor(1.5, 2.0)) == 0.0


class TestBregmanRows:
    """The snapshots take the Bregman distances of all iterates as the rows of one batch; each row must be the
    first formula's distance of that row alone, bit for bit, and the batch raises without a warning where a row's
    distance overflows."""

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
        assert rows == [_oracle_bregman(x, w, desc) for x in X]

    @pytest.mark.parametrize("desc", [SpaceDescriptor(1.5, 2.0), SpaceDescriptor(1.5, 3.0)], ids=["norm", "scale"])
    def test_an_overflowing_row_raises_without_a_warning(self, desc):
        # At p = 2 the norm term ||x||^p overflows; at p = 3 the duality map's scale max|x|^(p-1) does first.
        X = np.array([[1.0, -2.0, 0.5], [1e200, -1e200, 3.0], [0.0, 0.3, -0.1]])
        w = np.array([0.5, 1.0, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="overflows"):
                spaces._bregman_rows(X, w, lr_norm(w, desc.r), desc)
            with pytest.raises(InvalidInputError, match="overflows"):
                bregman_distance(X[1], w, desc)


def _oracle_lr_norm(v, r):
    """The norm as first written: scale by max|x|, sum the r-th powers."""
    m = float(np.max(np.abs(v)))
    if m == 0.0:
        return 0.0
    return m * float(np.sum((np.abs(v) / m) ** r)) ** (1.0 / r)


def _oracle_bregman(z, w, desc):
    """The distance as first written: the two norm terms minus the pairing of duality_map(z) with w."""
    return lr_norm(z, desc.r) ** desc.p / desc.p_conj + lr_norm(w, desc.r) ** desc.p / desc.p \
        - dual_pairing(duality_map(z, desc), w)


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
    @example(x=np.array([-0.0, 0.0, -0.0]), r=1.5, p=3.0)  # a zero vector keeps its zeros' signs too
    @example(x=np.array([2.0, -0.0, -3.0, 0.0]), r=11.0, p=2.0)
    @given(x=st.lists(st.one_of(st.just(-0.0), _ENTRY), min_size=1, max_size=12).map(np.array), r=_R, p=_P)
    def test_maps_take_the_former_sign_products_and_keep_signed_zeros(self, x, r, p):
        # Each map took its signs as magnitude * np.sign(x), which sends -0.0 to +0.0, and now takes them with
        # np.copysign.  Against the map of |x| times np.sign(x), every entry where x_j is not ±0 is the same bytes,
        # and every zero keeps its own sign, in duality_map, both inverse_duality_map paths and _duality_rows.
        kernels = [lambda v, d: duality_map(v, d), lambda v, d: inverse_duality_map(v, d),
                   lambda v, d: spaces._duality_rows(v[None], d.r, d.p)[0][0]]
        zero = x == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for desc in (SpaceDescriptor(r, p), SpaceDescriptor(r, r), SpaceDescriptor(2.0, p)):
                for kernel in kernels:
                    try:
                        magnitude = kernel(np.abs(x), desc)
                    except InvalidInputError:
                        with pytest.raises(InvalidInputError, match="overflows"):
                            kernel(x, desc)
                        continue
                    got = kernel(x, desc)
                    former = magnitude * np.sign(x)
                    assert (got.view(np.int64) == former.view(np.int64))[~zero].all()
                    assert np.array_equal(np.signbit(got[zero]), np.signbit(x[zero])) and not got[zero].any()

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
    @example(x=np.array([]), w=np.array([]), r=1.5, p=2.0)
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


# Every call that takes an exponent, each as a function of that exponent with valid other arguments.
_A = np.array([[1.0, 2.0], [3.0, 4.0]])
_OP = operators.BlockOperator(_A, SpaceDescriptor.hilbert())
_OBS = operators.ObservationSet.from_full(_A @ np.ones(2), _OP)
_EXPONENT_CALLS = {
    "SpaceDescriptor.r": lambda e: SpaceDescriptor(e, 2.0),
    "SpaceDescriptor.p": lambda e: SpaceDescriptor(2.0, e),
    "lr_norm": lambda e: lr_norm(np.ones(3), e),
    "boyd_operator_norm.rx": lambda e: operators.boyd_operator_norm(_A, e, 2.0),
    "boyd_operator_norm.ry": lambda e: operators.boyd_operator_norm(_A, 2.0, e),
    "SlowDecaySchedule.p_conj": lambda e: solver.SlowDecaySchedule(1.0, 2, e),
    "theoretical_max_step": lambda e: solver.theoretical_max_step(solver.ConstantsConfig(1.0, 1.0), 1.0, e),
    "SolverConfig.q": lambda e: solver.SolverConfig(SpaceDescriptor.hilbert(), SpaceDescriptor.hilbert(),
                                                    solver.ConstantSchedule(0.1), "generalized_kaczmarz", q=e),
    "objective": lambda e: diagnostics.objective(np.ones(2), _OP, _OBS, e),
    "a_priori_stop_index": lambda e: solver.a_priori_stop_index(solver.APrioriStop(), 0.1, e),
}
# An int, numpy int or numpy float exponent; float(e) is the Python float it stands for.
_NUMPY_EXPONENT = st.one_of(
    st.integers(2, 50).flatmap(lambda k: st.sampled_from([k, np.int64(k), np.float64(k)])),
    st.floats(1.01, 50.0).flatmap(lambda v: st.sampled_from([np.float64(v), np.float32(v)])),
)


def _outcome(call):
    """(type, bytes) of call's value, or (type, message) of the typed error it raises; any warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call()
        except _TYPED as exc:
            return type(exc), str(exc)
    return type(value), np.asarray(value).tobytes()


class TestExponentRule:
    @pytest.mark.parametrize("exponent", ["3", None, True, math.nan, math.inf, 1.0, 0.5])
    @pytest.mark.parametrize("call", list(_EXPONENT_CALLS))
    def test_every_exponent_outside_the_rule_is_a_configuration_error(self, call, exponent):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError):
                _EXPONENT_CALLS[call](exponent)

    @_PROPERTY
    @example(pairs=[(1e200, 1.0), (1.0, 1.0)], r=np.float64(3.0), p=np.float64(3.0))
    @given(pairs=st.lists(st.tuples(_ENTRY, _ENTRY), min_size=1, max_size=12), r=_NUMPY_EXPONENT, p=_NUMPY_EXPONENT)
    def test_numpy_and_int_exponents_act_as_the_equal_python_float(self, pairs, r, p):
        z, w = np.array(pairs).T
        desc, plain = SpaceDescriptor(r, p), SpaceDescriptor(float(r), float(p))
        assert (type(desc.r), type(desc.p)) == (float, float) and desc == plain
        for call in (lambda d, e: lr_norm(z, e), lambda d, e: duality_map(z, d),
                     lambda d, e: inverse_duality_map(z, d), lambda d, e: bregman_distance(z, w, d)):
            assert _outcome(lambda: call(desc, r)) == _outcome(lambda: call(plain, float(r)))


# Every scalar parameter under spaces._scalar's rule, each as a function of that value with valid other arguments:
# (call, a number outside its range, the message that number raises with).
_SCALAR_CALLS = {
    "PolynomialSchedule.mu0": (lambda v: solver.PolynomialSchedule(v, 0.9), -1.0, "mu0 must be positive and finite"),
    "PolynomialSchedule.beta": (lambda v: solver.PolynomialSchedule(1.0, v), 1.5, "decay exponent must lie in (0, 1]"),
    "SlowDecaySchedule.scale": (lambda v: solver.SlowDecaySchedule(v, 2, 2.0), 0.0, "scale must be positive and finite"),
    "ConstantSchedule.mu0": (lambda v: solver.ConstantSchedule(v), -2.0,
                             "step size must be positive and inside the float range"),
    "ConstantsConfig.G_pstar": (lambda v: solver.ConstantsConfig(v, 1.0), 0.0,
                                "geometry constants must be positive and finite"),
    "ConstantsConfig.C_p": (lambda v: solver.ConstantsConfig(1.0, v), -3.0,
                            "geometry constants must be positive and finite"),
    "theoretical_max_step": (lambda v: solver.theoretical_max_step(solver.ConstantsConfig(1.0, 1.0), v, 2.0), 0.0,
                             "need finite l_max > 0"),
    "APrioriStop.theta": (lambda v: solver.APrioriStop(theta=v), 1.0, "safety factor theta must lie in (0, 1)"),
    "APrioriStop.beta": (lambda v: solver.APrioriStop(beta=v), 1.0,
                         "beta must lie in [0, 1), where the stop index is defined"),
    "a_priori_stop_index": (lambda v: solver.a_priori_stop_index(solver.APrioriStop(), v, 2.0), 0.0,
                            "a-priori stopping needs a positive noise level"),
    "boyd_operator_norm.tol": (lambda v: operators.boyd_operator_norm(_A, 1.5, 2.0, tol=v), -1e-3,
                               "tol must be finite and >= 0"),
    "GaussianNoise.sigma": (lambda v: noise.GaussianNoise(v), -0.5, "sigma must be finite and >= 0"),
    "ImpulseNoise.pct": (lambda v: noise.ImpulseNoise(v), 1.5, "corruption probability must be in [0, 1]"),
    "ImpulseNoise.lo": (lambda v: noise.ImpulseNoise(0.1, lo=v), 0.5,
                        "impulse magnitude interval needs lo < hi and a finite width hi - lo"),
    "ImpulseNoise.hi": (lambda v: noise.ImpulseNoise(0.1, hi=v), 0.05,
                        "impulse magnitude interval needs lo < hi and a finite width hi - lo"),
    "SaltPepperNoise.pct": (lambda v: noise.SaltPepperNoise(v), -0.1, "corruption fraction must be in [0, 1]"),
    "SaltPepperNoise.salt_value": (lambda v: noise.SaltPepperNoise(0.1, salt_value=v), math.inf,
                                   "salt_value must be finite"),
    "SaltPepperNoise.pepper_value": (lambda v: noise.SaltPepperNoise(0.1, pepper_value=v), -math.inf,
                                     "pepper_value must be finite"),
    "ObservationSet.noise_level": (lambda v: operators.ObservationSet([np.ones(2)], v), -0.1,
                                   "noise level must be finite and >= 0"),
    "RadonGeometry.pixel_size": (lambda v: operators.RadonGeometry(16, 6, 30.0, 23, v), 0.0,
                                 "pixel_size must be positive and finite"),
    "RadonGeometry.angle_step": (lambda v: operators.RadonGeometry(16, 6, v, 23, 0.1), -30.0,
                                 "angle_step must be positive and finite"),
    "polyak_bound.alpha": (lambda v: diagnostics.polyak_bound(1.0, v, [0.1]), 0.0, "alpha must be finite and > 0"),
    "rate_envelope.alpha": (lambda v: diagnostics.rate_envelope(1.0, v, [0.1]), 0.5, "alpha must be finite and >= 1"),
    "support_f1.threshold": (lambda v: diagnostics.support_f1(np.ones(3), np.ones(3), v), -0.1,
                             "threshold must be positive and finite"),
}
_NONE_KEEPS_THE_DEFAULT = ("SaltPepperNoise.salt_value", "support_f1.threshold")


class TestScalarRule:
    @pytest.mark.parametrize("call,value", [(c, v) for c in _SCALAR_CALLS for v in ("3", None, [1.0], 1j, math.nan,
                                                                                    math.inf, -math.inf, True)
                                            if not (v is None and c in _NONE_KEEPS_THE_DEFAULT)])
    def test_every_value_that_is_not_a_number_in_range_is_a_configuration_error(self, call, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=re.escape(_SCALAR_CALLS[call][2])):
                _SCALAR_CALLS[call][0](value)

    @pytest.mark.parametrize("kind", [float, np.float64])
    @pytest.mark.parametrize("call", list(_SCALAR_CALLS))
    def test_numbers_keep_their_messages(self, call, kind):
        make, bad, message = _SCALAR_CALLS[call]
        with pytest.raises(ConfigurationError) as info:
            make(kind(bad))
        assert str(info.value).startswith(f"{message}; got ") and str(bad) in str(info.value)

    def test_none_keeps_the_default(self):
        assert noise.SaltPepperNoise(0.1, salt_value=None).salt_value is None
        x, x_true = np.array([0.05, 0.5, 1.0]), np.ones(3)
        assert diagnostics.support_f1(x, x_true, None) == diagnostics.support_f1(x, x_true, 0.1) == 0.8

    def test_in_range_numbers_give_what_the_equal_python_float_gives(self):
        constants = solver.ConstantsConfig(1.0, 1.0)
        for v in (3, np.int64(3), np.float64(3.0), np.float32(3.0)):
            assert solver.theoretical_max_step(constants, v, 2.0) == solver.theoretical_max_step(constants, 3.0, 2.0)
            assert solver.a_priori_stop_index(solver.APrioriStop(), v / 100, 2.0) == \
                solver.a_priori_stop_index(solver.APrioriStop(), float(v) / 100, 2.0)
            assert solver.SlowDecaySchedule(v, 2, 2.0).at(5) == solver.SlowDecaySchedule(3.0, 2, 2.0).at(5)
        for make, v in ((lambda v: solver.PolynomialSchedule(v, 0.9), np.float32(0.7)),
                        (lambda v: solver.PolynomialSchedule(1.0, v), np.float32(0.7)),
                        (lambda v: solver.SlowDecaySchedule(v, 2, 2.0), np.float32(0.7)),
                        (lambda v: solver.SlowDecaySchedule(1.0, 2, v), np.float32(1.7)),
                        (solver.ConstantSchedule, np.float32(0.7))):
            steps = [make(v).at(k) for k in (1, 5, 40)]
            assert steps == [make(float(v)).at(k) for k in (1, 5, 40)] and {type(s) for s in steps} == {float}
        with pytest.raises(ConfigurationError, match="tol must be finite and >= 0"):
            operators.boyd_operator_norm(_A, 1.5, 2.0, tol=math.inf)
        with pytest.raises(ConfigurationError, match="need finite l_max > 0"):
            solver.theoretical_max_step(constants, 10 ** 400, 2.0)  # an int beyond the float range
        with warnings.catch_warnings():  # numpy constants are kept as Python floats, so the bound cannot warn
            warnings.simplefilter("error")
            huge = solver.ConstantsConfig(np.float64(1e300), np.float32(2.0))
            assert (type(huge.G_pstar), type(huge.C_p)) == (float, float)
            with pytest.raises(ConfigurationError, match="leaves the float range"):
                solver.theoretical_max_step(huge, 1e10, 2.0)


# Every call that reads a real array argument, each as a function of that argument with valid other arguments:
# (call, the name its error gives the argument, a valid value with integral entries or None).  The call returns
# the arrays and floats it computes, so equal results compare bit for bit.
_CSR = operators.CsrMatrix([0, 1, 2], [0, 1], [1.0, 2.0], (2, 2))
_CFG = solver.SolverConfig(SpaceDescriptor.hilbert(), SpaceDescriptor.hilbert(), solver.ConstantSchedule(0.05))
_VEC, _MAT = [3.0, -4.0], [[1.0, 2.0], [3.0, 4.0]]
_ARRAY_CALLS = {
    "lr_norm": (lambda v: lr_norm(v, 3.0), "x", _VEC),
    "duality_map": (lambda v: duality_map(v, SpaceDescriptor(2.0, 1.5)), "x", _VEC),
    "inverse_duality_map": (lambda v: inverse_duality_map(v, SpaceDescriptor(1.5, 2.0)), "xs", _VEC),
    "dual_pairing.xs": (lambda v: dual_pairing(v, np.ones(2)), "xs", _VEC),
    "dual_pairing.x": (lambda v: dual_pairing(np.ones(2), v), "x", _VEC),
    "bregman_distance.z": (lambda v: bregman_distance(v, np.ones(2), SpaceDescriptor(1.5, 2.0)), "z", _VEC),
    "bregman_distance.w": (lambda v: bregman_distance(np.ones(2), v, SpaceDescriptor(1.5, 2.0)), "w", _VEC),
    "CsrMatrix.data": (lambda v: operators.CsrMatrix([0, 1, 2], [0, 1], v, (2, 2)).toarray(), "data", _VEC),
    "CsrMatrix @": (lambda v: _CSR @ v, "x", _VEC),
    "CsrMatrix.T @": (lambda v: _CSR.T @ v, "y", _VEC),
    "BlockOperator": (lambda v: operators.BlockOperator(v).full_matrix, "2-D matrix", _MAT),
    "BlockOperator.apply": (lambda v: _OP.apply(0, v), "x", _VEC),
    "BlockOperator.apply_adjoint": (lambda v: _OP.apply_adjoint(0, v), "ys", _VEC),
    "BlockOperator.apply_all": (lambda v: _OP.apply_all(v), "x", _VEC),
    "ObservationSet": (lambda v: operators.ObservationSet([v]).concatenated, "data block", _VEC),
    "ObservationSet.from_full": (lambda v: operators.ObservationSet.from_full(v, _OP).concatenated, "y_full", _VEC),
    "partition_rows": (lambda v: operators.partition_rows(v, 2).full_matrix, "full", _MAT),
    "boyd_operator_norm": (lambda v: operators.boyd_operator_norm(v, 1.5, 2.0).value, "A", _MAT),
    "save_matrix_csv": (lambda v: operators.save_matrix_csv(os.devnull, v), "M", None),
    "ConvergenceRecord": (lambda v: diagnostics.ConvergenceRecord(*[v] * 7).epoch, "column epoch", [1.0, 2.0]),
    "delta_metrics.x": (lambda v: diagnostics.delta_metrics(v, np.ones(2)), "x", _VEC),
    "delta_metrics.x_true": (lambda v: diagnostics.delta_metrics(np.ones(2), v), "x_true", _VEC),
    "ensemble_stats": (diagnostics.ensemble_stats, "samples", _MAT),
    "stability_probe": (lambda v: diagnostics.stability_probe(_OP, v, _CFG, 2, [0.1], n_seeds=2).bregman_gap,
                        "y_clean", _VEC),
    "corrupt": (lambda v: noise.corrupt(v, noise.GaussianNoise(0.1)), "y", _VEC),
    "run.x_true": (lambda v: solver.run(_OP, _OBS, _CFG, x_true=v).record.delta2, "x_true", _VEC),
    "run.x_ref": (lambda v: solver.run(_OP, _OBS, _CFG, x_ref=v).record.bregman, "x_ref", _VEC),
    "write_pgm": (lambda v: cli.write_pgm(os.devnull, v), "image", None),
}
# Every call that reads an integer array argument: (call, the start of its error message, a valid value).
_INDEX_CALLS = {
    "CsrMatrix.indptr": (lambda v: operators.CsrMatrix(v, [0, 1], [1.0, 2.0], (2, 2)), "indptr", [0, 1, 2]),
    "CsrMatrix.indices": (lambda v: operators.CsrMatrix([0, 1, 2], v, [1.0, 2.0], (2, 2)), "column indices", [1, 0]),
    "CsrMatrix.take": (_CSR.take, "rows to take", [1, 0]),
    "BlockOperator.block_sizes": (lambda v: operators.BlockOperator(np.eye(2), block_sizes=v), "block sizes", [1, 1]),
    "BlockOperator.row_order": (lambda v: operators.BlockOperator(np.eye(2), row_order=v), "row order", [1, 0]),
}
_UNREADABLE = {"text": "abc", "text-rows": [["a"]], "ragged": [[1.0], [1.0, 2.0]], "complex-array": np.array([1j]),
               "complex-list": [1j], "complex-objects": np.array([np.complex128(1j)], dtype=object),
               "int-past-the-float-range": [10 ** 400]}


def _bits(value):
    """The dtypes and bytes of every array and float in value, a result of the calls above, in order."""
    if isinstance(value, (tuple, list)):
        return [b for v in value for b in _bits(v)]
    if isinstance(value, operators.CsrMatrix):
        return _bits((value.indptr, value.indices, value.data, value.shape))
    if isinstance(value, operators.BlockOperator):
        return _bits((value.block_sizes, value.row_order, value.full_matrix))
    value = np.asarray(value)
    return [(value.dtype.str, value.shape, value.tobytes())]


class TestArrayRule:
    @pytest.mark.parametrize("value", list(_UNREADABLE.values()), ids=list(_UNREADABLE))
    @pytest.mark.parametrize("call", list(_ARRAY_CALLS))
    def test_input_numpy_cannot_read_as_real_numbers_is_a_typed_error_naming_the_argument(self, call, value):
        make, name, _ = _ARRAY_CALLS[call]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatchError, match=re.escape(name)):
                make(value)

    @pytest.mark.parametrize("value", [*_UNREADABLE.values(), [0.0, 1.0], [True, False], np.array([0, 1.5])],
                             ids=[*_UNREADABLE, "float-list", "bool", "float-array"])
    @pytest.mark.parametrize("call", list(_INDEX_CALLS))
    def test_an_index_array_that_is_not_integers_is_a_typed_error(self, call, value):
        make, message, _ = _INDEX_CALLS[call]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatchError, match=re.escape(message)):
                make(value)

    def test_ints_float32_object_arrays_and_0_d_values_give_the_float64_result(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for make, _, valid in (c for c in _ARRAY_CALLS.values() if c[2] is not None):
                want = _bits(make(np.array(valid)))
                for value in (valid, np.array(valid).astype(int).tolist(), np.array(valid, dtype=np.float32),
                              np.array(valid, dtype=np.int32), np.array(valid, dtype=object)):
                    assert _bits(make(value)) == want
            # The spaces maps read a 0-d value as one entry.
            for make in (lambda v: lr_norm(v, 3.0), lambda v: duality_map(v, SpaceDescriptor(2.0, 1.5)),
                         lambda v: inverse_duality_map(v, SpaceDescriptor(1.5, 2.0)), lambda v: dual_pairing(v, 2.0),
                         lambda v: bregman_distance(v, 2.0, SpaceDescriptor(1.5, 2.0))):
                want = _bits(make(np.array([-3.0])))
                for value in (-3.0, -3, np.float64(-3.0), np.float32(-3.0), np.int64(-3), np.array(-3.0)):
                    assert _bits(make(value)) == want

    def test_integer_dtypes_and_empty_lists_give_the_intp_result(self):
        for make, _, valid in _INDEX_CALLS.values():
            want = _bits(make(np.array(valid, dtype=np.intp)))
            for value in (valid, np.array(valid, dtype=np.int32), np.array(valid, dtype=np.uint64)):
                assert _bits(make(value)) == want
        want = _bits(operators.CsrMatrix(np.zeros(3, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0), (2, 3)))
        assert _bits(operators.CsrMatrix([0, 0, 0], [], [], (2, 3))) == want
        assert _bits(_CSR.take([])) == _bits(_CSR.take(np.zeros(0, dtype=np.intp)))
        assert _CSR.take([]).shape == (0, 2)

    def test_a_float64_array_is_read_as_it_is(self):
        x = np.array(_VEC)
        assert spaces._real(x, "x") is x and spaces._real(x, "x", 1) is x and spaces._real(x, "x", (2,)) is x
        A = np.array(_MAT)
        assert operators.BlockOperator(A).full_matrix is A
        assert operators.BlockOperator(A.T).full_matrix.flags.c_contiguous  # copied once, to C order

    @pytest.mark.parametrize("index", [True, False, 0.0, "0", None])
    def test_a_block_index_is_an_integer_never_a_bool(self, index):
        op = operators.BlockOperator(np.eye(2), block_sizes=[1, 1])
        for call in (lambda: op.apply(index, np.ones(2)), lambda: op.apply_adjoint(index, np.ones(1))):
            with pytest.raises(ConfigurationError, match="block index must be an integer"):
                call()

    @pytest.mark.parametrize("start,stop", [(True, 2), (0, True), (False, 1), (0.0, 1), (0, "2"), (None, 1)])
    def test_csr_rows_take_integers_never_bools(self, start, stop):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatchError, match="ordered integer slice"):
                _CSR.rows(start, stop)

    def test_a_csr_shape_is_two_integers(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for shape in ((2.7, 2), ("2", 2), (2, None), (True, 2), (2, False), (-1, 2), (2,), 2, None, (2, 2, 1)):
                with pytest.raises(DimensionMismatchError, match="shape must be two integers"):
                    operators.CsrMatrix([0, 1, 2], [0, 1], [1.0, 2.0], shape)
        matrix = operators.CsrMatrix([0, 1, 2], [0, 1], [1.0, 2.0], [np.int64(2), np.uint8(2)])
        assert matrix.shape == (2, 2) and all(type(k) is int for k in matrix.shape)

    @pytest.mark.parametrize("delta0", ["a", None, True, [1.0], 1j, math.nan, math.inf, -1.0, 10 ** 400])
    @pytest.mark.parametrize("bound", [diagnostics.polyak_bound, diagnostics.rate_envelope])
    def test_a_delta0_that_is_not_a_number_in_range_is_an_invalid_input_error(self, bound, delta0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="delta0 must be finite and >= 0"):
                bound(delta0, 1.0, [0.1])
