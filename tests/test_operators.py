import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from banach_sgd import (
    BlockOperator,
    ConfigurationError,
    CsrMatrix,
    DimensionMismatchError,
    InvalidInputError,
    NormEstimate,
    ObservationSet,
    RadonGeometry,
    SpaceDescriptor,
    block_norms,
    boyd_operator_norm,
    build_integral_operator,
    build_radon_operator,
    duality_map,
    exact_sparse_signal,
    load_matrix_csv,
    lr_norm,
    max_block_norm,
    partition_rows,
    save_matrix_csv,
    sparse_disk_phantom,
)
from banach_sgd import operators
from banach_sgd.operators import _trace_rays, check_partition, integral_kernel
from banach_sgd.spaces import _powers


class TestBlockOperator:
    def test_apply_single_row(self):
        op = BlockOperator(np.array([[1.0, 2.0]]))
        assert np.allclose(op.apply(0, np.array([1.0, 1.0])), [3.0])

    def test_apply_identity(self):
        op = BlockOperator(np.eye(3))
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(op.apply(0, x), x)

    def test_apply_matches_triple_loop(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        B = rng.normal(size=(4, 3))
        x = rng.normal(size=3)
        op = BlockOperator(B)
        manual = np.zeros(4)
        for i in range(4):
            for j in range(3):
                manual[i] += B[i, j] * x[j]
        assert np.array_equal(op.apply(0, x), B @ x)
        assert np.allclose(op.apply(0, x), manual, rtol=1e-15)

    def test_adjoint_single_row(self):
        op = BlockOperator(np.array([[1.0, 2.0]]))
        assert np.allclose(op.apply_adjoint(0, np.array([1.0])), [1.0, 2.0])

    def test_adjoint_zero(self):
        op = BlockOperator(np.ones((2, 3)))
        assert np.all(op.apply_adjoint(0, np.zeros(2)) == 0.0)

    def test_adjoint_pairing_identity(self):
        rng = np.random.Generator(np.random.Philox(key=2))
        B = rng.normal(size=(5, 4))
        op = BlockOperator(B)
        for _ in range(10):
            u = rng.normal(size=5)
            x = rng.normal(size=4)
            lhs = float(np.dot(op.apply_adjoint(0, u), x))
            rhs = float(np.dot(u, op.apply(0, x)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_dimension_errors(self):
        op = BlockOperator(np.ones((2, 3)))
        with pytest.raises(ConfigurationError):
            op.apply(1, np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            op.apply(0, np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            BlockOperator(np.ones(3))

    @pytest.mark.parametrize("sizes", [[0, 6], [7], [], [[2, 4]], [-2, 8], [2.0, 4.0]],
                             ids=["zero", "too-many-rows", "empty", "2-D", "negative", "float"])
    def test_block_sizes_must_be_positive_and_sum_to_the_rows(self, sizes):
        with pytest.raises(DimensionMismatchError, match="block sizes"):
            BlockOperator(np.ones((6, 3)), block_sizes=sizes)

    @pytest.mark.parametrize("order", [[0, 1, 2], [0, 0, 1, 1], [0, 1, 2, 4], [-1, 0, 1, 2], [0, 1, 2, 10 ** 12],
                                       [0.0, 1.0, 2.0, 3.0], [[0, 1], [2, 3]]],
                             ids=["wrong-length", "repeated-row", "out-of-range", "negative", "huge", "float", "2-D"])
    def test_row_order_must_permute_the_rows(self, order):
        with pytest.raises(DimensionMismatchError, match="row order"):
            BlockOperator(np.eye(4), block_sizes=[2, 2], row_order=order)

    def test_permuted_row_order_splits_the_data(self):
        op = BlockOperator(np.eye(4), block_sizes=[2, 2], row_order=np.array([3, 0, 2, 1], dtype=np.uint64))
        obs = ObservationSet.from_full([10.0, 11.0, 12.0, 13.0], op)
        assert [b.tolist() for b in obs.blocks] == [[13.0, 10.0], [12.0, 11.0]]

    @pytest.mark.parametrize("rows", [2, 1])
    def test_old_list_of_blocks_is_not_a_matrix(self, rows):
        with pytest.raises(DimensionMismatchError, match="2-D matrix"):
            BlockOperator([np.ones((2, 3)), np.ones((rows, 3))])

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_matrix_without_columns_rejected(self, sparse):
        A = CsrMatrix(np.zeros(4, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0), (3, 0)) if sparse \
            else np.zeros((3, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionMismatchError, match="at least one column"):
                BlockOperator(A)

    def test_non_finite_dense_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            BlockOperator(np.array([[1.0, np.nan], [0.0, 1.0]]), block_sizes=[1, 1])

    def test_c_contiguous_float_matrix_is_used_as_given(self):
        A = np.arange(12.0).reshape(4, 3)
        op = BlockOperator(A, block_sizes=[1, 3])
        assert np.shares_memory(op.full_matrix, A)
        A[2, 0] += 100.0  # an in-place edit of the caller's matrix reaches the blocks
        assert op.apply(1, np.array([1.0, 0.0, 0.0]))[1] == 106.0

    @pytest.mark.parametrize("layout", ["fortran", "column-strided", "integer"])
    def test_other_dense_input_is_copied_once_to_c_order(self, layout):
        base = np.arange(24.0).reshape(4, 6)
        A = {"fortran": np.asfortranarray(base), "column-strided": base[:, ::2],
             "integer": base.astype(int)}[layout]
        op = BlockOperator(A, block_sizes=[3, 1])
        assert op.full_matrix.flags.c_contiguous and op.full_matrix.dtype == np.float64
        assert not np.shares_memory(op.full_matrix, A) and np.array_equal(op.full_matrix, A)
        assert all(b.flags.c_contiguous for b in op.blocks)

    def test_ragged_blocks_are_views_of_one_matrix(self):
        rng = np.random.Generator(np.random.Philox(key=6))
        blocks = [rng.normal(size=(m, 4)) for m in (1, 5, 2)]
        op = BlockOperator(np.vstack(blocks), block_sizes=[1, 5, 2])
        assert np.array_equal(op.full_matrix, np.vstack(blocks))
        assert op.total_rows == 8 and op.input_dim == 4
        for i, b in enumerate(blocks):
            assert np.shares_memory(op.blocks[i], op.full_matrix)
            assert np.array_equal(op.blocks[i], b)
        obs = ObservationSet([rng.normal(size=m) for m in (1, 5, 2)])
        assert obs.concatenated.shape == (8,)
        for i in range(3):
            assert np.shares_memory(obs.blocks[i], obs.concatenated)

    def test_block_edit_is_seen_by_apply_all(self):
        op = partition_rows(np.arange(12.0).reshape(6, 2), 2)
        x = np.array([1.0, 0.0])
        before = op.apply_all(x)
        op.blocks[1][0, 0] += 100.0
        after = op.apply_all(x)
        assert after[3] == before[3] + 100.0
        assert np.array_equal(np.delete(after, 3), np.delete(before, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            ObservationSet([np.array([1.0, bad])])
        op = partition_rows(np.eye(4), 2)
        with pytest.raises(InvalidInputError):
            ObservationSet.from_full(np.array([0.0, 1.0, bad, 2.0]), op)

    def test_empty_data_rejected(self):
        with pytest.raises(ConfigurationError):
            ObservationSet([])

    @pytest.mark.parametrize("level", [np.nan, np.inf, -1.0])
    def test_noise_level_must_be_finite_and_non_negative(self, level):
        with pytest.raises(ConfigurationError, match="noise level"):
            ObservationSet([np.ones(2)], noise_level=level)


class TestPartitionRows:
    def test_interleaving(self):
        full = np.arange(12.0).reshape(6, 2)
        op = partition_rows(full, 2)
        assert np.array_equal(op.blocks[0], full[[0, 2, 4]])
        assert np.array_equal(op.blocks[1], full[[1, 3, 5]])

    def test_single_batch(self):
        full = np.arange(12.0).reshape(6, 2)
        op = partition_rows(full, 1)
        assert np.array_equal(op.blocks[0], full)

    def test_one_row_per_batch(self):
        full = np.arange(12.0).reshape(6, 2)
        op = partition_rows(full, 6)
        assert all(b.shape == (1, 2) for b in op.blocks)

    def test_non_divisible_rejected(self):
        with pytest.raises(ConfigurationError):
            partition_rows(np.ones((6, 2)), 4)
        for n_batches in (4, 0):
            with pytest.raises(ConfigurationError, match="must divide the row count"):
                check_partition(6, n_batches)
        check_partition(6, 3)

    def test_numpy_integer_batch_count_is_valid(self):
        assert partition_rows(np.ones((6, 2)), np.int64(3)).n_blocks == 3

    def test_inverse_map_reconstructs_original(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        full = rng.normal(size=(20, 7))
        op = partition_rows(full, 5)
        rebuilt = np.empty_like(full)
        rebuilt[op.row_order] = op.full_matrix
        assert np.array_equal(rebuilt, full)

    def test_blocks_share_one_stacked_matrix(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        full = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        op = partition_rows(full, 3)
        obs = ObservationSet.from_full(y, op)
        assert np.array_equal(op.full_matrix, np.vstack([full[j::3] for j in range(3)]))
        assert not np.shares_memory(op.full_matrix, full)
        for i in range(op.n_blocks):
            assert np.shares_memory(op.blocks[i], op.full_matrix)
            assert np.shares_memory(obs.blocks[i], obs.concatenated)

    def test_observation_split_matches_operator(self):
        rng = np.random.Generator(np.random.Philox(key=4))
        full = rng.normal(size=(20, 7))
        y = rng.normal(size=20)
        op = partition_rows(full, 4)
        obs = ObservationSet.from_full(y, op)
        for i in range(op.n_blocks):
            assert np.array_equal(obs.blocks[i], y[i::4])
        # concatenated order matches the stacked full matrix
        x = rng.normal(size=7)
        assert np.allclose(op.apply_all(x) - obs.concatenated,
                           np.concatenate([op.apply(i, x) - obs.blocks[i] for i in range(4)]))


class TestIntegralOperator:
    def test_kernel_values(self):
        assert integral_kernel(0.25, 0.5) == pytest.approx(5.0, abs=1e-15)
        assert integral_kernel(0.5, 0.25) == pytest.approx(5.0, abs=1e-15)

    def test_kernel_symmetry(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(20):
            t, s = rng.random(2)
            assert integral_kernel(t, s) == pytest.approx(integral_kernel(s, t), rel=1e-14)

    def test_first_row_is_zero_at_t0(self):
        A = build_integral_operator(2)
        # t_0 = 0 makes kernel(0, s) = 0 for every column node
        assert A[0, 0] == 0.0
        assert np.all(A[0] == 0.0)

    def test_matches_direct_quadrature(self):
        n = 5
        A = build_integral_operator(n)
        for j in range(n):
            for k in range(n):
                t = j / n
                s = (2 * k + 1) / (2 * n)
                assert A[j, k] == pytest.approx(float(integral_kernel(t, s)) / n, rel=1e-15)

    def test_literal_column_mode_differs(self):
        A_mid = build_integral_operator(8, midpoint_columns=True)
        A_lit = build_integral_operator(8, midpoint_columns=False)
        assert not np.allclose(A_mid, A_lit)

    def test_small_n_rejected(self):
        with pytest.raises(ConfigurationError):
            build_integral_operator(1)

    @pytest.mark.parametrize("n", [2, 3, 40, 200, 1001])
    @pytest.mark.parametrize("midpoint", [True, False])
    def test_bytes_match_the_broadcast_kernel_formula(self, n, midpoint):
        t = np.arange(n, dtype=float) / n
        s = (2.0 * np.arange(n) + 1.0) / (2.0 * n if midpoint else n)
        formula = np.where(t[:, None] <= s[None, :], 40.0 * t[:, None] * (1.0 - s[None, :]),
                           40.0 * s[None, :] * (1.0 - t[:, None])) / n
        A = build_integral_operator(n, midpoint_columns=midpoint)
        assert A.tobytes() == formula.tobytes()


class TestExactSparseSignal:
    def test_plateau_values(self):
        n = 400
        x = exact_sparse_signal(n)
        s = (2 * np.arange(n) + 1) / (2 * n)
        mid = int(np.argmin(np.abs(s - 0.5)))
        low = int(np.argmin(np.abs(s - 0.1)))
        first = int(np.argmin(np.abs(s - 0.25)))
        assert x[mid] == 2.0
        assert x[low] == 0.0
        assert x[first] == 1.0

    def test_support_fraction(self):
        x = exact_sparse_signal(1000)
        # three plateaus of width 1/20 each
        assert np.isclose(np.mean(x != 0), 0.15, atol=0.01)

    def test_minimum_size(self):
        with pytest.raises(ConfigurationError):
            exact_sparse_signal(20)


def _chord_length_through_square(theta_deg, t, half):
    """Length of {x . n = t} inside [-half, half]^2 by dense segment sampling."""
    theta = math.radians(theta_deg)
    n = np.array([math.cos(theta), math.sin(theta)])
    d = np.array([-n[1], n[0]])
    s = np.linspace(-3 * half, 3 * half, 400001)
    pts = t * n[None, :] + s[:, None] * d[None, :]
    inside = np.all(np.abs(pts) <= half, axis=1)
    return float(np.sum(inside) * (s[1] - s[0]))


class TestRadon:
    def test_single_pixel_full_traversal(self):
        geom = RadonGeometry(grid_side=1, n_angles=1, angle_step=1.0, n_detectors=1, pixel_size=0.1)
        A = build_radon_operator(geom).toarray()
        assert A.shape == (1, 1)
        assert A[0, 0] == pytest.approx(0.1, rel=1e-12)

    def test_row_sums_equal_chord_lengths(self):
        geom = RadonGeometry(grid_side=12, n_angles=6, angle_step=30.0, n_detectors=9, pixel_size=0.25)
        A = build_radon_operator(geom).toarray()
        half = 12 * 0.25 / 2
        offsets = geom.detector_offsets()
        for a in range(geom.n_angles):
            for d in range(geom.n_detectors):
                row_sum = A[a * geom.n_detectors + d].sum()
                chord = _chord_length_through_square(a * geom.angle_step, offsets[d], half)
                assert row_sum == pytest.approx(chord, abs=half * 4e-5)

    def test_constant_image_projection_matches_chords(self):
        geom = RadonGeometry(grid_side=16, n_angles=4, angle_step=45.0, n_detectors=11, pixel_size=0.1)
        A = build_radon_operator(geom)
        c = 2.5
        sino = A @ np.full(16 * 16, c)
        half = 0.8
        offsets = geom.detector_offsets()
        for a in range(geom.n_angles):
            for d in range(geom.n_detectors):
                chord = _chord_length_through_square(a * geom.angle_step, offsets[d], half)
                assert sino[a * geom.n_detectors + d] == pytest.approx(c * chord, abs=c * half * 4e-5)

    def test_opposite_projections_are_mirror_images(self):
        from banach_sgd.operators import _trace_rays

        g = 16
        # even detector count keeps every ray off the pixel-edge lines
        geom = RadonGeometry(grid_side=g, n_angles=1, angle_step=1.0, n_detectors=20, pixel_size=0.1)
        rng = np.random.Generator(np.random.Philox(key=6))
        phantom = rng.random(g * g)  # asymmetric
        offsets = geom.detector_offsets()

        def project(angle):
            rays, pixels, lengths = _trace_rays(geom, angle, offsets)
            return np.bincount(rays, weights=lengths * phantom[pixels], minlength=offsets.size)

        p0, p180 = project(0.0), project(180.0)
        assert not np.allclose(p0, p180)  # detector order flips
        assert np.allclose(p0, p180[::-1], rtol=1e-10, atol=1e-12)

    def test_rays_missing_grid_give_zero_rows(self):
        geom = RadonGeometry(grid_side=4, n_angles=1, angle_step=1.0, n_detectors=15, pixel_size=0.1)
        A = build_radon_operator(geom).toarray()
        offsets = geom.detector_offsets()
        half = 0.2
        outside = np.abs(offsets) > half * math.sqrt(2)
        assert A.shape == (15, 16)
        for d in np.nonzero(outside)[0]:
            assert np.all(A[d] == 0.0)

    def test_coverage_validation(self):
        with pytest.raises(ConfigurationError):
            RadonGeometry(grid_side=4, n_angles=100, angle_step=2.0, n_detectors=5, pixel_size=0.1)


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# Criterion 10's geometry, and a small one whose corner detectors miss the grid.
CT_GEOMETRIES = {
    "criterion10": RadonGeometry(grid_side=64, n_angles=60, angle_step=3.0, n_detectors=95, pixel_size=0.1),
    "small": RadonGeometry(grid_side=16, n_angles=6, angle_step=30.0, n_detectors=23, pixel_size=0.1),
}


def _per_entry_csr(geom):
    """indptr, indices and data as the build first formed them: every entry's row a * n_detectors + ray,
    and indptr from the bincount of those rows."""
    offsets = geom.detector_offsets()
    rays, pixels, lengths = zip(*(_trace_rays(geom, theta, offsets) for theta in geom.angles_deg()))
    rows = np.concatenate([a * geom.n_detectors + ray for a, ray in enumerate(rays)])
    counts = np.bincount(rows, minlength=geom.n_angles * geom.n_detectors)
    return np.concatenate(([0], np.cumsum(counts))), np.concatenate(pixels), np.concatenate(lengths)


class TestRadonBuild:
    @pytest.mark.parametrize("geom", [
        CT_GEOMETRIES["criterion10"],
        CT_GEOMETRIES["small"],
        RadonGeometry(grid_side=16, n_angles=1, angle_step=1.0, n_detectors=20, pixel_size=0.1),
        RadonGeometry(grid_side=4, n_angles=1, angle_step=1.0, n_detectors=15, pixel_size=0.1),  # corner rays miss
    ], ids=["criterion10", "small", "one-angle", "missing-rays"])
    def test_per_angle_counts_give_the_per_entry_rows_bit_for_bit(self, geom):
        A = build_radon_operator(geom)
        for got, want in zip((A.indptr, A.indices, A.data), _per_entry_csr(geom)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_build_peaks_below_twice_the_matrix(self):
        # the per-entry form held each entry's row and a shifted copy beside it, and peaked at 3.0x
        tracemalloc.start()
        try:
            A = build_radon_operator(CT_GEOMETRIES["criterion10"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (A.indptr.nbytes + A.indices.nbytes + A.data.nbytes)


@st.composite
def _csr_and_vector(draw):
    """(indptr, indices, data, shape, x): rows of 0-4 entries, so empty rows fall
    anywhere, and a column may repeat within a row."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    counts = draw(st.lists(st.one_of(st.just(0), st.integers(1, 4)), min_size=m, max_size=m))
    nnz = sum(counts)
    cols = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    vals = draw(st.lists(st.floats(-1e3, 1e3), min_size=nnz, max_size=nnz))
    x = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    return np.concatenate(([0], np.cumsum(counts))), cols, vals, (m, n), np.array(x)


class TestCsrMatrix:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(case=_csr_and_vector(), cut=st.tuples(st.integers(0, 8), st.integers(0, 8)))
    @example(case=([0, 0, 0], [], [], (2, 3), np.array([1.0, -2.0, 3.0])), cut=(0, 2))  # no stored entries
    @example(case=([0, 3], [1, 1, 0], [1.0, 2.0, 4.0], (1, 2), np.array([1.0, 10.0])), cut=(0, 1))  # one row
    @example(case=([0, 0, 2, 2, 3, 3], [0, 2, 1], [1.0, -1.0, 5.0], (5, 3), np.array([2.0, 3.0, 4.0])),
             cut=(2, 5))  # leading, middle and trailing empty rows; a view that starts mid-data
    def test_forward_product_is_a_segment_sum(self, case, cut):
        indptr, cols, vals, shape, x = case
        A = CsrMatrix(indptr, cols, vals, shape)
        m = shape[0]
        out = A @ x
        # the bincount over a per-entry row index that A @ x used to run
        spread = np.bincount(np.repeat(np.arange(m), np.diff(indptr)), weights=A.data * x[A.indices], minlength=m)
        scale = np.abs(A.toarray()) @ np.abs(x)
        assert out.dtype == np.float64 and out.shape == (m,)
        assert np.all(np.abs(out - A.toarray() @ x) <= 1e-13 * scale)
        assert np.all(np.abs(out - spread) <= 1e-13 * scale)
        assert np.all(out[A.row_nnz == 0] == 0.0)
        a, b = min(cut[0], m - 1), min(max(cut), m)
        if a < b:
            view = A.rows(a, b)
            assert np.all(np.abs(view @ x - out[a:b]) <= 1e-13 * scale[a:b])
            assert np.all((view @ x)[view.row_nnz == 0] == 0.0)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(case=_csr_and_vector(), cut=st.tuples(st.integers(0, 8), st.integers(0, 8)), data=st.data())
    @example(case=([0, 0, 0], [], [], (2, 3), np.array([1.0, -2.0, 3.0])), cut=(0, 2), data=None)  # nothing stored
    @example(case=([0, 0, 2, 2, 3, 3], [0, 0, 1], [1.0, -0.0, 5.0], (5, 4), np.array([-0.0, 3.0, 4.0, 7.0])),
             cut=(2, 5), data=None)  # empty rows, a repeated column, empty columns 2 and 3, signed zeros
    def test_products_are_the_former_expressions_byte_for_byte(self, case, cut, data):
        # A @ x and A.T @ y form the per-entry products in place, as x[indices] * data and repeat(y) * data;
        # the former expressions formed data * x[indices] and data * repeat(y) in new arrays.
        indptr, cols, vals, shape, x = case
        A = CsrMatrix(indptr, cols, vals, shape)
        m = shape[0]
        a, b = min(cut[0], m - 1), min(max(cut), m)
        order = [m - 1, 0, m // 2] if data is None else data.draw(st.lists(st.integers(0, m - 1), max_size=10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for M in (A, A.rows(a, b), A.take(order)):
                y = np.linspace(-2.0, 3.0, M.shape[0]) if data is None else \
                    np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=M.shape[0], max_size=M.shape[0])))
                forward = np.zeros(M.shape[0])
                forward[M.filled] = np.add.reduceat(M.data * x[M.indices], M.indptr[M.filled])
                adjoint = np.bincount(M.indices, weights=M.data * np.repeat(y, M.row_nnz), minlength=M.shape[1])
                assert (M @ x).tobytes() == forward.tobytes()
                assert (M.T @ y).tobytes() == adjoint.tobytes()

    def test_block_views_hold_no_per_entry_array_of_their_own(self):
        op = partition_rows(build_radon_operator(CT_GEOMETRIES["criterion10"]), 60)
        parent = op.full_matrix
        for view in op.blocks:
            per_entry = [v for v in vars(view).values()
                         if isinstance(v, np.ndarray) and v.shape == view.data.shape]
            assert per_entry and all(np.shares_memory(v, parent.data) or np.shares_memory(v, parent.indices) for v in per_entry)

    def _ragged(self):
        # rows 1, 3 and 5 are empty, the last one included
        dense = np.array([[0.0, 1.5, 0.0, 2.0],
                          [0.0, 0.0, 0.0, 0.0],
                          [3.0, 0.0, 0.0, -1.0],
                          [0.0, 0.0, 0.0, 0.0],
                          [0.5, 0.25, 4.0, 0.0],
                          [0.0, 0.0, 0.0, 0.0]])
        rows, cols = np.nonzero(dense)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=6))))
        return dense, CsrMatrix(indptr, cols, dense[rows, cols], dense.shape)

    def test_products_with_empty_rows(self):
        dense, A = self._ragged()
        rng = np.random.Generator(np.random.Philox(key=30))
        x = rng.normal(size=4)
        y = rng.normal(size=6)
        assert np.array_equal(A.toarray(), dense)
        assert np.allclose(A @ x, dense @ x, rtol=1e-15, atol=0)
        assert np.allclose(A.T @ y, dense.T @ y, rtol=1e-15, atol=0)
        assert np.all((A @ x)[[1, 3, 5]] == 0.0)
        assert A.T.shape == (4, 6)

    def test_rows_and_take(self):
        dense, A = self._ragged()
        view = A.rows(2, 5)
        assert np.array_equal(view.toarray(), dense[2:5])
        assert np.shares_memory(view.data, A.data) and np.shares_memory(view.indices, A.indices)
        order = [4, 1, 0, 5, 2]
        assert np.array_equal(A.take(order).toarray(), dense[order])

    def test_duplicate_columns_add_up(self):
        A = CsrMatrix([0, 3], [1, 1, 0], [1.0, 2.0, 4.0], (1, 2))
        assert np.array_equal(A.toarray(), [[4.0, 3.0]])
        assert np.array_equal(A @ np.array([1.0, 10.0]), [34.0])

    def test_invalid_structure_rejected(self):
        with pytest.raises(DimensionMismatchError):
            CsrMatrix([0, 1], [0], [1.0], (2, 2))  # indptr too short
        with pytest.raises(DimensionMismatchError):
            CsrMatrix([0, 2], [0], [1.0], (1, 2))  # indptr runs past the data
        with pytest.raises(DimensionMismatchError):
            CsrMatrix([0, 1], [2], [1.0], (1, 2))  # column out of range
        _, A = self._ragged()
        with pytest.raises(DimensionMismatchError):
            A @ np.ones(5)
        with pytest.raises(DimensionMismatchError):
            A.T @ np.ones(4)

    @pytest.mark.parametrize("select", [lambda A: A.rows(0, 5), lambda A: A.rows(2, 1), lambda A: A.rows(-1, 2),
                                        lambda A: A.rows(0.5, 2), lambda A: A.take([3]), lambda A: A.take([-1]),
                                        lambda A: A.take([1.7]), lambda A: A.take([[0, 1]])],
                             ids=["rows-past-the-end", "rows-reversed", "rows-negative", "rows-float", "take-past-the-end",
                                  "take-negative", "take-float", "take-2-D"])
    def test_row_selection_outside_the_matrix_is_a_typed_error(self, select):
        A = CsrMatrix([0, 1, 2], [0, 1], [1.0, 2.0], (2, 2))
        with pytest.raises(DimensionMismatchError, match=r"\[0, 2\)"):
            select(A)
        assert A.rows(1, 1).shape == (0, 2) and A.take([]).shape == (0, 2)

    def test_zero_matrix_norm_is_zero(self):
        A = CsrMatrix([0, 0, 0], [], [], (2, 3))
        assert not A.any()
        est = boyd_operator_norm(A, 1.5, 2.0)
        assert est.value == 0.0 and est.converged

    def test_row_less_block_rejected(self):
        _, A = self._ragged()
        with pytest.raises(DimensionMismatchError):
            BlockOperator(A, block_sizes=[6, 0])  # a block without rows

    def test_ragged_blocks_are_row_views(self):
        dense, A = self._ragged()
        op = BlockOperator(A, block_sizes=[2, 1, 3])
        assert op.full_matrix is A and op.block_starts.tolist() == [0, 2, 3]
        for block, (a, b) in zip(op.blocks, [(0, 2), (2, 3), (3, 6)]):
            assert np.array_equal(block.toarray(), dense[a:b])
            assert np.shares_memory(block.data, A.data) and np.shares_memory(block.indices, A.indices)

    def test_non_finite_block_rejected(self):
        with pytest.raises(InvalidInputError):
            BlockOperator(CsrMatrix([0, 1], [0], [np.nan], (1, 2)))

    @pytest.mark.parametrize("name", sorted(CT_GEOMETRIES))
    def test_operator_products_match_dense(self, name):
        geom = CT_GEOMETRIES[name]
        A = build_radon_operator(geom)
        D = A.toarray()
        assert isinstance(A, CsrMatrix) and A.data.size == np.count_nonzero(D)
        n_batches = geom.n_angles
        op = partition_rows(A, n_batches, SpaceDescriptor(1.1, 2.0))
        dense = partition_rows(D, n_batches, SpaceDescriptor(1.1, 2.0))
        rng = np.random.Generator(np.random.Philox(key=31))
        x = rng.normal(size=A.shape[1])
        y = rng.normal(size=A.shape[0])
        assert _rel(A @ x, D @ x) <= 1e-12
        assert _rel(A.T @ y, D.T @ y) <= 1e-12
        assert np.array_equal(op.full_matrix.toarray(), dense.full_matrix)
        assert _rel(op.apply_all(x), dense.apply_all(x)) <= 1e-12
        z = y[: op.total_rows]
        assert _rel(op.full_matrix.T @ z, dense.full_matrix.T @ z) <= 1e-12
        for i in range(op.n_blocks):
            u = rng.normal(size=op.blocks[i].shape[0])
            assert _rel(op.apply(i, x), dense.apply(i, x)) <= 1e-12
            assert _rel(op.apply_adjoint(i, u), dense.apply_adjoint(i, u)) <= 1e-12
            assert np.shares_memory(op.blocks[i].data, op.full_matrix.data)
            assert np.shares_memory(op.blocks[i].indices, op.full_matrix.indices)
        # rays that miss the grid: empty rows whose products are exactly zero
        empty = A.row_nnz == 0
        assert empty.any() and not D[empty].any()
        assert np.all((A @ x)[empty] == 0.0)
        for b in (0, n_batches - 1):
            sparse_est = boyd_operator_norm(op.blocks[b], 1.1, 1.1, tol=1e-8, max_iter=200, restarts=2)
            dense_est = boyd_operator_norm(dense.blocks[b], 1.1, 1.1, tol=1e-8, max_iter=200, restarts=2)
            assert sparse_est.value == pytest.approx(dense_est.value, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(CT_GEOMETRIES))
    def test_partition_stores_the_stacked_interleaved_blocks(self, name):
        # the reference builds each interleaved block on its own and stacks them
        A = build_radon_operator(CT_GEOMETRIES[name])
        nb = CT_GEOMETRIES[name].n_angles
        blocks = [A.take(np.arange(j, A.shape[0], nb)) for j in range(nb)]
        stacked = partition_rows(A, nb).full_matrix
        assert np.array_equal(stacked.indptr, np.concatenate(([0], np.cumsum(np.concatenate([b.row_nnz for b in blocks])))))
        assert stacked.indices.tobytes() == np.concatenate([b.indices for b in blocks]).tobytes()
        assert stacked.data.tobytes() == np.concatenate([b.data for b in blocks]).tobytes()
        D = A.toarray()
        assert partition_rows(D, nb).full_matrix.tobytes() == np.concatenate([D[j::nb] for j in range(nb)]).tobytes()

    def test_large_grid_is_built_without_a_dense_matrix(self):
        import tracemalloc

        geom = RadonGeometry(grid_side=128, n_angles=60, angle_step=3.0, n_detectors=181, pixel_size=0.1)
        tracemalloc.start()
        try:
            op = partition_rows(build_radon_operator(geom), 60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.full_matrix.shape == (60 * 181, 128 ** 2)  # 1.4 GB if it were dense
        assert peak < 200e6


class TestPhantom:
    def test_background_is_zero(self):
        img = sparse_disk_phantom(64).reshape(64, 64)
        assert img[0, 0] == 0.0
        assert img[63, 63] == 0.0

    def test_disk_centres_carry_intensity(self):
        g = 64
        img = sparse_disk_phantom(g).reshape(g, g)
        from banach_sgd.operators import _PHANTOM_DISKS

        for cx, cy, _, val in _PHANTOM_DISKS:
            assert img[int(cy * g), int(cx * g)] == val

    def test_sparsity_fraction(self):
        x = sparse_disk_phantom(64)
        assert np.mean(x == 0) >= 0.85

    def test_minimum_grid(self):
        with pytest.raises(ConfigurationError):
            sparse_disk_phantom(8)


def _norm_ratio_oracle(A, rx, ry, starts=40, seed=0):
    """Multi-start maximisation of ||A x||_ry / ||x||_rx."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    best = 0.0
    for _ in range(starts):
        x0 = rng.normal(size=A.shape[1])

        def neg_ratio(x):
            nx = np.sum(np.abs(x) ** rx) ** (1.0 / rx)
            if nx < 1e-12:
                return 0.0
            ny = np.sum(np.abs(A @ x) ** ry) ** (1.0 / ry)
            return -ny / nx

        res = optimize.minimize(neg_ratio, x0, method="Nelder-Mead",
                                options={"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-12})
        best = max(best, -res.fun)
    return best


# Entries of both signs from 0 and the smallest subnormal up to near the largest float, and Boyd's exponents.
_BOYD_ENTRY = st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]), st.sampled_from(
    [0.0, 5e-324, 1e-310, 1e-200, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e200, 1e300, 1.7e308]))
_BOYD_EXPONENTS = [1.1, 1.5, 2.0, 3.0, 11.0]


class TestBoydNorm:
    def test_diagonal(self):
        est = boyd_operator_norm(np.diag([3.0, 1.0]), 2, 2, tol=1e-12)
        assert est.value == pytest.approx(3.0, abs=1e-8)
        assert est.converged

    def test_row_vector(self):
        est = boyd_operator_norm(np.array([[1.0, 1.0]]), 2, 2, tol=1e-12)
        assert est.value == pytest.approx(math.sqrt(2.0), abs=1e-8)

    def test_matches_svd_on_random_matrices(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        for _ in range(20):
            A = rng.normal(size=(8, 6))
            est = boyd_operator_norm(A, 2, 2, tol=1e-13, max_iter=20000)
            assert est.value == pytest.approx(np.linalg.svd(A, compute_uv=False)[0], abs=1e-8)

    def test_mixed_exponents_against_multistart_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=8))
        for rx, ry in [(1.5, 2.0), (2.0, 1.5), (1.2, 3.0)]:
            A = rng.normal(size=(5, 4))
            est = boyd_operator_norm(A, rx, ry, tol=1e-12, max_iter=5000)
            oracle = _norm_ratio_oracle(A, rx, ry, starts=30, seed=9)
            assert est.value == pytest.approx(oracle, rel=0.01)

    def test_estimates_monotone_non_decreasing(self):
        rng = np.random.Generator(np.random.Philox(key=10))
        A = rng.normal(size=(7, 5))
        est = boyd_operator_norm(A, 1.5, 2.5, tol=1e-14, max_iter=500)
        hist = np.asarray(est.history)
        assert np.all(np.diff(hist) >= -1e-12)

    def test_zero_matrix(self):
        est = boyd_operator_norm(np.zeros((3, 3)), 2, 2)
        assert est.value == 0.0 and est.converged

    def test_non_convergence_flag(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        A = rng.normal(size=(6, 6))
        est = boyd_operator_norm(A, 2, 2, tol=0.0, max_iter=3)
        assert not est.converged and est.iterations == 3

    @pytest.mark.parametrize("problem", ["ct", "integral"])
    def test_normalising_from_the_powers_keeps_the_first_formula(self, problem):
        # Criterion 10's l^1.1 CT arm and criterion 4's integral problem, at the CLI's norm settings:
        # the start policy's 1 and 8 starts, each run serially with the first formula.
        if problem == "ct":
            op, rx, starts = partition_rows(build_radon_operator(RadonGeometry(64, 60, 3.0, 95, 0.1)), 60,
                                            SpaceDescriptor(1.1, 2.0)), 1.1, 1
        else:
            op, rx, starts = partition_rows(build_integral_operator(200), 20), 1.5, 8
        new = block_norms(op, rx, tol=1e-8, max_iter=500, restarts=8)
        old = [_multistart_reference(b, rx, op.output_space.r, 1e-8, 500, starts, _boyd_single_start_oracle)
               for b in op.blocks]
        assert [e.iterations for e in new] == [e.iterations for e in old]
        assert [e.starts for e in new] == [e.starts for e in old]
        for n, o in zip(new, old):
            assert abs(n.value - o.value) <= 1e-13 * o.value

    @pytest.mark.parametrize("sparse", [False, True])
    def test_overflowing_product_is_the_typed_error_alone(self, sparse):
        # A @ x overflows on the first iteration; numpy's warning must not escape before the screen's error.
        dense = np.array([[1e300, 1e300], [1e300, 1.0]])
        A = CsrMatrix([0, 2, 4], [0, 1, 0, 1], dense.ravel(), (2, 2)) if sparse else dense
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="non-finite"):
                boyd_operator_norm(A, 1.5, 1.5)

    @pytest.mark.parametrize("settings", [{"max_iter": 0}, {"tol": np.nan}, {"tol": -1e-8}, {"restarts": 0},
                                          {"max_iter": 1.5}, {"restarts": 1.5}])
    def test_iteration_settings_checked(self, settings):
        with pytest.raises(ConfigurationError):
            boyd_operator_norm(np.diag([3.0, 1.0]), 2, 2, **settings)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_non_finite_matrix_rejected_before_the_first_iteration(self, sparse, bad, monkeypatch):
        def no_iteration(*args):
            raise AssertionError("iterated on a non-finite matrix")

        monkeypatch.setattr(operators, "_boyd_starts", no_iteration)
        dense = np.array([[1.0, 2.0], [bad, -1.0]])
        A = CsrMatrix([0, 2, 4], [0, 1, 0, 1], dense.ravel(), (2, 2)) if sparse else dense
        with pytest.raises(InvalidInputError, match="^operator matrix contains non-finite entries"):
            boyd_operator_norm(A, 1.5, 2.0)

    @settings(derandomize=True, deadline=None, max_examples=1000)
    @given(shape=st.tuples(st.integers(1, 3), st.integers(1, 3)), data=st.data(), sparse=st.booleans(),
           rx=st.sampled_from(_BOYD_EXPONENTS), ry=st.sampled_from(_BOYD_EXPONENTS))
    def test_extreme_magnitudes_give_a_typed_error_or_a_finite_estimate(self, shape, data, sparse, rx, ry):
        dense = np.reshape(data.draw(st.lists(_BOYD_ENTRY, min_size=shape[0] * shape[1],
                                              max_size=shape[0] * shape[1])), shape)
        rows, cols = np.nonzero(dense)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
        A = CsrMatrix(indptr, cols, dense[rows, cols], shape) if sparse else dense
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                est = boyd_operator_norm(A, rx, ry)
            except (ConfigurationError, InvalidInputError, DimensionMismatchError):
                return
        assert math.isfinite(est.value) and all(map(math.isfinite, est.history))


def _boyd_single_start_oracle(A, rx, ry, tol, max_iter, x0):
    """One start as first written: x = J_dual(z) / ||J_dual(z)||_rx through duality_map and lr_norm."""
    y_desc = SpaceDescriptor(ry, ry)
    rx_conj = rx / (rx - 1.0)
    dual_desc = SpaceDescriptor(rx_conj, rx_conj)
    x = x0 / lr_norm(x0, rx)
    prev = -math.inf
    history = []
    estimate = 0.0
    for it in range(1, max_iter + 1):
        y = A @ x
        estimate = lr_norm(y, ry)
        history.append(estimate)
        if estimate == 0.0:
            return operators.NormEstimate(0.0, True, it, tuple(history))
        z = A.T @ duality_map(y, y_desc)
        xn = duality_map(z, dual_desc)
        nxn = lr_norm(xn, rx)
        if nxn == 0.0:
            return operators.NormEstimate(estimate, True, it, tuple(history))
        x = xn / nxn
        if abs(estimate - prev) < tol:
            return operators.NormEstimate(estimate, True, it, tuple(history))
        prev = estimate
    return operators.NormEstimate(estimate, False, max_iter, tuple(history))


def _boyd_single_start(A, rx, ry, tol, max_iter, x0) -> NormEstimate:
    """One start run alone: the serial kernel that the batched one replaced, kept as its reference."""
    y_desc = SpaceDescriptor(ry, ry)
    rx_conj = rx / (rx - 1.0)
    x = x0 / lr_norm(x0, rx)
    prev = -math.inf
    history = []
    estimate = 0.0
    for it in range(1, max_iter + 1):
        y = A @ x
        estimate = lr_norm(y, ry)
        history.append(estimate)
        if estimate == 0.0:
            return NormEstimate(0.0, True, it, tuple(history))
        z = A.T @ duality_map(y, y_desc)
        # J_dual(z) / ||J_dual(z)||_rx is b / s^(1/rx), as ||b||_rx^rx = sum a^(rx*) = s; max|z| cancels.
        b, s, m = _powers(z, rx_conj)
        if m == 0.0:
            return NormEstimate(estimate, True, it, tuple(history))
        x = b / s ** (1.0 / rx)
        if abs(estimate - prev) < tol:
            return NormEstimate(estimate, True, it, tuple(history))
        prev = estimate
    return NormEstimate(estimate, False, max_iter, tuple(history))


def _boyd_starts_drawn(n, restarts):
    """The starts boyd_operator_norm draws, in order: the first positive, the rest sign-random."""
    rng = np.random.Generator(np.random.Philox(key=0))
    starts = []
    for s in range(restarts):
        x0 = rng.random(n) + 0.1
        if s > 0:
            x0 *= rng.choice([-1.0, 1.0], size=n)
        starts.append(x0)
    return starts


def _multistart_reference(A, rx, ry, tol, max_iter, restarts=8, single_start=_boyd_single_start):
    """The estimate of `restarts` starts, each run alone, as every matrix ran them; the first largest wins."""
    best = None
    for x0 in _boyd_starts_drawn(A.shape[1], restarts):
        cand = single_start(A, rx, ry, tol, max_iter, x0)
        if best is None or cand.value > best.value:
            best = cand
    return replace(best, starts=restarts)


class TestBoydStartPolicy:
    """One positive start for a nonnegative matrix with rx >= ry; `restarts` starts otherwise."""

    @pytest.mark.parametrize("rx,ry", [(1.1, 1.1), (2.0, 2.0), (2.0, 1.1)])
    def test_ct_blocks_one_start_matches_eight(self, rx, ry):
        op = partition_rows(build_radon_operator(CT_GEOMETRIES["small"]), 6)
        for block in op.blocks:
            est = boyd_operator_norm(block, rx, ry, tol=1e-13, max_iter=20000)
            ref = _multistart_reference(block, rx, ry, 1e-13, 20000)
            assert est.starts == 1 and est.converged
            assert abs(est.value - ref.value) <= 1e-9 * ref.value

    @pytest.mark.parametrize("rx,ry", [(2.0, 2.0), (3.0, 2.0)])
    def test_integral_blocks_one_start_matches_eight(self, rx, ry):
        op = partition_rows(build_integral_operator(200), 20)
        for block in op.blocks:
            est = boyd_operator_norm(block, rx, ry, tol=1e-13, max_iter=20000)
            ref = _multistart_reference(block, rx, ry, 1e-13, 20000)
            assert est.starts == 1 and est.converged
            assert abs(est.value - ref.value) <= 1e-9 * ref.value

    def test_one_start_is_the_positive_start(self):
        A = build_integral_operator(100)[::10]
        est = boyd_operator_norm(A, 2.0, 2.0, tol=1e-8, max_iter=500)
        first = _multistart_reference(A, 2.0, 2.0, 1e-8, 500, restarts=1)
        assert (est.value, est.iterations, est.history) == (first.value, first.iterations, first.history)

    @pytest.mark.parametrize("A,rx,ry", [
        (np.random.Generator(np.random.Philox(key=13)).normal(size=(8, 6)), 2.0, 2.0),
        (build_integral_operator(60, midpoint_columns=False)[::6], 2.0, 2.0),
        (build_integral_operator(60)[::6], 1.5, 2.0),
        (CsrMatrix([0, 2, 3], [0, 1, 1], [1.0, 2.0, 3.0], (2, 2)), 1.2, 3.0),
    ])
    @pytest.mark.parametrize("restarts", [1, 3, 8])
    def test_other_matrices_keep_their_restarts(self, A, rx, ry, restarts):
        est = boyd_operator_norm(A, rx, ry, tol=1e-10, max_iter=300, restarts=restarts)
        ref = _multistart_reference(A, rx, ry, 1e-10, 300, restarts)
        assert est.starts == restarts
        assert (est.value, est.iterations, est.history) == (ref.value, ref.iterations, ref.history)

    def test_block_norms_calls_the_estimate_once_per_block(self, monkeypatch):
        op = partition_rows(build_integral_operator(100), 10)
        calls = []
        estimate = operators.boyd_operator_norm
        monkeypatch.setattr(operators, "boyd_operator_norm", lambda *a, **k: calls.append(a) or estimate(*a, **k))
        estimates = block_norms(op, 2.0, tol=1e-10)
        assert len(calls) == len(estimates) == op.n_blocks
        assert max_block_norm(op, 2.0, tol=1e-10) == max(e.value for e in estimates)


class TestBatchedStarts:
    """boyd_operator_norm runs its starts as the rows of one batch; each row must equal its start run alone."""

    # Columns 0-1 carry the norm; column 2 holds only 1e-200, so a start along it has a
    # positive estimate and a dual vector A^T J(Ax) that underflows to zero; column 3 is
    # empty, so a start along it has a zero estimate.
    EDGE = np.array([[2.0, 1.0, 0.0, 0.0], [1.0, -3.0, 0.0, 0.0], [0.0, 0.0, 1e-200, 0.0]])
    EDGE_STARTS = np.array([[0.3, 0.9, 0.2, 0.1], [0.0, 0.0, 1.0, 0.0], [-0.7, 0.2, 0.0, 0.0],
                            [0.0, 0.0, 0.0, 2.0], [1.0, 1.0, 1.0, 1.0], [0.5, -0.4, 0.0, 3.0]])

    @staticmethod
    def _csr(M):
        rows, cols = np.nonzero(M)
        return CsrMatrix(np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=M.shape[0])))),
                         cols, M[rows, cols], M.shape)

    @staticmethod
    def _assert_rows_are_serial_starts(A, rx, ry, tol, max_iter, X):
        serial = [_boyd_single_start(A, rx, ry, tol, max_iter, x0) for x0 in X]
        assert operators._boyd_starts(A, rx, ry, tol, max_iter, np.array(X)) == serial
        return serial

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("rx,ry,max_iter", [(1.5, 2.0, 10), (1.2, 3.0, 7), (3.0, 2.0, 20)])
    def test_rows_that_stop_apart_equal_their_serial_starts(self, sparse, rx, ry, max_iter):
        A = self._csr(self.EDGE) if sparse else self.EDGE
        serial = self._assert_rows_are_serial_starts(A, rx, ry, 1e-13, max_iter, self.EDGE_STARTS)
        # Rows 3 and 1 stop at once, on a zero estimate and a zero dual vector; of the
        # rest, one runs out of iterations and one converges before the last.
        assert [(e.value == 0.0, e.converged, e.iterations) for e in serial[1:4:2]] == [(False, True, 1), (True, True, 1)]
        assert any(not e.converged and e.iterations == max_iter for e in serial)
        assert any(e.converged and 1 < e.iterations < max_iter for e in serial)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("rx,ry", [(1.5, 2.0), (2.0, 1.5), (1.2, 3.0), (2.0, 2.0)])
    def test_eight_mixed_sign_starts_equal_their_serial_starts(self, sparse, rx, ry):
        M = np.random.Generator(np.random.Philox(key=21)).normal(size=(12, 40))
        M[np.abs(M) < 0.6] = 0.0
        A = self._csr(M) if sparse else M
        for tol, max_iter in ((1e-12, 300), (0.0, 6)):
            serial = self._assert_rows_are_serial_starts(A, rx, ry, tol, max_iter, _boyd_starts_drawn(40, 8))
            best = boyd_operator_norm(A, rx, ry, tol=tol, max_iter=max_iter)
            assert best == replace(max(serial, key=lambda e: e.value), starts=8)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("rx", [1.1, 1.5, 3.0])
    def test_the_update_takes_the_former_sign_products_and_keeps_signed_zeros(self, sparse, rx, monkeypatch):
        # The update took J_dual(z)'s signs as magnitude * np.sign(z), which sends -0.0 to +0.0, and now takes
        # them with np.copysign.  Every dual vector z reaches it with its zeros as -0.0, which no product of A
        # gives.  Each next start must be the former b * sign(z) / s^(1/rx), from _powers(|z|), wherever z_j is
        # not ±0, and -0.0 where z_j is.
        M = np.random.Generator(np.random.Philox(key=29)).normal(size=(6, 9))
        M[:, [2, 7]] = 0.0  # two empty columns, so every z has zeros
        products, duals, starts = operators._row_products, [], []

        def spy(A, X, adjoint=False):
            out = products(A, X, adjoint)
            if adjoint:
                out[out == 0.0] = -0.0
                duals.append(out.copy())
            else:
                starts.append(X.copy())
            return out

        monkeypatch.setattr(operators, "_row_products", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            operators._boyd_starts(self._csr(M) if sparse else M, rx, 2.0, 0.0, 4, operators._boyd_start_matrix(9, 3))
        assert len(duals) == len(starts) == 4
        for Z, X in zip(duals, starts[1:]):
            zero = Z == 0.0
            for z, x, z0 in zip(Z, X, zero):
                b, s, _ = _powers(np.abs(z), rx / (rx - 1.0))
                former = b * np.sign(z) / s ** (1.0 / rx)
                assert z0.sum() == 2 and (x.view(np.int64) == former.view(np.int64))[~z0].all()
                assert np.signbit(x[z0]).all() and not x[z0].any()


class TestSharedStarts:
    """The start matrix is drawn once per (columns, starts) and shared, read-only, by every block and call."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        operators._boyd_start_matrix.cache_clear()
        yield
        operators._boyd_start_matrix.cache_clear()

    @pytest.mark.parametrize("n,starts", [(40, 8), (200, 8), (4096, 1)])
    def test_cached_starts_are_the_drawn_starts_and_read_only(self, n, starts):
        X = operators._boyd_start_matrix(n, starts)
        assert X.tobytes() == np.array(_boyd_starts_drawn(n, starts)).tobytes()
        assert operators._boyd_start_matrix(n, starts) is X
        with pytest.raises(ValueError, match="read-only"):
            X[0, 0] = 1.0

    def test_block_norms_draws_the_starts_once(self, monkeypatch):
        op = partition_rows(build_integral_operator(200), 20)
        keys = []
        draw = operators.generator
        monkeypatch.setattr(operators, "generator", lambda key: keys.append(key) or draw(key))
        estimates = block_norms(op, 1.5, tol=1e-8, max_iter=500, restarts=8)
        assert keys == [0] and [e.starts for e in estimates] == [8] * 20
        block_norms(op, 1.5, tol=1e-8, max_iter=500, restarts=8)
        assert keys == [0]

    @pytest.mark.parametrize("problem", ["ct", "integral"])
    def test_each_block_equals_its_serial_starts(self, problem):
        # The CLI's norm settings on criterion 10's CT blocks (one start each) and the integral preset (eight).
        if problem == "ct":
            op, rx = partition_rows(build_radon_operator(CT_GEOMETRIES["criterion10"]), 60,
                                    SpaceDescriptor(1.1, 2.0)), 1.1
        else:
            op, rx = partition_rows(build_integral_operator(200), 20), 1.5
        estimates = block_norms(op, rx, tol=1e-8, max_iter=500, restarts=8)
        assert estimates == [_multistart_reference(b, rx, op.output_space.r, 1e-8, 500, e.starts)
                             for b, e in zip(op.blocks, estimates)]
        assert {e.starts for e in estimates} == ({1} if problem == "ct" else {8})


class TestBlockBalance:
    def test_integral_operator_blocks_are_balanced(self):
        A = build_integral_operator(200)
        op = partition_rows(A, 20, SpaceDescriptor.hilbert())
        norms = [boyd_operator_norm(b, 2, 2, tol=1e-12).value for b in op.blocks]
        assert max(norms) / min(norms) < 1.1
        assert max_block_norm(op, 2.0, tol=1e-12) == pytest.approx(max(norms), rel=1e-9)


class TestCsvRoundTrip:
    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=12))
        M = rng.normal(size=(5, 3))
        path = tmp_path / "m.csv"
        save_matrix_csv(path, M)
        back = load_matrix_csv(path)
        assert np.array_equal(back, M)

    def test_header_line_then_rows(self, tmp_path):
        path = tmp_path / "h.csv"
        save_matrix_csv(path, np.array([[0.1, 2.0], [3.0, np.nan]]), "a,b")
        assert path.read_text() == "a,b\n0.10000000000000001,2\n3,nan\n"

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,not_a_number\n")
        with pytest.raises(ValueError):
            load_matrix_csv(path)
