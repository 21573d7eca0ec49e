import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banach_sgd import (
    BlockOperator,
    ConfigurationError,
    ConstantSchedule,
    ConstantsConfig,
    ConvergenceRecord,
    CsrMatrix,
    InvalidInputError,
    ObservationSet,
    RadonGeometry,
    SlowDecaySchedule,
    SolverConfig,
    SpaceDescriptor,
    boyd_operator_norm,
    build_integral_operator,
    delta_metrics,
    estimate_constants,
    exact_sparse_signal,
    iterate_n,
    lr_norm,
    minimum_norm_solution,
    monte_carlo_mean,
    objective,
    partition_rows,
    polyak_bound,
    rate_envelope,
    run_seeds,
    sparse_disk_phantom,
    stability_probe,
    stochastic_gradient,
    support_f1,
    theoretical_max_step,
    with_seed,
)
from banach_sgd.diagnostics import CSV_HEADER, ensemble_stats

HILBERT = SpaceDescriptor.hilbert()


class TestObjective:
    def test_zero_at_solution(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        A = rng.normal(size=(8, 4))
        x = rng.normal(size=4)
        op = partition_rows(A, 2, HILBERT)
        obs = ObservationSet.from_full(A @ x, op)
        assert objective(x, op, obs, 2.0) == pytest.approx(0.0, abs=1e-25)

    def test_identity_block_example(self):
        op = BlockOperator(np.eye(2), HILBERT)
        obs = ObservationSet([np.zeros(2)])
        assert objective(np.array([1.0, 1.0]), op, obs, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_overflow_is_a_typed_error(self):
        # the residual and its norm are finite; only the objective's power overflows
        op = BlockOperator(np.eye(1), HILBERT)
        obs = ObservationSet([np.zeros(1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="objective"):
                objective(np.array([1e200]), op, obs, 2.0)

    def test_matches_per_row_loop_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=2))
        A = rng.normal(size=(12, 5))
        x = rng.normal(size=5)
        y = rng.normal(size=12)
        for exponent, ry in [(2.0, 2.0), (1.5, 1.5), (2.0, 3.0)]:
            op = partition_rows(A, 3, SpaceDescriptor(ry, 2.0))
            obs = ObservationSet.from_full(y, op)
            total = 0.0
            for i in range(3):
                r = A[i::3] @ x - y[i::3]
                total += (np.sum(np.abs(r) ** ry) ** (1 / ry)) ** exponent / exponent
            assert objective(x, op, obs, exponent) == pytest.approx(total / 3, rel=1e-12)

    @pytest.mark.parametrize("ry,exponent", [(2.0, 2.0), (1.1, 1.1), (3.0, 1.5), (50.0, 2.0)])
    def test_unequal_blocks_match_per_block_lr_norm_oracle(self, ry, exponent):
        rng = np.random.Generator(np.random.Philox(key=4))
        blocks = [rng.normal(size=(m, 5)) for m in (1, 7, 3, 12)]
        op = BlockOperator(np.vstack(blocks), SpaceDescriptor(ry, 2.0), [len(b) for b in blocks])
        x = rng.normal(size=5)
        data = [rng.normal(size=b.shape[0]) for b in blocks]
        data[2] = blocks[2] @ x  # one block with zero residual
        obs = ObservationSet(data)
        oracle = sum(lr_norm(b @ x - y, ry) ** exponent / exponent
                     for b, y in zip(blocks, obs.blocks)) / len(blocks)
        assert objective(x, op, obs, exponent) == pytest.approx(oracle, rel=1e-12)

    def test_full_residual_lower_bound_hilbert(self):
        # Psi(x) >= (C_N / p) ||Ax - y||^p with C_N = 1/N, exact for r = 2
        rng = np.random.Generator(np.random.Philox(key=3))
        A = rng.normal(size=(12, 5))
        x = rng.normal(size=5)
        y = rng.normal(size=12)
        for nb in (2, 3, 4, 6):
            op = partition_rows(A, nb, HILBERT)
            obs = ObservationSet.from_full(y, op)
            lhs = objective(x, op, obs, 2.0)
            rhs = (1.0 / nb) / 2.0 * lr_norm(A @ x - y, 2.0) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDeltaMetrics:
    def test_exact_recovery(self):
        x = np.array([1.0, 0.0, 2.0])
        assert delta_metrics(x, x) == (0.0, 0.0)

    def test_zero_reconstruction(self):
        x = np.array([1.0, -2.0, 0.5])
        d1, d2 = delta_metrics(np.zeros(3), x)
        assert d1 == pytest.approx(1.0) and d2 == pytest.approx(1.0)

    def test_doubled_reconstruction(self):
        x = np.array([1.0, -2.0, 0.5])
        d1, d2 = delta_metrics(2 * x, x)
        assert d1 == pytest.approx(1.0) and d2 == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(InvalidInputError):
            delta_metrics(np.ones(3), np.zeros(3))

    def test_scale_consistency(self):
        rng = np.random.Generator(np.random.Philox(key=4))
        x = rng.normal(size=20)
        e = rng.normal(size=20)
        d1a, d2a = delta_metrics(x + 1e-3 * e, x)
        d1b, d2b = delta_metrics(x + 1e-4 * e, x)
        assert d1a / d1b == pytest.approx(10.0, rel=1e-9)
        assert d2a / d2b == pytest.approx(10.0, rel=1e-9)

    def test_in_range_errors_keep_the_plain_sums_bit_for_bit(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        for scale in (1e-100, 1e-3, 1.0, 1e3, 1e100):
            x, x_true = rng.normal(size=(2, 50)) * scale
            d = x_true - x
            assert delta_metrics(x, x_true) == (np.sum(np.abs(d)) / np.sum(np.abs(x_true)),
                                               np.sqrt(np.sum(d * d)) / np.sqrt(np.sum(x_true * x_true)))

    @pytest.mark.parametrize("x,x_true,expected", [
        (np.full(8, 1e300), np.full(8, -1e300), 2.0),  # the sums of squares overflow
        (np.ones(8), np.full(8, 1e-300), 1e300),  # the reference's sum of squares underflows to 0
    ], ids=["overflow", "underflow"])
    def test_sums_past_the_float_range_are_taken_with_max_scaling(self, x, x_true, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d1, d2 = delta_metrics(x, x_true)
        assert d1 == pytest.approx(expected, rel=1e-12) and d2 == pytest.approx(expected, rel=1e-12)

    def test_a_huge_reconstruction_gives_inf_without_a_warning_as_the_snapshot_does(self):
        from banach_sgd import solver

        x = np.full(3, 1.5e308)  # its errors' l1 and l2 norms pass the float range, even with max-scaling
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert delta_metrics(x, np.ones(3)) == (np.inf, np.inf)
            op = BlockOperator(np.full((2, 3), 1e-300))  # the residual and objective of x stay finite
            cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1))
            (row,) = solver._snapshot_kernel(op, ObservationSet.from_full(np.ones(2), op), cfg, np.ones(3), None)(
                x[None], 1, 0.1)
        assert row[3:] == delta_metrics(x, np.ones(3))


class TestSupportF1:
    def test_perfect(self):
        x = exact_sparse_signal(100)
        assert support_f1(x, x) == 1.0

    def test_zero_reconstruction(self):
        x = exact_sparse_signal(100)
        assert support_f1(np.zeros(100), x) == 0.0

    def test_half_support_no_false_positives(self):
        x_true = np.zeros(20)
        x_true[:10] = 1.0
        x = np.zeros(20)
        x[:5] = 1.0
        assert support_f1(x, x_true) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_default_threshold_is_relative(self):
        x_true = np.array([0.0, 5.0])
        assert support_f1(np.array([0.4, 5.0]), x_true) == 1.0  # 0.4 < 0.1 * 5
        assert support_f1(np.array([0.6, 5.0]), x_true) == pytest.approx(2 / 3)


@pytest.mark.parametrize("metric", [delta_metrics, support_f1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_named(metric, bad):
    v = np.array([1.0, bad, 0.0])
    with pytest.raises(InvalidInputError, match="^x contains non-finite entries"):
        metric(v, np.ones(3))
    with pytest.raises(InvalidInputError, match="^x_true contains non-finite entries"):
        metric(np.ones(3), v)


def _first_majorant(delta0, a, rates):
    """delta0 (1 + a delta0^a S_n)^(-1/a) as first written, over the partial sums S_n of rates."""
    sums = np.concatenate([[0.0], np.cumsum(rates)])
    return delta0 * (1.0 + a * delta0 ** a * sums) ** (-1.0 / a)


def _existing_majorant_calls():
    """(bound, delta0, alpha, rates, a) of the Polyak and alpha > 1 envelope tests, a the formula's exponent."""
    yield polyak_bound, 1.0, 1.0, [0.1], 1.0
    yield polyak_bound, 3.0, 0.7, np.full(50, 0.05), 0.7
    yield polyak_bound, 0.0, 2.0, [0.1, 0.2, 0.3], 2.0
    # TestPolyakBound's random recursions, then criterion 6's.
    for key, d_lo, d_hi, alpha_hi, size, mu_hi in ((5, 0.1, 3.0, 2.0, 30, 0.5), (6, 0.05, 5.0, 2.5, 40, 0.4)):
        rng = np.random.Generator(np.random.Philox(key=key))
        for _ in range(100):
            d0 = rng.uniform(d_lo, d_hi)
            alpha = rng.uniform(0.2, alpha_hi)
            yield polyak_bound, d0, alpha, rng.uniform(0.0, mu_hi, size=size) / d0 ** alpha, alpha
    yield rate_envelope, 3.5, 2.0, [0.0, 0.0], 1.0
    yield rate_envelope, 2.0, 1.0 + 1e-8, np.full(25, 0.07), (1.0 + 1e-8) - 1.0


class TestMajorantFormula:
    def test_agrees_with_the_first_formula(self):
        for bound, delta0, alpha, rates, a in _existing_majorant_calls():
            got = bound(delta0, alpha, rates)
            assert got[0] == delta0
            # The first formula raises 1 + x, rounded, to the power -1/a, so it
            # carries about eps/a of error: 1e-8 at a = 1e-8, where the log form
            # is within 5e-15 of a 50-digit reference.
            rtol = max(1e-12, 4 * np.finfo(float).eps / a)
            assert np.allclose(got, _first_majorant(delta0, a, rates), rtol=rtol, atol=0.0)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(delta0=st.floats(0.0, 1.7e308), alpha=st.floats(1e-3, 1e3),
           rates=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=8))
    def test_finite_for_every_finite_start(self, delta0, alpha, rates):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bound in (polyak_bound(delta0, alpha, rates), rate_envelope(delta0, 1.0 + alpha, rates)):
                assert bound[0] == delta0
                assert np.isfinite(bound).all() and (bound >= 0.0).all() and (np.diff(bound) <= 0.0).all()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(delta0=st.floats(0.0, 1.7e308), alpha=st.floats(1e-3, 1.7e308),
           rates=st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.7e308)), min_size=1, max_size=8))
    @example(delta0=10.0, alpha=1e308, rates=[0.1])
    @example(delta0=1.0, alpha=1.0, rates=[1e308, 1e308])
    def test_finite_for_every_finite_exponent_and_rate(self, delta0, alpha, rates):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bounds = [polyak_bound(delta0, alpha, [max(r, 1e-300) for r in rates]),
                      rate_envelope(delta0, 1.0 + alpha, rates), rate_envelope(delta0, 1.0, rates)]
            for bound in bounds:
                assert bound[0] == delta0
                assert np.isfinite(bound).all() and (bound >= 0.0).all() and (np.diff(bound) <= 0.0).all()

    def test_huge_exponent_or_rates_keep_their_limits(self):
        # At a = 1e308 the factor (1 + a d^a S)^(-1/a) is 1/d times (a S)^(-1/a), about 1;
        # at a = 1 and S = 2e308 it is 1 / (1 + S), a subnormal.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert polyak_bound(10.0, 1e308, [0.1]) == pytest.approx([10.0, 1.0], rel=1e-12)
            assert polyak_bound(1.0, 1.0, [1e308, 1e308]) == pytest.approx([1.0, 1e-308, 5e-309], rel=1e-12)
            assert (rate_envelope(2.0, 1.0, [1e308, 1e308]) == [2.0, 0.0, 0.0]).all()

    def test_huge_start_no_longer_overflows(self):
        # d (1 + a d^a S)^(-1/a) tends to (a S)^(-1/a) as d^a S grows.
        assert polyak_bound(1e300, 2.0, [0.1])[1] == pytest.approx(0.2 ** -0.5, rel=1e-12)
        assert rate_envelope(1e300, 3.0, [0.1])[1] == pytest.approx(0.2 ** -0.5, rel=1e-12)


class TestPolyakBound:
    def test_single_step_example(self):
        bounds = polyak_bound(1.0, 1.0, [0.1])
        assert bounds[0] == 1.0
        assert bounds[1] == pytest.approx(1.0 / 1.1, rel=1e-12)
        # the exact recursion value 0.9 is dominated
        assert 0.9 <= bounds[1]

    def test_zero_start(self):
        assert np.all(polyak_bound(0.0, 2.0, [0.1, 0.2, 0.3]) == 0.0)

    def test_monotone_non_increasing(self):
        bounds = polyak_bound(3.0, 0.7, np.full(50, 0.05))
        assert np.all(np.diff(bounds) <= 0)

    def test_dominates_equality_recursions(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(100):
            d0 = rng.uniform(0.1, 3.0)
            alpha = rng.uniform(0.2, 2.0)
            steps = rng.uniform(0.0, 0.5, size=30) / d0 ** alpha
            seq = [d0]
            for mu in steps:
                seq.append(seq[-1] - mu * seq[-1] ** (1.0 + alpha))
            seq = np.array(seq)
            assert np.all(seq >= 0)
            bounds = polyak_bound(d0, alpha, steps)
            assert np.all(seq <= bounds + 1e-12)


class TestRateEnvelope:
    def test_exponential_branch_example(self):
        env = rate_envelope(1.0, 1.0, np.full(10, 0.1))
        assert env[-1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_alpha_limit_consistency(self):
        per_step = np.full(25, 0.07)
        exact = rate_envelope(2.0, 1.0, per_step)
        near = rate_envelope(2.0, 1.0 + 1e-8, per_step)
        assert np.max(np.abs(exact - near)) < 1e-6

    def test_empty_steps_return_start(self):
        assert rate_envelope(3.5, 1.0, [])[0] == 3.5
        assert rate_envelope(3.5, 2.0, [0.0, 0.0])[-1] == pytest.approx(3.5)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            rate_envelope(1.0, 0.5, [0.1])


def _small_problem(seed=11, n=8, nb=4):
    rng = np.random.Generator(np.random.Philox(key=seed))
    A = rng.normal(size=(n, n)) + 2 * np.eye(n)
    x_true = rng.normal(size=n)
    op = partition_rows(A, nb, HILBERT)
    obs = ObservationSet.from_full(A @ x_true, op)
    return A, x_true, op, obs


class TestMonteCarloMean:
    def test_landweber_has_zero_stderr(self):
        A, x_true, op, obs = _small_problem()
        for L in (np.linalg.norm(op.full_matrix, 2), np.linalg.norm(A, 2)):  # the second rounds differently
            cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT,
                               schedule=ConstantSchedule(0.5 / L**2), method="landweber", epochs=10)
            trace = monte_carlo_mean(op, obs, cfg, 5, "bregman", x_ref=x_true)
            assert np.all(trace.stderr == 0.0)

    def test_landweber_runs_once_and_keeps_the_serial_trace(self, monkeypatch):
        import banach_sgd.solver as solver

        A, x_true, op, obs = _small_problem()
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.5 / np.linalg.norm(A, 2)**2),
                           method="landweber", epochs=10, seed=3)
        serial = np.vstack([solver.run(op, obs, solver.with_seed(cfg, 3 + j), x_ref=x_true).record.bregman
                            for j in range(5)])
        calls = []
        solve = solver.run
        monkeypatch.setattr(solver, "run", lambda *a, **k: calls.append(a) or solve(*a, **k))
        trace = monte_carlo_mean(op, obs, cfg, 5, "bregman", x_ref=x_true)
        assert len(calls) == 1
        assert np.array_equal(trace.mean, serial.mean(axis=0)) and np.all(trace.stderr == 0.0)

    def test_run_seeds_gives_one_result_per_seed_in_order(self):
        from banach_sgd import run, run_seeds, with_seed

        _, x_true, op, obs = _small_problem(seed=17)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.05), epochs=3, seed=7)
        results = run_seeds(op, obs, cfg, 3, x_true=x_true)
        for j, result in enumerate(results):
            single = run(op, obs, with_seed(cfg, 7 + j), x_true=x_true)
            assert np.array_equal(result.state.x, single.state.x)
            assert np.array_equal(result.record.delta2, single.record.delta2)
        with pytest.raises(ConfigurationError):
            run_seeds(op, obs, cfg, 0)

    def test_stderr_shrinks_with_seed_count(self):
        _, x_true, op, obs = _small_problem(seed=13)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.02),
                           epochs=10, seed=0)
        t1 = monte_carlo_mean(op, obs, cfg, 40, "bregman", x_ref=x_true)
        t2 = monte_carlo_mean(op, obs, cfg, 80, "bregman", x_ref=x_true)
        # average late-epoch standard errors; CLT predicts a sqrt(2) ratio
        r = np.mean(t1.stderr[5:]) / np.mean(t2.stderr[5:])
        assert r == pytest.approx(np.sqrt(2.0), rel=0.3)

    def test_mean_is_order_independent(self):
        _, x_true, op, obs = _small_problem(seed=17)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.05),
                           epochs=5, seed=100)
        trace = monte_carlo_mean(op, obs, cfg, 6, "objective")
        from banach_sgd import run, with_seed

        singles = [run(op, obs, with_seed(cfg, 100 + j)).record.objective for j in reversed(range(6))]
        manual = np.mean(np.vstack(singles), axis=0)
        assert np.allclose(trace.mean, manual, rtol=1e-13)

    def test_unknown_column_rejected_before_any_run(self, monkeypatch):
        import banach_sgd.solver as solver

        def no_run(*args, **kwargs):
            raise AssertionError("ran despite an unknown column")

        monkeypatch.setattr(solver, "sgd_step", no_run)  # every seed's steps go through it
        _, _, op, obs = _small_problem()
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.05), epochs=1)
        with pytest.raises(ConfigurationError, match="bogus"):
            monte_carlo_mean(op, obs, cfg, 3, field_name="bogus")

    def test_out_of_range_seed_rejected_before_any_run(self, monkeypatch):
        import banach_sgd.solver as solver

        calls = []
        start = solver._checked_start  # run entry, taken once per run_seeds call before any step
        monkeypatch.setattr(solver, "_checked_start", lambda *a, **k: calls.append(a) or start(*a, **k))
        _, _, op, obs = _small_problem()
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.05), epochs=1,
                           seed=2**128 - 1)
        with pytest.raises(ConfigurationError, match="2\\*\\*128"):
            monte_carlo_mean(op, obs, cfg, 2)
        assert calls == []


class TestEnsembleStats:
    def test_columns_near_the_float_range_are_rescaled_and_the_rest_keep_their_bits(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        rows = rng.normal(size=(3, 4))
        rows[:, 1] = [1.5e308, 1.2e308, -0.9e308]  # the sum overflows
        rows[:, 2] = [3e200, -2e200, 1e200]  # the squares overflow
        rows[:, 3] = [np.nan, 1.0, 2.0]  # not finite to begin with: left as numpy gives it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, se = ensemble_stats(list(rows))
        with np.errstate(over="ignore", invalid="ignore"):
            plain_mean, plain_se = rows.mean(axis=0), (rows - rows[0]).std(axis=0, ddof=1) / np.sqrt(3)
        for j in (0, 3):
            assert np.array_equal(mean[j], plain_mean[j], equal_nan=True)
            assert np.array_equal(se[j], plain_se[j], equal_nan=True)
        for j in (1, 2):
            scaled = rows[:, j] / np.abs(rows[:, j]).max()
            assert np.isfinite(mean[j]) and np.isfinite(se[j])
            assert mean[j] == pytest.approx(scaled.mean() * np.abs(rows[:, j]).max(), rel=1e-15)
            assert se[j] == pytest.approx(scaled.std(ddof=1) / np.sqrt(3) * np.abs(rows[:, j]).max(), rel=1e-15)

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_equal_samples_have_zero_stderr(self, n):
        rows = [np.array([0.1, 0.7])] * n
        mean, se = ensemble_stats(rows)
        assert np.array_equal(mean, np.vstack(rows).mean(axis=0)) and np.array_equal(se, [0.0, 0.0])

    def test_mean_keeps_its_bits_and_stderr_its_value(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        for _ in range(200):
            rows = rng.normal(size=(8, 51)) * np.exp(rng.uniform(-20, 20))
            mean, se = ensemble_stats(list(rows))
            assert np.array_equal(mean, rows.mean(axis=0))
            assert np.allclose(se, rows.std(axis=0, ddof=1) / np.sqrt(8), rtol=1e-14, atol=0)

    def test_single_row_has_zero_stderr(self):
        mean, se = ensemble_stats([np.array([1.5e308, 2.0])])
        assert np.array_equal(mean, [1.5e308, 2.0]) and np.array_equal(se, [0.0, 0.0])


class TestStabilityProbe:
    def test_zero_noise_gives_zero_gaps(self):
        A = build_integral_operator(50)
        y = A @ exact_sparse_signal(50)
        op = partition_rows(A, 5, HILBERT)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.2), epochs=1)
        res = stability_probe(op, y, cfg, k_fixed=10, deltas=[0.0], n_seeds=3)
        assert res.bregman_gap[0] == 0.0
        assert res.primal_gap[0] == 0.0
        assert res.dual_gap[0] == 0.0

    def test_gaps_decrease_with_noise_level(self):
        A = build_integral_operator(60)
        y = A @ exact_sparse_signal(60)
        op = partition_rows(A, 6, HILBERT)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1), epochs=1)
        res = stability_probe(op, y, cfg, k_fixed=20, deltas=[1e-1, 1e-2, 1e-3], n_seeds=5)
        assert np.all(np.diff(res.bregman_gap) < 0)
        assert np.all(np.diff(res.primal_gap) < 0)
        assert np.all(np.diff(res.dual_gap) < 0)

    def test_coupling_seed_shifts_values_not_trend(self):
        A = build_integral_operator(60)
        y = A @ exact_sparse_signal(60)
        op = partition_rows(A, 6, HILBERT)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1), epochs=1)
        a = stability_probe(op, y, cfg, k_fixed=15, deltas=[1e-1, 1e-3], n_seeds=4, noise_seed=0)
        b = stability_probe(op, y, cfg, k_fixed=15, deltas=[1e-1, 1e-3], n_seeds=4, noise_seed=50)
        assert not np.allclose(a.primal_gap, b.primal_gap)
        assert a.primal_gap[0] > a.primal_gap[1]
        assert b.primal_gap[0] > b.primal_gap[1]

    def test_values_are_the_seed_coupled_runs_summed_in_seed_order(self):
        from banach_sgd import bregman_distance, with_seed

        A = build_integral_operator(40)
        y = A @ exact_sparse_signal(40)
        y_space = SpaceDescriptor(1.5, 2.0)
        op = partition_rows(A, 5, y_space)
        cfg = SolverConfig(x_space=SpaceDescriptor(1.3, 2.0), y_space=y_space, schedule=ConstantSchedule(0.05),
                           epochs=1, seed=4)
        k, deltas, noise_seed = 12, [0.0, 1e-2], 3
        res = stability_probe(op, y, cfg, k, deltas, n_seeds=2, noise_seed=noise_seed)
        # rebuilt by hand: seed j's clean and noisy runs share with_seed(cfg, cfg.seed + j), and its
        # noise direction comes from Philox key noise_seed + j, scaled to the exact l^1.5 level
        clean_obs = ObservationSet.from_full(y, op)
        gaps = np.zeros((len(deltas), 3))
        for j in range(2):
            cfg_j = with_seed(cfg, cfg.seed + j)
            clean = iterate_n(op, clean_obs, cfg_j, k)
            direction = np.random.Generator(np.random.Philox(key=noise_seed + j)).normal(size=y.size)
            for di, delta in enumerate(deltas):
                xi = delta * direction / lr_norm(direction, 1.5) if delta > 0 else np.zeros_like(y)
                noisy = iterate_n(op, ObservationSet.from_full(y + xi, op, noise_level=delta), cfg_j, k)
                gaps[di] += (bregman_distance(noisy.x, clean.x, cfg.x_space), lr_norm(noisy.x - clean.x, 1.3),
                             lr_norm(noisy.dual_x - clean.dual_x, cfg.x_space.r_conj))
        expected = gaps / 2
        assert expected[0, 1:].tolist() == [0.0, 0.0] and (expected[1] > 0).all()  # equal states at level 0
        assert np.array_equal(res.deltas, deltas)
        assert np.array_equal(res.bregman_gap, expected[:, 0])
        assert np.array_equal(res.primal_gap, expected[:, 1])
        assert np.array_equal(res.dual_gap, expected[:, 2])

    def test_each_clean_run_is_computed_once(self, monkeypatch):
        import banach_sgd.solver as solver

        calls = []
        original = solver.iterate_n

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solver, "iterate_n", counted)
        A = build_integral_operator(60)
        y = A @ exact_sparse_signal(60)
        op = partition_rows(A, 6, HILBERT)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1), epochs=1)
        deltas = [1e-1, 1e-2, 1e-3]
        stability_probe(op, y, cfg, k_fixed=5, deltas=deltas, n_seeds=4)
        assert len(calls) == 4 * (len(deltas) + 1)
        calls.clear()
        with pytest.raises(ConfigurationError, match="noise_seed"):  # the last key, 2**128 + 2, is out of range
            stability_probe(op, y, cfg, k_fixed=5, deltas=deltas, n_seeds=4, noise_seed=2**128 - 1)
        assert calls == []

    @pytest.mark.parametrize("deltas", [[0.1, -0.1], [0.1, np.nan], [np.inf], [[0.1, 0.2]]])
    def test_every_noise_level_checked_before_any_run(self, deltas, monkeypatch):
        import banach_sgd.solver as solver

        def no_run(*args, **kwargs):
            raise AssertionError("ran before checking the noise levels")

        monkeypatch.setattr(solver, "iterate_n", no_run)
        A = build_integral_operator(60)
        op = partition_rows(A, 6, HILBERT)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1), epochs=1)
        with pytest.raises(ConfigurationError, match="deltas"):
            stability_probe(op, A @ exact_sparse_signal(60), cfg, k_fixed=2000, deltas=deltas, n_seeds=2)

    def test_a_level_past_the_float_range_is_a_typed_error(self, monkeypatch):
        import banach_sgd.solver as solver

        calls = []
        original = solver.iterate_n
        monkeypatch.setattr(solver, "iterate_n", lambda *args: calls.append(args) or original(*args))
        A = build_integral_operator(60)
        op = partition_rows(A, 6, HILBERT)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1), epochs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=r"noise level 1e\+308"):
                stability_probe(op, A @ exact_sparse_signal(60), cfg, k_fixed=5, deltas=[1e-2, 1e308], n_seeds=2)
        assert calls == []  # every level is checked before the first run

    def test_no_seeds_rejected(self):
        A = build_integral_operator(60)
        op = partition_rows(A, 6, HILBERT)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1), epochs=1)
        with pytest.raises(ConfigurationError, match="n_seeds"):
            stability_probe(op, A @ exact_sparse_signal(60), cfg, k_fixed=5, deltas=[1e-2], n_seeds=0)


class TestMinimumNormSolution:
    def test_hilbert_underdetermined_least_norm(self):
        rng = np.random.Generator(np.random.Philox(key=19))
        A = rng.normal(size=(4, 9))
        y = rng.normal(size=4)
        sol = minimum_norm_solution(A, y, HILBERT)
        assert np.allclose(A @ sol, y, atol=1e-10)
        assert np.allclose(sol, np.linalg.pinv(A) @ y, atol=1e-10)

    def test_descent_route_agrees_with_hilbert_route(self):
        rng = np.random.Generator(np.random.Philox(key=23))
        A = rng.normal(size=(3, 6))
        y = rng.normal(size=3)
        # a norm exponent just off 2 forces the iterative route; the answer is
        # then still the Euclidean least-norm point up to a tiny perturbation
        from banach_sgd import diagnostics

        iterative = diagnostics.minimum_norm_solution(A, y, SpaceDescriptor(2.0000001, 2.0),
                                                      landweber_steps=40_000)
        assert np.allclose(iterative, np.linalg.pinv(A) @ y, atol=1e-4)

    @pytest.mark.parametrize("r", [3.0, 4.0])
    def test_converges_for_large_norm_exponents(self, r):
        # the step must use ||A||_{l^r -> l^2}, which exceeds ||A||_2 for r > 2
        n = 200
        A = build_integral_operator(n)
        y = A @ exact_sparse_signal(n)
        sol = minimum_norm_solution(A, y, SpaceDescriptor(r, r), landweber_steps=3000)
        assert np.linalg.norm(A @ sol - y) < 0.1 * np.linalg.norm(y)

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    def test_zero_matrix_gives_zero(self, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = minimum_norm_solution(np.zeros((3, 3)), np.zeros(3), SpaceDescriptor(r, r))
        assert sol.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("r", [1.5, 3.0])
    def test_a_step_past_the_float_range_is_a_typed_error(self, r):
        # ||A||_2 = 1e-200: the r < 2 step divides by its square, which underflows; the r > 2 step overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="step size must be positive and inside the float range"):
                minimum_norm_solution(np.eye(3) * 1e-200, np.ones(3) * 1e-200, SpaceDescriptor(r, r),
                                      landweber_steps=10)

    def test_matches_the_run_path_bit_for_bit(self):
        from banach_sgd import run

        n, steps = 200, 3000
        A = build_integral_operator(n)
        y = A @ exact_sparse_signal(n)
        x_space = SpaceDescriptor(1.5, 1.5)
        fast = minimum_norm_solution(A, y, x_space, landweber_steps=steps)
        # the same Landweber iteration through run, one snapshot per step
        mu = 0.9 / ((x_space.r_conj - 1.0) * np.linalg.norm(A, 2) ** 2)
        op = BlockOperator(A, HILBERT)
        cfg = SolverConfig(x_space=SpaceDescriptor(1.5, 2.0), y_space=HILBERT,
                           schedule=ConstantSchedule(mu), method="landweber", epochs=steps)
        reference = run(op, ObservationSet.from_full(y, op), cfg).state.x
        assert np.array_equal(fast, reference)


class TestConvergenceRecord:
    def test_csv_header_and_round_numbers(self, tmp_path):
        rec = ConvergenceRecord(
            epoch=[0, 1], objective=[1.0, 0.5], residual=[2.0, 1.0],
            bregman=[3.0, 1.5], delta1=[1.0, 0.9], delta2=[1.0, 0.8], step=[0.1, 0.1],
        )
        path = tmp_path / "trace.csv"
        rec.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == "epoch,objective,residual,bregman,delta1,delta2,step"
        assert len(lines) == 3

    def test_epochs_must_increase(self):
        with pytest.raises(InvalidInputError):
            ConvergenceRecord(
                epoch=[0, 0], objective=[1, 1], residual=[1, 1],
                bregman=[1, 1], delta1=[1, 1], delta2=[1, 1], step=[1, 1],
            )

    def test_finite_columns_enforced(self):
        with pytest.raises(InvalidInputError):
            ConvergenceRecord(
                epoch=[0], objective=[np.inf], residual=[1],
                bregman=[1], delta1=[1], delta2=[1], step=[1],
            )


_SPARSE = CsrMatrix([0, 1, 2], [0, 1], [1.0, 2.0], (2, 2))


@pytest.mark.parametrize("call,error", [
    (lambda op, obs, cfg: op.apply_all(np.ones(7)), "DimensionMismatchError"),
    (lambda op, obs, cfg: op.apply_all(np.ones((8, 2))), "DimensionMismatchError"),
    (lambda op, obs, cfg: objective(np.ones(9), op, obs, 2.0), "DimensionMismatchError"),
    (lambda op, obs, cfg: support_f1(np.ones(7), np.ones(8)), "DimensionMismatchError"),
    (lambda op, obs, cfg: minimum_norm_solution(op.full_matrix, np.ones(7), HILBERT), "DimensionMismatchError"),
    (lambda op, obs, cfg: minimum_norm_solution(op.full_matrix, [np.nan] + [1.0] * 7, HILBERT), "InvalidInputError"),
    (lambda op, obs, cfg: minimum_norm_solution(np.diag([1.0, np.nan]), [1.0, 1.0], SpaceDescriptor(1.5, 2.0), 10),
     "InvalidInputError"),
    (lambda op, obs, cfg: iterate_n(op, obs, cfg, -1), "ConfigurationError"),
    (lambda op, obs, cfg: stability_probe(op, obs.concatenated, cfg, -1, [0.0, 0.1], n_seeds=2),
     "ConfigurationError"),
    (lambda op, obs, cfg: op.apply(op.n_blocks, np.ones(8)), "ConfigurationError"),
    (lambda op, obs, cfg: op.apply(-1, np.ones(8)), "ConfigurationError"),
    (lambda op, obs, cfg: op.apply(1.5, np.ones(8)), "ConfigurationError"),
    (lambda op, obs, cfg: stochastic_gradient(np.ones(8), obs, op, 5, HILBERT), "ConfigurationError"),
    (lambda op, obs, cfg: ConvergenceRecord.from_rows([]).column("nope"), "ConfigurationError"),
    (lambda op, obs, cfg: partition_rows(op.full_matrix, 2.0), "ConfigurationError"),
    (lambda op, obs, cfg: partition_rows(op.full_matrix, "2"), "ConfigurationError"),
    (lambda op, obs, cfg: minimum_norm_solution(_SPARSE, [1.0, 2.0], HILBERT), "ConfigurationError"),
    (lambda op, obs, cfg: minimum_norm_solution(_SPARSE, [1.0, 2.0], SpaceDescriptor(1.5, 2.0), 10),
     "ConfigurationError"),
    (lambda op, obs, cfg: iterate_n(op, obs, cfg, 2.5), "ConfigurationError"),
    (lambda op, obs, cfg: stability_probe(op, obs.concatenated, cfg, 2.5, [0.1], n_seeds=2), "ConfigurationError"),
    (lambda op, obs, cfg: stability_probe(op, obs.concatenated, cfg, 2, [0.1], n_seeds=2.5), "ConfigurationError"),
    (lambda op, obs, cfg: stability_probe(op, obs.concatenated, cfg, 2, [[0.1, 0.2]], n_seeds=2),
     "ConfigurationError"),
    (lambda op, obs, cfg: stability_probe(op, obs.concatenated, cfg, 2, 0.1, n_seeds=2), "ConfigurationError"),
    (lambda op, obs, cfg: run_seeds(op, obs, cfg, 2.5), "ConfigurationError"),
    (lambda op, obs, cfg: monte_carlo_mean(op, obs, cfg, 2.5), "ConfigurationError"),
    (lambda op, obs, cfg: boyd_operator_norm(op.full_matrix, restarts=1.5), "ConfigurationError"),
    (lambda op, obs, cfg: boyd_operator_norm(op.full_matrix, max_iter=1.5), "ConfigurationError"),
    (lambda op, obs, cfg: estimate_constants(HILBERT, 2.5), "ConfigurationError"),
    (lambda op, obs, cfg: estimate_constants(HILBERT, 3, samples=2.5), "ConfigurationError"),
    (lambda op, obs, cfg: SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.05), epochs=2.5),
     "ConfigurationError"),
    (lambda op, obs, cfg: RadonGeometry(16.5, 6, 30.0, 23, 0.1), "ConfigurationError"),
    (lambda op, obs, cfg: stability_probe(op, obs.concatenated, cfg, 2, [0.1], n_seeds=2, noise_seed=-1),
     "ConfigurationError"),
    (lambda op, obs, cfg: stability_probe(op, obs.concatenated, cfg, 2, [0.1], n_seeds=2, noise_seed=2.5),
     "ConfigurationError"),
    (lambda op, obs, cfg: stability_probe(op, obs.concatenated, cfg, 2, [0.1], n_seeds=2, noise_seed=2**128 - 1),
     "ConfigurationError"),
    (lambda op, obs, cfg: stability_probe(op, obs.concatenated, with_seed(cfg, 2**128 - 1), 2, [0.1], n_seeds=2),
     "ConfigurationError"),
    (lambda op, obs, cfg: run_seeds(op, obs, with_seed(cfg, 2**128 - 1), 2), "ConfigurationError"),
    (lambda op, obs, cfg: estimate_constants(HILBERT, 3, seed=-1), "ConfigurationError"),
    (lambda op, obs, cfg: estimate_constants(HILBERT, 3, seed=2**128), "ConfigurationError"),
    (lambda op, obs, cfg: estimate_constants(HILBERT, 3, seed=2.5), "ConfigurationError"),
    (lambda op, obs, cfg: build_integral_operator(2.5), "ConfigurationError"),
    (lambda op, obs, cfg: build_integral_operator("3"), "ConfigurationError"),
    (lambda op, obs, cfg: exact_sparse_signal(40.5), "ConfigurationError"),
    (lambda op, obs, cfg: sparse_disk_phantom(16.5), "ConfigurationError"),
    (lambda op, obs, cfg: RadonGeometry(16, 6, np.nan, 23, 0.1), "ConfigurationError"),
    (lambda op, obs, cfg: RadonGeometry(16, 6, 30.0, 23, np.nan), "ConfigurationError"),
    (lambda op, obs, cfg: RadonGeometry(16, 6, 30.0, 23, np.inf), "ConfigurationError"),
    (lambda op, obs, cfg: SlowDecaySchedule(1.0, 2.5, 2.0), "ConfigurationError"),
    (lambda op, obs, cfg: SlowDecaySchedule(1.0, 2, np.nan), "ConfigurationError"),
    (lambda op, obs, cfg: ConstantsConfig(np.nan, 1.0), "ConfigurationError"),
    (lambda op, obs, cfg: theoretical_max_step(ConstantsConfig(1.0, 1.0), np.nan, 2.0), "ConfigurationError"),
    (lambda op, obs, cfg: theoretical_max_step(ConstantsConfig(1.0, 1.0), 1.0, np.inf), "ConfigurationError"),
    (lambda op, obs, cfg: theoretical_max_step(ConstantsConfig(1.0, 1.0), 1e-200, 2.0), "ConfigurationError"),
    (lambda op, obs, cfg: theoretical_max_step(ConstantsConfig(1.0, 1.0), 1e300, 1.01), "ConfigurationError"),
    (lambda op, obs, cfg: theoretical_max_step(ConstantsConfig(1.0, 1.0), 1e-160, 2.0), "ConfigurationError"),
    (lambda op, obs, cfg: support_f1(np.ones(3), np.ones(3), threshold=np.nan), "ConfigurationError"),
    (lambda op, obs, cfg: polyak_bound(np.nan, 1.0, [0.1]), "InvalidInputError"),
    (lambda op, obs, cfg: polyak_bound(1.0, np.nan, [0.1]), "ConfigurationError"),
    (lambda op, obs, cfg: polyak_bound(1.0, 1.0, [np.nan]), "ConfigurationError"),
    (lambda op, obs, cfg: rate_envelope(np.nan, 1.0, [0.1]), "InvalidInputError"),
    (lambda op, obs, cfg: rate_envelope(1.0, np.nan, [0.1]), "ConfigurationError"),
    (lambda op, obs, cfg: rate_envelope(1.0, 2.0, [np.nan]), "ConfigurationError"),
    (lambda op, obs, cfg: rate_envelope(np.inf, 2.0, [0.1]), "InvalidInputError"),
    (lambda op, obs, cfg: polyak_bound(1.0, 1.0, ["a"]), "ConfigurationError"),
    (lambda op, obs, cfg: polyak_bound(1.0, 1.0, [[0.1], [0.1, 0.2]]), "ConfigurationError"),
    (lambda op, obs, cfg: polyak_bound(1.0, 1.0, [1j]), "ConfigurationError"),
    (lambda op, obs, cfg: polyak_bound(1.0, 1.0, 0.1), "ConfigurationError"),
    (lambda op, obs, cfg: rate_envelope(1.0, 2.0, ["a"]), "ConfigurationError"),
    (lambda op, obs, cfg: rate_envelope(1.0, 2.0, [[0.1], [0.1, 0.2]]), "ConfigurationError"),
    (lambda op, obs, cfg: rate_envelope(1.0, 2.0, [[0.1]]), "ConfigurationError"),
    (lambda op, obs, cfg: stability_probe(op, obs.concatenated, cfg, 2, ["a"], n_seeds=2), "ConfigurationError"),
    (lambda op, obs, cfg: stability_probe(op, obs.concatenated, cfg, 2, [[0.1], [0.1, 0.2]], n_seeds=2),
     "ConfigurationError"),
    (lambda op, obs, cfg: iterate_n(op, obs, cfg, True), "ConfigurationError"),
    (lambda op, obs, cfg: run_seeds(op, obs, cfg, True), "ConfigurationError"),
    (lambda op, obs, cfg: estimate_constants(HILBERT, 3, seed=True), "ConfigurationError"),
    (lambda op, obs, cfg: run_seeds(op, obs, with_seed(cfg, False), 1), "ConfigurationError"),
    (lambda op, obs, cfg: ensemble_stats([]), "DimensionMismatchError"),
    (lambda op, obs, cfg: ensemble_stats([np.ones(2), np.ones(3)]), "DimensionMismatchError"),
], ids=["apply_all-length", "apply_all-matrix", "objective", "support_f1", "minnorm-r2-length", "minnorm-r2-nan",
        "minnorm-nan-matrix", "iterate_n", "stability_probe", "apply-past-the-end", "apply-negative",
        "apply-non-integer", "stochastic_gradient", "record-column", "partition-float", "partition-str",
        "minnorm-r2-sparse", "minnorm-sparse", "iterate_n-float", "stability_probe-float-steps",
        "stability_probe-float-seeds", "stability_probe-2-D-levels", "stability_probe-scalar-levels",
        "run_seeds-float", "monte_carlo_mean-float", "boyd-float-restarts", "boyd-float-max_iter",
        "constants-float-dim", "constants-float-samples", "config-float-epochs", "radon-float-grid",
        "probe-negative-noise-seed", "probe-float-noise-seed", "probe-last-noise-seed", "probe-last-seed",
        "run_seeds-last-seed", "constants-negative-seed", "constants-seed-past-2**128", "constants-float-seed",
        "integral-float-size", "integral-str-size", "signal-float-size", "phantom-float-size",
        "radon-nan-angle-step", "radon-nan-pixel", "radon-inf-pixel", "slow-decay-float-batches",
        "slow-decay-nan-power", "constants-nan", "max-step-nan-l_max", "max-step-inf-power",
        "max-step-underflow", "max-step-zero", "max-step-inf", "support_f1-nan-threshold", "polyak-nan-delta0",
        "polyak-nan-alpha", "polyak-nan-step", "envelope-nan-delta0", "envelope-nan-alpha", "envelope-nan-rate",
        "envelope-inf-delta0", "polyak-str-step", "polyak-ragged-steps", "polyak-complex-step", "polyak-scalar-steps",
        "envelope-str-rate", "envelope-ragged-rates", "envelope-2-D-rates", "stability_probe-str-level",
        "stability_probe-ragged-levels", "iterate_n-bool", "run_seeds-bool", "constants-bool-seed",
        "run_seeds-bool-seed", "ensemble-empty", "ensemble-ragged"])
def test_wrong_input_raises_a_typed_error(call, error):
    import banach_sgd

    _, _, op, obs = _small_problem()
    cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.05))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(getattr(banach_sgd, error)):
            call(op, obs, cfg)
