import warnings

import numpy as np
import pytest

from banach_sgd import (
    APrioriStop,
    BlockOperator,
    ConfigurationError,
    ConstantSchedule,
    ConvergenceRecord,
    CsrMatrix,
    ConstantsConfig,
    DimensionMismatchError,
    InvalidInputError,
    IterationInvariantError,
    ObservationSet,
    PolynomialSchedule,
    RadonGeometry,
    SlowDecaySchedule,
    SolverConfig,
    SpaceDescriptor,
    a_priori_stop_index,
    bregman_distance,
    build_integral_operator,
    build_radon_operator,
    delta_metrics,
    dual_pairing,
    duality_map,
    estimate_constants,
    exact_sparse_signal,
    initial_state,
    inverse_duality_map,
    iterate_n,
    landweber_step,
    lr_norm,
    objective,
    partition_rows,
    run,
    run_seeds,
    sgd_step,
    sparse_disk_phantom,
    step_size,
    stochastic_gradient,
    theoretical_max_step,
    with_seed,
)
from banach_sgd import solver

HILBERT = SpaceDescriptor.hilbert()


def hilbert_problem(n=10, n_blocks=5, seed=0, conditioning=(0.5, 1.5)):
    """Well-conditioned consistent system with known solution."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    sv = np.linspace(conditioning[0], conditioning[1], n)
    A = U @ np.diag(sv) @ V.T
    x_true = rng.normal(size=n)
    op = partition_rows(A, n_blocks, HILBERT)
    obs = ObservationSet.from_full(A @ x_true, op)
    return A, x_true, op, obs


class TestSchedules:
    def test_polynomial_example(self):
        assert step_size(PolynomialSchedule(1.0, 1.0), 4) == pytest.approx(0.25, abs=1e-15)

    def test_slow_decay_example(self):
        # 1 / (1 + 0.05 * 1^(0.51))
        s = SlowDecaySchedule(1.0, 1, 2.0)
        assert step_size(s, 1) == pytest.approx(1.0 / 1.05, rel=1e-12)
        assert step_size(s, 1) == pytest.approx(0.9523809523809523, rel=1e-12)

    def test_constant(self):
        s = ConstantSchedule(0.3)
        assert step_size(s, 1) == 0.3
        assert step_size(s, 9999) == 0.3

    def test_positive_everywhere(self):
        for sched in (PolynomialSchedule(2.0, 0.75), SlowDecaySchedule(0.4, 20, 2.0), ConstantSchedule(1.0)):
            for k in (1, 10, 100, 10_000):
                assert step_size(sched, k) > 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            PolynomialSchedule(0.0, 0.5)
        with pytest.raises(ConfigurationError):
            PolynomialSchedule(1.0, 1.5)
        with pytest.raises(ConfigurationError):
            SlowDecaySchedule(-1.0, 10, 2.0)
        with pytest.raises(ConfigurationError):
            step_size(ConstantSchedule(1.0), 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_step_scale_rejected(self, value):
        for build in (lambda v: PolynomialSchedule(v, 0.75), lambda v: SlowDecaySchedule(v, 10, 2.0),
                      ConstantSchedule):
            with pytest.raises(ConfigurationError):
                build(value)

    def test_beta_must_exceed_inverse_conjugate(self):
        # p = 2 -> p* = 2 -> beta must be > 0.5
        with pytest.raises(ConfigurationError):
            SolverConfig(x_space=HILBERT, y_space=HILBERT,
                         schedule=PolynomialSchedule(1.0, 0.4), epochs=1)
        SolverConfig(x_space=HILBERT, y_space=HILBERT,
                     schedule=PolynomialSchedule(1.0, 0.6), epochs=1)


class TestStoppingRules:
    def test_formula_example(self):
        rule = APrioriStop(beta=0.5, theta=0.5)
        assert a_priori_stop_index(rule, 0.1, 2.0) == 100

    def test_theta_near_one_approaches_boundary_scaling(self):
        rule = APrioriStop(beta=0.5, theta=1.0 - 1e-12)
        boundary = 0.1 ** (-2.0 / 0.5)
        assert a_priori_stop_index(rule, 0.1, 2.0) == pytest.approx(boundary, rel=1e-6)

    def test_monotone_in_delta(self):
        ks = [
            a_priori_stop_index(APrioriStop(beta=0.25, theta=0.5), d, 2.0)
            for d in (0.3, 0.1, 0.03, 0.01)
        ]
        assert ks == sorted(ks)
        assert len(set(ks)) == len(ks)

    def test_vanishing_product_property(self):
        rule_at = lambda d: a_priori_stop_index(APrioriStop(beta=0.5, theta=0.5), d, 2.0)
        products = [rule_at(d) * d ** (2.0 / 0.5) for d in (0.1, 0.05, 0.02, 0.01)]
        assert all(b < a * 1.001 for a, b in zip(products, products[1:]))

    def test_beta_one_rejected(self):
        with pytest.raises(ConfigurationError):
            APrioriStop(beta=1.0, theta=0.5)

    def test_astronomical_index_rejected(self):
        with pytest.raises(ConfigurationError):
            a_priori_stop_index(APrioriStop(beta=0.75, theta=0.9), 1e-9, 2.0)

    @pytest.mark.parametrize("beta,theta", [(np.nan, 0.5), (0.5, np.nan)])
    def test_ranges_reject_nan(self, beta, theta):
        with pytest.raises(ConfigurationError):
            APrioriStop(beta, theta)

    def test_run_reads_delta_from_the_data_and_power_from_the_space(self):
        _, _, op, obs = hilbert_problem(8, 4, seed=85)
        x_space = SpaceDescriptor(2.0, 1.5)
        cfg = SolverConfig(x_space=x_space, y_space=HILBERT, schedule=ConstantSchedule(0.05),
                           stopping=APrioriStop(beta=0.5, theta=0.5))
        noisy = ObservationSet(obs.blocks, noise_level=0.1)
        assert run(op, noisy, cfg).state.k == a_priori_stop_index(cfg.stopping, 0.1, 1.5) == 32

    def test_noise_free_data_rejected_before_any_step(self, monkeypatch):
        import banach_sgd.solver as solver

        def no_step(*args):
            raise AssertionError("stepped on noise-free data")

        monkeypatch.setattr(solver, "sgd_step", no_step)
        _, _, op, obs = hilbert_problem(8, 4, seed=85)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.05),
                           stopping=APrioriStop(beta=0.5))
        with pytest.raises(ConfigurationError, match="positive noise level"):
            run(op, obs, cfg)


class TestStochasticGradient:
    def test_zero_residual_gives_zero(self):
        op = BlockOperator(np.eye(3), HILBERT)
        obs = ObservationSet([np.array([1.0, 2.0, 3.0])])
        g = stochastic_gradient(np.array([1.0, 2.0, 3.0]), obs, op, 0, SpaceDescriptor(2.0, 2.0))
        assert np.all(g == 0.0)

    def test_residual_power_must_exceed_one(self):
        # the residual geometry is fixed when the config is built
        with pytest.raises(ConfigurationError):
            SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1),
                         method="generalized_kaczmarz", q=1.0)

    def test_scalar_example(self):
        # A = (2), x = 1, y = 0, Hilbert: g = 2 * (2*1 - 0) = 4
        op = BlockOperator(np.array([[2.0]]), HILBERT)
        obs = ObservationSet([np.array([0.0])])
        g = stochastic_gradient(np.array([1.0]), obs, op, 0, SpaceDescriptor(2.0, 2.0))
        assert g == pytest.approx([4.0], abs=1e-15)

    @pytest.mark.parametrize("ry,exponent", [(2.0, 2.0), (1.5, 2.0), (2.0, 1.5), (3.0, 1.2)])
    def test_subgradient_identity(self, ry, exponent):
        # <g(x, y, i), x - xhat> = exponent * Psi_i(x) whenever A_i xhat = y_i
        rng = np.random.Generator(np.random.Philox(key=13))
        A = rng.normal(size=(12, 6))
        x_hat = rng.normal(size=6)
        op = partition_rows(A, 4, SpaceDescriptor(ry, exponent))
        obs = ObservationSet.from_full(A @ x_hat, op)
        for i in range(4):
            for _ in range(5):
                x = rng.normal(size=6)
                g = stochastic_gradient(x, obs, op, i, SpaceDescriptor(ry, exponent))
                lhs = dual_pairing(g, x - x_hat)
                psi_i = lr_norm(op.apply(i, x) - obs.blocks[i], ry) ** exponent / exponent
                assert lhs == pytest.approx(exponent * psi_i, rel=1e-10)


class TestSgdStep:
    def test_zero_residual_fixed_point(self):
        A = np.eye(4)
        op = partition_rows(A, 2, HILBERT)
        x_sol = np.array([1.0, -1.0, 2.0, 0.5])
        obs = ObservationSet.from_full(x_sol, op)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.5), epochs=1)
        state = initial_state(op, cfg)
        state.x = x_sol.copy()
        state.dual_x = x_sol.copy()
        new = sgd_step(state, op, obs, cfg, 0.5, int(state.rng.integers(op.n_blocks)))
        assert np.array_equal(new.x, x_sol)
        assert new.k == 1

    def test_scalar_update(self):
        op = BlockOperator(np.array([[2.0]]), HILBERT)
        obs = ObservationSet([np.array([0.0])])
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1), epochs=1)
        state = initial_state(op, cfg)
        state.x = np.array([1.0])
        state.dual_x = np.array([1.0])
        new = sgd_step(state, op, obs, cfg, 0.1, int(state.rng.integers(op.n_blocks)))
        assert new.x == pytest.approx([0.6], abs=1e-15)

    def test_hilbert_step_matches_explicit_formula(self):
        _, _, op, obs = hilbert_problem(8, 4, seed=21)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.2), epochs=1)
        rng = np.random.Generator(np.random.Philox(key=5))
        x = rng.normal(size=8)
        state = initial_state(op, cfg)
        state.x = x.copy()
        state.dual_x = x.copy()
        # mirror the index draw with an identical generator
        shadow = np.random.Generator(np.random.Philox(key=cfg.seed))
        i = int(shadow.integers(op.n_blocks))
        new = sgd_step(state, op, obs, cfg, 0.2, int(state.rng.integers(op.n_blocks)))
        expected = x - 0.2 * op.blocks[i].T @ (op.blocks[i] @ x - obs.blocks[i])
        assert np.allclose(new.x, expected, atol=1e-12)

    @pytest.mark.parametrize("method", ["sgd", "landweber"])
    def test_a_step_advances_the_state_it_is_given(self, method):
        _, _, op, obs = hilbert_problem(8, 4, seed=21)
        cfg = SolverConfig(x_space=SpaceDescriptor(1.5, 2.0), y_space=HILBERT, schedule=ConstantSchedule(0.2),
                           method=method)
        state = initial_state(op, cfg)
        x, dual = state.x, state.dual_x
        new = sgd_step(state, op, obs, cfg, 0.2, 3) if method == "sgd" else landweber_step(state, op, obs, cfg, 0.2)
        assert new is state and state.k == 1
        assert state.x.any() and state.dual_x.any()
        assert not x.any() and not dual.any()  # the arrays it held are rebound, not written


class TestLandweber:
    def test_consistent_point_is_fixed(self):
        _, x_true, op, obs = hilbert_problem(6, 3, seed=31)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.5),
                           method="landweber", epochs=1)
        state = initial_state(op, cfg)
        state.x = x_true.copy()
        state.dual_x = x_true.copy()
        new = landweber_step(state, op, obs, cfg, 0.5)
        assert np.allclose(new.x, x_true, atol=1e-12)

    def test_single_block_hilbert_equals_sgd(self):
        rng = np.random.Generator(np.random.Philox(key=41))
        A = rng.normal(size=(5, 5))
        op = BlockOperator(A, HILBERT)
        obs = ObservationSet([rng.normal(size=5)])
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.05), epochs=1)
        s1 = initial_state(op, cfg)
        s2 = initial_state(op, cfg)
        for _ in range(20):
            s1 = sgd_step(s1, op, obs, cfg, 0.05, int(s1.rng.integers(op.n_blocks)))
            s2 = landweber_step(s2, op, obs, cfg, 0.05)
        assert np.allclose(s1.x, s2.x, atol=1e-14)

    def test_two_by_two_converges_at_classical_step(self):
        rng = np.random.Generator(np.random.Philox(key=51))
        A = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        x_true = rng.normal(size=2)
        op = BlockOperator(A, HILBERT)
        obs = ObservationSet([A @ x_true])
        L = np.linalg.norm(A, 2)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT,
                           schedule=ConstantSchedule(1.0 / L**2), method="landweber", epochs=10_000)
        result = run(op, obs, cfg)
        assert np.linalg.norm(result.state.x - x_true) < 1e-8


class TestTheoreticalMaxStep:
    def test_unit_case(self):
        assert theoretical_max_step(ConstantsConfig(1.0, 1.0), 1.0, 2.0) == pytest.approx(2.0)

    def test_doubled_norm(self):
        assert theoretical_max_step(ConstantsConfig(1.0, 1.0), 2.0, 2.0) == pytest.approx(0.5)

    def test_scaling_law(self):
        # bound scales like L^(-p*/(p*-1))
        for p_conj in (1.5, 2.0, 3.0):
            b1 = theoretical_max_step(ConstantsConfig(1.0, 1.0), 1.0, p_conj)
            b2 = theoretical_max_step(ConstantsConfig(1.0, 1.0), 2.0, p_conj)
            assert b2 / b1 == pytest.approx(2.0 ** (-p_conj / (p_conj - 1.0)), rel=1e-12)


class TestEstimateConstants:
    def test_hilbert_values(self):
        c = estimate_constants(HILBERT, dim=12, samples=100, seed=2)
        assert c.G_pstar == pytest.approx(1.2, rel=1e-9)
        assert c.C_p == pytest.approx(0.8, rel=1e-9)

    def test_monotone_in_samples(self):
        desc = SpaceDescriptor(1.5, 2.0)
        prev_g, prev_c = 0.0, np.inf
        for samples in (10, 50, 200):
            c = estimate_constants(desc, dim=8, samples=samples, seed=3)
            assert c.G_pstar >= prev_g - 1e-12
            assert c.C_p <= prev_c + 1e-12
            prev_g, prev_c = c.G_pstar, c.C_p

    def test_positive(self):
        for desc in (SpaceDescriptor(1.1, 2.0), SpaceDescriptor(3.0, 3.0)):
            c = estimate_constants(desc, dim=6, samples=50, seed=4)
            assert c.G_pstar > 0 and c.C_p > 0

    def test_descent_inequality_with_estimated_constant(self):
        # D(x_{k+1}, xhat) <= D(x_k, xhat) - mu <g, x_k - xhat> + (G/p*) mu^p* ||g||^p*
        desc = SpaceDescriptor(1.5, 2.0)
        _, x_true, op, obs = hilbert_problem(8, 4, seed=61)
        cfg = SolverConfig(x_space=desc, y_space=HILBERT, schedule=ConstantSchedule(0.1), epochs=1)
        for attempt, samples in enumerate((400, 2000, 10000)):
            consts = estimate_constants(desc, dim=8, samples=samples, seed=5)
            state = initial_state(op, cfg)
            shadow = np.random.Generator(np.random.Philox(key=cfg.seed))
            ok = True
            for _ in range(60):
                i = int(shadow.integers(op.n_blocks))
                x = state.x  # the step advances state itself and rebinds state.x
                g = stochastic_gradient(x, obs, op, i, SpaceDescriptor(2.0, cfg.gradient_exponent))
                d_now = bregman_distance(x, x_true, desc)
                new = sgd_step(state, op, obs, cfg, 0.1, int(state.rng.integers(op.n_blocks)))
                d_new = bregman_distance(new.x, x_true, desc)
                bound = (
                    d_now
                    - 0.1 * dual_pairing(g, x - x_true)
                    + consts.G_pstar / desc.p_conj * 0.1 ** desc.p_conj
                    * lr_norm(g, desc.r_conj) ** desc.p_conj
                )
                if d_new > bound + 1e-10:
                    ok = False
                    break
                state = new
            if ok:
                return
        pytest.fail("descent inequality still violated after re-estimating the constant")


class TestRun:
    def test_zero_epochs_returns_initial_state(self):
        _, _, op, obs = hilbert_problem(6, 3, seed=71)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1),
                           epochs=0)
        result = run(op, obs, cfg)
        assert result.state.k == 0
        assert np.all(result.state.x == 0.0)
        assert result.record.epoch.size == 1

    def test_identical_seeds_identical_records(self):
        _, x_true, op, obs = hilbert_problem(8, 4, seed=81)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.2),
                           epochs=20, seed=123)
        r1 = run(op, obs, cfg, x_true=x_true, x_ref=x_true)
        r2 = run(op, obs, cfg, x_true=x_true, x_ref=x_true)
        for col in ("epoch", "objective", "residual", "bregman", "delta1", "delta2", "step"):
            assert np.array_equal(r1.record.column(col), r2.record.column(col))
        assert np.array_equal(r1.state.x, r2.state.x)

    def test_seed_changes_trajectory(self):
        _, _, op, obs = hilbert_problem(8, 4, seed=81)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.2), epochs=5)
        r1 = run(op, obs, cfg)
        r2 = run(op, obs, with_seed(cfg, 7))
        assert not np.array_equal(r1.state.x, r2.state.x)

    def test_well_conditioned_hilbert_converges(self):
        A, x_true, op, obs = hilbert_problem(10, 10, seed=91, conditioning=(0.8, 1.2))
        L = max(np.linalg.norm(b, 2) for b in op.blocks)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT,
                           schedule=ConstantSchedule(1.0 / L**2), epochs=200, seed=3)
        result = run(op, obs, cfg)  # 200 epochs x 10 iterations/epoch = 2000 steps
        assert result.state.k == 2000
        residual = lr_norm(A @ result.state.x - obs.concatenated, 2)
        assert residual < 1e-6

    def test_record_row_count_is_epochs_plus_one(self):
        _, _, op, obs = hilbert_problem(8, 4, seed=101)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1), epochs=13)
        result = run(op, obs, cfg)
        assert result.record.epoch.size == 14
        assert np.array_equal(result.record.epoch, np.arange(14.0))

    def test_objective_column_matches_objective_op(self):
        _, x_true, op, obs = hilbert_problem(8, 4, seed=111)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.2), epochs=5)
        result = run(op, obs, cfg, x_ref=x_true)
        assert result.record.objective[-1] == pytest.approx(
            objective(result.state.x, op, obs, 2.0), rel=1e-12, abs=1e-300
        )


    @pytest.mark.parametrize("method", ["sgd", "landweber"])
    def test_final_state_matches_iterate_n(self, method):
        _, x_true, op, obs = hilbert_problem(8, 4, seed=113)
        cfg = SolverConfig(x_space=SpaceDescriptor(1.5, 2.0), y_space=HILBERT,
                           schedule=ConstantSchedule(0.1), method=method, epochs=6, seed=5)
        result = run(op, obs, cfg, x_true=x_true, x_ref=x_true)
        state = iterate_n(op, obs, cfg, result.state.k)
        assert result.state.k == (6 if method == "landweber" else 24)
        assert np.array_equal(result.state.x, state.x)
        assert np.array_equal(result.state.dual_x, state.dual_x)

    def test_every_step_goes_through_the_public_step_names(self, monkeypatch):
        import banach_sgd.solver as solver

        calls = []
        for name in ("sgd_step", "landweber_step"):
            original = getattr(solver, name)

            def counted(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(solver, name, counted)
        _, _, op, obs = hilbert_problem(8, 4, seed=117)
        for method, steps in (("sgd", "sgd_step"), ("landweber", "landweber_step")):
            calls.clear()
            cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1),
                               method=method, epochs=3)
            result = run(op, obs, cfg)
            assert result.state.k > 0
            assert calls == [steps] * result.state.k

    def test_non_finite_reference_is_bad_input(self):
        # The snapshot reads an invalid Bregman distance as an overflow, so a
        # bad reference must be rejected before the first step.
        _, _, op, obs = hilbert_problem(6, 3, seed=1)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1))
        with pytest.raises(InvalidInputError, match="x_ref"):
            run(op, obs, cfg, x_ref=np.full(6, np.nan))

    def test_overflowing_residual_is_a_divergence(self):
        op = BlockOperator(1e10 * np.eye(2), HILBERT)
        obs = ObservationSet([np.ones(2)])
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(1e290))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IterationInvariantError, match="iteration 1"):
                run(op, obs, cfg)

    def test_overflow_inside_a_step_is_a_divergence(self):
        # iterate_n takes no snapshot: the second step's residual overflows to
        # inf inside the step itself, with no numpy warning escaping
        op = BlockOperator(1e10 * np.eye(2), HILBERT)
        obs = ObservationSet([np.ones(2)])
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(1e290))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IterationInvariantError, match="overflowing residual at iteration 2") as info:
                iterate_n(op, obs, cfg, 2)
        assert "mu = 1e+290" in str(info.value)

    @pytest.mark.parametrize("method", ["sgd", "landweber"])
    def test_overflow_of_the_dual_iterate_alone_is_named(self, method):
        # the first step leaves x = 1e308; the second's residual is finite, but mu * g and z - mu * g are not
        op = BlockOperator(np.eye(2), HILBERT)
        obs = ObservationSet([np.ones(2)])
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(1e308), method=method)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IterationInvariantError, match=r"overflowing dual iterate at iteration 2 \(step size mu = 1e\+308\)"):
                iterate_n(op, obs, cfg, 2)
        assert np.isfinite(op.blocks[0] @ iterate_n(op, obs, cfg, 1).x - obs.blocks[0]).all()

    @pytest.mark.parametrize("method,sparse", [("sgd", True), ("landweber", False)])
    def test_overflow_inside_a_csr_or_landweber_step_is_a_divergence(self, method, sparse):
        # the steps skip BlockOperator's checks, so each product kind must still end in the typed error
        block = CsrMatrix([0, 1, 2], [0, 1], [1e10, 1e10], (2, 2)) if sparse else 1e10 * np.eye(2)
        op = BlockOperator(block, HILBERT)
        obs = ObservationSet([np.ones(2)])
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(1e290), method=method)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IterationInvariantError, match="iteration 2") as info:
                iterate_n(op, obs, cfg, 2)
        assert "mu = 1e+290" in str(info.value)


def _snapshot_problem(sparse):
    """A dense or CSR operator with its data, and a generalized Kaczmarz config with p != r in x."""
    if sparse:
        op, obs, space = _ct_problem()
        return op, obs, SolverConfig(x_space=SpaceDescriptor(1.1, 2.0), y_space=space, schedule=ConstantSchedule(0.1),
                                     method="generalized_kaczmarz", q=1.1)
    A = build_integral_operator(40)
    y_space = SpaceDescriptor(1.5, 2.0)
    op = partition_rows(A, 8, y_space)
    obs = ObservationSet.from_full(A @ exact_sparse_signal(40) + 0.01, op)
    return op, obs, SolverConfig(x_space=SpaceDescriptor(1.3, 2.5), y_space=y_space, schedule=ConstantSchedule(0.1),
                                 method="generalized_kaczmarz", q=1.7)


def _iterates(n_rows, n, seed=0):
    """n_rows iterates near unit scale, row 1 zero and row 2 of scale 1e100."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    X = rng.normal(size=(n_rows, n)) * np.exp(rng.uniform(-2.0, 2.0, size=(n_rows, 1)))
    X[1:2] = 0.0
    X[2:3] *= 1e100
    return X


class TestSnapshotKernel:
    """run and run_seeds take each epoch's snapshots as the rows of one batch; every row must be what
    the 1-D functions give that iterate alone, bit for bit."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("n_rows", [1, 3, 8])
    @pytest.mark.parametrize("refs", ["both", "x_true", "x_ref", "neither"])
    def test_rows_equal_the_one_dimensional_quantities(self, sparse, n_rows, refs):
        op, obs, cfg = _snapshot_problem(sparse)
        rng = np.random.Generator(np.random.Philox(key=n_rows))
        x_true = rng.normal(size=op.input_dim) if refs in ("both", "x_true") else None
        x_ref = rng.normal(size=op.input_dim) if refs in ("both", "x_ref") else None
        X = _iterates(n_rows, op.input_dim, seed=n_rows)
        rows = solver._snapshot_kernel(op, obs, cfg, x_true, x_ref)(X, 7, 0.1)
        for x, row in zip(X, rows, strict=True):
            residual = op.apply_all(x) - obs.concatenated
            expected = (objective(x, op, obs, cfg.gradient_exponent), lr_norm(residual, op.output_space.r),
                        np.nan if x_ref is None else bregman_distance(x, x_ref, cfg.x_space),
                        *((np.nan, np.nan) if x_true is None else delta_metrics(x, x_true)))
            assert np.array_equal(row, expected, equal_nan=True)

    def test_a_failing_row_raises_the_error_of_its_iterate_alone(self):
        # Row 1's residual overflows; row 0's residual is finite but its Bregman distance overflows.
        A = np.full((2, 3), 1e-200)
        A[:, 2] = 1e300
        op = BlockOperator(A, HILBERT)
        obs = ObservationSet([np.ones(2)])
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1))
        X = np.array([[1e200, 1e200, 0.0], [0.0, 0.0, 1e10]])
        snapshot = solver._snapshot_kernel(op, obs, cfg, None, np.ones(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows, quantity in ((X, "residual"), (X[:1], "Bregman distance"), (X[1:], "residual")):
                with pytest.raises(IterationInvariantError, match=f"iteration 5 .*overflowing {quantity}, step size mu = 0.1") as info:
                    snapshot(rows, 5, 0.1)
                assert isinstance(info.value.__cause__, InvalidInputError)
        with pytest.raises(InvalidInputError) as alone:
            bregman_distance(X[0], np.ones(3), HILBERT)
        with pytest.raises(IterationInvariantError) as info:
            snapshot(X[:1], 5, 0.1)
        assert str(info.value.__cause__) == str(alone.value)

    def test_run_seeds_takes_one_batch_per_epoch_and_run_one_row(self, monkeypatch):
        batches = []
        make = solver._snapshot_kernel

        def counted(*args):
            snapshot = make(*args)
            return lambda X, k, mu: batches.append(X.shape) or snapshot(X, k, mu)

        monkeypatch.setattr(solver, "_snapshot_kernel", counted)
        _, x_true, op, obs = hilbert_problem(8, 4, seed=13)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1), epochs=3)
        run_seeds(op, obs, cfg, 5, x_true=x_true)
        assert batches == [(5, 8)] * 4
        batches.clear()
        run(op, obs, cfg, x_true=x_true)
        assert batches == [(1, 8)] * 4

    def test_a_huge_iterate_gives_finite_deltas_without_a_warning(self):
        # At iteration 1 the iterate's sum of squared errors overflows, and is recomputed with max-scaling,
        # while its residual and objective are finite; the objective diverges at iteration 2.
        A, x_true = build_integral_operator(60), exact_sparse_signal(60)
        op = partition_rows(A, 1)
        obs = ObservationSet.from_full(A @ x_true, op, 0.01)
        cfg = SolverConfig(x_space=SpaceDescriptor(1.5, 2.0), y_space=HILBERT, schedule=ConstantSchedule(1e200),
                           method="generalized_kaczmarz", q=1.5, epochs=4, seed=5)
        x1 = iterate_n(op, obs, cfg, 1).x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (row,) = solver._snapshot_kernel(op, obs, cfg, x_true, None)(x1[None], 1, 1e200)
            assert np.isfinite(row[:2]).all() and row[3:] == delta_metrics(x1, x_true)
            assert 1e199 < row[4] < np.inf
            with pytest.raises(IterationInvariantError, match=r"iteration 2 \(non-finite or overflowing objective"):
                run_seeds(op, obs, cfg, 2, x_true=x_true)

    @pytest.mark.parametrize("schedule", [PolynomialSchedule(0.5, 0.75), SlowDecaySchedule(0.5, 5, 2.0)],
                             ids=["polynomial", "slow_decay"])
    def test_a_priori_stop_between_epoch_ends_keeps_the_serial_record(self, schedule):
        # k(delta) = 64 is not a multiple of the 5 blocks: the last snapshot falls at 64, with mu_64, not mu_65.
        A, x_true, op, _ = hilbert_problem(10, 5, seed=21)
        obs = ObservationSet.from_full(A @ x_true, op, noise_level=0.1)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=schedule, stopping=APrioriStop(), seed=4)
        total = a_priori_stop_index(cfg.stopping, obs.noise_level, cfg.x_space.p)
        assert total == 64

        def serial(cfg):  # the record the serial loop built, from the 1-D functions
            rows = []
            for k in [*range(0, total, op.n_blocks), total]:
                x = iterate_n(op, obs, cfg, k).x
                residual = op.apply_all(x) - obs.concatenated
                rows.append((k / op.n_blocks, objective(x, op, obs, cfg.gradient_exponent),
                             lr_norm(residual, 2.0), bregman_distance(x, x_true, HILBERT), *delta_metrics(x, x_true),
                             step_size(schedule, max(k, 1))))
            return np.array(rows)

        def columns(result):
            return np.column_stack([result.record.column(c) for c in ConvergenceRecord._COLUMNS])

        assert np.array_equal(columns(run(op, obs, cfg, x_true=x_true, x_ref=x_true)), serial(cfg))
        for j, result in enumerate(run_seeds(op, obs, cfg, 3, x_true=x_true, x_ref=x_true)):
            assert np.array_equal(columns(result), serial(with_seed(cfg, 4 + j)))


def _diverging_problem():
    """Row 7 is 1e140 times the rest, so a seed diverges at its second or third draw of that row."""
    rng = np.random.Generator(np.random.Philox(key=3))
    A = rng.normal(size=(8, 6)) * 0.1
    A[7] *= 1e140
    op = BlockOperator(A, HILBERT, [1] * 8)
    return op, ObservationSet.from_full(np.ones(8), op)


class TestLockstepDivergence:
    """The seeds advance together, but a failure raises what a loop of single-seed runs raised first:
    the lowest failing seed's error, whichever seed failed first in time."""

    @pytest.mark.parametrize("x_space,q,first,n_seeds,expected", [
        # seed 6 fails inside a step at iteration 37, seed 7 in the snapshot at 8, seed 8 in a step at 3
        (HILBERT, None, 6, 3, "non-finite or overflowing residual at iteration 37"),
        # seed 0 fails in the residual at 16, seed 2 in the objective at 8
        (SpaceDescriptor(1.5, 2.0), 1.1, 0, 3, "diverged at iteration 16 (non-finite or overflowing residual"),
        # the same epoch: seed 7 fails in the objective, seed 8 in the residual, which the batch checks first
        (SpaceDescriptor(1.5, 2.0), 1.1, 7, 2, "diverged at iteration 8 (non-finite or overflowing objective"),
    ])
    def test_the_lowest_failing_seed_raises(self, x_space, q, first, n_seeds, expected):
        op, obs = _diverging_problem()
        cfg = SolverConfig(x_space=x_space, y_space=HILBERT, schedule=ConstantSchedule(1.0),
                           method="sgd" if q is None else "generalized_kaczmarz", q=q, epochs=6, seed=first)
        serial = []
        for j in range(n_seeds):
            with pytest.raises(IterationInvariantError) as info:
                run(op, obs, with_seed(cfg, first + j), x_ref=np.ones(6))
            serial.append(str(info.value))
        assert serial[0].startswith(expected) and serial[-1] != serial[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IterationInvariantError) as info:
                run_seeds(op, obs, cfg, n_seeds, x_ref=np.ones(6))
        assert str(info.value) == serial[0]

    @pytest.mark.parametrize("n_seeds,expected", [
        # seed 6 runs its 3 epochs, seed 7 fails in its snapshot at 8: two batches of both, then 4 and 2 of one
        (2, [(2, 6)] * 2 + [(1, 6)] * 6),
        # seed 8 fails in a step at 3, before the second batch; it never re-runs, since seed 7 fails alone first
        (3, [(3, 6)] + [(1, 6)] * 6),
    ])
    def test_a_failing_ensemble_re_runs_each_seed_alone_until_one_fails(self, n_seeds, expected, monkeypatch):
        op, obs = _diverging_problem()
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(1.0), epochs=3, seed=6)
        run(op, obs, cfg, x_ref=np.ones(6))
        with pytest.raises(IterationInvariantError) as serial:
            run(op, obs, with_seed(cfg, 7), x_ref=np.ones(6))
        batches = []
        make = solver._snapshot_kernel

        def recorded(*args):
            snapshot = make(*args)
            return lambda X, k, mu: batches.append(X.shape) or snapshot(X, k, mu)

        monkeypatch.setattr(solver, "_snapshot_kernel", recorded)
        with pytest.raises(IterationInvariantError) as info:
            run_seeds(op, obs, cfg, n_seeds, x_ref=np.ones(6))
        assert str(info.value) == str(serial.value) and batches == expected
        assert str(info.value.__cause__) == str(serial.value.__cause__) and info.value.__cause__.__context__ is None

    def test_a_batch_that_fails_when_no_seed_fails_alone_raises(self, monkeypatch):
        make = solver._snapshot_kernel

        def batch_only_failure(*args):
            snapshot = make(*args)

            def patched(X, k, mu):
                if len(X) > 1 and k == 8:
                    raise IterationInvariantError("the batch failed at 8")
                return snapshot(X, k, mu)
            return patched

        monkeypatch.setattr(solver, "_snapshot_kernel", batch_only_failure)
        _, x_true, op, obs = hilbert_problem(8, 4, seed=13)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1), epochs=3)
        assert run(op, obs, cfg).record.epoch.tolist() == [0, 1, 2, 3]
        with pytest.raises(IterationInvariantError, match="the batch failed at 8"):
            run_seeds(op, obs, cfg, 3, x_true=x_true)


def _reference_iterate(op, obs, cfg, n_steps):
    """The steps rebuilt from the checked public pieces, one index draw per step: (x, dual x, generator)
    after n_steps."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    x = dual = np.zeros(op.input_dim)
    for k in range(1, n_steps + 1):
        if cfg.method == "landweber":
            residual = op.apply_all(x) - obs.concatenated
            gradient = op.full_matrix.T @ duality_map(residual, cfg.residual_space)
        else:
            gradient = stochastic_gradient(x, obs, op, int(rng.integers(op.n_blocks)), cfg.residual_space)
        dual = dual - step_size(cfg.schedule, k) * gradient
        x = inverse_duality_map(dual, cfg.x_space)
    return x, dual, rng


def _generator_state(rng):
    """A Philox generator's whole state as a value that == compares."""
    s = rng.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(), s["buffer"].tolist(), s["buffer_pos"],
            s["has_uint32"], s["uinteger"])


def _ragged_problem():
    A = build_integral_operator(30)
    op = BlockOperator(A, HILBERT, [4, 11, 1, 14])
    y = A @ np.sin(np.arange(30.0))
    return op, ObservationSet.from_full(y, op)


def _ct_problem():
    geom = RadonGeometry(16, 6, 30.0, 23, 0.1)
    space = SpaceDescriptor(1.1, 2.0)
    A = build_radon_operator(geom)
    op = partition_rows(A, 6, space)
    return op, ObservationSet.from_full(A @ sparse_disk_phantom(16), op), space


class TestStepsAgainstTheCheckedReference:
    """The steps multiply the stored blocks without re-checking them; they must
    equal a loop of stochastic_gradient / apply_all and inverse_duality_map bit for bit."""

    def _assert_matches_reference(self, op, obs, cfg):
        result = run(op, obs, cfg)
        assert result.state.k >= 200
        # the last iterate_n stops one step short of an epoch end, inside an epoch's draw of indices
        k = result.state.k
        for n, state in ((k, result.state), (k, iterate_n(op, obs, cfg, k)), (k - 1, iterate_n(op, obs, cfg, k - 1))):
            x, dual, rng = _reference_iterate(op, obs, cfg, n)
            assert state.k == n
            assert np.array_equal(state.x, x)
            assert np.array_equal(state.dual_x, dual)
            assert _generator_state(state.rng) == _generator_state(rng)

    def test_sgd_on_equal_dense_blocks(self):
        _, _, op, obs = hilbert_problem(12, 4, seed=201)
        cfg = SolverConfig(x_space=SpaceDescriptor(1.5, 2.0), y_space=HILBERT,
                           schedule=SlowDecaySchedule(0.1, 4, 2.0), epochs=60, seed=11)
        self._assert_matches_reference(op, obs, cfg)

    def test_sgd_on_ragged_dense_blocks(self):
        op, obs = _ragged_problem()
        assert len(set(op.block_sizes.tolist())) == 4
        cfg = SolverConfig(x_space=SpaceDescriptor(1.5, 1.5), y_space=HILBERT,
                           schedule=ConstantSchedule(0.02), epochs=60, seed=4)
        self._assert_matches_reference(op, obs, cfg)

    def test_generalized_kaczmarz_on_csr_blocks(self):
        op, obs, space = _ct_problem()
        assert isinstance(op.blocks[0], CsrMatrix)
        cfg = SolverConfig(x_space=space, y_space=space, schedule=SlowDecaySchedule(0.05, 6, space.p_conj),
                           method="generalized_kaczmarz", q=1.1, epochs=40, seed=2)
        self._assert_matches_reference(op, obs, cfg)

    def test_landweber(self):
        op, obs = _ragged_problem()
        cfg = SolverConfig(x_space=SpaceDescriptor(1.5, 2.0), y_space=HILBERT,
                           schedule=ConstantSchedule(0.02), method="landweber", epochs=200)
        self._assert_matches_reference(op, obs, cfg)


class TestWorkCounters:
    def test_a_run_counts_its_steps_draws_and_snapshots(self):
        _, x_true, op, obs = hilbert_problem(8, 4, seed=13)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1), epochs=3, seed=6)
        for j, result in enumerate([run(op, obs, cfg, x_true=x_true), *run_seeds(op, obs, cfg, 3, x_true=x_true)]):
            shadow = np.random.Generator(np.random.Philox(key=6 + max(j - 1, 0)))
            draws = np.bincount([int(shadow.integers(op.n_blocks)) for _ in range(12)], minlength=op.n_blocks)
            assert result.step_s > 0 and result.snapshot_s > 0
            assert result.work() == {"steps": 12, "draws": draws.tolist(), "snapshots": 4,
                                     "step_s": result.step_s, "snapshot_s": result.snapshot_s}

    def test_landweber_draws_no_block(self):
        _, _, op, obs = hilbert_problem(8, 4, seed=13)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1), method="landweber",
                           epochs=5)
        work = run(op, obs, cfg).work()
        assert (work["steps"], work["snapshots"], work["draws"]) == (5, 6, [0, 0, 0, 0])


class TestHilbertReduction:
    def test_matches_euclidean_sgd_loop(self):
        # with every exponent equal to 2 the dual iteration is plain SGD
        A, _, op, obs = hilbert_problem(9, 3, seed=121)
        mu = 0.15
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(mu),
                           epochs=1, seed=42)
        state = initial_state(op, cfg)
        x = np.zeros(9)
        shadow = np.random.Generator(np.random.Philox(key=42))
        for _ in range(100):
            state = sgd_step(state, op, obs, cfg, mu, int(state.rng.integers(op.n_blocks)))
            i = int(shadow.integers(op.n_blocks))
            x = x - mu * op.blocks[i].T @ (op.blocks[i] @ x - obs.blocks[i])
        assert np.allclose(state.x, x, atol=1e-12)


class TestMonotoneBregman:
    def test_non_increasing_below_max_step(self):
        # Hilbert geometry has G = 1 exactly; any step at or below the cap keeps
        # D(x_k, solution) non-increasing on every realisation.
        A, x_true, op, obs = hilbert_problem(10, 5, seed=131)
        L = max(np.linalg.norm(b, 2) for b in op.blocks)
        mu = theoretical_max_step(ConstantsConfig(1.0, 1.0), L, 2.0)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(mu), epochs=1)
        worst = 0.0
        for seed in range(50):
            state = initial_state(op, with_seed(cfg, seed))
            d = bregman_distance(state.x, x_true, HILBERT)
            for _ in range(100):
                state = sgd_step(state, op, obs, cfg, mu, int(state.rng.integers(op.n_blocks)))
                d_new = bregman_distance(state.x, x_true, HILBERT)
                worst = max(worst, d_new - d)
                d = d_new
        assert worst <= 1e-12

    def test_coercivity_along_run(self):
        desc = SpaceDescriptor(1.5, 2.0)
        _, x_true, op, obs = hilbert_problem(8, 4, seed=141)
        cfg = SolverConfig(x_space=desc, y_space=HILBERT, schedule=ConstantSchedule(0.2),
                           epochs=50, seed=8)
        state = initial_state(op, cfg)
        cap = 0.0
        xs = []
        for k in range(200):
            state = sgd_step(state, op, obs, cfg, 0.2, int(state.rng.integers(op.n_blocks)))
            cap = max(cap, bregman_distance(state.x, x_true, desc))
            xs.append(state.x.copy())
        bound = (2 * desc.p_conj) ** desc.p * max(lr_norm(x_true, desc.r) ** desc.p, cap)
        for x in xs:
            assert lr_norm(x, desc.r) ** desc.p <= bound * (1 + 1e-12)


class TestDualStateConsistency:
    @pytest.mark.parametrize("rx,p", [(2.0, 2.0), (1.5, 2.0), (1.1, 2.0), (3.0, 2.0), (1.5, 1.5)])
    def test_dual_matches_duality_map_of_primal(self, rx, p):
        desc = SpaceDescriptor(rx, p)
        _, _, op, obs = hilbert_problem(8, 4, seed=151)
        cfg = SolverConfig(x_space=desc, y_space=HILBERT, schedule=ConstantSchedule(0.1),
                           epochs=1, seed=9)
        state = initial_state(op, cfg)
        for _ in range(50):
            state = sgd_step(state, op, obs, cfg, 0.1, int(state.rng.integers(op.n_blocks)))
            expected = duality_map(state.x, desc)
            gap = lr_norm(expected - state.dual_x, 2.0)
            assert gap <= 1e-10 * max(1.0, lr_norm(state.dual_x, 2.0))


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1),
                         method="momentum")

    def test_generalized_kaczmarz_needs_q(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1),
                         method="generalized_kaczmarz")
        with pytest.raises(ConfigurationError):
            SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1),
                         method="generalized_kaczmarz", q=2.5)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1),
                           method="generalized_kaczmarz", q=1.1)
        assert cfg.gradient_exponent == 1.1

    def test_q_disallowed_elsewhere(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1), q=1.5)

    def test_data_space_must_match_the_operator(self):
        _, _, op, obs = hilbert_problem(6, 3, seed=1)
        cfg = SolverConfig(x_space=HILBERT, y_space=SpaceDescriptor(1.5, 2.0),
                           schedule=ConstantSchedule(0.1))
        for call in (lambda: run(op, obs, cfg), lambda: iterate_n(op, obs, cfg, 1)):
            with pytest.raises(ConfigurationError, match="data space"):
                call()

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ConfigurationError, match="schedule"):
            SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=object())

    def test_epochs_positive(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1), epochs=-1)


class TestRunEntry:
    """Run entry checks what the steps read; the steps then trust it."""

    @pytest.mark.parametrize("blocks,data", [
        ([np.eye(3)], [np.array([1.0])]),  # would broadcast to x = (1, 1, 1)
        ([np.eye(3), np.eye(3)], [np.ones(2), np.ones(4)]),  # right total, wrong split
    ])
    def test_data_blocks_must_match_operator_blocks(self, blocks, data):
        op = BlockOperator(np.vstack(blocks), HILBERT, [len(b) for b in blocks])
        obs = ObservationSet(data)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.5), epochs=2)
        for call in (lambda: run(op, obs, cfg), lambda: iterate_n(op, obs, cfg, 3),
                     lambda: objective(np.zeros(3), op, obs, 2.0)):
            with pytest.raises(DimensionMismatchError, match="block sizes"):
                call()

    @pytest.mark.parametrize("reference", ["x_true", "x_ref"])
    def test_non_finite_reference_rejected_before_the_first_snapshot(self, reference, monkeypatch):
        import banach_sgd.solver as solver

        def no_snapshot(*args, **kwargs):
            raise AssertionError("snapshot taken despite a non-finite reference")

        monkeypatch.setattr(solver, "_objective_rows", no_snapshot)
        _, x_true, op, obs = hilbert_problem(8, 4, seed=5)
        x_true[3] = np.nan
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.05), epochs=1)
        with pytest.raises(InvalidInputError, match=f"{reference} contains non-finite entries"):
            run(op, obs, cfg, **{reference: x_true})

    @pytest.mark.parametrize("reference,value,error,match", [
        ("x_true", np.ones(7), DimensionMismatchError, r"x_true has shape \(7,\)"),
        ("x_ref", np.ones((8, 1)), DimensionMismatchError, r"x_ref has shape \(8, 1\)"),
        ("x_true", np.zeros(8), InvalidInputError, "reference signal must be nonzero"),
        # ||x_ref||^2 / 2 overflows: the k = 0 snapshot's Bregman distance, as in a serial run
        ("x_ref", np.full(8, 1e200), IterationInvariantError, r"iteration 0 .*overflowing Bregman distance"),
    ], ids=["x_true-length", "x_ref-2d", "x_true-zero", "x_ref-overflow"])
    def test_malformed_reference_rejected_before_the_first_step(self, reference, value, error, match, monkeypatch):
        def no_step(*args):
            raise AssertionError("step taken despite a malformed reference")

        monkeypatch.setattr(solver, "sgd_step", no_step)
        _, _, op, obs = hilbert_problem(8, 4, seed=5)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.05), epochs=1)
        for call in (lambda: run(op, obs, cfg, **{reference: value}),
                     lambda: run_seeds(op, obs, cfg, 3, **{reference: value})):
            with pytest.raises(error, match=match):
                call()

    @pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["huge", "tiny"])
    def test_huge_or_tiny_x_true_gives_finite_deltas(self, scale):
        # ||x_true||_2^2 overflows or underflows to 0; the norms are taken with max-scaling instead
        _, _, op, obs = hilbert_problem(8, 4, seed=5)
        cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.05), epochs=3)
        x_true = np.full(8, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(op, obs, cfg, x_true=x_true)
            assert (result.record.delta1[-1], result.record.delta2[-1]) == delta_metrics(result.state.x, x_true)
        deltas = np.concatenate([result.record.delta1, result.record.delta2])
        assert np.isfinite(deltas).all()
        if scale > 1:
            assert deltas == pytest.approx(1.0, rel=1e-12)

    def test_step_builds_no_descriptor(self, monkeypatch):
        built = []
        original = SpaceDescriptor.__post_init__

        def counted(self):
            built.append((self.r, self.p))
            original(self)

        monkeypatch.setattr(SpaceDescriptor, "__post_init__", counted)
        _, _, op, obs = hilbert_problem(8, 4, seed=119)
        counts = []
        for n_steps in (1, 200):
            built.clear()
            cfg = SolverConfig(x_space=SpaceDescriptor(1.5, 2.0), y_space=HILBERT,
                               schedule=ConstantSchedule(0.05))
            assert iterate_n(op, obs, cfg, n_steps).k == n_steps
            counts.append(len(built))
        assert counts[1] <= counts[0]
