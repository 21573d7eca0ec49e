"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import hashlib
import json
import time

import numpy as np
import pytest
from scipy import optimize

import banach_sgd as bs
from banach_sgd import (
    APrioriStop,
    ConstantSchedule,
    ConstantsConfig,
    GaussianNoise,
    ImpulseNoise,
    ObservationSet,
    PolynomialSchedule,
    SlowDecaySchedule,
    SolverConfig,
    SpaceDescriptor,
    boyd_operator_norm,
    bregman_distance,
    build_integral_operator,
    build_radon_operator,
    corrupt,
    delta_metrics,
    dual_pairing,
    duality_map,
    exact_sparse_signal,
    initial_state,
    inverse_duality_map,
    iterate_n,
    lr_norm,
    max_block_norm,
    minimum_norm_solution,
    monte_carlo_mean,
    partition_rows,
    polyak_bound,
    rate_envelope,
    run,
    sgd_step,
    sparse_disk_phantom,
    stability_probe,
    stochastic_gradient,
    support_f1,
    theoretical_max_step,
    with_seed,
)

HILBERT = SpaceDescriptor.hilbert()


def _report(number, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {number}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]",
          flush=True)
    assert passed, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


@pytest.fixture(scope="module")
def integral_problem():
    n, nb = 200, 20
    A = build_integral_operator(n)
    x_true = exact_sparse_signal(n)
    y = A @ x_true
    return A, x_true, y, nb


def test_criterion_01_geometry_suite():
    t0 = time.time()
    cases = 0
    ok = True
    for r in (1.1, 1.5, 2.0, 3.0, 4.0):
        for p in {2.0, r}:
            desc = SpaceDescriptor(r, p)
            rng = np.random.Generator(np.random.Philox(key=int(r * 100 + p)))
            for dim in (1, 2, 3, 5, 8, 13, 21, 34, 64):
                for _ in range(4):
                    x = rng.normal(size=dim) * np.exp(rng.uniform(-2, 2))
                    if not np.any(x):
                        continue
                    nx = lr_norm(x, r)
                    j = duality_map(x, desc)
                    ok &= abs(dual_pairing(j, x) - nx ** p) <= 1e-12 * nx ** p
                    ok &= abs(lr_norm(j, desc.r_conj) - nx ** (p - 1)) <= 1e-12 * nx ** (p - 1)
                    back = inverse_duality_map(j, desc)
                    ok &= np.linalg.norm(back - x) <= 1e-10 * max(1.0, np.linalg.norm(x))
                    w = rng.normal(size=dim)
                    v = rng.normal(size=dim)
                    d = bregman_distance(x, w, desc)
                    ok &= d >= -1e-12
                    three = (
                        bregman_distance(x, v, desc)
                        + bregman_distance(v, w, desc)
                        + dual_pairing(duality_map(v, desc) - duality_map(x, desc), w - v)
                    )
                    ok &= abs(d - three) <= 1e-10
                    cases += 5
                # gradient check at a well-separated point
                xg = rng.uniform(0.05, 2.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
                jg = duality_map(xg, desc)
                step = 1e-6
                for idx in range(min(dim, 3)):
                    e = np.zeros(dim)
                    e[idx] = step
                    fd = (lr_norm(xg + e, r) ** p - lr_norm(xg - e, r) ** p) / (2 * step * p)
                    ok &= abs(jg[idx] - fd) <= 1e-5 * max(abs(fd), 1e-3)
                    cases += 1
    elapsed = time.time() - t0
    _report(1, ok and cases >= 1000, f"geometry identities over {cases} random cases", elapsed, 10.0)


def test_criterion_02_subgradient_identity_and_hilbert_reduction():
    t0 = time.time()
    ok = True
    # subgradient identity on random consistent blocks
    rng = np.random.Generator(np.random.Philox(key=2))
    for ry, exponent in [(2.0, 2.0), (1.5, 2.0), (3.0, 1.3), (1.2, 1.2)]:
        A = rng.normal(size=(12, 6))
        x_hat = rng.normal(size=6)
        op = partition_rows(A, 4, SpaceDescriptor(ry, 2.0))
        obs = ObservationSet.from_full(A @ x_hat, op)
        for i in range(4):
            x = rng.normal(size=6)
            g = stochastic_gradient(x, obs, op, i, SpaceDescriptor(ry, exponent))
            psi = lr_norm(op.apply(i, x) - obs.blocks[i], ry) ** exponent / exponent
            ok &= abs(dual_pairing(g, x - x_hat) - exponent * psi) <= 1e-10 * max(exponent * psi, 1e-30)
    # Hilbert reduction: 100 coupled steps against a hand-rolled Euclidean loop
    A = rng.normal(size=(10, 10)) + 2 * np.eye(10)
    op = partition_rows(A, 5, HILBERT)
    x_star = rng.normal(size=10)
    obs = ObservationSet.from_full(A @ x_star, op)
    mu = 0.3 / np.linalg.norm(A, 2) ** 2
    cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(mu),
                       epochs=1, seed=77)
    state = initial_state(op, cfg)
    x = np.zeros(10)
    shadow = np.random.Generator(np.random.Philox(key=77))
    worst = 0.0
    for _ in range(100):
        state = sgd_step(state, op, obs, cfg, mu, int(state.rng.integers(op.n_blocks)))
        i = int(shadow.integers(op.n_blocks))
        x = x - mu * op.blocks[i].T @ (op.blocks[i] @ x - obs.blocks[i])
        worst = max(worst, float(np.max(np.abs(state.x - x))))
    ok &= worst <= 1e-12
    _report(2, ok, f"subgradient identity + Hilbert reduction (max gap {worst:.1e})",
            time.time() - t0, 5.0)


def test_criterion_03_monotone_descent():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(key=3))
    A = rng.normal(size=(20, 12))
    x_star = rng.normal(size=12)
    op = partition_rows(A, 5, HILBERT)
    obs = ObservationSet.from_full(A @ x_star, op)
    L = max(np.linalg.norm(b, 2) for b in op.blocks)  # exact spectral norms
    mu = theoretical_max_step(ConstantsConfig(1.0, 1.0), L, 2.0)
    cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(mu), epochs=1)
    worst = -np.inf
    for seed in range(50):
        state = initial_state(op, with_seed(cfg, seed))
        d = bregman_distance(state.x, x_star, HILBERT)
        for _ in range(100):
            state = sgd_step(state, op, obs, cfg, mu, int(state.rng.integers(op.n_blocks)))
            d_new = bregman_distance(state.x, x_star, HILBERT)
            worst = max(worst, d_new - d)
            d = d_new
    _report(3, worst <= 1e-12, f"Bregman non-increasing over 50 seeds x 100 steps "
            f"(worst increment {worst:.1e})", time.time() - t0, 20.0)


def test_criterion_04_noiseless_convergence(integral_problem):
    t0 = time.time()
    A, x_true, y, nb = integral_problem
    xsp = SpaceDescriptor(1.5, 1.5)  # gauge power p = r (see decisions ledger)
    op = partition_rows(A, nb, HILBERT)
    obs = ObservationSet.from_full(y, op)
    l_max = max_block_norm(op, xsp.r, tol=1e-9, max_iter=400, restarts=2)
    x_hat = minimum_norm_solution(A, y, xsp, landweber_steps=100_000)
    schedule = SlowDecaySchedule(l_max, nb, xsp.p_conj)
    cfg = SolverConfig(x_space=xsp, y_space=HILBERT, schedule=schedule, epochs=500, seed=40)
    trace = monte_carlo_mean(op, obs, cfg, 20, "bregman", x_ref=x_hat)
    finals = []
    for j in range(20):
        res = run(op, obs, with_seed(cfg, cfg.seed + j))
        finals.append(lr_norm(A @ res.state.x - y, 2.0))
    rel_res = float(np.mean(finals)) / lr_norm(y, 2.0)
    ratio = trace.mean[-1] / trace.mean[0]
    ok = ratio <= 1e-2 and rel_res < 1e-2
    _report(4, ok, f"mean Bregman ratio {ratio:.1e} (<= 1e-2), relative residual {rel_res:.1e} (< 1e-2)",
            time.time() - t0, 60.0)


def test_criterion_05_rate_envelope():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(key=42))
    n, nb, epochs = 20, 4, 40
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    sv = np.linspace(0.3, 1.5, n)
    A = U @ np.diag(sv) @ V.T
    x_true = rng.normal(size=n)
    op = partition_rows(A, nb, HILBERT)
    obs = ObservationSet.from_full(A @ x_true, op)
    l_max = max(np.linalg.norm(b, 2) for b in op.blocks)
    mu = 0.5 * theoretical_max_step(ConstantsConfig(1.0, 1.0), l_max, 2.0)
    cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(mu),
                       epochs=epochs, seed=100)
    trace = monte_carlo_mean(op, obs, cfg, 50, "bregman", x_ref=x_true)
    # conditional stability with alpha = 1: D <= (2 sigma_min^2)^-1 ||A e||^2
    c_j = (1.0 / nb) * (2 * sv.min() ** 2) * (1 - l_max ** 2 * mu / 2.0)
    envelope = rate_envelope(trace.mean[0], 1.0, np.full(epochs * nb, mu * c_j))
    env_epochs = envelope[np.arange(epochs + 1) * nb]
    dominated = bool(np.all(trace.mean <= env_epochs * (1 + 1e-12)))
    slope = float(np.polyfit(trace.epoch[1:], np.log(trace.mean[1:]), 1)[0])
    ok = dominated and slope < 0
    _report(5, ok, f"MC mean dominated by envelope: {dominated}, log-linear slope {slope:.3f}",
            time.time() - t0, 30.0)


def test_criterion_06_polyak_bound():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(key=6))
    ok = True
    for _ in range(100):
        d0 = rng.uniform(0.05, 5.0)
        alpha = rng.uniform(0.2, 2.5)
        steps = rng.uniform(0.0, 0.4, size=40) / d0 ** alpha
        seq = [d0]
        for mu in steps:
            seq.append(seq[-1] - mu * seq[-1] ** (1.0 + alpha))
        seq = np.asarray(seq)
        bounds = polyak_bound(d0, alpha, steps)
        ok &= bool(np.all(seq <= bounds + 1e-12))
    _report(6, ok, "100 random scalar recursions dominated at every index",
            time.time() - t0, 1.0)


def test_criterion_07_regularizing_property(integral_problem):
    t0 = time.time()
    A, x_true, y, nb = integral_problem
    xsp = SpaceDescriptor(1.5, 1.5)
    op = partition_rows(A, nb, HILBERT)
    x_hat = minimum_norm_solution(A, y, xsp, landweber_steps=20_000)
    means = []
    realized = []
    for i, nominal in enumerate([0.1, 0.03, 0.01]):
        sigma = nominal / np.sqrt(A.shape[0])
        y_d, delta = corrupt(y, GaussianNoise(sigma=sigma, seed=700 + i), 2.0)
        realized.append(delta)
        obs = ObservationSet.from_full(y_d, op, delta)
        # stop rule uses the measured noise level; beta = 0.25 stops well before
        # the admissible boundary of the beta = 0.75 schedule (decisions ledger)
        rule = APrioriStop(beta=0.25, theta=0.9)
        cfg = SolverConfig(x_space=xsp, y_space=HILBERT,
                           schedule=PolynomialSchedule(2.0, 0.75), stopping=rule,
                           epochs=1, seed=70)
        vals = [run(op, obs, with_seed(cfg, 70 + s), x_ref=x_hat).record.bregman[-1]
                for s in range(20)]
        means.append(float(np.mean(vals)))
    ok = means[0] > means[1] > means[2]
    _report(7, ok, "mean Bregman at k(delta) strictly decreasing: "
            + " > ".join(f"{m:.4f}" for m in means)
            + f" at realized deltas {', '.join(f'{d:.3f}' for d in realized)}",
            time.time() - t0, 120.0)


def test_criterion_08_stability_probe(integral_problem):
    t0 = time.time()
    A, x_true, y, nb = integral_problem
    op = partition_rows(A, nb, HILBERT)
    cfg = SolverConfig(x_space=HILBERT, y_space=HILBERT, schedule=ConstantSchedule(0.1),
                       epochs=1, seed=0)
    res = stability_probe(op, y, cfg, k_fixed=50, deltas=[1e-1, 1e-2, 1e-3, 1e-4], n_seeds=20)
    decreasing = all(
        bool(np.all(np.diff(arr) <= 1e-15))
        for arr in (res.bregman_gap, res.primal_gap, res.dual_gap)
    )
    small = max(res.bregman_gap[-1], res.primal_gap[-1], res.dual_gap[-1]) < 1e-3
    ok = decreasing and small
    _report(8, ok, f"coupled-run gaps weakly decreasing: {decreasing}; "
            f"max gap at delta=1e-4 is {max(res.bregman_gap[-1], res.primal_gap[-1], res.dual_gap[-1]):.1e}",
            time.time() - t0, 60.0)


def test_criterion_09_sparse_recovery_trend():
    t0 = time.time()
    n, nb, epochs = 400, 40, 250
    A = build_integral_operator(n)
    x_true = exact_sparse_signal(n)
    y = A @ x_true
    y_d, delta = corrupt(y, ImpulseNoise(pct=0.05, seed=11), 2.0)

    def arm(rx, g_const, seed):
        xsp = SpaceDescriptor(rx, 2.0)
        ysp = SpaceDescriptor(rx, 2.0)
        op = partition_rows(A, nb, ysp)
        obs = ObservationSet.from_full(y_d, op, delta)
        l_max = max_block_norm(op, xsp.r, tol=1e-9, max_iter=400, restarts=2)
        mu = 0.5 * theoretical_max_step(ConstantsConfig(g_const, 1.0), l_max, xsp.p_conj)
        cfg = SolverConfig(x_space=xsp, y_space=ysp, schedule=ConstantSchedule(mu),
                           epochs=epochs, seed=seed)
        state = initial_state(op, cfg)
        tail = []
        for k in range(epochs * nb):
            state = sgd_step(state, op, obs, cfg, mu, int(state.rng.integers(op.n_blocks)))
            if state.k % nb == 0 and state.k > 0.9 * epochs * nb:
                tail.append(support_f1(state.x, x_true))
        return float(np.median(tail))

    wins = 0
    pairs = []
    for seed in range(10):
        # exact 2-smoothness constants of the dual space: r*-1 for l^(r*)
        f1_sparse = arm(1.1, 10.0, seed)
        f1_hilbert = arm(2.0, 1.0, seed)
        pairs.append((f1_sparse, f1_hilbert))
        wins += f1_sparse > f1_hilbert
    med = np.median([p[0] for p in pairs]), np.median([p[1] for p in pairs])
    _report(9, wins >= 8, f"median support F1 {med[0]:.3f} (X=l^1.1) vs {med[1]:.3f} (X=l^2); "
            f"sparse space wins {wins}/10 seeds", time.time() - t0, 120.0)


def test_criterion_10_ct_desk_run():
    t0 = time.time()
    geom = bs.RadonGeometry(grid_side=64, n_angles=60, angle_step=3.0, n_detectors=95,
                            pixel_size=0.1)
    A = build_radon_operator(geom)
    phantom = sparse_disk_phantom(64)
    y = A @ phantom
    y_d, delta = corrupt(y, GaussianNoise(sigma=0.01, seed=7), 2.0)
    nb, epochs = 60, 100

    def make_arm(rx, q):
        xsp = SpaceDescriptor(rx, 2.0)
        ysp = SpaceDescriptor(rx, 2.0)
        op = partition_rows(A, nb, ysp)
        obs = ObservationSet.from_full(y_d, op, delta)
        l_max = max_block_norm(op, xsp.r, tol=1e-6, max_iter=150, restarts=1)
        sched = SlowDecaySchedule(l_max / 2.0, nb, xsp.p_conj)
        method = "generalized_kaczmarz" if q else "sgd"
        return op, obs, SolverConfig(x_space=xsp, y_space=ysp, schedule=sched,
                                     method=method, q=q, epochs=epochs, seed=0)

    arms = {"banach": make_arm(1.1, 1.1), "hilbert": make_arm(2.0, None)}
    d1 = {k: [] for k in arms}
    d2 = {k: [] for k in arms}
    for seed in range(10):
        for key, (op, obs, cfg) in arms.items():
            state = iterate_n(op, obs, with_seed(cfg, seed), epochs * nb)
            a, b = delta_metrics(state.x, phantom)
            d1[key].append(a)
            d2[key].append(b)
    med_d2 = float(np.median(d2["banach"]))
    wins = sum(b < h for b, h in zip(d1["banach"], d1["hilbert"]))
    ok = med_d2 < 0.7 and wins >= 8
    _report(10, ok, f"banach median delta2 {med_d2:.3f} (< 0.7), "
            f"banach delta1 below hilbert on {wins}/10 seeds",
            time.time() - t0, 120.0)


def test_criterion_11_boyd_vs_oracles():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(key=11))
    ok = True
    worst = 0.0
    for _ in range(50):
        A = rng.normal(size=(8, 6))
        est = boyd_operator_norm(A, 2, 2, tol=1e-13, max_iter=20000, restarts=1)
        gap = abs(est.value - np.linalg.svd(A, compute_uv=False)[0])
        worst = max(worst, gap)
        ok &= gap <= 1e-8

    def oracle(A, rx, ry, starts=30):
        best = 0.0
        orng = np.random.Generator(np.random.Philox(key=999))
        for _ in range(starts):
            x0 = orng.normal(size=A.shape[1])

            def neg(x):
                nx = np.sum(np.abs(x) ** rx) ** (1 / rx)
                if nx < 1e-12:
                    return 0.0
                return -float(np.sum(np.abs(A @ x) ** ry) ** (1 / ry) / nx)

            r = optimize.minimize(neg, x0, method="Nelder-Mead",
                                  options={"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-12})
            best = max(best, -r.fun)
        return best

    worst_rel = 0.0
    for rx, ry in [(1.5, 2.0), (2.0, 1.5), (1.2, 3.0), (3.0, 1.3), (1.8, 1.2)]:
        A = rng.normal(size=(5, 4))
        est = boyd_operator_norm(A, rx, ry, tol=1e-12, max_iter=5000)
        ref = oracle(A, rx, ry)
        rel = abs(est.value - ref) / ref
        worst_rel = max(worst_rel, rel)
        ok &= rel <= 0.01
    _report(11, ok, f"SVD gap <= {worst:.1e} on 50 matrices; mixed-exponent rel err <= {worst_rel:.2%}",
            time.time() - t0, 30.0)


def test_criterion_12_end_to_end_determinism(tmp_path):
    t0 = time.time()
    config = {
        "preset": "integral",
        "n": 120,
        "n_batches": 12,
        "epochs": 5,
        "seeds": 2,
        "noise": {"kind": "impulse", "pct": 0.05, "seed": 5},
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    from banach_sgd.cli import main as cli_main

    assert cli_main(["solve", str(path)]) == 0
    hashes1 = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (tmp_path / "out").glob("*.csv")
    }
    assert cli_main(["solve", str(path)]) == 0
    hashes2 = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (tmp_path / "out").glob("*.csv")
    }
    ok = hashes1 == hashes2 and len(hashes1) == 4
    _report(12, ok, f"rerun reproduced {len(hashes1)} CSV artifacts byte-for-byte",
            time.time() - t0, 60.0)
