"""The benchmark's three workloads, each driven through the public banach_sgd calls.

A workload has three timed phases: `setup` (problem, partition, noise and norm
estimate, up to the first solver step), `solve` and `write` (artifacts).
An operation is one seed solve or one `minimum_norm_solution` call; a
workload attempts `operations` of them per experiment, and `solve` returns
one result per call it makes (the ensemble's single call stands for all its
seeds).  `summarise` gives the experiment's final_delta2 and whether it clears
the paper-level bar the acceptance criteria use.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from banach_sgd import cli, diagnostics, noise, operators, solver, spaces

# The norm-estimate settings `banach-sgd experiment` uses for a symbolic step scale.
CLI_NORM_SETTINGS = {"tol": 1e-8, "max_iter": 500, "restarts": 8}
HILBERT = spaces.SpaceDescriptor.hilbert()
RECORD_COLUMNS = ("epoch", "objective", "residual", "bregman", "delta1", "delta2", "step")


def _finite(*arrays) -> bool:
    return all(np.isfinite(np.asarray(a, dtype=float)).all() for a in arrays)


class IntegralEnsemble:
    """Criterion 4's ensemble: monte_carlo_mean of the delta2 column, noiseless n=200 integral problem."""

    name = "integral-ensemble"
    variants = 16  # --seed picks seed set (seed % 16); each set is `seeds` consecutive solver seeds
    calibration = (10, 200, 750)  # block shape and repetitions of the speed kernel (harness.py)

    def __init__(self, smoke: bool):
        self.n, self.n_batches, self.seeds, self.epochs = (40, 4, 2, 3) if smoke else (200, 20, 8, 50)
        self.steps = self.seeds * self.epochs * self.n_batches
        self.operations = self.seeds

    def setup(self, variant):
        A = operators.build_integral_operator(self.n)
        x_true = operators.exact_sparse_signal(self.n)
        op = operators.partition_rows(A, self.n_batches, HILBERT)
        obs = operators.ObservationSet.from_full(A @ x_true, op)
        x_space = spaces.SpaceDescriptor(1.5, 1.5)
        l_max = operators.max_block_norm(op, x_space.r, **CLI_NORM_SETTINGS)
        cfg = solver.SolverConfig(
            x_space=x_space, y_space=HILBERT,
            schedule=solver.SlowDecaySchedule(l_max, self.n_batches, x_space.p_conj),
            epochs=self.epochs, seed=variant * self.seeds,
        )
        return SimpleNamespace(A=A, op=op, obs=obs, cfg=cfg, x_true=x_true)

    def solve(self, p):
        trace = diagnostics.monte_carlo_mean(p.op, p.obs, p.cfg, self.seeds, "delta2", x_true=p.x_true)
        return [trace]

    def write(self, p, results, out: Path):
        trace = results[0]
        path = out / "trace_mean.csv"
        np.savetxt(path, np.column_stack([trace.epoch, trace.mean, trace.stderr]), fmt="%.17g",
                   delimiter=",", header="epoch,delta2_mean,delta2_se", comments="")
        return [path]

    @staticmethod
    def fingerprint(result):
        return result.mean.tobytes() + result.stderr.tobytes()

    @staticmethod
    def finite(result):
        return _finite(result.mean, result.stderr)

    @staticmethod
    def summarise(p, results):
        mean = results[0].mean
        d2 = float(mean[-1])
        return d2, d2 < mean[0], f"mean delta2 {d2:.4g} at the last epoch, {mean[0]:.4g} at epoch 0"


class CtBanach:
    """Criterion 10's Banach arm with the CLI's norm estimate: l^1.1 generalized Kaczmarz on 64^2 CT."""

    name = "ct-banach"
    variants = 16  # --seed picks seed set (seed % 16); each set is `seeds` consecutive solver seeds
    calibration = (95, 4096, 50)

    def __init__(self, smoke: bool):
        if smoke:
            self.geom = operators.RadonGeometry(16, 6, 30.0, 23, 0.1)
            self.n_batches, self.seeds, self.epochs = 6, 2, 2
        else:
            self.geom = operators.RadonGeometry(64, 60, 3.0, 95, 0.1)
            self.n_batches, self.seeds, self.epochs = 60, 3, 50
        self.steps = self.seeds * self.epochs * self.n_batches
        self.operations = self.seeds

    def setup(self, variant):
        A = operators.build_radon_operator(self.geom)
        phantom = operators.sparse_disk_phantom(self.geom.grid_side)
        space = spaces.SpaceDescriptor(1.1, 2.0)
        op = operators.partition_rows(A, self.n_batches, space)
        y, delta = noise.corrupt(A @ phantom, noise.GaussianNoise(sigma=0.01, seed=7), space.r)
        obs = operators.ObservationSet.from_full(y, op, delta)
        l_max = operators.max_block_norm(op, space.r, **CLI_NORM_SETTINGS)
        cfg = solver.SolverConfig(
            x_space=space, y_space=space,
            schedule=solver.SlowDecaySchedule(l_max / 2.0, self.n_batches, space.p_conj),
            method="generalized_kaczmarz", q=1.1, epochs=self.epochs,
        )
        seeds = range(variant * self.seeds, (variant + 1) * self.seeds)
        return SimpleNamespace(A=A, op=op, obs=obs, cfg=cfg, x_true=phantom, seeds=seeds)

    def solve(self, p):
        return [solver.run(p.op, p.obs, solver.with_seed(p.cfg, s), x_true=p.x_true, x_ref=p.x_true)
                for s in p.seeds]

    def write(self, p, results, out: Path):
        paths = []
        for s, result in zip(p.seeds, results):
            paths.append(out / f"trace_seed{s:04d}.csv")
            result.record.to_csv(paths[-1])
        paths.append(out / "reconstruction.pgm")
        g = self.geom.grid_side
        cli.write_pgm(paths[-1], results[0].state.x.reshape(g, g))
        return paths

    @staticmethod
    def fingerprint(result):
        return b"".join(result.record.column(c).tobytes() for c in RECORD_COLUMNS) + result.state.x.tobytes()

    @staticmethod
    def finite(result):
        return _finite(result.state.x, *(result.record.column(c) for c in RECORD_COLUMNS))

    @staticmethod
    def summarise(p, results):
        d2 = statistics.median(float(r.record.delta2[-1]) for r in results)
        return d2, d2 < 0.7, f"median delta2 {d2:.4g} over seeds {list(p.seeds)} (bar < 0.7)"


class IntegralMinnorm:
    """The reference solve of criteria 4 and 7: minimum_norm_solution in l^1.5, noiseless n=200."""

    name = "integral-minnorm"
    variants = 1  # deterministic: no random input
    calibration = (200, 200, 320)

    def __init__(self, smoke: bool):
        self.n, self.steps = (40, 200) if smoke else (200, 25_000)
        self.operations = 1

    def setup(self, variant):
        A = operators.build_integral_operator(self.n)
        x_true = operators.exact_sparse_signal(self.n)
        return SimpleNamespace(A=A, y=A @ x_true, x_true=x_true)

    def solve(self, p):
        x = diagnostics.minimum_norm_solution(p.A, p.y, spaces.SpaceDescriptor(1.5, 1.5),
                                              landweber_steps=self.steps)
        return [x]

    def write(self, p, results, out: Path):
        path = out / "reconstruction.csv"
        operators.save_matrix_csv(path, results[0][:, None])
        return [path]

    @staticmethod
    def fingerprint(result):
        return result.tobytes()

    @staticmethod
    def finite(result):
        return _finite(result)

    @staticmethod
    def summarise(p, results):
        x = results[0]
        rel = float(np.linalg.norm(p.A @ x - p.y) / np.linalg.norm(p.y))
        d2 = diagnostics.delta_metrics(x, p.x_true)[1]
        return d2, rel < 1e-2, f"relative residual {rel:.3e} (bar < 1e-2)"


WORKLOADS = {w.name: w for w in (IntegralEnsemble, CtBanach, IntegralMinnorm)}


def _arrays(*roots, caches=True):
    """Every numpy array reachable from roots through containers and banach_sgd objects.

    With caches=False, attributes whose names start with "_" are not followed.
    """
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif type(obj).__module__.startswith("banach_sgd") and hasattr(obj, "__dict__"):
            stack.extend(v for k, v in vars(obj).items() if caches or not k.startswith("_"))
    return found


def facts(p) -> dict:
    """Shapes, stored bytes and useful-multiply-add share of the problem's operator.

    stored_bytes counts the matrix the workload holds and every array its
    BlockOperator holds, caches included (the stacked full matrix).  nnz_frac
    is nonzero entries over stored entries of the float arrays the products
    run over: the operator's, without caches, or the matrix when the workload
    has no BlockOperator.
    """
    op = getattr(p, "op", None)
    matrices = [a for a in _arrays(op if op is not None else p.A, caches=False) if a.dtype.kind == "f"]
    out = {
        "matrix_shape": list(p.A.shape),
        "stored_bytes": int(sum(a.nbytes for a in _arrays(p.A, op))),
        "nnz_frac": sum(int(np.count_nonzero(a)) for a in matrices) / sum(a.size for a in matrices),
    }
    if op is not None:
        out["blocks"] = op.n_blocks
        out["block_shape"] = [op.total_rows // op.n_blocks, op.input_dim]
    return out
