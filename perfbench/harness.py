"""Measurement loop, output checks and reporting of the benchmark; run.py is the entry point.

Every reported time is scaled to the speed of the machine reference.json was
recorded on.  Before each experiment the run times a few passes of a frozen
numpy kernel with the workload's block shape (`calibration_passes`); the
run's times are multiplied by `scale` = recorded kernel time / median pass
time of the run.  The kernel never calls banach_sgd, so a change to the
package leaves it alone, while a machine that is slower for the whole run
(another tenant's load) slows kernel and experiments alike, and cancels.
Unscaled times stay in the result file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")  # pinned by run.py
MIN_EXPERIMENTS = 3  # untraced experiments per --trace 0 run
MIN_TRACED = 2  # traced experiments per --trace 1 run, plus a warm-up and one untraced
SETUP_REPEATS = 1000  # most extra set-ups a run makes to steady setup_s
CALIBRATION_PASSES = 5  # kernel passes before each experiment


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if (index / "type").read_text().strip() != "Instruction" and level in ("2", "3"):
                info[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return info


def calibration_passes(w) -> list:
    """Seconds of each pass of a frozen numpy kernel: block products and power maps of the workload's shape."""
    rows, cols, reps = w.calibration
    rng = np.random.Generator(np.random.Philox(key=0))
    M = rng.random((rows, cols))
    v = rng.random(cols)
    times = []
    for _ in range(CALIBRATION_PASSES):
        x = v
        t0 = perf_counter()
        for _ in range(reps):
            r = M @ x
            m = float(np.max(np.abs(r)))
            u = np.abs(r / m)
            g = M.T @ (m * float(np.sum(u ** 1.5)) ** (1 / 1.5) * u ** 0.5 * np.sign(r))
            x = v + 1e-3 * np.abs(g / float(np.max(np.abs(g)))) ** 2.0 * np.sign(g)
        times.append(perf_counter() - t0)
    return times


def run_experiment(w, variant, out, tracer, first_fingerprints, reference, bars):
    """One timed experiment, traced when a Tracer is given, plus its output checks.

    Returns only small data, so the problem's arrays are freed before the next
    experiment builds its own.
    """
    rec = {"attempted": w.operations, "failed": 0, "failures": []}
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    try:
        with spans.instrument(tracer) if tracer is not None else nullcontext(), span("experiment"):
            t0 = perf_counter()
            with span("setup"):
                p = w.setup(variant)
            t1 = perf_counter()
            with span("solve"):
                results = w.solve(p)
            t2 = perf_counter()
            with span("write"):
                paths = w.write(p, results, out)
            t3 = perf_counter()
        d2, bar_ok, bar_text = w.summarise(p, results)
    except Exception:  # a failed experiment is counted and reported, and the run goes on
        traceback.print_exc()
        rec.update(failed=w.operations, failures=["raised: " + traceback.format_exc(limit=1).strip()])
        return rec, None
    rec.update(setup_s=t1 - t0, solve_s=t2 - t1, write_s=t3 - t2, experiment_s=t3 - t0,
               steps_per_s=w.steps / (t2 - t1), final_delta2=d2, bar=bar_text,
               bytes_written=sum(path.stat().st_size for path in paths))
    weight = w.operations / len(results)
    fingerprints = [w.fingerprint(r) for r in results]
    bad = set()
    for j, r in enumerate(results):
        if not w.finite(r):
            bad.add(j)
            rec["failures"].append(f"result {j} is not finite")
        if first_fingerprints is not None and fingerprints[j] != first_fingerprints[j]:
            bad.add(j)
            rec["failures"].append(f"result {j} differs bit for bit from the run's first experiment")
    if bars and not bar_ok:
        bad.update(range(len(results)))
        rec["failures"].append("below the paper-level bar: " + bar_text)
    if reference is not None and abs(d2 - reference["value"]) > reference["rtol"] * abs(reference["value"]):
        bad.update(range(len(results)))
        rec["failures"].append(f"final_delta2 {d2!r} differs from the recorded {reference['value']!r}")
    rec["failed"] = round(weight * len(bad))
    rec["facts"] = workloads.facts(p)
    return rec, fingerprints


def measure(w, variant, args, out, reference):
    """Repeat experiments for --seconds; return (records, setup samples, kernel pass times, tracer)."""
    tracer = spans.Tracer() if args.trace else None
    records, first, passes = [], None, []
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        if traced:
            tracer.run_id = len(records)
        passes += calibration_passes(w)
        rec, fingerprints = run_experiment(w, variant, out, tracer if traced else None,
                                           first, reference, bars=not args.smoke)
        # A traced run's first experiment only warms up; the untraced ones after it
        # are the baseline of trace.overhead_frac.
        rec.update(index=len(records), traced=traced, warmup=bool(args.trace) and not records)
        records.append(rec)
        if first is None:
            first = fingerprints
        done = [r for r in records if "experiment_s" in r]
        n_traced = sum(r["traced"] for r in done)
        n_plain = sum(not r["traced"] and not r["warmup"] for r in done)
        enough = (n_traced >= MIN_TRACED and n_plain >= 1) if args.trace else n_plain >= MIN_EXPERIMENTS
        if enough and perf_counter() - start >= args.seconds:
            break
        if not done and len(records) >= MIN_EXPERIMENTS:
            break  # every experiment so far raised
    setups = [r["setup_s"] for r in records if not r["traced"] and "setup_s" in r]
    if not args.trace and setups:
        # Cheap set-ups are repeated on their own so that setup_s is a median of many.
        while sum(setups) < min(1.0, args.seconds / 10) and len(setups) < SETUP_REPEATS:
            t0 = perf_counter()
            w.setup(variant)
            setups.append(perf_counter() - t0)
    return records, setups, passes, tracer


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def _median(rows, key):
    return statistics.median(r[key] for r in rows)


def end_to_end(records, setups, scale):
    plain = [r for r in records if not r["traced"] and "experiment_s" in r]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB
    return {
        "experiment_s": metric(_median(plain, "experiment_s") * scale, "s", len(plain)),
        "setup_s": metric(statistics.median(setups) * scale, "s", len(setups)),
        "steps_per_s": metric(_median(plain, "steps_per_s") / scale, "steps/s", len(plain)),
        "peak_rss_mb": metric(rss_mb, "MB", 1),
        "final_delta2": metric(plain[0]["final_delta2"], "1", len(plain)),
    }


def per_layer(records, tracer, scale):
    traced = [r for r in records if r["traced"] and "experiment_s" in r]
    plain = [r for r in records if not r["traced"] and not r["warmup"] and "experiment_s" in r]
    units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    layers = []
    for r in traced:
        layer = spans.layer_metrics(tracer, r["index"])
        layer = {k: v * scale if units[k] in ("s", "us") else v for k, v in layer.items()}
        layer["io.bytes_written"] = r["bytes_written"]
        layer["operators.stored_bytes"] = r["facts"]["stored_bytes"]
        layer["operators.nnz_frac"] = r["facts"]["nnz_frac"]
        layer["trace.overhead_frac"] = r["experiment_s"] / _median(plain, "experiment_s") - 1.0
        layers.append(layer)
    return {name: metric(_median(layers, name), unit, len(layers)) for name, unit in units.items()}


def run_one(args):
    w = workloads.WORKLOADS[args.workload](args.smoke)
    variant = args.seed % w.variants
    out = Path(args.out)
    artifacts = out / "artifacts" / w.name
    results_dir = out / "results"
    artifacts.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    reference = None
    if not args.smoke:
        reference = {"value": table["final_delta2"][w.name][variant], "rtol": table["rtol"]}

    records, setups, passes, tracer = measure(w, variant, args, artifacts, reference)
    scale = table["calibration_s"][w.name] / statistics.median(passes)
    try:
        metrics = per_layer(records, tracer, scale) if args.trace else end_to_end(records, setups, scale)
    except statistics.StatisticsError:
        sys.exit(f"error: too few experiments of {w.name} completed")
    first = next(r for r in records if "experiment_s" in r)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    failures = [f"experiment {r['index']}: {msg}" for r in records for msg in r["failures"]]
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_csv(results_dir / f"{stem}-spans.csv.gz")
    result = {
        "workload": w.name, "seed": args.seed, "variant": variant, "trace": args.trace,
        "smoke": args.smoke, "correct": failed == 0, "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted, "failures": failures, "metrics": metrics,
        "machine": machine(), "facts": first["facts"], "scale": scale, "calibration_passes": passes,
        "experiments": [{k: v for k, v in r.items() if k != "facts"} for r in records],
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"# {w.name} seed {args.seed} (input set {variant} of {w.variants}), trace {args.trace}, "
          f"{len(records)} experiments, {first['bar']}")
    print(f"# machine {json.dumps(result['machine'])}")
    print(f"# facts {json.dumps(first['facts'])}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
    plain = [r for r in records if "experiment_s" in r and not r["traced"]]
    print(f"# scale = {scale:.4g} (recorded / measured kernel time); unscaled medians: "
          f"experiment_s {_median(plain, 'experiment_s'):.6g} s, setup_s {_median(plain, 'setup_s'):.6g} s, "
          f"steps_per_s {_median(plain, 'steps_per_s'):.6g} steps/s")
    print(f"# ops_failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    for msg in failures:
        print(f"# FAILED {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()}}))
    return 0


def run_all(args):
    """Each workload in a fresh process, so peak_rss_mb is that workload's own high-water mark."""
    rows, status = [], 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), stdout=subprocess.PIPE, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        rows.append(json.loads((Path(args.out) / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json")
                               .read_text(encoding="utf-8")))
    if not rows:
        return 1
    print(f"\n{'metric':36s}" + "".join(f"{r['workload']:>22s}" for r in rows))
    for name in rows[0]["metrics"]:
        unit = rows[0]["metrics"][name]["unit"]
        print(f"{name + ' [' + unit + ']':36s}" + "".join(
            f"{r['metrics'][name]['value']:>15.6g} (n={r['metrics'][name]['samples']:>2d})" for r in rows))
    print(f"{'ops_failed_frac [1]':36s}" + "".join(
        f"{r['ops_failed_frac']:>15.6g} ({r['failed']}/{r['attempted']})".rjust(22) for r in rows))
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in rows),
        "attempted": sum(r["attempted"] for r in rows), "failed": sum(r["failed"] for r in rows),
        "metrics": {f"{r['workload']}.{k}": {"value": m["value"], "unit": m["unit"]}
                    for r in rows for k, m in r["metrics"].items()},
    }))
    return status


def record(args):
    """Re-record the kernel time and the final_delta2 of every input set of the chosen workloads.

    The kernel time is the median of 50 passes, the statistic a run uses.
    """
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    table = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {"rtol": 1e-6}
    out = Path(args.out) / "artifacts"
    for name in names:
        w = workloads.WORKLOADS[name](False)
        (out / name).mkdir(parents=True, exist_ok=True)
        table.setdefault("calibration_s", {})[name] = statistics.median(
            t for _ in range(50 // CALIBRATION_PASSES) for t in calibration_passes(w))
        values = []
        for variant in range(w.variants):
            rec, _ = run_experiment(w, variant, out / name, None, None, None, bars=True)
            if rec["failed"]:
                sys.exit(f"error: {name} input set {variant} failed: {rec['failures']}")
            values.append(rec["final_delta2"])
            print(f"{name} input set {variant}: final_delta2 {rec['final_delta2']!r}", flush=True)
        table.setdefault("final_delta2", {})[name] = values
    REFERENCE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv, doc):
    parser = argparse.ArgumentParser(prog="run.py", description=doc,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0, help="selects the input set (seed sets of the solver)")
    parser.add_argument("--seconds", type=float, default=10.0, help="least measuring time of a run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0, help="1: per-layer metrics")
    parser.add_argument("--out", default=str(ROOT / ".perfbench_out"), help="results and artifacts")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes; skips the reference and paper-level checks")
    parser.add_argument("--record", action="store_true", help="write reference.json instead of measuring")
    args = parser.parse_args(argv)
    if args.record and (args.smoke or args.trace):
        parser.error("--record measures full-size untraced experiments only")
    if args.record:
        return record(args)
    return run_all(args) if args.workload == "all" else run_one(args)

