"""Benchmark of banach-sgd: three solver workloads, end-to-end or traced per layer.

    python3 perfbench/run.py --workload ct-banach --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, each in a fresh process
    python3 perfbench/run.py --workload all --record   # re-record perfbench/reference.json

A run repeats whole experiments (set-up, solve, artifact write) of one
workload until --seconds have passed and enough samples exist, then prints
medians.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of spans.LAYER_METRICS with --trace 1.  A
traced run alternates untraced and traced experiments: the untraced ones
only give the baseline of trace.overhead_frac, and no end-to-end metric is
reported from it.  Times are scaled to the speed of the machine
reference.json was recorded on (see harness.py).  Full results, with sample
counts, unscaled times, the machine block and problem facts, go to
<out>/results/.

The package is imported from the checkout's src/ and nowhere else; without
it the benchmark exits with an error before measuring anything.
"""

import os
import sys
from pathlib import Path

# One BLAS thread: the block products are too small to gain from a second
# one, and a single thread keeps the run-to-run spread low.  Set before numpy
# is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main():
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    try:
        import banach_sgd
    except ImportError as exc:
        sys.exit(f"error: cannot import banach_sgd from {src}: {exc}")
    if not Path(banach_sgd.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: banach_sgd was imported from {banach_sgd.__file__}, not from {src}")
    import harness

    return harness.main(sys.argv[1:], __doc__)


if __name__ == "__main__":
    sys.exit(main())
