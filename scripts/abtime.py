"""CPU time per benchmark operation, measured in one process.

    python3 scripts/abtime.py CHECKOUT WORKLOAD N

Imports `mfl` from the `src/` of the checkout CHECKOUT, and the workload
WORKLOAD (`qsort-incr`, `knapsack-dp` or `fuzz-diff`) from this
repository's `perfbench/workloads.py`, unchanged. It makes the inputs of
seed 1 and runs one round of operations to warm up (the generated tier
compiles its hot bodies there). Then it runs N operations, checks each
outcome as the benchmark does, and prints one JSON object: the median
and quartiles of the process CPU time (all threads, as `perfbench/run.py`
times `op_ms`) of one operation, in ms, and the process's peak RSS.
String hashing is fixed (`PYTHONHASHSEED=0`), as in `opcount.py`.

To compare two checkouts, run the script alternately on each, several
processes per side, and compare the medians: one process holds one tree,
so the two never share a heap or generated code. In-process medians
scatter much less than `perfbench/run.py`'s, which starts five set-ups
and times whole 30-s runs.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))
from opcount import SEED, import_mfl  # noqa: E402  (also puts perfbench/ on the path)
from tracer import NullTracer  # noqa: E402
from workloads import FuzzDiff, KnapsackDp, QsortIncr  # noqa: E402


def main(argv) -> int:
    if len(argv) != 3 or argv[1] not in ("qsort-incr", "knapsack-dp", "fuzz-diff"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    checkout, name, n = Path(argv[0]), argv[1], int(argv[2])
    m = import_mfl(checkout)
    null = NullTracer()
    with tempfile.TemporaryDirectory() as tmp:
        workload = {"qsort-incr": QsortIncr, "knapsack-dp": lambda: KnapsackDp(Path(tmp)),
                    "fuzz-diff": FuzzDiff}[name]()
        inputs = workload.setup(m, SEED)
        for item in inputs:
            workload.check(item, workload.op(m, null, item))
        times = []
        for i in range(n):
            item = inputs[i % len(inputs)]
            t0 = process_time()
            result = workload.op(m, null, item)
            times.append(process_time() - t0)
            workload.check(item, result)
    q1, median, q3 = statistics.quantiles(times, n=4) if n > 1 else times * 3
    print(json.dumps({"checkout": str(checkout), "workload": name, "ops": n,
                      "op_ms": round(median * 1e3, 3), "q1_ms": round(q1 * 1e3, 3),
                      "q3_ms": round(q3 * 1e3, 3),
                      "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                           / 1024, 2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
