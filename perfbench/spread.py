"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload fuzz-diff --seeds 1-10 --seconds 30

Runs `run.py` once per seed, one run at a time, and prints each run's
metrics and, per metric, the median and the distance between the first
and third quartiles as a share of the median (`statistics.quantiles`
with n=4), the figure each bound in BENCHMARK.json is set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_of(text: str) -> "list[int]":
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="a range such as 1-10")
    ap.add_argument("--seconds", default="30")
    args = ap.parse_args()
    values: "dict[str, list[float]]" = {}
    shares = []
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed",
             str(seed), "--seconds", args.seconds, "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for k, v in row.items():
            values.setdefault(k, []).append(v)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
    print(f"failed share per run: {sorted(set(shares))}")
    for k, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        print(f"{k:12s} median {med:.6g}  iqr/median {(q3 - q1) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
