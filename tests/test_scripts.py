"""The measuring scripts run on this checkout: `scripts/opcount.py` and
`scripts/abtime.py` each exit 0 and print one JSON line with the keys
their docstrings name, and the generated tier compiles nothing after
the warm-up round."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> dict:
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), ".", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    return json.loads(line)


def test_opcount_counts_generated_code_by_statement():
    row = _run("opcount.py", "knapsack-dp", "1", "--by-statement")
    assert set(row) == {"checkout", "workload", "ops", "bytecodes_per_op", "calls_per_op",
                        "generated_source_bytes", "generated_per_op",
                        "generated_by_statement_per_op", "generated_share",
                        "top_functions_per_op"}
    assert (row["workload"], row["ops"]) == ("knapsack-dp", 1)
    assert row["bytecodes_per_op"] > 0 and row["calls_per_op"] > 0
    assert row["generated_source_bytes"] > 0
    assert row["generated_per_op"] == 0
    assert row["generated_share"] > 0
    assert sum(row["generated_by_statement_per_op"].values()) > 0


def test_abtime_times_operations():
    row = _run("abtime.py", "fuzz-diff", "2")
    assert set(row) == {"checkout", "workload", "ops", "op_ms", "q1_ms", "q3_ms", "peak_rss_mb"}
    assert (row["workload"], row["ops"]) == ("fuzz-diff", 2)
    assert 0 <= row["q1_ms"] <= row["op_ms"] <= row["q3_ms"]
    assert row["peak_rss_mb"] > 0
