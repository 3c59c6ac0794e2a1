"""Self-tests of the benchmark: every check rejects a wrong outcome, and
a short run of every workload finishes with no failed operation.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from mfl.eval_pure import Verdict  # noqa: E402
from mfl.stats import EvalStats  # noqa: E402
from workloads import (  # noqa: E402
    CheckFailed, check_knapsack, check_memo_stats, check_rerun,
    check_round_trip, check_sorted, check_verdict, knapsack_best,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_check_sorted_rejects_unsorted_and_short_lists():
    keys = [5, 1, 4, 2]
    check_sorted([1, 2, 4, 5], keys)
    for wrong in ([1, 4, 2, 5], [1, 2, 4], [1, 2, 4, 5, 5], []):
        with pytest.raises(CheckFailed):
            check_sorted(wrong, keys)


def test_check_rerun_rejects_no_reuse():
    check_rerun(fresh_work=100, rerun_work=54, rerun_hits=2)
    with pytest.raises(CheckFailed):
        check_rerun(fresh_work=100, rerun_work=54, rerun_hits=0)
    with pytest.raises(CheckFailed):
        check_rerun(fresh_work=100, rerun_work=100, rerun_hits=2)


def test_knapsack_best_matches_brute_force():
    rng = random.Random(0)
    for _ in range(50):
        items = [(rng.randint(1, 10), rng.randint(1, 20)) for _ in range(rng.randint(0, 8))]
        cap = rng.randint(0, 30)
        brute = max(sum(v for _, v in pick)
                    for r in range(len(items) + 1)
                    for pick in itertools.combinations(items, r)
                    if sum(w for w, _ in pick) <= cap)
        assert knapsack_best(items, cap) == brute


def test_check_knapsack_rejects_off_by_one():
    items, cap = [(5, 6), (4, 5), (3, 4)], 10
    check_knapsack("11", items, cap)
    for wrong in ("10", "12", "box#0(11)"):
        with pytest.raises(CheckFailed):
            check_knapsack(wrong, items, cap)


def test_check_verdict_rejects_a_failed_diff_check():
    check_verdict(Verdict(True, "outcomes agree"))
    with pytest.raises(CheckFailed):
        check_verdict(Verdict(False, "memoized and pure outcomes differ"))


def test_check_memo_stats_rejects_unbalanced_returns():
    check_memo_stats(EvalStats(memo_hits=2, memo_misses=3, returns=5))
    with pytest.raises(CheckFailed):
        check_memo_stats(EvalStats(memo_hits=2, memo_misses=3, returns=6))


def test_check_round_trip_rejects_a_changed_source():
    check_round_trip("main 1\n", "main 1\n")
    with pytest.raises(CheckFailed):
        check_round_trip("main 2\n", "main 1\n")


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_has_no_failed_operation(workload):
    for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        metrics = result["metrics"]
        assert {m["name"]: m["unit"] for m in spec} == {
            k: v["unit"] for k, v in metrics.items()}
        if trace:
            # the layers' self times add up to the traced operation time
            layers = sum(v["value"] for k, v in metrics.items()
                         if k.endswith("_ms") and k.split(".")[0] not in ("trace", "setup")
                         and "_sort_" not in k)
            assert layers == pytest.approx(metrics["trace.op_ms"]["value"], rel=1e-9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
