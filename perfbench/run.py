"""Benchmark of the MFL interpreter, end to end and per layer.

    python3 perfbench/run.py --workload qsort-incr --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from `src/`
there, never from an installed copy. A run sets up SETUPS times (import
`mfl`, make the workload's inputs from `--seed`, parse or check any fixed
program) and reports the median as `setup_s`. It then runs whole rounds
of the workload's operations until `--seconds` have passed, checks each
operation's outcome, and prints one JSON object as its last line:
`correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: `op_ms` (median
CPU time of one operation), `work_per_s` (steps + probes of memoized
evaluation plus steps of pure evaluation, per CPU second of operations),
`peak_rss_mb` and `setup_s`. Times are the process's CPU time (user and
system, all threads), not wall time: on a shared virtual machine wall
time also counts the time the host ran other guests (see README.md). With `--trace 1` rounds alternate between
untraced and traced, and the metrics are per layer: self times and
counts per traced operation, a few rates, and the tracing overhead.
A copy of the result goes to `perfbench/out/`, with the spans of the
first traced operations when tracing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

from tracer import CALLEE, DEEPCALL, GC, OP, NullTracer, Tracer
from workloads import CheckFailed, FuzzDiff, KnapsackDp, Outcome, QsortIncr

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS = 5          # set-ups per run; setup_s is their median
SPAN_DUMP_OPS = 3   # traced operations whose every span is written out
MODULES = ("corpus", "deepcall", "eval_memo", "eval_pure", "gen",
           "memostore", "parser", "pretty", "syntax", "typecheck")

# span name -> the per-layer metric its self time is charged to
LAYER_OF = {
    "parser.parse": "parser.parse_ms",
    "typecheck.check_program": "typecheck.check_ms",
    "eval_memo.run_program": "eval_memo.self_ms",
    "eval_memo.eval_term": "eval_memo.self_ms",
    "memostore.mt_lookup": "memostore.lookup_ms",
    "memostore.mt_insert": "memostore.insert_ms",
    "syntax.subst": "syntax.subst_ms",
    "syntax.erase": "syntax.erase_ms",
    "eval_pure.run_program_pure": "eval_pure.self_ms",
    "eval_pure.diff_check": "eval_pure.self_ms",
    DEEPCALL: "deepcall.handoff_ms",
    GC: "gc.pause_ms",
    "pretty.print_value": "pretty.print_ms",
    OP: "bench.glue_ms",
    CALLEE: "bench.glue_ms",
    "bench.fresh_sort": "bench.glue_ms",
    "bench.rerun_sort": "bench.glue_ms",
}
SELF_MS = tuple(dict.fromkeys(LAYER_OF.values()))
COUNTS = {"memostore.lookups": "memostore.mt_lookup",
          "memostore.inserts": "memostore.mt_insert",
          "syntax.subst_calls": "syntax.subst",
          "gc.collections": GC}
NO_OUTCOME = Outcome(0, 0, 0, 0, 0)  # counted for a wrong result
UNITS = {"_per_s": "1/s", "_ms": "ms", "_s": "s", "_mb": "MB", "_pct": "%",
         "_ratio": "fraction"}


def import_mfl() -> SimpleNamespace:
    """Import `mfl` afresh from this checkout's `src/`."""
    for name in [n for n in sys.modules if n == "mfl" or n.startswith("mfl.")]:
        del sys.modules[name]
    m = SimpleNamespace(**{n: importlib.import_module(f"mfl.{n}") for n in MODULES})
    if not Path(m.syntax.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"mfl was imported from {m.syntax.__file__}, not {SRC}")
    return m


def make_workload(name: str):
    if name == "qsort-incr":
        return QsortIncr()
    if name == "knapsack-dp":
        return KnapsackDp(OUT / "inputs")
    return FuzzDiff()


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def rate(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tally:
    """Sums over the checked operations of one kind (traced or not). Only
    a float per operation is kept, so the run's own memory stays flat."""

    def __init__(self):
        self.times = array("d")  # CPU seconds of each operation
        self.work = self.memo_steps = self.hits = self.returns = self.tokens = 0

    def add(self, seconds: float, outcome, tokens: int) -> None:
        self.times.append(seconds)
        self.work += outcome.work
        self.memo_steps += outcome.memo_steps
        self.hits += outcome.hits
        self.returns += outcome.returns
        self.tokens += tokens


def run_rounds(workload, m, inputs, seconds: float, tracer):
    """Whole rounds until `seconds` have passed; with a tracer, odd rounds
    are traced and the run stops after a traced round.

    Returns the tallies of untraced and traced operations, the ids of the
    traced ones, and the attempted and failed counts and correctness.
    """
    null = NullTracer()
    plain, traced_tally = Tally(), Tally()
    traced_ops: "set[int]" = set()
    attempted = failed = 0
    correct = True
    start = perf_counter()
    rnd = 0
    while True:
        traced = tracer is not None and rnd % 2 == 1
        tr = tracer if traced else null
        if traced:
            tracer.install(m)
        for item in inputs:
            op_id = attempted
            attempted += 1
            if traced:
                tracer.op = op_id
            try:
                t0 = process_time()
                with tr.span(OP):
                    result = workload.op(m, tr, item)
                dt = process_time() - t0
            except Exception:  # the program failed this operation
                failed += 1
                traceback.print_exc()
                continue
            try:
                outcome = workload.check(item, result)
            except CheckFailed as exc:
                correct = False
                print(f"{workload.name} operation {op_id}: {exc}", file=sys.stderr)
                outcome = NO_OUTCOME
            (traced_tally if traced else plain).add(dt, outcome, item.tokens)
            if traced:
                traced_ops.add(op_id)
        if traced:
            tracer.uninstall()
        rnd += 1
        if perf_counter() - start >= seconds and (tracer is None or rnd % 2 == 0):
            return plain, traced_tally, traced_ops, attempted, failed, correct


def end_to_end(plain: Tally, setups) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_ms": statistics.median(plain.times) * 1e3,
        "work_per_s": plain.work / sum(plain.times),
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": statistics.median(setups),
    }


def per_layer(plain: Tally, traced: Tally, traced_ops: "set[int]", tracer: Tracer,
              setup_tokens: int, import_times) -> dict:
    n = len(traced_ops)
    own = tracer.self_times()
    self_s = dict.fromkeys(SELF_MS, 0.0)
    inclusive: "dict[str, float]" = {}
    calls: "dict[str, int]" = {}
    parse_s = 0.0
    for i, op in enumerate(tracer.op_of):
        name = tracer.names[tracer.name[i]]
        if name == "parser.parse":
            parse_s += own[i]  # set-up parses count towards the token rate
        if op not in traced_ops:
            continue
        layer = LAYER_OF[name]
        self_s[layer] += own[i]
        inclusive[name] = inclusive.get(name, 0.0) + tracer.end[i] - tracer.start[i]
        calls[name] = calls.get(name, 0) + 1
    metrics = {layer: s * 1e3 / n for layer, s in self_s.items()}
    metrics.update({name: calls.get(span, 0) / n for name, span in COUNTS.items()})
    metrics.update({
        "parser.tokens_per_s": rate(traced.tokens + setup_tokens, parse_s),
        "eval_memo.steps_per_s": rate(traced.memo_steps, self_s["eval_memo.self_ms"]),
        "eval_memo.fresh_sort_ms": inclusive.get("bench.fresh_sort", 0.0) * 1e3 / n,
        "eval_memo.rerun_sort_ms": inclusive.get("bench.rerun_sort", 0.0) * 1e3 / n,
        "memostore.hit_ratio": rate(traced.hits, traced.returns),
        "trace.op_ms": inclusive[OP] * 1e3 / n,
        "trace.overhead_pct": (statistics.median(traced.times)
                               / statistics.median(plain.times) - 1) * 100,
        "setup.import_ms": statistics.median(import_times) * 1e3,
    })
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("qsort-incr", "knapsack-dp", "fuzz-diff"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mfl" / "__init__.py").is_file():
        print(f"no MFL sources at {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = make_workload(args.workload)
    tracer = Tracer() if args.trace else None
    setups, import_times = [], []
    for k in range(SETUPS):
        t0 = process_time()
        m = import_mfl()
        t1 = process_time()
        traced_setup = tracer is not None and k == SETUPS - 1
        if traced_setup:
            tracer.install(m)
        inputs = workload.setup(m, args.seed)
        t2 = process_time()
        if traced_setup:
            tracer.uninstall()
        import_times.append(t1 - t0)
        setups.append(t2 - t0)

    plain, traced, traced_ops, attempted, failed, correct = run_rounds(
        workload, m, inputs, args.seconds, tracer)
    if not plain.times or (tracer is not None and not traced.times):
        print("no operation succeeded", file=sys.stderr)
        return 1
    dump: dict = {"workload": args.workload, "seed": args.seed}
    if tracer is None:
        metrics = end_to_end(plain, setups)
    else:
        metrics = per_layer(
            plain, traced, traced_ops, tracer, workload.setup_tokens, import_times)
        first = sorted(traced_ops)[:SPAN_DUMP_OPS]
        dump["span_fields"] = ["op", "id", "parent", "name", "start", "end"]
        dump["spans"] = list(tracer.rows({-1, *first}))
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    dump["result"] = result
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dump) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
