"""Bytecodes and Python calls per benchmark operation, counted exactly.

    python3 scripts/opcount.py CHECKOUT WORKLOAD N

Imports `mfl` from the `src/` of the checkout CHECKOUT, and the workload
WORKLOAD (`qsort-incr`, `knapsack-dp` or `fuzz-diff`) from this
repository's `perfbench/workloads.py`, unchanged. It makes the inputs of
seed 1 and runs one round of operations to warm the generated tier's
factory cache. Then it runs N operations under a trace function and
prints one JSON object: the bytecodes executed and the Python functions
entered, per operation. They are counted on the thread that runs the
operation: the calling thread, and the deep-stack worker for the part of
the operation handed to it. Every outcome is checked as the benchmark
checks it. The object also gives `generated_source_bytes`: the summed
length of the generated tier's sources (`mfl.tier._factories`) after
the warm-up round, that is, of the bodies the workload turns hot, and
`generated_per_op`: the calls of `mfl.tier.generate` per counted
operation, which are 0 when every hot body is reused from an earlier
compile.

Unlike a timing, the counts do not depend on the host, so two checkouts
can be compared on them where process pairs are too noisy to tell: run
the script once per checkout and compare the lines. String hashing is
fixed (`PYTHONHASHSEED=0`), since set order can change what runs.
Tracing makes an operation 20 to 50 times slower.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from tracer import NullTracer  # noqa: E402
from workloads import FuzzDiff, KnapsackDp, QsortIncr  # noqa: E402

SEED = 1
MODULES = ("corpus", "deepcall", "eval_memo", "eval_pure", "gen",
           "memostore", "parser", "pretty", "syntax", "typecheck")


class Counter:
    """A trace function that counts opcode and call events."""

    def __init__(self):
        self.bytecodes = self.calls = 0

    def call(self, frame, event, arg):
        self.calls += 1
        frame.f_trace_opcodes = True
        return self.local

    def local(self, frame, event, arg):
        if event == "opcode":
            self.bytecodes += 1
        return self.local

    def run(self, fn, *args, **kwargs):
        sys.settrace(self.call)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.settrace(None)


class CountedDeepcall:
    """`mfl.deepcall` as the workloads call it, with the job traced on
    the worker too."""

    def __init__(self, deepcall, counter: Counter):
        self.deepcall, self.counter = deepcall, counter

    def call_with_deep_stack(self, fn, *args, **kwargs):
        return self.deepcall.call_with_deep_stack(self.counter.run, fn, *args, **kwargs)


def import_mfl(checkout: Path) -> SimpleNamespace:
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    m = SimpleNamespace(**{n: importlib.import_module(f"mfl.{n}") for n in MODULES})
    if not Path(m.syntax.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"mfl was imported from {m.syntax.__file__}, not {src}")
    return m


def main(argv) -> int:
    if len(argv) != 3 or argv[1] not in ("qsort-incr", "knapsack-dp", "fuzz-diff"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    checkout, name, n = Path(argv[0]), argv[1], int(argv[2])
    m = import_mfl(checkout)
    with tempfile.TemporaryDirectory() as tmp:
        workload = {"qsort-incr": QsortIncr, "knapsack-dp": lambda: KnapsackDp(Path(tmp)),
                    "fuzz-diff": FuzzDiff}[name]()
        inputs = workload.setup(m, SEED)
        null = NullTracer()
        for item in inputs:
            workload.check(item, workload.op(m, null, item))
        source_bytes = sum(map(len, m.eval_memo.tier._factories))
        counter = Counter()
        counted = SimpleNamespace(**vars(m))
        counted.deepcall = CountedDeepcall(m.deepcall, counter)
        tier, generate, generated = m.eval_memo.tier, m.eval_memo.tier.generate, []

        def counted_generate(site):
            generated.append(site)
            return generate(site)

        tier.generate = counted_generate
        try:
            for i in range(n):
                item = inputs[i % len(inputs)]
                workload.check(item, counter.run(workload.op, counted, null, item))
        finally:
            tier.generate = generate
    print(json.dumps({"checkout": str(checkout), "workload": name, "ops": n,
                      "bytecodes_per_op": round(counter.bytecodes / n, 1),
                      "calls_per_op": round(counter.calls / n, 1),
                      "generated_source_bytes": source_bytes,
                      "generated_per_op": round(len(generated) / n, 2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
