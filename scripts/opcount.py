"""Bytecodes and Python calls per benchmark operation, counted exactly.

    python3 scripts/opcount.py CHECKOUT WORKLOAD N [--by-statement]

Imports `mfl` from the `src/` of the checkout CHECKOUT, and the workload
WORKLOAD (`qsort-incr`, `knapsack-dp` or `fuzz-diff`) from this
repository's `perfbench/workloads.py`, unchanged. It makes the inputs of
seed 1 and runs one round of operations to warm up: the generated tier
turns the workload's hot bodies into generated sites there, which
`mfl.eval_memo` keeps for later compiles. Then it runs N operations
under a trace function and prints one JSON object: the bytecodes
executed and the Python functions entered, per operation. They are
counted on the thread that runs the operation: the calling thread, and
the deep-stack worker for the part of the operation handed to it. Every
outcome is checked as the benchmark checks it. The object also gives
`generated_source_bytes`: the summed length of the distinct sources of
the generated sites kept after the warm-up round
(`mfl.eval_memo._hot_sites`, each written again with `mfl.tier._Gen`),
that is, of the bodies the workload turns hot, and `generated_per_op`:
the calls of `mfl.tier.generate` per counted operation, which are 0
when every hot body is reused from an earlier compile.

With `--by-statement` the object also attributes the bytecodes of
generated bodies to the statement kinds in `KINDS` (entry, call, depth
test, countdown, charge, memo walk, counters, other), each statement
found with `ast` in the body's source and each bytecode placed by its
column, and gives the `TOP` Python functions that ran the most of the
other bytecodes. It is about twice as slow as the plain count.

Unlike a timing, the counts do not depend on the host, so two checkouts
can be compared on them where process pairs are too noisy to tell: run
the script once per checkout and compare the lines. String hashing is
fixed (`PYTHONHASHSEED=0`), since set order can change what runs.
Tracing makes an operation 20 to 50 times slower.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import re
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
GENERATED = "<mfl generated body>"
TOP = 15
# statement kinds of generated code, each matched on a statement's source
# (an `if`'s test counts as its own statement), the first match winning
KINDS = (
    ("depth test", r"depth_limit|_too_deep"),
    ("countdown", r"^x\d+\.left|_promote"),
    ("entry", r"^def run|^S=cfg\.stats$|^D=fr\[2\]\+1$|^b\d+=fr\[\d+\]$|=cap$"),
    ("call", r"\.code$|\.run\("),
    ("charge", r"^S\.(steps|branch_events|boxes_allocated)\+=|max_branch_len|^p=|_charge|^raise$"),
    ("memo walk", r"^[LTB]=|W\d|^F,C=|^F$|mt_lookup|mt_insert|S\.probes|_Node|T\.entries"),
    ("counters", r"memo_hits|memo_misses|S\.returns|^P=|^c=|^c\[|^T\.stats|count_for|"
                 r"^T\.counts\.|computed_returns"),
    ("other", r""),
)
MODULES = ("corpus", "deepcall", "eval_memo", "eval_pure", "gen",
           "memostore", "parser", "pretty", "syntax", "typecheck")


class Counter:
    """A trace function that counts opcode and call events."""

    def __init__(self, by_statement: bool = False):
        self.bytecodes = self.calls = 0
        self.at = {} if by_statement else None  # (code, offset) -> bytecodes run there

    def placed(self, frame, event, arg):
        if event == "opcode":
            self.bytecodes += 1
            key = frame.f_code, frame.f_lasti
            self.at[key] = self.at.get(key, 0) + 1
        return self.placed

    def call_placed(self, frame, event, arg):
        self.calls += 1
        frame.f_trace_opcodes = True
        return self.placed

    def run_placed(self, fn, *args, **kwargs):
        sys.settrace(self.call_placed)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.settrace(None)

    def call(self, frame, event, arg):
        self.calls += 1
        frame.f_trace_opcodes = True
        return self.local

    def local(self, frame, event, arg):
        if event == "opcode":
            self.bytecodes += 1
        return self.local

    def run(self, fn, *args, **kwargs):
        if self.at is not None:
            return self.run_placed(fn, *args, **kwargs)
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


def statement_kinds(src: str) -> dict:
    """For each line of the generated source `src`, the column spans of
    its statements with their kinds."""
    lines = src.splitlines()
    spans: dict = {}

    def add(node, start, end, text):
        kind = next(name for name, pattern in KINDS if re.search(pattern, text))
        spans.setdefault(node.lineno, []).append((start, end, kind))

    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.FunctionDef) and node.name == "run":
            add(node, node.col_offset, len(lines[node.lineno - 1]), "def run")
        elif isinstance(node, (ast.If, ast.ExceptHandler)):
            head = node.test if isinstance(node, ast.If) else node.type
            add(head, head.col_offset, head.end_col_offset,
                ast.get_source_segment(src, head) if isinstance(node, ast.If) else "raise")
        elif isinstance(node, ast.stmt) and not isinstance(node, (ast.FunctionDef, ast.Try)):
            add(node, node.col_offset, node.end_col_offset, ast.get_source_segment(src, node))
    return spans


def attribute(at: dict, sources: "list[str]") -> "tuple[dict, list]":
    """The bytecodes of `at` run by generated code, by statement kind, and
    the others by Python function, most first."""
    def same(code):  # what tells the code of two compiles of one source apart
        return code.co_code, code.co_consts, code.co_names, code.co_varnames

    runs = {}  # the code of a generated `run` -> its source
    for src in sources:
        factory = next(c for c in compile(src, GENERATED, "exec").co_consts if hasattr(c, "co_code"))
        runs.update((same(c), src) for c in factory.co_consts if getattr(c, "co_name", "") == "run")
    kinds = dict.fromkeys((name for name, _ in KINDS), 0)
    funcs: dict = {}
    cache: dict = {}
    for (code, offset), n in at.items():
        if code.co_filename != GENERATED:
            name = f"{Path(code.co_filename).name}:{code.co_qualname}"
            funcs[name] = funcs.get(name, 0) + n
            continue
        if code not in cache:
            src = runs[same(code)]
            cache[code] = statement_kinds(src), list(code.co_positions())
        spans, positions = cache[code]
        line, _, col, _ = positions[offset // 2]
        found = [(end - start, kind) for start, end, kind in spans.get(line, ())
                 if col is not None and start <= col < end]
        kinds[min(found)[1] if found else "entry" if line is None else "other"] += n
    return kinds, sorted(funcs.items(), key=lambda item: -item[1])


def generated_sources(m) -> "list[str]":
    """The distinct sources of the generated sites that `mfl` keeps,
    written again: a site's source depends only on the site."""
    sites = m.eval_memo._hot_sites.values()
    return list(dict.fromkeys(m.eval_memo.tier._Gen(site).source() for site in sites))


def import_mfl(checkout: Path) -> SimpleNamespace:
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    m = SimpleNamespace(**{n: importlib.import_module(f"mfl.{n}") for n in MODULES})
    if not Path(m.syntax.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"mfl was imported from {m.syntax.__file__}, not {src}")
    return m


def main(argv) -> int:
    by_statement = "--by-statement" in argv
    argv = [arg for arg in argv if arg != "--by-statement"]
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
        source_bytes = sum(map(len, generated_sources(m)))
        counter = Counter(by_statement)
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
        sources = generated_sources(m)
    row = {"checkout": str(checkout), "workload": name, "ops": n,
           "bytecodes_per_op": round(counter.bytecodes / n, 1),
           "calls_per_op": round(counter.calls / n, 1),
           "generated_source_bytes": source_bytes,
           "generated_per_op": round(len(generated) / n, 2)}
    if by_statement:
        kinds, funcs = attribute(counter.at, sources)
        row["generated_by_statement_per_op"] = {kind: round(k / n, 1) for kind, k in kinds.items()}
        row["generated_share"] = round(sum(kinds.values()) / counter.bytecodes, 4)
        row["top_functions_per_op"] = [[f, round(k / n, 1)] for f, k in funcs[:TOP]]
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
