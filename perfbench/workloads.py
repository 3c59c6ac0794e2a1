"""The benchmark's workloads: inputs made from a seed, one operation, and
a check of each operation's outcome made apart from the program.

Every workload holds a fixed list of inputs, one *round*. A run repeats
whole rounds, so every run attempts the same operations in the same
proportions. Each operation starts from a fresh store, so a repeated
input costs what it cost the first time.

Operations call `mfl` only through module attributes (`m.parser.parse`,
`m.eval_memo.run_program`, ...), which is where the tracer intercepts
them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

QSORT_N = 128         # list length, the low end of criterion 4's range
QSORT_TRIALS = 16     # distinct key sets per round
KNAPSACK_ITEMS = 20
KNAPSACK_CAPACITY = 40
KNAPSACK_PROGRAMS = 16
FUZZ_PROGRAMS = 500

_ITEM_CONS = "box (roll [pl] (inr [unit + ((int * int) * plist)] ((({w}, {v}), {tail}))))"


class CheckFailed(Exception):
    """An operation's outcome disagrees with the benchmark's own oracle."""


@dataclass
class Outcome:
    """What the run loop needs from a checked operation."""

    memo_steps: int   # rule applications of memoized evaluation
    memo_probes: int  # hash probes of memoized evaluation
    pure_steps: int   # rule applications of pure evaluation
    hits: int
    returns: int

    @property
    def work(self) -> int:
        """The paper's cost unit: steps + probes, memoized and pure."""
        return self.memo_steps + self.memo_probes + self.pure_steps


def check_memo_stats(stats) -> None:
    """Every return of a memoized run is either a hit or a miss."""
    if stats.memo_hits + stats.memo_misses != stats.returns:
        raise CheckFailed(f"memo_hits {stats.memo_hits} + memo_misses "
                          f"{stats.memo_misses} != returns {stats.returns}")


def _memo_outcome(stats, pure_steps: int = 0) -> Outcome:
    check_memo_stats(stats)
    return Outcome(stats.steps, stats.probes, pure_steps,
                   stats.memo_hits, stats.returns)


# --------------------------------------------------------------------------
# qsort-incr: hash-cons a list, sort it, prepend one key, sort again
# --------------------------------------------------------------------------


@dataclass
class QsortInput:
    base: "list[int]"  # the list, in order
    new: int           # the key prepended for the rerun
    tokens: int = 0    # parsed during set-up, not by the operation


def decode_list(v, boxes) -> "list[int]":
    """Read a boxed `rec u . unit + (int * u box)` list into Python,
    walking the store's box registry by node class name."""
    out = []
    while True:
        if type(v).__name__ != "BoxVal":
            raise CheckFailed(f"not a box: {v!r}")
        cell = boxes[v.tag]
        if type(cell).__name__ != "Roll":
            raise CheckFailed(f"not a rolled cell: {cell!r}")
        s = cell.body
        if type(s).__name__ == "Inl":
            return out
        if (type(s).__name__ != "Inr" or type(s.body).__name__ != "Pair"
                or type(s.body.left).__name__ != "IntLit"):
            raise CheckFailed(f"not a list cell: {s!r}")
        out.append(s.body.left.value)
        v = s.body.right


def check_sorted(got: "list[int]", keys: "list[int]") -> None:
    if got != sorted(keys):
        raise CheckFailed(f"sorted {len(keys)} keys to a list of "
                          f"{len(got)} that is not sorted(keys)")


def check_rerun(fresh_work: int, rerun_work: int, rerun_hits: int) -> None:
    """An incremental rerun reuses at least one call of the sort itself
    and does less work than sorting from scratch."""
    if rerun_hits < 1:
        raise CheckFailed("the rerun never hit mqs's own table")
    if rerun_work >= fresh_work:
        raise CheckFailed(f"rerun work {rerun_work} >= fresh work {fresh_work}")


class QsortIncr:
    name = "qsort-incr"

    def setup(self, m, seed: int):
        src = m.corpus.corpus_source("quicksort")
        program = m.parser.parse(src)
        m.typecheck.check_program(program)
        self.decls = m.syntax.Program(program.decls, m.syntax.UnitLit())
        self.setup_tokens = len(m.parser.tokenize(src))
        inputs = []
        for t in range(QSORT_TRIALS):
            rng = random.Random(f"perfbench:qsort:{seed}:{t}")
            keys = rng.sample(range(4 * (QSORT_N + 1)), QSORT_N + 1)
            inputs.append(QsortInput(keys[1:], keys[0]))
        return inputs

    def op(self, m, tr, item: QsortInput):
        return m.deepcall.call_with_deep_stack(self._trial, m, tr, item)

    def _trial(self, m, tr, item: QsortInput):
        s = m.syntax
        em = m.eval_memo
        cfg = em.EvalConfig()
        store = m.memostore.Store()
        decl = em.run_program(self.decls, cfg, store).decl_values
        hcons, mqs = decl["hcons"], decl["mqs"]
        stats = cfg.stats

        def cons(k, tail):
            return em.eval_term(store, s.Apply(hcons, s.Pair(s.Bang(s.IntLit(k)), s.Bang(tail))), cfg)[0]

        def sort(lst):
            return em.eval_term(store, s.Apply(mqs, s.Bang(lst)), cfg)[0]

        def mqs_hits():
            return stats.per_table.get(mqs.loc, (0, 0))[0]

        lst = decl["empty"]
        for k in reversed(item.base):
            lst = cons(k, lst)
        work0 = stats.total_work()
        fresh = tr.mark("bench.fresh_sort", sort, lst)
        work1, hits1 = stats.total_work(), mqs_hits()
        rerun = tr.mark("bench.rerun_sort", sort, cons(item.new, lst))
        return {"store": store, "stats": stats, "fresh": fresh, "rerun": rerun,
                "fresh_work": work1 - work0,
                "rerun_work": stats.total_work() - work1,
                "rerun_hits": mqs_hits() - hits1}

    def check(self, item: QsortInput, r) -> Outcome:
        boxes = r["store"].boxes
        check_sorted(decode_list(r["fresh"], boxes), item.base)
        check_sorted(decode_list(r["rerun"], boxes), item.base + [item.new])
        check_rerun(r["fresh_work"], r["rerun_work"], r["rerun_hits"])
        return _memo_outcome(r["stats"])


# --------------------------------------------------------------------------
# knapsack-dp: the `mfl run` path on generated 0/1-knapsack programs
# --------------------------------------------------------------------------


@dataclass
class KnapsackInput:
    path: Path
    items: "list[tuple[int, int]]"  # (weight, value)
    capacity: int
    tokens: int


def knapsack_source(decls: str, items, capacity: int) -> str:
    """`decls` (the corpus program's type and function declarations)
    followed by a boxed item list and a query for `capacity`."""
    lines, tail = [], "pnil"
    for i, (w, v) in enumerate(reversed(items)):
        lines.append(f"val it{i} = " + _ITEM_CONS.format(w=w, v=v, tail=tail))
        tail = f"it{i}"
    return decls + "\n".join(lines) + f"\n\nmain ks ((!{capacity}, !{tail}))\n"


def knapsack_best(items, capacity: int) -> int:
    """0/1 knapsack by the textbook table over capacities."""
    best = [0] * (capacity + 1)
    for w, v in items:
        for c in range(capacity, w - 1, -1):
            best[c] = max(best[c], best[c - w] + v)
    return best[capacity]


def check_knapsack(printed: str, items, capacity: int) -> None:
    want = knapsack_best(items, capacity)
    if printed != str(want):
        raise CheckFailed(f"knapsack printed {printed!r}, the DP gives {want}")


class KnapsackDp:
    name = "knapsack-dp"

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, m, seed: int):
        corpus = m.corpus.corpus_source("knapsack")
        cut = corpus.find("val items")
        if cut < 0:
            raise RuntimeError("corpus knapsack.mfl has no `val items` declaration")
        decls = corpus[:cut]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.setup_tokens = 0
        inputs = []
        for p in range(KNAPSACK_PROGRAMS):
            rng = random.Random(f"perfbench:knapsack:{seed}:{p}")
            items = [(rng.randint(1, 10), rng.randint(1, 20))
                     for _ in range(KNAPSACK_ITEMS)]
            src = knapsack_source(decls, items, KNAPSACK_CAPACITY)
            path = self.workdir / f"knapsack-{p}.mfl"
            path.write_text(src, encoding="utf-8")
            inputs.append(KnapsackInput(path, items, KNAPSACK_CAPACITY,
                                        len(m.parser.tokenize(src))))
        return inputs

    def op(self, m, tr, item: KnapsackInput):
        program = m.parser.parse(item.path.read_text(encoding="utf-8"))
        m.typecheck.check_program(program)
        cfg = m.eval_memo.EvalConfig()
        result = m.deepcall.call_with_deep_stack(m.eval_memo.run_program, program, cfg)
        printed = m.pretty.print_value(m.syntax.erase(result.value), result.store.boxes)
        return printed, cfg.stats

    def check(self, item: KnapsackInput, r) -> Outcome:
        printed, stats = r
        check_knapsack(printed, item.items, item.capacity)
        return _memo_outcome(stats)


# --------------------------------------------------------------------------
# fuzz-diff: the `mfl diff` path on many small generated programs
# --------------------------------------------------------------------------


@dataclass
class FuzzInput:
    src: str
    tokens: int


def check_verdict(verdict) -> None:
    if not verdict.ok:
        raise CheckFailed(f"diff_check: {verdict.detail}")


def check_round_trip(printed: str, src: str) -> None:
    if printed != src:
        raise CheckFailed("print_program(parse(src)) differs from src")


class FuzzDiff:
    name = "fuzz-diff"

    def setup(self, m, seed: int):
        self.print_program = m.pretty.print_program
        self.setup_tokens = 0
        inputs = []
        for i in range(FUZZ_PROGRAMS):
            src = m.pretty.print_program(m.gen.gen_program(f"perfbench:fuzz:{seed}:{i}"))
            inputs.append(FuzzInput(src, len(m.parser.tokenize(src))))
        return inputs

    def op(self, m, tr, item: FuzzInput):
        program = m.parser.parse(item.src)
        m.typecheck.check_program(program)
        verdict = m.deepcall.call_with_deep_stack(m.eval_pure.diff_check, program)
        return program, verdict

    def check(self, item: FuzzInput, r) -> Outcome:
        program, verdict = r
        check_verdict(verdict)
        check_round_trip(self.print_program(program), item.src)
        if verdict.memo_stats is None:  # both semantics faulted alike
            return Outcome(0, 0, 0, 0, 0)
        return _memo_outcome(verdict.memo_stats, verdict.pure_stats.steps)
