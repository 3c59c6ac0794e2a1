"""Cost measurements: the quicksort-rerun experiment of `mfl bench`.

Cost is counted in big-step rule applications plus hash probes
(`EvalStats.total_work`). The experiment sorts a random permutation,
prepends a fresh key to the *same* boxed list, sorts again in the same
store, and reports the second run's work and its hit/miss counts
against the sort function's own memo table. (The filters and helpers are memoized
functions too, an encoding artifact of a calculus without plain
functions; their extra hits would drown the signal the experiment is
about, which is why the count is per-table.)
"""

from __future__ import annotations

import random
from statistics import fmean

from .corpus import decode_int_list, load
from .deepcall import call_with_deep_stack
from .errors import MflError
from .eval_memo import EvalConfig, eval_term, run_program
from .memostore import Store
from .syntax import Apply, Bang, IntLit, Pair, Program, UnitLit
from .typecheck import check_program


def _quicksort_trial(program: Program, base_keys: "list[int]", new_key: int) -> dict:
    cfg = EvalConfig()
    store = Store()
    decls_only = Program(program.decls, UnitLit())
    rr = run_program(decls_only, cfg, store)
    hcons = rr.decl_values["hcons"]
    empty = rr.decl_values["empty"]
    mqs = rr.decl_values["mqs"]
    stats = cfg.stats

    lst = empty
    for k in reversed(base_keys):
        lst = eval_term(store, Apply(hcons, Pair(Bang(IntLit(k)), Bang(lst))), cfg)[0]

    def table_counts():
        cell = stats.per_table.get(mqs.loc)
        return (cell[0], cell[1]) if cell else (0, 0)

    work0 = stats.total_work()
    sorted_v = eval_term(store, Apply(mqs, Bang(lst)), cfg)[0]
    fresh_steps = stats.total_work() - work0
    if decode_int_list(sorted_v, store.boxes) != sorted(base_keys):
        raise MflError("quicksort benchmark produced an unsorted result")

    hits0, misses0 = table_counts()
    work1 = stats.total_work()
    bigger = eval_term(store, Apply(hcons, Pair(Bang(IntLit(new_key)), Bang(lst))), cfg)[0]
    rerun_v = eval_term(store, Apply(mqs, Bang(bigger)), cfg)[0]
    rerun_steps = stats.total_work() - work1
    hits1, misses1 = table_counts()
    if decode_int_list(rerun_v, store.boxes) != sorted(base_keys + [new_key]):
        raise MflError("quicksort rerun produced an unsorted result")

    return {
        "fresh_steps": fresh_steps,
        "rerun_steps": rerun_steps,
        "rerun_hits": hits1 - hits0,
        "rerun_misses": misses1 - misses0,
    }


def quicksort_rows(sizes: "list[int]", trials: int, seed: int,
                   program: "Program | None" = None) -> "list[dict]":
    """Average fresh-run and prepend-rerun costs per list length.

    Each trial draws `n + 1` distinct keys with the trial's own seeded
    generator: n of them form the list, the remaining one is prepended
    for the rerun, landing at a uniformly random rank.
    """
    program = program or load("quicksort")
    check_program(program)
    rows = []
    for n in sizes:
        acc: "dict[str, list[float]]" = {
            "fresh_steps": [], "rerun_steps": [], "rerun_hits": [], "rerun_misses": []}
        for trial in range(trials):
            rng = random.Random(f"mfl-bench:{seed}:{n}:{trial}")
            keys = rng.sample(range(4 * (n + 1)), n + 1)
            row = call_with_deep_stack(_quicksort_trial, program, keys[1:], keys[0])
            for key, value in row.items():
                acc[key].append(value)
        rows.append({"n": n, **{k: fmean(v) for k, v in acc.items()}})
    return rows


def bench_quicksort(sizes: "list[int]", trials: int, seed: int,
                    program: "Program | None" = None) -> dict:
    """The full benchmark document, as written by `mfl bench`."""
    return {
        "benchmark": "quicksort",
        "seed": seed,
        "trials": trials,
        "rows": quicksort_rows(sizes, trials, seed, program),
    }
