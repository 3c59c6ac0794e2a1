"""Acceptance suite: one test per shipped claim, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to watch).
Thresholds and budgets are fixed here, not tuned at run time.
"""

import time
from contextlib import contextmanager

import pytest

from oracles import fib_call_tree
from support import mutant, overhead_ratio
from test_typecheck import NEGATIVE_PROGRAMS
from mfl.bench import quicksort_rows
from mfl.corpus import CORPUS_NAMES, load
from mfl.errors import MflTypeError
from mfl.eval_memo import EvalConfig, eval_term, run_program
from mfl.eval_pure import diff_check, run_program_pure
from mfl.gen import gen_program
from mfl.parser import parse
from mfl.syntax import Apply, Bang, IntLit, Program, Var, subst
from mfl.typecheck import check_program


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def fib_program(n: int) -> Program:
    program = load("fib")
    return Program(program.decls, Apply(Var("mfib"), Bang(IntLit(n))))


def test_criterion_1_soundness():
    with criterion(1, "soundness: corpus + 500 generated programs agree"):
        start = time.monotonic()
        for name in CORPUS_NAMES:
            verdict = diff_check(load(name))
            assert verdict.ok, (name, verdict.detail)
        for i in range(500):
            program = gen_program(f"acceptance:{i}")
            verdict = diff_check(program)
            assert verdict.ok, (i, verdict.detail)
        assert time.monotonic() - start < 120


def test_criterion_2_fibonacci_reuse():
    with criterion(2, "fibonacci reuse: exact counter formula + 100x split"):
        for n in (5, 10, 20):
            cfg = EvalConfig(checked=True)
            run_program(fib_program(n), cfg)
            misses, hits, _ = fib_call_tree(n)
            assert (misses, hits) == (n + 1, max(0, n - 2))
            assert cfg.stats.memo_misses == n + 1
            assert cfg.stats.memo_hits == n - 2
        memo = EvalConfig()
        run_program(fib_program(20), memo)
        pure = run_program_pure(fib_program(20))
        assert pure.stats.steps >= 100 * memo.stats.total_work()


def test_criterion_3_constant_overhead():
    with criterion(3, "constant overhead: cold/pure ratio flat over sizes"):
        start = time.monotonic()
        ratios = overhead_ratio(load("fib"), [10, 14, 18, 22])
        assert max(ratios) / min(ratios) <= 2.0, ratios
        assert time.monotonic() - start < 30


def test_criterion_4_quicksort_incremental():
    with criterion(4, "quicksort rerun: linear vs superlinear separation"):
        start = time.monotonic()
        rows = quicksort_rows([128, 256, 512, 1024], trials=20, seed=0)
        by_n = {row["n"]: row for row in rows}
        # (a) rerun cost grows at most 2.6x per doubling on average
        for small, big in ((128, 256), (256, 512), (512, 1024)):
            growth = by_n[big]["rerun_steps"] / by_n[small]["rerun_steps"]
            assert growth <= 2.6, (small, big, growth)
        # (b) the fresh-run baseline is superlinear across the range
        assert by_n[1024]["fresh_steps"] / by_n[128]["fresh_steps"] >= 8
        # (c) rerun hits in the sort's own table grow like log n
        assert by_n[1024]["rerun_hits"] <= 4 * by_n[128]["rerun_hits"]
        assert time.monotonic() - start < 180


def test_criterion_5_partial_dependence():
    with criterion(5, "partial dependence: exact hit/miss sequence on mf"):
        cfg = EvalConfig(checked=True, trace=True)
        result = run_program(load("partial"), cfg)
        locs = {name: v.loc for name, v in result.decl_values.items()}
        trace = [(kind, loc) for kind, loc, _ in cfg.stats.events
                 if kind in ("hit", "miss")]
        assert trace == [
            ("miss", locs["mf"]), ("miss", locs["fy"]),
            ("hit", locs["mf"]),
            ("hit", locs["mf"]),
            ("miss", locs["mf"]), ("miss", locs["fz"]),
        ], trace


def _snapshot(store):
    return {loc: dict(table.items()) for loc, table in store.tables.items()}


def _still_bound(before, store):
    for loc, bindings in before.items():
        now = dict(store.tables[loc].items())
        for key, value in bindings.items():
            assert key in now and now[key] is value


def test_criterion_6_invariants_and_mutants():
    with criterion(6, "invariants: lemma-1, monotonicity, fault mutants"):
        # duplicate-branch detection stays silent across a checked fuzz
        # corpus (diff_check runs the memoizing side in checked mode)
        for i in range(200):
            assert diff_check(gen_program(f"invariants:{i}")).ok
        # store monotonicity across every corpus run, step by step
        from mfl.memostore import Store
        for name in CORPUS_NAMES:
            program = load(name)
            cfg = EvalConfig(checked=True)
            store = Store()
            values = {}
            for decl_name, term in program.decls:
                before = _snapshot(store)
                values[decl_name] = eval_term(store, subst(term, values, {}), cfg)[0]
                _still_bound(before, store)
            before = _snapshot(store)
            eval_term(store, subst(program.main, values, {}), cfg)
            _still_bound(before, store)
        # branch append-only: each completed body's key extends exactly
        # the events its own activation logged
        cfg = EvalConfig(trace=True)
        run_program(load("quicksort"), cfg)
        pending = {}
        for entry in cfg.stats.events:
            kind, loc = entry[0], entry[1]
            if kind == "event":
                pending.setdefault(loc, []).append(entry[2])
            else:
                branch = entry[2]
                logged = pending.get(loc, [])
                if branch:
                    assert tuple(logged[-len(branch):]) == branch
                    del logged[-len(branch):]
        # fault mutants: dropping inserts is benign, wrong keys are caught
        with mutant("skip_insert"):
            for name in CORPUS_NAMES:
                assert diff_check(load(name), checked=False).ok
        with mutant("wrong_branch"):
            assert not diff_check(load("fib"), checked=False).ok


def test_criterion_7_typechecker_gate():
    with criterion(7, "typechecker gate: 20 rejections + corpus accepted"):
        assert len(NEGATIVE_PROGRAMS) >= 20
        for src, kind in NEGATIVE_PROGRAMS:
            with pytest.raises(MflTypeError) as exc:
                check_program(parse(src))
            assert exc.value.kind == kind, (src, exc.value.kind)
        for name in CORPUS_NAMES:
            check_program(load(name))
