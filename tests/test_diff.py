from support import mutant, program_nodes
import mfl.eval_memo as eval_memo
from mfl.corpus import CORPUS_NAMES, decode_int_list, load
from mfl.eval_memo import EvalConfig, eval_term, run_program
from mfl.eval_pure import diff_check, values_agree
from mfl.gen import gen_program
from mfl.memostore import Store, mt_insert
from mfl.parser import parse
from mfl.syntax import Apply, Bang, BoxVal, IntLit, MFun, Pair, Program, UnitLit

import pytest


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_diff_ok(name):
    verdict = diff_check(load(name))
    assert verdict.ok, verdict.detail


def test_generated_programs_diff_ok():
    for seed in range(120):
        verdict = diff_check(gen_program(seed))
        assert verdict.ok, (seed, verdict.detail)


def test_skip_insert_fault_is_benign():
    # dropping inserts only disables reuse; outcomes stay equal
    with mutant("skip_insert"):
        for name in CORPUS_NAMES:
            verdict = diff_check(load(name), checked=False)
            assert verdict.ok, (name, verdict.detail)
        for seed in range(40):
            verdict = diff_check(gen_program(seed), checked=False)
            assert verdict.ok, (seed, verdict.detail)


def test_wrong_branch_fault_is_caught():
    # inserting under a perturbed key poisons a later lookup somewhere;
    # a poisoned table can even make a traversal diverge, so cap the
    # depth and let that surface as a one-sided fault (also a mismatch)
    mismatches = 0
    with mutant("wrong_branch"):
        for name in CORPUS_NAMES:
            if not diff_check(load(name), checked=False, depth_limit=500).ok:
                mismatches += 1
        for seed in range(120):
            program = gen_program(seed)
            if not diff_check(program, checked=False, depth_limit=500).ok:
                mismatches += 1
    assert mismatches >= 1


def test_wrong_branch_fault_caught_on_fib_specifically():
    with mutant("wrong_branch"):
        verdict = diff_check(load("fib"), checked=False)
    assert not verdict.ok


def _stored_keys(store) -> set:
    return {key for table in store.tables.values() for key, _ in table.items()}


def test_mutants_reach_the_insert_path():
    # the mutants work only while every `return` inserts through the
    # module global `eval_memo.mt_insert` as it is when the program is
    # compiled; if the call were bound at import (a default argument of
    # a compiler function, an alias), "skip_insert is benign" would pass
    # without mutating anything
    real = run_program(load("fib"), EvalConfig())
    assert real.stats.memo_hits > 0 and any(map(len, real.store.tables.values()))
    with mutant("skip_insert"):
        skipped = run_program(load("fib"), EvalConfig())
    assert skipped.store.tables
    assert all(len(table) == 0 for table in skipped.store.tables.values())
    assert skipped.stats.memo_hits == 0
    with mutant("wrong_branch"):
        wrong = run_program(load("fib"), EvalConfig())
    assert _stored_keys(wrong.store) - _stored_keys(real.store)
    assert eval_memo.mt_insert is mt_insert  # restored on exit


def test_box_sharing_increase_is_accepted():
    # the memoized run returns one shared box where the pure run builds
    # two equal ones; content equality plus a functional pure-to-memo
    # tag correspondence accepts this
    verdict = diff_check(load("hcons"))
    assert verdict.ok
    assert type(verdict.memo_value) is Pair
    assert verdict.memo_value.left.tag == verdict.memo_value.right.tag
    assert verdict.pure_value.left.tag != verdict.pure_value.right.tag


def test_tag_correspondence_must_be_functional():
    # one pure box standing for two different memo boxes is a mismatch
    memo_boxes = {0: IntLit(1), 1: IntLit(1)}
    pure_boxes = {5: IntLit(1)}
    memo_v = Pair(BoxVal(0), BoxVal(1))
    pure_v = Pair(BoxVal(5), BoxVal(5))
    assert not values_agree(memo_v, memo_boxes, pure_v, pure_boxes)
    # the mirrored direction (memo merges) is fine
    assert values_agree(Pair(BoxVal(0), BoxVal(0)), {0: IntLit(1)},
                        Pair(BoxVal(5), BoxVal(6)), {5: IntLit(1), 6: IntLit(1)})


def test_box_contents_are_chased():
    assert not values_agree(BoxVal(0), {0: IntLit(1)},
                            BoxVal(9), {9: IntLit(2)})
    assert values_agree(BoxVal(0), {0: UnitLit()}, BoxVal(9), {9: UnitLit()})


def test_same_fault_on_both_sides_agrees():
    verdict = diff_check(parse("main 1 div 0"))
    assert verdict.ok
    assert "fault alike" in verdict.detail


def test_mismatched_values_reported():
    # sanity-check the negative path of the comparator itself
    assert not values_agree(IntLit(1), {}, IntLit(2), {})


@pytest.fixture
def compiled_bodies(monkeypatch):
    """The function terms whose bodies `_compile_body` compiles, in order."""
    compiled, real = [], eval_memo._compile_body

    def counted(fn, *captured):
        compiled.append(fn)
        return real(fn, *captured)

    monkeypatch.setattr(eval_memo, "_compile_body", counted)
    return compiled


def _sites(program):
    return [node for node in program_nodes(program) if type(node) is MFun]


def test_diff_check_compiles_each_site_once(compiled_bodies):
    # one compiled program serves both runs, and an mfun body compiles
    # on its site's first allocation: once per site, not per run or value
    program = load("knapsack")
    assert diff_check(program).ok
    sites = _sites(program)
    assert len(sites) == 6  # knapsack evaluates every one of its sites
    assert sorted(map(id, compiled_bodies)) == sorted(map(id, sites))


def test_eval_term_applications_compile_nothing(compiled_bodies):
    # the incremental quicksort's path: the declarations run once, then
    # later eval_term calls on the same store apply the declared values,
    # which carry their code; only the sites compiled
    program = load("quicksort")
    cfg, store = EvalConfig(checked=True), Store()
    decls = run_program(Program(program.decls, UnitLit()), cfg, store).decl_values
    assert sorted(map(id, compiled_bodies)) == sorted(map(id, _sites(program)))
    compiled_bodies.clear()
    hcons, mqs = decls["hcons"], decls["mqs"]

    def cons(key, tail):
        return eval_term(store, Apply(hcons, Pair(Bang(IntLit(key)), Bang(tail))), cfg)[0]

    lst = cons(3, cons(1, cons(2, decls["empty"])))
    for keys in ([1, 2, 3], [0, 1, 2, 3]):
        out = eval_term(store, Apply(mqs, Bang(lst)), cfg)[0]
        assert decode_int_list(out, store.boxes) == keys
        lst = cons(0, lst)
    assert compiled_bodies == []
