import mfl.eval_memo as eval_memo
from mfl.corpus import CORPUS_NAMES, load
from mfl.eval_pure import diff_check, values_agree
from mfl.gen import gen_program
from mfl.parser import parse
from mfl.syntax import BoxVal, Expr, IntLit, MFun, Pair, Term, UnitLit, node_fields

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
    for name in CORPUS_NAMES:
        verdict = diff_check(load(name), checked=False, fault="skip_insert")
        assert verdict.ok, (name, verdict.detail)
    for seed in range(40):
        verdict = diff_check(gen_program(seed), checked=False, fault="skip_insert")
        assert verdict.ok, (seed, verdict.detail)


def test_unknown_fault_is_rejected():
    # a misspelt mutant must not silently run the unmutated semantics
    with pytest.raises(ValueError):
        eval_memo.EvalConfig(fault="skip-insert")
    with pytest.raises(ValueError):
        diff_check(load("fib"), checked=False, fault="skip-insert")


def test_wrong_branch_fault_is_caught():
    # inserting under a perturbed key poisons a later lookup somewhere;
    # a poisoned table can even make a traversal diverge, so cap the
    # depth and let that surface as a one-sided fault (also a mismatch)
    mismatches = 0
    for name in CORPUS_NAMES:
        if not diff_check(load(name), checked=False, fault="wrong_branch",
                          depth_limit=500).ok:
            mismatches += 1
    for seed in range(120):
        program = gen_program(seed)
        if not diff_check(program, checked=False, fault="wrong_branch",
                          depth_limit=500).ok:
            mismatches += 1
    assert mismatches >= 1


def test_wrong_branch_fault_caught_on_fib_specifically():
    verdict = diff_check(load("fib"), checked=False, fault="wrong_branch")
    assert not verdict.ok


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


def _mfun_sites(program) -> list:
    """Every `mfun` node of `program`."""
    stack, sites = [term for _, term in program.decls] + [program.main], []
    while stack:
        node = stack.pop()
        if type(node) is MFun:
            sites.append(node)
        for name in node_fields(type(node)):
            value = getattr(node, name)
            for child in value if type(value) is tuple else (value,):
                if isinstance(child, (Term, Expr)):
                    stack.append(child)
    return sites


def test_diff_check_compiles_each_site_once(monkeypatch):
    # one compiled program serves both runs, and an mfun body compiles
    # on its site's first allocation: once per site, not per run or value
    compiled, real = [], eval_memo._compile_body

    def counted(fn, *captured):
        compiled.append(fn)
        return real(fn, *captured)

    monkeypatch.setattr(eval_memo, "_compile_body", counted)
    program = load("knapsack")
    assert diff_check(program).ok
    sites = _mfun_sites(program)
    assert len(sites) == 6  # knapsack evaluates every one of its sites
    assert sorted(map(id, compiled)) == sorted(map(id, sites))
