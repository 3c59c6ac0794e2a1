import re

import pytest

from oracles import fib, fib_call_tree
from mfl.corpus import CORPUS_NAMES, load
from mfl.errors import DepthExceeded, InternalInvariantError, Stuck
from mfl.eval_memo import EvalConfig, eval_expr, eval_term, run_program
from mfl.memostore import Store
from mfl.parser import parse, parse_expr, parse_term
from mfl.syntax import (
    INT, Apply, Bang, IntLit, LetPair, MFunVal, Pair, PrimOp, Program, Res,
    Return, Var, erase, term_eq,
)

IDENTITY_SRC = "mfun f (a : !int) : int is let !x = a in return x end end"


def fresh(checked=True, **kw) -> EvalConfig:
    return EvalConfig(checked=checked, **kw)


def run_fib(n: int, cfg=None):
    program = load("fib")
    program = Program(program.decls, Apply(Var("mfib"), Bang(IntLit(n))))
    cfg = cfg or fresh()
    return run_program(program, cfg), cfg


def test_fun_term_allocates_fresh_table():
    store = Store()
    cfg = fresh()
    v, _ = eval_term(store, parse_term(IDENTITY_SRC), cfg)
    assert type(v) is MFunVal
    assert v.loc in store.tables
    assert len(store.tables) == 1
    v2, _ = eval_term(store, parse_term(IDENTITY_SRC), cfg)
    assert v2.loc != v.loc


def test_identity_application():
    store = Store()
    v, _ = eval_term(store, parse_term(f"({IDENTITY_SRC}) (!9)"), fresh())
    assert term_eq(v, IntLit(9))


def test_second_application_hits_without_body_steps():
    store = Store()
    cfg = fresh()
    fun, _ = eval_term(store, parse_term(IDENTITY_SRC), cfg)
    eval_term(store, Apply(fun, Bang(IntLit(9))), cfg)
    assert (cfg.stats.memo_hits, cfg.stats.memo_misses) == (0, 1)
    steps_before = cfg.stats.steps
    v, _ = eval_term(store, Apply(fun, Bang(IntLit(9))), cfg)
    assert term_eq(v, IntLit(9))
    assert (cfg.stats.memo_hits, cfg.stats.memo_misses) == (1, 1)
    # the hit evaluates the apply, its subterms, the let! and the return
    # lookup: apply + fn + bang arg (2) + let! + scrutinee (2) + return
    assert cfg.stats.steps - steps_before == 8


def test_compound_lookups_cost_one_step_per_value_node():
    # looking a bound value up costs what re-evaluating it as a term
    # would: one step per Pair/Bang node and per leaf
    store = Store()
    cfg = fresh()
    fun, _ = eval_term(store, parse_term(
        "mfun f (p : (!int * !int) * !int) : int is "
        "let* (a, c) = p in let* (x', y') = a in "
        "let !x = x' in let !z = c in return x + z end end end end end"), cfg)
    arg = Pair(Pair(Bang(IntLit(1)), Bang(IntLit(2))), Bang(IntLit(3)))
    steps_before = cfg.stats.steps
    v, _ = eval_term(store, Apply(fun, arg), cfg)
    assert term_eq(v, IntLit(4))
    # apply + fn + arg (8)
    # + let* + p (8) + let* + a (5) + let! + x' (2) + let! + c (2)
    # + return + x + z (3)
    assert cfg.stats.steps - steps_before == 35
    steps_before = cfg.stats.steps
    eval_term(store, Apply(fun, arg), cfg)
    assert cfg.stats.memo_hits == 1
    # the hit skips only the return body
    assert cfg.stats.steps - steps_before == 32


def _run_steps(src: str):
    cfg = fresh()
    return run_program(parse(src), cfg).value, cfg.stats.steps


def test_let_star_of_nested_pair_charges_every_node():
    value, steps = _run_steps(
        "main (mfun f (p : (int * !int) * (int + int)) : int is "
        "let * (a, c) = p in let * (x, y) = a in let !z = y in return z "
        "end end end end) ((1, !2), inl [int + int] 3)")
    assert term_eq(value, IntLit(2))
    # apply + fn + arg (7) + let* + p (7) + let* + a (4) + let! + y (2)
    # + return + z
    assert steps == 27


def test_bang_of_a_name_holding_a_pair():
    value, steps = _run_steps("val x = (1, (!2, 3)) main !x")
    assert term_eq(value, Bang(Pair(IntLit(1), Pair(Bang(IntLit(2)), IntLit(3)))))
    # the declared value (6) + bang + x (6)
    assert steps == 13


def test_argument_is_the_bang_of_a_name_holding_a_pair():
    value, steps = _run_steps(
        "val x = (1, !2) main (mfun f (a : !(int * !int)) : int is return 1 end) (!x)")
    assert term_eq(value, IntLit(1))
    # the declared value (4) + apply + fn + bang + x (4) + return + 1
    assert steps == 13


def test_split_of_a_pair_of_bangs():
    value, steps = _run_steps("val p = (!1, !2) main split p as (a, b) in a end")
    assert term_eq(value, Bang(IntLit(1)))
    # the declared value (5) + split + p (5) + a (2)
    assert steps == 13


def test_fib_value_matches_reference():
    result, _ = run_fib(10)
    assert term_eq(result.value, IntLit(fib(10)))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20])
def test_fib_counters_match_call_tree_oracle(n):
    misses, hits, calls = fib_call_tree(n)
    result, cfg = run_fib(n)
    assert cfg.stats.memo_misses == misses
    assert cfg.stats.memo_hits == hits
    assert cfg.stats.memo_hits + cfg.stats.memo_misses == calls == cfg.stats.returns


def test_fib_counter_formula():
    for n in (2, 5, 10, 20):
        _, cfg = run_fib(n)
        assert cfg.stats.memo_misses == n + 1
        assert cfg.stats.memo_hits == n - 2


def test_mf_partial_dependence_trace():
    program = load("partial")
    cfg = fresh(trace=True)
    result = run_program(program, cfg)
    assert term_eq(result.value, IntLit(76))
    locs = {name: v.loc for name, v in result.decl_values.items()}
    trace = [(kind, loc) for kind, loc, _ in cfg.stats.events
             if kind in ("hit", "miss")]
    assert trace == [
        ("miss", locs["mf"]), ("miss", locs["fy"]),   # seed (7, (!11, !20))
        ("hit", locs["mf"]),                           # (7, (!11, !30))
        ("hit", locs["mf"]),                           # (4, (!11, !50))
        ("miss", locs["mf"]), ("miss", locs["fz"]),   # (-1, (!11, !20))
    ]


def test_mf_branches_record_arm_then_bang():
    program = load("partial")
    cfg = fresh(trace=True)
    result = run_program(program, cfg)
    mf_loc = result.decl_values["mf"].loc
    misses = [b for kind, loc, b in cfg.stats.events
              if kind == "miss" and loc == mf_loc]
    assert misses == [((1, 1), (0, 11)), ((1, 0), (0, 20))]


def snapshot_tables(store: Store):
    return {loc: dict(table.items()) for loc, table in store.tables.items()}


def values_snapshot_preserved(before, store):
    for loc, bindings in before.items():
        assert loc in store.tables
        now = dict(store.tables[loc].items())
        for key, value in bindings.items():
            assert key in now and now[key] is value


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_store_monotonicity_on_corpus(name):
    # every pre-existing (location, branch) binding survives verbatim
    # across each top-level evaluation step
    program = load(name)
    cfg = fresh()
    store = Store()
    values = {}
    from mfl.syntax import subst
    for decl_name, term in program.decls:
        before = snapshot_tables(store)
        values[decl_name] = eval_term(store, subst(term, values, {}), cfg)[0]
        values_snapshot_preserved(before, store)
    before = snapshot_tables(store)
    eval_term(store, subst(program.main, values, {}), cfg)
    values_snapshot_preserved(before, store)


def test_branch_discipline_append_only():
    # recorded events never rewrite earlier ones: each miss's final
    # branch extends the event prefix logged during its activation
    program = load("quicksort")
    cfg = fresh(trace=True)
    run_program(program, cfg)
    open_events = {}
    for entry in cfg.stats.events:
        kind, loc = entry[0], entry[1]
        if kind == "event":
            open_events.setdefault(loc, []).append(entry[2])
        elif kind in ("hit", "miss"):
            branch = entry[2]
            recent = open_events.get(loc, [])
            depth = len(branch)
            if depth:
                assert tuple(recent[-depth:]) == branch
                del recent[-depth:]


def test_branch_length_counts_exploration_constructs():
    # quicksort's filter records exactly pivot and list per call
    program = load("quicksort")
    cfg = fresh()
    result = run_program(program, cfg)
    fil_loc = result.decl_values["filbelow"].loc
    table = result.store.tables[fil_loc]
    assert len(table) > 0
    for branch, _ in table.items():
        assert len(branch) == 2
        assert branch[0][0] == 0 and branch[1][0] == 0  # two bang events


def test_cold_mode_never_hits():
    _, cfg = run_fib(12, fresh(mode="cold"))
    assert cfg.stats.memo_hits == 0
    assert cfg.stats.memo_misses == cfg.stats.returns


def test_cold_mode_same_value():
    warm, _ = run_fib(12)
    cold, _ = run_fib(12, fresh(mode="cold"))
    assert term_eq(erase(warm.value), erase(cold.value))


def test_unknown_mode_is_rejected():
    # a misspelt mode must not silently run as cold
    with pytest.raises(ValueError):
        EvalConfig(mode="Pure")


def test_eval_expr_public_interface():
    store = Store()
    cfg = fresh()
    fun, _ = eval_term(store, parse_term(IDENTITY_SRC), cfg)
    body = parse_expr("return 3")
    v, _ = eval_expr(store, fun.loc, [], body, cfg)
    assert term_eq(v, IntLit(3))
    # same branch again: served from the table
    v2, _ = eval_expr(store, fun.loc, [], Return(IntLit(99)), cfg)
    assert term_eq(v2, IntLit(3))


def test_checked_return_rejects_unbound_resource():
    store = Store()
    loc = store.alloc_table()
    with pytest.raises(InternalInvariantError):
        eval_expr(store, loc, [], Return(Res("r")), fresh())


def test_checked_return_rejects_bound_resource():
    # the paper's rule: no resource may be free in a return body, even
    # one that a let* of the same body has bound (the typechecker rejects
    # such a body; checked mode rejects it at run time too)
    store = Store()
    loc = store.alloc_table()
    body = LetPair("a", None, "b", None, Pair(IntLit(1), IntLit(2)),
                   Return(Res("a")))
    with pytest.raises(InternalInvariantError):
        eval_expr(store, loc, [], body, fresh())
    # unchecked, the body still runs and returns the bound value
    v, _ = eval_expr(store, loc, [], body, fresh(checked=False))
    assert term_eq(v, IntLit(1))


def test_checked_return_allows_captured_resource():
    # a resource a function value captures is substituted into its closed
    # body, so it is not free there; one the body binds again still is
    outer = "case inl [int + int] 4 of inl r => {} | inr s => 0 end"
    captured = "(mfun g (b : !int) : int is let !q = b in return r + q end end) (!1)"
    v, _ = eval_term(Store(), parse_term(outer.format(captured)), fresh())
    assert term_eq(v, IntLit(5))
    rebound = ("(mfun g (b : int * int) : int is let * (r, w) = b in return r end end) "
               "(7, 8)")
    with pytest.raises(InternalInvariantError):
        eval_term(Store(), parse_term(outer.format(rebound)), fresh())


def test_stuck_on_free_variable():
    with pytest.raises(Stuck):
        eval_term(Store(), Var("loose"), fresh())


def test_stuck_on_applying_non_function():
    with pytest.raises(Stuck):
        eval_term(Store(), Apply(IntLit(1), IntLit(2)), fresh())


@pytest.mark.parametrize("allocated", [False, True])
def test_stuck_on_applying_function_value_no_evaluation_made(allocated):
    # a hand-built function value has no code: applying it is stuck where
    # a non-function is, after the function's step and before the argument
    # (which would be stuck differently) is evaluated
    store = Store()
    loc = store.alloc_table() if allocated else 0
    term = Apply(MFunVal(loc, "f", "a", INT, INT, Return(IntLit(1))), Var("loose"))
    cfg = fresh(checked=False)
    with pytest.raises(Stuck, match="not made by an evaluation"):
        eval_term(store, term, cfg)
    assert cfg.stats.steps == 2  # the application and the function value
    if allocated:
        with pytest.raises(Stuck, match="not made by an evaluation"):
            eval_term(store, term, fresh())
    else:  # checked mode finds the unallocated location first
        with pytest.raises(InternalInvariantError):
            eval_term(store, term, fresh())


@pytest.mark.parametrize("mode, checked", [("normal", False), ("normal", True),
                                           ("pure", False)])
@pytest.mark.parametrize("term, steps", [
    (PrimOp("+", (IntLit(1),)), 2),
    (PrimOp("int2sum", (IntLit(1), IntLit(2))), 3),
    (PrimOp("xor", (IntLit(1), PrimOp("+", (IntLit(2), IntLit(3))))), 5),
], ids=["plus-one-operand", "int2sum-two-operands", "unknown-operator"])
def test_stuck_on_primop_with_no_rule(mode, checked, term, steps):
    # an unknown operator or a wrong operand count is stuck after the
    # operator's step and its operands' steps, left to right
    cfg = EvalConfig(mode=mode, checked=checked)
    with pytest.raises(Stuck, match=re.escape(f"operator '{term.op}' on {len(term.args)}")):
        eval_term(Store(), term, cfg)
    assert cfg.stats.steps == steps


def test_depth_guard():
    # the fuel template recurses n times; a tiny limit trips it
    src = ("val f = mfun f (p : !int) : int is let !n = p in "
           "return (if n < 1 then 0 else f (!(n - 1))) end end "
           "main f (!50)")
    with pytest.raises(DepthExceeded):
        run_program(parse(src), fresh(depth_limit=10))


def test_decl_sharing_across_calls():
    # one table per declaration value: repeat calls in main reuse it
    src = IDENTITY_SRC
    program = parse(f"val id = {src} main id (!4) + id (!4)")
    cfg = fresh()
    result = run_program(program, cfg)
    assert term_eq(result.value, IntLit(8))
    assert cfg.stats.memo_hits == 1
    assert len(result.store.tables) == 1
