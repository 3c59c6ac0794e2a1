import pytest

from oracles import fib
from mfl.corpus import decode_int_list, load
from mfl.errors import Stuck
from mfl.eval_memo import EvalConfig, run_program
from mfl.eval_pure import eval_pure_term, run_program_pure, values_agree
from mfl.gen import gen_program
from mfl.parser import parse, parse_term
from mfl.syntax import (
    Apply, Bang, IntLit, MFunVal, Program, Return, Var, erase, term_eq,
)


def test_pure_fib_matches_arithmetic_oracle():
    program = load("fib")
    program = Program(program.decls, Apply(Var("mfib"), Bang(IntLit(10))))
    result = run_program_pure(program)
    assert term_eq(result.value, IntLit(fib(10)))


def test_pure_identity():
    v = eval_pure_term(parse_term(
        "(mfun f (a : !int) : int is let !x = a in return x end end) (!9)"))
    assert term_eq(v, IntLit(9))


def test_pure_quicksort_matches_host_sort():
    result = run_program_pure(load("quicksort"))
    assert decode_int_list(result.value, result.store.boxes) == sorted([3, 1, 2])


def test_pure_function_value_is_itself():
    t = parse_term("mfun f (a : !int) : int is return 1 end")
    assert eval_pure_term(t) is t


def test_pure_rejects_location_values():
    v = MFunVal(0, "f", "a", IntLit, IntLit, Return(IntLit(1)))
    with pytest.raises(Stuck):
        eval_pure_term(v)


def test_return_always_reevaluates():
    # applying the same function twice does the same work twice
    program = parse("val f = mfun f (a : !int) : int is let !x = a in return x end end "
                    "main f (!3) + f (!3)")
    result = run_program_pure(program)
    assert term_eq(result.value, IntLit(6))
    assert result.stats.memo_hits == 0 and result.stats.probes == 0
    assert result.stats.returns == 2


def test_cold_mode_equals_pure_exactly():
    # cold changes cost, never values: same derivation shape, same step
    # count, and identical outcomes (tags allocate in the same order)
    for name in ("fib", "partial", "knapsack", "hcons", "quicksort"):
        program = load(name)
        cfg = EvalConfig(mode="cold")
        memo = run_program(program, cfg)
        pure = run_program_pure(program)
        assert cfg.stats.steps == pure.stats.steps, name
        tag_map = {}
        assert values_agree(erase(memo.value), memo.store.boxes,
                            pure.value, pure.store.boxes, tag_map), name
        assert all(k == v for k, v in tag_map.items()), name
    for seed in range(40):
        program = gen_program(seed)
        cfg = EvalConfig(mode="cold")
        memo = run_program(program, cfg)
        pure = run_program_pure(program)
        assert cfg.stats.steps == pure.stats.steps, seed
        assert values_agree(erase(memo.value), memo.store.boxes,
                            pure.value, pure.store.boxes), seed
