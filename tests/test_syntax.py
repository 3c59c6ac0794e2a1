from hypothesis import given, settings, strategies as st

from mfl.eval_memo import EvalConfig, run_program
from mfl.gen import GenLimits, gen_program
from mfl.parser import parse_expr, parse_term
from mfl.syntax import (
    Bang, INT, IntLit, LetPair, MFun, MFunVal, Pair, Res, Return, TBang,
    TBox, TProd, TRec, TSum, TUnit, TVar, UNIT, UnitLit, Var, erase,
    free_names, free_resources, subst, term_eq, type_eq,
)


def test_free_resources_single_resource():
    assert free_resources(Res("a")) == {"a"}


def test_free_resources_closed_literal():
    assert free_resources(Return(IntLit(3))) == set()


def test_free_resources_binder_scoping():
    # let* binds a1, a2 over the body only; the scrutinee's p stays free
    e = LetPair("a1", None, "a2", None, Res("p"), Return(Var("x")))
    assert free_resources(e) == {"p"}


def test_free_resources_arm_binders():
    e = parse_expr("mcase r of inl a => return 1 | inr b => return 2 end",
                   resources=("r",))
    assert free_resources(e) == {"r"}
    t = parse_term("split r as (a, b) in a end", resources=("r",))
    assert free_resources(t) == {"r"}


def test_erase_no_locations():
    assert term_eq(erase(IntLit(5)), IntLit(5))


def test_erase_strips_function_locations():
    body = Return(IntLit(3))
    v = MFunVal(7, "f", "a", TBang(INT), INT, body)
    erased = erase(v)
    assert type(erased) is MFun
    assert term_eq(erased, MFun("f", "a", TBang(INT), INT, body))


def test_erase_congruence():
    v = Pair(MFunVal(1, "f", "a", INT, INT, Return(IntLit(0))), Bang(IntLit(2)))
    out = erase(v)
    assert type(out.left) is MFun
    assert term_eq(out.right, Bang(IntLit(2)))


def test_erase_idempotent_on_run_results():
    for seed in range(30):
        program = gen_program(seed)
        result = run_program(program, EvalConfig())
        once = erase(result.value)
        assert term_eq(erase(once), once)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_erase_commutes_with_substitution(seed_fun, seed_val):
    # substitute a location-carrying value into a function body: erasing
    # before or after substituting gives the same tree
    program = gen_program(seed_fun, GenLimits(max_nodes=30))
    donor = run_program(program, EvalConfig())
    fun = next((v for v in [donor.value, *donor.decl_values.values()]
                if type(v) is MFunVal), None)
    if fun is None:
        fun = MFunVal(0, "f", "a", INT, INT, Return(IntLit(1)))
    body = fun.body
    value = MFunVal(99, "g", "b", INT, INT, Return(IntLit(seed_val % 5)))
    left = erase(subst(body, {fun.fname: value}, {fun.arg: value}))
    right = subst(erase(body), {fun.fname: erase(value)}, {fun.arg: erase(value)})
    assert term_eq(left, right)


def test_subst_shadowing():
    t = parse_term("case s of inl x => x | inr y => z end", resources=("x", "y", "s"))
    out = subst(t, {}, {"x": IntLit(1), "z": IntLit(2), "s": UnitLit()})
    # the bound x is untouched; free z and s are replaced
    assert term_eq(out.left_arm, Res("x"))
    assert term_eq(out.scrut, UnitLit())


def test_subst_identity_when_irrelevant():
    t = parse_term("mfun f (a : !int) : int is let !x = a in return x end end")
    assert subst(t, {"nope": IntLit(1)}, {}) is t


def test_free_names_cached_union():
    t = parse_term("(x, r)", resources=("r",))
    assert free_names(t) == {"x", "r"}
    assert t.fvs == {"x", "r"}


def test_type_equality_alpha():
    a = TRec("u", TSum(TUnit(), TProd(INT, TVar("u"))))
    b = TRec("w", TSum(TUnit(), TProd(INT, TVar("w"))))
    c = TRec("u", TSum(TUnit(), TProd(INT, TVar("other"))))
    assert type_eq(a, b)
    assert not type_eq(a, c)
    assert type_eq(TBox(a), TBox(b))
    assert not type_eq(TBang(INT), TBang(UNIT))


def test_type_equality_nested_binders():
    a = TRec("u", TRec("v", TProd(TVar("u"), TVar("v"))))
    b = TRec("v", TRec("u", TProd(TVar("v"), TVar("u"))))
    swapped = TRec("v", TRec("u", TProd(TVar("u"), TVar("v"))))
    assert type_eq(a, b)
    assert not type_eq(a, swapped)
