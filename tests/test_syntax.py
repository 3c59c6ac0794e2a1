from dataclasses import fields, replace

from hypothesis import given, settings, strategies as st

from mfl.corpus import CORPUS_NAMES, load
from mfl.errors import MflRuntimeError
from mfl.eval_memo import EvalConfig, eval_term, run_program
from mfl.eval_pure import values_agree
from mfl.gen import GenLimits, gen_program
from mfl.memostore import Store
from mfl.parser import parse, parse_expr, parse_term
from mfl.syntax import (
    SUBTERMS, Apply, Bang, Box, BoxVal, Expr, INT, Inl, Inr, IntLit, KeyOf,
    LetBang, LetPair, MCase, MFun, MFunVal, Pair, PrimOp, Res, Return, Roll,
    TBang, TBox, TProd, TRec, TSum, TUnit, TVar, Term, TermCase, TermSplit,
    Type, UNIT, Unbox, UnitLit, Unroll, Var, erase, free_names,
    free_resources, node_fields, subst, term_eq, type_eq,
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


def _holds_subterms(value) -> bool:
    if type(value) is tuple:
        return all(isinstance(x, (Term, Expr)) for x in value)
    return isinstance(value, (Term, Expr))


def test_subterm_table_is_complete():
    # the table must name exactly the fields holding subterms, for every
    # node class that sources and run-time values contain
    programs = [load(name) for name in CORPUS_NAMES] + [gen_program(s) for s in range(200)]
    programs.append(parse("main keyof (box 1)"))  # neither the corpus nor `gen` has keyof
    seen = set()
    for program in programs:
        roots = [term for _, term in program.decls] + [program.main]
        try:
            result = run_program(program, EvalConfig())
            roots += [result.value, *result.decl_values.values(), *result.store.boxes.values()]
        except MflRuntimeError:
            pass
        while roots:
            node = roots.pop()
            t = type(node)
            seen.add(t)
            assert t in SUBTERMS, t
            held = [name for name in node_fields(t) if _holds_subterms(getattr(node, name))]
            assert [name for name, _, _ in SUBTERMS[t]] == held, t
            for name, vbound, rbound in SUBTERMS[t]:
                assert all(type(getattr(node, b)) is str for b in vbound + rbound), t
                child = getattr(node, name)
                roots += child if type(child) is tuple else [child]
    assert seen == set(SUBTERMS)


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


_ROLL_TYPE = TRec("u", TSum(UNIT, TVar("u")))
_NODE_SAMPLES = [
    Var("x"), Res("r"), UnitLit(), IntLit(1), BoxVal(0),
    PrimOp("+", (IntLit(1), Var("x"))),
    Pair(IntLit(1), IntLit(2)),
    Apply(Var("f"), IntLit(1)),
    MFun("f", "a", INT, UNIT, Return(IntLit(1))),
    MFunVal(0, "f", "a", INT, UNIT, Return(IntLit(1))),
    Bang(IntLit(1)), Inl(IntLit(1), INT, UNIT), Inr(IntLit(1), INT, UNIT),
    Roll(Inl(UnitLit(), UNIT, UNIT), _ROLL_TYPE), Unroll(Var("l")),
    Box(IntLit(1)), Unbox(Var("b")), KeyOf(Var("b")),
    TermCase(Var("s"), "l", IntLit(1), "r", IntLit(2)),
    TermSplit(Var("p"), "l", "r", IntLit(1)),
    Return(IntLit(1)),
    LetBang("x", INT, Res("a"), Return(Var("x"))),
    LetPair("l", INT, "r", UNIT, Res("p"), Return(IntLit(1))),
    MCase(Res("s"), "l", INT, Return(IntLit(1)), "r", UNIT, Return(IntLit(2))),
]


def _flips(value) -> list:
    """Values of the same kind as a field's `value`, each different."""
    if isinstance(value, str):
        return [value + "'"]
    if type(value) is int:
        return [value + 1]
    if value is None:  # a position or a cache not filled in
        return [(1, 1), frozenset({"q"}), (None, ())]
    if isinstance(value, Type):
        return [TBox(value), None]
    if isinstance(value, Expr):
        return [LetBang("z", None, IntLit(0), value)]
    if isinstance(value, Term):
        return [Bang(value)]
    if type(value) is tuple:
        return [value + (IntLit(3),), value[:-1] + (IntLit(9),)]
    raise AssertionError(value)


def test_term_eq_compares_every_field_but_caches():
    # each compared field tells two nodes apart; pos, the caches fvs,
    # ty and ctx, and the run-time links code and table never do
    assert {type(node) for node in _NODE_SAMPLES} == set(SUBTERMS)
    for node in _NODE_SAMPLES:
        assert term_eq(node, replace(node)), node
        for f in fields(node):
            for flipped in _flips(getattr(node, f.name)):
                other = replace(node, **{f.name: flipped})
                ignored = f.name in ("pos", "fvs", "code", "table", "ty", "ctx")
                assert term_eq(node, other) is ignored, (node, f.name, flipped)
                assert term_eq(other, node) is ignored, (node, f.name, flipped)


def test_pure_function_value_equals_erased_memo_value():
    # a pure value carries its code, an erased memo value has none
    src = ("case inl [int + int] 4 of inl r => "
           "mfun g (b : !int) : int is let !q = b in return r + q end end "
           "| inr s => mfun g (b : !int) : int is return 0 end end")
    pure = eval_term(Store(), parse_term(src), EvalConfig(mode="pure"))[0]
    memo = eval_term(Store(), parse_term(src), EvalConfig())[0]
    assert type(pure) is MFun and pure.code is not None
    assert term_eq(pure, erase(memo)) and term_eq(erase(memo), pure)
    assert values_agree(erase(memo), {}, pure, {})
    assert term_eq(pure, MFun(pure.fname, pure.arg, pure.arg_type, pure.res_type, pure.body))
