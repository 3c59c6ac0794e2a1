"""The non-memoizing reference semantics, and the differential oracle.

The pure evaluator mirrors the memoizing one with the store threading
deleted: a function evaluates to itself (no location), and a `return`
always evaluates its body, neither consulting nor updating any table.
Boxes still allocate tags from a local registry, since `keyof` makes
them observable.

`diff_check` runs both evaluators on a program and compares the erased
memoized value against the pure value. Box tags are allocation-order
artifacts, and memoization legitimately *increases* sharing (one stored
box can stand where the pure run built two equal ones), so values are
compared by chasing box contents while requiring the pure-to-memoized
tag correspondence to be a function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DepthExceeded, MflRuntimeError, Stuck
from .eval_memo import EvalConfig, _apply_primop, run_program
from .stats import EvalStats
from .syntax import (
    Apply, Bang, Box, BoxVal, Expr, IntLit, Inl, Inr, KeyOf, LetBang,
    LetPair, MCase, MFun, MFunVal, Pair, PrimOp, Program, Res, Return, Roll,
    Term, TermCase, TermSplit, Type, UnitLit, Unbox, Unroll, Var, erase,
    node_fields, subst, type_eq,
)
# Not called here: `diff_check` takes a program its caller has checked.
# perfbench/tracer.py wraps `eval_pure.check_program`, so the name stays.
from .typecheck import check_program  # noqa: F401


@dataclass(slots=True)
class PureState:
    """Evaluation state of the reference semantics: a box registry and
    counters; no memo tables anywhere."""

    boxes: "dict[int, Term]" = field(default_factory=dict)
    next_tag: int = 0
    depth_limit: int = 10 ** 6
    depth: int = 0
    stats: EvalStats = field(default_factory=EvalStats)

    def alloc_box(self, v: Term) -> BoxVal:
        tag = self.next_tag
        self.next_tag = tag + 1
        self.boxes[tag] = v
        return BoxVal(tag)


def _eval_term(st: PureState, t: Term) -> Term:
    st.stats.steps += 1
    tp = type(t)
    if tp is IntLit or tp is UnitLit or tp is BoxVal:
        return t
    if tp is Apply:
        fn = _eval_term(st, t.fn)
        if type(fn) is not MFun:
            raise Stuck("application of a non-function value")
        arg = _eval_term(st, t.arg)
        st.depth += 1
        if st.depth > st.depth_limit:
            raise DepthExceeded(f"application depth exceeded {st.depth_limit}")
        try:
            return _eval_expr(st, fn.body, {fn.fname: fn}, {fn.arg: arg})
        finally:
            st.depth -= 1
    if tp is PrimOp:
        args = [_eval_term(st, a) for a in t.args]
        return _apply_primop(t.op, args)
    if tp is Pair:
        left = _eval_term(st, t.left)
        right = _eval_term(st, t.right)
        return t if left is t.left and right is t.right else Pair(left, right)
    if tp is Bang:
        body = _eval_term(st, t.body)
        return t if body is t.body else Bang(body)
    if tp is MFun:
        return t  # a pure function value is the function itself
    if tp is Inl:
        body = _eval_term(st, t.body)
        return t if body is t.body else Inl(body, t.left_type, t.right_type)
    if tp is Inr:
        body = _eval_term(st, t.body)
        return t if body is t.body else Inr(body, t.left_type, t.right_type)
    if tp is Roll:
        body = _eval_term(st, t.body)
        return t if body is t.body else Roll(body, t.rec_type)
    if tp is Unroll:
        v = _eval_term(st, t.body)
        if type(v) is not Roll:
            raise Stuck("unroll of a non-rolled value")
        return v.body
    if tp is Box:
        return st.alloc_box(_eval_term(st, t.body))
    if tp is Unbox:
        v = _eval_term(st, t.body)
        if type(v) is not BoxVal:
            raise Stuck("unbox of a non-box value")
        return st.boxes[v.tag]
    if tp is KeyOf:
        v = _eval_term(st, t.body)
        if type(v) is not BoxVal:
            raise Stuck("keyof of a non-box value")
        return IntLit(v.tag)
    if tp is TermCase:
        v = _eval_term(st, t.scrut)
        vtp = type(v)
        if vtp is Inl:
            return _eval_term(st, subst(t.left_arm, {}, {t.left_name: v.body}))
        if vtp is Inr:
            return _eval_term(st, subst(t.right_arm, {}, {t.right_name: v.body}))
        raise Stuck("case of a non-sum value")
    if tp is TermSplit:
        v = _eval_term(st, t.scrut)
        if type(v) is not Pair:
            raise Stuck("split of a non-pair value")
        return _eval_term(st, subst(t.body, {}, {t.left_name: v.left, t.right_name: v.right}))
    if tp is MFunVal:
        raise Stuck("location-subscripted function in pure evaluation")
    if tp is Var:
        raise Stuck(f"free variable '{t.name}' at run time")
    if tp is Res:
        raise Stuck(f"free resource '{t.name}' at run time")
    raise Stuck(f"no rule for term {t!r}")


def _eval_expr(st: PureState, e: Expr, vmap: dict, rmap: dict) -> Term:
    # deferred substitution, mirroring the memoizing evaluator step for
    # step so the two semantics count identical rule applications
    while True:
        st.stats.steps += 1
        tp = type(e)
        if tp is Return:
            # always evaluate; nothing is looked up or stored
            v = _eval_term(st, subst(e.body, vmap, rmap))
            st.stats.returns += 1
            return v
        if tp is LetBang:
            v = _eval_term(st, subst(e.scrut, vmap, rmap))
            if type(v) is not Bang:
                raise Stuck("let ! of a non-bang value")
            vmap = {**vmap, e.name: v.body}
            e = e.body
            continue
        if tp is LetPair:
            v = _eval_term(st, subst(e.scrut, vmap, rmap))
            if type(v) is not Pair:
                raise Stuck("let* of a non-pair value")
            rmap = {**rmap, e.left_name: v.left, e.right_name: v.right}
            e = e.body
            continue
        if tp is MCase:
            v = _eval_term(st, subst(e.scrut, vmap, rmap))
            vtp = type(v)
            if vtp is Inl:
                arm, name = e.left_arm, e.left_name
            elif vtp is Inr:
                arm, name = e.right_arm, e.right_name
            else:
                raise Stuck("mcase of a non-sum value")
            rmap = {**rmap, name: v.body}
            e = arm
            continue
        raise Stuck(f"no rule for expression {e!r}")


def eval_pure_term(t: Term, state: "PureState | None" = None) -> Term:
    """Evaluate a closed, location-free term under the reference
    semantics. Returns the pure value."""
    if state is None:
        state = PureState()
    return _eval_term(state, t)


@dataclass(slots=True)
class PureRunResult:
    value: Term
    state: PureState
    decl_values: "dict[str, Term]"
    stats: EvalStats


def run_program_pure(program: Program, state: "PureState | None" = None) -> PureRunResult:
    if state is None:
        state = PureState()
    values: "dict[str, Term]" = {}
    for name, term in program.decls:
        values[name] = _eval_term(state, subst(term, values, {}))
    value = _eval_term(state, subst(program.main, values, {}))
    return PureRunResult(value, state, values, state.stats)


# --------------------------------------------------------------------------
# Differential check
# --------------------------------------------------------------------------


def values_agree(memo_value: Term, memo_boxes: "dict[int, Term]",
                 pure_value: Term, pure_boxes: "dict[int, Term]",
                 tag_map: "dict[int, int] | None" = None) -> bool:
    """Structural agreement of an (already erased) memoized value with a
    pure value.

    Boxes agree when their contents agree and the pure tag consistently
    maps to the same memoized tag. The correspondence runs pure-side to
    memoized-side: memoization can merge two equal pure boxes into one
    shared box, never the reverse.
    """
    if tag_map is None:
        tag_map = {}
    compared: "set[tuple[int, int]]" = set()

    def go(m, p) -> bool:
        if m is p:
            return True
        tm = type(m)
        if tm is not type(p):
            return False
        if tm is BoxVal:
            known = tag_map.get(p.tag)
            if known is None:
                tag_map[p.tag] = m.tag
            elif known != m.tag:
                return False
            pair = (m.tag, p.tag)
            if pair in compared:
                return True
            compared.add(pair)
            return go(erase(memo_boxes[m.tag]), pure_boxes[p.tag])
        for name in node_fields(tm):
            vm = getattr(m, name)
            vp = getattr(p, name)
            if isinstance(vm, (Term, Expr)):
                if not go(vm, vp):
                    return False
            elif isinstance(vm, Type):
                if not type_eq(vm, vp):
                    return False
            elif isinstance(vm, tuple):
                if len(vm) != len(vp) or not all(go(x, y) for x, y in zip(vm, vp)):
                    return False
            elif vm != vp:
                return False
        return True

    return go(memo_value, pure_value)


@dataclass(slots=True)
class Verdict:
    ok: bool
    detail: str
    memo_value: "Term | None" = None
    pure_value: "Term | None" = None
    memo_stats: "EvalStats | None" = None
    pure_stats: "EvalStats | None" = None


def diff_check(program: Program, *, checked: bool = True,
               fault: "str | None" = None,
               depth_limit: int = 10 ** 6) -> Verdict:
    """Run the memoizing and the pure semantics on a program that has
    already passed `check_program`, and compare outcomes. A mismatch is a
    verdict, not an error; both runs failing with the same fault (e.g. div
    by zero) agrees too.
    """
    cfg = EvalConfig(checked=checked, fault=fault, depth_limit=depth_limit)
    memo_err = pure_err = None
    memo = pure = None
    try:
        memo = run_program(program, cfg)
    except MflRuntimeError as exc:
        memo_err = exc
    state = PureState(depth_limit=depth_limit)
    try:
        pure = run_program_pure(program, state)
    except MflRuntimeError as exc:
        pure_err = exc
    if memo_err is not None or pure_err is not None:
        if type(memo_err) is type(pure_err):
            return Verdict(True, f"both semantics fault alike: {memo_err}")
        return Verdict(False,
                       f"memoized: {memo_err or 'value'}, pure: {pure_err or 'value'}",
                       memo_stats=cfg.stats, pure_stats=state.stats)
    erased = erase(memo.value)
    if values_agree(erased, memo.store.boxes, pure.value, state.boxes):
        return Verdict(True, "outcomes agree", erased, pure.value,
                       cfg.stats, state.stats)
    return Verdict(False, "memoized and pure outcomes differ",
                   erased, pure.value, cfg.stats, state.stats)
