"""The one evaluator, compiled to Python closures, and its policies.

Under the memo policy terms evaluate against a store; evaluating a
function term allocates a fresh, empty memo table and puts it and its
location on the resulting value. Applying a function evaluates its
body as an *expression* relative to the callee's own table, starting
from the empty branch, `()`. Expression evaluation explores the argument
(`let !`, `let*`, `mcase`), appending one event per exploration step,
until a `return` completes the body: the accumulated branch keys the
memo table, either yielding the stored result or binding the freshly
computed one. `cold` pays for every lookup and insert but never reuses.
A `return` counts its hit or miss in the table's record for the running
config alone (`mfl.stats`); one that runs its body, in `computed_returns`.

The pure policy is the paper's reference semantics: the memo semantics
with the store deleted. A function evaluates to itself (its closed
`MFun`, no location), a `return` always evaluates its body, and no
branch is recorded; boxes still allocate tags from the store, since
`keyof` makes them observable. The policy is a flag of `EvalConfig`,
read at run time in the few closures where the semantics differ
(`return`, `let !`, `mcase`, `box`, `mfun`), so one compiled program
runs under either semantics (Reynolds 1972: one interpreter
parameterised by its semantics).

Nothing is interpreted node by node. Each `Term` and `Expr` node is
compiled once into a Python closure with its children's closures and
static fields (names, operator, types) bound in advance (in the style
of Feeley & Lapalme 1987), so a node's type is dispatched at compile
time rather than at every visit. `compile_program` compiles the
declarations and main as one unit. An `mfun` body is compiled once per
static site, when the site first allocates a function value, and the
code is kept in the site's `_Site` cell; the names the function
captures become slots of its frame, filled from the enclosing frame
whenever a value is made. The value carries its code, as a closure
carries its code and environment (Landin 1964): `code` holds the
site's cell, the captured values, and the tail of the closures' frame
(those values, then padding). An application runs the body its site
holds; a function value that no evaluation made has no code, and
applying it is stuck.

Function bodies have a second tier (Hölzle & Ungar 1994). A site's
cell counts its activations, and after `HOT_CALLS` of them the body is
generated as one Python function (`mfl.tier`). From then on, runs of
the plain policy (`EvalConfig.plain`: normal mode, unchecked, untraced)
call that function; other policies and top-level terms stay on the
closures. Values made before the switch reach the new code, since
theirs is the cell. Two tiers, not one, because `compile()` costs 0.6
to 1.8 ms per quicksort body (Python 3.11), while most programs run few
activations: over 200 `perfbench:fuzz:1:<i>` programs, a whole
`diff_check` made a median of 8 and at most 27. A generated site
outlives its program, as translated code is kept in Deutsch &
Schiffman's Smalltalk-80 (1984): a later compile of an equal typed
`mfun` term gets the site, with its closures, generated code and nested
sites, and starts hot, compiling and generating nothing (`_hot_site`).

Only bodies of `mfun` terms that passed the typechecker are generated,
from their static types, and test nothing at run time; an untyped body
stays on the closures. Untyped code (`eval_term`, `eval_expr`, an
unchecked program) checks each argument it gives a typed body, and each
value a typed function it makes captures, against its static type
(`_fits`). A misfit marks the store `ill_typed`, and no later run on it
enters generated code: a memo entry made from ill-typed input is never
read by code that trusts its types. A box a typed body returns to
untyped code fits the body's result type, and is not walked again.

Bindings live in a frame, one list per activation of the closures (a
generated body takes the header as arguments, and its slots are
locals): the compiler gives every binder of a body its own slot and
resolves each name occurrence to the slot of its innermost binder, in
the style of the CEK machine (Felleisen & Friedman 1986) with the
environment flattened. Slots 0-2 hold the function value, the argument
and the activation's application depth, 0 in a top-level frame: no
depth is shared, so a run that raised leaves none to undo. A branch is
a tuple and starts as `()`. Values stay
closed terms all the same, because the one place a value can capture
its surroundings, an `mfun` body, is closed by substitution when the
function value is made. Erased memoized results therefore compare
directly against pure ones.

The cost model is that of the substitution rules and does not depend
on the compilation: every node evaluated is one step, and a name
occurrence counts the steps its bound value would take to re-evaluate,
one per node of the value (see `_lookup_steps`). A closed value written
in the program (a substituted declaration, say) costs its node count.
`mt_lookup`, `mt_insert` and `subst` are called through this module's
globals, so they can be intercepted here: perfbench's tracer times them,
and the differential tests' mutants (`tests/support.py`) replace
`mt_insert` to drop inserts or to insert under a wrong key. Generated
bodies walk their tables inline instead, but only those generated while
both functions are `memostore`'s own; one generated while either is
replaced calls it, so an interceptor installed before a program is
compiled sees every lookup and insert of its runs.

A `let !` whose binder some `!x` reads keeps the bang it took apart in
a frame slot of its own, and that `!x` returns the bang, not a new one.

Every name occurrence compiles to the one closure of `_compile_name`,
whichever node it is the operand of, and that closure charges the read:
one step for a one-node value, two for a banged leaf and `_lookup_steps`
for the rest; then, in checked mode, a bare function value's table is
checked, after its step is charged. The generated tier charges the
same count, from the name's static type. A node charges its own step
before it runs its operands, and every charge is added before anything
raises, so the counters at a failure are those of the substitution
rules too.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace

from . import memostore
from .errors import DepthExceeded, DivisionByZero, InternalInvariantError, MflError, Stuck
from .memostore import INL_EVENT, INR_EVENT, KIND_BANG, Store, index_of, mt_insert, mt_lookup
from .memostore import _Node  # noqa: F401  (read by generated code, which runs in these globals)
from .stats import EvalStats
from .syntax import (
    Apply, Bang, Box, BoxVal, Expr, IntLit, Inl, Inr, KeyOf, LetBang,
    LetPair, MCase, MFun, MFunVal, Pair, PrimOp, Program, Res, Return,
    Roll, TArrow, TBang, TBox, TInt, TProd, TRec, TSum, TUnit, Term,
    TermCase, TermSplit, Type, UNIT, UnitLit, Unbox, Unroll, Var,
    free_names, free_resources, subst, term_eq, type_eq, unroll_type,
)

_SUM_UNIT_FALSE = Inl(UnitLit(), UNIT, UNIT)
_SUM_UNIT_TRUE = Inr(UnitLit(), UNIT, UNIT)

# Activations an `mfun` site runs as closures before its body is
# generated as one Python function (see the module docstring).
HOT_CALLS = 32


@dataclass(slots=True)
class EvalConfig:
    """Evaluation policy and instrumentation.

    `cold` mode pays every memo-table cost but never returns a stored
    result, modelling the worst case where nothing is reusable. `pure`
    mode is the reference semantics: no tables, no branches. `checked`
    turns on the run-time invariant assertions (duplicate branch
    detection and resource-freeness of return bodies). `reuse` and
    `pure` are `mode` as the flags the evaluator reads; `plain` is set
    for the policy the generated tier implements (normal, unchecked,
    untraced). A config holds no run state but its counters, so it can
    be reused after a run that raised.
    """

    mode: str = "normal"  # "normal" | "cold" | "pure"
    checked: bool = False
    depth_limit: int = 10 ** 6
    trace: bool = False
    stats: EvalStats = field(default_factory=EvalStats)
    reuse: bool = field(init=False)
    pure: bool = field(init=False)
    plain: bool = field(init=False)

    def __post_init__(self):
        if self.mode not in ("normal", "cold", "pure"):
            raise ValueError(f"unknown evaluation mode {self.mode!r}")
        self.reuse = self.mode == "normal"
        self.pure = self.mode == "pure"
        self.plain = self.reuse and not self.checked and not self.trace
        if self.trace and self.stats.events is None:
            self.stats.events = []


def _div(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero("div by zero")
    return a // b


_INT_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "div": _div,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
}


def _check_loc(store: Store, loc: int) -> None:
    if loc not in store.tables:
        raise InternalInvariantError(
            f"function value refers to unallocated location {loc}")


_LEAVES = frozenset((IntLit, UnitLit, BoxVal))
_FUNS = frozenset((MFunVal, MFun))
_ATOMS = _LEAVES | _FUNS  # values of one node


def _not_applicable(fn: Term) -> Stuck:
    """The error of applying `fn`: a value that is no function, or a
    function value that no evaluation made."""
    if type(fn) is not MFunVal and type(fn) is not MFun:
        return Stuck("application of a non-function value")
    return Stuck(f"function value '{fn.fname}' was not made by an evaluation")


def _too_deep(cfg: "EvalConfig") -> DepthExceeded:
    return DepthExceeded(f"application depth exceeded {cfg.depth_limit}")


def _lookup_steps(store: Store, v: Term, cfg: EvalConfig) -> int:
    """Steps charged for looking up the value `v`: what re-evaluating it
    as a substituted term would cost, one step per `Pair`, `Bang`,
    `Inl`, `Inr` or `Roll` node plus one per leaf. In checked mode every
    function value inside must name an allocated table."""
    n = 1
    tp = type(v)
    while tp is Bang or tp is Inl or tp is Inr or tp is Roll:
        v = v.body
        tp = type(v)
        n += 1
    if tp is Pair:
        for child in (v.left, v.right):
            tp = type(child)
            if tp is Bang and type(child.body) in _LEAVES:
                n += 2
            elif tp in _LEAVES:
                n += 1
            else:
                n += _lookup_steps(store, child, cfg)
        return n
    if tp is MFunVal and cfg.checked:
        _check_loc(store, v.loc)
    return n


_VALUE_NODES = frozenset((IntLit, UnitLit, BoxVal, MFunVal, Bang, Inl, Inr, Roll, Pair))


def _value_size(t: Term, funs: list, before: int = 0) -> "int | None":
    """The node count of `t` if it is a closed value, appending to
    `funs` a (location, steps up to and including it) pair for each of
    its function values, in evaluation order; `before` is the steps
    taken before `t`. None if evaluating `t` does more than return it."""
    tp = type(t)
    if tp in _LEAVES:
        return 1
    if tp is MFunVal:
        funs.append((t.loc, before + 1))
        return 1
    if tp is Bang or tp is Inl or tp is Inr or tp is Roll:
        n = _value_size(t.body, funs, before + 1)
        return None if n is None else n + 1
    if tp is Pair:
        left = _value_size(t.left, funs, before + 1)
        right = None if left is None else _value_size(t.right, funs, before + 1 + left)
        return None if right is None else left + right + 1
    return None


_unroll = lru_cache(maxsize=64)(unroll_type)  # types compare by identity
# the value nodes of each type
_SHAPES = {TInt: (IntLit,), TUnit: (UnitLit,), TBox: (BoxVal,), TBang: (Bang,), TRec: (Roll,),
           TProd: (Pair,), TSum: (Inl, Inr), TArrow: (MFunVal, MFun)}


def _fits(store: Store, v: Term, ty: Type) -> bool:
    """Whether the value `v` has the type `ty`. Boxes are followed
    through the store; one whose contents fit once is not looked at
    again for that type, since boxes never change. A function value fits
    if its site is typed, and so has code, with a type equal to `ty`."""
    found: dict = {}
    todo = [(v, ty)]
    while todo:
        v, ty = todo.pop()
        tt = type(ty)
        if type(v) not in _SHAPES.get(tt, ()):
            return False
        if tt is TBang or tt is TRec:
            todo.append((v.body, ty.item if tt is TBang else _unroll(ty)))
        elif tt is TProd:
            todo += ((v.left, ty.left), (v.right, ty.right))
        elif tt is TSum:
            todo.append((v.body, ty.left if type(v) is Inl else ty.right))
        elif tt is TBox:
            if v.tag not in store.boxes:
                return False
            known = found.get(v.tag) or store.fits.get(v.tag)
            if known is not ty.item and (known is None or not type_eq(known, ty.item)):
                found[v.tag] = ty.item
                todo.append((store.boxes[v.tag], ty.item))
        elif tt is TArrow and (v.code is None or v.code[0].ty is None
                               or not type_eq(v.code[0].ty, ty)):
            return False
    store.fits.update(found)
    return True


# --------------------------------------------------------------------------
# The compiler
#
# A compiled term is `ev(fr, cfg, store) -> value`; a compiled
# expression is `ex(fr, cfg, store, branch) -> value`, where `fr` is the
# activation's frame. Its header is the function value, whose location
# names the memo table, the argument and the depth. `vs` and `rs` map
# the variables and resources in scope to their frame slots; `unit`
# counts the slots of the unit being compiled, knows which of them hold
# values the function captured, and whether the unit has passed the
# typechecker (`typed`).
# --------------------------------------------------------------------------


class _Unit:
    __slots__ = ("size", "captured", "sites", "bangs", "typed")

    def __init__(self, size: int, captured: "range" = range(0), typed: bool = False):
        self.size = size
        self.captured = captured
        self.typed = typed
        self.sites: "dict[MFun, _Site]" = {}
        # the slot of each `let !` binder -> the slot that keeps the bang
        # it took apart, allocated by the first `!x` of the binder
        self.bangs: "dict[int, int | None]" = {}

    def slot(self) -> int:
        self.size += 1
        return self.size - 1


def _compile_term(t: Term, vs: dict, rs: dict, unit: _Unit):
    tp = type(t)
    if tp in _VALUE_NODES:
        funs: list = []
        n = _value_size(t, funs)
        if n is not None:
            return _compile_value(t, n, funs)
    if tp is Var or tp is Res:
        return _compile_name(t.name, (vs if tp is Var else rs).get(t.name),
                             "variable" if tp is Var else "resource")
    comp = _TERM_COMPILERS.get(tp)
    if comp is None:
        def ev(fr, cfg, store):
            cfg.stats.steps += 1
            raise Stuck(f"no rule for term {t!r}")
        return ev
    return comp(t, vs, rs, unit)


def _compile_value(t: Term, n: int, funs: list):
    if not funs:
        def ev(fr, cfg, store):
            cfg.stats.steps += n
            return t
        return ev
    locs = tuple(loc for loc, _ in funs)
    stuck_after = funs[0][1]

    def ev(fr, cfg, store):
        if cfg.pure:
            cfg.stats.steps += stuck_after
            raise Stuck("location-subscripted function in pure evaluation")
        cfg.stats.steps += n
        if cfg.checked:
            for loc in locs:
                _check_loc(store, loc)
        return t
    return ev


def _compile_name(name: str, slot: "int | None", kind: str):
    if slot is None:
        def ev(fr, cfg, store):
            cfg.stats.steps += 1
            raise Stuck(f"free {kind} '{name}' at run time")
        return ev

    # The charge of a name read, the only one in the closures: the common
    # values, one node or a banged leaf, are charged inline, the rest by
    # `_lookup_steps`; a bare function value's table is checked after its
    # step is charged.
    def ev(fr, cfg, store):
        v = fr[slot]
        tp = type(v)
        cfg.stats.steps += (1 if tp in _ATOMS else
                            2 if tp is Bang and type(v.body) in _LEAVES else
                            _lookup_steps(store, v, cfg))
        if tp is MFunVal and cfg.checked:
            _check_loc(store, v.loc)
        return v
    return ev


def _term_apply(t: Apply, vs, rs, unit):
    fn_c = _compile_term(t.fn, vs, rs, unit)
    arg_c = _compile_term(t.arg, vs, rs, unit)
    untyped = not unit.typed

    def ev(fr, cfg, store):
        cfg.stats.steps += 1
        fn = fn_c(fr, cfg, store)
        if type(fn) not in _FUNS or fn.code is None:
            raise _not_applicable(fn)
        site, cap, tail = fn.code
        arg = arg_c(fr, cfg, store)
        # the entry check of a typed body applied by untyped code
        if (untyped and site.ty is not None and not store.ill_typed
                and not _fits(store, arg, site.ty.arg)):
            store.ill_typed = True
        if site.left:  # count down to the switch, inline: no extra call
            site.left -= 1
            if not site.left:
                _promote(site)
        depth = fr[2] + 1
        if depth > cfg.depth_limit:
            raise _too_deep(cfg)
        v = (site.run(fn, arg, depth, cap, cfg, store) if site.hot and cfg.plain and not store.ill_typed
             else site.cold([fn, arg, depth] + tail, cfg, store, ()))  # no spare slots, unlike `*tail`
        # a box a typed body returns to untyped code fits its result type
        if untyped and type(v) is BoxVal and site.ty is not None and not store.ill_typed:
            store.fits[v.tag] = site.ty.res.item
        return v
    return ev


def _term_primop(t: PrimOp, vs, rs, unit):
    op = t.op
    arg_cs = [_compile_term(a, vs, rs, unit) for a in t.args]
    if op == "int2sum" and len(arg_cs) == 1:
        (a_c,) = arg_cs

        def ev(fr, cfg, store):
            cfg.stats.steps += 1
            a = a_c(fr, cfg, store)
            if type(a) is not IntLit:
                raise Stuck(f"operator '{op}' applied to a non-integer")
            return _SUM_UNIT_TRUE if a.value != 0 else _SUM_UNIT_FALSE
        return ev
    if op in _INT_OPS and len(arg_cs) == 2:
        int_op = _INT_OPS[op]
        a_c, b_c = arg_cs

        def ev(fr, cfg, store):
            cfg.stats.steps += 1
            a = a_c(fr, cfg, store)
            b = b_c(fr, cfg, store)
            if type(a) is not IntLit or type(b) is not IntLit:
                raise Stuck(f"operator '{op}' applied to a non-integer")
            return IntLit(int_op(a.value, b.value))
        return ev

    # an unknown operator or a wrong operand count: stuck once the
    # operands are evaluated, as the substitution rules would be
    def ev(fr, cfg, store):
        cfg.stats.steps += 1
        for a_c in arg_cs:
            a_c(fr, cfg, store)
        raise Stuck(f"no rule for operator '{op}' on {len(arg_cs)} operand(s)")
    return ev


def _term_pair(t: Pair, vs, rs, unit):
    left_c = _compile_term(t.left, vs, rs, unit)
    right_c = _compile_term(t.right, vs, rs, unit)

    def ev(fr, cfg, store):
        cfg.stats.steps += 1
        left = left_c(fr, cfg, store)
        return Pair(left, right_c(fr, cfg, store))
    return ev


def _term_wrap(t, vs, rs, unit):
    # Bang, Inl, Inr, Roll around a body that is not a value
    tp = type(t)
    body_c = _compile_term(t.body, vs, rs, unit)
    # `!x` of a `let !`-bound x is the bang that `let !` took apart, kept
    # in a slot that the first such `!x` allocates
    slot = vs.get(t.body.name) if tp is Bang and type(t.body) is Var else None
    if slot in unit.bangs:
        held = unit.bangs[slot] = unit.bangs[slot] or unit.slot()

        def ev(fr, cfg, store):
            cfg.stats.steps += 1
            body_c(fr, cfg, store)
            return fr[held]
        return ev
    types = () if tp is Bang else (t.rec_type,) if tp is Roll else (t.left_type, t.right_type)

    def ev(fr, cfg, store):
        cfg.stats.steps += 1
        return tp(body_c(fr, cfg, store), *types)
    return ev


def _term_mfun(t: MFun, vs, rs, unit):
    free = free_names(t)
    vnames = tuple(name for name in vs if name in free)
    rnames = tuple(name for name in rs if name in free)
    slots = tuple(vs[name] for name in vnames) + tuple(rs[name] for name in rnames)
    site = unit.sites[t] = (_hot_sites and t.ctx is not None and _hot_site(t, vnames, rnames)
                            or _Site(vnames, rnames, t.ctx and t.ctx[0][t.fname]))
    # made by untyped code, a typed function checks what it captures
    # against the types it was checked at
    checks = ()
    if t.ctx is not None and not unit.typed:
        checks = [(i, ty) for i, ty in enumerate(_captured_types(t.ctx, vnames, rnames))
                  if ty is not None]

    def ev(fr, cfg, store):
        cfg.stats.steps += 1
        captured = [fr[slot] for slot in slots]
        if checks and not store.ill_typed and not all(
                _fits(store, captured[i], ty) for i, ty in checks):
            store.ill_typed = True
        return site.value(t, captured, cfg, store)
    return ev


def _term_unroll(t: Unroll, vs, rs, unit):
    body_c = _compile_term(t.body, vs, rs, unit)

    def ev(fr, cfg, store):
        cfg.stats.steps += 1
        v = body_c(fr, cfg, store)
        if type(v) is not Roll:
            raise Stuck("unroll of a non-rolled value")
        return v.body
    return ev


def _term_box(t: Box, vs, rs, unit):
    body_c = _compile_term(t.body, vs, rs, unit)

    def ev(fr, cfg, store):
        stats = cfg.stats
        stats.steps += 1
        v = body_c(fr, cfg, store)
        if not cfg.pure:
            stats.boxes_allocated += 1
        return store.alloc_box(v)
    return ev


def _term_unbox(t: Unbox, vs, rs, unit):
    body_c = _compile_term(t.body, vs, rs, unit)

    def ev(fr, cfg, store):
        cfg.stats.steps += 1
        v = body_c(fr, cfg, store)
        if type(v) is not BoxVal:
            raise Stuck("unbox of a non-box value")
        # a box of another store is caught where its tag is unallocated
        # here; where it is allocated, the running store's box is read.
        # One line, so that Python 3.11 runs no `NOP` for the `try`.
        try: return store.boxes[v.tag]  # noqa: E701
        except KeyError:
            raise InternalInvariantError(f"box value refers to unallocated tag {v.tag}") from None
    return ev


def _term_keyof(t: KeyOf, vs, rs, unit):
    body_c = _compile_term(t.body, vs, rs, unit)

    def ev(fr, cfg, store):
        cfg.stats.steps += 1
        v = body_c(fr, cfg, store)
        if type(v) is not BoxVal:
            raise Stuck("keyof of a non-box value")
        return IntLit(v.tag)
    return ev


def _term_case(t: TermCase, vs, rs, unit):
    scrut_c = _compile_term(t.scrut, vs, rs, unit)
    left_slot, right_slot = unit.slot(), unit.slot()
    left_c = _compile_term(t.left_arm, vs, {**rs, t.left_name: left_slot}, unit)
    right_c = _compile_term(t.right_arm, vs, {**rs, t.right_name: right_slot}, unit)

    def ev(fr, cfg, store):
        cfg.stats.steps += 1
        v = scrut_c(fr, cfg, store)
        vtp = type(v)
        if vtp is Inl:
            fr[left_slot] = v.body
            return left_c(fr, cfg, store)
        if vtp is Inr:
            fr[right_slot] = v.body
            return right_c(fr, cfg, store)
        raise Stuck("case of a non-sum value")
    return ev


def _term_split(t: TermSplit, vs, rs, unit):
    scrut_c = _compile_term(t.scrut, vs, rs, unit)
    left_slot, right_slot = unit.slot(), unit.slot()
    body_c = _compile_term(t.body, vs, {**rs, t.left_name: left_slot,
                                        t.right_name: right_slot}, unit)

    def ev(fr, cfg, store):
        cfg.stats.steps += 1
        v = scrut_c(fr, cfg, store)
        if type(v) is not Pair:
            raise Stuck("split of a non-pair value")
        fr[left_slot] = v.left
        fr[right_slot] = v.right
        return body_c(fr, cfg, store)
    return ev


_TERM_COMPILERS = {
    Apply: _term_apply, PrimOp: _term_primop, Pair: _term_pair,
    Bang: _term_wrap, Inl: _term_wrap, Inr: _term_wrap, Roll: _term_wrap,
    MFun: _term_mfun, Unroll: _term_unroll, Box: _term_box,
    Unbox: _term_unbox, KeyOf: _term_keyof, TermCase: _term_case,
    TermSplit: _term_split,
}


def _compile_expr(e: Expr, vs: dict, rs: dict, unit: _Unit):
    comp = _EXPR_COMPILERS.get(type(e))
    if comp is None:
        def ex(fr, cfg, store, branch):
            cfg.stats.steps += 1
            raise Stuck(f"no rule for expression {e!r}")
        return ex
    return comp(e, vs, rs, unit)


def _expr_return(e: Return, vs, rs, unit):
    body_c = _compile_term(e.body, vs, rs, unit)
    # the paper's rule: no resource may be free in a return body (one the
    # function captured is substituted away in its value's closed body)
    free = sorted(name for name in free_resources(e.body)
                  if rs.get(name) not in unit.captured)

    def ex(fr, cfg, store, branch):
        stats = cfg.stats
        stats.steps += 1
        if cfg.pure:
            # no table: always evaluate, store nothing
            v = body_c(fr, cfg, store)
            stats.computed_returns += 1
            return v
        table = fr[0].table
        found, cached = mt_lookup(table, branch, stats)
        if table.stats is not stats:
            table.count_for(stats)
        if found and cfg.reuse:
            table.counts.hits += 1
            if cfg.trace:
                stats.events.append(("hit", table.loc, branch))
            return cached
        table.counts.misses += 1
        if cfg.trace:
            stats.events.append(("miss", table.loc, branch))
        if free and cfg.checked:
            raise InternalInvariantError(f"return body has free resources {free}")
        v = body_c(fr, cfg, store)
        mt_insert(table, branch, v, stats,
                  on_dup="error" if cfg.checked and cfg.reuse else "keep")
        stats.computed_returns += 1
        return v
    return ex


def _expr_let_bang(e: LetBang, vs, rs, unit):
    scrut_c = _compile_term(e.scrut, vs, rs, unit)
    slot = unit.slot()
    unit.bangs[slot] = None
    body_c = _compile_expr(e.body, {**vs, e.name: slot}, rs, unit)
    bang_slot = unit.bangs.pop(slot)  # None unless some `!x` reads the binder

    def ex(fr, cfg, store, branch):
        stats = cfg.stats
        stats.steps += 1
        v = scrut_c(fr, cfg, store)
        if type(v) is not Bang:
            raise Stuck("let ! of a non-bang value")
        inner = v.body
        if not cfg.pure:
            tp = type(inner)
            event = (KIND_BANG, inner.value if tp is IntLit else
                     inner.tag if tp is BoxVal else index_of(inner))
            branch += (event,)
            stats.branch_events += 1
            if len(branch) > stats.max_branch_len:
                stats.max_branch_len = len(branch)
            if cfg.trace:
                stats.events.append(("event", fr[0].loc, event))
        fr[slot] = inner
        if bang_slot is not None:
            fr[bang_slot] = v
        return body_c(fr, cfg, store, branch)
    return ex


def _expr_let_pair(e: LetPair, vs, rs, unit):
    scrut_c = _compile_term(e.scrut, vs, rs, unit)
    left_slot, right_slot = unit.slot(), unit.slot()
    body_c = _compile_expr(e.body, vs, {**rs, e.left_name: left_slot,
                                        e.right_name: right_slot}, unit)

    def ex(fr, cfg, store, branch):
        cfg.stats.steps += 1
        v = scrut_c(fr, cfg, store)
        if type(v) is not Pair:
            raise Stuck("let* of a non-pair value")
        fr[left_slot] = v.left
        fr[right_slot] = v.right
        return body_c(fr, cfg, store, branch)
    return ex


def _expr_mcase(e: MCase, vs, rs, unit):
    scrut_c = _compile_term(e.scrut, vs, rs, unit)
    left_slot, right_slot = unit.slot(), unit.slot()
    left_c = _compile_expr(e.left_arm, vs, {**rs, e.left_name: left_slot}, unit)
    right_c = _compile_expr(e.right_arm, vs, {**rs, e.right_name: right_slot}, unit)

    def ex(fr, cfg, store, branch):
        stats = cfg.stats
        stats.steps += 1
        v = scrut_c(fr, cfg, store)
        vtp = type(v)
        if vtp is Inl:
            event, slot, arm_c = INL_EVENT, left_slot, left_c
        elif vtp is Inr:
            event, slot, arm_c = INR_EVENT, right_slot, right_c
        else:
            raise Stuck("mcase of a non-sum value")
        if not cfg.pure:
            branch += (event,)
            stats.branch_events += 1
            if len(branch) > stats.max_branch_len:
                stats.max_branch_len = len(branch)
            if cfg.trace:
                stats.events.append(("event", fr[0].loc, event))
        fr[slot] = v.body
        return arm_c(fr, cfg, store, branch)
    return ex


_EXPR_COMPILERS = {
    Return: _expr_return, LetBang: _expr_let_bang, LetPair: _expr_let_pair,
    MCase: _expr_mcase,
}


def _compile_body(fn, vnames: tuple, rnames: tuple, typed: bool) -> tuple:
    """Compile the body of the function term `fn`, which captures the
    variables `vnames` and the resources `rnames`, as a typed unit or
    not. Returns the compiled body, its frame padding (after the header
    and the captured values) and the sites of its `mfun` terms."""
    ncap = len(vnames) + len(rnames)
    unit = _Unit(3 + ncap, range(3, 3 + ncap), typed)
    vs = {name: 3 + i for i, name in enumerate(vnames)}
    rs = {name: 3 + len(vnames) + i for i, name in enumerate(rnames)}
    vs[fn.fname] = 0
    rs[fn.arg] = 1
    run = _compile_expr(fn.body, vs, rs, unit)
    return run, [None] * (unit.size - 3 - ncap), unit.sites


class _Site:
    """An `mfun` site: the variables `vnames` and resources `rnames` its
    body captures, the function's type `ty` if the site is typed (else
    None), and the body's code, compiled when the site makes its first
    value. `cold` is the body as closures, on a list frame, which every
    policy runs. `run(f, arg, depth, cap, cfg, store)` is the generated
    function, which plain runs call, once the site has had `HOT_CALLS`
    activations and `hot` is set; until then, or if the body cannot be
    generated, it is `_cold_entry`. `left` counts the activations down
    to that switch and then stays 0; a site that a later compile reuses
    (`_hot_site`) has switched, so it is 0 from that compile's start.
    `sites` maps the body's own `mfun` terms to their sites. The site
    keeps the function term's body, names, source position and checked
    contexts (`ctx`) but not the term: a pure value is the term itself,
    and its code points here, so a reference back would be a cycle that
    outlives the run."""

    __slots__ = ("vnames", "rnames", "ty", "fname", "arg", "pos", "body", "ctx", "cold",
                 "run", "hot", "pad", "sites", "left")

    def __init__(self, vnames: tuple, rnames: tuple, ty: "TArrow | None"):
        self.vnames, self.rnames, self.ty = vnames, rnames, ty
        self.cold, self.run, self.hot = None, _cold_entry, False
        self.left = HOT_CALLS + 1

    def value(self, t: MFun, captured: list, cfg: EvalConfig, store: Store) -> Term:
        """The value of the function term `t` made at this site, closing
        its body over the `captured` values (variables, then resources)."""
        if self.cold is None:
            self.cold, self.pad, self.sites = _compile_body(t, self.vnames, self.rnames,
                                                            self.ty is not None)
            self.fname, self.arg, self.pos = t.fname, t.arg, t.pos
            self.body, self.ctx = t.body, t.ctx
        closed, code = t, (self, (), self.pad)
        if captured:
            # a value is a closed term: substitute what the body captures
            nv = len(self.vnames)
            closed = subst(t, dict(zip(self.vnames, captured)),
                           dict(zip(self.rnames, captured[nv:])))
            code = (self, captured, captured + self.pad)
        if cfg.pure:
            closed.code = code
            return closed
        loc = store.alloc_table()
        return MFunVal(loc, t.fname, t.arg, t.arg_type, t.res_type, closed.body, code=code,
                       table=store.tables[loc])


def _cold_entry(f, arg, depth: int, cap, cfg: EvalConfig, store: Store):
    """The entry of a site's closures for a generated caller: builds their frame."""
    site, cap, tail = f.code
    return site.cold([f, arg, depth] + tail, cfg, store, ())


def _captured_types(ctx: tuple, vnames: tuple, rnames: tuple) -> list:
    """The types `ctx` gives the captured `vnames` and `rnames`, or None."""
    return [*map(ctx[0].get, vnames), *map(ctx[1].get, rnames)]


# Generated sites, for later compiles of equal function terms
# (`_hot_site`), by what their code depends on besides its body and
# types: the names of the function term or site `fn` and of what it
# captures, the switch point, and whether the generator walks memo
# tables inline (if not, the code calls the `mt_lookup` and `mt_insert`
# of the run). The source position tells apart a program's functions of
# equal names. It holds `HOT_SITES` sites and drops the oldest beyond
# that. The one cache of generated code, it is shared by the threads of
# a process: `_promote` changes it under `_hot_lock`, and `_hot_site`
# reads it with one `dict.get`.
HOT_SITES = 64
_hot_sites: "dict[tuple, _Site]" = {}
_hot_lock = threading.Lock()


def walks_inline() -> bool:
    """Whether no tracer or mutant has replaced `mt_lookup` or `mt_insert`."""
    return mt_lookup is memostore.mt_lookup and mt_insert is memostore.mt_insert


def _hot_key(fn, vnames: tuple, rnames: tuple) -> tuple:
    return fn.fname, fn.arg, fn.pos, vnames, rnames, HOT_CALLS, walks_inline()


def _promote(site: _Site) -> None:
    """Switch `site`'s plain runs to its body generated as one Python
    function, if the body can be generated, and keep the site for later
    compiles of an equal function term."""
    hot = tier.generate(site)
    if hot is not None:
        site.run, site.hot = hot, True
        with _hot_lock:
            if len(_hot_sites) >= HOT_SITES:
                del _hot_sites[next(iter(_hot_sites))]
            _hot_sites[_hot_key(site, site.vnames, site.rnames)] = site


def _hot_site(t: MFun, vnames: tuple, rnames: tuple) -> "_Site | None":
    """The generated site of an earlier compile of a term equal to the
    typed function term `t`, if any: its code is what `t`'s own site
    would build, as it depends only on the body, the names, and the
    types of the function and of what it captures."""
    site = _hot_sites.get(_hot_key(t, vnames, rnames))
    if (site is not None and type_eq(site.ty, t.ctx[0][t.fname])
            and all(map(type_eq, _captured_types(t.ctx, vnames, rnames),
                        _captured_types(site.ctx, vnames, rnames)))
            and term_eq(t.body, site.body)):
        return site
    return None


def eval_term(store: Store, t: Term, cfg: "EvalConfig | None" = None):
    """Evaluate a closed term. Returns (value, store); the store passed
    in is extended in place and returned for convenience."""
    if cfg is None:
        cfg = EvalConfig()
    unit = _Unit(3)
    ev = _compile_term(t, {}, {}, unit)
    return ev([None, None, 0] + [None] * (unit.size - 3), cfg, store), store


def eval_expr(store: Store, loc: int, branch, e: Expr, cfg: "EvalConfig | None" = None):
    """Evaluate an expression against the memo table at `loc`, starting
    from `branch` (a sequence of encoded events)."""
    if cfg is None:
        cfg = EvalConfig()
    _check_loc(store, loc)
    unit = _Unit(3)
    ex = _compile_expr(e, {}, {}, unit)
    # slot 0 stands for the function value: only its location and table are read
    frame = [SimpleNamespace(loc=loc, table=store.tables[loc]), None, 0] + [None] * (unit.size - 3)
    return ex(frame, cfg, store, tuple(branch)), store


def compile_program(program: Program):
    """Compile the declarations and main of `program` as one unit. The
    result, `run(cfg, store)`, evaluates the declarations in order and
    then main, and returns main's value and the declared values by name.
    The code holds no state of a run, so it runs under every policy."""
    unit = _Unit(3, typed=program.ty is not None)
    vs: "dict[str, int]" = {}
    decls = []
    for name, term in program.decls:
        ev = _compile_term(term, vs, {}, unit)
        vs[name] = unit.slot()
        decls.append((name, vs[name], ev))
    main = _compile_term(program.main, vs, {}, unit)
    size = unit.size

    def run(cfg: EvalConfig, store: Store):
        fr = [None, None, 0] + [None] * (size - 3)
        values: "dict[str, Term]" = {}
        for name, slot, ev in decls:
            values[name] = fr[slot] = ev(fr, cfg, store)
        return main(fr, cfg, store), values
    return run


@dataclass(slots=True)
class RunResult:
    value: Term
    store: Store
    decl_values: "dict[str, Term]"
    stats: EvalStats


def run_program(program: Program, cfg: "EvalConfig | None" = None,
                store: "Store | None" = None, compiled=None) -> RunResult:
    """Evaluate the declarations in order, threading one store, then the
    main term with every declared name bound to its value. Reuse across
    top-level calls happens precisely because the store persists between
    declarations and main. `compiled` is `compile_program(program)`, if
    the caller has it already."""
    if cfg is None:
        cfg = EvalConfig()
    if store is None:
        store = Store()
    if compiled is None:
        compiled = compile_program(program)
    value, values = compiled(cfg, store)
    return RunResult(value, store, values, cfg.stats)


# Last, because the generator reads this module's names. Importing it
# with the package, not at the first switch, keeps its compile on the
# importing thread rather than on the deep-stack worker.
from . import tier  # noqa: E402
