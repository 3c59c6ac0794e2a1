"""The one evaluator, compiled to Python closures, and its policies.

Under the memo policy terms evaluate against a store; evaluating a
function term allocates a fresh, empty memo table and stamps its
location on the resulting value. Applying a function evaluates its
body as an *expression* relative to the callee's own table, starting
from the empty branch. Expression evaluation explores the argument
(`let !`, `let*`, `mcase`), appending one event per exploration step,
until a `return` completes the body: the accumulated branch keys the
memo table, either yielding the stored result or binding the freshly
computed one. `cold` pays for every lookup and insert but never reuses.

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
code is kept in the site's closure; the names the function captures
become slots of its frame, filled from the enclosing frame whenever a
value is made. The value carries its code, as a closure carries its
code and environment (Landin 1964): `code` holds the compiled body and
the tail of its frame, the captured values and then padding. An
application runs `fn.code` directly; a function value that no
evaluation made has no code, and applying it is stuck.

Bindings live in a frame, one list per activation: the compiler gives
every binder of a body its own slot and resolves each name occurrence
to the slot of its innermost binder, in the style of the CEK machine
(Felleisen & Friedman 1986) with the environment flattened. Values stay
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
`mt_insert` to drop inserts or to insert under a wrong key.

Six operand sites read a bound name themselves: the function of an
application, the body of a `!` or `unbox`, and the scrutinee of a
`split`, `let !` or `let*`. There the node reads the frame slot and
compiles no closure for the operand, which saves a Python call per name
read (the dispatches a superoperator saves, Proebsting 1995). These are
the sites where the workloads read names: per `qsort-incr` operation,
`let !` reads 14.8k names inline, application 9.9k, `!` 8.0k, `unbox`
6.0k, `split` 5.5k and `let*` 4.8k. The scrutinee of a `case` or
`mcase` and the body of an `unroll` read none on `qsort-incr` or
`knapsack-dp` and at most 0.1 per `fuzz-diff` operation, so they call
the operand's closure. Every name read, inline or in the closure of
`_compile_name`, is charged by the same two statements: one step for a
one-node value, two for a banged leaf and `_lookup_steps` for the rest;
then, in checked mode, a bare function value's table is checked, after
its step is charged. A node charges its own step first and its
operand's next, as when the operand was a closure, and every charge is
added before anything raises, so the counters at a failure are those of
the substitution rules too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

from .errors import DepthExceeded, DivisionByZero, InternalInvariantError, Stuck
from .memostore import INL_EVENT, INR_EVENT, KIND_BANG, Store, index_of, mt_insert, mt_lookup
from .stats import EvalStats
from .syntax import (
    Apply, Bang, Box, BoxVal, Expr, IntLit, Inl, Inr, KeyOf, LetBang,
    LetPair, MCase, MFun, MFunVal, Pair, PrimOp, Program, Res, Return,
    Roll, Term, TermCase, TermSplit, UNIT, UnitLit, Unbox, Unroll, Var,
    free_names, free_resources, subst,
)

_SUM_UNIT_FALSE = Inl(UnitLit(), UNIT, UNIT)
_SUM_UNIT_TRUE = Inr(UnitLit(), UNIT, UNIT)


@dataclass(slots=True)
class EvalConfig:
    """Evaluation policy and instrumentation.

    `cold` mode pays every memo-table cost but never returns a stored
    result, modelling the worst case where nothing is reusable. `pure`
    mode is the reference semantics: no tables, no branches. `checked`
    turns on the run-time invariant assertions (duplicate branch
    detection and resource-freeness of return bodies). `reuse` and
    `pure` are `mode` as the flags the evaluator reads; `depth` is the
    run's current application depth.
    """

    mode: str = "normal"  # "normal" | "cold" | "pure"
    checked: bool = False
    depth_limit: int = 10 ** 6
    trace: bool = False
    stats: EvalStats = field(default_factory=EvalStats)
    depth: int = field(default=0, init=False)
    reuse: bool = field(init=False)
    pure: bool = field(init=False)

    def __post_init__(self):
        if self.mode not in ("normal", "cold", "pure"):
            raise ValueError(f"unknown evaluation mode {self.mode!r}")
        self.reuse = self.mode == "normal"
        self.pure = self.mode == "pure"
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
_ATOMS = _LEAVES | {MFunVal, MFun}  # values of one node


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


# --------------------------------------------------------------------------
# The compiler
#
# A compiled term is `ev(fr, cfg, store) -> value`; a compiled
# expression is `ex(fr, cfg, store, branch) -> value`, where `fr` is the
# activation's frame. Slot 0 of a function body's frame holds the
# function value, whose location names the memo table. `vs` and `rs` map
# the variables and resources in scope to their frame slots; `unit`
# counts the slots of the unit being compiled and knows which of them
# hold values the function captured.
# --------------------------------------------------------------------------


class _Unit:
    __slots__ = ("size", "captured")

    def __init__(self, size: int, captured: "range" = range(0)):
        self.size = size
        self.captured = captured

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

    # The charge of a name read, which every operand read in this module
    # repeats: the common values, one node or a banged leaf, are charged
    # inline, the rest by `_lookup_steps`; a bare function value's table
    # is checked after its step is charged.
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


def _operand(t: Term, vs: dict, rs: dict, unit: _Unit):
    """Compile the operand `t` of a node: (None, slot) if `t` is a bound
    name, which the node reads from its frame slot and charges itself
    by the statement in `_compile_name`; else (t's closure, None)."""
    tp = type(t)
    if tp is Var or tp is Res:
        slot = (vs if tp is Var else rs).get(t.name)
        if slot is not None:
            return None, slot
    return _compile_term(t, vs, rs, unit), None


def _term_apply(t: Apply, vs, rs, unit):
    fn_c, fn_slot = _operand(t.fn, vs, rs, unit)
    arg_c = _compile_term(t.arg, vs, rs, unit)

    def ev(fr, cfg, store):
        stats = cfg.stats
        stats.steps += 1
        if fn_c is None:
            fn = fr[fn_slot]
            tp = type(fn)
            stats.steps += (1 if tp in _ATOMS else
                            2 if tp is Bang and type(fn.body) in _LEAVES else
                            _lookup_steps(store, fn, cfg))
            if tp is MFunVal and cfg.checked:
                _check_loc(store, fn.loc)
        else:
            fn = fn_c(fr, cfg, store)
            tp = type(fn)
        if tp is not MFunVal and tp is not MFun:
            raise Stuck("application of a non-function value")
        code = fn.code
        if code is None:
            raise Stuck(f"function value '{fn.fname}' was not made by an evaluation")
        run, tail = code
        arg = arg_c(fr, cfg, store)
        cfg.depth += 1
        if cfg.depth > cfg.depth_limit:
            raise DepthExceeded(f"application depth exceeded {cfg.depth_limit}")
        try:
            return run([fn, arg, *tail], cfg, store, [])
        finally:
            cfg.depth -= 1
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
    if tp is Bang:
        body_c, slot = _operand(t.body, vs, rs, unit)

        def ev(fr, cfg, store):
            stats = cfg.stats
            stats.steps += 1
            if body_c is None:
                v = fr[slot]
                tp = type(v)
                stats.steps += (1 if tp in _ATOMS else
                                2 if tp is Bang and type(v.body) in _LEAVES else
                                _lookup_steps(store, v, cfg))
                if tp is MFunVal and cfg.checked:
                    _check_loc(store, v.loc)
            else:
                v = body_c(fr, cfg, store)
            return Bang(v)
        return ev
    body_c = _compile_term(t.body, vs, rs, unit)
    types = (t.rec_type,) if tp is Roll else (t.left_type, t.right_type)

    def ev(fr, cfg, store):
        cfg.stats.steps += 1
        return tp(body_c(fr, cfg, store), *types)
    return ev


def _term_mfun(t: MFun, vs, rs, unit):
    free = free_names(t)
    vnames = tuple(name for name in vs if name in free)
    rnames = tuple(name for name in rs if name in free)
    slots = tuple(vs[name] for name in vnames) + tuple(rs[name] for name in rnames)
    nv = len(vnames)
    site = None  # (body code, frame padding), compiled on first allocation

    def ev(fr, cfg, store):
        nonlocal site
        cfg.stats.steps += 1
        if site is None:
            site = _compile_body(t, vnames, rnames)
        closed, code = t, site
        if slots:
            captured = tuple([fr[slot] for slot in slots])
            # a value is a closed term: substitute what the body captures
            closed = subst(t, dict(zip(vnames, captured)),
                           dict(zip(rnames, captured[nv:])))
            code = (site[0], captured + site[1])
        if cfg.pure:
            closed.code = code
            return closed
        return MFunVal(store.alloc_table(), t.fname, t.arg, t.arg_type,
                       t.res_type, closed.body, code=code)
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
    body_c, slot = _operand(t.body, vs, rs, unit)

    def ev(fr, cfg, store):
        stats = cfg.stats
        stats.steps += 1
        if body_c is None:
            v = fr[slot]
            tp = type(v)
            stats.steps += (1 if tp in _ATOMS else
                            2 if tp is Bang and type(v.body) in _LEAVES else
                            _lookup_steps(store, v, cfg))
            if tp is MFunVal and cfg.checked:
                _check_loc(store, v.loc)
        else:
            v = body_c(fr, cfg, store)
        if type(v) is not BoxVal:
            raise Stuck("unbox of a non-box value")
        return store.boxes[v.tag]
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
    scrut_c, scrut_slot = _operand(t.scrut, vs, rs, unit)
    left_slot, right_slot = unit.slot(), unit.slot()
    body_c = _compile_term(t.body, vs, {**rs, t.left_name: left_slot,
                                        t.right_name: right_slot}, unit)

    def ev(fr, cfg, store):
        stats = cfg.stats
        stats.steps += 1
        if scrut_c is None:
            v = fr[scrut_slot]
            tp = type(v)
            stats.steps += (1 if tp in _ATOMS else
                            2 if tp is Bang and type(v.body) in _LEAVES else
                            _lookup_steps(store, v, cfg))
            if tp is MFunVal and cfg.checked:
                _check_loc(store, v.loc)
        else:
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
            stats.returns += 1
            return v
        loc = fr[0].loc
        table = store.tables[loc]
        found, cached = mt_lookup(table, branch, stats)
        if found and cfg.reuse:
            stats.memo_hits += 1
            stats.returns += 1
            cell = stats.per_table.get(loc)
            if cell is None:
                stats.per_table[loc] = [1, 0]
            else:
                cell[0] += 1
            if cfg.trace:
                stats.events.append(("hit", loc, tuple(branch)))
            return cached
        stats.memo_misses += 1
        cell = stats.per_table.get(loc)
        if cell is None:
            stats.per_table[loc] = [0, 1]
        else:
            cell[1] += 1
        if cfg.trace:
            stats.events.append(("miss", loc, tuple(branch)))
        if free and cfg.checked:
            raise InternalInvariantError(f"return body has free resources {free}")
        v = body_c(fr, cfg, store)
        mt_insert(table, branch, v, stats,
                  on_dup="error" if cfg.checked and cfg.reuse else "keep")
        stats.returns += 1
        return v
    return ex


def _expr_let_bang(e: LetBang, vs, rs, unit):
    scrut_c, scrut_slot = _operand(e.scrut, vs, rs, unit)
    slot = unit.slot()
    body_c = _compile_expr(e.body, {**vs, e.name: slot}, rs, unit)

    def ex(fr, cfg, store, branch):
        stats = cfg.stats
        stats.steps += 1
        if scrut_c is None:
            v = fr[scrut_slot]
            tp = type(v)
            stats.steps += (1 if tp in _ATOMS else
                            2 if tp is Bang and type(v.body) in _LEAVES else
                            _lookup_steps(store, v, cfg))
            if tp is MFunVal and cfg.checked:
                _check_loc(store, v.loc)
        else:
            v = scrut_c(fr, cfg, store)
        if type(v) is not Bang:
            raise Stuck("let ! of a non-bang value")
        inner = v.body
        if not cfg.pure:
            tp = type(inner)
            event = (KIND_BANG, inner.value if tp is IntLit else
                     inner.tag if tp is BoxVal else index_of(inner))
            branch.append(event)
            stats.branch_events += 1
            if len(branch) > stats.max_branch_len:
                stats.max_branch_len = len(branch)
            if cfg.trace:
                stats.events.append(("event", fr[0].loc, event))
        fr[slot] = inner
        return body_c(fr, cfg, store, branch)
    return ex


def _expr_let_pair(e: LetPair, vs, rs, unit):
    scrut_c, scrut_slot = _operand(e.scrut, vs, rs, unit)
    left_slot, right_slot = unit.slot(), unit.slot()
    body_c = _compile_expr(e.body, vs, {**rs, e.left_name: left_slot,
                                        e.right_name: right_slot}, unit)

    def ex(fr, cfg, store, branch):
        stats = cfg.stats
        stats.steps += 1
        if scrut_c is None:
            v = fr[scrut_slot]
            tp = type(v)
            stats.steps += (1 if tp in _ATOMS else
                            2 if tp is Bang and type(v.body) in _LEAVES else
                            _lookup_steps(store, v, cfg))
            if tp is MFunVal and cfg.checked:
                _check_loc(store, v.loc)
        else:
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
            branch.append(event)
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


def _compile_body(fn, vnames: tuple, rnames: tuple) -> tuple:
    """Compile the body of the function term `fn`, which captures the
    variables `vnames` and the resources `rnames`. Returns the compiled
    body and its frame padding. The frame holds the function value in
    slot 0, its argument in slot 1, then the captured values in order."""
    ncap = len(vnames) + len(rnames)
    unit = _Unit(2 + ncap, range(2, 2 + ncap))
    vs = {name: 2 + i for i, name in enumerate(vnames)}
    rs = {name: 2 + len(vnames) + i for i, name in enumerate(rnames)}
    vs[fn.fname] = 0
    rs[fn.arg] = 1
    run = _compile_expr(fn.body, vs, rs, unit)
    return run, (None,) * (unit.size - 2 - ncap)


def eval_term(store: Store, t: Term, cfg: "EvalConfig | None" = None):
    """Evaluate a closed term. Returns (value, store); the store passed
    in is extended in place and returned for convenience."""
    if cfg is None:
        cfg = EvalConfig()
    unit = _Unit(0)
    ev = _compile_term(t, {}, {}, unit)
    return ev([None] * unit.size, cfg, store), store


def eval_expr(store: Store, loc: int, branch, e: Expr, cfg: "EvalConfig | None" = None):
    """Evaluate an expression against the memo table at `loc`, starting
    from `branch` (a sequence of encoded events)."""
    if cfg is None:
        cfg = EvalConfig()
    unit = _Unit(1)
    ex = _compile_expr(e, {}, {}, unit)
    # slot 0 stands for the function value: only its location is read
    frame = [SimpleNamespace(loc=loc)] + [None] * (unit.size - 1)
    return ex(frame, cfg, store, list(branch)), store


def compile_program(program: Program):
    """Compile the declarations and main of `program` as one unit. The
    result, `run(cfg, store)`, evaluates the declarations in order and
    then main, and returns main's value and the declared values by name.
    The code holds no state of a run, so it runs under every policy."""
    unit = _Unit(0)
    vs: "dict[str, int]" = {}
    decls = []
    for name, term in program.decls:
        ev = _compile_term(term, vs, {}, unit)
        vs[name] = unit.slot()
        decls.append((name, vs[name], ev))
    main = _compile_term(program.main, vs, {}, unit)
    size = unit.size

    def run(cfg: EvalConfig, store: Store):
        fr = [None] * size
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
