"""The memoizing big-step evaluator, compiled to Python closures.

Terms evaluate against a store; evaluating a function term allocates a
fresh, empty memo table and stamps its location on the resulting value.
Applying a function evaluates its body as an *expression* relative to
the callee's own table, starting from the empty branch. Expression
evaluation explores the argument (`let !`, `let*`, `mcase`), appending
one event per exploration step, until a `return` completes the body:
the accumulated branch keys the memo table, either yielding the stored
result or binding the freshly computed one.

Nothing is interpreted node by node. Each `Term` and `Expr` node is
compiled once into a Python closure with its children's closures and
static fields (names, operator, types) bound in advance (in the style
of Feeley & Lapalme 1987), so a node's type is dispatched at compile
time rather than at every visit. A function body is compiled when the
function value is made, once per memo-table allocation, and the code is
kept in `Store.code` under the table's location; an application checks
it against the function value's body by identity (a value built outside
this store's evaluation is compiled on first use). The code lives as
long as the store. Top-level terms (declarations, main, the arguments
of `eval_term` and `eval_expr`) are compiled when they are evaluated.

Bindings live in a frame, one list per activation: the compiler gives
every binder of a body its own slot and resolves each name occurrence
to the slot of its innermost binder, in the style of the CEK machine
(Felleisen & Friedman 1986) with the environment flattened. Values stay
closed terms all the same, because the one place a value can capture
its surroundings, an `mfun` body, is closed by substitution when the
function value is made. Erased results therefore compare directly
against the pure reference semantics.

The cost model is that of the substitution rules and does not depend
on the compilation: every node evaluated is one step, and a name
occurrence counts the steps its bound value would take to re-evaluate,
one per node of the value (see `_lookup_steps`). A closed value written
in the program (a substituted declaration, say) costs its node count.
`mt_lookup`, `mt_insert` and `subst` are called through this module's
globals, so they can be intercepted here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (DepthExceeded, DivisionByZero, InternalInvariantError,
                     PrefixViolation, Stuck)
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
    """Evaluation mode and instrumentation.

    `cold` mode pays every memo-table cost but never returns a stored
    result, modelling the worst case where nothing is reusable.
    `checked` turns on the run-time invariant assertions (duplicate
    branch detection and resource-freeness of return bodies). `fault`
    optionally mutilates the insert path for the differential harness:
    "skip_insert" drops inserts, "wrong_branch" inserts at a perturbed
    key.
    """

    mode: str = "normal"  # "normal" | "cold"
    checked: bool = False
    depth_limit: int = 10 ** 6
    trace: bool = False
    fault: "str | None" = None
    stats: EvalStats = field(default_factory=EvalStats)
    depth: int = 0

    def __post_init__(self):
        if self.trace and self.stats.events is None:
            self.stats.events = []


def _op_int(v: Term, op: str) -> int:
    if type(v) is not IntLit:
        raise Stuck(f"operator '{op}' applied to a non-integer")
    return v.value


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


def _apply_primop(op: str, args: "list[Term]") -> Term:
    if op == "int2sum":
        return _SUM_UNIT_TRUE if _op_int(args[0], op) != 0 else _SUM_UNIT_FALSE
    a = _op_int(args[0], op)
    b = _op_int(args[1], op)
    int_op = _INT_OPS.get(op)
    if int_op is None:
        raise Stuck(f"unknown operator '{op}'")
    return IntLit(int_op(a, b))


def _perturb(branch: "list[tuple[int, int]]") -> "tuple[tuple[int, int], ...]":
    """A deliberately wrong key near `branch`, for fault injection: the
    last event is toggled so the bad entry can shadow a real branch."""
    if not branch:
        return (INL_EVENT,)
    kind, payload = branch[-1]
    last = (KIND_BANG, payload + 1) if kind == KIND_BANG else (kind, 1 - payload)
    return tuple(branch[:-1]) + (last,)


def _check_loc(store: Store, loc: int) -> None:
    if loc not in store.tables:
        raise InternalInvariantError(
            f"function value refers to unallocated location {loc}")


_LEAVES = frozenset((IntLit, UnitLit, BoxVal))


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


def _value_size(t: Term, locs: list) -> "int | None":
    """The node count of `t` if it is a closed value, appending the
    locations of its function values to `locs` in evaluation order;
    None if evaluating `t` does more than return it."""
    tp = type(t)
    if tp in _LEAVES:
        return 1
    if tp is MFunVal:
        locs.append(t.loc)
        return 1
    if tp is Bang or tp is Inl or tp is Inr or tp is Roll:
        n = _value_size(t.body, locs)
        return None if n is None else n + 1
    if tp is Pair:
        left = _value_size(t.left, locs)
        right = None if left is None else _value_size(t.right, locs)
        return None if right is None else left + right + 1
    return None


# --------------------------------------------------------------------------
# The compiler
#
# A compiled term is `ev(fr, cfg, store) -> value`; a compiled
# expression is `ex(fr, cfg, store, branch) -> value`, where `fr` is the
# activation's frame. `vs` and `rs` map the variables and resources in
# scope to their frame slots; `unit` counts the slots of the unit being
# compiled and carries its memo-table location.
# --------------------------------------------------------------------------


class _Unit:
    __slots__ = ("size", "loc")

    def __init__(self, size: int, loc: "int | None" = None):
        self.size = size
        self.loc = loc

    def slot(self) -> int:
        self.size += 1
        return self.size - 1


def _compile_term(t: Term, vs: dict, rs: dict, unit: _Unit):
    tp = type(t)
    if tp in _VALUE_NODES:
        locs: list = []
        n = _value_size(t, locs)
        if n is not None:
            return _compile_value(t, n, tuple(locs))
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


def _compile_value(t: Term, n: int, locs: tuple):
    def ev(fr, cfg, store):
        cfg.stats.steps += n
        if locs and cfg.checked:
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

    # the common values, a leaf or a banged leaf, are charged inline
    def ev(fr, cfg, store):
        v = fr[slot]
        tp = type(v)
        stats = cfg.stats
        if tp is IntLit or tp is BoxVal or tp is UnitLit:
            stats.steps += 1
        elif tp is Bang and type(v.body) in _LEAVES:
            stats.steps += 2
        elif tp is MFunVal:
            stats.steps += 1
            if cfg.checked:
                _check_loc(store, v.loc)
        else:
            stats.steps += _lookup_steps(store, v, cfg)
        return v
    return ev


def _term_apply(t: Apply, vs, rs, unit):
    fn_c = _compile_term(t.fn, vs, rs, unit)
    arg_c = _compile_term(t.arg, vs, rs, unit)

    def ev(fr, cfg, store):
        cfg.stats.steps += 1
        fn = fn_c(fr, cfg, store)
        if type(fn) is not MFunVal:
            raise Stuck("application of a non-function value")
        arg = arg_c(fr, cfg, store)
        cfg.depth += 1
        if cfg.depth > cfg.depth_limit:
            raise DepthExceeded(f"application depth exceeded {cfg.depth_limit}")
        try:
            code = store.code.get(fn.loc)
            if code is None or code[0] is not fn.body:
                code = _compile_fun(store, fn)
            return code[2]([fn, arg, *code[1]], cfg, store, [])
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

    def ev(fr, cfg, store):
        cfg.stats.steps += 1
        return _apply_primop(op, [a_c(fr, cfg, store) for a_c in arg_cs])
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
    body_c = _compile_term(t.body, vs, rs, unit)
    tp = type(t)
    if tp is Bang:
        def ev(fr, cfg, store):
            cfg.stats.steps += 1
            return Bang(body_c(fr, cfg, store))
        return ev
    types = (t.rec_type,) if tp is Roll else (t.left_type, t.right_type)

    def ev(fr, cfg, store):
        cfg.stats.steps += 1
        return tp(body_c(fr, cfg, store), *types)
    return ev


def _term_mfun(t: MFun, vs, rs, unit):
    free = free_names(t)
    vslots = tuple((name, slot) for name, slot in vs.items() if name in free)
    rslots = tuple((name, slot) for name, slot in rs.items() if name in free)

    def ev(fr, cfg, store):
        cfg.stats.steps += 1
        # close the body over the environment, once per allocation
        closed = subst(t, {name: fr[slot] for name, slot in vslots},
                       {name: fr[slot] for name, slot in rslots})
        fn = MFunVal(store.alloc_table(), t.fname, t.arg, t.arg_type,
                     t.res_type, closed.body)
        _compile_fun(store, fn)
        return fn
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
    loc = unit.loc
    body_c = _compile_term(e.body, vs, rs, unit)
    # the paper's rule: no resource may be free in a return body
    free = sorted(free_resources(e.body))

    def ex(fr, cfg, store, branch):
        stats = cfg.stats
        stats.steps += 1
        found, cached = mt_lookup(store.tables[loc], branch, stats)
        if found and cfg.mode == "normal":
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
        # the table object may have grown while the body ran; bind the
        # branch in the *post-evaluation* table
        table = store.tables[loc]
        if cfg.fault == "skip_insert":
            pass
        elif cfg.fault == "wrong_branch":
            try:
                mt_insert(table, _perturb(branch), v, stats, on_dup="keep")
            except PrefixViolation:
                pass  # the mutant only poisons values, not the tree shape
        elif cfg.mode == "cold":
            mt_insert(table, branch, v, stats, on_dup="keep")
        else:
            mt_insert(table, branch, v, stats,
                      on_dup="error" if cfg.checked else "keep")
        stats.returns += 1
        return v
    return ex


def _expr_let_bang(e: LetBang, vs, rs, unit):
    loc = unit.loc
    scrut_c = _compile_term(e.scrut, vs, rs, unit)
    slot = unit.slot()
    body_c = _compile_expr(e.body, {**vs, e.name: slot}, rs, unit)

    def ex(fr, cfg, store, branch):
        stats = cfg.stats
        stats.steps += 1
        v = scrut_c(fr, cfg, store)
        if type(v) is not Bang:
            raise Stuck("let ! of a non-bang value")
        inner = v.body
        tp = type(inner)
        event = (KIND_BANG, inner.value if tp is IntLit else
                 inner.tag if tp is BoxVal else index_of(inner))
        branch.append(event)
        stats.branch_events += 1
        if len(branch) > stats.max_branch_len:
            stats.max_branch_len = len(branch)
        if cfg.trace:
            stats.events.append(("event", loc, event))
        fr[slot] = inner
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
    loc = unit.loc
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
        branch.append(event)
        stats.branch_events += 1
        if len(branch) > stats.max_branch_len:
            stats.max_branch_len = len(branch)
        if cfg.trace:
            stats.events.append(("event", loc, event))
        fr[slot] = v.body
        return arm_c(fr, cfg, store, branch)
    return ex


_EXPR_COMPILERS = {
    Return: _expr_return, LetBang: _expr_let_bang, LetPair: _expr_let_pair,
    MCase: _expr_mcase,
}


def _compile_fun(store: Store, fn: MFunVal) -> tuple:
    """Compile `fn`'s body and keep it in `store.code` under `fn.loc`.
    The entry is (body, frame padding, compiled body); slot 0 of the
    frame holds the function itself and slot 1 its argument."""
    unit = _Unit(2, fn.loc)
    run = _compile_expr(fn.body, {fn.fname: 0}, {fn.arg: 1}, unit)
    code = store.code[fn.loc] = (fn.body, (None,) * (unit.size - 2), run)
    return code


def _eval_top(store: Store, t: Term, values: dict, cfg: EvalConfig) -> Term:
    """Compile and evaluate `t` with the variables `values` in scope."""
    unit = _Unit(len(values))
    ev = _compile_term(t, {name: i for i, name in enumerate(values)}, {}, unit)
    return ev([*values.values(), *(None,) * (unit.size - len(values))], cfg, store)


def eval_term(store: Store, t: Term, cfg: "EvalConfig | None" = None):
    """Evaluate a closed term. Returns (value, store); the store passed
    in is extended in place and returned for convenience."""
    if cfg is None:
        cfg = EvalConfig()
    return _eval_top(store, t, {}, cfg), store


def eval_expr(store: Store, loc: int, branch, e: Expr, cfg: "EvalConfig | None" = None):
    """Evaluate an expression against the memo table at `loc`, starting
    from `branch` (a sequence of encoded events)."""
    if cfg is None:
        cfg = EvalConfig()
    unit = _Unit(0, loc)
    ex = _compile_expr(e, {}, {}, unit)
    return ex([None] * unit.size, cfg, store, list(branch)), store


@dataclass(slots=True)
class RunResult:
    value: Term
    store: Store
    decl_values: "dict[str, Term]"
    stats: EvalStats


def run_program(program: Program, cfg: "EvalConfig | None" = None,
                store: "Store | None" = None) -> RunResult:
    """Evaluate the declarations in order, threading one store, then the
    main term with every declared name bound to its value. Reuse across
    top-level calls happens precisely because the store persists between
    declarations and main."""
    if cfg is None:
        cfg = EvalConfig()
    if store is None:
        store = Store()
    values: "dict[str, Term]" = {}
    for name, term in program.decls:
        values[name] = _eval_top(store, term, values, cfg)
    value = _eval_top(store, program.main, values, cfg)
    return RunResult(value, store, values, cfg.stats)
