"""The second tier of the evaluator: a hot `mfun` body as one Python function.

`eval_memo` runs every body as closures first. Once a site has had
`eval_memo.HOT_CALLS` activations, `generate` writes the body out as the
source of one Python function for the plain policy (normal mode,
unchecked, untraced), in the style of Hölzle & Ungar's tiered SELF
compiler (1994). Every node of the body is inlined into that function,
and the frame's slots become Python locals. The function takes the
closures' arguments, `(frame, cfg, store, branch)`, so an application
calls either tier the same way. It ignores `branch`, which is always
`()` on entry: the events of a path are known statically, so each
`return` builds its branch from them. Its callees' depth is read once.

Only typed bodies are generated (`_Site.ty`), and their code is written
from the types the checker left on the nodes, as in Tarditi et al.'s
TIL (PLDI 1996). A typechecked body is never stuck (Milner 1978), and
`eval_memo` enters one only with values of its types, so no operand is
tested and no path raises `Stuck`. A name read charges the node count
of its type as a constant: `int`, `unit`, a box and an arrow are one
node, `!τ` one more than `τ`, a product one more than its sides
together, and a sum whose sides have one size one more than that. Only
a value of another type, such as an unboxed recursive one, is counted
at run time, by `_lookup_steps`. A `let !` event reads `.value`, `.tag`
or `index_of` as its binder's type says.

The generated code charges what the closures charge, and it raises the
same errors with the same messages. Charges are summed and added
before the next call or raise, so the counters at any error are those
of the closures. A `return` walks its memo table inline, with
straight-line code from `memostore.lookup_source` and
`memostore.insert_source`, which charge what `mt_lookup` and
`mt_insert` charge. The code runs in `eval_memo`'s globals, where
perfbench's tracer and the tests' mutants replace `mt_lookup` or
`mt_insert`; a body generated while either is replaced calls them
instead, so they see every lookup and insert.

As in the closures, `!x` of a `let !`-bound `x` is the bang that `let !`
took apart, kept only where some `!x` reads it: the same value and
charges, one allocation fewer, and a value's `pos` that does not depend
on the tier.

The source depends only on the body's shape: literal values, types and
the sites of nested `mfun` terms are passed to a factory as arguments
`k0, k1, ...`. Factories are cached by their source text in a bounded
module-level cache, so `compile()` runs once per shape and process.
`eval_memo` keeps each generated site, which a later compile of an
equal function term reuses, so `generate` runs once per body and
process even when each run parses its program afresh. A body nested
deeper than `MAX_DEPTH` stays on the closures, since Python allows at
most 100 indentation levels.
"""

from __future__ import annotations

import threading

from . import eval_memo
from .eval_memo import _VALUE_NODES, _value_size
from . import memostore
from .memostore import INL_EVENT, INR_EVENT, KIND_BANG, insert_source, lookup_source
from .syntax import (
    Apply, Bang, Box, Inl, Inr, KeyOf, LetBang, LetPair, MCase, MFun,
    Pair, PrimOp, Res, Return, Roll, TArrow, TBang, TBox, TInt, TProd, TSum,
    TUnit, TermCase, TermSplit, Unbox, Unroll, Var,
)

MAX_DEPTH = 40     # nested terms a generated body may have
CACHE_SIZE = 64    # factories kept, by source text

_COMPARE = frozenset(("<", "<=", "=="))  # operators that Python writes the same
_ARITH = frozenset(("+", "-", "*"))

_factories: "dict[str, object]" = {}
_lock = threading.Lock()


class _NoCode(Exception):
    """The body is untyped, nests too deep, or holds a node no rule
    generates."""


def generate(site) -> "object | None":
    """The body of `site` as one Python function, or None if it cannot
    be generated."""
    gen = _Gen(site)
    try:
        src = gen.source()
    except _NoCode:
        return None
    return factory(src)(*gen.consts)


def factory(src: str):
    """The factory that `src` defines, compiled on first use. The cache
    holds `CACHE_SIZE` factories and drops the oldest beyond that."""
    with _lock:
        made = _factories.get(src)
        if made is None:
            names: dict = {}
            exec(compile(src, "<mfl generated body>", "exec"), vars(eval_memo), names)
            made = names["_factory"]
            if len(_factories) >= CACHE_SIZE:
                del _factories[next(iter(_factories))]
            _factories[src] = made
        return made


def _size(ty) -> "int | None":
    """The node count that every value of type `ty` has, or None if
    values of `ty` differ in it."""
    tt = type(ty)
    if tt is TInt or tt is TUnit or tt is TBox or tt is TArrow:
        return 1
    if tt is TBang:
        n = _size(ty.item)
        return None if n is None else n + 1
    if tt is TProd or tt is TSum:
        left, right = _size(ty.left), _size(ty.right)
        if left is None or right is None:
            return None
        if tt is TProd:
            return left + right + 1
        return left + 1 if left == right else None
    return None  # a recursive type, or no type known


class _Gen:
    """Writes one body. Names in the source: `S` the stats, `D` the
    callees' depth, `b<i>` the binders (each bound once on a path),
    `x<i>` temporaries (a stack, reused once consumed), `e<i>` branch
    events, `k<i>` the factory's arguments, and `L`, `T`, `B`, `F`, `C`,
    `P`, `c` and the memo walk's `W<i>` the scratch of a `return`; the
    callees get the branch `()`."""

    def __init__(self, site):
        self.site = site
        self.lines: "list[str]" = []
        self.consts: list = []
        self.ind = 2
        self.depth = 0
        self.nbind = 0
        self.ntemp = 0
        self.nevent = 0
        self.types: dict = {}  # the static type of each binder
        self.scruts: "dict[str, str]" = {}  # `let !` binder -> the bang it took apart
        self.bangs: "dict[str, str]" = {}  # `let !` binder -> the name that keeps its bang
        # walk the memo table inline, unless the memo store's functions
        # have been replaced in eval_memo (by a tracer or a mutant), which
        # then must see every lookup and insert
        self.inline = (eval_memo.mt_lookup is memostore.mt_lookup
                       and eval_memo.mt_insert is memostore.mt_insert)
        # charges summed but not yet added: steps, branch events, box
        # allocations, and the branch length max_branch_len must reach
        self.steps = self.events = self.boxes = self.maxlen = 0

    # ---- emitting ----

    def source(self) -> str:
        site = self.site
        if site.ty is None:
            raise _NoCode
        gamma, delta = site.ctx
        ncap = len(site.vnames) + len(site.rnames)
        binders = [self.bind() for _ in range(2 + ncap)]
        vs = dict(zip(site.vnames, binders[2:]))
        rs = dict(zip(site.rnames, binders[2 + len(site.vnames):]))
        vs[site.fname] = binders[0]
        rs[site.arg] = binders[1]
        self.types.update(zip(binders, [gamma[site.fname], delta[site.arg],
                                        *map(gamma.get, site.vnames),
                                        *map(delta.get, site.rnames)]))
        reads = [f"{b}=fr[{i + (i > 1)}]" for i, b in enumerate(binders)]  # slot 2: the depth
        self.emit(";".join(["S=cfg.stats", "D=fr[2]+1", *reads]))
        self.expr(site.body, vs, rs, ())
        args = "".join(f"k{i}," for i in range(len(self.consts)))
        return "\n".join([f"def _factory({args}):", " def run(fr,cfg,store,branch):",
                          *self.lines, " return run", ""])

    def emit(self, line: str) -> None:
        self.lines.append(" " * self.ind + line)

    def flush(self) -> None:
        """Add the summed charges, before a call that may raise."""
        adds = [f"S.{name}+={n}" for name, n in (("steps", self.steps),
                                                 ("branch_events", self.events),
                                                 ("boxes_allocated", self.boxes)) if n]
        if adds:
            self.emit(";".join(adds))
        if self.maxlen:
            self.emit(f"if {self.maxlen}>S.max_branch_len:S.max_branch_len={self.maxlen}")
        self.steps = self.events = self.boxes = self.maxlen = 0

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def bind(self, ty=None) -> str:
        self.nbind += 1
        b = f"b{self.nbind - 1}"
        self.types[b] = ty
        return b

    def hold(self, x: str) -> str:
        """`x` as a name that later statements cannot clobber."""
        if x.isidentifier():
            return x
        tmp = self.hold_name()
        self.emit(f"{tmp}={x}")
        return tmp

    def hold_name(self) -> str:
        """A free temporary, which the caller assigns next."""
        self.ntemp += 1
        return f"x{self.ntemp - 1}"

    def state(self):
        return self.steps, self.events, self.boxes, self.maxlen, self.ntemp

    def restore(self, state) -> None:
        self.steps, self.events, self.boxes, self.maxlen, self.ntemp = state

    def nest(self, head: str):
        self.emit(head)
        self.ind += 1
        if self.ind > MAX_DEPTH + 2:
            raise _NoCode

    # ---- terms: each returns an expression for its value ----
    #
    # The expression cannot raise: anything that can is emitted as a
    # statement. It stays valid until the caller emits its next term.

    def term(self, t, vs: dict, rs: dict) -> str:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _NoCode
        tp = type(t)
        if tp in _VALUE_NODES:
            n = _value_size(t, [])
            if n is not None:
                self.steps += n
                self.depth -= 1
                return self.const(t)
        rule = _TERM_RULES.get(tp)
        if rule is None:
            raise _NoCode
        out = rule(self, t, vs, rs)
        self.depth -= 1
        return out

    def read(self, t, vs, rs):
        x = (vs if type(t) is Var else rs).get(t.name)
        if x is None:
            raise _NoCode
        n = _size(self.types[x])
        if n is not None:
            self.steps += n
        else:
            n, self.steps = self.steps, 0
            self.emit(f"S.steps+={f'{n}+' if n else ''}_lookup_steps(store,{x},cfg)")
        return x

    def split_pair(self, t, vs, rs) -> dict:
        """Evaluate the scrutinee of a `let*` or `split` `t`, a pair, and
        bind its sides. Returns `rs` with them."""
        left, right = self.bind(t.ty.left), self.bind(t.ty.right)
        base = self.ntemp
        v = self.hold(self.term(t.scrut, vs, rs))
        self.ntemp = base
        self.emit(f"{left}={v}.left;{right}={v}.right")
        return {**rs, t.left_name: left, t.right_name: right}

    def apply(self, t: Apply, vs, rs):
        self.steps += 1
        base = self.ntemp
        f = self.hold(self.term(t.fn, vs, rs))
        site, tail = self.hold_name(), self.hold_name()
        self.emit(f"{site},{tail}={f}.code")
        arg = self.term(t.arg, vs, rs)
        self.flush()
        self.ntemp = base
        out = self.hold_name()
        # count the activation and switch the site after the last, as
        # the closures do
        self.emit(f"if {site}.left:{site}.left-=1;{site}.left or _promote({site})")
        self.emit("if D>cfg.depth_limit:raise _too_deep(cfg)")
        self.emit(f"{out}={site}.run([{f},{arg},D]+{tail},cfg,store,())")
        return out

    def int_operands(self, t: PrimOp, vs, rs):
        """Charge the operator and evaluate its two operands. Returns
        their Python ints."""
        self.steps += 1
        a = self.hold(self.term(t.args[0], vs, rs))
        return f"{a}.value", f"{self.term(t.args[1], vs, rs)}.value"

    def primop(self, t: PrimOp, vs, rs):
        op, args = t.op, t.args
        base = self.ntemp
        if op == "int2sum" and len(args) == 1:
            self.steps += 1
            a = self.term(args[0], vs, rs)
            self.ntemp = base
            return f"(_SUM_UNIT_TRUE if {a}.value!=0 else _SUM_UNIT_FALSE)"
        if len(args) == 2 and (op in _COMPARE or op in _ARITH):
            a, b = self.int_operands(t, vs, rs)
            self.ntemp = base
            return f"IntLit(1 if {a}{op}{b} else 0)" if op in _COMPARE else f"IntLit({a}{op}{b})"
        if len(args) == 2 and op == "div":
            a, b = self.int_operands(t, vs, rs)
            self.flush()
            self.ntemp = base
            out = self.hold_name()
            self.emit(f"{out}=IntLit(_div({a},{b}))")
            return out
        raise _NoCode  # an operator with no rule

    def pair(self, t: Pair, vs, rs):
        self.steps += 1
        base = self.ntemp
        left = self.hold(self.term(t.left, vs, rs))
        right = self.term(t.right, vs, rs)
        self.ntemp = base
        return f"Pair({left},{right})"

    def wrap(self, t, vs, rs):
        tp = type(t)
        self.steps += 1
        body = self.term(t.body, vs, rs)
        if tp is Bang:
            if type(t.body) is Var and body in self.scruts:
                bang = self.bangs.get(body)
                if bang is None:
                    v = self.scruts[body]
                    bang = self.bangs[body] = (v if v.isidentifier() and v[0] != "x"
                                               else self.bind())
                return bang
            return f"Bang({body})"
        if tp is Roll:
            return f"Roll({body},{self.const(t.rec_type)})"
        return f"{tp.__name__}({body},{self.const(t.left_type)},{self.const(t.right_type)})"

    def mfun(self, t: MFun, vs, rs):
        self.steps += 1
        inner = self.site.sites[t]
        captured = [vs[name] for name in inner.vnames] + [rs[name] for name in inner.rnames]
        self.flush()
        out = self.hold_name()
        self.emit(f"{out}={self.const(inner)}.value({self.const(t)},"
                  f"[{','.join(captured)}],cfg,store)")
        return out

    def body_of(self, t, vs, rs, fmt: str):
        """A node with one operand, which needs no test: `fmt` around the
        operand's value."""
        self.steps += 1
        base = self.ntemp
        v = self.term(t.body, vs, rs)
        self.ntemp = base
        return fmt.format(v)

    def box(self, t: Box, vs, rs):
        self.steps += 1
        v = self.term(t.body, vs, rs)
        self.boxes += 1
        out = self.hold_name()
        self.emit(f"{out}=store.alloc_box({v})")
        return out

    def case(self, t: TermCase, vs, rs):
        self.steps += 1
        out = self.hold_name()
        arms = self.sum_test(t.scrut, t.ty, vs, rs)
        for (head, binder, value), arm, name in zip(arms, (t.left_arm, t.right_arm),
                                                    (t.left_name, t.right_name)):
            state = self.state()
            self.arm(head, binder, value)
            v = self.term(arm, vs, {**rs, name: binder})
            self.flush()
            self.emit(f"{out}={v}")
            self.ind -= 1
            self.restore(state)
        self.steps = self.events = self.boxes = self.maxlen = 0
        return out

    def sum_test(self, scrut, ty, vs, rs):
        """Evaluate the scrutinee of a `case` or `mcase`, a sum of type
        `ty`. Returns, for each arm, its head, the binder it binds and
        the binder's value; an `if`'s arms bind the units of the sums
        int2sum returns, and need no binder of their own."""
        if type(scrut) is PrimOp and scrut.op == "int2sum" and len(scrut.args) == 1:
            # `if`: test the integer
            self.steps += 1
            arg = scrut.args[0]
            if (type(arg) is PrimOp and len(arg.args) == 2
                    and (arg.op in _COMPARE or arg.op in _ARITH)):
                a, b = self.int_operands(arg, vs, rs)
                test = f"{a}{arg.op}{b}" if arg.op in _COMPARE else f"({a}{arg.op}{b})!=0"
            else:
                test = f"{self.term(arg, vs, rs)}.value!=0"
            units = ("_SUM_UNIT_FALSE.body", "_SUM_UNIT_TRUE.body")
            self.types.update(dict.fromkeys(units, ty.left))
            return (f"if not {test}:", units[0], None), ("else:", units[1], None)
        v = self.hold(self.term(scrut, vs, rs))
        return ((f"if type({v}) is Inl:", self.bind(ty.left), f"{v}.body"),
                ("else:", self.bind(ty.right), f"{v}.body"))

    def arm(self, head: str, binder: str, value: "str | None") -> None:
        """Open an arm of a sum test, and bind its binder."""
        self.nest(head)
        if value is not None:
            self.emit(f"{binder}={value}")

    def split(self, t: TermSplit, vs, rs):
        self.steps += 1
        return self.term(t.body, vs, self.split_pair(t, vs, rs))

    # ---- expressions: each ends every path with a return ----

    def expr(self, e, vs: dict, rs: dict, events: tuple) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _NoCode
        rule = _EXPR_RULES.get(type(e))
        if rule is None:
            raise _NoCode
        rule(self, e, vs, rs, events)
        self.depth -= 1

    def event(self, events: tuple, code: str) -> tuple:
        self.events += 1
        self.maxlen = len(events) + 1
        return events + (code,)

    def ret(self, e: Return, vs, rs, events):
        self.steps += 1
        self.flush()
        self.emit("L=b0.loc;T=store.tables[L]")
        hit = "S.memo_hits+=1;S.returns+=1;P=S.per_table;c=P.get(L) or P.setdefault(L,[0,0]);c[0]+=1"
        if self.inline:
            walk, found, value = lookup_source(list(events))
            self.emit(walk)
            self.emit(f"if {found}:{hit};return {value}")
        else:
            self.emit(f"B=[{','.join(events)}];F,C=mt_lookup(T,B,S)")
            self.emit(f"if F:{hit};return C")
        self.emit("S.memo_misses+=1;P=S.per_table;c=P.get(L) or P.setdefault(L,[0,0]);c[1]+=1")
        v = self.hold(self.term(e.body, vs, rs))
        self.flush()
        if self.inline:
            for line in insert_source(list(events), v):
                self.emit(line)
            self.emit(f"S.returns+=1;return {v}")
        else:
            self.emit(f"mt_insert(T,B,{v},S,on_dup='keep');S.returns+=1;return {v}")

    def let_bang(self, e: LetBang, vs, rs, events):
        self.steps += 1
        b = self.bind(e.ty)
        base = self.ntemp
        v = self.scruts[b] = self.term(e.scrut, vs, rs)
        self.ntemp = base
        ev = f"e{self.nevent}"
        self.nevent += 1
        index = {TInt: f"{b}.value", TBox: f"{b}.tag"}.get(type(e.ty), f"index_of({b})")
        at, ind = len(self.lines), self.ind
        self.emit(f"{b}={v}.body;{ev}=({KIND_BANG},{index})")
        self.expr(e.body, {**vs, e.name: b}, rs, self.event(events, ev))
        bang = self.bangs.get(b)
        if bang is not None and bang != v:  # keep the bang for the `!x` that read it
            self.lines[at] = " " * ind + f"{bang}={v};{b}={bang}.body;{ev}=({KIND_BANG},{index})"

    def let_pair(self, e: LetPair, vs, rs, events):
        self.steps += 1
        self.expr(e.body, vs, self.split_pair(e, vs, rs), events)

    def mcase(self, e: MCase, vs, rs, events):
        self.steps += 1
        arms = self.sum_test(e.scrut, e.ty, vs, rs)
        outer = self.state()
        for (head, binder, value), arm, name, code in zip(arms, (e.left_arm, e.right_arm),
                                                          (e.left_name, e.right_name),
                                                          (INL_EVENT, INR_EVENT)):
            self.restore(outer)
            self.arm(head, binder, value)
            self.expr(arm, vs, {**rs, name: binder}, self.event(events, repr(code)))
            self.ind -= 1
        self.restore(outer)


_TERM_RULES = {
    Var: _Gen.read, Res: _Gen.read, Apply: _Gen.apply, PrimOp: _Gen.primop,
    Pair: _Gen.pair, Bang: _Gen.wrap, Inl: _Gen.wrap, Inr: _Gen.wrap,
    Roll: _Gen.wrap, MFun: _Gen.mfun, Box: _Gen.box, TermCase: _Gen.case,
    TermSplit: _Gen.split,
    Unroll: lambda gen, t, vs, rs: gen.body_of(t, vs, rs, "{}.body"),
    Unbox: lambda gen, t, vs, rs: gen.body_of(t, vs, rs, "store.boxes[{}.tag]"),
    KeyOf: lambda gen, t, vs, rs: gen.body_of(t, vs, rs, "IntLit({}.tag)"),
}
_EXPR_RULES = {
    Return: _Gen.ret, LetBang: _Gen.let_bang, LetPair: _Gen.let_pair,
    MCase: _Gen.mcase,
}
