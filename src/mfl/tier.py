"""The second tier of the evaluator: a hot `mfun` body as one Python function.

`eval_memo` runs every body as closures first. Once a site has had
`eval_memo.HOT_CALLS` activations, `generate` writes the body out as the
source of one Python function for the plain policy (normal mode,
unchecked, untraced), in the style of Hölzle & Ungar's tiered SELF
compiler (1994). Every node of the body is inlined into that function,
and the frame's slots become Python locals. Its entry is positional,
`run(f, arg, depth, cap, cfg, store)`, with `cap` the captured values
that the function value's `code` holds: no list frame is built between
generated bodies (Steele, MIT AI Memo 443, 1977: pass arguments where
the callee wants them), and a callee that is not generated is reached
through `eval_memo._cold_entry`. The events of a path are known
statically, so each `return` builds its branch from them.

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
same errors with the same messages. The charges of a path are summed
and added once, where it ends (at a joining `if` or `case` term, an
arm adds what it charges beyond the other). Before anything that may
raise, the body notes what is pending in `p`, which one handler adds
before it re-raises, so the counters at any error are those of the
closures. Only the first call on a path tests the callees' depth. A
`return` walks the function value's memo table inline, with
straight-line code from `memostore.lookup_source` and
`memostore.insert_source`, which charge what `mt_lookup` and `mt_insert`
charge, and adds its hit or miss to the table's record, as the closures
do; `computed_returns` counts the misses. The code runs in
`eval_memo`'s globals, where perfbench's tracer and the tests' mutants
replace `mt_lookup` or `mt_insert`; a body generated while either is
replaced calls whatever they are when it runs, so they see every lookup
and insert.

As in the closures, `!x` of a `let !`-bound `x` is the bang that `let !`
took apart, kept only where some `!x` reads it: the same value and
charges, one allocation fewer, and a value's `pos` that does not depend
on the tier.

The source depends only on the body's shape: literal values, types and
the sites of nested `mfun` terms are passed to a factory as arguments
`k0, k1, ...`. The module keeps no state: `generate` compiles the
source and calls its factory each time. `eval_memo` keeps each
generated site, which a later compile of an equal function term reuses,
so `generate` runs once per body and process even when each run parses
its program afresh. A body nested deeper than `MAX_DEPTH` stays on the
closures, since Python allows at most 100 indentation levels.
"""

from __future__ import annotations

from . import eval_memo
from .eval_memo import _VALUE_NODES, _value_size
from .memostore import INL_EVENT, INR_EVENT, KIND_BANG, insert_source, lookup_source
from .syntax import (
    Apply, Bang, Box, Inl, Inr, KeyOf, LetBang, LetPair, MCase, MFun,
    Pair, PrimOp, Res, Return, Roll, TArrow, TBang, TBox, TInt, TProd, TSum,
    TUnit, TermCase, TermSplit, Unbox, Unroll, Var,
)

MAX_DEPTH = 40     # nested terms a generated body may have

_COMPARE = frozenset(("<", "<=", "=="))  # operators that Python writes the same
_ARITH = frozenset(("+", "-", "*"))


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
    names: dict = {}
    exec(compile(src, "<mfl generated body>", "exec"), vars(eval_memo), names)
    return names["_factory"](*gen.consts)


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
    """Writes one body. Names in the source: `S` the stats, `d` and `D`
    the activation's depth and its callees', `p` the pending charges,
    `b<i>` the binders (each bound once on a path), `x<i>` temporaries
    (a stack, reused once consumed), `e<i>` branch events, `k<i>` the
    factory's arguments, and `T`, `B`, `F`, `C` and the memo walk's
    `W<i>` the scratch of a `return`."""

    def __init__(self, site):
        self.site = site
        self.lines: "list[str]" = []
        self.consts: list = []
        self.ind = 3
        self.depth = 0
        self.nbind = 0
        self.ntemp = 0
        self.nevent = 0
        self.types: dict = {}  # the static type of each binder
        self.scruts: "dict[str, str]" = {}  # `let !` binder -> the bang it took apart
        self.bangs: "dict[str, str]" = {}  # `let !` binder -> the name that keeps its bang
        self.inline = eval_memo.walks_inline()
        # charges summed but not yet added: steps, branch events (as many
        # as the branch is long), box allocations and a missed lookup's probes
        self.steps = self.events = self.boxes = self.probes = 0
        self.tested = False  # the callees' depth has been tested on this path
        self.noted = None  # what `p` holds on this path, if known

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
        self.expr(site.body, vs, rs, ())
        unpack = f";{''.join(b + ',' for b in binders[2:])}=cap" if ncap else ""
        args = "".join(f"k{i}," for i in range(len(self.consts)))
        return "\n".join([f"def _factory({args}):", " def run(b0,b1,d,cap,cfg,store):",
                          f"  S=cfg.stats{unpack}", "  try:", *self.lines,
                          "  except MflError:s,e,b,q=p;S.steps+=s;S.branch_events+=e;S.boxes_allocated+=b;"
                          "S.probes+=q;S.max_branch_len=max(S.max_branch_len,e);raise",
                          " return run", ""])

    def emit(self, line: str) -> None:
        self.lines.append(" " * self.ind + line)

    def adds(self, steps: int, boxes: int, probes: int = 0) -> "list[str]":
        """The statements that add `steps`, `boxes` and `probes`."""
        return [f"S.{name}+={n}" for name, n in (("steps", steps), ("boxes_allocated", boxes),
                                                 ("probes", probes)) if n]

    def pending(self) -> None:
        """Note the summed charges in `p`, for the handler, before a raise."""
        noted = self.steps, self.events, self.boxes, self.probes
        if noted != self.noted:
            self.emit(f"p=({','.join(map(str, noted))})")
            self.noted = noted

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
        return self.steps, self.events, self.boxes, self.probes, self.ntemp, self.tested, self.noted

    def restore(self, state) -> None:
        self.steps, self.events, self.boxes, self.probes, self.ntemp, self.tested, self.noted = state

    def nest(self, head: str):
        self.emit(head)
        self.ind += 1
        if self.ind > MAX_DEPTH + 3:
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
            self.emit(f"S.steps+=_lookup_steps(store,{x},cfg)")
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
        site, cap = self.hold_name(), self.hold_name()
        self.emit(f"{site},{cap},_={f}.code")
        arg = self.term(t.arg, vs, rs)
        self.pending()
        self.ntemp = base
        out = self.hold_name()
        # count the activation and switch the site after the last, as
        # the closures do; the callees' depth is one per activation
        self.emit(f"if {site}.left:{site}.left-=1;{site}.left or _promote({site})")
        if not self.tested:
            self.emit("if (D:=d+1)>cfg.depth_limit:raise _too_deep(cfg)")
            self.tested = True
        self.emit(f"{out}={site}.run({f},{arg},D,{cap},cfg,store)")
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
            self.pending()
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
        ends = []
        for (head, binder, value), arm, name in zip(arms, (t.left_arm, t.right_arm),
                                                    (t.left_name, t.right_name)):
            state = self.state()
            self.arm(head, binder, value)
            v = self.term(arm, vs, {**rs, name: binder})
            self.emit(f"{out}={v}")
            ends.append((len(self.lines) - 1, self.lines[-1], self.steps, self.boxes, self.tested))
            self.ind -= 1
            self.restore(state)
        # what both arms charge stays pending past the join; an arm adds
        # only what it charges beyond that
        self.steps, self.boxes = (min(end[i] for end in ends) for i in (2, 3))
        for at, line, steps, boxes, _ in ends:
            adds = self.adds(steps - self.steps, boxes - self.boxes)
            self.lines[at] = line.replace(f" {out}=", f" {';'.join([*adds, ''])}{out}=", 1)
        self.tested = self.tested or all(end[4] for end in ends)
        self.noted = None
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
        return events + (code,)

    def ret(self, e: Return, vs, rs, events):
        # the path's events are all known here, and added; its steps and
        # boxes are added where it ends, on a hit with the walk's probes
        self.steps += 1
        n, self.events = self.events, 0
        self.emit(f"T=b0.table{f';S.branch_events+={n}' if n else ''}")
        if n:
            self.emit(f"if {n}>S.max_branch_len:S.max_branch_len={n}")
        self.emit("if T.stats is not S:T.count_for(S)")
        if self.inline:
            walk, probes, found, value = lookup_source(list(events))
            self.emit(walk)
        else:
            self.emit(f"B=[{','.join(events)}];F,C=mt_lookup(T,B,S)")
            probes, found, value = "0", "F", "C"  # mt_lookup has added them
        on_hit = self.adds(self.steps, self.boxes, len(events) + 1 if self.inline else 0)
        self.emit(f"if {found}:{';'.join([*on_hit, 'T.counts.hits+=1'])};return {value}")
        static = probes.isdigit()  # the same on every miss: added with the insert's
        self.probes = int(probes) if static else 0
        self.emit(f"{'' if static else f'S.probes+={probes};'}T.counts.misses+=1")
        v = self.hold(self.term(e.body, vs, rs))
        note = f"p=({self.steps},0,{self.boxes},0);"  # what is pending if `mt_insert` raises
        if self.inline:
            *walk, fallback = insert_source(list(events), v, self.probes)
            for line in walk:
                self.emit(line)
            self.emit(fallback.replace("else:", "else:" + note, 1))
        else:
            self.emit(f"{note}mt_insert(T,B,{v},S,on_dup='keep')")
        self.emit(";".join([*self.adds(self.steps, self.boxes), f"S.computed_returns+=1;return {v}"]))

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
