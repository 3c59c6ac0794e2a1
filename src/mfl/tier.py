"""The second tier of the evaluator: a hot `mfun` body as one Python function.

`eval_memo` runs every body as closures first. Once a site has had
`eval_memo.HOT_CALLS` activations, `generate` writes the body out as the
source of one Python function for the plain policy (normal mode,
unchecked, untraced), in the style of Hölzle & Ungar's tiered SELF
compiler (1994). Every node of the body is inlined into that function,
and the frame's slots become Python locals. The function takes the
closures' arguments, `(frame, cfg, store, branch)`, so an application
calls either tier the same way. It ignores `branch`, which is always
empty on entry: the events of a path are known statically, so each
`return` builds its branch from them.

The generated code charges what the closures charge, and it raises the
same errors with the same messages. Charges that cannot be observed
before the next call or raise are summed, and the sum is added before
that call or raise, or on the raise's own line. So the counters at any
error are those of the closures.

A `return` walks its memo table inline: its branch has a length known
here, so the lookup and the insert are straight-line code from
`memostore.lookup_source` and `memostore.insert_source`, which charge
the probes `mt_lookup` and `mt_insert` charge and call `mt_insert` for
every insert but the common one. That saves two Python calls per
return, where branches are short (1 or 2 events on the workloads). The
code runs in `eval_memo`'s globals, where perfbench's tracer and the
tests' mutants replace `mt_lookup` or `mt_insert`; a body generated
while either is replaced calls them instead, as the closures do, so
they see every lookup and insert. The two forms differ in source, so
the cache keeps them apart.

As in the closures, `!x` of a `let !`-bound `x` is the bang that `let !`
took apart, not a new `Bang` with the same body: the same value and the
same charges, one allocation fewer. Both tiers do it, so a value's
source position (`pos`, which `repr` shows and `term_eq` ignores) does
not depend on the tier.

The source depends only on the body's shape. Literal values, types,
error messages that name a variable and the sites of nested `mfun`
terms are passed to a factory as arguments `k0, k1, ...`. So equal
shapes share one code object. Factories are cached by their source
text in a bounded module-level cache, and `compile()` runs once per
shape and process. That holds even when each run parses or compiles
its program afresh. A body nested deeper than `MAX_DEPTH` stays on the
closures, since Python allows at most 100 indentation levels. So does a
body with a free name or an operator that has no rule: it is stuck, and
the closures raise the error.
"""

from __future__ import annotations

import threading

from . import eval_memo
from .eval_memo import _VALUE_NODES, _value_size
from . import memostore
from .memostore import INL_EVENT, INR_EVENT, KIND_BANG, insert_source, lookup_source
from .syntax import (
    Apply, Bang, Box, BoxVal, IntLit, Inl, Inr, KeyOf, LetBang, LetPair,
    MCase, MFun, MFunVal, Pair, PrimOp, Res, Return, Roll, TermCase,
    TermSplit, UnitLit, Unbox, Unroll, Var,
)

MAX_DEPTH = 40     # nested terms a generated body may have
CACHE_SIZE = 64    # factories kept, by source text

_ATOM_TYPES = (IntLit, UnitLit, BoxVal, MFunVal, MFun)  # values of one node
_INDEXED = object()  # a `let !` binder: an int, unit or box, once its event is made
_COMPARE = frozenset(("<", "<=", "=="))  # operators that Python writes the same
_ARITH = frozenset(("+", "-", "*"))

_factories: "dict[str, object]" = {}
_lock = threading.Lock()


class _NoCode(Exception):
    """The body nests too deep, or holds a node no rule generates: one
    the generator does not know, a free name or an operator with no
    rule. The last two are stuck, and no typechecked body holds them."""


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


class _Gen:
    """Writes one body. Names in the source: `S` the stats, `b<i>` the
    binders (each bound once on a path), `x<i>` temporaries (a stack,
    reused once consumed), `e<i>` branch events, `k<i>` the factory's
    arguments, `t` the type of the value checked last, and `L`, `T`,
    `B`, `F`, `C`, `P`, `c` and the memo walk's `W<i>` the scratch of a
    `return`."""

    def __init__(self, site):
        self.site = site
        self.lines: "list[str]" = []
        self.consts: list = []
        self.ind = 2
        self.depth = 0
        self.nbind = 0
        self.ntemp = 0
        self.nevent = 0
        self.known: "dict[str, type]" = {}  # locals whose value type is fixed
        self.bangs: "dict[str, str]" = {}  # `let !` binder -> the bang it took apart
        self.tvar = None  # the local whose type `t` holds
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
        ncap = len(site.vnames) + len(site.rnames)
        binders = [self.bind() for _ in range(2 + ncap)]
        vs = dict(zip(site.vnames, binders[2:]))
        rs = dict(zip(site.rnames, binders[2 + len(site.vnames):]))
        vs[site.fname] = binders[0]
        rs[site.arg] = binders[1]
        self.known[binders[0]] = MFunVal
        self.emit("S=cfg.stats;" + ";".join(f"{b}=fr[{i}]" for i, b in enumerate(binders)))
        self.expr(site.body, vs, rs, ())
        args = "".join(f"k{i}," for i in range(len(self.consts)))
        return "\n".join([f"def _factory({args}):", " def run(fr,cfg,store,branch):",
                          *self.lines, " return run", ""])

    def emit(self, line: str) -> None:
        self.lines.append(" " * self.ind + line)

    def adds(self) -> "list[str]":
        return [f"S.{name}+={n}" for name, n in (("steps", self.steps),
                                                 ("branch_events", self.events),
                                                 ("boxes_allocated", self.boxes)) if n]

    def pending(self) -> "list[str]":
        """The summed charges as simple statements, which a raise adds
        on its own line."""
        out = self.adds()
        if self.maxlen:
            out.append(f"S.max_branch_len=max(S.max_branch_len,{self.maxlen})")
        return out

    def flush(self) -> None:
        """Add the summed charges, before a call that may raise."""
        adds = self.adds()
        if adds:
            self.emit(";".join(adds))
        if self.maxlen:
            self.emit(f"if {self.maxlen}>S.max_branch_len:S.max_branch_len={self.maxlen}")
        self.steps = self.events = self.boxes = self.maxlen = 0

    def fail(self, cond: str, error: str) -> None:
        """Raise `error` when `cond` holds, having added the summed
        charges on the raise's line."""
        self.emit(f"if {cond}:" + ";".join([*self.pending(), f"raise {error}"]))

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def bind(self) -> str:
        self.nbind += 1
        return f"b{self.nbind - 1}"

    def hold(self, x: str) -> str:
        """`x` as a name that later statements cannot clobber."""
        if x.isidentifier():
            return x
        tmp = self.hold_name()
        self.emit(f"{tmp}={x}")
        return tmp

    def load_type(self, x: str) -> str:
        """The statement that puts the type of `x` in `t`. Every write of
        `t` is made by it, so `tvar` always names what `t` holds."""
        self.tvar = x
        return f"t=type({x})"

    def type_of(self, x: str) -> str:
        if self.tvar != x:
            self.emit(self.load_type(x))
        return "t"

    def state(self):
        return self.steps, self.events, self.boxes, self.maxlen, self.ntemp

    def restore(self, state) -> None:
        self.steps, self.events, self.boxes, self.maxlen, self.ntemp = state
        self.tvar = None

    def nest(self, head: str):
        self.emit(head)
        self.ind += 1
        self.tvar = None
        if self.ind > MAX_DEPTH + 2:
            raise _NoCode

    # ---- terms: each returns (expression, its value's type or None) ----
    #
    # The expression cannot raise: anything that can is emitted as a
    # statement. It stays valid until the caller emits its next term.

    def term(self, t, vs: dict, rs: dict):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _NoCode
        tp = type(t)
        if tp in _VALUE_NODES:
            n = _value_size(t, [])
            if n is not None:
                self.steps += n
                self.depth -= 1
                return self.const(t), tp
        rule = _TERM_RULES.get(tp)
        if rule is None:
            raise _NoCode
        out = rule(self, t, vs, rs)
        self.depth -= 1
        return out

    def read(self, t, vs, rs):
        x = (vs if type(t) is Var else rs).get(t.name)
        if x is None:  # a free name
            raise _NoCode
        ty = self.known.get(x)
        if ty in _ATOM_TYPES or ty is _INDEXED:
            self.steps += 1
            return x, None if ty is _INDEXED else ty
        n, self.steps = self.steps, 0
        self.emit(f"{self.load_type(x)};S.steps+={_read_charge(x, n)}")
        return x, None

    def name_of(self, t, vs, rs) -> "str | None":
        """The local bound to `t`, if `t` is a name whose value has no
        type known here."""
        if type(t) is Var or type(t) is Res:
            x = (vs if type(t) is Var else rs).get(t.name)
            if x is not None and x not in self.known:
                return x
        return None

    def split_pair(self, scrut, vs, rs, what: str):
        """Evaluate the scrutinee of a `let*` or `split` and take it
        apart: Stuck unless it is a pair. Returns the binders of its two
        sides. A name is read before its type test, and charged on the
        raise's line if it is no pair, or else from its sides, which
        saves `_lookup_steps` a call when they are leaves or banged
        leaves."""
        left, right = self.bind(), self.bind()
        x = self.name_of(scrut, vs, rs)
        if x is None:
            base = self.ntemp
            v, ty = self.term(scrut, vs, rs)
            v = self.hold(v)
            self.check(v, ty, Pair, what)
            self.emit(f"{left}={v}.left;{right}={v}.right")
            self.ntemp = base
            return left, right
        n, self.steps = self.steps, 0
        self.emit(self.load_type(x))
        self.emit(";".join([f"if t is not Pair:S.steps+={_read_charge(x, n)}",
                            *self.pending(), f"raise Stuck({what!r})"]))
        self.emit(f"{left}={x}.left;{right}={x}.right;S.steps+={n + 1}"
                  f"+{_side_steps(left)}+{_side_steps(right)}")
        return left, right

    def check(self, x: str, ty, want: type, what: str) -> None:
        """Stuck unless the value `x` (of static type `ty`) is a `want`."""
        if ty is not want:
            self.fail(f"{self.type_of(x)} is not {want.__name__}",
                      f"Stuck({what!r})")

    def apply(self, t: Apply, vs, rs):
        self.steps += 1
        base = self.ntemp
        f, ty = self.term(t.fn, vs, rs)
        f = self.hold(f)
        if f != "b0":  # the running function's own value has code
            tt = self.type_of(f)
            fun = "" if ty is MFunVal or ty is MFun else f"{tt} is not MFunVal and {tt} is not MFun"
            self.fail(f"{fun} or {f}.code is None" if fun else f"{f}.code is None",
                      f"_not_applicable({f})")
        site, tail = self.hold_name(), self.hold_name()
        self.emit(f"{site},{tail}={f}.code")
        arg, _ = self.term(t.arg, vs, rs)
        self.flush()
        self.ntemp = base
        out = self.hold_name()
        # count the activation and switch the site after the last, as
        # the closures do
        self.emit(f"if {site}.left:{site}.left-=1;{site}.left or _promote({site})")
        self.emit("cfg.depth+=1")
        self.emit("if cfg.depth>cfg.depth_limit:raise _too_deep(cfg)")
        self.emit(f"try:{out}={site}.run([{f},{arg},*{tail}],cfg,store,[])")
        self.emit("finally:cfg.depth-=1")
        return out, None

    def keep(self, x: str) -> str:
        """`x` as a name that stays valid to the end of the path: a
        binder or a factory argument, or else a new binder (a temporary,
        `x<i>`, is reused)."""
        if x.isidentifier() and x[0] != "x":
            return x
        b = self.bind()
        self.emit(f"{b}={x}")
        return b

    def hold_name(self) -> str:
        """A free temporary, which the caller assigns next."""
        tmp = f"x{self.ntemp}"
        self.ntemp += 1
        if self.tvar == tmp:
            self.tvar = None
        return tmp

    def int_operands(self, t: PrimOp, vs, rs):
        """Charge the operator and evaluate its two operands; Stuck
        unless both are integers. Returns their Python ints."""
        self.steps += 1
        a, aty = self.term(t.args[0], vs, rs)
        a = self.hold(a)
        b, bty = self.term(t.args[1], vs, rs)
        b = self.hold(b)
        conds = [f"type({x}) is not IntLit" for x, ty in ((a, aty), (b, bty)) if ty is not IntLit]
        if conds:
            self.fail(" or ".join(conds),
                      f"Stuck({f'operator {t.op!r} applied to a non-integer'!r})")
        return f"{a}.value", f"{b}.value"

    def primop(self, t: PrimOp, vs, rs):
        op, args = t.op, t.args
        if op == "int2sum" and len(args) == 1:
            self.steps += 1
            a, aty = self.term(args[0], vs, rs)
            a = self.hold(a)
            self.check(a, aty, IntLit, f"operator {op!r} applied to a non-integer")
            return f"(_SUM_UNIT_TRUE if {a}.value!=0 else _SUM_UNIT_FALSE)", None
        if len(args) == 2 and (op in _COMPARE or op in _ARITH):
            base = self.ntemp
            a, b = self.int_operands(t, vs, rs)
            self.ntemp = base
            if op in _COMPARE:
                return f"IntLit(1 if {a}{op}{b} else 0)", IntLit
            return f"IntLit({a}{op}{b})", IntLit
        if len(args) == 2 and op == "div":
            base = self.ntemp
            a, b = self.int_operands(t, vs, rs)
            self.flush()
            self.ntemp = base
            out = self.hold_name()
            self.emit(f"{out}=IntLit(_div({a},{b}))")
            return out, IntLit
        raise _NoCode  # an operator with no rule

    def pair(self, t: Pair, vs, rs):
        self.steps += 1
        base = self.ntemp
        left = self.hold(self.term(t.left, vs, rs)[0])
        right = self.term(t.right, vs, rs)[0]
        self.ntemp = base
        return f"Pair({left},{right})", Pair

    def wrap(self, t, vs, rs):
        tp = type(t)
        self.steps += 1
        body = self.term(t.body, vs, rs)[0]
        if tp is Bang:
            if type(t.body) is Var and body in self.bangs:
                return self.bangs[body], Bang
            return f"Bang({body})", Bang
        if tp is Roll:
            return f"Roll({body},{self.const(t.rec_type)})", Roll
        return f"{tp.__name__}({body},{self.const(t.left_type)},{self.const(t.right_type)})", tp

    def mfun(self, t: MFun, vs, rs):
        self.steps += 1
        inner = self.site.sites.get(t)
        if inner is None:
            raise _NoCode
        captured = [vs[name] for name in inner.vnames] + [rs[name] for name in inner.rnames]
        self.flush()
        out = self.hold_name()
        self.emit(f"{out}={self.const(inner)}.value({self.const(t)},"
                  f"({''.join(x + ',' for x in captured)}),cfg,store)")
        return out, MFunVal

    def unroll(self, t: Unroll, vs, rs):
        self.steps += 1
        base = self.ntemp
        v, ty = self.term(t.body, vs, rs)
        v = self.hold(v)
        self.check(v, ty, Roll, "unroll of a non-rolled value")
        self.ntemp = base
        return f"{v}.body", None

    def box(self, t: Box, vs, rs):
        self.steps += 1
        v = self.term(t.body, vs, rs)[0]
        self.boxes += 1
        self.flush()
        out = self.hold_name()
        self.emit(f"{out}=store.alloc_box({v})")
        return out, BoxVal

    def unbox(self, t: Unbox, vs, rs):
        self.steps += 1
        base = self.ntemp
        v, ty = self.term(t.body, vs, rs)
        v = self.hold(v)
        self.check(v, ty, BoxVal, "unbox of a non-box value")
        self.flush()
        self.ntemp = base
        out = self.hold_name()
        self.emit(f"{out}=store.boxes[{v}.tag]")
        return out, None

    def keyof(self, t: KeyOf, vs, rs):
        self.steps += 1
        base = self.ntemp
        v, ty = self.term(t.body, vs, rs)
        v = self.hold(v)
        self.check(v, ty, BoxVal, "keyof of a non-box value")
        self.ntemp = base
        return f"IntLit({v}.tag)", IntLit

    def case(self, t: TermCase, vs, rs):
        self.steps += 1
        out = self.hold_name()
        left, right = self.bind(), self.bind()
        cond = self.sum_test(t.scrut, vs, rs)
        for binder, arm, name, head, unit in (
                (left, t.left_arm, t.left_name, cond[0], "_SUM_UNIT_FALSE"),
                (right, t.right_arm, t.right_name, cond[1], "_SUM_UNIT_TRUE")):
            state = self.state()
            self.nest(head)
            binder = self.bound(binder, cond[2], unit)
            v = self.term(arm, vs, {**rs, name: binder})[0]
            self.flush()
            self.emit(f"{out}={v}")
            self.ind -= 1
            self.restore(state)
        self.fail_else(cond[3], "case of a non-sum value")
        self.steps = self.events = self.boxes = self.maxlen = 0
        self.tvar = None
        return out, None

    def sum_test(self, scrut, vs, rs):
        """Evaluate the scrutinee of a `case` or `mcase`. Returns the
        heads of its two arms, the sum whose body an arm binds (None for
        an `if`, whose arms bind the units of int2sum's sums), and
        whether a value that is no sum can reach an `else`."""
        if type(scrut) is PrimOp and scrut.op == "int2sum" and len(scrut.args) == 1:
            # `if`: test the integer, and bind the arms to the units of
            # the sums int2sum returns
            self.steps += 1
            arg = scrut.args[0]
            if (type(arg) is PrimOp and len(arg.args) == 2
                    and (arg.op in _COMPARE or arg.op in _ARITH)):
                a, b = self.int_operands(arg, vs, rs)
                test = f"{a}{arg.op}{b}" if arg.op in _COMPARE else f"({a}{arg.op}{b})!=0"
            else:
                a, aty = self.term(arg, vs, rs)
                a = self.hold(a)
                self.check(a, aty, IntLit, "operator 'int2sum' applied to a non-integer")
                test = f"{a}.value!=0"
            return (f"if not {test}:", "else:", None, False)
        v, ty = self.term(scrut, vs, rs)
        v = self.hold(v)
        tt = self.type_of(v)
        return (f"if {tt} is Inl:", f"elif {tt} is Inr:", v, True)

    def bound(self, binder: str, source: "str | None", unit: str) -> str:
        """Bind an arm's binder to the body of the sum `source`; for an
        `if`, return the unit inside the sum int2sum returned."""
        if source is None:
            unit += ".body"
            self.known[unit] = UnitLit
            return unit
        self.emit(f"{binder}={source}.body")
        return binder

    def fail_else(self, reachable: bool, what: str) -> None:
        if reachable:
            self.emit("else:" + ";".join([*self.pending(), f"raise Stuck({what!r})"]))

    def split(self, t: TermSplit, vs, rs):
        self.steps += 1
        left, right = self.split_pair(t.scrut, vs, rs, "split of a non-pair value")
        return self.term(t.body, vs, {**rs, t.left_name: left, t.right_name: right})

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
        v = self.hold(self.term(e.body, vs, rs)[0])
        self.flush()
        if self.inline:
            for line in insert_source(list(events), v):
                self.emit(line)
            self.emit(f"S.returns+=1;return {v}")
        else:
            self.emit(f"mt_insert(T,B,{v},S,on_dup='keep');S.returns+=1;return {v}")

    def let_bang(self, e: LetBang, vs, rs, events):
        self.steps += 1
        b = self.bind()
        base = self.ntemp
        v, ty = self.term(e.scrut, vs, rs)
        v = self.keep(v)
        self.check(v, ty, Bang, "let ! of a non-bang value")
        self.ntemp = base
        self.emit(f"{b}={v}.body;{self.load_type(b)}")
        self.known[b] = _INDEXED
        self.bangs[b] = v
        ev = f"e{self.nevent}"
        self.nevent += 1
        self.flush()
        tb = self.type_of(b)
        self.emit(f"{ev}=({KIND_BANG},{b}.value if {tb} is IntLit else {b}.tag if {tb} is BoxVal "
                  f"else index_of({b}))")
        self.expr(e.body, {**vs, e.name: b}, rs, self.event(events, ev))

    def let_pair(self, e: LetPair, vs, rs, events):
        self.steps += 1
        left, right = self.split_pair(e.scrut, vs, rs, "let* of a non-pair value")
        self.expr(e.body, vs, {**rs, e.left_name: left, e.right_name: right}, events)

    def mcase(self, e: MCase, vs, rs, events):
        self.steps += 1
        left, right = self.bind(), self.bind()
        cond = self.sum_test(e.scrut, vs, rs)
        outer = self.state()
        for binder, arm, name, head, unit, code in (
                (left, e.left_arm, e.left_name, cond[0], "_SUM_UNIT_FALSE", INL_EVENT),
                (right, e.right_arm, e.right_name, cond[1], "_SUM_UNIT_TRUE", INR_EVENT)):
            self.restore(outer)
            self.nest(head)
            binder = self.bound(binder, cond[2], unit)
            self.expr(arm, vs, {**rs, name: binder}, self.event(events, repr(code)))
            self.ind -= 1
        self.restore(outer)
        self.fail_else(cond[3], "mcase of a non-sum value")


def _read_charge(x: str, n: int, tx: str = "t") -> str:
    """What reading the value `x` of type `tx` charges, plus `n`: the
    closures' charge of a name read, one step for a one-node value, two
    for a banged leaf, else `_lookup_steps`. Every read charge the
    generated code makes is built here."""
    return (f"{n + 1} if {tx} in _ATOMS else {n + 2} if {tx} is Bang and type({x}.body) in _LEAVES "
            f"else {f'{n}+' if n else ''}_lookup_steps(store,{x},cfg)")


def _side_steps(x: str) -> str:
    """What `_lookup_steps` charges for the side `x` of a pair. Unchecked,
    it is what reading `x` as a name charges."""
    return f"({_read_charge(x, 0, f'type({x})')})"


_TERM_RULES = {
    Var: _Gen.read, Res: _Gen.read, Apply: _Gen.apply, PrimOp: _Gen.primop,
    Pair: _Gen.pair, Bang: _Gen.wrap, Inl: _Gen.wrap, Inr: _Gen.wrap,
    Roll: _Gen.wrap, MFun: _Gen.mfun, Unroll: _Gen.unroll, Box: _Gen.box,
    Unbox: _Gen.unbox, KeyOf: _Gen.keyof, TermCase: _Gen.case,
    TermSplit: _Gen.split,
}
_EXPR_RULES = {
    Return: _Gen.ret, LetBang: _Gen.let_bang, LetPair: _Gen.let_pair,
    MCase: _Gen.mcase,
}
