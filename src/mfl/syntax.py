"""Abstract syntax for MFL: types, terms and expressions.

The language has two syntactic sorts. *Terms* evaluate independently of
any memo table; *expressions* (function bodies) evaluate relative to a
memo table and a branch of recorded events. Run-time values are terms in
canonical form: function values carry the location of their memo table
(`MFunVal`) and boxed values carry their allocation tag (`BoxVal`).

Nodes are plain slotted dataclasses. They are immutable by convention;
use `term_eq` / `type_eq` for structural comparison (node `==` is
identity, and source positions never participate in equality).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Union

Pos = "tuple[int, int]"  # (line, col), 1-based; None on synthesized nodes


# --------------------------------------------------------------------------
# Types
# --------------------------------------------------------------------------


class Type:
    __slots__ = ()

    def __repr__(self) -> str:
        return format_type(self)


@dataclass(slots=True, eq=False, repr=False)
class TUnit(Type):
    pass


@dataclass(slots=True, eq=False, repr=False)
class TInt(Type):
    pass


@dataclass(slots=True, eq=False, repr=False)
class TBox(Type):
    item: Type


@dataclass(slots=True, eq=False, repr=False)
class TBang(Type):
    """Modal type; `item` must be indexable (unit, int or a box)."""

    item: Type


@dataclass(slots=True, eq=False, repr=False)
class TProd(Type):
    left: Type
    right: Type


@dataclass(slots=True, eq=False, repr=False)
class TSum(Type):
    left: Type
    right: Type


@dataclass(slots=True, eq=False, repr=False)
class TRec(Type):
    """Iso-recursive type; `var` is bound within `body`."""

    var: str
    body: Type


@dataclass(slots=True, eq=False, repr=False)
class TVar(Type):
    name: str


@dataclass(slots=True, eq=False, repr=False)
class TArrow(Type):
    """Memoized function type."""

    arg: Type
    res: Type


UNIT = TUnit()
INT = TInt()
BOOL_SUM = TSum(UNIT, UNIT)  # result type of int2sum


def is_indexable(ty: Type) -> bool:
    """Indexable types are the ones with an injective index into int."""
    t = type(ty)
    return t is TUnit or t is TInt or t is TBox


def type_eq(a: Type, b: Type, _env: "tuple | None" = None) -> bool:
    """Structural equality with alpha-equivalence of `rec` binders."""
    if a is b:
        return True
    ta, tb = type(a), type(b)
    if ta is not tb:
        return False
    if ta is TUnit or ta is TInt:
        return True
    if ta is TVar:
        env = _env
        while env is not None:
            (na, nb), env = env
            if na == a.name or nb == b.name:
                return na == a.name and nb == b.name
        return a.name == b.name
    if ta is TBox or ta is TBang:
        return type_eq(a.item, b.item, _env)
    if ta is TProd or ta is TSum:
        return type_eq(a.left, b.left, _env) and type_eq(a.right, b.right, _env)
    if ta is TArrow:
        return type_eq(a.arg, b.arg, _env) and type_eq(a.res, b.res, _env)
    if ta is TRec:
        return type_eq(a.body, b.body, ((a.var, b.var), _env))
    raise TypeError(f"not a type: {a!r}")


def subst_type(ty: Type, var: str, replacement: Type) -> Type:
    """Substitute `replacement` for the type variable `var` in `ty`."""
    t = type(ty)
    if t is TVar:
        return replacement if ty.name == var else ty
    if t is TUnit or t is TInt:
        return ty
    if t is TBox:
        item = subst_type(ty.item, var, replacement)
        return ty if item is ty.item else TBox(item)
    if t is TBang:
        item = subst_type(ty.item, var, replacement)
        return ty if item is ty.item else TBang(item)
    if t is TProd:
        l = subst_type(ty.left, var, replacement)
        r = subst_type(ty.right, var, replacement)
        return ty if l is ty.left and r is ty.right else TProd(l, r)
    if t is TSum:
        l = subst_type(ty.left, var, replacement)
        r = subst_type(ty.right, var, replacement)
        return ty if l is ty.left and r is ty.right else TSum(l, r)
    if t is TArrow:
        a = subst_type(ty.arg, var, replacement)
        r = subst_type(ty.res, var, replacement)
        return ty if a is ty.arg and r is ty.res else TArrow(a, r)
    if t is TRec:
        if ty.var == var:  # shadowed
            return ty
        body = subst_type(ty.body, var, replacement)
        return ty if body is ty.body else TRec(ty.var, body)
    raise TypeError(f"not a type: {ty!r}")


def unroll_type(ty: TRec) -> Type:
    return subst_type(ty.body, ty.var, ty)


_TYPE_LEVEL = {  # parenthesization levels, loosest first
    TArrow: 0,
    TRec: 0,
    TSum: 1,
    TProd: 2,
    TBang: 3,
    TBox: 4,
}


def format_type(ty: Type, level: int = 0) -> str:
    t = type(ty)
    if t is TUnit:
        return "unit"
    if t is TInt:
        return "int"
    if t is TVar:
        return ty.name
    mine = _TYPE_LEVEL[t]
    if t is TArrow:
        s = f"{format_type(ty.arg, 1)} -> {format_type(ty.res, 0)}"
    elif t is TRec:
        s = f"rec {ty.var} . {format_type(ty.body, 0)}"
    elif t is TSum:
        s = f"{format_type(ty.left, 2)} + {format_type(ty.right, 1)}"
    elif t is TProd:
        s = f"{format_type(ty.left, 3)} * {format_type(ty.right, 2)}"
    elif t is TBang:
        s = f"!{format_type(ty.item, 4)}"
    else:  # TBox
        s = f"{format_type(ty.item, 5)} box"
    return f"({s})" if mine < level else s


# --------------------------------------------------------------------------
# Terms and expressions
# --------------------------------------------------------------------------


class Term:
    __slots__ = ()


class Expr:
    __slots__ = ()


@dataclass(slots=True, eq=False)
class Var(Term):
    name: str
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class Res(Term):
    name: str
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class UnitLit(Term):
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class IntLit(Term):
    value: int
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class PrimOp(Term):
    op: str
    args: "tuple[Term, ...]"
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class Pair(Term):
    left: Term
    right: Term
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class MFun(Term):
    """Memoized function term; `fname` is the self-reference (a variable),
    `arg` the parameter (a resource)."""

    fname: str
    arg: str
    arg_type: Type
    res_type: Type
    body: Expr
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class MFunVal(Term):
    """Run-time function value bound to the memo table at `loc`.

    Never produced by the parser; appears only in evaluator output and
    intermediate terms.
    """

    loc: int
    fname: str
    arg: str
    arg_type: Type
    res_type: Type
    body: Expr
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class Apply(Term):
    fn: Term
    arg: Term
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class Bang(Term):
    body: Term
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class Inl(Term):
    body: Term
    left_type: Type
    right_type: Type
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class Inr(Term):
    body: Term
    left_type: Type
    right_type: Type
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class Roll(Term):
    """Introduction for a recursive type; carries the target `rec` type
    so checking stays syntax-directed."""

    body: Term
    rec_type: Type
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class Unroll(Term):
    body: Term
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class Box(Term):
    body: Term
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class Unbox(Term):
    body: Term
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class KeyOf(Term):
    body: Term
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class BoxVal(Term):
    """Run-time boxed value; the tag indexes the store's box registry."""

    tag: int
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class TermCase(Term):
    """Term-level case; binds a resource per arm, records no event."""

    scrut: Term
    left_name: str
    left_arm: Term
    right_name: str
    right_arm: Term
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class TermSplit(Term):
    """Term-level pair split; binds two resources, records no event."""

    scrut: Term
    left_name: str
    right_name: str
    body: Term
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class Return(Expr):
    body: Term
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class LetBang(Expr):
    """Eliminates a bang: binds the underlying value to a *variable* and
    records the value's index in the branch. The annotation is optional
    in surface syntax; the checker synthesizes it from the scrutinee."""

    name: str
    ann: Optional[Type]
    scrut: Term
    body: Expr
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class LetPair(Expr):
    """Splits a pair into two resources; extends no branch."""

    left_name: str
    left_ann: Optional[Type]
    right_name: str
    right_ann: Optional[Type]
    scrut: Term
    body: Expr
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


@dataclass(slots=True, eq=False)
class MCase(Expr):
    """Case analysis binding a resource per arm; records which arm ran."""

    scrut: Term
    left_name: str
    left_ann: Optional[Type]
    left_arm: Expr
    right_name: str
    right_ann: Optional[Type]
    right_arm: Expr
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None


Node = Union[Term, Expr]


@dataclass(slots=True, eq=False)
class Program:
    """Top-level declarations plus a main term. Decl names are unique and
    each decl may use only the names declared before it."""

    decls: "list[tuple[str, Term]]"
    main: Term


@dataclass(frozen=True)
class TypeContext:
    """Typing contexts: `gamma` for variables, `delta` for resources.

    The two key sets stay disjoint: binding a name on one side removes it
    from the other, mirroring how the parser classifies occurrences by
    their innermost binder.
    """

    gamma: "dict[str, Type]"
    delta: "dict[str, Type]"

    @staticmethod
    def empty() -> "TypeContext":
        return TypeContext({}, {})

    def bind_var(self, name: str, ty: Type) -> "TypeContext":
        delta = self.delta
        if name in delta:
            delta = {k: v for k, v in delta.items() if k != name}
        return TypeContext({**self.gamma, name: ty}, delta)

    def bind_res(self, name: str, ty: Type) -> "TypeContext":
        gamma = self.gamma
        if name in gamma:
            gamma = {k: v for k, v in gamma.items() if k != name}
        return TypeContext(gamma, {**self.delta, name: ty})


# --------------------------------------------------------------------------
# Structural operations
# --------------------------------------------------------------------------

_FIELDS_CACHE: "dict[type, tuple[str, ...]]" = {}


def node_fields(cls: type) -> "tuple[str, ...]":
    fs = _FIELDS_CACHE.get(cls)
    if fs is None:
        fs = tuple(f.name for f in fields(cls) if f.name not in ("pos", "fvs"))
        _FIELDS_CACHE[cls] = fs
    return fs


def term_eq(a: Node, b: Node, same_box=None) -> bool:
    """Structural equality of terms/expressions, ignoring positions.

    Types embedded in nodes compare with `type_eq` (alpha-equivalence);
    locations compare literally, and so do box tags unless `same_box`
    is given: then two distinct boxes are equal if `same_box(a, b)` is.
    """
    if a is b:
        return True
    ta = type(a)
    if ta is not type(b):
        return False
    if ta is BoxVal and same_box is not None:
        return same_box(a, b)
    for name in node_fields(ta):
        va = getattr(a, name)
        vb = getattr(b, name)
        if isinstance(va, (Term, Expr)):
            if not term_eq(va, vb, same_box):
                return False
        elif isinstance(va, Type):
            if not type_eq(va, vb):
                return False
        elif isinstance(va, tuple):
            if len(va) != len(vb) or not all(term_eq(x, y, same_box)
                                             for x, y in zip(va, vb)):
                return False
        elif va != vb:
            return False
    return True


_EMPTY_FVS: "frozenset[str]" = frozenset()


def free_names(node: Node) -> "frozenset[str]":
    """All names (variables and resources together) occurring free in a
    node, cached on the node itself. Substitution uses this to skip
    subtrees a binding cannot touch; keeping one combined set trades a
    rare false positive (a variable and a resource sharing a name) for a
    single cheap disjointness test.
    """
    cached = node.fvs
    if cached is not None:
        return cached
    t = type(node)
    if t is Var or t is Res:
        out = frozenset((node.name,))
    elif t is IntLit or t is UnitLit or t is BoxVal:
        out = _EMPTY_FVS
    elif t is PrimOp:
        out = _EMPTY_FVS
        for a in node.args:
            out = out | free_names(a)
    elif t is Pair:
        out = free_names(node.left) | free_names(node.right)
    elif t is Apply:
        out = free_names(node.fn) | free_names(node.arg)
    elif t is MFun or t is MFunVal:
        out = free_names(node.body) - {node.fname, node.arg}
    elif t in (Bang, Inl, Inr, Roll, Unroll, Box, Unbox, KeyOf, Return):
        out = free_names(node.body)
    elif t is TermCase:
        out = (free_names(node.scrut)
               | (free_names(node.left_arm) - {node.left_name})
               | (free_names(node.right_arm) - {node.right_name}))
    elif t is TermSplit:
        out = (free_names(node.scrut)
               | (free_names(node.body) - {node.left_name, node.right_name}))
    elif t is LetBang:
        out = free_names(node.scrut) | (free_names(node.body) - {node.name})
    elif t is LetPair:
        out = (free_names(node.scrut)
               | (free_names(node.body) - {node.left_name, node.right_name}))
    elif t is MCase:
        out = (free_names(node.scrut)
               | (free_names(node.left_arm) - {node.left_name})
               | (free_names(node.right_arm) - {node.right_name}))
    else:
        raise TypeError(f"not a term or expression: {node!r}")
    node.fvs = out
    return out


def _drop1(mapping: dict, name: str) -> dict:
    if name in mapping:
        out = dict(mapping)
        del out[name]
        return out
    return mapping


def _drop2(mapping: dict, n1: str, n2: str) -> dict:
    if n1 in mapping or n2 in mapping:
        out = dict(mapping)
        out.pop(n1, None)
        out.pop(n2, None)
        return out
    return mapping


def subst(node: Node, vmap: "dict[str, Term]", rmap: "dict[str, Term]") -> Node:
    """Substitute closed values for variables (`vmap`) and resources
    (`rmap`). Substituted terms must be closed, so no capture can occur;
    binders still shadow as usual. Subtrees mentioning none of the
    mapped names are returned as-is (shared).
    """
    fvs = free_names(node)
    if (not vmap or fvs.isdisjoint(vmap)) and (not rmap or fvs.isdisjoint(rmap)):
        return node
    t = type(node)
    if t is Var:
        return vmap.get(node.name, node)
    if t is Res:
        return rmap.get(node.name, node)
    if t is Apply:
        return Apply(subst(node.fn, vmap, rmap), subst(node.arg, vmap, rmap))
    if t is Bang:
        return Bang(subst(node.body, vmap, rmap))
    if t is PrimOp:
        return PrimOp(node.op, tuple(subst(x, vmap, rmap) for x in node.args))
    if t is Pair:
        return Pair(subst(node.left, vmap, rmap), subst(node.right, vmap, rmap))
    if t is MFun or t is MFunVal:
        vm = _drop1(vmap, node.fname)
        rm = _drop1(rmap, node.arg)
        b = subst(node.body, vm, rm)
        if b is node.body:
            return node
        if t is MFun:
            return MFun(node.fname, node.arg, node.arg_type, node.res_type, b)
        return MFunVal(node.loc, node.fname, node.arg, node.arg_type, node.res_type, b)
    if t is Inl:
        return Inl(subst(node.body, vmap, rmap), node.left_type, node.right_type)
    if t is Inr:
        return Inr(subst(node.body, vmap, rmap), node.left_type, node.right_type)
    if t is Roll:
        return Roll(subst(node.body, vmap, rmap), node.rec_type)
    if t is Unroll:
        return Unroll(subst(node.body, vmap, rmap))
    if t is Box:
        return Box(subst(node.body, vmap, rmap))
    if t is Unbox:
        return Unbox(subst(node.body, vmap, rmap))
    if t is KeyOf:
        return KeyOf(subst(node.body, vmap, rmap))
    if t is TermCase:
        return TermCase(subst(node.scrut, vmap, rmap),
                        node.left_name,
                        subst(node.left_arm, vmap, _drop1(rmap, node.left_name)),
                        node.right_name,
                        subst(node.right_arm, vmap, _drop1(rmap, node.right_name)))
    if t is TermSplit:
        return TermSplit(subst(node.scrut, vmap, rmap),
                         node.left_name, node.right_name,
                         subst(node.body, vmap,
                               _drop2(rmap, node.left_name, node.right_name)))
    if t is Return:
        return Return(subst(node.body, vmap, rmap))
    if t is LetBang:
        return LetBang(node.name, node.ann,
                       subst(node.scrut, vmap, rmap),
                       subst(node.body, _drop1(vmap, node.name), rmap))
    if t is LetPair:
        return LetPair(node.left_name, node.left_ann,
                       node.right_name, node.right_ann,
                       subst(node.scrut, vmap, rmap),
                       subst(node.body, vmap,
                             _drop2(rmap, node.left_name, node.right_name)))
    if t is MCase:
        return MCase(subst(node.scrut, vmap, rmap),
                     node.left_name, node.left_ann,
                     subst(node.left_arm, vmap, _drop1(rmap, node.left_name)),
                     node.right_name, node.right_ann,
                     subst(node.right_arm, vmap, _drop1(rmap, node.right_name)))
    raise TypeError(f"not a term or expression: {node!r}")


def free_resources(node: Node) -> "set[str]":
    """The set of resource names occurring free in a term or expression."""
    t = type(node)
    if t is Res:
        return {node.name}
    if t in (Var, UnitLit, IntLit, BoxVal):
        return set()
    if t is PrimOp:
        out: "set[str]" = set()
        for a in node.args:
            out |= free_resources(a)
        return out
    if t in (Bang, Roll, Unroll, Box, Unbox, KeyOf, Return):
        return free_resources(node.body)
    if t is Pair:
        return free_resources(node.left) | free_resources(node.right)
    if t is Apply:
        return free_resources(node.fn) | free_resources(node.arg)
    if t in (MFun, MFunVal):
        return free_resources(node.body) - {node.arg}
    if t is Inl or t is Inr:
        return free_resources(node.body)
    if t is TermCase:
        return (free_resources(node.scrut)
                | (free_resources(node.left_arm) - {node.left_name})
                | (free_resources(node.right_arm) - {node.right_name}))
    if t is TermSplit:
        return (free_resources(node.scrut)
                | (free_resources(node.body) - {node.left_name, node.right_name}))
    if t is LetBang:
        return free_resources(node.scrut) | free_resources(node.body)
    if t is LetPair:
        return (free_resources(node.scrut)
                | (free_resources(node.body) - {node.left_name, node.right_name}))
    if t is MCase:
        return (free_resources(node.scrut)
                | (free_resources(node.left_arm) - {node.left_name})
                | (free_resources(node.right_arm) - {node.right_name}))
    raise TypeError(f"not a term or expression: {node!r}")


def erase(node: Node) -> Node:
    """Strip memo-table locations: every `MFunVal` becomes the `MFun` it
    came from. Idempotent, and commutes with substitution. Box tags are
    allocation artifacts, not locations, and survive erasure.
    """
    t = type(node)
    if t in (Var, Res, UnitLit, IntLit, BoxVal):
        return node
    if t is MFunVal:
        return MFun(node.fname, node.arg, node.arg_type, node.res_type, erase(node.body))
    if t is MFun:
        b = erase(node.body)
        return node if b is node.body else MFun(node.fname, node.arg, node.arg_type, node.res_type, b)
    if t is PrimOp:
        args = tuple(erase(a) for a in node.args)
        if all(x is y for x, y in zip(args, node.args)):
            return node
        return PrimOp(node.op, args)
    if t is Pair:
        l, r = erase(node.left), erase(node.right)
        return node if l is node.left and r is node.right else Pair(l, r)
    if t is Apply:
        f, a = erase(node.fn), erase(node.arg)
        return node if f is node.fn and a is node.arg else Apply(f, a)
    if t is Bang:
        b = erase(node.body)
        return node if b is node.body else Bang(b)
    if t is Inl:
        b = erase(node.body)
        return node if b is node.body else Inl(b, node.left_type, node.right_type)
    if t is Inr:
        b = erase(node.body)
        return node if b is node.body else Inr(b, node.left_type, node.right_type)
    if t is Roll:
        b = erase(node.body)
        return node if b is node.body else Roll(b, node.rec_type)
    if t is Unroll:
        b = erase(node.body)
        return node if b is node.body else Unroll(b)
    if t is Box:
        b = erase(node.body)
        return node if b is node.body else Box(b)
    if t is Unbox:
        b = erase(node.body)
        return node if b is node.body else Unbox(b)
    if t is KeyOf:
        b = erase(node.body)
        return node if b is node.body else KeyOf(b)
    if t is TermCase:
        s = erase(node.scrut)
        la, ra = erase(node.left_arm), erase(node.right_arm)
        if s is node.scrut and la is node.left_arm and ra is node.right_arm:
            return node
        return TermCase(s, node.left_name, la, node.right_name, ra)
    if t is TermSplit:
        s, b = erase(node.scrut), erase(node.body)
        if s is node.scrut and b is node.body:
            return node
        return TermSplit(s, node.left_name, node.right_name, b)
    if t is Return:
        b = erase(node.body)
        return node if b is node.body else Return(b)
    if t is LetBang:
        s, b = erase(node.scrut), erase(node.body)
        if s is node.scrut and b is node.body:
            return node
        return LetBang(node.name, node.ann, s, b)
    if t is LetPair:
        s, b = erase(node.scrut), erase(node.body)
        if s is node.scrut and b is node.body:
            return node
        return LetPair(node.left_name, node.left_ann, node.right_name, node.right_ann, s, b)
    if t is MCase:
        s = erase(node.scrut)
        la, ra = erase(node.left_arm), erase(node.right_arm)
        if s is node.scrut and la is node.left_arm and ra is node.right_arm:
            return node
        return MCase(s, node.left_name, node.left_ann, la,
                     node.right_name, node.right_ann, ra)
    raise TypeError(f"not a term or expression: {node!r}")
