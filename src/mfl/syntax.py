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

from dataclasses import dataclass, field, fields
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
    `arg` the parameter (a resource). Under the pure policy it is also a
    function value, and `code` then holds its compiled body and frame
    tail; like `fvs`, it is a cache that structural operations ignore.
    So is `ctx`: the contexts the checker checked the body under, which
    type the function, its argument and what it captures, or None."""

    fname: str
    arg: str
    arg_type: Type
    res_type: Type
    body: Expr
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None
    code: "tuple | None" = field(default=None, repr=False)
    ctx: "tuple | None" = field(default=None, repr=False)


@dataclass(slots=True, eq=False)
class MFunVal(Term):
    """Run-time function value bound to the memo table at `loc`.

    Never produced by the parser; appears only in evaluator output and
    intermediate terms. `code` is what an application runs, as for a
    pure `MFun`, and `table` the memo table its returns walk, the one at
    `loc` in the store it was made in; a value that no evaluation made
    has neither.
    """

    loc: int
    fname: str
    arg: str
    arg_type: Type
    res_type: Type
    body: Expr
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None
    code: "tuple | None" = field(default=None, repr=False)
    table: "object | None" = field(default=None, repr=False)


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
    """Term-level case; binds a resource per arm, records no event. On
    each node that binds names, `ty` is a cache like `fvs`: the type the
    checker found of the sum or pair taken apart (of the variable, for
    `LetBang`), or None if the node has not passed the checker."""

    scrut: Term
    left_name: str
    left_arm: Term
    right_name: str
    right_arm: Term
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None
    ty: "Type | None" = field(default=None, repr=False)


@dataclass(slots=True, eq=False)
class TermSplit(Term):
    """Term-level pair split; binds two resources, records no event."""

    scrut: Term
    left_name: str
    right_name: str
    body: Term
    pos: Optional[Pos] = None
    fvs: "frozenset[str] | None" = None
    ty: "Type | None" = field(default=None, repr=False)


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
    ty: "Type | None" = field(default=None, repr=False)


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
    ty: "Type | None" = field(default=None, repr=False)


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
    ty: "Type | None" = field(default=None, repr=False)


Node = Union[Term, Expr]


@dataclass(slots=True, eq=False)
class Program:
    """Top-level declarations plus a main term. Decl names are unique and
    each decl may use only the names declared before it. `ty` is main's
    type once the program has passed the checker, else None."""

    decls: "list[tuple[str, Term]]"
    main: Term
    ty: "Type | None" = field(default=None, repr=False)


@dataclass(frozen=True)
class TypeContext:
    """Typing contexts: `gamma` for variables, `delta` for resources."""

    gamma: "dict[str, Type]"
    delta: "dict[str, Type]"

    @staticmethod
    def empty() -> "TypeContext":
        return TypeContext({}, {})


# --------------------------------------------------------------------------
# Structural operations
# --------------------------------------------------------------------------

_FIELDS_CACHE: "dict[type, tuple[str, ...]]" = {}
_CACHES = ("pos", "fvs", "code", "table", "ty", "ctx")  # position, caches, links: no structure


def node_fields(cls: type) -> "tuple[str, ...]":
    fs = _FIELDS_CACHE.get(cls)
    if fs is None:
        fs = tuple(f.name for f in fields(cls) if f.name not in _CACHES)
        _FIELDS_CACHE[cls] = fs
    return fs


def term_eq(a: Node, b: Node, same_box=None) -> bool:
    """Structural equality of terms/expressions, ignoring positions and
    the `fvs`, `code`, `table`, `ty` and `ctx` caches.

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
    for name in _SCALARS[ta]:
        va = getattr(a, name)
        vb = getattr(b, name)
        if not (type_eq(va, vb) if isinstance(va, Type) else va == vb):
            return False
    for name, _, _ in SUBTERMS[ta]:
        va = getattr(a, name)
        vb = getattr(b, name)
        if type(va) is tuple:
            if len(va) != len(vb) or not all(term_eq(x, y, same_box)
                                             for x, y in zip(va, vb)):
                return False
        elif not term_eq(va, vb, same_box):
            return False
    return True


# Binding structure: every node class with its subterm fields, each paired
# with the fields naming the variables and the resources bound inside that
# subterm. It is MFL's scoping stated once; `free_names`, `free_resources`,
# `subst`, `erase` and `term_eq` all traverse by it. `PrimOp.args` is the
# one field holding a tuple of subterms.
_BODY = (("body", (), ()),)
_FUN = (("body", ("fname",), ("arg",)),)
_ARMS = (("scrut", (), ()), ("left_arm", (), ("left_name",)),
         ("right_arm", (), ("right_name",)))
_SPLIT = (("scrut", (), ()), ("body", (), ("left_name", "right_name")))
SUBTERMS: "dict[type, tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...]]" = {
    Var: (), Res: (), UnitLit: (), IntLit: (), BoxVal: (),
    PrimOp: (("args", (), ()),),
    Pair: (("left", (), ()), ("right", (), ())),
    Apply: (("fn", (), ()), ("arg", (), ())),
    MFun: _FUN, MFunVal: _FUN,
    Bang: _BODY, Inl: _BODY, Inr: _BODY, Roll: _BODY, Unroll: _BODY,
    Box: _BODY, Unbox: _BODY, KeyOf: _BODY, Return: _BODY,
    TermCase: _ARMS, MCase: _ARMS, TermSplit: _SPLIT, LetPair: _SPLIT,
    LetBang: (("scrut", (), ()), ("body", ("name",), ())),
}

# The fields of each node class that hold no subterm: names, operators,
# locations, tags and types.
_SCALARS = {t: tuple(f for f in node_fields(t) if f not in {s for s, _, _ in subterms})
            for t, subterms in SUBTERMS.items()}


_EMPTY_FVS: "frozenset[str]" = frozenset()


def free_names(node: Node) -> "frozenset[str]":
    """All names (variables and resources together) occurring free in a
    node, cached on the node itself. Substitution uses this to skip
    subtrees a binding cannot touch; keeping one combined set trades a
    rare false positive (a variable and a resource sharing a name) for a
    single cheap disjointness test.
    """
    try:
        cached = node.fvs
    except AttributeError:
        raise TypeError(f"not a term or expression: {node!r}") from None
    if cached is not None:
        return cached
    t = type(node)
    if t is Var or t is Res:
        out = frozenset((node.name,))
    else:
        out = _EMPTY_FVS
        for name, vbound, rbound in SUBTERMS[t]:
            child = getattr(node, name)
            if type(child) is tuple:
                for c in child:
                    out = out | free_names(c)
                continue
            fv = free_names(child)
            for b in vbound + rbound:
                fv = fv - {getattr(node, b)}
            out = out | fv if out else fv
    node.fvs = out
    return out


def free_resources(node: Node) -> "set[str]":
    """The set of resource names occurring free in a term or expression."""
    t = type(node)
    if t is Res:
        return {node.name}
    subterms = SUBTERMS.get(t)
    if subterms is None:
        raise TypeError(f"not a term or expression: {node!r}")
    out: "set[str]" = set()
    if node.fvs == _EMPTY_FVS:  # closed, as `free_names` has cached
        return out
    for name, _, rbound in subterms:
        child = getattr(node, name)
        if type(child) is tuple:
            for c in child:
                out |= free_resources(c)
            continue
        fr = free_resources(child)
        for b in rbound:
            fr.discard(getattr(node, b))
        out |= fr
    return out


def _unbind(mapping: dict, node: Node, binders: "tuple[str, ...]") -> dict:
    """`mapping` without the names held in `node`'s `binders` fields."""
    out = mapping
    for b in binders:
        name = getattr(node, b)
        if name in out:
            if out is mapping:
                out = dict(mapping)
            del out[name]
    return out


def _map_subterms(node: Node, fn, vmap, rmap) -> Node:
    """`node` with each subterm `s` replaced by `fn(s, vm, rm)`, where `vm`
    and `rm` are `vmap` and `rmap` less the names bound around `s`: `node`
    itself if no subterm changed, else a new node without a position."""
    changed = {}
    for name, vbound, rbound in SUBTERMS[type(node)]:
        child = getattr(node, name)
        vm = _unbind(vmap, node, vbound) if vbound and vmap else vmap
        rm = _unbind(rmap, node, rbound) if rbound and rmap else rmap
        if type(child) is tuple:
            new = tuple([fn(c, vm, rm) for c in child])
            if any(x is not y for x, y in zip(new, child)):
                changed[name] = new
        elif (new := fn(child, vm, rm)) is not child:
            changed[name] = new
    if not changed:
        return node
    t = type(node)
    return t(*[changed[f] if f in changed else getattr(node, f)
               for f in node_fields(t)])


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
    return _map_subterms(node, subst, vmap, rmap)


def erase(node: Node) -> Node:
    """Strip memo-table locations: every `MFunVal` becomes the `MFun` it
    came from. Idempotent, and commutes with substitution. Box tags are
    allocation artifacts, not locations, and survive erasure.
    """
    return _erase(node, None, None)


def _erase(node: Node, _vmap, _rmap) -> Node:
    t = type(node)
    if t is MFunVal:
        return MFun(node.fname, node.arg, node.arg_type, node.res_type,
                    _erase(node.body, None, None))
    subterms = SUBTERMS.get(t)
    if subterms is None:
        raise TypeError(f"not a term or expression: {node!r}")
    return _map_subterms(node, _erase, None, None) if subterms else node
