"""Typechecker for MFL.

Two judgments, one per sort: terms and expressions are both checked
against a variable context (gamma) and a resource context (delta).
The modal discipline lives in two places: the bodies of `return` and
`!` are checked under an *empty* resource context, so any use of an
enclosing resource there is an error; and `let !` moves a name from the
restricted world into gamma, while `let*`, `mcase`, `case` and `split`
only ever bind further resources.

Checking is syntax-directed and synthesizes the unique type of a node;
optional binder annotations are verified against the synthesized type.

The checker leaves what it found on the nodes for the generated tier
(`mfl.tier`), one attribute write per binder: a binding node's `ty`, an
`mfun` term's `ctx` and, once all of it has passed, a program's `ty`.
"""

from __future__ import annotations

from .errors import MflTypeError
from .syntax import (
    Apply, BOOL_SUM, Bang, Box, BoxVal, Expr, INT, IntLit, Inl, Inr, KeyOf,
    LetBang, LetPair, MCase, MFun, MFunVal, Pair, PrimOp, Program, Res,
    Return, Roll, TArrow, TBang, TBox, TProd, TRec, TSum, Term, TermCase,
    TermSplit, Type, TypeContext, UNIT, UnitLit, Unbox, Unroll, Var,
    format_type, is_indexable, type_eq, unroll_type,
)

# signature table for primitive operators: arg types -> result type
OP_SIGNATURES: "dict[str, tuple[tuple[Type, ...], Type]]" = {
    "+": ((INT, INT), INT),
    "-": ((INT, INT), INT),
    "*": ((INT, INT), INT),
    "div": ((INT, INT), INT),
    "<": ((INT, INT), INT),
    "<=": ((INT, INT), INT),
    "==": ((INT, INT), INT),
    "int2sum": ((INT,), BOOL_SUM),
}


def _mismatch(pos, expected: Type, found: Type, what: str = "") -> MflTypeError:
    where = f" in {what}" if what else ""
    return MflTypeError(
        "Mismatch", pos,
        f"expected {format_type(expected)}, found {format_type(found)}{where}",
        expected=expected, found=found)


class _Checker:
    """One checking pass. `banned` maps resource names that are lexically
    visible but unusable (we are inside a `return` or `!` body) to the
    construct that hid them, for precise error reporting."""

    def term(self, gamma, delta, banned, t: Term) -> Type:
        tp = type(t)
        if tp is Var:
            ty = gamma.get(t.name)
            if ty is None:
                raise MflTypeError("UnboundVar", t.pos,
                                   f"unbound variable '{t.name}'", name=t.name)
            return ty
        if tp is Res:
            ty = delta.get(t.name)
            if ty is not None:
                return ty
            hidden = banned.get(t.name)
            if hidden == "return":
                raise MflTypeError(
                    "ResourceInReturn", t.pos,
                    f"resource '{t.name}' used inside a return body", name=t.name)
            if hidden == "bang":
                raise MflTypeError(
                    "ResourceInBang", t.pos,
                    f"resource '{t.name}' used inside a '!' body", name=t.name)
            raise MflTypeError("UnboundResource", t.pos,
                               f"unbound resource '{t.name}'", name=t.name)
        if tp is IntLit:
            return INT
        if tp is UnitLit:
            return UNIT
        if tp is PrimOp:
            sig = OP_SIGNATURES.get(t.op)
            if sig is None:
                raise MflTypeError("ArityOrOp", t.pos, f"unknown operator '{t.op}'")
            arg_tys, res_ty = sig
            if len(t.args) != len(arg_tys):
                raise MflTypeError(
                    "ArityOrOp", t.pos,
                    f"operator '{t.op}' expects {len(arg_tys)} arguments, got {len(t.args)}")
            for arg, want in zip(t.args, arg_tys):
                got = self.term(gamma, delta, banned, arg)
                if not type_eq(got, want):
                    raise _mismatch(arg.pos, want, got, f"argument of '{t.op}'")
            return res_ty
        if tp is Pair:
            return TProd(self.term(gamma, delta, banned, t.left),
                         self.term(gamma, delta, banned, t.right))
        if tp is MFun or tp is MFunVal:
            fun_ty = TArrow(t.arg_type, t.res_type)
            gamma2 = {**gamma, t.fname: fun_ty}
            delta2 = {**delta, t.arg: t.arg_type}
            banned2 = banned
            if t.arg in banned:
                banned2 = {k: v for k, v in banned.items() if k != t.arg}
            if tp is MFun:  # a check that fails leaves the term untyped
                t.ctx = None
            body_ty = self.expr(gamma2, delta2, banned2, t.body)
            if not type_eq(body_ty, t.res_type):
                raise _mismatch(t.pos, t.res_type, body_ty, f"body of '{t.fname}'")
            if tp is MFun:
                t.ctx = (gamma2, delta2)
            return fun_ty
        if tp is Apply:
            fn_ty = self.term(gamma, delta, banned, t.fn)
            if type(fn_ty) is not TArrow:
                raise MflTypeError(
                    "Mismatch", t.pos,
                    f"cannot apply a value of type {format_type(fn_ty)}",
                    found=fn_ty)
            arg_ty = self.term(gamma, delta, banned, t.arg)
            if not type_eq(arg_ty, fn_ty.arg):
                raise _mismatch(t.arg.pos or t.pos, fn_ty.arg, arg_ty, "function argument")
            return fn_ty.res
        if tp is Bang:
            banned2 = dict(banned)
            for name in delta:
                banned2[name] = "bang"
            body_ty = self.term(gamma, {}, banned2, t.body)
            if not is_indexable(body_ty):
                raise MflTypeError(
                    "NotIndexable", t.pos,
                    f"'!' needs an indexable type (unit, int or a box), "
                    f"found {format_type(body_ty)}",
                    found=body_ty)
            return TBang(body_ty)
        if tp is Inl:
            got = self.term(gamma, delta, banned, t.body)
            if not type_eq(got, t.left_type):
                raise _mismatch(t.pos, t.left_type, got, "inl payload")
            return TSum(t.left_type, t.right_type)
        if tp is Inr:
            got = self.term(gamma, delta, banned, t.body)
            if not type_eq(got, t.right_type):
                raise _mismatch(t.pos, t.right_type, got, "inr payload")
            return TSum(t.left_type, t.right_type)
        if tp is Roll:
            rec = t.rec_type
            if type(rec) is not TRec:
                raise MflTypeError(
                    "Mismatch", t.pos,
                    f"roll annotation must be a rec type, found {format_type(rec)}",
                    found=rec)
            want = unroll_type(rec)
            got = self.term(gamma, delta, banned, t.body)
            if not type_eq(got, want):
                raise _mismatch(t.pos, want, got, "roll body")
            return rec
        if tp is Unroll:
            got = self.term(gamma, delta, banned, t.body)
            if type(got) is not TRec:
                raise MflTypeError(
                    "Mismatch", t.pos,
                    f"unroll needs a rec type, found {format_type(got)}", found=got)
            return unroll_type(got)
        if tp is Box:
            return TBox(self.term(gamma, delta, banned, t.body))
        if tp is Unbox:
            got = self.term(gamma, delta, banned, t.body)
            if type(got) is not TBox:
                raise MflTypeError(
                    "Mismatch", t.pos,
                    f"unbox needs a box type, found {format_type(got)}", found=got)
            return got.item
        if tp is KeyOf:
            got = self.term(gamma, delta, banned, t.body)
            if type(got) is not TBox:
                raise MflTypeError(
                    "Mismatch", t.pos,
                    f"keyof needs a box type, found {format_type(got)}", found=got)
            return INT
        if tp is BoxVal:
            raise MflTypeError("Mismatch", t.pos,
                               "boxed run-time value has no source type")
        if tp is TermCase:
            scrut_ty = self.term(gamma, delta, banned, t.scrut)
            if type(scrut_ty) is not TSum:
                raise MflTypeError(
                    "Mismatch", t.pos,
                    f"case needs a sum type, found {format_type(scrut_ty)}",
                    found=scrut_ty)
            t.ty = scrut_ty
            left_ty = self.term(gamma, {**delta, t.left_name: scrut_ty.left},
                                _unban(banned, t.left_name), t.left_arm)
            right_ty = self.term(gamma, {**delta, t.right_name: scrut_ty.right},
                                 _unban(banned, t.right_name), t.right_arm)
            if not type_eq(left_ty, right_ty):
                raise _mismatch(t.pos, left_ty, right_ty, "case arms")
            return left_ty
        if tp is TermSplit:
            scrut_ty = self.term(gamma, delta, banned, t.scrut)
            if type(scrut_ty) is not TProd:
                raise MflTypeError(
                    "Mismatch", t.pos,
                    f"split needs a product type, found {format_type(scrut_ty)}",
                    found=scrut_ty)
            t.ty = scrut_ty
            delta2 = {**delta, t.left_name: scrut_ty.left, t.right_name: scrut_ty.right}
            return self.term(gamma, delta2,
                             _unban(banned, t.left_name, t.right_name), t.body)
        raise MflTypeError("Mismatch", getattr(t, "pos", None),
                           f"not a term: {t!r}")

    def expr(self, gamma, delta, banned, e: Expr) -> Type:
        tp = type(e)
        if tp is Return:
            banned2 = dict(banned)
            for name in delta:
                banned2[name] = "return"
            return self.term(gamma, {}, banned2, e.body)
        if tp is LetBang:
            scrut_ty = self.term(gamma, delta, banned, e.scrut)
            if type(scrut_ty) is not TBang:
                raise MflTypeError(
                    "Mismatch", e.pos,
                    f"let ! needs a value of bang type, found {format_type(scrut_ty)}",
                    found=scrut_ty)
            under = scrut_ty.item
            if e.ann is not None and not type_eq(e.ann, under):
                raise _mismatch(e.pos, e.ann, under, "let ! annotation")
            e.ty = under
            gamma2 = {**gamma, e.name: under}
            return self.expr(gamma2, delta, banned, e.body)
        if tp is LetPair:
            scrut_ty = self.term(gamma, delta, banned, e.scrut)
            if type(scrut_ty) is not TProd:
                raise MflTypeError(
                    "Mismatch", e.pos,
                    f"let* needs a product type, found {format_type(scrut_ty)}",
                    found=scrut_ty)
            if e.left_ann is not None and not type_eq(e.left_ann, scrut_ty.left):
                raise _mismatch(e.pos, e.left_ann, scrut_ty.left, "let* annotation")
            if e.right_ann is not None and not type_eq(e.right_ann, scrut_ty.right):
                raise _mismatch(e.pos, e.right_ann, scrut_ty.right, "let* annotation")
            e.ty = scrut_ty
            delta2 = {**delta, e.left_name: scrut_ty.left, e.right_name: scrut_ty.right}
            return self.expr(gamma, delta2,
                             _unban(banned, e.left_name, e.right_name), e.body)
        if tp is MCase:
            scrut_ty = self.term(gamma, delta, banned, e.scrut)
            if type(scrut_ty) is not TSum:
                raise MflTypeError(
                    "Mismatch", e.pos,
                    f"mcase needs a sum type, found {format_type(scrut_ty)}",
                    found=scrut_ty)
            if e.left_ann is not None and not type_eq(e.left_ann, scrut_ty.left):
                raise _mismatch(e.pos, e.left_ann, scrut_ty.left, "mcase annotation")
            if e.right_ann is not None and not type_eq(e.right_ann, scrut_ty.right):
                raise _mismatch(e.pos, e.right_ann, scrut_ty.right, "mcase annotation")
            e.ty = scrut_ty
            left_ty = self.expr(gamma, {**delta, e.left_name: scrut_ty.left},
                                _unban(banned, e.left_name), e.left_arm)
            right_ty = self.expr(gamma, {**delta, e.right_name: scrut_ty.right},
                                 _unban(banned, e.right_name), e.right_arm)
            if not type_eq(left_ty, right_ty):
                raise _mismatch(e.pos, left_ty, right_ty, "mcase arms")
            return left_ty
        raise MflTypeError("Mismatch", getattr(e, "pos", None),
                           f"not an expression: {e!r}")


def _unban(banned: dict, *names: str) -> dict:
    if not any(n in banned for n in names):
        return banned
    return {k: v for k, v in banned.items() if k not in names}


def check_term(ctx: TypeContext, t: Term) -> Type:
    """Synthesize the type of a term under the given contexts."""
    return _Checker().term(ctx.gamma, ctx.delta, {}, t)


def check_expr(ctx: TypeContext, e: Expr) -> Type:
    """Synthesize the type of an expression under the given contexts."""
    return _Checker().expr(ctx.gamma, ctx.delta, {}, e)


def check_program(p: Program) -> Type:
    """Check declarations left to right, each closed under the earlier
    declaration names (as variables), then return the type of main."""
    gamma: "dict[str, Type]" = {}
    checker = _Checker()
    p.ty = None
    for name, term in p.decls:
        gamma[name] = checker.term(dict(gamma), {}, {}, term)
    p.ty = checker.term(gamma, {}, {}, p.main)
    return p.ty
