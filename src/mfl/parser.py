"""Parser for `.mfl` source files.

Source files are a sequence of `val` / `type` declarations followed by a
single `main` term. The grammar (see docs/grammar.md) distinguishes
terms from expressions syntactically; the parser also classifies every
identifier occurrence as a variable or a resource from the construct
that bound it: `let !` and `mfun` self-names bind variables, while
`mfun` parameters, `let*`, `mcase`, `case` and `split` bind resources.
Unbound names parse as variables so the typechecker can report them.

`if` and `mif` are sugar: `if t then t1 else t2` becomes a term-level
case over `int2sum t`, and `mif` the memoized-case analogue.

The lexer is one regular expression, plus a second one that skips
nested comments. Binary operators are parsed by operator precedence
(Pratt 1973) with an explicit stack, and prefix operators and type
products and sums by loops, so that only nested terms, expressions and
types recurse. Their nesting is capped at MAX_NESTING, which keeps the
parser within about 600 frames, inside Python's default recursion
limit of 1000.
"""

from __future__ import annotations

import re

from .errors import DuplicateDeclError, ParseError
from .syntax import (
    INT, UNIT, Apply, Bang, Box, IntLit, Inl, Inr, KeyOf, LetBang, LetPair,
    MCase, MFun, Pair, PrimOp, Program, Res, Return, Roll, TArrow, TBang,
    TBox, TProd, TRec, TSum, TVar, Term, TermCase, TermSplit, Type, UnitLit,
    Unbox, Unroll, Var,
)

KEYWORDS = frozenset(
    "val type main mfun is end let in return mcase mif case split if then else "
    "of as inl inr box unbox keyof roll unroll rec unit int div int2sum".split()
)

# After blanks, tried in order: a word, a number, a comment opener, a
# symbol (two-character ones first), a newline, and any other character,
# which is an error. The classes are ASCII only. Blanks before the end of
# the input match nothing, so the scan stops there.
_TOKEN = re.compile(r"[ \t\r]*(?:([A-Za-z_][A-Za-z0-9_']*)|([0-9]+)|(\(\*)"
                    r"|(=>|==|<=|->|[=<()\[\],|+\-*!:.])|(\n)|([^ \t\r]))")
_COMMENT = re.compile(r"\(\*|\*\)|\n")

# How deep terms, expressions and types may nest inside one another.
MAX_NESTING = 200


def tokenize(src: str) -> "list[tuple[str, str, tuple[int, int]]]":
    """Split `src` into `(kind, text, (line, col))` tokens, the last of
    kind "eof". A kind is "ident", "number", a keyword or a symbol."""
    toks = []
    append = toks.append
    start, line, bol = 0, 1, 0  # bol: index where the current line begins
    while True:
        for m in _TOKEN.finditer(src, start):
            group = m.lastindex
            if group == 1:
                text = m[1]
                kind = text if text in KEYWORDS else "ident"
                append((kind, text, (line, m.start(1) - bol + 1)))
            elif group == 4:
                text = m[4]
                append((text, text, (line, m.start(4) - bol + 1)))
            elif group == 2:
                append(("number", m[2], (line, m.start(2) - bol + 1)))
            elif group == 5:
                line += 1
                bol = m.end()
            elif group == 3:
                # skip the nested comment, then scan on from its end
                opened, depth = (line, m.start(3) - bol + 1), 1
                for c in _COMMENT.finditer(src, m.end()):
                    if c[0] == "\n":
                        line += 1
                        bol = c.end()
                    elif c[0] == "(*":
                        depth += 1
                    else:
                        depth -= 1
                        if not depth:
                            break
                else:
                    raise ParseError(*opened, "unterminated comment")
                start = c.end()
                break
            else:
                raise ParseError(line, m.end() - bol, f"unexpected character {m[6]!r}")
        else:
            break
    append(("eof", "", (line, len(src) - bol + 1)))
    return toks


# Tokens that may begin an atom, and therefore continue an application
# chain. '-' is deliberately absent: after an operand it is always the
# binary operator, so a negative-literal argument needs parentheses.
_ATOM_START = frozenset(("number", "ident", "(", "mfun"))
# Keywords that begin a term other than an operand, and those that begin
# an expression, which a term may not.
_TERM_KEYWORDS = frozenset(("if", "case", "split", "return", "let", "mcase", "mif"))

# Binding power of the binary operators. Comparisons (1) do not chain;
# the others associate to the left.
_BINARY = {"<": 1, "<=": 1, "==": 1, "+": 2, "-": 2, "*": 3, "div": 3}
_PREFIX = frozenset(("!", "box", "unbox", "keyof", "unroll", "int2sum",
                     "roll", "inl", "inr"))
_ANNOTATED = frozenset(("roll", "inl", "inr"))
_WRAP = {"!": Bang, "box": Box, "unbox": Unbox, "keyof": KeyOf, "unroll": Unroll}


def _fold_right(make, parts: list):
    ty = parts.pop()
    while parts:
        ty = make(parts.pop(), ty)
    return ty


def _apply_prefixes(prefixes: list, term: Term) -> Term:
    for kind, pos, ty in reversed(prefixes):  # the innermost applies first
        if kind == "int2sum":
            term = PrimOp("int2sum", (term,), pos)
        elif kind == "roll":
            if not isinstance(ty, TRec):
                raise ParseError(*pos, "roll needs a 'rec' type annotation")
            term = Roll(term, ty, pos)
        elif kind in _ANNOTATED:
            if not isinstance(ty, TSum):
                raise ParseError(*pos, f"{kind} needs a sum type annotation")
            term = (Inl if kind == "inl" else Inr)(term, ty.left, ty.right, pos)
        else:
            term = _WRAP[kind](term, pos)
    return term


# Nodes take their position as the positional argument after their
# fields: passed by keyword, it makes building a node about 1.7 times
# slower.
class Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.i = 0
        self.depth = 0
        self.kinds: "dict[str, str]" = {}  # name -> "var" | "res"
        self.aliases: "dict[str, Type]" = {}
        self.tyvars: "list[str]" = []

    # ---- token plumbing

    def eat(self, kind: str) -> bool:
        if self.toks[self.i][0] == kind:
            self.i += 1
            return True
        return False

    def expect(self, kind: str, what: str = ""):
        tok = self.toks[self.i]
        if tok[0] != kind:
            wanted = what or f"'{kind}'"
            self.fail(f"expected {wanted}, found '{tok[1] or 'end of input'}'")
        self.i += 1
        return tok

    def ident(self, what: str) -> str:
        return self.expect("ident", what)[1]

    def fail(self, msg: str):
        raise ParseError(*self.toks[self.i][2], msg)

    def enter(self) -> None:
        """Count one more level of nesting; the caller lowers `depth`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail("nesting too deep")

    def scoped(self, parse_body, binds: "dict[str, str]"):
        outer = self.kinds
        self.kinds = {**outer, **binds}
        node = parse_body()
        self.kinds = outer
        return node

    # ---- program

    def parse_program(self) -> Program:
        decls: "list[tuple[str, Term]]" = []
        while True:
            if self.eat("val"):
                _, name, pos = self.expect("ident", "a declaration name")
                self.expect("=")
                term = self.parse_term()
                if name in self.kinds:
                    raise DuplicateDeclError(*pos, name)
                decls.append((name, term))
                self.kinds[name] = "var"
            elif self.eat("type"):
                _, name, pos = self.expect("ident", "a type alias name")
                self.expect("=")
                ty = self.parse_type()
                if name in self.aliases:
                    raise DuplicateDeclError(*pos, name)
                self.aliases[name] = ty
            else:
                break
        self.expect("main", "'val', 'type' or 'main'")
        main = self.parse_term()
        self.expect("eof", "end of input")
        return Program(decls, main)

    # ---- types

    def parse_type(self) -> Type:
        self.enter()
        if self.eat("rec"):
            name = self.ident("a type variable")
            self.expect(".")
            self.tyvars.append(name)
            ty = TRec(name, self.parse_type())
            self.tyvars.pop()
        else:
            ty = self._parse_sum_type()
            if self.eat("->"):
                ty = TArrow(ty, self.parse_type())
        self.depth -= 1
        return ty

    def _parse_sum_type(self) -> Type:
        # sum ::= prod { "+" prod } and prod ::= bang { "*" bang }, both
        # right-associative, read in one loop so that neither recurses
        sums, prods = [], [self._parse_bang_type()]
        while True:
            kind = self.toks[self.i][0]
            if kind != "*" and kind != "+":
                break
            self.i += 1
            if kind == "+":
                sums.append(_fold_right(TProd, prods))
                prods = []
            prods.append(self._parse_bang_type())
        sums.append(_fold_right(TProd, prods))
        return _fold_right(TSum, sums)

    def _parse_bang_type(self) -> Type:
        bang = self.eat("!")
        kind, text, pos = self.toks[self.i]
        self.i += 1
        if kind == "int":
            ty = INT
        elif kind == "unit":
            ty = UNIT
        elif kind == "(":
            ty = self.parse_type()
            self.expect(")")
        elif kind == "ident":
            if text in self.tyvars:
                ty = TVar(text)
            else:
                ty = self.aliases.get(text)
                if ty is None:
                    raise ParseError(*pos, f"unknown type name '{text}'")
        else:
            self.i -= 1
            self.fail("expected a type")
        while self.eat("box"):
            ty = TBox(ty)
        return TBang(ty) if bang else ty

    # ---- terms

    def parse_term(self) -> Term:
        self.enter()
        kind, text, pos = self.toks[self.i]
        if kind not in _TERM_KEYWORDS:
            term = self._parse_operators()
        elif kind == "if":
            self.i += 1
            scrut = self.parse_term()
            self.expect("then")
            then_arm = self.parse_term()
            self.expect("else")
            else_arm = self.parse_term()
            test = PrimOp("int2sum", (scrut,), pos)
            term = TermCase(test, "_", else_arm, "_", then_arm, pos)
        elif kind == "case":
            self.i += 1
            scrut = self.parse_term()
            self.expect("of")
            self.expect("inl")
            lname = self.ident("a binder")
            self.expect("=>")
            left = self.scoped(self.parse_term, {lname: "res"})
            self.expect("|")
            self.expect("inr")
            rname = self.ident("a binder")
            self.expect("=>")
            right = self.scoped(self.parse_term, {rname: "res"})
            self.expect("end")
            term = TermCase(scrut, lname, left, rname, right, pos)
        elif kind == "split":
            self.i += 1
            scrut = self.parse_term()
            self.expect("as")
            self.expect("(")
            lname = self.ident("a binder")
            self.expect(",")
            rname = self.ident("a binder")
            self.expect(")")
            self.expect("in")
            body = self.scoped(self.parse_term, {lname: "res", rname: "res"})
            self.expect("end")
            term = TermSplit(scrut, lname, rname, body, pos)
        else:
            self.fail(f"'{text}' starts an expression, but a term is expected here")
        self.depth -= 1
        return term

    def _parse_operators(self) -> Term:
        """Operands joined by binary operators, by precedence with an
        explicit stack. An operand is prefix operators, then an atom
        applied to further atoms."""
        toks = self.toks
        pending = []  # (left operand, operator, its position, binding power)
        compared = False
        while True:
            prefixes = self._parse_prefixes() if toks[self.i][0] in _PREFIX else None
            term = self._parse_atom()
            while toks[self.i][0] in _ATOM_START:
                arg = self._parse_atom()
                term = Apply(term, arg, arg.pos)
            if prefixes:
                term = _apply_prefixes(prefixes, term)
            kind, _, pos = toks[self.i]
            power = _BINARY.get(kind, 0)
            while pending and pending[-1][3] >= power:
                left, op, at, _ = pending.pop()
                term = PrimOp(op, (left, term), at)
            if not power or (power == 1 and compared):
                return term
            self.i += 1
            compared = compared or power == 1
            pending.append((term, kind, pos, power))

    def _parse_prefixes(self) -> list:
        """The prefix operators before an application, with their positions
        and annotations. A loop, so a long chain cannot exhaust the stack."""
        toks = self.toks
        prefixes = []
        while toks[self.i][0] in _PREFIX:
            kind, _, pos = toks[self.i]
            self.i += 1
            ty = None
            if kind in _ANNOTATED:
                self.expect("[")
                ty = self.parse_type()
                self.expect("]")
            prefixes.append((kind, pos, ty))
        return prefixes

    def _parse_atom(self) -> Term:
        kind, text, pos = self.toks[self.i]
        self.i += 1
        if kind == "ident":
            if self.kinds.get(text) == "res":
                return Res(text, pos)
            return Var(text, pos)
        if kind == "number":
            return IntLit(int(text), pos)
        if kind == "(":
            if self.eat(")"):
                return UnitLit(pos)
            first = self.parse_term()
            if self.eat(","):
                second = self.parse_term()
                self.expect(")")
                return Pair(first, second, pos)
            self.expect(")")
            return first
        if kind == "-":
            lit = self.expect("number", "an integer literal after unary '-'")
            return IntLit(-int(lit[1]), pos)
        if kind == "mfun":
            fname = self.ident("a function name")
            self.expect("(")
            arg = self.ident("a parameter name")
            self.expect(":")
            arg_ty = self.parse_type()
            self.expect(")")
            self.expect(":")
            res_ty = self.parse_type()
            self.expect("is")
            body = self.scoped(self.parse_expr, {fname: "var", arg: "res"})
            self.expect("end")
            return MFun(fname, arg, arg_ty, res_ty, body, pos)
        self.i -= 1
        self.fail(f"expected a term, found '{text or 'end of input'}'")

    # ---- expressions

    def parse_expr(self):
        self.enter()
        kind, _, pos = self.toks[self.i]
        self.i += 1
        if kind == "return":
            expr = Return(self.parse_term(), pos)
        elif kind == "let" and self.eat("!"):
            name = self.ident("a binder")
            ann = self.parse_type() if self.eat(":") else None
            self.expect("=")
            scrut = self.parse_term()
            self.expect("in")
            body = self.scoped(self.parse_expr, {name: "var"})
            self.expect("end")
            expr = LetBang(name, ann, scrut, body, pos)
        elif kind == "let" and self.eat("*"):
            self.expect("(")
            lname = self.ident("a binder")
            lann = self.parse_type() if self.eat(":") else None
            self.expect(",")
            rname = self.ident("a binder")
            rann = self.parse_type() if self.eat(":") else None
            self.expect(")")
            self.expect("=")
            scrut = self.parse_term()
            self.expect("in")
            body = self.scoped(self.parse_expr, {lname: "res", rname: "res"})
            self.expect("end")
            expr = LetPair(lname, lann, rname, rann, scrut, body, pos)
        elif kind == "let":
            self.fail("expected '!' or '*' after 'let'")
        elif kind == "mcase":
            scrut = self.parse_term()
            self.expect("of")
            self.expect("inl")
            lname = self.ident("a binder")
            lann = self.parse_type() if self.eat(":") else None
            self.expect("=>")
            left = self.scoped(self.parse_expr, {lname: "res"})
            self.expect("|")
            self.expect("inr")
            rname = self.ident("a binder")
            rann = self.parse_type() if self.eat(":") else None
            self.expect("=>")
            right = self.scoped(self.parse_expr, {rname: "res"})
            self.expect("end")
            expr = MCase(scrut, lname, lann, left, rname, rann, right, pos)
        elif kind == "mif":
            scrut = self.parse_term()
            self.expect("then")
            then_arm = self.parse_expr()
            self.expect("else")
            else_arm = self.parse_expr()
            self.expect("end")
            test = PrimOp("int2sum", (scrut,), pos)
            expr = MCase(test, "_", None, else_arm, "_", None, then_arm, pos)
        else:
            self.i -= 1
            self.fail("expected an expression (return, let, mcase or mif)")
        self.depth -= 1
        return expr


def parse(src: str) -> Program:
    """Parse a whole program. Raises ParseError with a position inside
    the input on the first syntax error."""
    return Parser(src).parse_program()


def parse_term(src: str, resources: "tuple[str, ...]" = (),
               variables: "tuple[str, ...]" = ()) -> Term:
    """Parse a bare term; handy in tests. Names listed in `resources` /
    `variables` classify accordingly instead of defaulting to variables."""
    p = Parser(src)
    p.kinds.update({n: "res" for n in resources})
    p.kinds.update({n: "var" for n in variables})
    term = p.parse_term()
    p.expect("eof", "end of input")
    return term


def parse_expr(src: str, resources: "tuple[str, ...]" = (),
               variables: "tuple[str, ...]" = ()):
    """Parse a bare expression; handy in tests."""
    p = Parser(src)
    p.kinds.update({n: "res" for n in resources})
    p.kinds.update({n: "var" for n in variables})
    expr = p.parse_expr()
    p.expect("eof", "end of input")
    return expr
