import pytest

from mfl.corpus import CORPUS_NAMES, corpus_source
from mfl.errors import DuplicateDeclError, ParseError
from mfl.gen import gen_program
from mfl.parser import MAX_NESTING, parse, parse_expr, parse_term
from mfl.pretty import print_program
from mfl.syntax import (
    Apply, Bang, IntLit, LetBang, MCase, MFun, Pair, PrimOp, Res, TermCase,
    Var, term_eq,
)


def test_parse_decl_and_main():
    p = parse("val id = mfun f (a : !int) : int is let !x = a in return x end end\n"
              "main id")
    assert len(p.decls) == 1 and p.decls[0][0] == "id"
    assert type(p.decls[0][1]) is MFun
    assert term_eq(p.main, Var("id"))


def test_parse_closed_mfun_main():
    p = parse("main mfun f (a : !int) : int is return 3 end")
    assert type(p.main) is MFun
    assert not p.decls


def test_expression_at_term_position_rejected():
    with pytest.raises(ParseError) as exc:
        parse("main let !x = 3 in return x end")
    assert "expression" in str(exc.value)


def test_parse_error_has_position():
    src = "val x = 3\nmain x +"
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert exc.value.line == 2
    assert 1 <= exc.value.col <= len(src.splitlines()[1]) + 1


def test_duplicate_decl():
    with pytest.raises(DuplicateDeclError):
        parse("val x = 1 val x = 2 main x")


def test_application_is_left_associative():
    t = parse_term("f x y", variables=("f", "x", "y"))
    assert type(t) is Apply and type(t.fn) is Apply


def test_application_binds_tighter_than_operators():
    t = parse_term("f x + g y", variables=("f", "x", "g", "y"))
    assert type(t) is PrimOp and t.op == "+"
    assert type(t.args[0]) is Apply


def test_negative_literals():
    assert term_eq(parse_term("-3"), IntLit(-3))
    t = parse_term("f - 1", variables=("f",))
    assert type(t) is PrimOp and t.op == "-"
    t2 = parse_term("f (-1)", variables=("f",))
    assert type(t2) is Apply and term_eq(t2.arg, IntLit(-1))
    assert term_eq(parse_term("2 - -1"), PrimOp("-", (IntLit(2), IntLit(-1))))


def test_if_desugars_to_term_case_over_int2sum():
    t = parse_term("if 1 < 2 then 10 else 20")
    assert type(t) is TermCase
    assert type(t.scrut) is PrimOp and t.scrut.op == "int2sum"
    assert term_eq(t.left_arm, IntLit(20))   # inl = zero = false
    assert term_eq(t.right_arm, IntLit(10))  # inr = nonzero = true


def test_mif_desugars_to_mcase():
    e = parse_expr("mif x then return 1 else return 2 end", variables=("x",))
    assert type(e) is MCase
    assert term_eq(e.left_arm.body, IntLit(2))
    assert term_eq(e.right_arm.body, IntLit(1))


def test_binder_classification():
    # let! binds a variable, mcase binds resources
    e = parse_expr("let !x = r in return x end", resources=("r",))
    assert type(e) is LetBang
    assert type(e.scrut) is Res
    assert type(e.body.body) is Var


def test_unbound_names_default_to_variables():
    t = parse_term("mystery")
    assert type(t) is Var


def test_nested_comments():
    p = parse("(* outer (* inner *) still a comment *) main 1 (* trailing *)")
    assert term_eq(p.main, IntLit(1))


def test_unterminated_comment_position():
    with pytest.raises(ParseError) as exc:
        parse("main 1 (* oops")
    assert exc.value.col == 8


@pytest.mark.parametrize("src, col, char", [
    ("main \u00b2", 6, "\u00b2"),            # a digit to str.isdigit
    ("val \u00e9t\u00e9 = 1 main \u00e9t\u00e9", 5, "\u00e9"),  # a letter to str.isalpha
], ids=["superscript-two", "e-acute"])
def test_non_ascii_characters_are_rejected(src, col, char):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert exc.value.message == f"unexpected character {char!r}"


def test_nesting_up_to_the_limit_parses():
    depth = MAX_NESTING - 1
    p = parse("main " + "(" * depth + "1" + ")" * depth)
    assert term_eq(p.main, IntLit(1))


def test_nesting_beyond_the_limit_is_a_parse_error():
    # reported at the token that opens level MAX_NESTING + 1; the whole
    # main term is level 1
    with pytest.raises(ParseError) as exc:
        parse("main " + "(" * 10_000 + "1" + ")" * 10_000)
    assert exc.value.message == "nesting too deep"
    assert (exc.value.line, exc.value.col) == (1, len("main ") + MAX_NESTING + 1)


@pytest.mark.parametrize("src", [
    "main " + "!(" * 10_000 + "1" + ")" * 10_000,
    "main " + "1 < 1 + (" * 10_000 + "1" + ")" * 10_000,
    "main " + "if 1 then 2 else " * 10_000 + "3",
    "main " + "case 1 of inl a => " * 10_000 + "1" + " | inr b => 2 end" * 10_000,
    "main mfun f (a : " + "(int * " * 10_000 + "int" + ")" * 10_000 + ") : int is return 1 end",
    "main mfun f (a : int) : int is " + "let !x = a in " * 10_000 + "return 1"
    + " end" * 10_001,
])
def test_every_kind_of_nesting_is_capped(src):
    with pytest.raises(ParseError, match="nesting too deep"):
        parse(src)


def test_unary_keywords_nest_without_parens():
    t = parse_term("box unbox b", variables=("b",))
    assert type(t).__name__ == "Box"
    assert type(t.body).__name__ == "Unbox"


def test_bang_argument_needs_atom():
    t = parse_term("f (!(n - 1))", variables=("f", "n"))
    assert type(t.arg) is Bang


def test_pair_and_unit_atoms():
    assert term_eq(parse_term("()"), parse_term("()"))
    t = parse_term("(1, (2, 3))")
    assert type(t) is Pair and type(t.right) is Pair


def test_type_annotations_on_binders_roundtrip():
    e = parse_expr("let !x : int = b in return x end", variables=("b",))
    assert e.ann is not None


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_roundtrip(name):
    program = parse(corpus_source(name))
    again = parse(print_program(program))
    assert len(again.decls) == len(program.decls)
    for (n1, t1), (n2, t2) in zip(program.decls, again.decls):
        assert n1 == n2
        assert term_eq(t1, t2)
    assert term_eq(again.main, program.main)


def test_generated_roundtrip():
    for seed in range(60):
        program = gen_program(seed)
        again = parse(print_program(program))
        assert term_eq(again.main, program.main)
        for (n1, t1), (n2, t2) in zip(program.decls, again.decls):
            assert n1 == n2 and term_eq(t1, t2)
