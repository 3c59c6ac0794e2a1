"""The front end (tokenizer and parser) against recorded results.

`tests/golden/frontend.json` pins, for the corpus programs and 200
generated ones, a digest of `print_program`'s output together with every
node's type and source position in pre-order, and the exact message of
the `ParseError` raised by each malformed input in `MALFORMED`. It was
recorded before the tokenizer and parser were rewritten, so a faster
front end must build the same trees at the same positions and report
the same errors.

Regenerate (only when the grammar or its error messages are meant to
change) with

    PYTHONPATH=src python tests/test_frontend_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from support import preorder
from mfl.corpus import CORPUS_NAMES, corpus_source
from mfl.errors import ParseError
from mfl.gen import gen_program
from mfl.parser import parse
from mfl.pretty import print_program

GOLDEN = Path(__file__).parent / "golden" / "frontend.json"
GENERATED = 200

MALFORMED = (
    "main 1 (* open",
    "(* (* nested *) main 1",
    "main 1 @ 2",
    "main\t1 \t@",
    "(* a\n  b *) main 1 (* c (* d *) e",
    "main f(*c*)x )",
    "val x = 1\nmain x $",
    "main let !x = 3 in return x end",
    "main return 1",
    "main (mcase 1 of inl a => return 1 | inr b => return 2 end)",
    "main mfun f (a : !int) : int is return 3",
    "main split (1, 2) as (a, b) in a",
    "main case inl [int + int] 1 of inl a => a | inr b => b",
    "main roll [int] 3",
    "main inl [int] 3",
    "main inr [int * int] 3",
    "main inl [foo + int] 3",
    "val x = 1 val x = 2 main x",
    "type t = int\ntype t = unit\nmain 1",
    "main 1 +",
    "val x = 3\n\n  main x <",
    "main 1 < 2 < 3",
    "main (1, 2",
    "main mfun f (a : !int) : int is let x = a in return 1 end end",
    "main mfun f (a : ) : int is return 1 end",
    "val = 3 main 1",
    "main 1 div",
    "main 1 *)",
    "",
)


def dump(src: str) -> str:
    """`print_program` of the parsed source, then one line per node."""
    program = parse(src)
    out = [print_program(program)]
    roots = [(f"decl {name}", term) for name, term in program.decls]
    for label, term in roots + [("main", program.main)]:
        out.append(label)
        out += (f"{type(node).__name__} {node.pos}" for node in preorder(term))
    return "\n".join(out)


def _sources() -> "dict[str, str]":
    srcs = {name: corpus_source(name) for name in CORPUS_NAMES}
    for i in range(GENERATED):
        srcs[f"parse:{i}"] = print_program(gen_program(f"parse:{i}"))
    return srcs


def _error(src: str) -> str:
    with pytest.raises(ParseError) as exc:
        parse(src)
    return str(exc.value)


def record() -> dict:
    digests = {name: hashlib.sha256(dump(src).encode()).hexdigest()
               for name, src in _sources().items()}
    return {"programs": digests, "errors": {src: _error(src) for src in MALFORMED}}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_trees_and_positions_match_golden():
    expected = _golden()["programs"]
    sources = _sources()
    assert sorted(sources) == sorted(expected)
    mismatched = [name for name, src in sources.items()
                  if hashlib.sha256(dump(src).encode()).hexdigest() != expected[name]]
    assert mismatched == []


@pytest.mark.parametrize("src", MALFORMED)
def test_parse_error_matches_golden(src):
    assert _error(src) == _golden()["errors"][src]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
