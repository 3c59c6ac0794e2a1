"""The memo policies against recorded results.

`tests/golden/memo.json` pins, for 300 generated programs and for a set
of ill-typed terms, what a run yields under the memo policy in its
normal, cold and checked modes: the printed value, or the type and
message of the error it stops with; its counters (`EvalStats.as_dict()`)
and per-table hits and misses, also at the point of an error; and how
many boxes and tables it allocated. The ill-typed terms are the stuck
terms of the pure golden test plus `NAMED`: wrong-shape values reached
through a name, at each place where an operand can be a bound name
(a `let !`, `let*`, `split`, `case`, `mcase`, `unbox` or `unroll`
scrutinee, an applied function, a banged name), with one-node, banged
and compound values, since a name's charge depends on its value's shape.

Regenerate (only when the memo semantics or its cost model is meant to
change) with

    PYTHONPATH=src python tests/test_memo_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from mfl.deepcall import call_with_deep_stack
from mfl.errors import MflError
from mfl.eval_memo import EvalConfig, run_program
from mfl.gen import gen_program
from mfl.memostore import Store
from mfl.parser import parse
from mfl.pretty import print_value
from mfl.syntax import Program

from test_pure_golden import STUCK

GOLDEN = Path(__file__).parent / "golden" / "memo.json"

# every case also runs with each site switching to generated code early
pytestmark = pytest.mark.usefixtures("hot_calls")
GENERATED = 300
MODES = {"normal": {}, "cold": {"mode": "cold"}, "checked": {"checked": True}}

_FUN = "(mfun f (a : {ty}) : int is {body} end) {arg}"

# ill-typed programs whose stuck operand is a name bound to a value
NAMED = {
    "let-bang-pair": _FUN.format(ty="int * int", arg="(1, 2)",
                                 body="let !x = a in return x end"),
    "let-bang-var": "val g = 3 main " + _FUN.format(
        ty="!int", arg="(!1)", body="let !x = a in let !y = g in return y end end"),
    "let-pair-bang": _FUN.format(ty="!int", arg="(!3)",
                                 body="let * (x, y) = a in return 1 end"),
    "let-pair-inl": _FUN.format(ty="int + int", arg="(inl [int + int] (2, 3))",
                                body="let * (x, y) = a in return 1 end"),
    "let-pair-var": "val g = 3 main " + _FUN.format(
        ty="!int", arg="(!1)", body="let * (x, y) = g in return 1 end"),
    "mcase-pair": _FUN.format(ty="int * int", arg="((1, 2), !3)",
                              body="mcase a of inl l => return 1 | inr r => return 2 end"),
    "apply-int-var": "val g = 3 main g 4",
    "apply-pair-var": "val g = (1, !2) main g 4",
    "apply-int-resource": "split (5, 6) as (a, b) in a b end",
    "apply-int-after-let-bang": _FUN.format(
        ty="!int", arg="(!7)", body="let !n = a in return n 1 end"),
    "unbox-int-resource": "split (1, 2) as (a, b) in unbox a end",
    "unbox-bang-var": "val g = !4 main unbox g",
    "unbox-pair-var": "val g = ((1, 2), !3) main unbox g",
    "unroll-bang-resource": "split (!1, 2) as (a, b) in unroll a end",
    "unroll-pair-var": "val g = (!1, (2, 3)) main unroll g",
    "split-int-resource": "split (1, 2) as (a, b) in split a as (c, d) in c end end",
    "split-bang-var": "val g = !5 main split g as (c, d) in c end",
    "split-inr-var": "val g = inr [int + int] (1, 2) main split g as (c, d) in c end",
    "case-pair-resource": ("split ((1, 2), 3) as (a, b) in "
                           "case a of inl l => l | inr r => r end end"),
    "case-bang-var": "val g = !6 main case g of inl l => l | inr r => r end",
    "bang-pair-var": "val g = (1, (!2, 3)) main (!g) 1",
    "bang-bang-resource": "split (!1, 2) as (a, b) in unbox (!a) end",
    "keyof-bang-var": "val g = !1 main keyof g",
    "primop-pair-var": "val g = ((1, 2), !3) main 1 + g",
    "pair-of-names-applied": "val g = !1 main split (g, 2) as (a, b) in (a, g) 5 end",
}


def _run(program: Program, mode: dict) -> dict:
    """Outcome, counters and allocations of one memo-policy run."""
    store, cfg = Store(), EvalConfig(**mode)
    try:
        result = call_with_deep_stack(run_program, program, cfg, store)
        outcome = {"value": print_value(result.value, store.boxes)}
    except MflError as exc:
        outcome = {"error": type(exc).__name__, "message": str(exc)}
    per_table = {str(loc): cell for loc, cell in cfg.stats.per_table.items()}
    return {**outcome, "stats": cfg.stats.as_dict(), "per_table": per_table,
            "boxes": len(store.boxes), "tables": len(store.tables)}


def _cases() -> "dict[str, Program]":
    cases = {f"memo:{i}": gen_program(f"memo:{i}") for i in range(GENERATED)}
    cases.update({f"stuck:{name}": Program((), t) for name, t in STUCK.items()})
    cases.update({f"named:{name}": parse(src if src.startswith("val") else "main " + src)
                  for name, src in NAMED.items()})
    return cases


CASES = _cases()


def _outcomes(program: Program) -> dict:
    return {mode: _run(program, kw) for mode, kw in MODES.items()}


def render() -> dict:
    return {name: _outcomes(program) for name, program in CASES.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_cases_are_the_recorded_ones(golden):
    assert list(golden) == list(CASES)


def test_generated_programs_match_golden(golden):
    differ = [name for name, program in CASES.items()
              if name.startswith("memo:") and _outcomes(program) != golden[name]]
    assert differ == []


@pytest.mark.parametrize("name", [n for n in CASES if not n.startswith("memo:")])
def test_ill_typed_term_matches_golden(golden, name):
    assert _outcomes(CASES[name]) == golden[name]


if __name__ == "__main__":
    sys.setrecursionlimit(200_000)
    lines = [f"{json.dumps(name)}: {json.dumps(result)}" for name, result in render().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
