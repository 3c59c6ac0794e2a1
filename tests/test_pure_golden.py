"""The pure semantics against recorded results.

`tests/golden/pure.json` pins, for 300 generated programs and for the
stuck terms in `STUCK`, what a pure run yields: the printed value, or
the type and message of the error it stops with; its counters
(`EvalStats.as_dict()`), also at the point of an error; and how many
boxes it allocated. It was recorded from the substituting tree walker
that implemented the pure semantics before it became a policy of the
compiled evaluator, so that policy must reproduce the walker exactly.

Regenerate (only when the pure semantics is meant to change) with

    PYTHONPATH=src python tests/test_pure_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from mfl.deepcall import call_with_deep_stack
from mfl.errors import MflRuntimeError
from mfl.eval_memo import EvalConfig
from mfl.eval_pure import run_program_pure
from mfl.gen import gen_program
from mfl.memostore import Store
from mfl.parser import parse_term
from mfl.pretty import print_value
from mfl.syntax import (INT, IntLit, MFunVal, Pair, Program, Res, Return, Roll,
                        TRec, TVar)

GOLDEN = Path(__file__).parent / "golden" / "pure.json"

# every case also runs with each site switching to generated code early
pytestmark = pytest.mark.usefixtures("hot_calls")
GENERATED = 300

_FUN = "mfun f (a : {ty}) : int is {body} end"

# ill-typed terms, most of which get stuck (or fault) under the pure rules
STUCK = {
    "location-value": MFunVal(0, "f", "a", IntLit, IntLit, Return(IntLit(1))),
    "location-value-in-pair": Pair(IntLit(7), MFunVal(0, "f", "a", INT, INT,
                                                      Return(IntLit(1)))),
    "location-value-before-pair": Pair(MFunVal(0, "f", "a", INT, INT, Return(IntLit(1))),
                                       Pair(IntLit(7), IntLit(8))),
    "location-value-in-roll": Roll(Pair(IntLit(7), MFunVal(0, "f", "a", INT, INT,
                                                           Return(IntLit(1)))),
                                   TRec("t", TVar("t"))),
    "free-variable": parse_term("(1, x)"),
    "apply-non-function": parse_term("(1, box 2) (!3)"),
    "operator-non-integer": parse_term("1 + (2, 3)"),
    "int2sum-non-integer": parse_term("int2sum (1, 2)"),
    "div-by-zero": parse_term("box 1 + 4 div (2 - 2)"),
    "unroll-non-rolled": parse_term("unroll 3"),
    "unbox-non-box": parse_term("unbox (box 1, 2)"),
    "keyof-non-box": parse_term("keyof 3"),
    "case-non-sum": parse_term("case (1, 2) of inl a => a | inr b => b end"),
    "split-non-pair": parse_term("split box 3 as (a, b) in a end"),
    "let-bang-non-bang": parse_term(
        "(" + _FUN.format(ty="int", body="let !x = a in return x end") + ") 3"),
    "let-pair-non-pair": parse_term(
        "(" + _FUN.format(ty="int", body="let * (x, y) = a in return 1 end") + ") 3"),
    "mcase-non-sum": parse_term(
        "(" + _FUN.format(ty="int", body="mcase a of inl l => return 1 "
                                         "| inr r => return 2 end") + ") (!4)"),
    "free-resource": Pair(IntLit(1), Res("r")),
    "unbound-name-in-return": parse_term(
        "(" + _FUN.format(ty="int * int",
                          body="let * (x, y) = a in return x + z end") + ") (5, 6)"),
    # not stuck: the pure rules do not forbid a bound resource in a return
    "bound-resource-in-return": parse_term(
        "(" + _FUN.format(ty="int * int",
                          body="let * (x, y) = a in return x + y end") + ") (5, 6)"),
}


def _run(program: Program) -> dict:
    """Outcome, counters and box count of one pure run of `program`."""
    state, cfg = Store(), EvalConfig(mode="pure")
    try:
        result = call_with_deep_stack(run_program_pure, program, state, cfg)
        outcome = {"value": print_value(result.value, result.store.boxes)}
    except MflRuntimeError as exc:
        outcome = {"error": type(exc).__name__, "message": str(exc)}
    return {**outcome, "stats": cfg.stats.as_dict(), "boxes": len(state.boxes)}


def _cases() -> "dict[str, Program]":
    cases = {f"pure:{i}": gen_program(f"pure:{i}") for i in range(GENERATED)}
    cases.update({f"stuck:{name}": Program((), t) for name, t in STUCK.items()})
    return cases


CASES = _cases()


def render() -> dict:
    return {name: _run(program) for name, program in CASES.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_cases_are_the_recorded_ones(golden):
    assert list(golden) == list(CASES)


def test_generated_programs_match_golden(golden):
    differ = [name for name, program in CASES.items()
              if name.startswith("pure:") and _run(program) != golden[name]]
    assert differ == []


@pytest.mark.parametrize("name", list(STUCK))
def test_stuck_term_matches_golden(golden, name):
    assert _run(CASES[f"stuck:{name}"]) == golden[f"stuck:{name}"]


if __name__ == "__main__":
    sys.setrecursionlimit(200_000)
    lines = [f"{json.dumps(name)}: {json.dumps(result)}" for name, result in render().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
