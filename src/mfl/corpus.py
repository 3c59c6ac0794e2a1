"""The shipped example programs."""

from __future__ import annotations

from importlib.resources import files

from .parser import parse
from .syntax import BoxVal, Inl, Inr, IntLit, Pair, Program, Roll, Term

CORPUS_NAMES = ("fib", "partial", "knapsack", "hcons", "quicksort")


def corpus_source(name: str) -> str:
    return (files("mfl") / "corpus" / f"{name}.mfl").read_text(encoding="utf-8")


def load(name: str) -> Program:
    return parse(corpus_source(name))


def decode_int_list(v: Term, boxes: "dict[int, Term]") -> "list[int]":
    """Read a boxed integer list value back into a Python list."""
    out: "list[int]" = []
    while True:
        if type(v) is not BoxVal:
            raise ValueError(f"not a boxed list: {v!r}")
        cell = boxes[v.tag]
        if type(cell) is not Roll:
            raise ValueError(f"not a rolled list cell: {cell!r}")
        s = cell.body
        if type(s) is Inl:
            return out
        if type(s) is not Inr or type(s.body) is not Pair or type(s.body.left) is not IntLit:
            raise ValueError(f"not a list cell: {s!r}")
        out.append(s.body.left.value)
        v = s.body.right
