"""Byte-for-byte comparison of CLI output against recorded golden files.

The paper's cost model (steps, probes, hits, misses, branch events, box
allocations, table contents) must not change when the evaluator is made
faster. The files under `tests/golden/` were recorded from the
tree-walking evaluator; every speed change must reproduce them exactly.

Regenerate (only when the cost model is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from importlib.resources import as_file, files
from pathlib import Path

import pytest

import mfl.cli as cli
from mfl.corpus import CORPUS_NAMES

GOLDEN = Path(__file__).parent / "golden"

RUN_MODES = {
    "normal": [],
    "cold": ["--cold"],
    "checked": ["--checked"],
    "pure": ["--semantics", "pure"],
}
BENCH_ARGS = ["bench", "quicksort", "--sizes", "64,128", "--trials", "3", "--seed", "0"]


def _cli_stdout(argv: "list[str]") -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _cases() -> "list[str]":
    names = [f"{p}.{mode}.{kind}" for p in CORPUS_NAMES for mode in RUN_MODES
             for kind in ("stdout", "stats.json")]
    names += [f"{p}.trace.json" for p in CORPUS_NAMES]
    return names + ["bench-quicksort.json"]


def render(name: str) -> str:
    """The current program's output for the golden file `name`."""
    if name == "bench-quicksort.json":
        return _cli_stdout(BENCH_ARGS)
    program, mode, kind = (name.split(".", 2) + [""])[:3]
    with as_file(files("mfl") / "corpus" / f"{program}.mfl") as path:
        if mode == "trace":
            return _cli_stdout(["trace", str(path), "--seed", "0"])
        with tempfile.TemporaryDirectory() as tmp:
            stats = Path(tmp) / "stats.json"
            stdout = _cli_stdout(["run", str(path), "--seed", "0",
                                  "--stats", str(stats), *RUN_MODES[mode]])
            return stdout if kind == "stdout" else stats.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", _cases())
def test_output_matches_golden(name):
    assert render(name) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.setrecursionlimit(200_000)
    GOLDEN.mkdir(exist_ok=True)
    for case in _cases():
        (GOLDEN / case).write_text(render(case), encoding="utf-8")
        print(f"wrote {GOLDEN / case}")
