"""The pure reference semantics, and the differential oracle.

The pure semantics is the memoizing one with the store deleted: a
function evaluates to itself (no location), a `return` always evaluates
its body, and no branch is recorded. Boxes still allocate tags, since
`keyof` makes them observable. It is a policy of the one compiled
evaluator, `EvalConfig(mode="pure")` in `eval_memo`. `diff_check`
compiles a program once, runs it under the memo policy and then the
pure one, and compares the outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MflRuntimeError
from .eval_memo import EvalConfig, compile_program, eval_term, run_program
from .memostore import Store
from .stats import EvalStats
from .syntax import BoxVal, Program, Term, erase, term_eq
# Not called here: perfbench/tracer.py wraps these names in this module.
from .syntax import subst  # noqa: F401
from .typecheck import check_program  # noqa: F401


def eval_pure_term(t: Term, state: "Store | None" = None) -> Term:
    """Evaluate a closed, location-free term under the pure semantics,
    allocating boxes in `state`. Returns the pure value."""
    return eval_term(Store() if state is None else state, t, EvalConfig(mode="pure"))[0]


@dataclass(slots=True)
class PureRunResult:
    value: Term
    state: Store  # its `boxes` is the run's box registry
    decl_values: "dict[str, Term]"
    stats: EvalStats


def run_program_pure(program: Program, state: "Store | None" = None,
                     cfg: "EvalConfig | None" = None, compiled=None) -> PureRunResult:
    """Run `program` under the pure semantics. `cfg`, if given, must be
    in pure mode; `compiled` is `compile_program(program)`, if known."""
    r = run_program(program, cfg or EvalConfig(mode="pure"), state, compiled)
    return PureRunResult(r.value, r.store, r.decl_values, r.stats)


def values_agree(memo_value: Term, memo_boxes: "dict[int, Term]",
                 pure_value: Term, pure_boxes: "dict[int, Term]",
                 tag_map: "dict[int, int] | None" = None) -> bool:
    """Structural agreement of an (already erased) memoized value with a
    pure value. Boxes agree when their contents agree and the pure tag
    consistently maps to the same memoized tag. The correspondence runs
    pure-side to memoized-side: memoization can merge two equal pure
    boxes into one shared box, never the reverse."""
    if tag_map is None:
        tag_map = {}
    compared: "set[tuple[int, int]]" = set()

    def same_box(m: BoxVal, p: BoxVal) -> bool:
        if tag_map.setdefault(p.tag, m.tag) != m.tag:
            return False
        if (m.tag, p.tag) in compared:
            return True
        compared.add((m.tag, p.tag))
        return term_eq(erase(memo_boxes[m.tag]), pure_boxes[p.tag], same_box)

    return term_eq(memo_value, pure_value, same_box)


@dataclass(slots=True)
class Verdict:
    ok: bool
    detail: str
    memo_value: "Term | None" = None
    pure_value: "Term | None" = None
    memo_stats: "EvalStats | None" = None
    pure_stats: "EvalStats | None" = None


def _attempt(run, *args, **kwargs):
    try:
        return run(*args, **kwargs), None
    except MflRuntimeError as exc:
        return None, exc


def diff_check(program: Program, *, checked: bool = True,
               fault: "str | None" = None,
               depth_limit: int = 10 ** 6) -> Verdict:
    """Run the memoizing and the pure semantics on a program that has
    already passed `check_program`, and compare outcomes. A mismatch is a
    verdict, not an error; both runs faulting alike (say, div by zero)
    agree too."""
    compiled = compile_program(program)
    cfg = EvalConfig(checked=checked, fault=fault, depth_limit=depth_limit)
    pure_cfg = EvalConfig(mode="pure", depth_limit=depth_limit)
    memo, memo_err = _attempt(run_program, program, cfg, compiled=compiled)
    pure, pure_err = _attempt(run_program_pure, program, cfg=pure_cfg, compiled=compiled)
    if memo_err is not None or pure_err is not None:
        if type(memo_err) is type(pure_err):
            return Verdict(True, f"both semantics fault alike: {memo_err}")
        return Verdict(False,
                       f"memoized: {memo_err or 'value'}, pure: {pure_err or 'value'}",
                       memo_stats=cfg.stats, pure_stats=pure_cfg.stats)
    erased = erase(memo.value)
    ok = values_agree(erased, memo.store.boxes, pure.value, pure.state.boxes)
    return Verdict(ok, "outcomes agree" if ok else "memoized and pure outcomes differ",
                   erased, pure.value, cfg.stats, pure_cfg.stats)
