"""Helpers shared by the test modules: memo-store mutants for the
differential tests, and a pre-order walk over syntax trees.

A mutant breaks memoization from outside the program under test
(DeMillo, Lipton & Sayward 1978): `mutant(name)` swaps
`mfl.eval_memo.mt_insert`, the global every `return` miss inserts
through, for a broken insert, and restores it on exit.

- "skip_insert" stores nothing, so memoization loses its reuse and
  nothing else; `diff_check` must still agree.
- "wrong_branch" stores the result under a perturbed key, so a later
  lookup can return a value computed for another branch; `diff_check`
  must notice.
"""

from contextlib import contextmanager

import mfl.eval_memo as eval_memo
from mfl.errors import PrefixViolation
from mfl.memostore import INL_EVENT, KIND_BANG, mt_insert
from mfl.syntax import SUBTERMS


def _perturb(branch: "list[tuple[int, int]]") -> "tuple[tuple[int, int], ...]":
    """A deliberately wrong key near `branch`, for fault injection: the
    last event is toggled so the bad entry can shadow a real branch."""
    if not branch:
        return (INL_EVENT,)
    kind, payload = branch[-1]
    last = (KIND_BANG, payload + 1) if kind == KIND_BANG else (kind, 1 - payload)
    return tuple(branch[:-1]) + (last,)


def _skip_insert(table, branch, value, stats=None, on_dup="error") -> None:
    pass


def _wrong_branch(table, branch, value, stats=None, on_dup="error") -> None:
    try:
        mt_insert(table, _perturb(branch), value, stats, on_dup="keep")
    except PrefixViolation:
        pass  # the mutant only poisons values, not the tree shape


MUTANTS = {"skip_insert": _skip_insert, "wrong_branch": _wrong_branch}


@contextmanager
def mutant(name: str):
    """Run the body with `eval_memo.mt_insert` replaced by the mutant
    `name` (a key of `MUTANTS`)."""
    broken = MUTANTS[name]
    real = eval_memo.mt_insert
    eval_memo.mt_insert = broken
    try:
        yield
    finally:
        eval_memo.mt_insert = real


def preorder(node):
    """Every node of a term or expression, parents before children and
    children in `syntax.SUBTERMS` order (which is field order)."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        children = []
        for name, _, _ in SUBTERMS[type(node)]:
            child = getattr(node, name)
            children.extend(child if type(child) is tuple else (child,))
        stack.extend(reversed(children))


def program_nodes(program):
    """Every node of a program: its declarations in order, then main."""
    for _, term in program.decls:
        yield from preorder(term)
    yield from preorder(program.main)
