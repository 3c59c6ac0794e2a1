"""Branches, memo tables and the store.

A branch is the sequence of choice-point events recorded while a function
body runs: the index of each value whose bang was eliminated, and which
arm each memoized case took. Memo tables are nested hash tables keyed one
event per level, so a lookup or insert of a branch with m events costs
m (+1) hash probes. The store maps a location to the memo table of the
function value allocated there, and doubles as the box registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import DuplicateBranch, NonIndexableValue, PrefixViolation
from .syntax import BoxVal, IntLit, Term, UnitLit

# An encoded event is a (kind, payload) pair. The kind tag keeps bang
# events and case-arm events in separate key spaces even when the raw
# indices collide.
KIND_BANG = 0
KIND_SUM = 1
INL_EVENT = (KIND_SUM, 0)
INR_EVENT = (KIND_SUM, 1)


def index_of(v: Term) -> int:
    """The injective index of a value of indexable type: an int is its
    own index, unit maps to the constant 0, a box maps to its tag."""
    t = type(v)
    if t is IntLit:
        return v.value
    if t is UnitLit:
        return 0
    if t is BoxVal:
        return v.tag
    raise NonIndexableValue(f"no index function for value {v!r}")


class _Node:
    """An inner level of a memo table: `children` maps the next event to
    the next level, or, where a stored branch ends, to its value in place.
    Values are terms, never nodes, so `type(x) is _Node` tells the two
    apart, and a table needs no node per entry."""

    __slots__ = ("children",)

    def __init__(self):
        self.children: "dict[tuple[int, int], object]" = {}


_MISSING = _Node()  # an absent slot; it is never linked into a table


class MemoTable:
    """A tree of hash tables: each level keys on one encoded event.

    `root` is the first level, or, once the empty branch is stored, that
    branch's value itself. Bindings are extension-only. Because every
    recorded branch ends at a completed function body, no stored branch
    may be a strict prefix of another; inserts check this.
    """

    __slots__ = ("root", "entries")

    def __init__(self):
        self.root = _Node()
        self.entries = 0

    def __len__(self) -> int:
        return self.entries

    def items(self) -> "Iterator[tuple[tuple, object]]":
        """All (branch, value) bindings, in key order per level."""
        stack = [((), self.root)]
        while stack:
            prefix, slot = stack.pop()
            if type(slot) is not _Node:
                yield prefix, slot
                continue
            children = slot.children
            for code in sorted(children, reverse=True):
                stack.append((prefix + (code,), children[code]))


def mt_lookup(table: MemoTable, branch, stats=None) -> "tuple[bool, object]":
    """Probe the nested tables along `branch`. Returns (found, value).
    Costs one probe per event walked plus one for the final entry check.
    """
    node = table.root
    probes = 1  # the final entry check
    for code in branch:
        probes += 1
        if type(node) is not _Node:  # walked past a stored shorter branch
            node = _MISSING
            break
        node = node.children.get(code, _MISSING)
        if node is _MISSING:
            break
    if stats is not None:
        stats.probes += probes
    if type(node) is _Node:  # absent, or a strict prefix of stored branches
        return False, None
    return True, node


def mt_insert(table: MemoTable, branch, value, stats=None, on_dup: str = "error") -> None:
    """Bind `branch` to `value`, extending the table.

    A duplicate branch signals that a completed body re-inserted its own
    key, which the evaluation discipline rules out: raise, unless the
    caller runs in cold mode (`on_dup="keep"`), where re-insertion is the
    expected cost model and the first binding is kept.
    """
    node = table.root
    children = key = None  # the dict and key that hold `node`, below the root
    for depth, code in enumerate(branch):
        if node is _MISSING:
            node = children[key] = _Node()
        elif type(node) is not _Node:
            raise PrefixViolation(
                f"stored branch {branch[:depth]!r} is a strict prefix of {tuple(branch)!r}")
        children, key = node.children, code
        node = children.get(code, _MISSING)
    if stats is not None:
        stats.probes += len(branch) + 1
    if type(node) is not _Node:
        if on_dup == "keep":
            return
        raise DuplicateBranch(f"branch {tuple(branch)!r} already bound")
    if node.children:
        raise PrefixViolation(
            f"branch {tuple(branch)!r} is a strict prefix of a stored branch")
    if children is None:
        table.root = value
    else:
        children[key] = value
    table.entries += 1


@dataclass(slots=True)
class Store:
    """Maps locations to memo tables; also registers boxed values.

    A store is confined to one evaluation. Independent evaluations get
    independent stores and may run concurrently.
    """

    tables: "dict[int, MemoTable]" = field(default_factory=dict)
    boxes: "dict[int, Term]" = field(default_factory=dict)
    next_loc: int = 0
    next_tag: int = 0

    def alloc_table(self) -> int:
        loc = self.next_loc
        self.next_loc = loc + 1
        self.tables[loc] = MemoTable()
        return loc

    def alloc_box(self, v: Term) -> BoxVal:
        tag = self.next_tag
        self.next_tag = tag + 1
        self.boxes[tag] = v
        return BoxVal(tag)
