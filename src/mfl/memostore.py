"""Branches, memo tables and the store.

A branch is the sequence of choice-point events recorded while a function
body runs: the index of each value whose bang was eliminated, and which
arm each memoized case took. Memo tables are nested hash tables keyed one
event per level, so a lookup or insert of a branch with m events costs
m (+1) hash probes. The store maps a location to the memo table of the
function value allocated there (which holds it too, and walks it), and
doubles as the box registry. A table holds the hit and miss record of
the config that last counted into it (`count_for`).

`lookup_source` and `insert_source` are the two operations as Python
source, for a branch whose length is known when the source is written:
`mfl.tier` emits them inline at each `return` of a generated body, where
the events of the path are static. The walk is straight-line code, one
statement per event, and it charges what `mt_lookup` and `mt_insert`
charge. Only the common insert, a branch whose every level is an inner
level or absent and whose last slot is free, is done inline; every
other case calls `mt_insert` itself, so its errors and messages are the
function's own. The layout of a table is known only to this module.
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


class Counts:
    """The hits and misses that one `EvalStats` counted at one location."""

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = self.misses = 0


class MemoTable:
    """A tree of hash tables: each level keys on one encoded event.

    `root` is the first level, or, once the empty branch is stored, that
    branch's value itself. Bindings are extension-only. Because every
    recorded branch ends at a completed function body, no stored branch
    may be a strict prefix of another; inserts check this. `loc` is the
    table's location; `counts` is the record that `stats` keeps for it.
    """

    __slots__ = ("root", "entries", "loc", "stats", "counts")

    def __init__(self, loc: "int | None" = None):
        self.root = _Node()
        self.entries = 0
        self.loc = loc
        self.stats = self.counts = None

    def count_for(self, stats) -> None:
        """Count this table's hits and misses into `stats` from now on."""
        self.stats, self.counts = stats, stats.counts.setdefault(self.loc, Counts())

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
                f"stored branch {tuple(branch[:depth])!r} is a strict prefix of {tuple(branch)!r}")
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


def lookup_source(codes: "list[str]") -> "tuple[str, str, str, str]":
    """`mt_lookup(T, [codes], S)` for a branch whose events are the
    Python expressions `codes`, with `T` the table in scope: the walk,
    one simple statement; the probes it made, an expression, which is
    `len(codes) + 1` when it found a value; the condition that it found
    one; and the local that holds it. The walk binds `W0`, `W1`, ...:
    `W<i+1>` is the slot of event i, or None once the walk has left the
    table."""
    k = len(codes)
    walk = ["W0=T.root"] + [f"W{i + 1}=W{i}.children.get({code}) if type(W{i}) is _Node else None"
                            for i, code in enumerate(codes)]
    # one probe per event walked, up to the first one missing, plus one
    probes = "".join(f"{i + 1} if W{i} is None else " for i in range(1, k)) + str(k + 1)
    last = f"W{k}"
    return ";".join(walk), probes, f"{last} is not None and type({last}) is not _Node", last


def insert_source(codes: "list[str]", value: str, probes: int = 0) -> "list[str]":
    """The statements of `mt_insert(T, [codes], value, S, on_dup='keep')`
    for a branch whose events are the Python expressions `codes`, which
    also charge `probes` more probes (an earlier lookup's). The walk
    makes each absent inner level and stores `value` in place when the
    last slot is free; a stored value on the way (a shorter branch), a
    stored inner level at the end (a longer one) or a stored value at
    the end (a duplicate) is left to `mt_insert`, in the last line, an
    `else:`. It binds `W0`, `W1`, ... as `lookup_source` does."""
    k = len(codes)
    fallback = f"else:S.probes+={probes};mt_insert(T,[{','.join(codes)}],{value},S,on_dup='keep')"
    if not k:
        return [f"if type(T.root) is _Node and not T.root.children:"
                f"T.root={value};T.entries+=1;S.probes+={1 + probes}", fallback]
    lines = ["W0=T.root"]
    for i, code in enumerate(codes[:-1]):
        lines += [f"if type(W{i}) is not _Node:W{i + 1}=None",
                  f"elif (W{i + 1}:=W{i}.children.get({code})) is None:"
                  f"W{i + 1}=W{i}.children[{code}]=_Node()"]
    last = f"W{k - 1}"
    return [*lines, f"if type({last}) is _Node and {codes[-1]} not in {last}.children:"
                    f"{last}.children[{codes[-1]}]={value};T.entries+=1;S.probes+={k + 1 + probes}",
            fallback]


@dataclass(slots=True)
class Store:
    """Maps locations to memo tables; also registers boxed values.

    A store is confined to one evaluation. Independent evaluations get
    independent stores and may run concurrently: the one table they
    share, `eval_memo`'s generated sites, is changed under a lock.

    `fits` (box tags whose contents fit a type, with the type) and
    `ill_typed` belong to `eval_memo`'s check of values given typed code.
    """

    tables: "dict[int, MemoTable]" = field(default_factory=dict)
    boxes: "dict[int, Term]" = field(default_factory=dict)
    next_loc: int = 0
    next_tag: int = 0
    fits: "dict[int, object]" = field(default_factory=dict)
    ill_typed: bool = False

    def alloc_table(self) -> int:
        loc = self.next_loc
        self.next_loc = loc + 1
        self.tables[loc] = MemoTable(loc)
        return loc

    def alloc_box(self, v: Term) -> BoxVal:
        tag = self.next_tag
        self.next_tag = tag + 1
        self.boxes[tag] = v
        return BoxVal(tag)
