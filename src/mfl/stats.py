"""Evaluation counters.

`steps` counts big-step rule applications (every premise evaluation in
its own right), which both evaluators count identically; the memoizing
evaluator additionally pays `probes` hash operations for memo-table
lookups and inserts. Hits and misses are counted per table only, in one
`memostore.Counts` record per location and `EvalStats` (`counts`), which
a table holds while it counts for those stats (`MemoTable.count_for`):
each config counts its own runs, whichever stores they run on. The hit
and miss totals, `per_table` and `returns` (the hits plus
`computed_returns`, the returns whose body ran) are sums worked out when
read, so tests can assert hits + misses == returns of memoized runs.
"""

from __future__ import annotations

# the counters of `as_dict`, in its order
_COUNTERS = ("steps", "memo_hits", "memo_misses", "probes", "branch_events",
             "boxes_allocated", "max_branch_len", "returns")


class EvalStats:
    __slots__ = ("steps", "probes", "branch_events", "boxes_allocated", "max_branch_len",
                 "computed_returns", "counts", "events", "_given")

    def __init__(self, steps=0, memo_hits=0, memo_misses=0, probes=0, branch_events=0,
                 boxes_allocated=0, max_branch_len=0, returns=0, events=None):
        self.steps, self.probes, self.branch_events = steps, probes, branch_events
        self.boxes_allocated, self.max_branch_len = boxes_allocated, max_branch_len
        self.computed_returns = returns - memo_hits
        self._given = memo_hits, memo_misses  # given to the constructor, at no table
        self.counts: "dict[int, memostore.Counts]" = {}
        # optional trace of ("hit"|"miss"|"event", location, detail) tuples
        self.events: "list[tuple] | None" = events

    memo_hits = property(lambda self: self._given[0] + sum(c.hits for c in self.counts.values()))
    memo_misses = property(lambda self: self._given[1] + sum(c.misses for c in self.counts.values()))
    returns = property(lambda self: self.computed_returns + self.memo_hits)
    # per location [hits, misses], locations that had no return left out;
    # lets benchmarks read one function's table
    per_table = property(lambda self: {loc: [c.hits, c.misses] for loc, c in self.counts.items()})

    def total_work(self) -> int:
        """Rule applications plus hash probes: the memoizing semantics'
        cost, comparable against a pure run's `steps`."""
        return self.steps + self.probes

    def as_dict(self) -> "dict[str, int]":
        return {name: getattr(self, name) for name in _COUNTERS}
