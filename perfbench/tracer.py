"""Spans around the calls the benchmark makes into each layer of `mfl`.

A layer's public function is intercepted through the module attribute
its caller looks it up by (`mt_lookup` as `mfl.eval_memo.mt_lookup`,
`subst` as both `mfl.eval_memo.subst` and `mfl.eval_pure.subst`), so no
file of the program changes. Garbage collections are spans too, opened
and closed from `gc.callbacks`.

A span records its name, start, end, parent and the operation it
belongs to. Spans are kept in flat arrays while the run lasts and are
summarised when it ends: a span's self time is its duration minus the
durations of its children, so the self times of one operation's spans
add up to that operation's traced duration.

`call_with_deep_stack` runs its callee on a worker thread while the
calling thread waits in `join`, so the two threads never record at the
same time and one shared span stack serves both. Recording allocates no
garbage-collected object, so a collection cannot start halfway through
opening or closing a span.
"""

from __future__ import annotations

import contextlib
import gc
from array import array
from time import perf_counter

# (span name, module, attribute): every call site the benchmark can reach
INTERCEPTS = (
    ("parser.parse", "parser", "parse"),
    ("typecheck.check_program", "typecheck", "check_program"),
    ("typecheck.check_program", "eval_pure", "check_program"),
    ("eval_memo.run_program", "eval_memo", "run_program"),
    ("eval_memo.run_program", "eval_pure", "run_program"),
    ("eval_memo.eval_term", "eval_memo", "eval_term"),
    ("memostore.mt_lookup", "eval_memo", "mt_lookup"),
    ("memostore.mt_insert", "eval_memo", "mt_insert"),
    ("syntax.subst", "eval_memo", "subst"),
    ("syntax.subst", "eval_pure", "subst"),
    ("syntax.erase", "syntax", "erase"),
    ("syntax.erase", "eval_pure", "erase"),
    ("eval_pure.run_program_pure", "eval_pure", "run_program_pure"),
    ("eval_pure.diff_check", "eval_pure", "diff_check"),
    ("deepcall.call_with_deep_stack", "deepcall", "call_with_deep_stack"),
    ("pretty.print_value", "pretty", "print_value"),
)

DEEPCALL = "deepcall.call_with_deep_stack"
CALLEE = "bench.deep_callee"
OP = "bench.op"
GC = "gc.collect"


class NullTracer:
    """Stands in for a tracer when tracing is off."""

    def mark(self, name, fn, *args):
        return fn(*args)

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.names: "list[str]" = []
        self._ids: "dict[str, int]" = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op = -1  # the operation new spans belong to; -1 is set-up
        self._patched: list = []
        self._gc_id = self._nid(GC)
        self._gc_span = -1

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op_of.append(self.op)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        open_, close, stack, names = self._open, self._close, self._stack, self.name

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[top] == nid:
                # a recursive call through the patched module global
                # (`erase`, `print_value`) stays inside the outer span
                return fn(*args, **kwargs)
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def mark(self, name: str, fn, *args):
        """Call `fn(*args)` inside a span of the benchmark's own."""
        return self.wrap(name, fn)(*args)

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(i)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_span = self._open(self._gc_id)
        else:
            self._close(self._gc_span)

    def _traced_deepcall(self, real):
        # the deepcall span minus its callee span is the thread hand-off
        def deepcall(fn, *args, **kwargs):
            return real(self.wrap(CALLEE, fn), *args, **kwargs)

        return self.wrap(DEEPCALL, deepcall)

    def install(self, m) -> None:
        for name, mod, attr in INTERCEPTS:
            module = getattr(m, mod)
            real = getattr(module, attr)
            traced = (self._traced_deepcall(real) if name == DEEPCALL
                      else self.wrap(name, real))
            setattr(module, attr, traced)
            self._patched.append((module, attr, real))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, real in reversed(self._patched):
            setattr(module, attr, real)
        self._patched.clear()

    def self_times(self) -> "list[float]":
        """Each span's duration minus its children's durations."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def rows(self, ops: "set[int]"):
        """(op, span id, parent, name, start, end) of the spans of `ops`."""
        for i, op in enumerate(self.op_of):
            if op in ops:
                yield (op, i, self.parent[i], self.names[self.name[i]],
                       self.start[i], self.end[i])
