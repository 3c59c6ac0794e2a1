"""Run a callable on a thread with a large stack.

The evaluators recurse with the object program (one Python frame chain
per nested application), so list-shaped inputs of a few thousand
elements exceed both the default recursion limit and the main thread's
C stack. Benchmarks and the CLI funnel evaluation through here.

One daemon worker thread with a 512 MB stack is started on first use
and serves every later call, so a call costs a hand-off between two
threads rather than a thread start. Calls from several threads queue
up; a call made on the worker itself runs directly.
"""

from __future__ import annotations

import sys
import threading

STACK_BYTES = 512 * 1024 * 1024
RECURSION_LIMIT = 2_000_000

_start_lock = threading.Lock()
_jobs_ready = threading.Condition(threading.Lock())
_jobs: list = []
_worker: "threading.Thread | None" = None


class _Job:
    __slots__ = ("fn", "args", "kwargs", "result", "error", "done")

    def __init__(self, fn, args, kwargs):
        self.fn, self.args, self.kwargs = fn, args, kwargs
        self.result = self.error = None
        self.done = threading.Lock()
        self.done.acquire()  # released by the worker when the job ends


def _serve() -> None:
    while True:
        with _jobs_ready:
            while not _jobs:
                _jobs_ready.wait()
            job = _jobs.pop(0)
        if sys.getrecursionlimit() < RECURSION_LIMIT:
            sys.setrecursionlimit(RECURSION_LIMIT)
        try:
            job.result = job.fn(*job.args, **job.kwargs)
        except BaseException as exc:  # re-raised on the calling thread
            job.error = exc
        job.done.release()
        del job  # an idle worker keeps no finished job, or its result, alive


def _ensure_worker() -> None:
    global _worker
    with _start_lock:
        if _worker is None or not _worker.is_alive():
            old_size = threading.stack_size(STACK_BYTES)
            try:
                _worker = threading.Thread(target=_serve, name="mfl-eval", daemon=True)
                _worker.start()
            finally:
                threading.stack_size(old_size)


def call_with_deep_stack(fn, *args, **kwargs):
    worker = _worker
    if worker is not None and threading.current_thread() is worker:
        return fn(*args, **kwargs)
    if worker is None or not worker.is_alive():
        _ensure_worker()
    job = _Job(fn, args, kwargs)
    with _jobs_ready:
        _jobs.append(job)
        _jobs_ready.notify()
    job.done.acquire()
    if job.error is not None:
        raise job.error
    return job.result
