"""Run a callable on a thread with a large stack.

The evaluators recurse with the object program (one Python frame chain
per nested application), so list-shaped inputs of a few thousand
elements exceed both the default recursion limit and the main thread's
C stack. Benchmarks and the CLI funnel evaluation through here.

One daemon worker thread with a 512 MB stack is started on first use
and serves every later call, so a call costs a hand-off between two
threads rather than a thread start. Calls from several threads queue up
in a `queue.SimpleQueue` and run in the order they came; each caller
waits on its own job's lock. A call made on the worker itself runs
directly.

While a job runs, the young-generation threshold of the cyclic garbage
collector is raised to YOUNG_THRESHOLD. Evaluation keeps every memo
result and table alive and builds only acyclic values, so frequent
young collections scan the same live objects again and find nothing to
free; a larger young generation (Ungar, "Generation Scavenging", 1984)
collects as much with far fewer scans. Reference counting still frees
every acyclic object at once, and any cycle is still collected, only
later. The thresholds are process-wide, so the policy holds for every
thread while a job runs; the worker restores the caller's exact
thresholds when the job ends, before the caller resumes. If the
restored threshold calls for a young collection, the worker runs it
then, so the job pays for its own garbage rather than the caller's
next allocation. A young threshold of 0 means the host turned
automatic collection off, and one above YOUNG_THRESHOLD is already
large: both are left alone.
"""

from __future__ import annotations

import gc
import queue
import sys
import threading

STACK_BYTES = 512 * 1024 * 1024
RECURSION_LIMIT = 2_000_000
YOUNG_THRESHOLD = 100_000

_start_lock = threading.Lock()
_jobs: "queue.SimpleQueue[_Job]" = queue.SimpleQueue()
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
        job = _jobs.get()
        if sys.getrecursionlimit() < RECURSION_LIMIT:
            sys.setrecursionlimit(RECURSION_LIMIT)
        young, mid, old = gc.get_threshold()
        raised = 0 < young < YOUNG_THRESHOLD
        if raised:
            gc.set_threshold(YOUNG_THRESHOLD, mid, old)
        try:
            job.result = job.fn(*job.args, **job.kwargs)
        except BaseException as exc:  # re-raised on the calling thread
            job.error = exc
        finally:
            if raised:
                gc.set_threshold(young, mid, old)
                # else the caller's next allocation would run it
                if gc.isenabled() and gc.get_count()[0] > young:
                    gc.collect(0)
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
    _jobs.put(job)
    job.done.acquire()
    if job.error is not None:
        raise job.error
    return job.result
