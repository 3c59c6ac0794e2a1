import gc
import sys
import threading
from contextlib import contextmanager

import pytest

from mfl.deepcall import YOUNG_THRESHOLD, call_with_deep_stack
from mfl.eval_memo import EvalConfig, run_program
from mfl.parser import parse
from mfl.syntax import IntLit, term_eq


def test_results_and_exceptions_propagate():
    assert call_with_deep_stack(lambda a, b: a + b, 2, 3) == 5
    with pytest.raises(ZeroDivisionError):
        call_with_deep_stack(lambda: 1 // 0)


def test_recursion_beyond_the_default_limit():
    n = 20_000
    src = ("val f = mfun f (p : !int) : int is let !n = p in "
           "return (if n < 1 then 0 else 1 + f (!(n - 1))) end end "
           f"main f (!{n})")
    result = call_with_deep_stack(run_program, parse(src), EvalConfig())
    assert term_eq(result.value, IntLit(n))


def test_worker_thread_is_reused_across_calls():
    first = call_with_deep_stack(threading.get_ident)
    second = call_with_deep_stack(threading.get_ident)
    assert first == second != threading.get_ident()


def test_nested_call_runs_on_the_worker_and_returns():
    def outer():
        return threading.get_ident(), call_with_deep_stack(threading.get_ident)

    outer_ident, inner_ident = call_with_deep_stack(outer)
    assert outer_ident == inner_ident


def test_exception_leaves_the_worker_usable():
    def fail():
        raise RecursionError("deep")

    ident = call_with_deep_stack(threading.get_ident)
    with pytest.raises(RecursionError):
        call_with_deep_stack(fail)
    assert call_with_deep_stack(lambda a, b: a * b, 6, 7) == 42
    assert call_with_deep_stack(threading.get_ident) == ident


def test_concurrent_callers_each_get_their_own_result():
    results: dict = {}

    def caller(k):
        results[k] = [call_with_deep_stack(lambda i: (k, i), i) for i in range(50)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == {k: [(k, i) for i in range(50)] for k in range(6)}



@contextmanager
def host_threshold(*threshold):
    """Set the collector thresholds a host would have set, and put the
    test process's own back on exit."""
    saved = gc.get_threshold()
    gc.set_threshold(*threshold)
    try:
        yield
    finally:
        gc.set_threshold(*saved)


def test_a_job_runs_with_the_young_threshold_raised():
    with host_threshold(700, 11, 12):
        assert call_with_deep_stack(gc.get_threshold) == (YOUNG_THRESHOLD, 11, 12)
        assert gc.get_threshold() == (700, 11, 12)


def test_the_callers_thresholds_are_back_after_a_job_raises():
    def fail():
        assert gc.get_threshold()[0] == YOUNG_THRESHOLD
        raise ValueError("job failed")

    with host_threshold(701, 9, 8):
        with pytest.raises(ValueError):
            call_with_deep_stack(fail)
        assert gc.get_threshold() == (701, 9, 8)


def test_collection_turned_off_by_the_host_stays_off():
    with host_threshold(0, 10, 10):
        assert call_with_deep_stack(gc.get_threshold) == (0, 10, 10)
        assert gc.get_threshold() == (0, 10, 10)


def test_a_larger_host_threshold_is_left_alone():
    with host_threshold(YOUNG_THRESHOLD * 3, 10, 10):
        assert call_with_deep_stack(gc.get_threshold) == (YOUNG_THRESHOLD * 3, 10, 10)
        assert gc.get_threshold() == (YOUNG_THRESHOLD * 3, 10, 10)


def test_a_nested_call_keeps_the_outer_jobs_policy():
    def outer():
        inner = call_with_deep_stack(gc.get_threshold)
        return inner, gc.get_threshold()

    with host_threshold(700, 10, 10):
        inner, after_inner = call_with_deep_stack(outer)
        assert inner == after_inner == (YOUNG_THRESHOLD, 10, 10)
        assert gc.get_threshold() == (700, 10, 10)



def test_a_job_collects_its_own_young_generation():
    # the collection the restored threshold calls for runs on the
    # worker, not at the caller's next allocation; and never when the
    # host has turned collection off
    def survivors():
        return [[] for _ in range(20_000)]

    def on_gc(phase, info):
        if phase == "start":
            seen.append(threading.get_ident())

    worker = call_with_deep_stack(threading.get_ident)
    with host_threshold(700, 10, 10):
        gc.callbacks.append(on_gc)
        try:
            seen: list = []
            kept = call_with_deep_stack(survivors)
            collected_on = set(seen)
            gc.disable()
            try:
                seen = []
                kept = call_with_deep_stack(survivors)
                assert seen == []
            finally:
                gc.enable()
        finally:
            gc.callbacks.remove(on_gc)
    assert collected_on == {worker}
    assert len(kept) == 20_000
