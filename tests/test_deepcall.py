import sys
import threading

import pytest

from mfl.deepcall import call_with_deep_stack
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
