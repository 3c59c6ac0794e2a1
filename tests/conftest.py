import sys

import pytest

import mfl.eval_memo as eval_memo

# Object-program recursion nests Python frames; give the suite headroom
# so capped evaluator depth guards trip before the host limit does.
sys.setrecursionlimit(200_000)


@pytest.fixture(params=[pytest.param(eval_memo.HOT_CALLS, id=pytest.HIDDEN_PARAM),
                        pytest.param(0, id="hot0"), pytest.param(1, id="hot1")])
def hot_calls(request, monkeypatch):
    """Run the test with `eval_memo.HOT_CALLS` at its default (the test
    keeps its plain name), at 0 (every site runs generated code from its
    first activation) and at 1 (from its second). The test starts with
    no generated site kept from earlier tests, so their order does not
    decide which sites compile or switch."""
    monkeypatch.setattr(eval_memo, "HOT_CALLS", request.param)
    monkeypatch.setattr(eval_memo, "_hot_sites", {})
    return request.param
