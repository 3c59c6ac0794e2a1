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
    first activation) and at 1 (from its second)."""
    monkeypatch.setattr(eval_memo, "HOT_CALLS", request.param)
    return request.param
