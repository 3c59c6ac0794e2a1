import pytest

from support import overhead_ratio
from mfl.bench import quicksort_rows
from mfl.corpus import CORPUS_NAMES, load
from mfl.eval_memo import EvalConfig, run_program
from mfl.gen import gen_program
from mfl.parser import parse


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_probe_budget_on_corpus(name):
    # memo-table work is linear in recorded events and completed returns
    cfg = EvalConfig()
    run_program(load(name), cfg)
    s = cfg.stats
    assert s.probes <= 3 * (s.branch_events + s.memo_hits + s.memo_misses)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_hits_plus_misses_equals_returns(name):
    cfg = EvalConfig()
    run_program(load(name), cfg)
    assert cfg.stats.memo_hits + cfg.stats.memo_misses == cfg.stats.returns


def test_counters_on_generated_programs():
    for seed in range(60):
        cfg = EvalConfig()
        run_program(gen_program(seed), cfg)
        s = cfg.stats
        assert s.memo_hits + s.memo_misses == s.returns
        assert s.probes <= 3 * (s.branch_events + s.memo_hits + s.memo_misses)
        assert s.max_branch_len <= s.branch_events


def test_cold_mode_zero_hits_and_not_cheaper():
    for name in CORPUS_NAMES:
        program = load(name)
        normal = EvalConfig()
        run_program(program, normal)
        cold = EvalConfig(mode="cold")
        run_program(program, cold)
        assert cold.stats.memo_hits == 0
        assert normal.stats.steps <= cold.stats.steps


def test_overhead_of_trivial_program_is_one():
    ratios = overhead_ratio(parse("main 0"))
    assert ratios == [1.0]


def test_overhead_of_single_application_is_finite_above_one():
    program = parse("main (mfun f (a : !int) : int is "
                    "let !x = a in return x end end) (!9)")
    [ratio] = overhead_ratio(program)
    assert 1.0 < ratio < 3.0


def test_overhead_bounded_on_small_fib():
    ratios = overhead_ratio(load("fib"), [6, 8, 10])
    assert max(ratios) / min(ratios) <= 2.0


def test_quicksort_rerun_rows_shape():
    rows = quicksort_rows([16, 32], trials=2, seed=5)
    assert [r["n"] for r in rows] == [16, 32]
    for row in rows:
        assert set(row) == {"n", "fresh_steps", "rerun_steps",
                            "rerun_hits", "rerun_misses"}
        assert row["rerun_steps"] < row["fresh_steps"]
        assert row["rerun_misses"] >= 1  # the new head always misses


def test_quicksort_rerun_deterministic_under_seed():
    a = quicksort_rows([24], trials=2, seed=9)
    b = quicksort_rows([24], trials=2, seed=9)
    assert a == b
    c = quicksort_rows([24], trials=2, seed=10)
    assert a != c


def test_quicksort_rerun_rows_pinned():
    # the cost model is fixed: these rows must not move when the evaluator
    # is made faster, or criterion 4 could pass by counting less
    assert quicksort_rows([64, 128], trials=2, seed=0) == [
        {"n": 64, "fresh_steps": 69905.5, "rerun_steps": 18004.5,
         "rerun_hits": 6.0, "rerun_misses": 5.0},
        {"n": 128, "fresh_steps": 169578.5, "rerun_steps": 56545.5,
         "rerun_hits": 7.5, "rerun_misses": 6.5},
    ]
