import pytest

from support import overhead_ratio
from mfl.bench import quicksort_rows
from mfl.corpus import CORPUS_NAMES, load
from mfl.eval_memo import EvalConfig, eval_term, run_program
from mfl.gen import gen_program
from mfl.memostore import Store
from mfl.parser import parse
from mfl.stats import EvalStats
from mfl.syntax import Apply, Bang, IntLit, Pair, Program, UnitLit
from mfl.typecheck import check_program


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


def test_given_counts_read_back():
    stats = EvalStats(memo_hits=2, memo_misses=3, returns=5)
    assert (stats.memo_hits, stats.memo_misses, stats.returns) == (2, 3, 5)
    assert stats.per_table == {}
    assert EvalStats(memo_hits=2, memo_misses=3, returns=6).returns == 6


def _counts(stats) -> tuple:
    return stats.as_dict(), stats.per_table


def _sum(runs: list) -> tuple:
    """The counters of `runs`' stats added up, `per_table` by location."""
    total, per_table = EvalStats().as_dict(), {}
    for stats in runs:
        for name, n in stats.as_dict().items():
            total[name] = max(total[name], n) if name == "max_branch_len" else total[name] + n
        for loc, (hits, misses) in stats.per_table.items():
            cell = per_table.setdefault(loc, [0, 0])
            cell[0] += hits
            cell[1] += misses
    return total, per_table


def _sorts(plan: list) -> None:
    """Sort a growing list with the corpus quicksort: per step of `plan`,
    a (store index, config) pair, make the declarations (on a store's
    first step) or prepend a key and sort again, on that store under that
    config."""
    program = load("quicksort")
    check_program(program)
    made: dict = {}  # store index -> the store, its declared values, its list
    for key, (at, cfg) in enumerate(plan):
        if at not in made:
            store = Store()
            decls = run_program(Program(program.decls, UnitLit()), cfg, store).decl_values
            made[at] = store, decls, decls["empty"]
            continue
        store, decls, lst = made[at]
        lst = eval_term(store, Apply(decls["hcons"], Pair(Bang(IntLit(7 * key % 11)), Bang(lst))),
                        cfg)[0]
        eval_term(store, Apply(decls["mqs"], Bang(lst)), cfg)
        made[at] = store, decls, lst


def _check_each_config_counts_its_own_runs(plan: list) -> None:
    # the same steps, each under a config of its own, give each run's counts
    alone = [EvalConfig() for _ in plan]
    _sorts([(at, cfg) for (at, _), cfg in zip(plan, alone)])
    _sorts(plan)
    for cfg in {id(cfg): cfg for _, cfg in plan}.values():
        own = [one.stats for (_, shared), one in zip(plan, alone) if shared is cfg]
        assert _counts(cfg.stats) == _sum(own)
        stats = cfg.stats
        assert stats.memo_hits + stats.memo_misses == stats.returns > 0


def test_one_store_under_several_configs_counts_each_its_own(hot_calls):
    a, b = EvalConfig(), EvalConfig()
    _check_each_config_counts_its_own_runs([(0, a), (0, a), (0, b), (0, b), (0, a), (0, a)])


def test_one_config_over_several_stores_counts_its_runs(hot_calls):
    a, b = EvalConfig(), EvalConfig()
    _check_each_config_counts_its_own_runs([(0, a), (1, a), (0, a), (1, a), (1, b), (0, a)])
