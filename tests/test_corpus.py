import random

from oracles import knapsack_best
from mfl.corpus import CORPUS_NAMES, corpus_source, decode_int_list, load
from mfl.eval_memo import EvalConfig, eval_term, run_program
from mfl.parser import parse, parse_term
from mfl.syntax import Apply, Bang, BoxVal, IntLit, Pair, Program, Term, term_eq

ITEMS = [(5, 6), (4, 5), (3, 4)]


def _expect_int(n: int):
    def check(value: Term, boxes: "dict[int, Term]") -> bool:
        return type(value) is IntLit and value.value == n

    return check


def _check_hcons(value: Term, boxes: "dict[int, Term]") -> bool:
    # both halves decode to [1, 2] and, having been hash-consed, share a tag
    if type(value) is not Pair:
        return False
    left, right = value.left, value.right
    return (type(left) is BoxVal and type(right) is BoxVal
            and left.tag == right.tag
            and decode_int_list(left, boxes) == [1, 2])


def _check_quicksort(value: Term, boxes: "dict[int, Term]") -> bool:
    return decode_int_list(value, boxes) == [1, 2, 3]


_ORACLES = {
    "fib": _expect_int(55),
    "partial": _expect_int(76),
    "knapsack": _expect_int(11),
    "hcons": _check_hcons,
    "quicksort": _check_quicksort,
}


def test_corpus_oracles():
    # each oracle is a predicate on (main value, box registry)
    assert set(_ORACLES) == set(CORPUS_NAMES)
    for name in CORPUS_NAMES:
        result = run_program(load(name), EvalConfig(checked=True))
        assert _ORACLES[name](result.value, result.store.boxes), name


def test_corpus_names_complete():
    assert set(CORPUS_NAMES) == {"fib", "partial", "knapsack", "hcons", "quicksort"}


def with_main(name: str, main_src: str, variables) -> Program:
    program = load(name)
    return Program(program.decls, parse_term(main_src, variables=variables))


def test_knapsack_matches_bruteforce_over_capacities():
    for cap in range(0, 13):
        program = with_main("knapsack", f"ks ((!{cap}, !items))", ("ks", "items"))
        result = run_program(program, EvalConfig(checked=True))
        assert term_eq(result.value, IntLit(knapsack_best(cap, ITEMS))), cap


def test_knapsack_other_item_set():
    extra = """
val itemsB2 = box (roll [pl] (inr [unit + ((int * int) * plist)] (((2, 3), pnil))))
val itemsB1 = box (roll [pl] (inr [unit + ((int * int) * plist)] (((6, 11), itemsB2))))
val itemsB  = box (roll [pl] (inr [unit + ((int * int) * plist)] (((4, 7), itemsB1))))
main ks ((!8, !itemsB))
"""
    source = corpus_source("knapsack").split("main ")[0] + extra
    result = run_program(parse(source), EvalConfig(checked=True))
    assert term_eq(result.value,
                   IntLit(knapsack_best(8, [(4, 7), (6, 11), (2, 3)])))


def test_knapsack_scoping_allocates_fresh_inner_table_per_query():
    # two distinct top-level queries: the wrapper misses twice, and each
    # miss evaluates the inner function term afresh, allocating a table
    program = with_main("knapsack", "ks ((!10, !items)) + ks ((!7, !items))",
                        ("ks", "items"))
    result = run_program(program, EvalConfig(checked=True))
    decl_funs = 5  # pisnil pweight pvalue ptail ks
    assert len(result.store.tables) == decl_funs + 2


def test_knapsack_scoping_repeat_query_reuses_wrapper_entry():
    program = with_main("knapsack", "ks ((!10, !items)) + ks ((!10, !items))",
                        ("ks", "items"))
    cfg = EvalConfig(checked=True)
    result = run_program(program, cfg)
    assert len(result.store.tables) == 5 + 1  # one inner solver only
    ks_loc = result.decl_values["ks"].loc
    assert cfg.stats.per_table[ks_loc] == [1, 1]  # one miss, one hit


def test_hcons_shared_box_in_corpus_main():
    result = run_program(load("hcons"), EvalConfig(checked=True))
    assert result.value.left.tag == result.value.right.tag


def test_hcons_repeat_on_fresh_arguments():
    result = run_program(load("hcons"), EvalConfig(checked=True))
    cfg = EvalConfig(checked=True)
    hcons = result.decl_values["hcons"]
    empty = result.decl_values["empty"]
    arg = Pair(Bang(IntLit(5)), Bang(empty))
    first, _ = eval_term(result.store, Apply(hcons, arg), cfg)
    second, _ = eval_term(result.store, Apply(hcons, arg), cfg)
    assert first.tag == second.tag
    assert cfg.stats.per_table[hcons.loc] == [1, 1]


def test_quicksort_random_lists_match_host_sort():
    rng = random.Random("corpus-quicksort")
    prefix = corpus_source("quicksort").split("main ")[0]
    for trial in range(4):
        keys = [rng.randint(-50, 50) for _ in range(25)]
        lst = "empty"
        for k in reversed(keys):
            lit = f"(-{-k})" if k < 0 else str(k)
            lst = f"(hcons ((!{lit}, !{lst})))"
        program = parse(prefix + f"main mqs (!{lst})")
        result = run_program(program, EvalConfig(checked=True))
        assert decode_int_list(result.value, result.store.boxes) == sorted(keys)


def test_quicksort_corpus_main_sorted():
    result = run_program(load("quicksort"), EvalConfig(checked=True))
    assert decode_int_list(result.value, result.store.boxes) == [1, 2, 3]


def test_partial_value():
    result = run_program(load("partial"), EvalConfig(checked=True))
    # fy(11) = 12 twice from the memo, once fresh; fz(20) = 40
    assert term_eq(result.value, IntLit(76))
