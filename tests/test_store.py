import pytest
from hypothesis import given, settings, strategies as st

from mfl.errors import DuplicateBranch, NonIndexableValue, PrefixViolation
from mfl.memostore import (
    INL_EVENT, INR_EVENT, KIND_BANG, KIND_SUM, MemoTable, Store, index_of,
    mt_insert, mt_lookup,
)
from mfl.stats import EvalStats
from mfl.syntax import BoxVal, IntLit, Pair, UnitLit


def test_index_of_int_is_identity():
    assert index_of(IntLit(42)) == 42
    assert index_of(IntLit(-7)) == -7


def test_index_of_unit_is_constant_zero():
    assert index_of(UnitLit()) == 0


def test_index_of_box_is_its_tag():
    assert index_of(BoxVal(17)) == 17


def test_index_of_rejects_non_indexable():
    with pytest.raises(NonIndexableValue):
        index_of(Pair(IntLit(1), IntLit(2)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=2, max_size=1000, unique=True))
def test_index_of_injective_on_ints(values):
    indices = {index_of(IntLit(v)) for v in values}
    assert len(indices) == len(values)


def test_index_of_injective_at_scale():
    import random
    rng = random.Random("index-injectivity")
    ints = rng.sample(range(-10 ** 9, 10 ** 9), 10 ** 5)
    assert len({index_of(IntLit(v)) for v in ints}) == len(ints)
    # box tags are unique by allocation
    store = Store()
    tags = {index_of(store.alloc_box(UnitLit())) for _ in range(10 ** 5)}
    assert len(tags) == 10 ** 5


def bang(index: int) -> "tuple[int, int]":
    return (KIND_BANG, index)


def test_bang_and_sum_events_never_collide():
    # a bang of value 0 or 1 is distinct from an arm event
    assert (INL_EVENT, INR_EVENT) == ((KIND_SUM, 0), (KIND_SUM, 1))
    assert bang(0) != INL_EVENT
    assert bang(1) != INR_EVENT


def branch(*events):
    return list(events)


def test_lookup_empty_table():
    table = MemoTable()
    assert mt_lookup(table, branch(bang(5))) == (False, None)
    assert mt_lookup(table, []) == (False, None)


def test_read_your_write():
    table = MemoTable()
    mt_insert(table, branch(bang(5)), "v")
    assert mt_lookup(table, branch(bang(5))) == (True, "v")


def test_distinct_branches_do_not_alias():
    table = MemoTable()
    mt_insert(table, branch(bang(5)), "v")
    assert mt_lookup(table, branch(bang(5), INL_EVENT))[0] is False
    assert mt_lookup(table, branch(bang(6)))[0] is False


def test_double_insert_same_branch_raises():
    table = MemoTable()
    mt_insert(table, branch(bang(5)), "v")
    with pytest.raises(DuplicateBranch):
        mt_insert(table, branch(bang(5)), "w")
    # extension-only: the original binding survives
    assert mt_lookup(table, branch(bang(5))) == (True, "v")


def test_keep_mode_preserves_first_binding():
    table = MemoTable()
    mt_insert(table, branch(INL_EVENT), "first")
    mt_insert(table, branch(INL_EVENT), "second", on_dup="keep")
    assert mt_lookup(table, branch(INL_EVENT)) == (True, "first")


def test_two_distinct_branches_both_retrievable():
    table = MemoTable()
    mt_insert(table, branch(bang(1)), "a")
    mt_insert(table, branch(bang(2), INR_EVENT), "b")
    assert mt_lookup(table, branch(bang(1))) == (True, "a")
    assert mt_lookup(table, branch(bang(2), INR_EVENT)) == (True, "b")
    assert len(table) == 2


def test_prefix_freedom_enforced():
    table = MemoTable()
    mt_insert(table, branch(bang(1), INL_EVENT), "deep")
    with pytest.raises(PrefixViolation):
        mt_insert(table, branch(bang(1)), "shallow")
    table2 = MemoTable()
    mt_insert(table2, branch(bang(1)), "shallow")
    with pytest.raises(PrefixViolation):
        mt_insert(table2, branch(bang(1), INL_EVENT), "deep")


def test_empty_branch_entry():
    table = MemoTable()
    mt_insert(table, [], "root")
    assert mt_lookup(table, []) == (True, "root")
    with pytest.raises(PrefixViolation):
        mt_insert(table, branch(INL_EVENT), "below-root")


def test_lookup_probe_count_is_branch_length_plus_one():
    for n in (0, 1, 3, 8):
        table = MemoTable()
        key = branch(*[bang(i) for i in range(n)])
        stats = EvalStats()
        mt_insert(table, key, "v", stats)
        assert stats.probes == n + 1
        stats = EvalStats()
        found, _ = mt_lookup(table, key, stats)
        assert found and stats.probes == n + 1


def test_items_enumerates_all_bindings():
    table = MemoTable()
    keys = [branch(bang(1)), branch(bang(2), INL_EVENT), branch(bang(2), INR_EVENT)]
    for i, k in enumerate(keys):
        mt_insert(table, k, i)
    got = {k: v for k, v in table.items()}
    assert got == {tuple(k): i for i, k in enumerate(keys)}


def test_alloc_table_fresh_and_empty():
    store = Store()
    l1 = store.alloc_table()
    l2 = store.alloc_table()
    assert l1 != l2
    assert len(store.tables) == 2
    assert mt_lookup(store.tables[l2], branch(bang(0)))[0] is False


def test_alloc_box_registry():
    store = Store()
    b1 = store.alloc_box(IntLit(1))
    b2 = store.alloc_box(IntLit(1))
    assert b1.tag != b2.tag
    assert store.boxes[b1.tag].value == 1
    assert index_of(b1) == b1.tag


def _lookup_probes(table, key):
    stats = EvalStats()
    found, _ = mt_lookup(table, key, stats)
    return found, stats.probes


def test_lookup_probe_count_when_leaving_the_trie_at_event_k():
    # one probe per event walked, the one that leaves the trie included,
    # plus the final entry check
    table = MemoTable()
    stored = branch(*[bang(i) for i in range(6)])
    mt_insert(table, stored, "v")
    for k in range(1, 7):
        key = stored[:k - 1] + [bang(100 + k)] + stored[k:]
        assert _lookup_probes(table, key) == (False, k + 1)


def test_lookup_probe_count_on_an_empty_table():
    table = MemoTable()
    assert _lookup_probes(table, []) == (False, 1)
    for n in (1, 2, 5):
        assert _lookup_probes(table, branch(*[bang(i) for i in range(n)])) == (False, 2)


def test_lookup_probe_count_past_a_stored_shorter_branch():
    table = MemoTable()
    mt_insert(table, branch(bang(1), INL_EVENT), "short")
    # the walk reaches the stored value at event 2 and stops at event 3
    assert _lookup_probes(table, branch(bang(1), INL_EVENT, bang(3), bang(4))) == (False, 4)
    table = MemoTable()
    mt_insert(table, [], "root")
    assert _lookup_probes(table, branch(bang(0), bang(1))) == (False, 2)


def test_lookup_of_a_strict_prefix_is_not_found():
    table = MemoTable()
    mt_insert(table, branch(bang(1), INL_EVENT, bang(2)), "deep")
    assert _lookup_probes(table, []) == (False, 1)
    assert _lookup_probes(table, branch(bang(1))) == (False, 2)
    assert _lookup_probes(table, branch(bang(1), INL_EVENT)) == (False, 3)
    assert _lookup_probes(table, branch(bang(1), INL_EVENT, bang(2))) == (True, 4)


def test_insert_probes_and_failed_inserts():
    table = MemoTable()
    stats = EvalStats()
    mt_insert(table, branch(bang(1), INL_EVENT), "v", stats)
    assert stats.probes == 3
    # a duplicate is charged its walk; a prefix violation met on the way
    # is not, and neither failure changes the table
    with pytest.raises(DuplicateBranch):
        mt_insert(table, branch(bang(1), INL_EVENT), "w", stats)
    assert stats.probes == 6
    mt_insert(table, branch(bang(1), INL_EVENT), "w", stats, on_dup="keep")
    assert stats.probes == 9
    with pytest.raises(PrefixViolation):
        mt_insert(table, branch(bang(1), INL_EVENT, bang(2)), "w", stats)
    assert stats.probes == 9
    with pytest.raises(PrefixViolation):
        mt_insert(table, branch(bang(1)), "w", stats)
    assert stats.probes == 11
    assert list(table.items()) == [(((KIND_BANG, 1), INL_EVENT), "v")]
    assert len(table) == 1


def test_items_order_is_key_order_per_level():
    table = MemoTable()
    keys = [branch(bang(2), INR_EVENT), branch(bang(1)), branch(INL_EVENT),
            branch(bang(2), INL_EVENT), branch(bang(2), bang(0), bang(9))]
    for i, k in enumerate(keys):
        mt_insert(table, k, i)
    assert list(table.items()) == [
        (((KIND_BANG, 1),), 1),
        (((KIND_BANG, 2), (KIND_BANG, 0), (KIND_BANG, 9)), 4),
        (((KIND_BANG, 2), INL_EVENT), 3),
        (((KIND_BANG, 2), INR_EVENT), 0),
        ((INL_EVENT,), 2),
    ]


def test_items_with_the_empty_branch_stored():
    table = MemoTable()
    mt_insert(table, [], "root")
    assert list(table.items()) == [((), "root")]
    assert len(table) == 1
    with pytest.raises(DuplicateBranch):
        mt_insert(table, [], "again")
    mt_insert(table, [], "again", on_dup="keep")
    assert list(table.items()) == [((), "root")]
    # the empty branch is a strict prefix of every other one
    table = MemoTable()
    mt_insert(table, branch(bang(3)), "v")
    with pytest.raises(PrefixViolation):
        mt_insert(table, [], "root")
    assert list(table.items()) == [(((KIND_BANG, 3),), "v")]
