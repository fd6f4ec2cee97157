import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patterncount import _fast

from patterncount.core import Permutation, naive_pattern_count, perm, perm_to_dp
from patterncount.counting import (
    BudgetExceeded,
    NotWestTree,
    OrderViolation,
    StreamWestCounter,
    corner_tree_profiles,
    corner_tree_to_dp,
    count_all_west,
    count_corner_tree,
    naive_corner_tree_count,
    naive_morphism_count,
    occurrence_bound,
)
from patterncount.trees import CornerTree, snpolytree_to_ct
from tests.test_gen3214 import structured_perms
from tests.test_trees import random_corner_tree, random_polytree


def random_perm(rng, n):
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return Permutation(tuple(vals))


def random_west_tree(rng, max_nodes=5) -> CornerTree:
    k = rng.randint(1, max_nodes)
    edges = tuple(
        (rng.randrange(child), child, rng.choice(["NW", "SW"]))
        for child in range(1, k)
    )
    return CornerTree(0, edges)


SE_NE_NW_TREE = CornerTree("r", (
    ("r", "a", "SE"),
    ("a", "b", "NE"),
    ("a", "c", "NW"),
))


# ----------------------------------------------- worked scan examples

def test_nw_edge_profile_on_34251():
    ct = CornerTree("a", (("a", "b", "NW"),))
    pi = perm([3, 4, 2, 5, 1])
    vertex, edge = corner_tree_profiles(pi, ct)
    assert edge[("a", "b")] == [0, 0, 2, 0, 4]
    assert count_corner_tree(pi, ct) == 6


def test_se_ne_nw_tree_on_231546():
    pi = perm([2, 3, 1, 5, 4, 6])
    vertex, edge = corner_tree_profiles(pi, SE_NE_NW_TREE)
    assert edge[("a", "b")] == [4, 3, 3, 1, 1, 0]
    assert edge[("a", "c")] == [0, 0, 2, 0, 1, 0]
    assert vertex["a"] == [0, 0, 6, 0, 1, 0]
    assert vertex["r"] == [6, 6, 0, 1, 0, 0]
    assert count_corner_tree(pi, SE_NE_NW_TREE) == 13


def test_single_ne_edge_counts_12():
    ct = CornerTree(0, ((0, 1, "NE"),))
    rng = random.Random(31)
    for _ in range(25):
        pi = random_perm(rng, rng.randint(1, 12))
        assert count_corner_tree(pi, ct) == naive_pattern_count(pi, perm([1, 2]))


def test_empty_permutation():
    assert count_corner_tree(Permutation(()), CornerTree(0, ())) == 0
    assert count_all_west(Permutation(()), CornerTree(0, ())) == 0
    with pytest.raises(NotWestTree):
        count_all_west(Permutation(()), SE_NE_NW_TREE)


# -------------------------------------------------- morphism oracle

def test_corner_tree_equals_morphism_count():
    rng = random.Random(32)
    for _ in range(60):
        ct = random_corner_tree(rng, max_nodes=5)
        pi = random_perm(rng, rng.randint(1, 12))
        assert count_corner_tree(pi, ct) == \
            naive_morphism_count(corner_tree_to_dp(ct), pi)


def test_morphisms_of_permutation_dp_are_pattern_occurrences():
    rng = random.Random(33)
    for _ in range(25):
        sigma = random_perm(rng, rng.randint(1, 4))
        pi = random_perm(rng, rng.randint(sigma.n, 10))
        assert naive_morphism_count(perm_to_dp(sigma), pi) == \
            naive_pattern_count(pi, sigma)


def test_single_point_dp():
    d = perm_to_dp(perm([1]))
    rng = random.Random(34)
    for n in (1, 4, 9):
        assert naive_morphism_count(d, random_perm(rng, n)) == n


def test_budget():
    d = perm_to_dp(perm([1, 2, 3, 4, 5, 6, 7]))
    with pytest.raises(BudgetExceeded):
        naive_morphism_count(d, random_perm(random.Random(0), 30))


# ------------------------------------------------------- streaming

def test_stream_single_sw_edge():
    tree = CornerTree(0, ((0, 1, "SW"),))
    counter = StreamWestCounter(tree, 5)
    total = sum(counter.process(x, y)
                for x, y in enumerate(perm([3, 4, 2, 5, 1]).zero_indexed()))
    assert total == 4


def test_stream_gated_counts_restricted_permutation():
    # Feeding only points below a value threshold counts occurrences within
    # the restricted pattern.
    rng = random.Random(35)
    for _ in range(20):
        pi = random_perm(rng, rng.randint(2, 24))
        r = rng.randint(1, pi.n)
        tree = random_west_tree(rng, 4)
        counter = StreamWestCounter(tree, pi.n)
        total = 0
        kept = []
        for x, y in enumerate(pi.zero_indexed()):
            if y < r:
                total += counter.process(x, y)
                kept.append(y + 1)
        from patterncount.core import std
        restricted = std(kept) if kept else Permutation(())
        assert total == count_all_west(restricted, tree)


def test_stream_single_node_returns_one():
    counter = StreamWestCounter(CornerTree("z", ()), 3)
    assert [counter.process(x, y) for x, y in enumerate([2, 0, 1])] == [1, 1, 1]


def test_stream_rejects_non_west():
    with pytest.raises(NotWestTree):
        StreamWestCounter(CornerTree(0, ((0, 1, "NE"),)), 4)


def test_stream_rejects_out_of_order():
    counter = StreamWestCounter(CornerTree(0, ((0, 1, "SW"),)), 4)
    counter.process(2, 0)
    with pytest.raises(OrderViolation):
        counter.process(2, 1)
    with pytest.raises(OrderViolation):
        counter.process(1, 3)


def test_count_all_west_matches_general():
    # Both counters share one engine, so each is checked against the online
    # counter fed point by point.
    rng = random.Random(36)
    for _ in range(200):
        tree = random_west_tree(rng, 5)
        pi = random_perm(rng, rng.randint(1, 60))
        counter = StreamWestCounter(tree, pi.n)
        streamed = sum(counter.process(x, y)
                       for x, y in enumerate(pi.zero_indexed()))
        assert count_all_west(pi, tree) == streamed
        assert count_corner_tree(pi, tree) == streamed


def test_sw_chain_on_identity_is_binomial():
    import math
    for n, k in [(6, 1), (6, 2), (7, 3), (8, 4)]:
        edges = tuple((i, i + 1, "SW") for i in range(k - 1))
        tree = CornerTree(0, edges)
        ident = perm(range(1, n + 1))
        assert count_all_west(ident, tree) == math.comb(n, k)


# -------------------------------------------------- global properties

def test_rerooting_invariance():
    rng = random.Random(37)
    for _ in range(40):
        t = random_polytree(rng, 5)
        pi = random_perm(rng, rng.randint(1, 10))
        counts = {count_corner_tree(pi, snpolytree_to_ct(t, v)) for v in t.nodes}
        assert len(counts) == 1


def test_appending_new_maximum_is_monotone():
    rng = random.Random(38)
    for _ in range(20):
        ct = random_corner_tree(rng, 4)
        pi = random_perm(rng, rng.randint(1, 9))
        extended = Permutation(pi.values + (pi.n + 1,))
        assert count_corner_tree(extended, ct) >= count_corner_tree(pi, ct)


# ------------------------------------------------- the scan engine

def _star(labels) -> CornerTree:
    return CornerTree(0, tuple((0, i, lab) for i, lab in enumerate(labels, 1)))


@pytest.mark.parametrize("labels", [("SW",) * 9,
                                    ("NE", "NW", "SE", "SW") * 2 + ("NE",)])
def test_engine_above_int64_matches_profiles(labels):
    # Counts of 104 and 90 bits: the int64 ring plus two primes.
    tree = _star(labels)
    pi = random_perm(random.Random(39), 2000)
    bound = occurrence_bound(tree, pi.n)
    assert len(_fast._moduli(bound)) == 3
    expected = sum(corner_tree_profiles(pi, tree)[0][tree.root])
    assert 2 ** 64 < expected <= bound
    assert count_corner_tree(pi, tree) == expected


@pytest.mark.parametrize("t", [0, 1, 2, 5, 32, 33, 64, 100, 129, 300])
def test_schedule_sums_match_quadratic_sums(t):
    # Keys are a permutation of 0..t-1; most sizes are no power of two.
    rng = random.Random(t)
    keys = list(range(t))
    rng.shuffle(keys)
    x = [rng.randrange(1000) for _ in range(t)]
    schedule = _fast._SplitSchedule(np.array(keys, dtype=np.int64))
    smaller = [sum(x[j] for j in range(i) if keys[j] < keys[i]) for i in range(t)]
    ones = [sum(keys[j] < keys[i] for j in range(i)) for i in range(t)]
    xs = np.array(x, dtype=np.int64)
    assert schedule.dominance_smaller(xs, 2 ** 64).tolist() == smaller
    assert schedule.dominance_smaller(xs, 7).tolist() == [v % 7 for v in smaller]
    assert schedule.ones_smaller().tolist() == ones
    assert schedule.key_prefix(xs).tolist() == \
        [sum(x[j] for j in range(t) if keys[j] < keys[i]) for i in range(t)]


def test_occurrence_bound_choice():
    # The hook bound keeps a 4-node west tree at n = 100 000 in one int64
    # pass, although n^4 is above 2^64.
    west = CornerTree(0, ((0, 1, "SW"), (1, 2, "NW"), (0, 3, "SW")))
    assert 100_000 ** 4 >= 2 ** 64
    assert occurrence_bound(west, 100_000) == 100_000 ** 4 // 8
    assert _fast._moduli(occurrence_bound(west, 100_000)) == (2 ** 64,)
    # All south: a rooted tree in value order.
    assert occurrence_bound(_star(("SE", "SW")), 10) == 10 ** 3 // 3
    assert occurrence_bound(SE_NE_NW_TREE, 10) == 10 ** 4
    chain = CornerTree(0, tuple((i, i + 1, "NE") for i in range(3)))
    assert occurrence_bound(chain, 10) == 10 ** 4 // 24


four_label_trees = st.integers(1, 5).flatmap(lambda k: st.tuples(*(
    st.tuples(st.integers(0, c - 1), st.sampled_from(["NE", "NW", "SE", "SW"]))
    for c in range(1, k)))).map(
        lambda es: CornerTree(0, tuple((p, c, lab)
                                       for c, (p, lab) in enumerate(es, 1))))


@settings(max_examples=80, deadline=None)
@given(pi=structured_perms, ct=four_label_trees)
def test_engine_matches_morphism_count_on_structured_inputs(pi, ct):
    expected = naive_corner_tree_count(pi, ct)
    assert expected <= occurrence_bound(ct, pi.n)
    assert count_corner_tree(pi, ct) == expected
