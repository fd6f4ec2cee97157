import itertools
import json
import logging
import random
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patterncount import _fast, core, counting, trees
from patterncount.cli import main as cli_main, parse_tree_spec, tree_spec_to_dict

from patterncount.core import (
    Permutation,
    morphism_bound,
    naive_pattern_count,
    perm,
    perm_to_dp,
)
from patterncount.counting import (
    BudgetExceeded,
    CountResult,
    Inapplicable,
    NotWestTree,
    OrderViolation,
    StreamWestCounter,
    as_double_poset,
    corner_tree_profiles,
    count,
    count_all_west,
    count_corner_tree,
    count_corner_trees,
    naive_corner_tree_count,
    naive_morphism_count,
)
from patterncount.algebra import twin_tree_family
from patterncount.gen3214 import (bare_3214, build_arbo, count_gen_3214,
                                  default_block_size)
from patterncount.indexstructs import SumTree
from patterncount.trees import (CornerTree, ct_to_snpolytree, dp_to_snpolytree,
                               snpolytree_to_ct)
from tests.test_cli import SE_TREE
from tests.test_core import random_perm
from tests.test_gen3214 import _layered, _perfect_shuffle, structured_perms
from tests.test_trees import random_corner_tree, random_polytree


def random_west_tree(rng, max_nodes=5) -> CornerTree:
    k = rng.randint(1, max_nodes)
    edges = tuple(
        (rng.randrange(child), child, rng.choice(["NW", "SW"]))
        for child in range(1, k)
    )
    return CornerTree(0, edges)


def occurrence_bound(ct: CornerTree, n: int) -> int:
    return morphism_bound(as_double_poset(ct), n)


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
            naive_morphism_count(as_double_poset(ct), pi)


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
    assert schedule.ones_smaller(t).tolist() == ones
    assert schedule.key_prefix(xs).tolist() == \
        [sum(x[j] for j in range(t) if keys[j] < keys[i]) for i in range(t)]


@pytest.mark.parametrize("t", [1, 2, 33, 100, 129])
def test_prefix_sums_match_quadratic_sums(t):
    # A prefix of stop points: none, one, an odd stop, which lies inside a
    # run of every level, the run boundary 64, and all t points.
    rng = random.Random(200 + t)
    keys = list(range(t))
    rng.shuffle(keys)
    schedule = _fast._SplitSchedule(np.array(keys, dtype=np.int64))
    prime = _fast._moduli(2 ** 64)[1]
    for stop in sorted({0, 1, t // 2 | 1, 64, t} & set(range(t + 1))):
        for q in (2 ** 64, prime):
            x = [rng.randrange(min(q, 2 ** 63)) for _ in range(stop)]
            xs = np.array(x, dtype=np.int64)
            smaller = [sum(x[j] for j in range(i) if keys[j] < keys[i])
                       for i in range(stop)]
            below = [sum(x[j] for j in range(stop) if keys[j] < keys[i])
                     for i in range(stop)]
            assert [v % q for v in schedule.dominance_smaller(xs, q).tolist()] \
                == [v % q for v in smaller], (stop, q)
            assert [v % q for v in schedule.key_prefix(xs).tolist()] == \
                [v % q for v in below], (stop, q)
        assert schedule.ones_smaller(stop).tolist() == \
            [sum(keys[j] < keys[i] for j in range(i)) for i in range(stop)]


@pytest.mark.parametrize("t", [1, 2, 3, 5, 7, 8, 9, 16, 17, 31, 33, 64, 65])
def test_every_prefix_sums_match_quadratic_sums(t):
    # Every stop, so that the last run read at each level ends at, inside
    # or past the prefix.  Every x entry is nonzero: a clipped read of
    # x[stop - 1] in place of a left past the prefix would change a sum.
    rng = random.Random(300 + t)
    keys = list(range(t))
    rng.shuffle(keys)
    schedule = _fast._SplitSchedule(np.array(keys, dtype=np.int64))
    ones = [sum(keys[j] < keys[i] for j in range(i)) for i in range(t)]
    for q in (2 ** 64, _fast._moduli(2 ** 64)[1]):
        x = [rng.randrange(1, min(q, 2 ** 63)) for _ in range(t)]
        smaller = [sum(x[j] for j in range(i) if keys[j] < keys[i]) % q
                   for i in range(t)]
        for stop in range(t + 1):
            xs = np.array(x[:stop], dtype=np.int64)
            below = [sum(x[j] for j in range(stop) if keys[j] < keys[i]) % q
                     for i in range(stop)]
            assert [v % q for v in schedule.dominance_smaller(xs, q).tolist()] \
                == smaller[:stop], (stop, q)
            assert [v % q for v in schedule.key_prefix(xs).tolist()] == \
                below, (stop, q)
            assert schedule.ones_smaller(stop).tolist() == ones[:stop], stop


@pytest.mark.parametrize("t", [1, 2, 5, 8, 9, 17, 33, 64, 65])
def test_batch_axis_sums_equal_column_calls(t):
    # On (stop, g) input, dominance_smaller, key_prefix and key_prefix_at
    # equal g one-column calls, column by column, at every stop and in both
    # rings.  Column j is nonzero on a prefix of its own and zero past it,
    # as a gated scan's columns are; the first column fills the whole stop
    # and another none of it.  key_prefix_at reads every index, past the
    # stop too, with and without blocks of keys, against quadratic sums.
    rng = random.Random(700 + t)
    keys = list(range(t))
    rng.shuffle(keys)
    schedule = _fast._SplitSchedule(np.array(keys, dtype=np.int64))
    every = np.arange(t)
    for q in (2 ** 64, _fast._moduli(2 ** 64)[1]):
        for stop in range(t + 1):
            ends = [stop, 0, *(rng.randint(0, stop) for _ in range(3))]
            x = np.array([[rng.randrange(1, min(q, 2 ** 63)) if i < end else 0
                           for end in ends] for i in range(stop)],
                         dtype=np.int64).reshape(stop, len(ends))
            smaller, below = schedule.dominance_smaller(x, q), \
                schedule.key_prefix(x)
            reads = [(b, schedule.key_prefix_at(x, every, b))
                     for b in (0, 1, 3, t)]
            for j, end in enumerate(ends):
                col = x[:, j].copy()
                assert smaller[:, j].tolist() == \
                    schedule.dominance_smaller(col, q).tolist(), (stop, j, q)
                # The column's own prefix alone gives its leading sums.
                assert smaller[:end, j].tolist() == \
                    schedule.dominance_smaller(col[:end], q).tolist()
                assert below[:, j].tolist() == \
                    schedule.key_prefix(col).tolist(), (stop, j, q)
                assert reads[0][1][:stop, j].tolist() == below[:, j].tolist()
                for b, sums in reads:
                    assert sums[:, j].tolist() == \
                        schedule.key_prefix_at(col, every, b).tolist()
                    low = [k - k % b if b else 0 for k in keys]
                    assert [v % q for v in sums[:, j].tolist()] == [
                        sum(int(col[i]) for i in range(stop)
                            if lo <= keys[i] < k) % q
                        for k, lo in zip(keys, low)], (stop, j, b)


def _fenwick_smaller(keys, x):
    """z[i] = sum of x[j] over j < i with keys[j] < keys[i], by one SumTree scan."""
    tree, z = SumTree(len(keys)), []
    for k, w in zip(keys, x):
        z.append(tree.prefix(k + 1))
        tree.add(k + 1, w)
    return z


def _key_prefix(keys, x):
    before, total = [0] * len(keys), 0
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        before[i], total = total, total + x[i]
    return before


@pytest.mark.parametrize("t", [31, 32, 33, 63, 64, 65, 1023, 1024, 1025, 4097])
def test_schedule_sums_match_fenwick_sums(t):
    # Sizes at and next to powers of two, where the padding and the number
    # of split levels change.
    rng = random.Random(t)
    keys = list(range(t))
    rng.shuffle(keys)
    schedule = _fast._SplitSchedule(np.array(keys, dtype=np.int64))
    ones = _fenwick_smaller(keys, [1] * t)
    assert schedule.ones_smaller(t).tolist() == ones
    # The int64 ring, with values over its whole range.
    x = [rng.randrange(-2 ** 63, 2 ** 63) for _ in range(t)]
    xs = np.array(x, dtype=np.int64)

    def wrapped(values):
        return [v % 2 ** 64 for v in values]

    assert wrapped(schedule.dominance_smaller(xs, 2 ** 64).tolist()) == \
        wrapped(_fenwick_smaller(keys, x))
    assert wrapped(schedule.key_prefix(xs).tolist()) == \
        wrapped(_key_prefix(keys, x))
    # The largest prime ring, every value at its largest reduced value q - 1.
    q = _fast._moduli(2 ** 64)[1]
    top = np.full(t, q - 1, dtype=np.int64)
    assert schedule.dominance_smaller(top, q).tolist() == \
        [c * (q - 1) % q for c in ones]
    assert schedule.key_prefix(top).tolist() == [k * (q - 1) for k in keys]


@pytest.mark.parametrize("t", [1000, 4097, 65_537])
def test_random_prefix_sums_match_fenwick_sums(t):
    # Prefixes that end inside a run at most levels, so the last run read is
    # partial at sizes far above the every-prefix test.  Every x entry is
    # nonzero, so a read that a run skips or a clipped read that a prefix
    # keeps changes a sum.  A point's sum only reads earlier points, so each
    # prefix's sums are the leading sums of the whole sequence.
    rng = random.Random(500 + t)
    keys = list(range(t))
    rng.shuffle(keys)
    schedule = _fast._SplitSchedule(np.array(keys, dtype=np.int64))
    stops = rng.sample(range(1, t + 1), 20)
    for q in (2 ** 64, _fast._moduli(2 ** 64)[1]):
        x = [rng.randrange(1, min(q, 2 ** 63)) for _ in range(t)]
        xs = np.array(x, dtype=np.int64)
        smaller = [v % q for v in _fenwick_smaller(keys, x)]
        for stop in stops:
            assert [v % q for v in
                    schedule.dominance_smaller(xs[:stop], q).tolist()] == \
                smaller[:stop], (stop, q)


@pytest.mark.parametrize("t", [1, 2, 3, 100, 100_000])
def test_schedule_keeps_two_half_size_arrays_per_level(t):
    # The rights are implied by the level, so a level holds only its lefts
    # and each right's table index: 4 * size bytes, over log2(size) levels.
    keys = np.random.default_rng(t).permutation(t)
    schedule = _fast._SplitSchedule(keys)
    size = len(schedule._order0)
    assert [h for h, *_ in schedule._levels] == \
        [size >> b for b in range(1, size.bit_length())]
    for h, *arrays in schedule._levels:
        assert [(a.dtype, a.shape) for a in arrays] == \
            [(np.dtype(np.int32), (size // 2,))] * 2
    assert sum(a.nbytes for _, *arrays in schedule._levels for a in arrays) \
        == 4 * size * (size.bit_length() - 1)


def test_primes_match_trial_division():
    def trial(c):
        return c >= 2 and all(c % d for d in range(2, int(c ** 0.5) + 1))

    assert [c for c in range(2000) if _fast._is_prime(c)] == \
        [c for c in range(2000) if trial(c)]
    window = range(2 ** 31 - 400, 2 ** 31)
    assert [c for c in window if _fast._is_prime(c)] == \
        [c for c in window if trial(c)]
    assert _fast._moduli(2 ** 200) == (2 ** 64, 2147483647, 2147483629,
                                       2147483587, 2147483579, 2147483563)


def test_occurrence_bound_choice():
    # The hook bound keeps a 4-node west tree at n = 100 000 in one int64
    # pass, although n^4 is above 2^64.
    west = CornerTree(0, ((0, 1, "SW"), (1, 2, "NW"), (0, 3, "SW")))
    assert 100_000 ** 4 >= 2 ** 64
    assert occurrence_bound(west, 100_000) == 100_000 ** 4 // 8
    assert _fast._moduli(occurrence_bound(west, 100_000)) == (2 ** 64,)
    # All south: a rooted tree in value order, and a chain in position order.
    assert occurrence_bound(_star(("SE", "SW")), 10) == 10 ** 3 // 6
    # Mixed labels: the position order is a tree rooted at its maximum.
    assert occurrence_bound(SE_NE_NW_TREE, 10) == 10 ** 4 // 12
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


def _path(labels) -> CornerTree:
    return CornerTree(0, tuple((i, i + 1, lab) for i, lab in enumerate(labels)))


def test_deep_trees_walk_without_recursion():
    # 1200 nodes lie far beyond Python's recursion limit.
    pi = perm([3, 1, 2, 5, 4])
    zigzag = _path((["NW", "SE"] * 600)[:1199])
    expected = sum(corner_tree_profiles(pi, zigzag)[0][zigzag.root])
    assert expected > 2 ** 64
    assert count_corner_tree(pi, zigzag) == expected
    counter = StreamWestCounter(_path(["SW"] * 1199), pi.n)
    assert [counter.process(x, y) for x, y in enumerate(pi.zero_indexed())] \
        == [0] * 5


# ------------------------------------------ many trees on one permutation

def _twin_trees(max_nodes):
    """The twin trees on at most max_nodes nodes, each rooted at its west
    maximum (or node 0 without one); any rooting counts the same."""
    out = []
    for d in twin_tree_family(max_nodes):
        root = next((v for v in range(d.n)
                     if d.west.below[v].bit_count() == d.n - 1), 0)
        out.append(snpolytree_to_ct(dp_to_snpolytree(d), root))
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 12])
def test_batch_matches_oracle_and_single_counts(n):
    rng = random.Random(300 + n)
    batch = _twin_trees(4) + [random_corner_tree(rng, 5) for _ in range(12)]
    perms = {"uniform": random_perm(rng, n),
             "layered": Permutation(_layered({0: (), 1: (1,), 2: (2,),
                                              12: (1, 3, 2, 4, 2)}[n])),
             "shuffle": _perfect_shuffle(n, 4 if n == 12 else 1)}
    for kind, pi in perms.items():
        got = count_corner_trees(pi, batch)
        assert got == [count_corner_tree(pi, ct) for ct in batch], kind
        assert got == [naive_corner_tree_count(pi, ct) for ct in batch], kind


def test_batch_edge_cases():
    pi = random_perm(random.Random(301), 30)
    west = CornerTree(0, ((0, 1, "SW"), (1, 2, "NW"), (0, 3, "SW")))
    point = CornerTree("v", ())
    assert count_corner_trees(pi, []) == []
    assert count_corner_trees(pi, [point]) == [30]
    assert count_corner_trees(Permutation(()), [point, west]) == [0, 0]
    once = count_corner_tree(pi, west)
    assert count_corner_trees(pi, [west, point, west, SE_NE_NW_TREE, west]) == \
        [once, 30, once, count_corner_tree(pi, SE_NE_NW_TREE), once]
    # The same tree under other node names shares every subtree.
    renamed = CornerTree("a", (("a", "b", "SW"), ("b", "c", "NW"),
                               ("a", "d", "SW")))
    assert count_corner_trees(pi, (t for t in (renamed, west))) == [once, once]


def test_batch_runs_every_tree_under_the_largest_bound():
    # The 2-node tree alone needs the int64 ring only; beside a star of
    # nine SW leaves it runs in the int64 ring and two prime rings.
    pi = random_perm(random.Random(39), 2000)
    edge = CornerTree(0, ((0, 1, "SE"),))
    star = _star(("SW",) * 9)
    assert len(_fast._moduli(occurrence_bound(edge, pi.n))) == 1
    assert len(_fast._moduli(occurrence_bound(star, pi.n))) == 3
    expected = [sum(corner_tree_profiles(pi, ct)[0][ct.root])
                for ct in (edge, star)]
    assert count_corner_trees(pi, [edge, star]) == expected
    assert count_corner_trees(pi, [star, edge]) == expected[::-1]


# ------------------------------------------------- the permutation slot

def _counting_builds(monkeypatch):
    """The keys' lengths of every _SplitSchedule built from now on."""
    builds = []

    class Counted(_fast._SplitSchedule):
        def __init__(self, keys):
            builds.append(len(keys))
            super().__init__(keys)

    monkeypatch.setattr(_fast, "_SplitSchedule", Counted)
    return builds


def test_one_schedule_per_permutation(monkeypatch):
    builds = _counting_builds(monkeypatch)
    pi = random_perm(random.Random(302), 200)
    trees = [SE_NE_NW_TREE, _star(("NE", "SW")), CornerTree(0, ((0, 1, "NW"),))]
    counts = [count_corner_tree(pi, ct) for ct in trees]
    assert builds == [200]
    assert count_corner_trees(pi, trees) == counts
    assert builds == [200]
    # A member's type-A pass scans positions by value, its type-B pass and
    # box the values by position: two schedules, both kept for the next.
    sigma = random_perm(random.Random(303), 150)
    for arbo, expected in ((bare_3214(), [150, 150]),
                           (build_arbo(True, (0,)), [])):
        builds.clear()
        assert count_gen_3214(sigma, arbo, 7) == \
            count_gen_3214(sigma, arbo, 7, method="exact")
        assert builds == expected


def test_slot_follows_the_permutation_object():
    rng = random.Random(304)
    cherry = _star(("NE", "SW"))
    pis = [random_perm(rng, 60), random_perm(rng, 61)]
    expected = [[naive_corner_tree_count(pi, ct) for ct in (SE_NE_NW_TREE, cherry)]
                for pi in pis]
    for _ in range(3):
        for pi, counts in zip(pis, expected):
            assert [count_corner_tree(pi, SE_NE_NW_TREE),
                    count_corner_tree(pi, cherry)] == counts
    # Equal permutations that are distinct objects each get their own data.
    twin = Permutation(tuple(pis[0].values))
    assert twin == pis[0] and twin is not pis[0]
    assert count_corner_tree(twin, SE_NE_NW_TREE) == expected[0][0]
    assert _fast._slot.pi() is twin
    assert count_corner_tree(pis[0], SE_NE_NW_TREE) == expected[0][0]
    assert _fast._slot.pi() is pis[0]


def test_slot_drops_the_previous_permutation():
    rng = random.Random(305)
    first, second = random_perm(rng, 80), random_perm(rng, 80)
    count_corner_tree(first, SE_NE_NW_TREE)
    schedule = weakref.ref(_fast._slot.p_schedule)
    count_corner_tree(second, SE_NE_NW_TREE)
    assert schedule() is None
    assert first.n == 80  # the first permutation itself is still alive
    # The slot empties once its permutation is gone.
    count_corner_tree(first, SE_NE_NW_TREE)
    del first
    assert _fast._slot is None


def test_counts_stay_exact_across_threads():
    # Threads counting different permutations evict each other's data from
    # the slot; every count must still be exact.
    rng = random.Random(306)
    pis = [random_perm(rng, 120) for _ in range(3)]
    arbo = build_arbo(True, (0,))
    expected = [(naive_corner_tree_count(pi, SE_NE_NW_TREE),
                 count_gen_3214(pi, arbo, 5, method="exact")) for pi in pis]
    wrong = []

    def work(k):
        for i in range(12):
            j = (k + i) % len(pis)
            got = (count_corner_tree(pis[j], SE_NE_NW_TREE),
                   count_gen_3214(pis[j], arbo, 5))
            if got != expected[j]:
                wrong.append((k, i, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# ------------------------------------------------------ the front door

_WEST_EDGE = {"type": "corner_tree", "root": 0, "nodes": [0, 1],
              "edges": [[0, 1, "SW"]]}
_WEST_CHAIN = {"type": "sn_polytree", "nodes": [0, 1, 2],
               "edges": [[2, 1, "S"], [1, 0, "N"]]}
# Opposite vertical labels: no rooting of this cherry is all west.
_MIXED_CHERRY = {"type": "sn_polytree", "nodes": [0, 1, 2],
                 "edges": [[0, 1, "S"], [2, 1, "N"]]}
_NAIVE_DP = {"type": "double_poset", "n": 2, "west": [[0, 1]], "south": []}


def _member_docs():
    arbo = build_arbo(True, (1,))
    plain = dict(tree_spec_to_dict(arbo), type="double_poset")
    del plain["anchors"]
    return tree_spec_to_dict(arbo), plain


def _front_door_cases():
    """(document, permutation, --algorithm, --block-size) for every document
    that tests/test_cli.py counts."""
    bare = tree_spec_to_dict(bare_3214())
    member, plain = _member_docs()
    values = list(range(1, 1001))
    random.Random(5).shuffle(values)
    deep = tree_spec_to_dict(_path((["NW", "SE"] * 600)[:1199]))
    return [
        (SE_TREE, [2, 3, 1, 5, 4, 6], "general", None),
        (SE_TREE, [2, 3, 1, 5, 4, 6], "auto", None),
        (bare, [4, 3, 2, 1, 5], "block", None),
        (bare, [4, 3, 2, 1, 5], "block", 2),
        (bare, [4, 3, 2, 1, 5], "auto", None),
        (bare, [3, 2, 1, 4, 5], "auto", 9),
        (bare, [3, 2, 1, 4, 5], "auto", 2 ** 63),
        (_WEST_EDGE, [2, 1, 3], "general", None),
        (_WEST_CHAIN, [2, 1, 3], "general", None),
        (member, values, "auto", None),
        (plain, values, "auto", None),
        (plain, values, "block", None),
        (_NAIVE_DP, [2, 1, 3], "auto", None),
        (deep, [3, 1, 2, 5, 4], "auto", None),
    ]


def test_front_door_matches_the_cli(tmp_path, capsys):
    for i, (doc, values, algorithm, m) in enumerate(_front_door_cases()):
        perm_file, tree_file = tmp_path / f"p{i}.txt", tmp_path / f"t{i}.json"
        perm_file.write_text(" ".join(map(str, values)))
        tree_file.write_text(json.dumps(doc))
        argv = ["count", "--perm", str(perm_file), "--tree", str(tree_file),
                "--algorithm", algorithm, "--json"]
        assert cli_main(argv + (["--block-size", str(m)] if m else [])) == 0
        printed = json.loads(capsys.readouterr().out)
        result = count(parse_tree_spec(doc), perm(values), algorithm, m)
        assert (result.count, result.algorithm) == \
            (printed["count"], printed["algorithm"]), (i, doc["type"])
        assert result.block_size == printed.get("block_size"), i


def test_front_door_inapplicable(tmp_path):
    pi = perm([2, 3, 1, 5, 4, 6])
    with pytest.raises(Inapplicable, match="family member"):
        count(parse_tree_spec(SE_TREE), pi, "block")
    cherry = parse_tree_spec(_MIXED_CHERRY)
    assert count(cherry, pi, "general").count == count(cherry, pi).count
    with pytest.raises(Inapplicable, match="twin tree"):
        count(parse_tree_spec(_NAIVE_DP), pi, "general")
    for name in ("fast", "stream"):
        with pytest.raises(ValueError, match="unknown algorithm"):
            count(cherry, pi, name)
    with pytest.raises(TypeError):
        count(pi, pi)


def test_front_door_logs_the_naive_fallback(caplog):
    d = parse_tree_spec(_NAIVE_DP)
    with caplog.at_level(logging.WARNING, logger="patterncount"):
        assert count(d, perm([2, 1, 3])) == CountResult(3, "naive")
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert "naive" in caplog.records[0].getMessage()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="patterncount"):
        count(d, perm([2, 1, 3]), "naive")
        count(SE_NE_NW_TREE, perm([2, 1, 3]))
    assert caplog.records == []


def test_front_door_block_size():
    pi = random_perm(random.Random(40), 60)
    member, plain = _member_docs()
    for obj in (bare_3214(), parse_tree_spec(plain)):
        default = count(obj, pi)
        assert default.algorithm == "block"
        assert default.block_size == default_block_size(pi.n) == 9
        assert count(obj, pi, block_size=4) == \
            CountResult(default.count, "block", 4)
    for algorithm in ("auto", "general"):
        assert count(_path(["SW", "SW"]), pi, algorithm,
                     block_size=4).block_size is None
    assert count(parse_tree_spec(_NAIVE_DP), perm([2, 1, 3]), "naive",
                 block_size=4).block_size is None


def test_front_door_builds_the_double_poset_once(monkeypatch):
    # A tree is a twin tree by its type: its count and its bound come from
    # its edges, and only the naive oracle builds its double poset.
    calls = []
    real = trees.snpolytree_to_dp

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(trees, "snpolytree_to_dp", counted)
    monkeypatch.setattr(counting, "snpolytree_to_dp", counted)
    pi = perm([2, 3, 1, 5, 4, 6])
    for tree in (SE_NE_NW_TREE, ct_to_snpolytree(SE_NE_NW_TREE)):
        for algorithm in ("auto", "general"):
            assert count(tree, pi, algorithm) == CountResult(13, "general")
        with pytest.raises(Inapplicable, match="family member"):
            count(tree, pi, "block")
    assert len(calls) == 0
    assert count(SE_NE_NW_TREE, pi, "naive") == CountResult(13, "naive")
    assert len(calls) == 1


def test_tree_counts_close_no_order(monkeypatch):
    pi = perm([3, 1, 2, 5, 4])
    west = CornerTree(0, ((0, 1, "SW"), (0, 2, "NW"), (2, 3, "SW")))
    expected = [naive_corner_tree_count(pi, ct) for ct in (west, SE_NE_NW_TREE)]
    path = _path(["SW"] * 1199)

    def refused(*args):
        raise AssertionError("a tree count closed an order")

    monkeypatch.setattr(core, "transitive_closure", refused)
    assert count(west, pi) == CountResult(expected[0], "general")
    assert count(ct_to_snpolytree(path), pi) == CountResult(0, "general")
    assert count_corner_tree(pi, SE_NE_NW_TREE) == expected[1]
    assert count_all_west(pi, west) == expected[0]
    assert count_all_west(pi, path) == 0
    assert count_corner_trees(pi, [west, path, SE_NE_NW_TREE]) == \
        [expected[0], 0, expected[1]]


def test_naive_budget_closes_no_order(monkeypatch):
    # The n^k budget needs only the element count, so a tree beyond it is
    # refused before its orders are closed.
    pi = perm([3, 1, 2, 5, 4])
    path = _path(["SW"] * 1199)

    def refused(*args):
        raise AssertionError("the budget check closed an order")

    monkeypatch.setattr(core, "transitive_closure", refused)
    for tree in (path, ct_to_snpolytree(path)):
        with pytest.raises(BudgetExceeded):
            count(tree, pi, "naive")
    with pytest.raises(BudgetExceeded):
        naive_corner_tree_count(pi, path)


def test_a_member_counts_as_itself(monkeypatch):
    # An ArboNE is not validated again, and a member DoublePoset is
    # validated once and never tried as a twin tree.
    from patterncount import gen3214

    pi = random_perm(random.Random(24), 40)
    arbo = build_arbo(True, (1,))
    m = default_block_size(pi.n)
    expected = CountResult(count_gen_3214(pi, arbo, m, "exact"), "block", m)
    calls = {}

    def counted(module, name):
        real = getattr(module, name)

        def call(d):
            calls[name] += 1
            return real(d)
        monkeypatch.setattr(module, name, call)

    counted(gen3214, "validate_arbo")
    counted(counting, "dp_to_snpolytree")
    for obj, want in ((arbo, (0, 0)), (arbo.dp, (1, 0))):
        for algorithm in ("auto", "block"):
            calls.update(validate_arbo=0, dp_to_snpolytree=0)
            assert count(obj, pi, algorithm) == expected
            assert tuple(calls.values()) == want, (type(obj), algorithm)
        with pytest.raises(Inapplicable, match="twin tree"):
            count(obj, pi, "general")


def test_no_count_builds_a_stream_west_counter(monkeypatch):
    # StreamWestCounter is public API that no count runs: the block
    # counter's exact passes read corner_tree_profiles, and every scan
    # runs the _fast engine.
    from patterncount import gen3214

    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a count built a StreamWestCounter")

    monkeypatch.setattr(counting, "StreamWestCounter", Refused)
    monkeypatch.setattr(gen3214, "StreamWestCounter", Refused)
    pi = random_perm(random.Random(61), 10)
    for arbo in (bare_3214(), gen3214.level5_arbos()[1]):
        expected = naive_morphism_count(arbo.dp, pi)
        for method in ("auto", "exact"):
            assert count_gen_3214(pi, arbo, 3, method) == expected, method
    tree = CornerTree(0, ((0, 1, "SW"), (0, 2, "NW"), (2, 3, "SW")))
    expected = naive_corner_tree_count(pi, tree)
    assert count(tree, pi, "general") == CountResult(expected, "general")
    assert count_corner_tree(pi, tree) == expected
    assert count_all_west(pi, tree) == expected
