import itertools
import random
import time

import pytest

from patterncount import core
from patterncount.core import (
    Classification,
    DoublePoset,
    InvalidInput,
    NotAcyclic,
    NotAPermutationPoset,
    Permutation,
    StrictPoset,
    TooLargeForCanonicalization,
    anti,
    are_isomorphic,
    canonical_form,
    chain_poset,
    classify,
    double_poset,
    dp_to_perm,
    empty_poset,
    naive_pattern_count,
    perm,
    perm_to_dp,
    relabel,
    std,
    swap,
    morphism_bound,
    transitive_closure,
    transitive_reduction,
)
from patterncount.counting import count_morphisms_into_perm, naive_morphism_count
from patterncount.gen3214 import bare_3214, build_arbo, level5_arbos
from patterncount.trees import enumerate_snpolytrees, snpolytree_to_dp


def random_perm(rng, n):
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return Permutation(tuple(vals))


def random_double_poset(rng, n, p=0.3):
    """Random DAG generators on a shuffled base order, closed transitively."""
    def rand_pairs():
        order = list(range(n))
        rng.shuffle(order)
        return [
            (order[i], order[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
    return double_poset(n, rand_pairs(), rand_pairs())


# ---------------------------------------------------------------- std

def test_std_restriction_example():
    # window (5, 3, 4) is [1 5 3 2 4] restricted to positions {2, 3, 5}
    assert std((5, 3, 4)) == perm([3, 1, 2])


def test_std_singleton():
    assert std((7,)) == perm([1])


def test_std_sorted():
    assert std((10, 20, 30)) == perm([1, 2, 3])


def test_std_rejects_duplicates():
    with pytest.raises(InvalidInput):
        std((4, 4, 1))


def test_permutation_rejects_non_bijection():
    with pytest.raises(InvalidInput):
        Permutation((1, 3, 3))


@pytest.mark.parametrize("values", [(1, "a"), ("1",), (1.0,), (2, 1.0), (None,),
                                    (1, None), (2, 2), (0,), (0, 1), (1, 3), 5, None])
def test_permutation_rejects_bad_entries(values):
    with pytest.raises(InvalidInput):
        Permutation(values)


def test_permutation_accepts_numpy_integers_and_lists():
    np = pytest.importorskip("numpy")
    p = Permutation(tuple(np.array([2, 3, 1])))
    assert p == perm([2, 3, 1]) and p.inverse() == perm([3, 1, 2])
    q = Permutation([2, 3, 1])
    assert q.values == (2, 3, 1) and hash(q) == hash(perm([2, 3, 1]))
    assert Permutation(()).n == 0


def test_permutation_call_outside_positions():
    p = perm([2, 3, 1])
    assert [p(i) for i in (1, 2, 3)] == [2, 3, 1]
    for i in (0, -1, 4):
        with pytest.raises(IndexError):
            p(i)


# ------------------------------------------------- naive_pattern_count

def test_count_12_in_34251():
    assert naive_pattern_count(perm([3, 4, 2, 5, 1]), perm([1, 2])) == 4


def test_count_3214_in_43215():
    assert naive_pattern_count(perm([4, 3, 2, 1, 5]), perm([3, 2, 1, 4])) == 4


def test_count_self_is_one():
    rng = random.Random(1)
    for _ in range(10):
        sigma = random_perm(rng, rng.randint(1, 6))
        assert naive_pattern_count(sigma, sigma) == 1


# ------------------------------------------------------- perm <-> dp

def test_perm_to_dp_312():
    d = perm_to_dp(perm([3, 1, 2]))
    # west: 0 < 1 < 2 (positions); south: 1 < 2 < 0 (sorted by value)
    assert d.west.pairs == frozenset({(0, 1), (0, 2), (1, 2)})
    assert d.south.pairs == frozenset({(1, 2), (1, 0), (2, 0)})


def test_perm_to_dp_singleton():
    d = perm_to_dp(perm([1]))
    assert d.n == 1 and not d.west.pairs and not d.south.pairs


def test_perm_to_dp_21():
    d = perm_to_dp(perm([2, 1]))
    assert d.west.pairs == frozenset({(0, 1)})
    assert d.south.pairs == frozenset({(1, 0)})


def test_dp_to_perm_312():
    d = double_poset(3, [(0, 1), (1, 2)], [(1, 2), (2, 0)])
    assert dp_to_perm(d) == perm([3, 1, 2])


def test_dp_to_perm_roundtrip():
    rng = random.Random(2)
    for _ in range(100):
        sigma = random_perm(rng, rng.randint(1, 8))
        assert dp_to_perm(perm_to_dp(sigma)) == sigma


def test_dp_to_perm_rejects_partial_order():
    d = double_poset(3, [(0, 1)], [(0, 1), (1, 2)])
    with pytest.raises(NotAPermutationPoset):
        dp_to_perm(d)


# ------------------------------------------------------- swap / anti

def test_swap_gives_inverse_permutation():
    sigma = perm([3, 1, 2])
    assert are_isomorphic(swap(perm_to_dp(sigma)), perm_to_dp(sigma.inverse()))
    assert sigma.inverse() == perm([2, 3, 1])
    # Exhaustively for n <= 5 and sampled at n = 6.
    for n in range(1, 6):
        for vals in itertools.permutations(range(1, n + 1)):
            s = Permutation(vals)
            assert dp_to_perm(swap(perm_to_dp(s))) == s.inverse()
    rng = random.Random(10)
    for _ in range(40):
        s = random_perm(rng, 6)
        assert dp_to_perm(swap(perm_to_dp(s))) == s.inverse()


def test_swap_involution_and_twin_preserving():
    rng = random.Random(3)
    for _ in range(50):
        d = random_double_poset(rng, rng.randint(1, 5))
        assert swap(swap(d)) == d
        assert classify(swap(d)).is_twin == classify(d).is_twin


def test_anti_of_3214():
    assert are_isomorphic(anti(perm_to_dp(perm([3, 2, 1, 4]))),
                          perm_to_dp(perm([1, 4, 3, 2])))


def test_anti_involution_and_commutes_with_swap():
    rng = random.Random(4)
    for _ in range(50):
        d = random_double_poset(rng, rng.randint(1, 5))
        assert anti(anti(d)) == d
        assert anti(swap(d)) == swap(anti(d))


def test_anti_fixes_double_antichain():
    d = DoublePoset(3, empty_poset(3), empty_poset(3))
    assert anti(d) == d


def test_rotate180_matches_anti_on_double_posets():
    rng = random.Random(5)
    for _ in range(30):
        sigma = random_perm(rng, rng.randint(1, 7))
        assert dp_to_perm(anti(perm_to_dp(sigma))) == sigma.rotate180()


# ------------------------------------------- closure / reduction

def test_closure_of_chain():
    p = transitive_closure([(0, 1), (1, 2)], 3)
    assert p.pairs == frozenset({(0, 1), (1, 2), (0, 2)})


def test_closure_rejects_cycle():
    with pytest.raises(NotAcyclic):
        transitive_closure([(0, 1), (1, 0)], 2)
    with pytest.raises(NotAcyclic):
        transitive_closure([(0, 0)], 1)


def test_closure_skips_unrelated_elements():
    start = time.perf_counter()
    d = double_poset(100_000, [], [])
    assert time.perf_counter() - start < 0.5
    assert d.west.pairs == d.south.pairs == frozenset()
    # A few relations among many unrelated elements: exact, cycles caught.
    assert transitive_closure([(9000, 3), (3, 17)], 10_000).pairs == \
        {(9000, 3), (3, 17), (9000, 17)}
    with pytest.raises(NotAcyclic):
        transitive_closure([(5000, 7), (7, 9999), (9999, 5000)], 10_000)


def test_morphism_search_builds_only_the_mask_directions_it_reads(monkeypatch):
    built = []
    real = core._order_masks

    def spy(dst, south, above):
        built.append((south, above))
        return real(dst, south, above)

    monkeypatch.setattr(core, "_order_masks", spy)
    pi = perm([2, 5, 1, 4, 3, 6])
    # The west order is read upwards only; 3214's south pairs go both ways.
    assert naive_morphism_count(perm_to_dp(perm([3, 2, 1, 4])), pi) == \
        naive_pattern_count(pi, perm([3, 2, 1, 4]))
    assert sorted(built) == [(False, True), (True, False), (True, True)]
    built.clear()
    assert naive_morphism_count(perm_to_dp(perm([1, 2, 3])), pi) == \
        naive_pattern_count(pi, perm([1, 2, 3]))
    assert sorted(built) == [(False, True), (True, True)]


def test_negative_ground_set_is_rejected():
    with pytest.raises(InvalidInput, match="nonnegative"):
        StrictPoset(-1, frozenset())
    with pytest.raises(InvalidInput):
        double_poset(-1, [], [])
    assert StrictPoset(0, frozenset()).is_total()


def test_closure_idempotent():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(1, 6)
        d = random_double_poset(rng, n)
        p = d.west
        assert transitive_closure(p.pairs, n) == p


def test_reduction_of_chain():
    p = transitive_closure([(0, 1), (1, 2)], 3)
    assert transitive_reduction(p) == frozenset({(0, 1), (1, 2)})


def test_reduction_of_antichain():
    assert transitive_reduction(empty_poset(4)) == frozenset()


def test_reduction_inside_generators():
    # TrRd(Tr(R)) is contained in R for any acyclic R.
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 7)
        order = list(range(n))
        rng.shuffle(order)
        gens = {
            (order[i], order[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        }
        closed = transitive_closure(gens, n)
        assert transitive_reduction(closed) <= gens or \
            transitive_reduction(closed).issubset(closed.pairs & gens | gens)
        assert transitive_reduction(closed).issubset(gens)


def test_closure_of_reduction_is_identity_exhaustive():
    # Every relation on up to 4 elements: StrictPoset accepts exactly the
    # labeled posets (OEIS A001035), its masks spell out the pairs, and
    # covers() agrees with the definition by a triple loop.
    for n, labeled_posets in zip(range(1, 5), (1, 3, 19, 219)):
        pairs_universe = [(a, b) for a in range(n) for b in range(n) if a != b]
        accepted = 0
        for bits in range(1 << len(pairs_universe)):
            rel = frozenset(p for i, p in enumerate(pairs_universe) if bits >> i & 1)
            try:
                p = StrictPoset(n, rel)
            except InvalidInput:
                continue
            accepted += 1
            for a in range(n):
                assert p.above[a] == sum(1 << b for b in range(n) if (a, b) in rel)
                assert p.below[a] == sum(1 << b for b in range(n) if (b, a) in rel)
            assert p.covers() == {
                (a, b) for a, b in rel
                if not any((a, c) in rel and (c, b) in rel for c in range(n))}
            assert transitive_closure(transitive_reduction(p), n) == p
        assert accepted == labeled_posets


# ---------------------------------------------------------- classify

def test_classify_identity_is_twin_tree():
    for n in range(1, 6):
        c = classify(perm_to_dp(perm(range(1, n + 1))))
        assert c.is_twin_tree and c.is_permutation


def test_classify_312_tree_not_twin():
    c = classify(perm_to_dp(perm([3, 1, 2])))
    assert c.is_tree and not c.is_twin


def test_classify_every_permutation_is_tree():
    rng = random.Random(8)
    for _ in range(40):
        sigma = random_perm(rng, rng.randint(1, 7))
        assert classify(perm_to_dp(sigma)).is_tree


def test_twin_tree_iff_identity_or_reversal():
    for n in range(1, 7):
        for vals in itertools.permutations(range(1, n + 1)):
            sigma = Permutation(vals)
            expected = vals == tuple(range(1, n + 1)) or \
                vals == tuple(range(n, 0, -1))
            assert classify(perm_to_dp(sigma)).is_twin_tree == expected


def test_classify_four_element_twin_tree():
    # Path a-b-c-e with both Hasse diagrams equal: built from S/N polytree
    # edges (c->a S), (c->b N), (b->e S) as closures.
    d = double_poset(
        4,
        [(0, 2), (1, 2), (3, 1)],
        [(0, 2), (2, 1), (3, 1)],
    )
    assert classify(d) == Classification(True, True, True, False)


def test_classify_cycle_with_isolated_element_is_not_tree():
    # A diamond plus an isolated element: n - 1 Hasse edges, not connected.
    diamond = [(0, 1), (0, 2), (1, 3), (2, 3)]
    c = classify(double_poset(5, diamond, diamond))
    assert c.is_twin and not c.is_tree and not c.is_twin_tree


def _closed_order_flags(d: DoublePoset) -> Classification:
    """The flags read from the closed orders, the reference for classify:
    Hasse pairs by a search for an element in between, trees by
    union-find, permutations by the number of comparable pairs."""
    def hasse(p):
        return {frozenset((a, b)) for a, b in p.pairs
                if not any((a, c) in p.pairs and (c, b) in p.pairs
                           for c in range(d.n))}

    def is_tree(edges):
        root = list(range(d.n))

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for a, b in map(tuple, edges):
            root[find(a)] = find(b)
        return d.n > 0 and len(edges) == d.n - 1 and \
            len({find(v) for v in range(d.n)}) == 1

    hw, hs = hasse(d.west), hasse(d.south)
    tree = is_tree(hw) and is_tree(hs)
    total = all(2 * len(p.pairs) == d.n * (d.n - 1) for p in (d.west, d.south))
    return Classification(hw == hs, tree, hw == hs and tree, total)


def test_classify_reads_a_tree_off_its_edges():
    # Every SN polytree class on 1-6 nodes: its edges give the flags that
    # the Hasse pairs of its closed double poset give.
    for k in range(1, 7):
        for t in enumerate_snpolytrees(k):
            d = snpolytree_to_dp(t)
            assert classify(t) == classify(d) == _closed_order_flags(d), t


def test_classify_matches_the_closed_orders():
    from patterncount.algebra import all_double_posets

    rng = random.Random(24)
    samples = [d for k in range(4) for d in all_double_posets(k)]
    samples += [random_double_poset(rng, rng.randint(0, 7), rng.random())
                for _ in range(300)]
    samples += [perm_to_dp(random_perm(rng, rng.randint(0, 8)))
                for _ in range(60)]
    for d in samples:
        assert classify(d) == _closed_order_flags(d), d
    assert all(classify(perm_to_dp(random_perm(rng, k))).is_permutation
               for k in range(10))


# ------------------------------------------------------ canonical form

def test_canonical_form_orbit_invariance():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 5)
        d = random_double_poset(rng, n)
        image = list(range(n))
        rng.shuffle(image)
        assert canonical_form(d) == canonical_form(relabel(d, image))


def test_canonical_form_separates_single_edge_sides():
    west_only = double_poset(2, [(0, 1)], [])
    south_only = double_poset(2, [], [(0, 1)])
    assert canonical_form(west_only) != canonical_form(south_only)


def test_canonical_form_antichain_fixed():
    d = DoublePoset(3, empty_poset(3), empty_poset(3))
    assert canonical_form(d) == (3, (), ())


def test_canonical_form_size_cap():
    d = DoublePoset(9, empty_poset(9), empty_poset(9))
    with pytest.raises(TooLargeForCanonicalization):
        canonical_form(d)


def test_restrict():
    d = perm_to_dp(perm([3, 1, 2]))
    r = d.restrict([0, 2])
    assert r.west.pairs == frozenset({(0, 1)})
    assert r.south.pairs == frozenset({(1, 0)})


def test_restrict_rejects_repeated_element():
    with pytest.raises(InvalidInput):
        perm_to_dp(perm([2, 1])).restrict([0, 0])


def test_restrict_rejects_out_of_range_element():
    with pytest.raises(InvalidInput):
        perm_to_dp(perm([2, 1])).restrict([5])
    with pytest.raises(InvalidInput):
        perm_to_dp(perm([2, 1])).restrict([-1])


# ------------------------------------------------------- morphism bound

def _perms_up_to(n):
    return [Permutation(p) for k in range(n + 1)
            for p in itertools.permutations(range(1, k + 1))]


def _two_spine_members(max_n):
    """build_arbo(False, parents) for every parents tuple up to max_n elements."""
    members, todo = [], [()]
    while todo:
        parents = todo.pop()
        arbo = build_arbo(False, parents)
        if arbo.n <= max_n:
            members.append(arbo)
            todo += [parents + (p,) for p in range(arbo.n) if p != 2]
    return members


@pytest.mark.parametrize("posets, size", [
    ([snpolytree_to_dp(t) for k in range(1, 6) for t in enumerate_snpolytrees(k)],
     5),
    ([a.dp for a in [bare_3214(), *_two_spine_members(6), *level5_arbos()]], 6),
], ids=["twin-trees", "members"])
def test_morphism_bound_holds(posets, size):
    perms = _perms_up_to(size)
    for d in posets:
        for pi in perms:
            assert count_morphisms_into_perm(d, pi) <= morphism_bound(d, pi.n)
