import math
import random

import pytest

from patterncount.core import (
    are_isomorphic,
    canonical_form,
    classify,
    morphism_bound,
    perm,
    perm_to_dp,
)
from patterncount.trees import (
    CornerTree,
    MalformedTree,
    NotTwinTree,
    SNPolytree,
    TooLarge,
    UnknownNode,
    ct_to_snpolytree,
    dp_to_snpolytree,
    enumerate_snpolytrees,
    snpolytree_to_ct,
    snpolytree_to_dp,
)
from patterncount import core, trees
from patterncount.trees import _leaf_growths, _tree_certificate


def random_corner_tree(rng, max_nodes=6) -> CornerTree:
    k = rng.randint(1, max_nodes)
    edges = []
    for child in range(1, k):
        parent = rng.randrange(child)
        label = rng.choice(["NE", "NW", "SE", "SW"])
        edges.append((parent, child, label))
    return CornerTree(0, tuple(edges))


def random_polytree(rng, max_nodes=6) -> SNPolytree:
    k = rng.randint(1, max_nodes)
    edges = []
    for b in range(1, k):
        a = rng.randrange(b)
        tail, head = (a, b) if rng.random() < 0.5 else (b, a)
        edges.append((tail, head, rng.choice(["S", "N"])))
    return SNPolytree(tuple(range(k)), tuple(edges))


# ------------------------------------------------------------- psi

def test_single_ne_edge_relations():
    # An NE child must land east and north of the parent, so the double
    # poset puts the parent below the child in both orders.
    ct = CornerTree("r", (("r", "c", "NE"),))
    t = ct_to_snpolytree(ct)
    (tail, head, label) = t.edges[0]
    assert (tail, head, label) == ("c", "r", "S")
    d = snpolytree_to_dp(t)
    assert are_isomorphic(d, perm_to_dp(perm([1, 2])))


def test_psi_all_four_labels_give_expected_orders():
    for label, west_parent_first, south_parent_first in [
        ("NE", True, True),    # parent west of child, parent south of child
        ("NW", False, True),   # child west, parent south
        ("SE", True, False),
        ("SW", False, False),
    ]:
        ct = CornerTree(0, ((0, 1, label),))
        d = snpolytree_to_dp(ct_to_snpolytree(ct))
        t = ct_to_snpolytree(ct)
        order = {node: i for i, node in enumerate(t.nodes)}
        p, c = order[0], order[1]
        assert ((p, c) in d.west.pairs) == west_parent_first
        assert ((p, c) in d.south.pairs) == south_parent_first


def test_psi_four_node_tree_roundtrip():
    ct = CornerTree("r", (
        ("r", "a", "NE"),
        ("r", "b", "NW"),
        ("b", "c", "SW"),
        ("b", "d", "NW"),
    ))
    t = ct_to_snpolytree(ct)
    assert snpolytree_to_ct(t, "r") == ct


def test_singleton_roundtrip():
    ct = CornerTree("x", ())
    t = ct_to_snpolytree(ct)
    assert t.nodes == ("x",) and t.edges == ()
    assert snpolytree_to_ct(t, "x") == ct


# ------------------------------------------------------------ lambda

def test_three_rootings_of_two_n_edge_polytree():
    t = SNPolytree(("a", "b", "c"), (("c", "a", "N"), ("c", "b", "N")))
    at_c = snpolytree_to_ct(t, "c")
    assert sorted(lab for _, _, lab in at_c.edges) == ["NW", "NW"]
    at_a = snpolytree_to_ct(t, "a")
    assert dict(((p, c), lab) for p, c, lab in at_a.edges) == {
        ("a", "c"): "SE", ("c", "b"): "NW"}
    at_b = snpolytree_to_ct(t, "b")
    assert dict(((p, c), lab) for p, c, lab in at_b.edges) == {
        ("b", "c"): "SE", ("c", "a"): "NW"}


def test_roundtrip_ct_psi_lambda():
    rng = random.Random(21)
    for _ in range(100):
        ct = random_corner_tree(rng)
        assert snpolytree_to_ct(ct_to_snpolytree(ct), ct.root) == ct


def test_roundtrip_polytree_lambda_psi():
    rng = random.Random(22)
    for _ in range(100):
        t = random_polytree(rng)
        for v in t.nodes:
            back = ct_to_snpolytree(snpolytree_to_ct(t, v))
            assert set(back.edges) == set(t.edges)


def test_unknown_root():
    t = SNPolytree((0, 1), ((0, 1, "S"),))
    with pytest.raises(UnknownNode):
        snpolytree_to_ct(t, 7)


# ------------------------------------------------------------- theta

def test_theta_two_n_edges():
    t = SNPolytree(("a", "b", "c"), (("c", "a", "N"), ("c", "b", "N")))
    d = snpolytree_to_dp(t)
    # Nodes sorted: a=0, b=1, c=2.  Arrows target a and b (both west of c);
    # N labels put c below both.
    assert d.west.pairs == frozenset({(0, 2), (1, 2)})
    assert d.south.pairs == frozenset({(2, 0), (2, 1)})
    assert classify(d).is_twin_tree


def test_theta_single_s_edge():
    t = SNPolytree((0, 1), ((1, 0, "S"),))
    d = snpolytree_to_dp(t)
    assert d.west.pairs == frozenset({(0, 1)})
    assert d.south.pairs == frozenset({(0, 1)})


def test_theta_always_twin_tree():
    rng = random.Random(23)
    for _ in range(200):
        t = random_polytree(rng)
        assert classify(snpolytree_to_dp(t)).is_twin_tree


# ----------------------------------------------------------- theta inv

def test_theta_inverse_roundtrip():
    rng = random.Random(24)
    for _ in range(200):
        t = random_polytree(rng)
        d = snpolytree_to_dp(t)
        back = dp_to_snpolytree(d)
        assert are_isomorphic(snpolytree_to_dp(back), d)


def test_identity2_gives_single_s_edge():
    d = perm_to_dp(perm([1, 2]))
    t = dp_to_snpolytree(d)
    assert len(t.edges) == 1 and t.edges[0][2] == "S"


def test_312_is_not_twin_tree():
    with pytest.raises(NotTwinTree):
        dp_to_snpolytree(perm_to_dp(perm([3, 1, 2])))


# --------------------------------------------------------- enumeration

def test_enumerate_sizes_1_and_2():
    assert len(enumerate_snpolytrees(1)) == 1
    assert len(enumerate_snpolytrees(2)) == 2


def test_polytree_class_counts():
    assert [len(enumerate_snpolytrees(k)) for k in range(1, 7)] == \
        [1, 2, 10, 52, 331, 2272]


def _check_certificate_matches_canonical_form(k):
    # Every leaf-grown candidate on k nodes: equal certificates iff
    # isomorphic double posets.
    pairs = set()
    for t in enumerate_snpolytrees(k - 1):
        for edges in _leaf_growths(t.edges, k - 1):
            d = snpolytree_to_dp(SNPolytree(tuple(range(k)), edges))
            pairs.add((_tree_certificate(edges, k), canonical_form(d)))
    certs = {c for c, _ in pairs}
    forms = {f for _, f in pairs}
    assert len(certs) == len(forms) == len(pairs)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_certificate_matches_canonical_form(k):
    _check_certificate_matches_canonical_form(k)


@pytest.mark.slow
def test_certificate_matches_canonical_form_six_nodes():
    _check_certificate_matches_canonical_form(6)


def test_enumeration_computes_no_canonical_form(monkeypatch):
    def refuse(d):
        raise AssertionError("canonical_form called")

    monkeypatch.setattr(trees, "canonical_form", refuse)
    monkeypatch.setattr(core, "canonical_form", refuse)
    assert len(enumerate_snpolytrees(5)) == 331


def test_enumerate_all_twin_trees_and_distinct():
    for k in range(1, 6):
        ts = enumerate_snpolytrees(k)
        keys = [canonical_form(snpolytree_to_dp(t)) for t in ts]
        assert len(set(keys)) == len(keys)
        assert all(classify(snpolytree_to_dp(t)).is_twin_tree for t in ts)


def test_enumerate_deterministic():
    a = [t.edges for t in enumerate_snpolytrees(4)]
    b = [t.edges for t in enumerate_snpolytrees(4)]
    assert a == b


def test_enumerate_cap():
    with pytest.raises(TooLarge):
        enumerate_snpolytrees(7)


def test_malformed_trees_rejected():
    with pytest.raises(MalformedTree):
        CornerTree(0, ((0, 1, "NE"), (2, 1, "NW")))  # two parents
    with pytest.raises(MalformedTree):
        CornerTree(0, ((1, 2, "XX"),))
    with pytest.raises(MalformedTree):
        SNPolytree((0, 1, 2), ((0, 1, "S"),))  # disconnected
    with pytest.raises(MalformedTree):
        SNPolytree((0, 1), ((0, 1, "S"), (1, 0, "N")))  # parallel edge


@pytest.mark.parametrize("edges", [
    ((0, 1, "S"), (1, 0, "N"), (2, 3, "S")),  # parallel edge
    ((0, 1, "S"), (1, 2, "S"), (2, 0, "N")),  # cycle
    ((0, 0, "S"), (1, 2, "N"), (2, 3, "S")),  # loop
], ids=["parallel", "cycle", "loop"])
def test_tree_edge_count_without_tree_rejected(edges):
    # n - 1 edges, so only the connectivity check can reject them.
    with pytest.raises(MalformedTree):
        SNPolytree((0, 1, 2, 3), edges)


@pytest.mark.parametrize("edges", [
    ((0, 1, "NE"), (2, 3, "SW"), (3, 2, "NW")),  # cycle away from the root
    ((0, 1, "NE"), (1, 0, "SW")),  # edge into the root
    ((0, 1, "NE"), (5, 6, "SW")),  # parent the root does not reach
], ids=["cycle", "into-root", "unreached-parent"])
def test_corner_tree_walk_rejects(edges):
    with pytest.raises(MalformedTree):
        CornerTree(0, edges)


def test_corner_tree_stored_walk():
    edges = (("r", "a", "SE"), ("a", "b", "NE"), ("a", "c", "NW"),
             ("r", "d", "SW"))
    ct = CornerTree("r", edges)
    other = CornerTree("r", edges[::-1])
    # The stored walk is no field: edge order changes none of ==, hash, repr.
    assert ct == other and hash(ct) == hash(other) and repr(ct) == repr(other)
    order = ct.children_first
    assert sorted(order) == sorted(ct.nodes) and ct.size() == 5
    for parent, child, _ in edges:
        assert order.index(child) < order.index(parent)
    assert ct.children("a") == (("b", "NE"), ("c", "NW"))
    assert ct.children("b") == () and ct.children("d") == ()


def _closed_order_bound(d, n):
    """morphism_bound read off the closed orders: the down-set (up-set)
    sizes from the order masks of each order that is a forest rooted at its
    maxima (minima)."""
    hooks = 1
    for order in (d.west, d.south):
        covers = order.covers()
        for ends, masks in (([a for a, _ in covers], order.below),
                            ([b for _, b in covers], order.above)):
            if len(ends) == len(set(ends)):
                hooks = max(hooks, math.prod(m.bit_count() + 1 for m in masks))
    return n ** d.n // hooks


def test_edge_read_bound_equals_closed_order_bound():
    # A tree's Hasse pairs are its edges, so its bound closes no order.  A
    # corner tree with one label is a forest rooted at one end in both orders.
    rng = random.Random(23)
    polytrees = [t for k in range(1, 7) for t in enumerate_snpolytrees(k)]
    assert len(polytrees) == 2668
    for _ in range(200):
        labels = rng.choice([["NE"], ["NW"], ["SE"], ["SW"],
                             ["NE", "NW", "SE", "SW"]])
        edges = tuple((rng.randrange(c), c, rng.choice(labels))
                      for c in range(1, rng.randint(1, 60)))
        polytrees.append(ct_to_snpolytree(CornerTree(0, edges)))
    for t in polytrees:
        d = snpolytree_to_dp(t)
        for n in (1, 7, 100_000):
            assert morphism_bound(t, n) == morphism_bound(d, n) \
                == _closed_order_bound(d, n), (t, n)
