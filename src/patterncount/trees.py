"""Corner trees, SN polytrees, and the conversions between them.

A corner tree is a rooted tree whose edges carry one of the four corner
labels NE/NW/SE/SW, read as "where the child sits relative to the parent"
inside a permutation plot.  Forgetting the root leaves a directed tree
whose arrows all point at the west endpoint of each edge and whose label
records whether that endpoint is south or north of the other one: an SN
polytree.  SN polytrees in turn are exactly the twin tree double posets.

Polytree edges are stored as (tail, head, label) with head = the arrow's
target, i.e. the west element of the pair.  Getting this direction wrong
is the classic bug here, so the conversions below are all derived from the
double-poset semantics and pinned by round-trip tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    DoublePoset,
    canonical_form,
    classify,
    double_poset,
)

CORNER_LABELS = ("NE", "NW", "SE", "SW")
SN_LABELS = ("S", "N")


class UnknownNode(ValueError):
    pass


class NotTwinTree(ValueError):
    pass


class TooLarge(ValueError):
    pass


class MalformedTree(ValueError):
    pass


@dataclass(frozen=True)
class CornerTree:
    """Rooted tree with edges (parent, child, label in NE/NW/SE/SW)."""

    root: object
    edges: tuple[tuple[object, object, str], ...]

    def __post_init__(self):
        # Edge order is irrelevant; normalize so equality is semantic.
        object.__setattr__(self, "edges", tuple(
            sorted(self.edges, key=lambda e: (repr(e[0]), repr(e[1])))))
        parents = {}
        for parent, child, label in self.edges:
            if label not in CORNER_LABELS:
                raise MalformedTree(f"bad corner label {label!r}")
            if child in parents or child == self.root:
                raise MalformedTree(f"node {child!r} has two parents or is the root")
            parents[child] = parent
        # Every non-root node must reach the root through parent edges.
        for node in parents:
            seen = set()
            while node != self.root:
                if node in seen or node not in parents:
                    raise MalformedTree("edges do not form a tree on the root")
                seen.add(node)
                node = parents[node]

    @property
    def nodes(self) -> frozenset:
        out = {self.root}
        for parent, child, _ in self.edges:
            out.add(parent)
            out.add(child)
        return frozenset(out)

    def children(self, node) -> list[tuple[object, str]]:
        return [(c, lab) for p, c, lab in self.edges if p == node]

    def size(self) -> int:
        return len(self.nodes)

    def labels(self) -> set[str]:
        return {lab for _, _, lab in self.edges}


@dataclass(frozen=True)
class SNPolytree:
    """Directed tree with S/N edge labels; head is the arrow target."""

    nodes: tuple
    edges: tuple[tuple[object, object, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(
            sorted(self.edges, key=lambda e: (repr(e[0]), repr(e[1])))))
        nodeset = set(self.nodes)
        if len(nodeset) != len(self.nodes):
            raise MalformedTree("repeated node")
        degree = 0
        seen_pairs = set()
        for tail, head, label in self.edges:
            if label not in SN_LABELS:
                raise MalformedTree(f"bad SN label {label!r}")
            if tail not in nodeset or head not in nodeset:
                raise MalformedTree(f"edge {tail!r}->{head!r} uses unknown node")
            key = frozenset((tail, head))
            if len(key) == 1 or key in seen_pairs:
                raise MalformedTree("loop or parallel edge")
            seen_pairs.add(key)
            degree += 1
        if degree != len(self.nodes) - 1 or not self._connected():
            raise MalformedTree("underlying undirected graph is not a tree")

    def _connected(self) -> bool:
        if not self.nodes:
            return False
        adj = {v: [] for v in self.nodes}
        for tail, head, _ in self.edges:
            adj[tail].append(head)
            adj[head].append(tail)
        stack = [self.nodes[0]]
        seen = {self.nodes[0]}
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.nodes)

    def size(self) -> int:
        return len(self.nodes)


def ct_to_snpolytree(ct: CornerTree) -> SNPolytree:
    """Forget the root: arrows point at the west endpoint of each edge.

    For an edge (parent, child): E-labels put the child east, so the arrow
    points at the parent; W-labels point it at the child.  The S/N label
    records the head's vertical position relative to the tail.
    """
    edges = []
    for parent, child, label in ct.edges:
        if label == "NE":
            edges.append((child, parent, "S"))
        elif label == "SE":
            edges.append((child, parent, "N"))
        elif label == "NW":
            edges.append((parent, child, "N"))
        else:  # SW
            edges.append((parent, child, "S"))
    return SNPolytree(tuple(sorted(ct.nodes, key=repr)), tuple(edges))


def snpolytree_to_ct(t: SNPolytree, v) -> CornerTree:
    """Root the polytree at v and restore corner labels."""
    if v not in t.nodes:
        raise UnknownNode(f"{v!r} is not a node of the polytree")
    adj: dict[object, list[tuple[object, object, object, str]]] = {
        u: [] for u in t.nodes}
    for tail, head, label in t.edges:
        adj[tail].append((head, tail, head, label))
        adj[head].append((tail, tail, head, label))
    edges = []
    seen = {v}
    stack = [v]
    while stack:
        parent = stack.pop()
        for child, tail, head, label in adj[parent]:
            if child in seen:
                continue
            seen.add(child)
            stack.append(child)
            if head == parent:  # arrow points toward the parent
                corner = "SE" if label == "N" else "NE"
            else:  # arrow points toward the child
                corner = "NW" if label == "N" else "SW"
            edges.append((parent, child, corner))
    return CornerTree(v, tuple(edges))


def snpolytree_to_dp(t: SNPolytree) -> DoublePoset:
    """Close the edge relations into a twin tree double poset.

    Per edge the head is west of the tail; the south relation follows the
    label: S puts the head below the tail, N above.
    """
    idx = {node: i for i, node in enumerate(t.nodes)}
    west = []
    south = []
    for tail, head, label in t.edges:
        west.append((idx[head], idx[tail]))
        if label == "S":
            south.append((idx[head], idx[tail]))
        else:
            south.append((idx[tail], idx[head]))
    return double_poset(len(t.nodes), west, south)


def dp_to_snpolytree(d: DoublePoset) -> SNPolytree:
    """Inverse of snpolytree_to_dp, defined on twin tree double posets."""
    if not classify(d).is_twin_tree:
        raise NotTwinTree("double poset is not a twin tree")
    # Each west cover a <_West b is also a south cover, one way or the
    # other (twin); the arrow targets a, labelled by where a sits southwards.
    edges = tuple((b, a, "S" if d.south.above[a] >> b & 1 else "N")
                  for a, b in d.west.covers())
    return SNPolytree(tuple(range(d.n)), edges)


# The most elements that the brute-force enumerations here and in algebra take.
_ENUM_CAP = 6


def enumerate_snpolytrees(k: int) -> list[SNPolytree]:
    """One representative per isomorphism class of SN polytrees on k nodes.

    Enumerates free tree shapes, decorates every edge with the four
    direction/label choices, and deduplicates through the canonical form
    of the associated double poset.
    """
    if k > _ENUM_CAP:
        raise TooLarge(f"k={k} exceeds enumeration cap {_ENUM_CAP}")
    if k <= 0:
        return []
    out = []
    seen = set()
    for shape in _free_tree_shapes(k):
        m = len(shape)
        for direction_bits in range(1 << m):
            for label_bits in range(1 << m):
                edges = []
                for i, (a, b) in enumerate(shape):
                    tail, head = (a, b) if direction_bits >> i & 1 else (b, a)
                    edges.append((tail, head, "S" if label_bits >> i & 1 else "N"))
                t = SNPolytree(tuple(range(k)), tuple(edges))
                key = canonical_form(snpolytree_to_dp(t))
                if key not in seen:
                    seen.add(key)
                    out.append(t)
    return out


@lru_cache(maxsize=None)
def _free_tree_shapes(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Edge lists of the free (unlabeled) trees on k nodes, one per shape."""
    shapes = {}
    # Parent arrays with parent[c] < c are exactly the trees on 0..k-1 in
    # which every path from 0 increases, and every free tree has such a
    # labelling (number it breadth-first); dedup by unlabeled certificate.
    for parents in itertools.product(*(range(c) for c in range(1, k))):
        edges = tuple((parents[child - 1], child) for child in range(1, k))
        shapes.setdefault(_tree_certificate(edges, k), edges)
    return tuple(shapes.values())


def _tree_certificate(edges, k) -> str:
    """AHU canonical string of an unlabeled free tree, rooted at its center."""
    adj = {i: set() for i in range(k)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    # Peel leaves to find the 1- or 2-element center.
    degrees = {v: len(ws) for v, ws in adj.items()}
    layer = [v for v in adj if degrees[v] <= 1]
    remaining = k
    removed = set()
    while remaining > 2:
        nxt = []
        for v in layer:
            removed.add(v)
            remaining -= 1
            for w in adj[v]:
                if w not in removed:
                    degrees[w] -= 1
                    if degrees[w] == 1:
                        nxt.append(w)
        layer = nxt
    center = [v for v in adj if v not in removed]

    def encode(v, parent) -> str:
        subs = sorted(encode(w, v) for w in adj[v] if w != parent)
        return "(" + "".join(subs) + ")"

    if len(center) == 1:
        return encode(center[0], None)
    c1, c2 = center
    return "|".join(sorted((encode(c1, c2), encode(c2, c1))))
