"""Corner trees, SN polytrees, and the conversions between them.

A corner tree is a rooted tree whose edges carry one of the four corner
labels NE/NW/SE/SW, read as "where the child sits relative to the parent"
inside a permutation plot.  Forgetting the root leaves a directed tree
whose arrows all point at the west endpoint of each edge and whose label
records whether that endpoint is south or north of the other one: an SN
polytree.  SN polytrees in turn are exactly the twin tree double posets.

A CornerTree checks its edges by one walk from the root, which also stores
each node's children and an order listing every node after its children.
The counters walk a tree along that order, without recursion, so trees of
any depth count.

Polytree edges are stored as (tail, head, label) with head = the arrow's
target, i.e. the west element of the pair.  Getting this direction wrong
is the classic bug here, so the conversions below are all derived from the
double-poset semantics and pinned by round-trip tests.

enumerate_snpolytrees lists the classes on k nodes by leaf growth from
the classes on k - 1 nodes, deduplicated by a labelled AHU code of the
tree (_tree_certificate) rather than by the brute-force canonical_form of
core, which stays the oracle and serves general double posets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DoublePoset,
    _is_tree,
    # Unused here; perfbench's tracer wraps trees.canonical_form.
    canonical_form,  # noqa: F401
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
    """Rooted tree with edges (parent, child, label in NE/NW/SE/SW).

    The read-only tuple children_first lists every node after all of its
    children; it and each node's children are computed once, by the walk
    from the root that checks the edges, and are not fields, so ==, hash
    and repr ignore them."""

    root: object
    edges: tuple[tuple[object, object, str], ...]

    def __post_init__(self):
        # Edge order is irrelevant; normalize so equality is semantic.
        object.__setattr__(self, "edges", tuple(
            sorted(self.edges, key=lambda e: (repr(e[0]), repr(e[1])))))
        kids: dict = {}
        has_parent = set()
        for parent, child, label in self.edges:
            if label not in CORNER_LABELS:
                raise MalformedTree(f"bad corner label {label!r}")
            if child in has_parent or child == self.root:
                raise MalformedTree(f"node {child!r} has two parents or is the root")
            has_parent.add(child)
            kids.setdefault(parent, []).append((child, label))
        # With one parent per node and none for the root, the walk from the
        # root meets each node once; it misses the nodes on a cycle and below
        # a parent that the root does not reach.
        order = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(child for child, _ in kids.get(node, ()))
        if len(order) != len(self.edges) + 1:
            raise MalformedTree("edges do not form a tree on the root")
        # Reversed, the depth-first preorder puts each subtree before its root.
        object.__setattr__(self, "children_first", tuple(reversed(order)))
        object.__setattr__(self, "_kids",
                           {node: tuple(cs) for node, cs in kids.items()})

    @property
    def nodes(self) -> frozenset:
        return frozenset(self.children_first)

    def children(self, node) -> tuple[tuple[object, str], ...]:
        return self._kids.get(node, ())

    def size(self) -> int:
        return len(self.children_first)

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
        for tail, head, label in self.edges:
            if label not in SN_LABELS:
                raise MalformedTree(f"bad SN label {label!r}")
            if tail not in nodeset or head not in nodeset:
                raise MalformedTree(f"edge {tail!r}->{head!r} uses unknown node")
        if not _is_tree(self.nodes, [(tail, head) for tail, head, _ in self.edges]):
            raise MalformedTree("underlying undirected graph is not a tree")

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


# The most elements that the enumerations here and in algebra take.
_ENUM_CAP = 6


def enumerate_snpolytrees(k: int) -> list[SNPolytree]:
    """One representative per isomorphism class of SN polytrees on k nodes.

    Grows the classes one leaf at a time: every class on j + 1 nodes comes
    from one on j nodes by hanging node j at some node, since every tree
    has a leaf whose removal leaves a tree.  One candidate is kept per
    labelled tree certificate; no canonical_form is computed.
    """
    if k > _ENUM_CAP:
        raise TooLarge(f"k={k} exceeds enumeration cap {_ENUM_CAP}")
    if k <= 0:
        return []
    reps: list[tuple] = [()]  # edge tuples of the classes on j nodes
    for j in range(1, k):
        grown = {}
        for edges in reps:
            for cand in _leaf_growths(edges, j):
                grown.setdefault(_tree_certificate(cand, j + 1), cand)
        reps = list(grown.values())
    return [SNPolytree(tuple(range(k)), edges) for edges in reps]


def _leaf_growths(edges, j):
    """The trees that hang new node j at a node of `edges` (nodes 0..j-1):
    (v, j) or (j, v), labelled S or N, for every node v."""
    for v in range(j):
        for tail, head in ((v, j), (j, v)):
            for label in SN_LABELS:
                yield edges + ((tail, head, label),)


def _tree_certificate(edges, k) -> str:
    """AHU canonical string of an SN polytree on nodes 0..k-1, rooted at its
    center; edges are (tail, head, label).  Two trees get the same string
    iff they are isomorphic as SN polytrees."""
    adj = {i: [] for i in range(k)}
    for tail, head, label in edges:
        # Each edge as seen from either end: arrow out of it or into it.
        adj[tail].append((head, ">" + label))
        adj[head].append((tail, "<" + label))
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
            for w, _ in adj[v]:
                if w not in removed:
                    degrees[w] -= 1
                    if degrees[w] == 1:
                        nxt.append(w)
        layer = nxt
    center = [v for v in adj if v not in removed]

    def encode(v, parent) -> str:
        subs = sorted(kind + encode(w, v) for w, kind in adj[v] if w != parent)
        return "(" + "".join(subs) + ")"

    if len(center) == 1:
        return encode(center[0], None)
    # Two centers: read the tree from either end of the central edge.
    return min(encode(a, b) + kind + encode(b, a)
               for a, b in (center, center[::-1])
               for w, kind in adj[a] if w == b)
