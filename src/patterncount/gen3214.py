"""Block-decomposition counting for the generalized-3214 family.

A family member is a double poset built from the pattern 3214: a spine
one < two < three (west) with three < two < one (south), a global maximum
`four` above everything in both orders, and any number of subtrees
dangling strictly south-west from spine vertices.  Removing `four` leaves
a twin tree double poset T whose west-maximal vertex is `three` and whose
south-maximal vertex is `one`.

Morphisms into a permutation are counted by splitting them, relative to a
grid of position and value blocks of width m, into three disjoint types:

* type A:       f(one) and f(four) in different value blocks;
* type B not A: f(three), f(four) in different position blocks but
                f(one), f(four) in the same value block;
* the rest:     both pairs in the same block (counted with box sums).

Each type-A/B pass restarts a gated streaming scan per block; the box
count fills one 2-D accumulator per dangle subtree and sums products of
box queries.  With m ~ n^(1/3) the total work is ~n^(5/3) up to logs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .core import DoublePoset, Permutation, classify, double_poset, swap
from .counting import StreamWestCounter
from .indexstructs import ProductTree
from .trees import CornerTree, dp_to_snpolytree, snpolytree_to_ct


class ArboValidationError(ValueError):
    """Base class for family-membership violations."""


class NoGlobalMax(ArboValidationError):
    pass


class RestrictionNotTwinTree(ArboValidationError):
    pass


class BadSpine(ArboValidationError):
    pass


class BadDangleOrientation(ArboValidationError):
    pass


class ClosureMismatch(ArboValidationError):
    pass


@dataclass(frozen=True)
class ArboNE:
    """A validated family member; construct through validate_arbo."""

    dp: DoublePoset
    one: int
    two: int | None
    three: int
    four: int

    @property
    def n(self) -> int:
        return self.dp.n


@dataclass(frozen=True)
class ArboDecomposition:
    west_tree: CornerTree
    inv_west_tree: CornerTree
    dangle3_trees: tuple[CornerTree, ...]
    dangle1_trees: tuple[CornerTree, ...]
    dangle2_tree: CornerTree | None


def validate_arbo(dp: DoublePoset, one: int, three: int, four: int,
                  two: int | None = None) -> ArboNE:
    """Check every family invariant; raises a named violation on failure."""
    n = dp.n
    anchors = [one, three, four] + ([two] if two is not None else [])
    if len(set(anchors)) != len(anchors) or \
            any(not 0 <= a < n for a in anchors):
        raise BadSpine(f"anchors {anchors} must be distinct elements of 0..{n - 1}")

    for v in range(n):
        if v == four:
            continue
        if (v, four) not in dp.west.pairs or (v, four) not in dp.south.pairs:
            raise NoGlobalMax(f"element {v} is not below {four} in both orders")

    rest = [v for v in range(n) if v != four]
    t = dp.restrict(rest)
    idx = {v: i for i, v in enumerate(rest)}
    if not classify(t).is_twin_tree:
        raise RestrictionNotTwinTree("removing the top element must leave a twin tree")

    i1, i3 = idx[one], idx[three]
    i2 = idx[two] if two is not None else None
    for v in range(t.n):
        if v != i3 and (v, i3) not in t.west.pairs:
            raise BadSpine(f"{three} is not the west maximum of the restriction")
        if v != i1 and (v, i1) not in t.south.pairs:
            raise BadSpine(f"{one} is not the south maximum of the restriction")

    hasse = {frozenset(e) for e in t.west.covers()}
    adj: dict[int, set[int]] = {v: set() for v in range(t.n)}
    for e in hasse:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    path = _tree_path(adj, i1, i3)
    expected = [i1, i3] if i2 is None else [i1, i2, i3]
    if path != expected:
        raise BadSpine(f"tree path from one to three is {path}, expected {expected}")
    for lo, hi in zip(expected, expected[1:]):
        if (lo, hi) not in t.west.pairs or (hi, lo) not in t.south.pairs:
            raise BadSpine("spine must increase westwards and decrease southwards")

    spine = set(expected)
    depth = _distances_from(adj, spine)
    for e in hasse:
        a, b = tuple(e)
        if a in spine and b in spine:
            continue
        child, parent = (a, b) if depth[a] > depth[b] else (b, a)
        if (child, parent) not in t.west.pairs or (child, parent) not in t.south.pairs:
            raise BadDangleOrientation(
                f"edge {{{a}, {b}}} must point away from the spine, south-west")

    # Defensive: the full orders must be the restriction plus the global max.
    exp_west = {(a, b) for a, b in dp.west.pairs if a != four and b != four}
    exp_west |= {(v, four) for v in range(n) if v != four}
    exp_south = {(a, b) for a, b in dp.south.pairs if a != four and b != four}
    exp_south |= {(v, four) for v in range(n) if v != four}
    if dp.west.pairs != frozenset(exp_west) or dp.south.pairs != frozenset(exp_south):
        raise ClosureMismatch("orders carry relations beyond the tree and the top element")

    return ArboNE(dp, one, two, three, four)


def _tree_path(adj: dict[int, set[int]], a: int, b: int) -> list[int]:
    prev = {a: None}
    stack = [a]
    while stack:
        u = stack.pop()
        if u == b:
            break
        for w in adj[u]:
            if w not in prev:
                prev[w] = u
                stack.append(w)
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return path[::-1]


def _distances_from(adj: dict[int, set[int]], sources: set[int]) -> dict[int, int]:
    dist = {v: 0 for v in sources}
    frontier = list(sources)
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


@lru_cache(maxsize=1024)
def decompose(arbo: ArboNE) -> ArboDecomposition:
    """Corner trees driving the three counting passes.

    west_tree roots the tree part at `three`, which forces all labels west;
    inv_west_tree does the same for the swapped orders rooted at `one` and
    is scanned over the inverse permutation.  Dangle subtrees are split off
    for the box pass.
    """
    rest = [v for v in range(arbo.n) if v != arbo.four]
    idx = {v: i for i, v in enumerate(rest)}
    t = arbo.dp.restrict(rest)
    i1, i3 = idx[arbo.one], idx[arbo.three]
    i2 = idx[arbo.two] if arbo.two is not None else None

    west_tree = snpolytree_to_ct(dp_to_snpolytree(t), i3)
    inv_west_tree = snpolytree_to_ct(dp_to_snpolytree(swap(t)), i1)
    assert west_tree.labels() <= {"NW", "SW"}
    assert inv_west_tree.labels() <= {"NW", "SW"}

    def subtree(node) -> CornerTree:
        keep_edges = []
        stack = [node]
        while stack:
            u = stack.pop()
            for c, lab in west_tree.children(u):
                keep_edges.append((u, c, lab))
                stack.append(c)
        return CornerTree(node, tuple(keep_edges))

    spine_next = {i3: i2 if i2 is not None else i1}
    if i2 is not None:
        spine_next[i2] = i1
    dangle3 = tuple(subtree(c) for c, lab in west_tree.children(i3)
                    if c != spine_next[i3])
    dangle1 = tuple(subtree(c) for c, _ in west_tree.children(i1))
    dangle2_tree = None
    if i2 is not None:
        inner = []
        stack = [i2]
        while stack:
            u = stack.pop()
            for c, lab in west_tree.children(u):
                if u == i2 and c == i1:
                    continue
                inner.append((u, c, lab))
                stack.append(c)
        dangle2_tree = CornerTree(i2, tuple(inner))
    return ArboDecomposition(west_tree, inv_west_tree, dangle3, dangle1, dangle2_tree)


def _cube_root_block(n: int) -> int:
    r = max(1, round(n ** (1 / 3)))
    while r ** 3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return max(1, r)


def morphism_bound(arbo: ArboNE, n: int) -> int:
    """A bound on |Mor(arbo, pi)| for every permutation pi of length n.

    A morphism is strictly increasing along the west order, a rooted tree
    with `four` on top.  Of the n^k maps, at most a fraction 1/prod(|down-set
    of v|) do that (the hook-length argument for forests).  For a chain the
    bound is n^k / k!, just above C(n, k).
    """
    below = Counter(b for _, b in arbo.dp.west.pairs)
    return n ** arbo.n // math.prod(below[v] + 1 for v in range(arbo.n))


# ------------------------------------------------------------- type A

def _type_a_block(pi: Permutation, tree: CornerTree, row: int, m: int) -> int:
    counter = StreamWestCounter(tree, pi.n)
    gate_total = 0
    out = 0
    hi = row + m
    for x, y in enumerate(pi.zero_indexed()):
        if y < row:
            gate_total += counter.process(x, y)
        elif y < hi:
            out += gate_total
    return out


def count_type_a(pi: Permutation, arbo: ArboNE, m: int, method: str = "auto") -> int:
    """Morphisms whose one- and four-images lie in different value blocks.

    One gated stream per value block: points below the block feed the tree
    scan, points inside the block act as candidates for `four` and collect
    the running total of root placements to their west.
    """
    n = pi.n
    if n == 0:
        return 0
    dec = decompose(arbo)
    if method != "exact":
        from . import _fast

        return _fast.count_type_a(pi, dec.west_tree, m, morphism_bound(arbo, n))
    return sum(_type_a_block(pi, dec.west_tree, r, m) for r in range(0, n, m))


# ------------------------------------------------------ type B not A

def _type_b_block(inv_vals: tuple[int, ...], tree: CornerTree, col: int,
                  m: int) -> int:
    n = len(inv_vals)
    counter = StreamWestCounter(tree, n)
    gate_total = 0
    snapshot = 0
    out = 0
    hi = col + m
    for s in range(n):
        if s % m == 0:
            snapshot = gate_total
        x = inv_vals[s]
        if x < col:
            gate_total += counter.process(s, x)
        elif x < hi:
            out += gate_total - snapshot
    return out


def count_type_b_not_a(pi: Permutation, arbo: ArboNE, m: int,
                       method: str = "auto") -> int:
    """Morphisms with three/four in different position blocks and one/four
    in the same value block.

    Runs on the inverse permutation with the swapped tree rooted at `one`:
    the scan index is the original value, the gate filters original
    positions below the block, and a snapshot at each value-block boundary
    keeps only root placements inside the candidate's own value block.
    """
    n = pi.n
    if n == 0:
        return 0
    dec = decompose(arbo)
    if method != "exact":
        from . import _fast

        return _fast.count_type_b_not_a(pi, dec.inv_west_tree, m,
                                        morphism_bound(arbo, n))
    inv_vals = pi.inverse().zero_indexed()
    return sum(_type_b_block(inv_vals, dec.inv_west_tree, c, m)
               for c in range(0, n, m))


# ---------------------------------------------------------------- box

def dangle_weights(pi: Permutation, tree: CornerTree) -> list[int]:
    """Ungated stream root values: placements of the subtree at each point."""
    counter = StreamWestCounter(tree, pi.n)
    return [counter.process(x, y) for x, y in enumerate(pi.zero_indexed())]


def count_box(pi: Permutation, arbo: ArboNE, m: int, method: str = "auto") -> int:
    """Morphisms with both anchor pairs inside single blocks.

    Fills one 2-D accumulator per dangle subtree with streaming placement
    counts, then for every candidate image of `four` pairs the in-block
    candidates for `three` and `one` and multiplies box sums.
    """
    n = pi.n
    if n == 0:
        return 0
    dec = decompose(arbo)
    if method != "exact":
        from . import _fast

        return _fast.count_box(pi, dec, m, morphism_bound(arbo, n))
    vals = pi.zero_indexed()
    inv = pi.inverse().zero_indexed()

    def fill(tree: CornerTree) -> ProductTree:
        box = ProductTree(n)
        for x, w in enumerate(dangle_weights(pi, tree)):
            box.add(x, vals[x], w)
        return box

    d3_boxes = [fill(t) for t in dec.dangle3_trees]
    d1_boxes = [fill(t) for t in dec.dangle1_trees]
    d2_box = fill(dec.dangle2_tree) if dec.dangle2_tree is not None else None

    total = 0
    for x4 in range(n):
        y4 = vals[x4]
        col = x4 - x4 % m
        row = y4 - y4 % m
        d1_cache = {}
        for x3 in range(col, x4):
            y3 = vals[x3]
            d3 = 1
            for box in d3_boxes:
                d3 *= box.sum_box(0, x3, 0, y3)
                if not d3:
                    break
            if not d3:
                continue
            for y1 in range(max(row, y3 + 1), y4):
                x1 = inv[y1]
                if x1 >= x3:
                    continue
                if y1 in d1_cache:
                    d1 = d1_cache[y1]
                else:
                    d1 = 1
                    for box in d1_boxes:
                        d1 *= box.sum_box(0, x1, 0, y1)
                        if not d1:
                            break
                    d1_cache[y1] = d1
                if not d1:
                    continue
                if d2_box is None:
                    b2 = 1
                else:
                    b2 = d2_box.sum_box(x1 + 1, x3, y3 + 1, y1)
                total += d3 * d1 * b2
    return total


def count_gen_3214(pi: Permutation, arbo: ArboNE, m: int | None = None,
                   method: str = "auto") -> int:
    """Total morphism count: the three types partition Mor for any m.

    method="exact" runs the streaming reference passes, kept as oracles;
    "auto" and "fast" run the numpy passes, which are exact as well.
    """
    if pi.n == 0:
        return 0
    if m is None:
        m = _cube_root_block(pi.n)
    if m < 1:
        raise ValueError(f"block size must be at least 1, got {m}")
    return (count_type_a(pi, arbo, m, method)
            + count_type_b_not_a(pi, arbo, m, method)
            + count_box(pi, arbo, m, method))


# ----------------------------------------------------- family builders

def build_arbo(with_two: bool, dangle_parents: tuple[int, ...] = ()) -> ArboNE:
    """Construct a family member from its tree shape.

    Spine elements come first (one, [two], three, four); each entry of
    `dangle_parents` adds one node hanging south-west of that element.
    """
    spine = [0, 1, 2] if with_two else [0, 1]
    one, three = spine[0], spine[-1]
    two = 1 if with_two else None
    four = len(spine)
    n = four + 1 + len(dangle_parents)
    west = []
    south = []
    for lo, hi in zip(spine, spine[1:]):
        west.append((lo, hi))
        south.append((hi, lo))
    for v in range(four):
        west.append((v, four))
        south.append((v, four))
    next_id = four + 1
    for parent in dangle_parents:
        if not 0 <= parent < next_id or parent == four:
            raise ValueError(f"dangle parent {parent} is not an earlier non-top element")
        west.append((next_id, parent))
        south.append((next_id, parent))
        west.append((next_id, four))
        south.append((next_id, four))
        next_id += 1
    dp = double_poset(n, west, south)
    return validate_arbo(dp, one=one, three=three, four=four, two=two)


def bare_3214() -> ArboNE:
    """The seed of the family: the pattern 3214 itself."""
    return build_arbo(with_two=True)


def level5_arbos() -> tuple[ArboNE, ArboNE, ArboNE]:
    """The three 5-element members whose pattern vectors are new directions.

    Shapes: a dangle below `one`, below `two`, and below `three`.
    """
    return (
        build_arbo(with_two=True, dangle_parents=(0,)),
        build_arbo(with_two=True, dangle_parents=(1,)),
        build_arbo(with_two=True, dangle_parents=(2,)),
    )
