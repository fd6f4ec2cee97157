"""Block-decomposition counting for the generalized-3214 family.

A family member is a double poset built from the pattern 3214: a spine
one < two < three (west) with three < two < one (south), a global maximum
`four` above everything in both orders, and any number of subtrees
dangling strictly south-west from spine vertices.  Removing `four` leaves
a twin tree double poset T whose west-maximal vertex is `three` and whose
south-maximal vertex is `one`.  Membership is a property of the double
poset alone: validate_arbo recognizes a member and reads its anchors one,
two, three and four off the two orders.

Morphisms into a permutation are counted by splitting them, relative to a
grid of position and value blocks of width m, into three disjoint types:

* type A:       f(one) and f(four) in different value blocks;
* type B not A: f(three), f(four) in different position blocks but
                f(one), f(four) in the same value block;
* the rest:     both pairs in the same block (counted with box sums).

The type-A/B passes cost about (n/m) * n * log n: each value or position
block reruns one scan of all n points, masked to one side of it.  The box pass
costs about n * m^2: it pairs every candidate `four` with the `three` and
`one` candidates of its own blocks.  With m proportional to n^(1/3) the
total work is ~n^(5/3) up to logs; default_block_size picks the constant.

Type B is type A with positions and values exchanged, so both passes run
one gated scan per block, over positions for type A and over values for
type B.  For the box, each of `one`, `two` and `three` carries one tree of
the dangles below it (see decompose).

method="auto" and "fast" run the numpy passes of the _fast module, which
handle one position block at a time and are exact under the a-priori bound
core.morphism_bound of the member's double poset.  method="exact" runs the
streaming reference passes, kept as oracles: a gated StreamWestCounter per
block for types A and B, and for the box the dangle weights of `one` and
`three` as lists, a 2-D accumulator only for the dangle2 box sums, and a
loop over every candidate `four`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

from .core import (DoublePoset, Permutation, classify, double_poset,
                   morphism_bound, swap)
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
    dangle3_tree: CornerTree
    dangle1_tree: CornerTree
    dangle2_tree: CornerTree | None


def validate_arbo(dp: DoublePoset) -> ArboNE:
    """The family member dp, with its anchors read off the two orders.

    `four` is the element above all others in both orders; `three` and
    `one` are the west and south maxima of the rest, and `two` is the
    element between them when the spine has two Hasse edges.  Raises
    NoGlobalMax, RestrictionNotTwinTree or BadSpine when dp is no member.
    """
    n = dp.n
    everything = (1 << n) - 1
    four = _maximum([w & s for w, s in zip(dp.west.below, dp.south.below)],
                    everything)
    if four is None:
        raise NoGlobalMax("no element is above all others in both orders")
    rest = everything ^ (1 << four)
    if not classify(dp.restrict([v for v in range(n) if v != four])).is_twin_tree:
        raise RestrictionNotTwinTree("removing the top element must leave a twin tree")

    three = _maximum(dp.west.below, rest)
    one = _maximum(dp.south.below, rest)
    if three is None or one is None or one == three:
        raise BadSpine("the rest needs distinct west and south maxima")
    # In a twin tree x < three exactly when the tree path from x to three is
    # directed, so the elements between one and three are the path's inner
    # nodes.  With three the west maximum and one the south maximum, every
    # Hasse edge points west towards three and south towards one: the spine
    # is monotone and every dangle hangs south-west.
    between = dp.west.above[one] & dp.west.below[three]
    if between.bit_count() > 1:
        raise BadSpine(f"the tree path from {one} to {three} has more than "
                       "two edges")
    return ArboNE(dp, one, between.bit_length() - 1 if between else None,
                  three, four)


def _maximum(below, among: int) -> int | None:
    """The element of the bitmask `among` above all its other elements, by
    the masks below[v] of the elements below v; None if there is none."""
    for v in range(len(below)):
        if among >> v & 1 and among & ~below[v] == 1 << v:
            return v
    return None


@lru_cache(maxsize=1024)
def decompose(arbo: ArboNE) -> ArboDecomposition:
    """Corner trees driving the three counting passes.

    west_tree roots the tree part at `three`, which forces all labels west;
    inv_west_tree does the same for the swapped orders rooted at `one` and
    is scanned over the inverse permutation.  For the box pass, each anchor
    gets one tree of the dangles below it: dangle3_tree and dangle1_tree are
    rooted at `three` and `one`, and dangle2_tree (None without `two`) at
    `two`; the spine edges are left out.
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

    dangle3_tree = _subtree(west_tree, i3, skip=i1 if i2 is None else i2)
    dangle2_tree = None if i2 is None else _subtree(west_tree, i2, skip=i1)
    return ArboDecomposition(west_tree, inv_west_tree, dangle3_tree,
                             _subtree(west_tree, i1), dangle2_tree)


def _subtree(tree: CornerTree, node, skip=None) -> CornerTree:
    """The subtree of tree rooted at node, without node's child skip and
    everything below it."""
    edges = []
    stack = [node]
    while stack:
        u = stack.pop()
        for c, lab in tree.children(u):
            if c != skip:
                edges.append((u, c, lab))
                stack.append(c)
    return CornerTree(node, tuple(edges))


_METHODS = ("auto", "fast", "exact")


def default_block_size(n: int) -> int:
    """The block size m used when none is given: 4 * floor(n^(1/3)).

    Type A/B cost about (n/m) * n * log n and the box about n * m^2, so m
    stays proportional to n^(1/3).  Of the factors 1 to 5, 4 gave the
    fastest numpy passes on uniform permutations at n = 4000 (the level-5
    members) and at n = 20 000 (bare 3214).
    """
    r = max(1, round(n ** (1 / 3)))
    while r ** 3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return 4 * max(1, r)


def _check_block_args(m, method: str) -> int:
    """m as an int, after rejecting an unknown method or a bad block size."""
    if method not in _METHODS:
        raise ValueError(f"method must be one of {', '.join(_METHODS)}, got {method!r}")
    if isinstance(m, bool) or not isinstance(m, numbers.Integral):
        raise ValueError(f"block size must be an int, got {m!r}")
    if m < 1:
        raise ValueError(f"block size must be at least 1, got {m}")
    return int(m)


# ------------------------------------------------------- types A and B

def _gated_block(g: tuple[int, ...], tree: CornerTree, r: int, m: int,
                 own_block: bool) -> int:
    """One gated stream over the scan index s, with gate coordinate g[s].

    Points with g[s] < r feed the tree scan; a candidate with g[s] in
    [r, r + m) collects the root placements fed before it, or with
    own_block only those fed since the start of its own block of scan
    indices.
    """
    counter = StreamWestCounter(tree, len(g))
    gate_total = snapshot = out = 0
    for s, x in enumerate(g):
        if own_block and s % m == 0:
            snapshot = gate_total
        if x < r:
            gate_total += counter.process(s, x)
        elif x < r + m:
            out += gate_total - snapshot
    return out


def count_type_a(pi: Permutation, arbo: ArboNE, m: int, method: str = "auto") -> int:
    """Morphisms whose one- and four-images lie in different value blocks.

    One gated stream per value block: points below the block feed the tree
    scan, points inside the block act as candidates for `four` and collect
    the running total of root placements to their west.
    """
    m = _check_block_args(m, method)
    n = pi.n
    if n == 0:
        return 0
    dec = decompose(arbo)
    if method != "exact":
        from . import _fast

        return _fast.count_type_a(pi, dec.west_tree, m,
                                  morphism_bound(arbo.dp, n))
    vals = pi.zero_indexed()
    return sum(_gated_block(vals, dec.west_tree, r, m, False)
               for r in range(m, n, m))


def count_type_b_not_a(pi: Permutation, arbo: ArboNE, m: int,
                       method: str = "auto") -> int:
    """Morphisms with three/four in different position blocks and one/four
    in the same value block.

    Runs on the inverse permutation with the swapped tree rooted at `one`:
    the scan index is the original value, the gate filters original
    positions below the block, and a snapshot at each value-block boundary
    keeps only root placements inside the candidate's own value block.
    """
    m = _check_block_args(m, method)
    n = pi.n
    if n == 0:
        return 0
    dec = decompose(arbo)
    if method != "exact":
        from . import _fast

        return _fast.count_type_b_not_a(pi, dec.inv_west_tree, m,
                                        morphism_bound(arbo.dp, n))
    inv_vals = pi.inverse().zero_indexed()
    return sum(_gated_block(inv_vals, dec.inv_west_tree, c, m, True)
               for c in range(m, n, m))


# ---------------------------------------------------------------- box

def dangle_weights(pi: Permutation, tree: CornerTree) -> list[int]:
    """Ungated stream root values: placements of the subtree at each point."""
    counter = StreamWestCounter(tree, pi.n)
    return [counter.process(x, y) for x, y in enumerate(pi.zero_indexed())]


def count_box(pi: Permutation, arbo: ArboNE, m: int, method: str = "auto") -> int:
    """Morphisms with both anchor pairs inside single blocks.

    Pairs every candidate image of `four` with the candidates for `three`
    in its position block and for `one` in its value block, and multiplies
    the dangle placements: box sums of the dangle2 weights between `one`
    and `three`, south-west sums for the dangles below `one` and `three`.
    The exact path reads the dangle weights below `three` and `one` from
    two lists, the dangle2 box sums from one 2-D accumulator, and loops over
    the candidates; the numpy path handles one position block at a time.
    """
    m = _check_block_args(m, method)
    n = pi.n
    if n == 0:
        return 0
    dec = decompose(arbo)
    if method != "exact":
        from . import _fast

        return _fast.count_box(pi, dec, m, morphism_bound(arbo.dp, n))
    vals = pi.zero_indexed()
    inv = pi.inverse().zero_indexed()

    d3 = dangle_weights(pi, dec.dangle3_tree)
    d1 = dangle_weights(pi, dec.dangle1_tree)
    d2_box = None
    if dec.dangle2_tree is not None:
        d2_box = ProductTree(n)
        for x, w in enumerate(dangle_weights(pi, dec.dangle2_tree)):
            d2_box.add(x, vals[x], w)

    total = 0
    for x4 in range(n):
        y4 = vals[x4]
        col = x4 - x4 % m
        row = y4 - y4 % m
        for x3 in range(col, x4):
            y3 = vals[x3]
            if not d3[x3]:
                continue
            for y1 in range(max(row, y3 + 1), y4):
                x1 = inv[y1]
                if x1 >= x3 or not d1[x1]:
                    continue
                if d2_box is None:
                    b2 = 1
                else:
                    b2 = d2_box.sum_box(x1 + 1, x3, y3 + 1, y1)
                total += d3[x3] * d1[x1] * b2
    return total


def count_gen_3214(pi: Permutation, arbo: ArboNE, m: int | None = None,
                   method: str = "auto") -> int:
    """Total morphism count: the three types partition Mor for any m.

    m defaults to default_block_size(n).  method="exact" runs the streaming
    reference passes, kept as oracles; "auto" and "fast" run the numpy
    passes, which are exact as well.  An unknown method or a block size
    that is not an int of at least 1 raises ValueError.
    """
    m = _check_block_args(default_block_size(pi.n) if m is None else m, method)
    if pi.n == 0:
        return 0
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
    return validate_arbo(double_poset(n, west, south))


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
