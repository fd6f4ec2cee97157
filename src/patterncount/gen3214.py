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
block reruns one scan of the points on one side of it, which are a prefix of
one shared schedule, so about n^2 / (2m) points are scanned in all.  The
numpy passes scan consecutive blocks together, as the columns of one scan
of the prefix of the group's last block: a group pays a scan's fixed cost
once, and its earlier columns scan a few points past their own gates.  A
group holds at most _fast._GATE_CELLS points times columns, so once a
prefix alone is half that size, each group is one block.  The box
pass costs about n * m^2: it pairs every candidate `four` with the `three` and
`one` candidates of its own blocks.  With m proportional to n^(1/3) the
total work is ~n^(5/3) up to logs; default_block_size picks the constant.

Type B is type A with positions and values exchanged, so both passes run
one gated scan per block (per group of blocks in numpy), over positions
for type A and over values for type B.  For the box, each of `one`, `two`
and `three` carries one tree of the dangles below it (see decompose).

method="auto" and "fast" run the numpy passes of the _fast module, which
handle one position block at a time and are exact under the a-priori bound
core.morphism_bound of the member, read off its tree (ArboNE.covers).
method="exact" runs the reference passes, kept as oracles, on root profiles
of corner_tree_profiles: of the tree on each block's gated points for types
A and B, and of the dangle trees for the box, which loops over every
candidate `four` and keeps a 2-D accumulator only for the dangle2 box sums.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

from .core import DoublePoset, Permutation, double_poset, morphism_bound
from .counting import corner_tree_profiles
# Unused here, since no pass builds one; perfbench's tracer patches
# gen3214.StreamWestCounter, as it does gen3214.ProductTree.
from .counting import StreamWestCounter  # noqa: F401
from .indexstructs import ProductTree
from .trees import (CornerTree, NotTwinTree, _transposed,
                    covers_to_snpolytree, snpolytree_to_ct)


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
    """A validated family member; construct through validate_arbo, which also
    sets the read-only `tree`: the rest without `four` as an SNPolytree, on
    the rest's indices in order.  It is no field: ==, hash and repr ignore it."""

    dp: DoublePoset
    one: int
    two: int | None
    three: int
    four: int

    def size(self) -> int:
        return self.dp.n

    n = property(size)

    def covers(self) -> tuple[list, list]:
        """dp's Hasse pairs: the tree's edges, and three and one below four."""
        west, south = ([(a + (a >= self.four), b + (b >= self.four))
                        for a, b in h] for h in self.tree.covers())
        return west + [(self.three, self.four)], south + [(self.one, self.four)]


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
    `four` lies between no two elements, so the rest's twin tree, ArboNE.tree,
    is read off dp's Hasse pairs without `four`; nothing is restricted.
    No member is twin, so no twin tree is one: {three, four} is a west
    Hasse edge, yet one lies between three and four in the south order.
    """
    n = dp.n
    everything = (1 << n) - 1
    four = _maximum([w & s for w, s in zip(dp.west.below, dp.south.below)],
                    everything)
    if four is None:
        raise NoGlobalMax("no element is above all others in both orders")
    rest = everything ^ (1 << four)
    # The maxima take O(n) mask tests, the twin-tree check far more, so a
    # spine without them is rejected first.
    three = _maximum(dp.west.below, rest)
    one = _maximum(dp.south.below, rest)
    if three is None or one is None or one == three:
        raise BadSpine("the rest needs distinct west and south maxima")
    try:
        tree = covers_to_snpolytree(n - 1, *(
            [(a - (a > four), b - (b > four)) for a, b in order.covers() if b != four]
            for order in (dp.west, dp.south)))
    except NotTwinTree:
        raise RestrictionNotTwinTree(
            "removing the top element must leave a twin tree") from None

    # In a twin tree x < three exactly when the tree path from x to three is
    # directed, so the elements between one and three are the path's inner
    # nodes.  With three the west maximum and one the south maximum, every
    # Hasse edge points west towards three and south towards one: the spine
    # is monotone and every dangle hangs south-west.
    between = dp.west.above[one] & dp.west.below[three]
    if between.bit_count() > 1:
        raise BadSpine(f"the tree path from {one} to {three} has more than "
                       "two edges")
    arbo = ArboNE(dp, one, between.bit_length() - 1 if between else None, three, four)
    object.__setattr__(arbo, "tree", tree)
    return arbo


def family_member(dp: DoublePoset) -> ArboNE | None:
    """dp as a family member, or None where validate_arbo rejects it."""
    try:
        return validate_arbo(dp)
    except ArboValidationError:
        return None


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

    west_tree roots arbo.tree at `three`, which forces all labels west;
    inv_west_tree, the swapped orders rooted at `one`, is its rooting at `one`
    transposed and is scanned over the inverse permutation.  For the box
    pass, each anchor gets one tree of the dangles below it: dangle3_tree and
    dangle1_tree are rooted at `three` and `one`, and dangle2_tree (None
    without `two`) at `two`; the spine edges are left out.
    """
    i1, i2, i3 = (None if v is None else v - (v > arbo.four)
                  for v in (arbo.one, arbo.two, arbo.three))
    west_tree = snpolytree_to_ct(arbo.tree, i3)
    inv_west_tree = _transposed(snpolytree_to_ct(arbo.tree, i1))
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
    """The block size m used when none is given: 3 * floor(n^(1/3)).

    Type A/B cost about (n/m) * n * log n and the box about n * m^2, so m
    stays proportional to n^(1/3).  Of the factors 1 to 5, 3 gave the
    fastest sum of the three numpy passes on uniform permutations (2-vCPU
    Xeon, numpy 2.4; rows in BENCH_prefix_gated.json): at
    n = 4000 over the four level-5 members (0.86 s, against 0.88 s for 4
    and 1.10 s for 2) and for bare 3214 at n = 20 000 (2.46 s, against
    2.61 s for 2 and 3.25 s for 4); at n = 40 000 factors 2 and 3 tie
    (8.7 and 9.0 s) and 4 takes 10.2 s.
    """
    r = max(1, round(n ** (1 / 3)))
    while r ** 3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return 3 * max(1, r)


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
    """One gated scan over the scan index s, with gate coordinate g[s].

    The points with g[s] < r take the values 0..r-1, so in scan order they
    are a permutation, whose root profile counts at each gated point the
    placements of the all-west tree on the gated points before it.  A
    candidate with g[s] in [r, r + m) collects the root placements before
    it, or with own_block only those since the start of its own block of
    scan indices.
    """
    gated = Permutation(tuple(x + 1 for x in g if x < r))
    roots = iter(corner_tree_profiles(gated, tree)[0][tree.root])
    gate_total = snapshot = out = 0
    for s, x in enumerate(g):
        if own_block and s % m == 0:
            snapshot = gate_total
        if x < r:
            gate_total += next(roots)
        elif x < r + m:
            out += gate_total - snapshot
    return out


def count_type_a(pi: Permutation, arbo: ArboNE, m: int, method: str = "auto") -> int:
    """Morphisms whose one- and four-images lie in different value blocks.

    One gated scan per value block: points below the block feed the tree
    scan, points inside the block act as candidates for `four` and collect
    the running total of root placements to their west.
    """
    return _gated_pass(pi, arbo, m, method, type_b=False)


def count_type_b_not_a(pi: Permutation, arbo: ArboNE, m: int,
                       method: str = "auto") -> int:
    """Morphisms with three/four in different position blocks and one/four
    in the same value block.

    Runs on the inverse permutation with the swapped tree rooted at `one`:
    the scan index is the original value, the gate filters original
    positions below the block, and a snapshot at each value-block boundary
    keeps only root placements inside the candidate's own value block.
    """
    return _gated_pass(pi, arbo, m, method, type_b=True)


def _gated_pass(pi: Permutation, arbo: ArboNE, m: int, method: str,
                type_b: bool) -> int:
    """Type A, or with type_b type B not A.

    The numpy path is the _fast pass of the same name, looked up on every
    call.  The exact path runs one _gated_block per block, with the values
    of pi as gate coordinates for type A and those of pi's inverse for B.
    """
    m = _check_block_args(m, method)
    n = pi.n
    if n == 0:
        return 0
    dec = decompose(arbo)
    tree = dec.inv_west_tree if type_b else dec.west_tree
    if method != "exact":
        from . import _fast

        fast = _fast.count_type_b_not_a if type_b else _fast.count_type_a
        return fast(pi, tree, m, morphism_bound(arbo, n))
    g = (pi.inverse() if type_b else pi).zero_indexed()
    return sum(_gated_block(g, tree, r, m, type_b) for r in range(m, n, m))


# ---------------------------------------------------------------- box

def count_box(pi: Permutation, arbo: ArboNE, m: int, method: str = "auto") -> int:
    """Morphisms with both anchor pairs inside single blocks.

    Pairs every candidate image of `four` with the candidates for `three`
    in its position block and for `one` in its value block, and multiplies
    the dangle placements: box sums of the dangle2 weights between `one`
    and `three`, south-west sums for the dangles below `one` and `three`.
    The exact path reads the dangle root profiles of `three` and `one` as
    lists and the dangle2 box sums from one 2-D accumulator, and loops over
    the candidates; the numpy path handles one position block at a time.
    """
    m = _check_block_args(m, method)
    n = pi.n
    if n == 0:
        return 0
    dec = decompose(arbo)
    if method != "exact":
        from . import _fast

        return _fast.count_box(pi, dec, m, morphism_bound(arbo, n))
    vals = pi.zero_indexed()
    inv = pi.inverse().zero_indexed()

    d3, d1, d2 = [None if t is None else corner_tree_profiles(pi, t)[0][t.root]
                  for t in (dec.dangle3_tree, dec.dangle1_tree, dec.dangle2_tree)]
    d2_box = None
    if d2 is not None:
        d2_box = ProductTree(n)
        for x, w in enumerate(d2):
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

    m defaults to default_block_size(n).  method="exact" runs the reference
    passes, kept as oracles; "auto" and "fast" run the numpy passes, which
    are exact as well.  An unknown method or a block size that is not an
    int of at least 1 raises ValueError.
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
    # The Hasse pairs (ArboNE.covers): the tree's edges, three and one below four.
    west = [*zip(spine, spine[1:]), (four - 1, four)]
    south = [*zip(spine[1:], spine), (0, four)]
    for node, parent in enumerate(dangle_parents, four + 1):
        if not 0 <= parent < node or parent == four:
            raise ValueError(f"dangle parent {parent} is not an earlier non-top element")
        west.append((node, parent))
        south.append((node, parent))
    return validate_arbo(double_poset(four + 1 + len(dangle_parents), west, south))


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
