"""Occurrence counting: the front door count, and the corner-tree counters.

count(obj, pi) decides the algorithm from obj's type or double poset: block
(gen3214) for a 3214-family member, general for a twin tree, and otherwise
naive_morphism_count, the oracle for any double poset, which counts the
maps that core._iter_morphisms, the package's one morphism search, yields.

count_corner_trees runs one offline scan engine (_fast) over a batch of
corner trees, and count_corner_tree and count_all_west are its one-tree
case.  The engine serves every corner label from a single south-west
dominance sum over the permutation: a child's values summed over each
point's NW, SE and NE quadrants are the position prefix, the value prefix
and the total, corrected by that SW sum.  Counts are exact: the engine works
in ring arithmetic under an a-priori bound on the counts, the largest
core.morphism_bound, read off the trees' edges, and recombines the residues
by the Chinese remainder theorem.  It keeps the numpy data of the last
permutation counted (the value order and its merge schedule, 10.8 MB at
n = 100 000) until a count on another Permutation object or until that
permutation is gone, so repeated counts on one permutation build it once.
Counts themselves are never cached: every call recomputes them.

Two pure-Python paths stay beside it.  corner_tree_profiles runs one
Fenwick scan per edge, children first: insert the child's profile value
at the point's value index, then read a strict prefix (S labels) or
strict suffix (N labels) sum, scanning ascending positions for W labels
and descending ones for E labels.  It is the oracle, and gen3214's
reference passes (method="exact") read its root profiles.
StreamWestCounter, the online counter for all-W (NW/SW) trees, takes
points in increasing position and returns each one's root placements at
once; it is public API, and no count runs it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (DoublePoset, Permutation, _iter_morphisms, _shape,
                   morphism_bound)
from .indexstructs import SumTree
from .trees import (CornerTree, NotTwinTree, SNPolytree, ct_to_snpolytree,
                    dp_to_snpolytree, snpolytree_to_ct, snpolytree_to_dp)

ALGORITHMS = ("auto", "general", "block", "naive")


class NotWestTree(ValueError):
    pass


class OrderViolation(ValueError):
    pass


class BudgetExceeded(ValueError):
    pass


class Inapplicable(ValueError):
    """The requested algorithm does not count this double poset."""


@dataclass(frozen=True)
class CountResult:
    """The count, the algorithm that ran, and m if that was block."""

    count: int
    algorithm: str
    block_size: int | None = None


def as_double_poset(obj) -> DoublePoset:
    """The double poset of a CornerTree, SNPolytree, ArboNE or DoublePoset."""
    if isinstance(obj, CornerTree):
        obj = ct_to_snpolytree(obj)
    if isinstance(obj, SNPolytree):
        return snpolytree_to_dp(obj)
    obj = getattr(obj, "dp", obj)  # an ArboNE's
    if isinstance(obj, DoublePoset):
        return obj
    raise TypeError(f"cannot interpret {type(obj).__name__} as a double poset")


def count(obj, pi: Permutation, algorithm: str = "auto",
          block_size: int | None = None) -> CountResult:
    """Count obj (a CornerTree, SNPolytree, ArboNE or DoublePoset) in pi.

    auto picks block for a family member (m = block_size, default
    gen3214.default_block_size(n)), general for a twin tree, otherwise naive
    with a logged warning.  A named algorithm that does not apply raises
    Inapplicable.  A CornerTree or SNPolytree is a twin tree and never a
    member (see gen3214.validate_arbo), so only naive closes its orders, and
    only within budget.  An ArboNE is taken as its own member, and a member
    is not tried as a twin tree.
    """
    from . import gen3214

    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if isinstance(obj, SNPolytree):
        obj = snpolytree_to_ct(obj, obj.nodes[0])  # every rooting counts the same
    ct = obj if isinstance(obj, CornerTree) else None
    arbo = obj if isinstance(obj, gen3214.ArboNE) else None
    if isinstance(obj, DoublePoset) and algorithm != "naive":
        arbo = gen3214.family_member(obj)
        try:  # the one twin-tree decision; a member is no twin tree
            ct = None if arbo else snpolytree_to_ct(dp_to_snpolytree(obj), 0)
        except NotTwinTree:
            pass
    if algorithm == "auto":
        algorithm = "block" if arbo else "naive" if ct is None else "general"
        if algorithm == "naive":
            import logging  # here only: it adds 0.4 MB to every process
            logging.getLogger(__name__).warning(
                "falling back to naive morphism counting for a general double poset")
    if algorithm == "naive":
        return CountResult(naive_morphism_count(obj, pi), algorithm)
    if algorithm == "block":
        if arbo is None:
            raise Inapplicable("the block algorithm needs a family member")
        m = gen3214.default_block_size(pi.n) if block_size is None else block_size
        return CountResult(gen3214.count_gen_3214(pi, arbo, m), algorithm, m)
    if ct is None:
        raise Inapplicable("the general algorithm needs a twin tree")
    return CountResult(count_corner_trees(pi, [ct])[0], algorithm)


def corner_tree_profiles(pi: Permutation, ct: CornerTree):
    """Vertex and edge profiles of the per-edge scans.

    Returns (vertex, edge) dicts; vertex[v][i] counts the placements of
    v's subtree when v sits at 0-indexed position i, edge[(parent, child)]
    is the Z array produced by that edge's scan.
    """
    n = pi.n
    vals = pi.zero_indexed()
    vertex: dict = {}
    edge: dict = {}
    for v in ct.children_first:
        profile = [1] * n
        for child, label in ct.children(v):
            x = vertex[child]
            y = SumTree(n)
            z = [0] * n
            order = range(n) if label in ("NW", "SW") else range(n - 1, -1, -1)
            west_query = label in ("SE", "SW")
            for i in order:
                val = vals[i] + 1
                y.add(val, x[i])
                z[i] = y.prefix(val) if west_query else y.suffix(val)
            edge[(v, child)] = z
            profile = [a * b for a, b in zip(profile, z)]
        vertex[v] = profile
    return vertex, edge


def count_corner_tree(pi: Permutation, ct: CornerTree) -> int:
    """Number of occurrences of the corner tree in pi, in O(n log n) per edge."""
    return count_corner_trees(pi, [ct])[0]


def count_corner_trees(pi: Permutation, trees) -> list[int]:
    """Occurrences of each corner tree in pi, in the order given.

    One scan engine pass per modulus serves all the trees, under the
    largest of their bounds, and a (label, child subtree) pair that several
    trees share is valued once per modulus.  The permutation's schedule is
    kept for the next count on the same object (see _fast); no count is.
    """
    trees = list(trees)
    if pi.n == 0 or not trees:
        return [0] * len(trees)
    from . import _fast

    bound = max(morphism_bound(ct_to_snpolytree(ct), pi.n) for ct in trees)
    return _fast.count_corner_trees(pi, trees, bound)


class StreamWestCounter:
    """Streaming occurrence counter for an all-West corner tree.

    Points are fed in strictly increasing position; process() returns how
    many placements of the whole tree put the root at the new point and
    every other vertex at previously fed points.
    """

    def __init__(self, tree: CornerTree, n: int):
        _require_west(tree)
        self.tree = tree
        self.n = n
        self._last_x = -1
        self._seen_y = [False] * n
        self._edge_trees = {
            (p, c): SumTree(n) for p, c, _ in tree.edges}

    def process(self, x: int, y: int) -> int:
        """Feed the point (x, y); 0-indexed coordinates."""
        if x <= self._last_x:
            raise OrderViolation(f"positions must increase, got {x} after {self._last_x}")
        if not 0 <= y < self.n:
            raise IndexError(f"value {y} out of range")
        if self._seen_y[y]:
            raise OrderViolation(f"value {y} fed twice")
        self._seen_y[y] = True
        self._last_x = x
        value: dict = {}
        yi = y + 1
        for v in self.tree.children_first:
            acc = 1
            for child, label in self.tree.children(v):
                st = self._edge_trees[(v, child)]
                st.add(yi, value[child])
                acc *= st.prefix(yi) if label == "SW" else st.suffix(yi)
            value[v] = acc
        return value[self.tree.root]


def _require_west(tree: CornerTree) -> None:
    if not tree.labels() <= {"NW", "SW"}:
        raise NotWestTree(f"labels {tree.labels()} are not all W")


def count_all_west(pi: Permutation, tree: CornerTree) -> int:
    """Occurrences of an all-West tree; raises NotWestTree for any other."""
    _require_west(tree)
    return count_corner_trees(pi, [tree])[0]


_MORPHISM_BUDGET = 10**9


def naive_morphism_count(d, pi: Permutation) -> int:
    """Count double poset morphisms from d into the permutation.

    The oracle for all the fast counting paths, by core._iter_morphisms.
    d is anything as_double_poset reads, and its size is checked first.
    """
    n = pi.n
    k = _shape(d)[0]
    if n ** k > _MORPHISM_BUDGET:
        raise BudgetExceeded(f"{n}^{k} assignments exceed the search budget")
    return count_morphisms_into_perm(as_double_poset(d), pi)


def count_morphisms_into_perm(d: DoublePoset, pi: Permutation) -> int:
    """|Mor(d, perm_to_dp(pi))| by the morphism search, without the budget check."""
    return sum(1 for _ in _iter_morphisms(d, pi))


def naive_corner_tree_count(pi: Permutation, ct: CornerTree) -> int:
    """Oracle: occurrences as morphisms of the associated double poset."""
    return naive_morphism_count(ct, pi)
