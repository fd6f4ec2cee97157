"""Occurrence counting for corner trees on permutations.

count_corner_tree and count_all_west run one offline scan engine (_fast),
which serves every corner label from a single south-west dominance sum
over the permutation: a child's values summed over each point's NW, SE and
NE quadrants are the position prefix, the value prefix and the total,
corrected by that SW sum.  Counts are exact: the engine works in ring
arithmetic under an a-priori bound on the count, core.morphism_bound of
the tree's double poset, and recombines the residues by the Chinese
remainder theorem.

Two pure-Python paths stay beside it.  corner_tree_profiles runs one
Fenwick scan per edge, children first: insert the child's profile value
at the point's value index, then read a strict prefix (S labels) or
strict suffix (N labels) sum, scanning ascending positions for W labels
and descending ones for E labels; it is the oracle.  StreamWestCounter is the online
counter for trees whose labels are all W (NW/SW): points arrive in
increasing position and each returns its root placements at once, which
the block decomposition's reference passes in gen3214 use.

naive_morphism_count, the oracle for any double poset, counts the maps
that core._iter_morphisms, the package's one morphism search, yields.
"""

from __future__ import annotations

from .core import DoublePoset, Permutation, _iter_morphisms, morphism_bound
from .indexstructs import SumTree
from .trees import CornerTree, ct_to_snpolytree, snpolytree_to_dp


class NotWestTree(ValueError):
    pass


class OrderViolation(ValueError):
    pass


class BudgetExceeded(ValueError):
    pass


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
    return _count(pi, ct)


def _count(pi: Permutation, ct: CornerTree) -> int:
    if pi.n == 0:
        return 0
    from . import _fast

    return _fast.count_corner_tree(
        pi, ct, morphism_bound(corner_tree_to_dp(ct), pi.n))


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
    return _count(pi, tree)


_MORPHISM_BUDGET = 10**9


def naive_morphism_count(d: DoublePoset, pi: Permutation) -> int:
    """Count double poset morphisms from d into the permutation.

    The oracle for all the fast counting paths, by core._iter_morphisms.
    """
    n = pi.n
    if n ** d.n > _MORPHISM_BUDGET:
        raise BudgetExceeded(f"{n}^{d.n} assignments exceed the search budget")
    return count_morphisms_into_perm(d, pi)


def count_morphisms_into_perm(d: DoublePoset, pi: Permutation) -> int:
    """|Mor(d, perm_to_dp(pi))| by the morphism search, without the budget check."""
    return sum(1 for _ in _iter_morphisms(d, pi))


def corner_tree_to_dp(ct: CornerTree) -> DoublePoset:
    """The twin tree double poset whose morphisms are the tree's occurrences."""
    return snpolytree_to_dp(ct_to_snpolytree(ct))


def naive_corner_tree_count(pi: Permutation, ct: CornerTree) -> int:
    """Oracle: occurrences as morphisms of the associated double poset."""
    return naive_morphism_count(corner_tree_to_dp(ct), pi)
