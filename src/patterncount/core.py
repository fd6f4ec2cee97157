"""Ground types: permutations, strict posets and double posets.

A permutation is stored in one-line notation with values 1..n.  A strict
poset on elements 0..n-1 is an irreflexive, asymmetric, transitive relation.
A double poset carries two strict posets on the same ground set, called
``west`` and ``south``: for permutations these are the position order and
the value order, which is what makes pattern occurrences come out as maps
preserving both orders.

Each StrictPoset also keeps its order as bitmasks, ``above[e]`` and
``below[e]`` (the elements greater and less than e), which its readers use,
and its cover pairs once covers() has reduced it.

_iter_morphisms is the one search for such maps (double poset morphisms)
behind the counting oracle, the epimorphism counts and the morphism
classes; pattern_count_table, by subset enumeration, is its test oracle.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from graphlib import TopologicalSorter
from typing import Collection, Iterable, Sequence


class InvalidInput(ValueError):
    """Malformed permutation or window data."""


class NotAPermutationPoset(ValueError):
    """Raised when a double poset with a non-total order is read as a permutation."""


class NotAcyclic(ValueError):
    """Raised when relation generators contain a directed cycle."""


class TooLargeForCanonicalization(ValueError):
    """Raised when brute-force canonicalization would be too expensive."""


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation.

    >>> Permutation((2, 1, 3)).inverse()
    Permutation(values=(2, 1, 3))
    """

    values: tuple[int, ...]

    def __post_init__(self):
        # Values are held as a tuple, so the permutation hashes.  Entries must
        # be integers (anything operator.index takes, numpy integers too); n
        # distinct ones between 1 and n are a bijection.
        try:
            values = tuple(self.values)
            seen = set(map(operator.index, values))
        except TypeError:
            raise InvalidInput(
                f"not a sequence of integers: {self.values!r}") from None
        object.__setattr__(self, "values", values)
        n = len(values)
        if len(seen) != n or (n and (min(seen) != 1 or max(seen) != n)):
            raise InvalidInput(f"not a bijection of 1..{n}: {self.values!r}")

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        """Value at 1-indexed position i."""
        if not 1 <= i <= len(self.values):
            raise IndexError(f"position {i} outside 1..{len(self.values)}")
        return self.values[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.values)
        for pos, val in enumerate(self.values):
            inv[val - 1] = pos + 1
        return Permutation(tuple(inv))

    def zero_indexed(self) -> tuple[int, ...]:
        """Values shifted to 0..n-1, handy for array indexing."""
        return tuple(v - 1 for v in self.values)

    def rotate180(self) -> "Permutation":
        """Reverse positions and complement values (the Anti image)."""
        n = len(self.values)
        return Permutation(tuple(n + 1 - v for v in reversed(self.values)))

    def __str__(self) -> str:
        return "[" + " ".join(str(v) for v in self.values) + "]"


def perm(values: Iterable[int]) -> Permutation:
    """Shorthand constructor accepting any iterable of 1-indexed values."""
    return Permutation(tuple(values))


@dataclass(frozen=True)
class StrictPoset:
    """A strict partial order: asymmetric and transitive pairs on 0..n-1.

    Bit b of the read-only mask above[a], and bit a of below[b], is set iff
    a < b.  covers() reduces the order once and keeps the result.  The masks
    and the covers are not fields, so ==, hash and repr ignore them."""

    n: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise InvalidInput(f"ground set size must be nonnegative, got {self.n}")
        above = [0] * self.n
        below = [0] * self.n
        for a, b in self.pairs:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise InvalidInput(f"pair {(a, b)} out of range for n={self.n}")
            if a == b:
                raise InvalidInput(f"reflexive pair {(a, b)}")
            if (b, a) in self.pairs:
                raise InvalidInput(f"asymmetric violation on {(a, b)}")
            above[a] |= 1 << b
            below[b] |= 1 << a
        for a, b in self.pairs:
            if above[b] & ~above[a]:
                raise InvalidInput(f"not transitive at element {a}")
        object.__setattr__(self, "above", tuple(above))
        object.__setattr__(self, "below", tuple(below))

    def is_total(self) -> bool:
        return 2 * len(self.pairs) == self.n * (self.n - 1)

    def covers(self) -> frozenset[tuple[int, int]]:
        covers = self.__dict__.get("_covers")
        if covers is None:
            covers = transitive_reduction(self)
            object.__setattr__(self, "_covers", covers)
        return covers

    def reversed(self) -> "StrictPoset":
        return StrictPoset(self.n, frozenset((b, a) for a, b in self.pairs))


def empty_poset(n: int) -> StrictPoset:
    return StrictPoset(n, frozenset())


def chain_poset(n: int, order: Sequence[int] | None = None) -> StrictPoset:
    """Total order; `order` lists elements from smallest to largest."""
    seq = list(order) if order is not None else list(range(n))
    pairs = frozenset(
        (seq[i], seq[j]) for i in range(n) for j in range(i + 1, n)
    )
    return StrictPoset(n, pairs)


def transitive_closure(rel: Iterable[tuple[int, int]], n: int) -> StrictPoset:
    """Smallest transitive relation containing `rel`.

    Raises NotAcyclic when the generators contain a directed cycle
    (including 2-cycles, i.e. asymmetry violations, and self-loops).
    """
    reach = [0] * n
    for a, b in rel:
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidInput(f"pair {(a, b)} out of range for n={n}")
        reach[a] |= 1 << b
    # Bitmask Floyd-Warshall: reach[a] accumulates everything below a.  An
    # element that reaches nothing at first never does, so the loops skip it.
    sources = [a for a in range(n) if reach[a]]
    for k in sources:
        kbit = 1 << k
        for a in sources:
            if reach[a] & kbit:
                reach[a] |= reach[k]
    pairs = set()
    for a in sources:
        if reach[a] >> a & 1:
            raise NotAcyclic(f"cycle through element {a}")
        m = reach[a]
        while m:
            low = m & -m
            pairs.add((a, low.bit_length() - 1))
            m ^= low
    return StrictPoset(n, frozenset(pairs))


def transitive_reduction(p: StrictPoset) -> frozenset[tuple[int, int]]:
    """The Hasse diagram: pairs (a, b) with nothing strictly between."""
    return frozenset((a, b) for a, b in p.pairs if not p.above[a] & p.below[b])


@dataclass(frozen=True)
class DoublePoset:
    """Two strict posets on a shared ground set 0..n-1."""

    n: int
    west: StrictPoset
    south: StrictPoset

    def __post_init__(self):
        if self.west.n != self.n or self.south.n != self.n:
            raise InvalidInput("order sizes disagree with ground set size")

    def restrict(self, keep: Sequence[int]) -> "DoublePoset":
        """Induced double poset on `keep`, relabeled to 0..len(keep)-1.

        `keep` must list distinct elements of 0..n-1."""
        idx = {e: i for i, e in enumerate(keep)}
        if len(idx) != len(keep) or not all(0 <= e < self.n for e in idx):
            raise InvalidInput(f"restriction to {list(keep)!r} needs distinct "
                               f"elements of 0..{self.n - 1}")
        w = frozenset((idx[a], idx[b]) for a, b in self.west.pairs
                      if a in idx and b in idx)
        s = frozenset((idx[a], idx[b]) for a, b in self.south.pairs
                      if a in idx and b in idx)
        k = len(keep)
        return DoublePoset(k, StrictPoset(k, w), StrictPoset(k, s))


def double_poset(n: int, west: Iterable[tuple[int, int]],
                 south: Iterable[tuple[int, int]]) -> DoublePoset:
    """Build a double poset from acyclic generator pairs, closing transitively."""
    return DoublePoset(n, transitive_closure(west, n), transitive_closure(south, n))


def _order_masks(dst: DoublePoset | Permutation, south: bool,
                 above: bool) -> Sequence[int]:
    """Bitmasks of the elements above (or below) each element, in one order
    of dst.  A Permutation is read from its values, not from perm_to_dp."""
    if isinstance(dst, Permutation):
        masks = [0] * dst.n
        seen = 0
        order = sorted(range(dst.n), key=dst.values.__getitem__ if south else None)
        for e in reversed(order) if above else order:
            masks[e] = seen
            seen |= 1 << e
        return masks
    order = dst.south if south else dst.west
    return order.above if above else order.below


def _iter_morphisms(src: DoublePoset, dst: DoublePoset | Permutation,
                    onto: bool = False):
    """Yield every morphism src -> dst as the tuple of images of src's elements.

    src's elements are placed in a west linear extension, and each one's
    candidates are the dst elements that every comparable element placed
    before it allows: an AND of bitmasks.  With onto=True only surjective
    maps are yielded: once the unplaced elements are just enough to cover
    the dst elements not yet hit, they may only go to those.  A Permutation
    dst stands for perm_to_dp(dst).
    """
    ns, nd = src.n, dst.n
    if onto and nd > ns:
        return
    if ns == 0:
        yield ()
        return
    # Fewer west predecessors first: a linear extension of the west order.
    order = sorted(range(ns), key=lambda e: src.west.below[e].bit_count())
    level = {e: k for k, e in enumerate(order)}
    # needs[k]: (f, table) for each element f comparable to order[k] and
    # placed before it; order[k]'s image must lie in table[image of f].
    # Only the mask directions read here are built: the west order only
    # needs `above`, since a west pair's smaller element is placed first.
    needs = [[] for _ in order]
    tables = {}
    for south, p in ((False, src.west), (True, src.south)):
        for a, b in p.pairs:
            up = level[a] < level[b]
            if (south, up) not in tables:
                tables[south, up] = _order_masks(dst, south, up)
            placed, e = (a, b) if up else (b, a)
            needs[level[e]].append((placed, tables[south, up]))
    full = (1 << nd) - 1
    last = ns - 1
    image = [0] * ns
    cands = [full] * ns
    used = [0] * ns  # dst elements hit by the elements placed before level k
    k = 0
    while k >= 0:
        m = cands[k]
        if not m:
            k -= 1
            continue
        low = m & -m
        cands[k] = m ^ low
        image[order[k]] = low.bit_length() - 1
        if k == last:
            yield tuple(image)
            continue
        k += 1
        used[k] = used[k - 1] | low
        m = full
        for f, table in needs[k]:
            m &= table[image[f]]
        if onto and nd - used[k].bit_count() == ns - k:
            m &= ~used[k]
        cands[k] = m


def _shape(d):
    """Element count of d, and a reader of its west and south Hasse pairs
    (lower, upper): each order's covers() for a DoublePoset, d.covers() for an
    SNPolytree or an ArboNE, read off tree edges (a CornerTree's count only)."""
    if isinstance(d, DoublePoset):
        return d.n, lambda: (d.west.covers(), d.south.covers())
    if hasattr(d, "size"):  # a tree or an ArboNE
        return d.size(), lambda: d.covers()
    raise TypeError(f"cannot read the shape of {type(d).__name__}")


def morphism_bound(d, n: int) -> int:
    """A bound on |Mor(d, pi)| for every permutation pi of length n.

    A morphism is fixed by its positions, which strictly increase along the
    west order, and also by its values, which strictly increase along the
    south order.  When an order is a forest rooted at its maxima (every
    element has at most one upper cover), at most a fraction 1/prod(|down-set
    of v|) of the n^k maps increase strictly along it: the hook-length
    argument for forests.  A forest rooted at its minima works the same way
    with up-sets.  The bound divides n^k by the largest such product, or is
    n^k when neither order is such a forest; for a chain it is n^k / k!.
    d is a DoublePoset, an SNPolytree or an ArboNE, and only its Hasse pairs
    are read (_shape): a tree's are its edges, an ArboNE's its tree's edges and
    the two below its top, and each down-set (up-set) is a cover-forest subtree.
    """
    k, hasse = _shape(d)
    hooks = 1
    for covers in hasse():
        for parent in (dict(covers), {b: a for a, b in covers}):
            if len(parent) == len(covers):  # no element has two parents
                size = [1] * k  # subtree sizes, added up children first
                tree = TopologicalSorter({v: (w,) for v, w in parent.items()})
                for v in reversed([*tree.static_order()]):
                    if v in parent:
                        size[parent[v]] += size[v]
                hooks = max(hooks, math.prod(size))
    return n ** k // hooks


def std(window: Sequence[int]) -> Permutation:
    """Standardization: the unique permutation order-isomorphic to `window`.

    >>> std((5, 3, 4)).values
    (3, 1, 2)
    """
    if len(set(window)) != len(window):
        raise InvalidInput(f"duplicate entries in window {window!r}")
    rank = {v: i + 1 for i, v in enumerate(sorted(window))}
    return Permutation(tuple(rank[v] for v in window))


def naive_pattern_count(big: Permutation, pattern: Permutation) -> int:
    """Count occurrences of `pattern` in `big` by subset enumeration.

    Deliberately simple; the reference oracle for everything faster.
    """
    return pattern_count_table(big, [pattern.n]).get(pattern, 0)


def pattern_count_table(big: Permutation, sizes: Iterable[int]) -> dict[Permutation, int]:
    """All pattern counts of `big` for the given pattern sizes, in one sweep."""
    table: dict[Permutation, int] = {}
    for k in sizes:
        for positions in itertools.combinations(range(big.n), k):
            window = [big.values[p] for p in positions]
            pat = std(window)
            table[pat] = table.get(pat, 0) + 1
    return table


def perm_to_dp(sigma: Permutation) -> DoublePoset:
    """Encode a permutation as a double poset (position order, value order).

    Element i (a 0-indexed position) sits west of j iff i < j, and south of
    j iff sigma(i) < sigma(j).
    """
    n = sigma.n
    vals = sigma.values
    west = chain_poset(n)
    south_order = sorted(range(n), key=lambda i: vals[i])
    return DoublePoset(n, west, chain_poset(n, south_order))


def dp_to_perm(d: DoublePoset) -> Permutation:
    """Inverse of perm_to_dp; both orders must be total."""
    if not (d.west.is_total() and d.south.is_total()):
        raise NotAPermutationPoset("both orders must be total")
    values = [0] * d.n
    for w, s in zip(d.west.below, d.south.below):
        values[w.bit_count()] = s.bit_count() + 1
    return Permutation(tuple(values))


def swap(d: DoublePoset) -> DoublePoset:
    """Exchange the two orders.  An involution."""
    return DoublePoset(d.n, d.south, d.west)


def anti(d: DoublePoset) -> DoublePoset:
    """Reverse both orders.  An involution."""
    return DoublePoset(d.n, d.west.reversed(), d.south.reversed())


@dataclass(frozen=True)
class Classification:
    is_twin: bool
    is_tree: bool
    is_twin_tree: bool
    is_permutation: bool


def classify(d) -> Classification:
    """Hasse-diagram flags of a DoublePoset or an SNPolytree, read off its
    Hasse pairs (_shape), so a tree's come from its edges.

    twin: both Hasse diagrams equal as labeled undirected graphs;
    tree: both Hasse diagrams are trees (connected and acyclic);
    permutation: both Hasse diagrams are chains, so both orders are total.
    """
    k, hasse = _shape(d)
    hw, hs = hasse()

    def chain(h):  # k - 1 pairs, no element twice below and none twice above
        return len(h) == len(dict(h)) == len({b for _, b in h}) == max(k - 1, 0)
    is_twin = {frozenset(e) for e in hw} == {frozenset(e) for e in hs}
    is_tree = _is_tree(range(k), hw) and _is_tree(range(k), hs)
    return Classification(is_twin, is_tree, is_twin and is_tree,
                          chain(hw) and chain(hs))


def _is_tree(nodes: Sequence, pairs: Collection[tuple]) -> bool:
    """Whether the undirected graph on `nodes` with the edges `pairs` is a
    tree: n - 1 edges, connected.  Loops and parallel edges fail too."""
    if len(pairs) != len(nodes) - 1:
        return False
    adj = {v: [] for v in nodes}
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nodes)


def relabel(d: DoublePoset, image: Sequence[int]) -> DoublePoset:
    """Apply the relabeling e -> image[e] to both orders."""
    w = frozenset((image[a], image[b]) for a, b in d.west.pairs)
    s = frozenset((image[a], image[b]) for a, b in d.south.pairs)
    return DoublePoset(d.n, StrictPoset(d.n, w), StrictPoset(d.n, s))


CanonicalForm = tuple


_CANONICAL_CAP = 8


@lru_cache(maxsize=200_000)
def canonical_form(d: DoublePoset) -> CanonicalForm:
    """Lexicographically minimal encoding over all relabelings.

    Two double posets are isomorphic iff their canonical forms are equal.
    Brute force over n! relabelings, hence the size cap.
    """
    if d.n > _CANONICAL_CAP:
        raise TooLargeForCanonicalization(
            f"n={d.n} exceeds canonicalization cap {_CANONICAL_CAP}")
    best = None
    wp = d.west.pairs
    sp = d.south.pairs
    for image in itertools.permutations(range(d.n)):
        enc = (
            tuple(sorted((image[a], image[b]) for a, b in wp)),
            tuple(sorted((image[a], image[b]) for a, b in sp)),
        )
        if best is None or enc < best:
            best = enc
    return (d.n,) + best


def are_isomorphic(d1: DoublePoset, d2: DoublePoset) -> bool:
    if d1.n != d2.n:
        return False
    if len(d1.west.pairs) != len(d2.west.pairs):
        return False
    if len(d1.south.pairs) != len(d2.south.pairs):
        return False
    return canonical_form(d1) == canonical_form(d2)
