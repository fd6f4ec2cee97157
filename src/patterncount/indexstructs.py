"""Exact-integer accumulators: 1-D sum-trees and sparse 2-D product-trees.

Both are realized as binary indexed (Fenwick) trees, which have the same
logarithmic update/query costs as a complete binary tree of partial sums.
Python integers are arbitrary precision, so counts never overflow.  The
streaming reference paths use these trees: the corner-tree scans and
StreamWestCounter use sum-trees, and the exact box pass of gen3214 one
product-tree, for the box sums of the dangle weights below `two`.  The
vectorized paths in _fast are exact by ring arithmetic and need neither.
"""

from __future__ import annotations


class DuplicateColumn(ValueError):
    """A product-tree column (x coordinate) was used twice."""


class SumTree:
    """Fenwick tree over indices 1..n with strict prefix/suffix sums.

    prefix(k) sums entries at indices < k and suffix(k) sums entries at
    indices > k; the entry at k itself is excluded from both.  This makes
    the insert-then-query step of the counting scans safe: a point never
    pairs with itself.
    """

    __slots__ = ("n", "_tree", "total")

    def __init__(self, n: int):
        if n < 0:
            raise IndexError(f"capacity must be nonnegative, got {n}")
        self.n = n
        self._tree = [0] * (n + 1)
        self.total = 0

    def __len__(self) -> int:
        return self.n

    def add(self, idx: int, w: int) -> None:
        """Add w to the entry at idx (1-indexed)."""
        if not 1 <= idx <= self.n:
            raise IndexError(f"index {idx} out of range 1..{self.n}")
        self.total += w
        tree = self._tree
        while idx <= self.n:
            tree[idx] += w
            idx += idx & -idx

    def _query(self, idx: int) -> int:
        # Inclusive sum of entries 1..idx.
        tree = self._tree
        s = 0
        while idx > 0:
            s += tree[idx]
            idx &= idx - 1
        return s

    def prefix(self, k: int) -> int:
        """Sum of entries at indices strictly below k."""
        if not 1 <= k <= self.n:
            raise IndexError(f"index {k} out of range 1..{self.n}")
        return self._query(k - 1)

    def suffix(self, k: int) -> int:
        """Sum of entries at indices strictly above k."""
        if not 1 <= k <= self.n:
            raise IndexError(f"index {k} out of range 1..{self.n}")
        return self.total - self._query(k)

    def value_at(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise IndexError(f"index {k} out of range 1..{self.n}")
        return self._query(k) - self._query(k - 1)


class ProductTree:
    """Sparse 2-D accumulator over points (x, y) with 0-indexed coordinates.

    An outer Fenwick tree over x holds, per node, an inner dict-backed
    Fenwick tree over y, so updates and box sums both cost O(log^2 n).
    At most one point per column: the points of interest come from the
    graph of a permutation.
    """

    __slots__ = ("n", "_inner", "_column_y")

    def __init__(self, n: int):
        if n < 0:
            raise IndexError(f"capacity must be nonnegative, got {n}")
        self.n = n
        self._inner: list[dict[int, int]] = [dict() for _ in range(n + 1)]
        self._column_y: dict[int, int] = {}

    def add(self, x: int, y: int, w: int) -> None:
        """Register weight w at point (x, y)."""
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise IndexError(f"point {(x, y)} out of range for n={self.n}")
        if x in self._column_y and self._column_y[x] != y:
            raise DuplicateColumn(f"column x={x} already holds y={self._column_y[x]}")
        self._column_y[x] = y
        xi = x + 1
        while xi <= self.n:
            inner = self._inner[xi]
            yi = y + 1
            while yi <= self.n:
                inner[yi] = inner.get(yi, 0) + w
                yi += yi & -yi
            xi += xi & -xi

    def _prefix(self, x_hi: int, y_hi: int) -> int:
        # Sum over 0 <= x < x_hi, 0 <= y < y_hi.
        s = 0
        xi = x_hi
        while xi > 0:
            inner = self._inner[xi]
            yi = y_hi
            while yi > 0:
                s += inner.get(yi, 0)
                yi &= yi - 1
            xi &= xi - 1
        return s

    def sum_box(self, x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> int:
        """Sum of weights with x_lo <= x < x_hi and y_lo <= y < y_hi."""
        if not (0 <= x_lo <= x_hi <= self.n and 0 <= y_lo <= y_hi <= self.n):
            raise IndexError(
                f"malformed box {(x_lo, x_hi, y_lo, y_hi)} for n={self.n}")
        if x_lo == x_hi or y_lo == y_hi:
            return 0
        return (self._prefix(x_hi, y_hi) - self._prefix(x_lo, y_hi)
                - self._prefix(x_hi, y_lo) + self._prefix(x_lo, y_lo))
