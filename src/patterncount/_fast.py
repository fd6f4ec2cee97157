"""Vectorized counting paths: corner-tree scans and the block decomposition.

These compute exactly the same integers as the streaming reference code in
counting and gen3214, reorganized so numpy does the work:

* One offline scan engine serves every corner label.  A top-down merge
  schedule over a sequence's keys answers "sum of x over earlier points
  with smaller key" (the SW sum) for the whole sequence at once, one
  cumsum per merge level.  The other three quadrants follow from it:
  NW = position prefix - SW, SE = key prefix - SW, and
  NE = total - x - position prefix - key prefix + SW, where the position
  prefix sums x over earlier points and the key prefix sums x over smaller
  keys.  count_corner_tree runs it on a whole permutation.  Types A and B
  share one gated pass, over positions for type A and over values for
  type B; it runs the engine on each block's gated point set, whose root
  values depend only on that set.
* The box pass weighs its triples with the root values of one dangle tree
  per anchor, each from one scan of the whole permutation.  It takes one
  position block at a time: it lists the block's (four, three, one)
  candidate triples as flat arrays, reads the in-block terms from one
  cumulative table per block and the west-of-block terms from a prefix
  array over values, and sends the one term with both corners west of the
  block to _dominance_batch, which buckets the points onto the grid of the
  batch's distinct query coordinates.

Counts live in ring arithmetic, so they are exact on every input.  Only
positions and values are ever compared; a count only meets +, -, * and
cumsum, which in int64 wrap modulo 2^64.  A pass therefore first runs in
that natural ring.  When the caller's a-priori bound on the count reaches
2^64, the pass runs once more modulo each prime below 2^31 that the bound
requires, and the residues are combined by the Chinese remainder theorem.
Each schedule is built once and serves every modulus.  A prime pass keeps
its values reduced below p after every product and after every cumsum that
feeds one, so no int64 intermediate reaches 2^63.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import Permutation
from .trees import CornerTree

_WRAP = 1 << 64  # the int64 ring, which reduces by wrapping around
_PRIME_CEILING = 1 << 31


# Never raised, since every pass is exact; kept for callers that still name it.
class Int64Risk(Exception):
    pass


@lru_cache(maxsize=None)
def _prime_below(c: int) -> int:
    """Largest prime below c, by trial division (once per process)."""
    c -= 1
    while any(c % d == 0 for d in range(2, math.isqrt(c) + 1)):
        c -= 1
    return c


def _moduli(bound: int) -> tuple[int, ...]:
    """2^64, then the primes below 2^31 whose product with it exceeds bound."""
    moduli = [_WRAP]
    product, prime = _WRAP, _PRIME_CEILING
    while product <= bound:
        prime = _prime_below(prime)
        moduli.append(prime)
        product *= prime
    return tuple(moduli)


def _crt(residues: list[int], moduli: tuple[int, ...]) -> int:
    """The integer in [0, prod(moduli)) with the given residues (Garner)."""
    x, mod = 0, 1
    for r, q in zip(residues, moduli):
        x += mod * ((r - x) * pow(mod, -1, q) % q)
        mod *= q
    return x


def _mod(a: np.ndarray, q: int) -> np.ndarray:
    """Reduce into [0, q) in a prime ring; the int64 ring wraps by itself."""
    return a if q == _WRAP else a % q


def _prefix_sums(x: np.ndarray, q: int) -> np.ndarray:
    """[0, x0, x0 + x1, ...], reduced."""
    return _mod(np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(x)]), q)


def _run_length(size: int) -> int:
    # Larger dense runs at large sizes trade one split level for a compact
    # in-cache kernel.
    return 64 if size >= (1 << 16) else min(32, size)


@lru_cache(maxsize=16)
def _level_geometry(size: int, run: int):
    """Static per-level run layout shared by every schedule of this size."""
    idx = np.arange(size, dtype=np.int32)
    geo = []
    s = size
    while s >= 2 * run:
        half = s >> 1
        runbase = idx - (idx & (s - 1))
        geo.append((half, runbase, idx - runbase))
        s = half
    return tuple(geo)


@lru_cache(maxsize=4)
def _upper_tri(run: int) -> np.ndarray:
    j = np.arange(run)
    return j[:, None] < j[None, :]


class _SplitSchedule:
    """Top-down merge split of one key sequence, shared across transforms.

    Levels split key-sorted runs into their aligned halves; the cross
    contribution of each split is a masked cumsum read off at right-half
    slots.  Runs at the bottom are handled by one dense matrix per run.
    The construction pass lays out every level and the bottom matrices
    once, and the all-ones transform falls out of it and is stored; each
    further transform replays the stored layout.
    """

    def __init__(self, keys: np.ndarray):
        """keys must be a permutation of 0..t-1."""
        t = len(keys)
        size = 1
        while size < max(t, 1):
            size *= 2
        self.t = t
        self.size = size
        run = _run_length(size)
        # The key order, padded with the keys t..size-1 in their own slots.
        self._order0 = np.arange(size, dtype=np.int32)
        self._order0[keys] = np.arange(t, dtype=np.int32)
        ones = np.zeros(size, dtype=np.int64)
        order = self._order0
        self._levels = []
        for half, runbase, pos_in_run in _level_geometry(size, run):
            left = (order & half) == 0
            c = np.cumsum(left, dtype=np.int32)
            ec = c - left
            w = ec - ec.take(runbase)  # lefts sorted before each slot, in-run
            right = np.flatnonzero(~left).astype(np.int32)
            dest = order.take(right)
            ones[dest] += w.take(right)
            # In a prefix array with a leading zero, the lefts sorted before
            # a right slot in its run are prefix[right + 1] - prefix[runbase].
            self._levels.append((order, left, right + 1, runbase.take(right), dest))
            order = _partition(order, left, w, half, runbase, pos_in_run)
        self._bottom = order
        o = order.reshape(size // run, run)
        self._kernel = (o[:, :, None] < o[:, None, :]) & _upper_tri(run)
        ones[order] += self._kernel.sum(axis=1).ravel()
        self._ones = ones

    def ones_smaller(self) -> np.ndarray:
        """dominance_smaller for x identically one."""
        return self._ones[:self.t].copy()

    def dominance_smaller(self, x: np.ndarray, q: int) -> np.ndarray:
        """z[i] = sum of x[j] over j < i with key[j] < key[i], in the ring
        of modulus q; x must be reduced.
        """
        t, size = self.t, self.size
        if t == 0:
            return np.zeros(0, dtype=np.int64)
        xp = np.zeros(size, dtype=np.int64)
        xp[:t] = x
        z = np.zeros(size, dtype=np.int64)
        cx = np.zeros(size + 1, dtype=np.int64)
        for order, left, after, start, dest in self._levels:
            np.cumsum(np.where(left, xp.take(order), 0), out=cx[1:])
            z[dest] += cx.take(after) - cx.take(start)
        order = self._bottom
        xr = xp.take(order).reshape(self._kernel.shape[:2])
        z[order] += np.einsum("rji,rj->ri", self._kernel, xr).ravel()
        # Each z[i] sums fewer than t reduced values, so it stays below t * q.
        return _mod(z[:t], q)

    def key_prefix(self, x: np.ndarray) -> np.ndarray:
        """s[i] = sum of x[j] over every j with key[j] < key[i], unreduced."""
        order = self._order0[:self.t]
        xs = x.take(order)
        s = np.empty(self.t, dtype=np.int64)
        s[order] = np.cumsum(xs) - xs
        return s


def _partition(order, left, left_rank, half, runbase, pos_in_run):
    """Stable partition of every aligned run into its two index halves."""
    dest = runbase + np.where(left, left_rank, half + (pos_in_run - left_rank))
    new_order = np.empty(len(order), dtype=np.int32)
    new_order[dest] = order
    return new_order


def _tree_values(tree: CornerTree, schedule: _SplitSchedule, q: int,
                 node=None) -> np.ndarray | None:
    """Placement counts of each subtree with its root at each sequence point,
    reduced.

    Returns None for leaves, meaning "identically one".
    """
    node = tree.root if node is None else node
    x = None
    for child, label in tree.children(node):
        z = _corner_sums(schedule, _tree_values(tree, schedule, q, child),
                         label, q)
        x = z if x is None else _mod(x * z, q)
    return x


def _corner_sums(schedule: _SplitSchedule, x: np.ndarray | None, label: str,
                 q: int) -> np.ndarray:
    """Sum of x over the points in each point's label quadrant, reduced.

    x is None for identically one.  Every quadrant comes from the one SW
    dominance sum and the position and key prefix sums; each term below
    sums at most t reduced values, so no int64 intermediate reaches 2^63.
    """
    if x is None:
        x = np.ones(schedule.t, dtype=np.int64)
        sw = schedule.ones_smaller()
    else:
        sw = schedule.dominance_smaller(x, q)
    if label == "SW":
        return sw
    west = np.cumsum(x) - x
    if label == "NW":
        return _mod(west - sw, q)
    south = schedule.key_prefix(x)
    if label == "SE":
        return _mod(south - sw, q)
    return _mod(x.sum() - x - west - south + sw, q)  # NE


def _root_values(tree: CornerTree, schedule: _SplitSchedule,
                 q: int) -> np.ndarray:
    x = _tree_values(tree, schedule, q)
    return np.ones(schedule.t, dtype=np.int64) if x is None else x


def _perm_arrays(pi: Permutation) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pi.zero_indexed(), dtype=np.int64)
    ip = np.empty(pi.n, dtype=np.int64)
    ip[p] = np.arange(pi.n, dtype=np.int64)
    return p, ip


def count_corner_tree(pi: Permutation, tree: CornerTree, bound: int) -> int:
    """Occurrences of the corner tree in pi, given that they are at most bound."""
    p, _ = _perm_arrays(pi)
    schedule = _SplitSchedule(p)
    moduli = _moduli(bound)
    return _crt([int(_root_values(tree, schedule, q).sum()) for q in moduli],
                moduli)


def count_type_a(pi: Permutation, west_tree: CornerTree, m: int,
                 bound: int) -> int:
    """The type-A count, given that it is at most bound."""
    p, ip = _perm_arrays(pi)
    return _gated_pass(p, ip, west_tree, m, bound, own_block=False)


def count_type_b_not_a(pi: Permutation, inv_west_tree: CornerTree, m: int,
                       bound: int) -> int:
    """The type-B-not-A count, given that it is at most bound."""
    p, ip = _perm_arrays(pi)
    return _gated_pass(ip, p, inv_west_tree, m, bound, own_block=True)


def _gated_pass(g: np.ndarray, inv: np.ndarray, tree: CornerTree, m: int,
                bound: int, own_block: bool) -> int:
    """One gated scan per block of g's values, given a count at most bound.

    The scan index s runs over 0..n-1 and g[s] is its gate coordinate; inv
    is g's inverse.  For the block [r, r + m) the points with g[s] < r feed
    the tree scan, and each candidate s = inv[v], v in the block, collects
    the root placements at gated points before it, or with own_block only
    those in its own block of scan indices.  Type A scans positions with
    g = p; type B scans values with g = ip and own_block.
    """
    n = len(g)
    moduli = _moduli(bound)
    totals = [0] * len(moduli)
    for r in range(m, n, m):
        gated = np.flatnonzero(g < r)
        schedule = _SplitSchedule(g[gated])
        cand = inv[r:min(r + m, n)]
        start = cand - cand % m if own_block else np.zeros_like(cand)
        lo, hi = np.searchsorted(gated, start), np.searchsorted(gated, cand)
        for k, q in enumerate(moduli):
            croots = _prefix_sums(_root_values(tree, schedule, q), q)
            totals[k] += int(croots[hi].sum()) - int(croots[lo].sum())
    return _crt(totals, moduli)


def count_box(pi: Permutation, dec, m: int, bound: int) -> int:
    """The box count, given that it is at most bound."""
    p, ip = _perm_arrays(pi)
    full = _SplitSchedule(p)
    moduli = _moduli(bound)
    return _crt([_box(p, ip, full, dec, m, q) for q in moduli], moduli)


_BOX_STEP = 1 << 13   # triples per vectorized step of the box pass
_BOX_BATCH = 1 << 16  # deferred queries per _dominance_batch call, at most


def _ranges(counts: np.ndarray) -> np.ndarray:
    """0..c-1 for each c in counts, concatenated."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(starts, counts)


def _block_table(vals: np.ndarray, w: np.ndarray, q: int):
    """In-block cumulative table of one position block.

    table[i, j] sums w over the block's first i points whose value is among
    the block's j smallest; also returns the sorted values and each point's
    value rank.
    """
    size = len(vals)
    order = np.argsort(vals)
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(size)
    table = np.zeros((size + 1, size + 1), dtype=np.int64)
    table[np.arange(1, size + 1), rank + 1] = w
    # Each entry sums at most size reduced values before it is reduced.
    table = _mod(np.cumsum(_mod(np.cumsum(table, axis=0), q), axis=1), q)
    return table, vals[order], rank


def _block_triples(p: np.ndarray, ip: np.ndarray, d3: np.ndarray, col: int,
                   end: int, m: int):
    """The box triples (x3, y1, x1) of the position block [col, end), in
    steps of about _BOX_STEP; x3 with d3[x3] = 0 is left out.
    """
    size = end - col
    # Every (x4, x3) pair, then the y1 range [lo, y4) of each.
    x3 = col + _ranges(np.arange(size))
    y4 = np.repeat(p[col:end], np.arange(size))
    lo = np.maximum(y4 - y4 % m, p[x3] + 1)
    cnt = y4 - lo
    keep = (cnt > 0) & (d3[x3] != 0)
    x3, lo, cnt = x3[keep], lo[keep], cnt[keep]
    if len(cnt) == 0:
        return
    ends = np.cumsum(cnt)
    cuts = np.searchsorted(ends, np.arange(_BOX_STEP, int(ends[-1]), _BOX_STEP))
    bounds = [0, *cuts.tolist(), len(cnt)]
    for s, e in zip(bounds, bounds[1:]):
        if s < e:
            xs3 = np.repeat(x3[s:e], cnt[s:e])
            ys1 = np.repeat(lo[s:e], cnt[s:e]) + _ranges(cnt[s:e])
            xs1 = ip[ys1]
            ok = xs1 < xs3
            yield xs3[ok], ys1[ok], xs1[ok]


def _box(p: np.ndarray, ip: np.ndarray, full: _SplitSchedule, dec, m: int,
         q: int) -> int:
    """Sum of d3[x3] * d1[x1] * b2 over the box triples, in the ring of q.

    A triple is a candidate `four` x4, a `three` x3 in x4's position block
    and west of it, and a `one` value y1 in y4's value block below y4, above
    y3 = p[x3], whose point x1 = ip[y1] lies west of x3.  b2 sums the
    dangle2 weights w2 strictly inside (x1, x3) x (y3, y1).  With F(X, Y) the
    sum of w2 over points at positions <= X and values <= Y,

        b2 = F(x3 - 1, y1 - 1) - g3[x1] - g3[x3] + F(x1, y3),

    where g3 = full.dominance_smaller(w2) is F just south-west of a point.
    Each F splits at the block's west edge: the west part reads a prefix
    array over values, the in-block part the block's cumulative table.
    F(x1, y3) with x1 west of the block goes to _dominance_batch, once per
    block or per _BOX_BATCH queries.
    """
    n = len(p)
    d3 = _root_values(dec.dangle3_tree, full, q)
    d1 = _root_values(dec.dangle1_tree, full, q)
    if dec.dangle2_tree is None:
        # Each coef is reduced and a step sums fewer than _BOX_STEP + m.
        return sum(int(_mod(d3[x3] * d1[x1], q).sum())
                   for col in range(0, n, m)
                   for x3, _, x1 in _block_triples(p, ip, d3, col,
                                                   min(col + m, n), m))

    w2 = _root_values(dec.dangle2_tree, full, q)
    g3 = full.dominance_smaller(w2, q)
    west_w = np.zeros(n, dtype=np.int64)  # w2 by value, west of the block
    total = 0
    for col in range(0, n, m):
        end = min(col + m, n)
        if col:
            west_w[p[col - m:col]] = w2[col - m:col]
        west = _prefix_sums(west_w, q)  # west[v]: w2 west, values below v
        table, sorted_vals, rank = _block_table(p[col:end], w2[col:end], q)
        deferred, pending = [], 0
        for xs3, ys1, xs1 in _block_triples(p, ip, d3, col, end, m):
            coef = _mod(d3[xs3] * d1[xs1], q)
            ys3 = p[xs3]
            at3 = xs3 - col
            b2 = (west[ys1] + table[at3, np.searchsorted(sorted_vals, ys1)]
                  - g3[xs1] - g3[xs3])
            inb = xs1 >= col
            b2[inb] += (west[ys3[inb] + 1]
                        + table[xs1[inb] - col + 1, rank[at3[inb]] + 1])
            # b2 sums six reduced terms, so it lies in (-2q, 4q) before its
            # reduction; coef * b2 stays below q^2 < 2^62, and a step sums
            # fewer than _BOX_STEP + m reduced products.
            total += int(_mod(coef * _mod(b2, q), q).sum())
            out = ~inb
            deferred.append((xs1[out], ys3[out], coef[out]))
            pending += len(deferred[-1][0])
            if pending >= _BOX_BATCH:
                total += _dominance_batch(p, w2, *_joined(deferred), q)
                deferred, pending = [], 0
        if pending:
            total += _dominance_batch(p, w2, *_joined(deferred), q)
    return total


def _joined(parts: list) -> list[np.ndarray]:
    return [np.concatenate(column) for column in zip(*parts)]


_GRID_CELLS = 1 << 20


def _count_below(coords: np.ndarray, size: int) -> np.ndarray:
    """below[v] = number of distinct coords less than v, for v in 0..size-1."""
    mark = np.zeros(size, dtype=np.int64)
    mark[coords] = 1
    return np.cumsum(mark) - mark


def _dominance_batch(p: np.ndarray, w2: np.ndarray, qx: np.ndarray,
                     qy: np.ndarray, qc: np.ndarray, q: int) -> int:
    """Sum of qc * F(qx, qy) with F(X, Y) = sum of w2 over points south-west
    of (X, Y), inclusive on both coordinates, in the ring of modulus q.

    The points are bucketed onto the grid of the batch's distinct query
    positions and values: a point lands on the first query column at or east
    of it and the first query row at or north of it, and F at a query is the
    2-D prefix sum of the grid up to the query's own cell.  That costs
    O(n + len(qx) + cells).  A box batch takes its values from one position
    block, so its grid has at most m rows; a batch whose grid would exceed
    _GRID_CELLS is split by value.
    """
    if len(qx) == 0:
        return 0
    xsize = int(qx.max()) + 1  # points east of every query never count
    col_of = _count_below(qx, xsize)
    row_of = _count_below(qy, len(p))
    ncols = int(col_of[-1]) + 1
    top = int(qy.max())
    nrows = int(row_of[top]) + 1
    if ncols * nrows > _GRID_CELLS and nrows > 1:
        low = qy < np.unique(qy)[nrows // 2]
        return (_dominance_batch(p, w2, qx[low], qy[low], qc[low], q)
                + _dominance_batch(p, w2, qx[~low], qy[~low], qc[~low], q))
    rows = row_of[p[:xsize]]
    inside = rows < nrows
    grid = np.zeros(ncols * nrows, dtype=np.int64)
    np.add.at(grid, col_of[inside] * nrows + rows[inside], w2[:xsize][inside])
    # A cell sums at most n reduced values, so it stays below n * q < 2^63.
    grid = _mod(grid, q).reshape(ncols, nrows)
    grid = _mod(np.cumsum(_mod(np.cumsum(grid, axis=0), q), axis=1), q)
    return int(_mod(qc * grid[col_of[qx], row_of[qy]], q).sum())
