"""Vectorized counting paths: corner-tree scans and the block decomposition.

These compute exactly the same integers as the streaming reference code in
counting and gen3214, reorganized so numpy does the work:

* One offline scan engine serves every corner label.  A top-down merge
  schedule over a sequence's keys answers "sum of x over earlier points
  with smaller key" (the SW sum) for the whole sequence at once.  Each
  level splits aligned runs of sequence indices, sorted by key, into their
  lower and upper halves; it gathers x at the lower halves only, takes one
  in-run cumsum of them and adds each upper-half point's prefix to its sum.
  The other three quadrants follow from it:
  NW = position prefix - SW, SE = key prefix - SW, and
  NE = total - x - position prefix - key prefix + SW, where the position
  prefix sums x over earlier points and the key prefix sums x over smaller
  keys.  count_corner_tree runs it on a whole permutation.  Types A and B
  share one gated pass, over positions for type A and over values for
  type B; it builds one schedule and scans it once per block, with the
  block's gated points, a prefix of the key order, as a 0/1 mask.
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
that natural ring.  When the caller's a-priori bound on the count
(core.morphism_bound of the tree's or the member's double poset) reaches
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


class _SplitSchedule:
    """Top-down merge split of one key sequence, shared across transforms.

    The sequence is padded to a power of two, size.  At the level of run
    length s = 2h the slots form size / s runs; run r holds the sequence
    indices [r * s, (r + 1) * s) sorted by key.  An index in the run's lower
    half is a left, one in its upper half a right, and the split's SW
    contribution to a right is the sum of x over the lefts sorted before it
    in its run.  Each level keeps three half-size arrays: lefts and rights,
    the sequence indices of each half in slot order, and at, each right's
    flat index into a zero-padded (runs, h + 1) table of the in-run prefix
    sums of x at the lefts.  The next level's slots are each run's lefts
    followed by its rights, and the levels go down to runs of two.  The
    all-ones transform falls out of the construction pass and is stored;
    each further transform replays the stored levels.
    """

    def __init__(self, keys: np.ndarray):
        """keys must be a permutation of 0..t-1."""
        t = len(keys)
        size = 1 << max(t - 1, 0).bit_length()
        self.t, self.size = t, size
        # The key order, padded with the keys t..size-1 in their own slots.
        self._order0 = np.arange(size, dtype=np.int32)
        self._order0[keys] = np.arange(t, dtype=np.int32)
        ones = np.zeros(size, dtype=np.int32)
        order = self._order0
        self._levels = []
        i = np.arange(size // 2, dtype=np.int32)  # each right's rank among rights
        slots = np.arange(size, dtype=np.int32)
        s = size
        while s > 1:
            h = s >> 1
            is_right = (order & h) != 0
            lefts = np.compress(~is_right, order)
            j = np.compress(is_right, slots)  # the right slots
            rights = order.take(j)
            j -= i  # lefts sorted before each right slot, over all runs
            r = i >> (h.bit_length() - 1)  # each right's run, of h rights each
            at = j + r
            j -= r * h  # lefts sorted before each right in its own run
            np.add.at(ones, rights, j)
            self._levels.append((h, lefts, rights, at))
            order = np.stack((lefts.reshape(-1, h), rights.reshape(-1, h)),
                             axis=1).ravel()
            s = h
        self._ones = ones

    def ones_smaller(self) -> np.ndarray:
        """dominance_smaller for x identically one."""
        return self._ones[:self.t].astype(np.int64)

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
        table = np.empty(size, dtype=np.int64)
        for h, lefts, rights, at in self._levels:
            cx = table[:size // (2 * h) * (h + 1)].reshape(-1, h + 1)
            cx[:, 0] = 0
            np.cumsum(xp.take(lefts).reshape(-1, h), axis=1, out=cx[:, 1:])
            np.add.at(z, rights, table.take(at))
        # A table entry sums at most h reduced values of one run, and each
        # z[i] sums fewer than t reduced values over all levels, so it stays
        # below t * q.
        return _mod(z[:t], q)

    def key_prefix(self, x: np.ndarray) -> np.ndarray:
        """s[i] = sum of x[j] over every j with key[j] < key[i], unreduced."""
        order = self._order0[:self.t]
        xs = x.take(order)
        s = np.empty(self.t, dtype=np.int64)
        s[order] = np.cumsum(xs) - xs
        return s


def _corner_sums(schedule: _SplitSchedule, x: np.ndarray | None, label: str,
                 q: int, gate: np.ndarray | None) -> np.ndarray:
    """Sum of x over the points in each point's label quadrant, reduced.

    x is None for a single node: one, or the gate (its SW sum counts earlier
    points with smaller keys, which are gated at a gated point).  Every
    quadrant comes from the SW dominance sum and the position and key prefix
    sums; each term sums at most t reduced values, so it stays below 2^63.
    """
    if x is None:
        x = np.ones(schedule.t, dtype=np.int64) if gate is None else gate
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


def _root_values(tree: CornerTree, schedule: _SplitSchedule, q: int,
                 gate: np.ndarray | None = None) -> np.ndarray:
    """Placements of the tree rooted at each sequence point, reduced.

    gate, if given, is a 0/1 mask of a prefix of the key order: placements
    then use gated points only, and every node's values are zeroed outside
    the gate.  Subtrees are valued children first, and each child's values
    are dropped once its parent has used them.
    """
    values: dict = {}
    for node in tree.children_first:
        x = None
        for child, label in tree.children(node):
            z = _corner_sums(schedule, values.pop(child), label, q, gate)
            x = z if x is None else _mod(x * z, q)
        values[node] = x if x is None or gate is None else x * gate
    x = values[tree.root]
    if x is None:
        return np.ones(schedule.t, dtype=np.int64) if gate is None else gate
    return x


def _values(pi: Permutation) -> np.ndarray:
    return np.fromiter(pi.values, dtype=np.int64, count=pi.n) - 1


def _perm_arrays(pi: Permutation) -> tuple[np.ndarray, np.ndarray]:
    p = _values(pi)
    ip = np.empty(pi.n, dtype=np.int64)
    ip[p] = np.arange(pi.n, dtype=np.int64)
    return p, ip


def count_corner_tree(pi: Permutation, tree: CornerTree, bound: int) -> int:
    """Occurrences of the corner tree in pi, given that they are at most bound."""
    schedule = _SplitSchedule(_values(pi))
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
    g = p; type B scans values with g = ip and own_block.  Each gated set is
    a prefix of g's order, so every block scans one schedule keyed by g.
    """
    n = len(g)
    schedule = _SplitSchedule(g)
    moduli = _moduli(bound)
    totals = [0] * len(moduli)
    for r in range(m, n, m):
        gate = (g < r).astype(np.int64)
        cand = inv[r:min(r + m, n)]
        start = cand - cand % m if own_block else np.zeros_like(cand)
        for k, q in enumerate(moduli):
            croots = _prefix_sums(_root_values(tree, schedule, q, gate), q)
            totals[k] += int(croots[cand].sum()) - int(croots[start].sum())
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
