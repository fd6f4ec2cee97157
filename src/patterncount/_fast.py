"""Vectorized counting paths for the block decomposition.

These compute exactly the same integers as the streaming code in gen3214,
reorganized so numpy does the work:

* A gated stream's root values depend only on the gated point set, so each
  block's scan becomes an offline pass: a top-down merge schedule answers
  "sum of X over earlier positions with smaller value" for a whole sequence
  at once, one cumsum per merge level.  Suffix-style (NW) sums fall out as
  position-prefix minus value-prefix.
* The box pass evaluates, per candidate top point, all in-block pairs with
  broadcast arrays; the one term whose corners fall outside the candidate's
  blocks is deferred into a single offline dominance batch.

Counts live in ring arithmetic, so they are exact on every input.  Only
positions and values are ever compared; a count only meets +, -, * and
cumsum, which in int64 wrap modulo 2^64.  A pass therefore first runs in
that natural ring.  When the caller's a-priori bound on the count reaches
2^64, the pass runs once more modulo each prime below 2^31 that the bound
requires, and the residues are combined by the Chinese remainder theorem.
A prime pass keeps its values reduced below p after every product and after
every cumsum that feeds one, so no int64 intermediate reaches 2^63.
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


def _in_rings(pass_fn, bound: int, *args) -> int:
    """pass_fn's count, given that it lies in [0, bound]."""
    moduli = _moduli(bound)
    return _crt([pass_fn(*args, q) for q in moduli], moduli)


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
    Only the initial sorted order is kept; each transform replays the
    splits on the fly, which keeps the working set small enough to stay in
    cache even for the largest blocks.  The all-ones transform falls out of
    the construction pass and is stored.
    """

    def __init__(self, keys: np.ndarray):
        t = len(keys)
        size = 1
        while size < max(t, 1):
            size *= 2
        pad = size - t
        keys = np.asarray(keys, dtype=np.int32)
        if pad:
            top = int(keys.max()) + 1 if t else 0
            keys = np.concatenate([keys, top + np.arange(pad, dtype=np.int32)])
        self.t = t
        self.size = size
        self.run = _run_length(size)
        self._order0 = np.argsort(keys, kind="stable").astype(np.int32)
        ones = np.zeros(size, dtype=np.int64)
        order = self._order0
        for half, runbase, pos_in_run in _level_geometry(size, self.run):
            left = (order & half) == 0
            c = np.cumsum(left, dtype=np.int32)
            ec = c - left
            w = ec - ec.take(runbase)  # lefts sorted before each slot, in-run
            rp = ~left
            ones[order[rp]] += w[rp]
            order = _partition(order, left, w, half, runbase, pos_in_run)
        o = order.reshape(size // self.run, self.run)
        kernel = (o[:, :, None] < o[:, None, :]) & _upper_tri(self.run)
        ones[order] += kernel.sum(axis=1).ravel()
        self._ones = ones

    def ones_smaller(self) -> np.ndarray:
        """dominance_smaller for x identically one."""
        return self._ones[:self.t].copy()

    def dominance_smaller(self, x: np.ndarray, q: int) -> np.ndarray:
        """z[i] = sum of x[j] over j < i with key[j] < key[i], in the ring
        of modulus q; x must be reduced.
        """
        t, size, run = self.t, self.size, self.run
        if t == 0:
            return np.zeros(0, dtype=np.int64)
        xp = np.zeros(size, dtype=np.int64)
        xp[:t] = x
        z = np.zeros(size, dtype=np.int64)
        order = self._order0
        for half, runbase, pos_in_run in _level_geometry(size, run):
            left = (order & half) == 0
            xo = xp.take(order)
            lx = np.where(left, xo, 0)
            cx = np.cumsum(lx)
            ecx = cx - lx
            wx = ecx - ecx.take(runbase)
            rp = ~left
            z[order[rp]] += wx[rp]
            c = np.cumsum(left, dtype=np.int32)
            ec = c - left
            w = ec - ec.take(runbase)
            order = _partition(order, left, w, half, runbase, pos_in_run)
        o = order.reshape(size // run, run)
        kernel = (o[:, :, None] < o[:, None, :]) & _upper_tri(run)
        xr = xp.take(order).reshape(o.shape)
        z[order] += np.einsum("rji,rj->ri", kernel, xr).ravel()
        # Each z[i] sums fewer than t reduced values, so it stays below t * q.
        return _mod(z[:t], q)


def _partition(order, left, left_rank, half, runbase, pos_in_run):
    """Stable partition of every aligned run into its two index halves."""
    dest = runbase + np.where(left, left_rank, half + (pos_in_run - left_rank))
    new_order = np.empty(len(order), dtype=np.int32)
    new_order[dest] = order
    return new_order


def _tree_values(tree: CornerTree, schedule: _SplitSchedule, t: int, q: int,
                 node=None) -> np.ndarray | None:
    """Placement counts of each subtree with its root at each sequence point,
    reduced.

    Returns None for leaves, meaning "identically one".
    """
    node = tree.root if node is None else node
    x = None
    for child, label in tree.children(node):
        xc = _tree_values(tree, schedule, t, q, child)
        if xc is None:
            z_sw = schedule.ones_smaller()
            z = z_sw if label == "SW" else \
                np.arange(t, dtype=np.int64) - z_sw
        else:
            z_sw = schedule.dominance_smaller(xc, q)
            z = z_sw if label == "SW" else \
                _mod((np.cumsum(xc) - xc) - z_sw, q)
        x = z if x is None else _mod(x * z, q)
    return x


def _root_values(tree: CornerTree, schedule: _SplitSchedule, t: int,
                 q: int) -> np.ndarray:
    x = _tree_values(tree, schedule, t, q)
    return np.ones(t, dtype=np.int64) if x is None else x


def _perm_arrays(pi: Permutation) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pi.zero_indexed(), dtype=np.int64)
    ip = np.empty(pi.n, dtype=np.int64)
    ip[p] = np.arange(pi.n, dtype=np.int64)
    return p, ip


def _merge_sorted(base: np.ndarray, extra_sorted: np.ndarray) -> np.ndarray:
    return np.insert(base, np.searchsorted(base, extra_sorted), extra_sorted)


def count_type_a(pi: Permutation, west_tree: CornerTree, m: int,
                 bound: int) -> int:
    """The type-A count, given that it is at most bound."""
    return _in_rings(_type_a, bound, pi, west_tree, m)


def _type_a(pi: Permutation, west_tree: CornerTree, m: int, q: int) -> int:
    n = pi.n
    p, ip = _perm_arrays(pi)
    total = 0
    gpos = np.empty(0, dtype=np.int64)
    for r in range(m, n, m):
        gpos = _merge_sorted(gpos, np.sort(ip[r - m:r]))
        schedule = _SplitSchedule(p[gpos])
        croots = _prefix_sums(_root_values(west_tree, schedule, len(gpos), q), q)
        cand = ip[r:min(r + m, n)]
        total += int(croots[np.searchsorted(gpos, cand)].sum())
    return total


def count_type_b_not_a(pi: Permutation, inv_west_tree: CornerTree, m: int,
                       bound: int) -> int:
    """The type-B-not-A count, given that it is at most bound."""
    return _in_rings(_type_b_not_a, bound, pi, inv_west_tree, m)


def _type_b_not_a(pi: Permutation, inv_west_tree: CornerTree, m: int,
                  q: int) -> int:
    n = pi.n
    p, ip = _perm_arrays(pi)
    total = 0
    gs = np.empty(0, dtype=np.int64)
    for c in range(m, n, m):
        gs = _merge_sorted(gs, np.sort(p[c - m:c]))
        schedule = _SplitSchedule(ip[gs])
        croots = _prefix_sums(_root_values(inv_west_tree, schedule, len(gs), q), q)
        cand = p[c:min(c + m, n)]
        hi = int(croots[np.searchsorted(gs, cand)].sum())
        lo = int(croots[np.searchsorted(gs, cand - cand % m)].sum())
        total += hi - lo
    return total


def count_box(pi: Permutation, dec, m: int, bound: int) -> int:
    """The box count, given that it is at most bound."""
    return _in_rings(_box, bound, pi, dec, m)


def _box(pi: Permutation, dec, m: int, q: int) -> int:
    n = pi.n
    p, ip = _perm_arrays(pi)
    full = _SplitSchedule(p)

    def point_products(trees) -> np.ndarray:
        prod = np.ones(n, dtype=np.int64)
        for tree in trees:
            weights = _root_values(tree, full, n, q)
            prod = _mod(prod * full.dominance_smaller(weights, q), q)
        return prod

    d3 = point_products(dec.dangle3_trees)
    d1 = point_products(dec.dangle1_trees)

    two_absent = dec.dangle2_tree is None
    if two_absent:
        w2 = g3 = None
    else:
        w2 = _root_values(dec.dangle2_tree, full, n, q)
        g3 = full.dominance_smaller(w2, q)

    total = 0
    sv = np.empty(0, dtype=np.int64)     # values of points west of the block
    cw = np.zeros(1, dtype=np.int64)     # prefix sums of their dangle2 weights
    batch_x: list[np.ndarray] = []
    batch_y: list[np.ndarray] = []
    batch_c: list[np.ndarray] = []
    batch_len = 0

    def flush_batch():
        nonlocal total, batch_len
        if batch_len:
            total += _dominance_batch(p, w2,
                                      np.concatenate(batch_x),
                                      np.concatenate(batch_y),
                                      np.concatenate(batch_c), q)
            batch_x.clear()
            batch_y.clear()
            batch_c.clear()
            batch_len = 0

    for x4 in range(n):
        if not two_absent and x4 % m == 0 and x4 > 0:
            sv = _merge_sorted(sv, np.sort(p[x4 - m:x4]))
            cw = _prefix_sums(w2[ip[sv]], q)
        col = x4 - x4 % m
        y4 = int(p[x4])
        row = y4 - y4 % m
        a = x4 - col
        b = y4 - row
        if a == 0 or b == 0:
            continue
        xs3 = np.arange(col, x4, dtype=np.int64)
        ys3 = p[xs3]
        vs1 = np.arange(row, y4, dtype=np.int64)
        xs1 = ip[vs1]
        valid = (xs1[None, :] < xs3[:, None]) & (vs1[None, :] > ys3[:, None])
        if not valid.any():
            continue
        coef = _mod(d3[xs3][:, None] * d1[xs1][None, :], q)
        if two_absent:
            total += int(np.where(valid, coef, 0).sum())
            continue
        w2pool = w2[xs3]
        t1 = cw[np.searchsorted(sv, vs1)][None, :]
        cmat = (ys3[:, None] < vs1[None, :]) * w2pool[:, None]
        t1 = t1 + np.cumsum(cmat, axis=0) - cmat
        b2 = t1 - g3[xs3][:, None] - g3[xs1][None, :]
        inb = xs1 >= col
        if inb.any():
            f2col_y3 = cw[np.searchsorted(sv, ys3, side="right")]
            pc = np.cumsum((ys3[:, None] <= ys3[None, :]) * w2pool[:, None],
                           axis=0)
            pc0 = np.concatenate([np.zeros((1, a), dtype=np.int64), pc])
            r = np.clip(xs1[inb] - col + 1, 0, a)
            b2[:, inb] += f2col_y3[:, None] + pc0[r].T
        old = ~inb
        if old.any():
            sub = valid[:, old]
            ii, jj = np.nonzero(sub)
            if len(ii):
                batch_x.append(xs1[old][jj])
                batch_y.append(ys3[ii])
                batch_c.append(coef[:, old][sub])
                batch_len += len(ii)
                if batch_len >= (1 << 21):
                    flush_batch()
        # b2 sums at most 2m + 2 reduced terms, so it stays below (2m + 2) q.
        total += int(np.where(valid, _mod(coef * _mod(b2, q), q), 0).sum())
    flush_batch()
    return total


_SWEEP_CHUNK = 64


def _dominance_batch(p: np.ndarray, w2: np.ndarray, qx: np.ndarray,
                     qy: np.ndarray, qc: np.ndarray, q: int) -> int:
    """Sum of qc * F(qx, qy) with F(X, Y) = sum of w2 over points south-west
    of (X, Y), inclusive on both coordinates, in the ring of modulus q.

    Sweeps positions in chunks: queries read a value-sorted prefix array
    for everything west of their chunk plus a small dense pass over the
    chunk itself.
    """
    n = len(p)
    if len(qx) == 0:
        return 0
    c = _SWEEP_CHUNK
    order = np.argsort(qx, kind="stable")
    qx, qy, qc = qx[order], qy[order], qc[order]
    chunk_of_query = qx // c
    starts = np.searchsorted(chunk_of_query, np.arange((n + c - 1) // c + 1))
    base_vals = np.empty(0, dtype=np.int64)
    base_w = np.empty(0, dtype=np.int64)
    base_cum = np.zeros(1, dtype=np.int64)
    total = 0
    for k in range((n + c - 1) // c):
        lo, hi = starts[k], starts[k + 1]
        if lo < hi:
            gx, gy, gc = qx[lo:hi], qy[lo:hi], qc[lo:hi]
            base_part = base_cum[np.searchsorted(base_vals, gy, side="right")]
            pts = np.arange(k * c, min((k + 1) * c, n))
            inside = (pts[None, :] <= gx[:, None]) & \
                (p[pts][None, :] <= gy[:, None])
            chunk_part = inside @ w2[pts]
            total += int(_mod(gc * _mod(base_part + chunk_part, q), q).sum())
        block_vals = p[k * c:(k + 1) * c]
        ordv = np.argsort(block_vals)
        ins = np.searchsorted(base_vals, block_vals[ordv])
        base_vals = np.insert(base_vals, ins, block_vals[ordv])
        base_w = np.insert(base_w, ins, w2[k * c:(k + 1) * c][ordv])
        base_cum = _prefix_sums(base_w, q)
    return total
