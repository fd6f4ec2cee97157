"""Vectorized counting paths: corner-tree scans and the block decomposition.

These compute exactly the same integers as the pure-Python reference code,
counting.corner_tree_profiles and gen3214's method="exact" passes,
reorganized so numpy does the work:

* One offline scan engine serves every corner label.  A top-down merge
  schedule over a sequence's keys answers "sum of x over earlier points
  with smaller key" (the SW sum) for the whole sequence at once.  Each
  level splits aligned runs of sequence indices, sorted by key, into their
  lower and upper halves; it gathers x at the lower halves only, takes one
  in-run cumsum of them (as h adds over all runs while the halves hold
  h <= 4 points) and adds each upper-half point's prefix to its sum.
  The other three quadrants follow from it:
  NW = position prefix - SW, SE = key prefix - SW, and
  NE = total - x - position prefix - key prefix + SW, where the position
  prefix sums x over earlier points and the key prefix sums x over smaller
  keys.  The scan runs on any prefix of the sequence, reading only the
  leading runs of each level, and reads the prefix in place; x may carry a
  trailing batch axis of columns, each summed as its own scan would be.
  count_corner_trees runs it on a whole permutation for a batch of trees
  (_Forest): each distinct (child subtree, label) pair is valued once per
  modulus, and the edges out of one child share its SW sums.  Types A and
  B share one gated pass, over positions for type A and over values for
  type B; it builds one schedule whose sequence follows the gate
  coordinate, so each block's gated points are a prefix of it.  It scans
  consecutive blocks in groups of at most _GATE_CELLS cells: one scan of
  the prefix of a group's last block, with one column per block, zeroed
  past that block's own gate, pays the scan's fixed cost once per group.
* The box pass weighs its triples with the root values of one dangle tree
  per anchor, each from one scan of the whole permutation.  It takes one
  position block at a time: it lists the block's (four, three, one)
  candidate triples as flat arrays, in steps.  The north-east corner of a
  triple's box splits at the block's west edge and reads one cumulative
  table per block and a prefix array over values.  Its south-west corner
  reads a grid onto which the points before the block's end are bucketed
  once, and _dominance_batch answers each step's reads off it.

Counts live in ring arithmetic, so they are exact on every input.  Only
positions and values are ever compared; a count only meets +, -, * and
cumsum, which in int64 wrap modulo 2^64.  A pass therefore first runs in
that natural ring.  When the caller's a-priori bound on the count
(core.morphism_bound of the tree or of the member, read off tree edges) reaches
2^64, the pass runs once more modulo each prime below 2^31 that the bound
requires, and the residues are combined by the Chinese remainder theorem.
A prime pass keeps its values reduced below p after every product and after
every cumsum that feeds one, so no int64 intermediate reaches 2^63.

One slot (_perm_data) is the only source of a permutation's numpy data.
It keeps the last permutation counted, keyed by object identity: p, ip and
the _SplitSchedule on each, built the first time a pass asks for it, so one
schedule serves every modulus, every tree and every later pass on the same
Permutation object.  The slot empties before it is filled for another
object, and when its permutation is garbage-collected.  At n = 100 000 it
holds 10.8 MB with the schedule on p alone (corner trees) and 21.5 MB with
both schedules (a family member), and each schedule keeps the key order of
the last prefix it scanned, at most 0.4 MB.  Only data derived from the
permutation is kept: counts, root values and subtree values are computed
afresh by every call.
"""

from __future__ import annotations

import weakref
from collections import Counter
from functools import cached_property, lru_cache

import numpy as np

from .core import Permutation
from .trees import CornerTree, _transposed

_WRAP = 1 << 64  # the int64 ring, which reduces by wrapping around
_PRIME_CEILING = 1 << 31


# Never raised, since every pass is exact; kept for callers that still name it.
class Int64Risk(Exception):
    pass


def _is_prime(c: int) -> bool:
    """Deterministic Miller-Rabin test, exact for c below 4 759 123 141:
    bases 2, 7 and 61 admit no strong pseudoprime there."""
    if c < 2 or c % 2 == 0:
        return c == 2
    d, s = c - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        if a % c == 0:  # c is the base itself
            continue
        x = pow(a, d, c)
        if x in (1, c - 1):
            continue
        for _ in range(s - 1):
            x = x * x % c
            if x == c - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_below(c: int) -> int:
    """Largest prime below c <= 2^31."""
    c -= 1
    while not _is_prime(c):
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
    in its run.  Each level keeps two half-size int32 arrays: lefts, the
    sequence indices of the lower halves in slot order, and at, each
    right's flat index into a zero-padded (runs, h + 1) table of the in-run
    prefix sums of x at the lefts.  The rights are implied: they are the
    sequence indices with bit h set, and at lists them in sequence order,
    so the c-th right is ((c >> b) << (b + 1)) | h | (c & (h - 1)) for
    h = 2^b, and a level's reads land on the upper half of each run of z.
    The next level's slots are each run's lefts followed by its rights, and
    the levels go down to runs of two.  The all-ones transform falls out of
    the construction pass and is stored; each further transform replays the
    stored levels.
    """

    def __init__(self, keys: np.ndarray):
        """keys must be a permutation of 0..t-1."""
        t = len(keys)
        size = 1 << max(t - 1, 0).bit_length()
        self.t = t
        self._keys = keys
        # The key order, padded with the keys t..size-1 in their own slots.
        self._order0 = np.arange(size, dtype=np.int32)
        self._order0[keys] = np.arange(t, dtype=np.int32)
        self._last_order = (t, self._order0[:t])
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
            j -= r * h  # lefts sorted before each right in its own run
            # Those counts by sequence index, zero at the lefts: the all-ones
            # transform's share of this level, and at on the upper halves.
            by_index = np.zeros(size, dtype=np.int32)
            by_index[rights] = j
            ones += by_index
            at = by_index.reshape(-1, s)[:, h:].ravel()
            at += r * (h + 1)  # each right's flat table index
            self._levels.append((h, lefts, at))
            order = np.stack((lefts.reshape(-1, h), rights.reshape(-1, h)),
                             axis=1).ravel()
            s = h
        self._ones = ones

    def ones_smaller(self, stop: int) -> np.ndarray:
        """dominance_smaller for x identically one on the first stop points."""
        return self._ones[:stop].astype(np.int64)

    def dominance_smaller(self, x: np.ndarray, q: int) -> np.ndarray:
        """z[i] = sum of x[j] over j < i with key[j] < key[i], in the ring
        of modulus q, for the first stop = len(x) points of the sequence; x
        must be reduced.  x may carry a trailing batch axis, whose columns
        are summed independently, as separate calls would sum them.

        The prefix lies in the first runs = ceil(stop / 2h) runs of each
        level, which lead the level's arrays and end by span, and a level
        with h >= stop adds nothing to it, since its first run's rights all
        lie past it.  x is read in place with clipped indices, which is
        exact: a right at sequence index i < stop reads only the lefts of
        its own run, which all lie before i, and a run whose lefts reach
        past stop has all of its rights past stop as well, so a clipped
        read only lands in z entries that z[:stop] drops.
        """
        stop, batch = len(x), x.shape[1:]
        span = 1 << (stop - 1).bit_length()  # every read run ends by span
        z = np.zeros((span, *batch), dtype=np.int64)
        table = np.empty((span, *batch), dtype=np.int64)
        for h, lefts, at in self._levels:
            if h >= stop:
                continue
            runs = -(-stop // (2 * h))
            k = runs * h
            cx = table[:runs * (h + 1)].reshape(runs, h + 1, *batch)
            cx[:, 0] = 0
            xs = x.take(lefts[:k], axis=0, mode="clip").reshape(runs, h, *batch)
            if h > 4:
                np.cumsum(xs, axis=1, out=cx[:, 1:])
            else:  # h adds over all runs cost less than a cumsum per run
                for i in range(h):
                    np.add(cx[:, i], xs[:, i], out=cx[:, i + 1])
            del xs
            z[:2 * k].reshape(runs, 2 * h, *batch)[:, h:] += \
                table.take(at[:k], axis=0).reshape(runs, h, *batch)
        # A table entry sums at most h reduced values of one run, and each
        # z[i] sums fewer than stop reduced values over all levels, so it
        # stays below stop * q.
        return _mod(z[:stop], q)

    def _key_order(self, stop: int) -> np.ndarray:
        """The sequence indices below stop, in key order.  One scan asks for
        the same stop several times, so the last one is kept."""
        last = self._last_order
        if last[0] != stop:
            order = self._order0[:self.t]
            if stop < self.t:
                order = np.compress(order < stop, order)
            last = self._last_order = (stop, order)
        return last[1]

    def key_prefix(self, x: np.ndarray) -> np.ndarray:
        """s[i] = sum of x[j] over every j < len(x) with key[j] < key[i],
        unreduced.  x may carry a trailing batch axis, whose columns are
        summed independently."""
        order = self._key_order(len(x))
        s = x.take(order, axis=0)  # x in key order
        before = np.cumsum(s, axis=0)
        before -= s
        s[order] = before  # back in sequence order
        return s

    def key_prefix_at(self, x: np.ndarray, at: np.ndarray,
                      block: int = 0) -> np.ndarray:
        """The sum of x[j] over every j < len(x) with key[j] < key[i], for
        each sequence index i in at, which may lie past len(x); with
        block > 0, only over the key[j] in key[i]'s own block of keys, at or
        above key[i] - key[i] % block.  Unreduced; x may carry a trailing
        batch axis, and each read then has one sum per column.

        It reads the cumsum of x in key order where a key would enter it,
        so it writes nothing back in sequence order.
        """
        order = self._key_order(len(x))
        kept = self._keys.take(order)  # in increasing order
        sums = np.zeros((len(order) + 1, *x.shape[1:]), dtype=np.int64)
        np.cumsum(x.take(order, axis=0), axis=0, out=sums[1:])
        keys = self._keys.take(at)
        out = sums.take(np.searchsorted(kept, keys), axis=0)
        if block:
            out -= sums.take(np.searchsorted(kept, keys - keys % block), axis=0)
        return out


def _corner_sums(schedule: _SplitSchedule, x: np.ndarray, sw: np.ndarray,
                 label: str, q: int) -> np.ndarray:
    """Sum of x over the points in each point's label quadrant, among the
    first stop = len(sw) points of the sequence, reduced, given their SW
    sums sw (schedule.dominance_smaller(x, q), or the all-ones sums for
    x all ones); x may carry a trailing batch axis, and sw then too.

    Every quadrant comes from the SW sums and the position and key prefix
    sums; each term sums at most stop reduced values, so it stays below
    2^63.
    """
    if label == "SW":
        return sw
    if label == "SE":
        out = schedule.key_prefix(x)
    else:
        out = np.cumsum(x, axis=0)
        out -= x  # the position prefix
        if label == "NE":
            out += schedule.key_prefix(x)
            out += x
    out -= sw
    if label == "NE":  # total - x - position prefix - key prefix + SW
        np.subtract(x.sum(axis=0), out, out=out)
    return _mod(out, q)


class _Forest:
    """Corner trees whose isomorphic subtrees are valued once.

    Each subtree gets an id by its key, the sorted (child subtree id, label)
    pairs of its root's edges, so two subtrees share an id exactly when
    they are the same labelled rooted tree.  An edge's values depend only
    on its (child id, label) pair, so each distinct pair is valued once per
    root_values call, and the edges out of one child share its SW sums,
    the engine's costly step.  Every array is dropped after its last use.
    """

    def __init__(self, trees):
        ids: dict[tuple, int] = {}
        self.roots = []
        for tree in trees:
            node_id: dict = {}
            for node in tree.children_first:
                # Larger subtrees, whose ids come later, go first, while
                # no product of the other edges is held yet.
                key = tuple(sorted(((node_id.pop(child), label)
                                    for child, label in tree.children(node)),
                                   reverse=True))
                node_id[node] = ids.setdefault(key, len(ids))
            self.roots.append(node_id[tree.root])
        self.keys = list(ids)  # children first: a key's ids come before it
        # Reads of each edge's values, and of each subtree's values: once
        # per distinct edge out of it and once if it is a root.
        self.edge_reads = Counter(edge for key in self.keys for edge in key)
        self.value_reads = Counter(child for child, _ in self.edge_reads)
        self.root_ids = set(self.roots)
        self.value_reads.update(self.root_ids)

    def root_values(self, schedule: _SplitSchedule, q: int, stop: int,
                    reduce=lambda x: x, live: np.ndarray | None = None) -> list:
        """reduce(placements of each tree rooted at each of the first stop
        sequence points, using those points only, reduced), in tree order.

        With live, a (stop, g) array of zeros and ones whose column j is one
        on a prefix of the points, every value carries a trailing axis of g
        columns, and column j counts with the points of its prefix only and
        is zero past it: each subtree's values are zeroed there, so the sums
        that read later points (key prefixes and totals) read zeros.  A
        leaf's SW sums are those of all ones, exact on every column's prefix.

        No local name holds an array past its last use, so the peak memory
        is that of the values still to be read.
        """
        def ones():  # a leaf's values
            return np.ones(stop, dtype=np.int64) if live is None else live

        def ones_sw():  # their SW sums, which cost little
            sw = schedule.ones_smaller(stop)
            return sw if live is None else sw[:, None]

        edge_reads, value_reads = Counter(self.edge_reads), Counter(self.value_reads)
        edges: dict = {}
        values: dict = {}
        sws: dict = {}  # the SW sums of each child's values
        out = {}
        for s, key in enumerate(self.keys):
            x = z = None  # z held the last subtree's last edge values
            for edge in key:
                if edge in edges:
                    z = edges[edge]
                else:
                    child, label = edge
                    if values[child] is None:  # a leaf
                        z = _corner_sums(schedule, ones(), ones_sw(), label, q)
                    else:
                        if child not in sws:
                            sws[child] = schedule.dominance_smaller(
                                values[child], q)
                        z = _corner_sums(schedule, values[child], sws[child],
                                         label, q)
                    value_reads[child] -= 1
                    if not value_reads[child]:
                        del values[child]
                        sws.pop(child, None)
                edge_reads[edge] -= 1
                if edge_reads[edge]:
                    edges[edge] = z
                else:
                    edges.pop(edge, None)
                x = z if x is None else _mod(x * z, q)
            if x is not None and live is not None:
                x = x * live
            if s in self.root_ids:
                out[s] = reduce(ones() if x is None else x)
                value_reads[s] -= 1
            if value_reads[s]:
                values[s] = x
        return [out[s] for s in self.roots]


class _PermData:
    """One permutation's numpy data: p (values, 0-based, by position), ip
    (positions by value), and the _SplitSchedule on each, each built when
    first asked for."""

    def __init__(self, pi: Permutation):
        self.pi = weakref.ref(pi, _forget)
        self.p = np.fromiter(pi.values, dtype=np.int64, count=pi.n) - 1

    @cached_property
    def ip(self) -> np.ndarray:
        ip = np.empty_like(self.p)
        ip[self.p] = np.arange(len(self.p), dtype=np.int64)
        return ip

    @cached_property
    def p_schedule(self) -> _SplitSchedule:
        return _SplitSchedule(self.p)

    @cached_property
    def ip_schedule(self) -> _SplitSchedule:
        return _SplitSchedule(self.ip)


_slot: _PermData | None = None  # the last permutation counted


def _forget(ref: weakref.ref) -> None:
    """Empty the slot once its permutation is gone."""
    global _slot
    if _slot is not None and _slot.pi is ref:
        _slot = None


def _perm_data(pi: Permutation) -> _PermData:
    """pi's numpy data, from the slot when the slot holds pi itself.

    A caller keeps the object it is given, so a count that another thread
    starts on another permutation meanwhile costs a rebuild, never a wrong
    array.
    """
    global _slot
    data = _slot
    if data is None or data.pi() is not pi:
        _slot = data = None  # free the old arrays before building new ones
        data = _slot = _PermData(pi)
    return data


def count_corner_trees(pi: Permutation, trees, bound: int) -> list[int]:
    """Occurrences of each corner tree in pi, given that each is at most
    bound; every modulus runs once over all the trees."""
    schedule = _perm_data(pi).p_schedule
    forest = _Forest(trees)
    moduli = _moduli(bound)
    residues = [forest.root_values(schedule, q, pi.n, lambda x: int(x.sum()))
                for q in moduli]
    return [_crt(list(r), moduli) for r in zip(*residues)]


def count_type_a(pi: Permutation, west_tree: CornerTree, m: int,
                 bound: int) -> int:
    """The type-A count, given that it is at most bound."""
    return _gated_pass(pi, west_tree, m, bound, own_block=False)


def count_type_b_not_a(pi: Permutation, inv_west_tree: CornerTree, m: int,
                       bound: int) -> int:
    """The type-B-not-A count, given that it is at most bound."""
    return _gated_pass(pi, inv_west_tree, m, bound, own_block=True)


_GATE_CELLS = 1 << 14  # rows times columns of one gated scan, at most,
# unless one block alone exceeds it


def _gate_groups(n: int, m: int):
    """The gates r = m, 2m, ... below n, as arrays of consecutive gates.

    A group's scan has one column per gate and, with its last gate's
    candidates, min(last + m, n) rows; a group takes as many gates as keep
    that under _GATE_CELLS cells, and at least one.
    """
    gates = range(m, n, m)
    i = 0
    while i < len(gates):
        g = 1
        while (i + g < len(gates)
               and min(gates[i + g] + m, n) * (g + 1) <= _GATE_CELLS):
            g += 1
        yield np.array(gates[i:i + g], dtype=np.int64)
        i += g


def _gated_pass(pi: Permutation, tree: CornerTree, m: int, bound: int,
                own_block: bool) -> int:
    """One gated scan per group of blocks of gate coordinates, given a
    count at most bound.

    A point has a scan index s and a gate coordinate v, and scan[v] = s.
    For the block [r, r + m) the points with v < r feed the tree scan, and
    each candidate s = scan[v], v in the block, collects the root placements
    at gated points before it, or with own_block only those in its own block
    of scan indices.  Type A scans positions with scan = ip; type B scans
    values with scan = p and own_block.

    The one schedule is built on scan, so its sequence follows the gate
    coordinate and its key is the scan index: each gated set is the
    sequence prefix [0, r).  A group of consecutive blocks (_gate_groups)
    scans the prefix of its last block once, with one column per block,
    and column j, of gate r_j, is one on [0, r_j) and zero past it at the
    leaves.  Every subtree's values are zeroed past their column's gate as
    well, so a row past it never reaches another row's sum: the SW sums and
    the position prefix of a row read only earlier rows, and the key
    prefixes and totals read zeros there.  Each column therefore equals the
    one-block scan of its own prefix, in every ring.  The two coordinates
    trade places, so the tree's NW and SE labels do too.

    A candidate reads its column's root values summed over the gated points
    of smaller scan index (key_prefix_at), and with own_block only over
    those in its own block of scan indices; the last block's candidates lie
    past the scanned prefix, which that read allows.
    """
    data = _perm_data(pi)
    schedule = data.p_schedule if own_block else data.ip_schedule
    n = pi.n
    forest = _Forest([_transposed(tree)])
    moduli = _moduli(bound)
    totals = [0] * len(moduli)
    for gates in _gate_groups(n, m):
        g, r0, r = len(gates), int(gates[0]), int(gates[-1])
        # A lone block's gate is the scan's stop, so it needs no mask.
        live = (np.arange(r)[:, None] < gates).astype(np.int64) if g > 1 \
            else None
        # The candidate rows [r0, r + m), each read in its block's column.
        v = np.arange(r0, min(r + m, n))
        cols = (v - r0) // m
        for k, q in enumerate(moduli):
            reads = schedule.key_prefix_at(
                forest.root_values(schedule, q, r, live=live)[0].reshape(r, g),
                v, m if own_block else 0)
            # Each read sums fewer than n reduced values, so it stays below
            # n * q; a group sums at most g * m reads once they are reduced.
            totals[k] += int(_mod(reads[np.arange(len(v)), cols], q).sum())
    return _crt(totals, moduli)


def count_box(pi: Permutation, dec, m: int, bound: int) -> int:
    """The box count, given that it is at most bound."""
    data = _perm_data(pi)
    m = min(m, pi.n)  # every m >= n makes one block
    moduli = _moduli(bound)
    return _crt([_box(data.p, data.ip, data.p_schedule, dec, m, q)
                 for q in moduli], moduli)


_BOX_STEP = 1 << 13  # triples per vectorized step of the box pass


def _ranges(counts: np.ndarray) -> np.ndarray:
    """0..c-1 for each c in counts, concatenated."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(starts, counts)


def _block_triples(p: np.ndarray, ip: np.ndarray, keep3: np.ndarray, col: int,
                   end: int, m: int):
    """The box triples (x3, y1, x1) of the position block [col, end) whose
    x3 has keep3[x3 - col], in steps of about _BOX_STEP.
    """
    size = end - col
    # Every (x4, x3) pair, then the y1 range [lo, y4) of each.
    x3 = col + _ranges(np.arange(size))
    y4 = np.repeat(p[col:end], np.arange(size))
    lo = np.maximum(y4 - y4 % m, p[x3] + 1)
    cnt = y4 - lo
    keep = (cnt > 0) & keep3[x3 - col]
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
    F(x3 - 1, y1 - 1) splits at the block's west edge into a prefix array
    over values and the block's cumulative table.  F(x1, y3) reads the
    block's grid (_west_grid), which covers every candidate x1 before the
    block's end; each step of triples makes one _dominance_batch call on it.
    A grid that would exceed _GRID_CELLS takes the block's rows in groups,
    and each group lists only the triples whose y3 is on its rows.
    """
    n = len(p)
    dangles = [t for t in (dec.dangle3_tree, dec.dangle1_tree,
                           dec.dangle2_tree) if t is not None]
    d3, d1, *w2 = _Forest(dangles).root_values(full, q, n)
    if not w2:
        # Each coef is reduced and a step sums fewer than _BOX_STEP + m.
        return sum(int(_mod(d3[x3] * d1[x1], q).sum())
                   for col in range(0, n, m)
                   for x3, _, x1 in _block_triples(
                       p, ip, d3[col:min(col + m, n)] != 0, col,
                       min(col + m, n), m))

    w2 = w2[0]
    g3 = full.dominance_smaller(w2, q)
    west_w = np.zeros(n, dtype=np.int64)  # w2 by value, west of the block
    total = 0
    for col in range(0, n, m):
        end = min(col + m, n)
        if col:
            west_w[p[col - m:col]] = w2[col - m:col]
        west = _prefix_sums(west_w, q)  # west[v]: w2 west, values below v
        below = _count_below(p[col:end], n)  # below[v]: block values < v
        rank = below[p[col:end]]
        # table[i, j] sums w2 over the block's first i points among its j
        # lowest values.
        side = end - col + 1
        table = _cumulative_grid((side, side), np.arange(1, side), rank + 1,
                                 w2[col:end], q)
        col_of, ncols = _west_columns(p, ip, col, end, m)
        rows = below[p[:end]]
        group = max(1, _GRID_CELLS // max(ncols, 1))
        for r0 in range(0, end - col, group):
            r1 = min(r0 + group, end - col)
            grid = _west_grid(w2, rows, col_of, ncols, r0, r1, q)
            keep3 = (d3[col:end] != 0) & (rank >= r0) & (rank < r1)
            for xs3, ys1, xs1 in _block_triples(p, ip, keep3, col, end, m):
                coef = _mod(d3[xs3] * d1[xs1], q)
                at3 = xs3 - col
                b2 = west[ys1] + table[at3, below[ys1]] - g3[xs1] - g3[xs3]
                # b2 sums four reduced terms, so it lies in (-2q, 2q) before
                # its reduction; coef * b2 stays below q^2 < 2^62, and a step
                # sums fewer than _BOX_STEP + m reduced products.
                total += int(_mod(coef * _mod(b2, q), q).sum())
                total += _dominance_batch(grid, col_of, xs1, rank[at3] - r0,
                                          coef, q)
    return total


_GRID_CELLS = 1 << 20  # cells of one grid, at most, unless a row exceeds it


def _count_below(coords: np.ndarray, size: int) -> np.ndarray:
    """below[v] = number of distinct coords less than v, for v in 0..size-1."""
    mark = np.zeros(size, dtype=np.int64)
    mark[coords] = 1
    return np.cumsum(mark) - mark


def _west_columns(p: np.ndarray, ip: np.ndarray, col: int, end: int,
                  m: int) -> tuple[np.ndarray, int]:
    """The grid's columns for the position block [col, end).

    The columns are the points x1 = ip[y1] before the block's end whose
    value y1 lies below the block's highest y4 in y1's value block: every
    x1 of a box triple of the block is one.  Returns their number and
    col_of, where col_of[x] for x < end counts the columns west of x, so it
    is the index of column x and of the first column at or east of point x.
    """
    y4 = p[col:end]
    top = np.zeros(-(-len(p) // m), dtype=np.int64)  # highest y4 per block
    np.maximum.at(top, y4 // m, y4)
    hit = np.flatnonzero(top)
    lo = hit * m
    cnt = top[hit] - lo
    x1 = ip[np.repeat(lo, cnt) + _ranges(cnt)]
    x1 = x1[x1 < end]
    return _count_below(x1, end), len(x1)


def _west_grid(w2: np.ndarray, rows: np.ndarray, col_of: np.ndarray,
               ncols: int, r0: int, r1: int, q: int) -> np.ndarray:
    """2-D prefix sums of w2 over the points before a block's end, reduced.

    rows[x] counts the block values below point x's value, so that value is
    at most the block's value of rank k exactly when rows[x] <= k.  A point
    lands on the first column at or east of it and on row
    max(rows[x] - r0, 0) of the block rows [r0, r1); a point east of every
    column or with rows[x] >= r1 never counts.  Cell (c, k) then sums w2
    over the points at or west of column c whose value is at most the
    block's value of rank r0 + k, that is F(column c, that value).
    """
    keep = (col_of < ncols) & (rows < r1)
    return _cumulative_grid((ncols, r1 - r0), col_of[keep],
                            np.maximum(rows[keep] - r0, 0),
                            w2[:len(rows)][keep], q)


def _cumulative_grid(shape: tuple[int, int], i: np.ndarray, j: np.ndarray,
                     w: np.ndarray, q: int) -> np.ndarray:
    """2-D cumulative sums, reduced, of the weights w added to the cells
    (i, j) of a grid of the given shape: cell (a, b) sums w over the cells
    with i <= a and j <= b.
    """
    grid = np.zeros(shape, dtype=np.int64)
    np.add.at(grid.reshape(-1), i * shape[1] + j, w)
    # A cell sums at most n reduced values, so it stays below n * q < 2^63,
    # and each cumsum adds up reduced cells of one row or one column.
    grid = _mod(grid, q)
    for axis in (1, 0):
        np.cumsum(grid, axis=axis, out=grid)
        grid = _mod(grid, q)
    return grid


def _dominance_batch(grid: np.ndarray, col_of: np.ndarray, qx: np.ndarray,
                     qk: np.ndarray, qc: np.ndarray, q: int) -> int:
    """Sum of qc * F(qx, the block value of grid row qk) in the ring of
    modulus q, each F read off the block's grid (_west_grid) at column
    col_of[qx] and row qk; qx may lie in the block or west of it.
    """
    f = grid.reshape(-1).take(col_of[qx] * grid.shape[1] + qk)
    return int(_mod(qc * f, q).sum())
