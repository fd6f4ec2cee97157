"""Morphism counting between small double posets and the linear algebra on top.

Counting maps out of a double poset d into a permutation always reduces to
a linear combination of plain pattern counts; the combination is d's
pattern vector, whose coefficient at sigma is the number of surjective
morphisms onto the permutation's double poset.  The change-of-basis maps
between morphism / embedding / induced-embedding counting functionals are
computed here with exact rationals, together with the factorization
identities that justify them and exact ranks of pattern-vector families.

Every computation here is exact and runs over small ground sets under
explicit caps.  Morphism classes, the change of basis and the factorization
checks search maps one target at a time, all through core._iter_morphisms:
count_epis counts its surjective maps, morphism_class_counts and
check_factorization classify every map it yields.  Pattern vectors do not: a
surjective morphism onto a permutation is a pair of chain surjections of
the two orders with the same kernel, so the chain surjections of each
distinct order are enumerated once (and cached, since a family repeats its
orders) and paired by kernel, and the work is the sum of the vector's
coefficients.

Ranks are exact: rank_of_family fills one integer row per family member
from _pattern_counts, the coefficients keyed by value tuples, and
_integer_rank eliminates fraction-free with gcd reduction, dropping each
eliminated column and every row that reaches zero, so its updates narrow
as it goes.  Nothing on the rank path imports numpy.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from operator import itemgetter
from types import MappingProxyType

from .core import (
    DoublePoset,
    Permutation,
    StrictPoset,
    _iter_morphisms,
    anti,
    canonical_form,
    transitive_closure,
)
from .trees import _ENUM_CAP, TooLarge, enumerate_snpolytrees, snpolytree_to_dp

_PHI_CAP = 4
RANK_LEVEL_CAP = 5
MORPHISM_KINDS = ("mor", "mono", "epi", "regmono", "regepi", "iso", "aut")


@dataclass(frozen=True)
class MorphismClassCounts:
    """Exact counts of each morphism class for one (source, target) pair.

    `aut` is the automorphism count of the target.
    """

    mor: int
    mono: int
    epi: int
    regmono: int
    regepi: int
    iso: int
    aut: int


@lru_cache(maxsize=100_000)
def morphism_class_counts(src: DoublePoset, dst: DoublePoset) -> MorphismClassCounts:
    """All class counts in one enumeration pass."""
    if src.n > _ENUM_CAP or dst.n > _ENUM_CAP:
        raise TooLarge(f"enumeration cap is {_ENUM_CAP} elements")
    src_w = src.west.pairs
    src_s = src.south.pairs
    dst_wcov = dst.west.covers()
    dst_scov = dst.south.covers()
    mor = mono = epi = regmono = regepi = iso = 0
    for image in _iter_morphisms(src, dst):
        mor += 1
        img = set(image)
        injective = len(img) == src.n
        surjective = len(img) == dst.n
        if injective:
            mono += 1
            # An injective morphism maps src's relations onto distinct
            # relations among its image; it reflects an order when the
            # image carries no other relation of that order.
            if all(sum(a in img and b in img for a, b in q.pairs) == len(p.pairs)
                   for p, q in ((src.west, dst.west), (src.south, dst.south))):
                regmono += 1
                if surjective:
                    iso += 1
        if surjective:
            epi += 1
            # Regular epi: every cover of the target is the image of some
            # related pair, i.e. the target orders are the closed pushed
            # relations.  (Covers of the source may land on non-covers.)
            if dst_wcov <= {(image[a], image[b]) for a, b in src_w} and \
                    dst_scov <= {(image[a], image[b]) for a, b in src_s}:
                regepi += 1
    aut = iso if src == dst else morphism_class_counts(dst, dst).iso
    return MorphismClassCounts(mor, mono, epi, regmono, regepi, iso, aut)


def enumerate_morphisms(src: DoublePoset, dst: DoublePoset, kind: str) -> int:
    """Count one morphism class; kind is one of MORPHISM_KINDS."""
    if kind not in MORPHISM_KINDS:
        raise ValueError(f"unknown morphism class {kind!r}")
    return getattr(morphism_class_counts(src, dst), kind)


@lru_cache(maxsize=200_000)
def count_epis(src: DoublePoset, dst: DoublePoset) -> int:
    """Surjective morphism count, by the search with onto=True."""
    if src.n > _ENUM_CAP or dst.n > _ENUM_CAP:
        raise TooLarge(f"enumeration cap is {_ENUM_CAP} elements")
    return sum(1 for _ in _iter_morphisms(src, dst, onto=True))


def automorphism_count(d: DoublePoset) -> int:
    return morphism_class_counts(d, d).iso


# ------------------------------------------------------------ DP classes

@lru_cache(maxsize=None)
def all_strict_posets(n: int) -> tuple[StrictPoset, ...]:
    """Every strict poset on 0..n-1 (labeled)."""
    if n > _PHI_CAP:
        raise TooLarge(f"poset enumeration cap is {_PHI_CAP} elements")
    universe = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for bits in range(1 << len(universe)):
        rel = frozenset(p for i, p in enumerate(universe) if bits >> i & 1)
        try:
            out.append(StrictPoset(n, rel))
        except ValueError:
            continue
    return tuple(out)


@lru_cache(maxsize=None)
def all_double_posets(n: int) -> tuple[DoublePoset, ...]:
    """One representative per isomorphism class, deterministically ordered."""
    posets = all_strict_posets(n)
    reps: dict = {}
    for west in posets:
        for south in posets:
            d = DoublePoset(n, west, south)
            key = canonical_form(d)
            if key not in reps:
                reps[key] = d
    return tuple(reps[k] for k in sorted(reps))


def _set_partitions(elements: list):
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def regepi_quotients(d: DoublePoset,
                     cover_faithful: bool = False) -> list[tuple[DoublePoset, tuple]]:
    """Pushed-closure quotients of d, one per set partition with acyclic push.

    These are exactly the regular epimorphism targets: the target orders of
    a regular epi are the closed pushed relations, and conversely every
    projection onto a pushed-closure quotient covers the quotient's covers.

    With cover_faithful=True only quotients whose projection maps the Hasse
    diagrams onto the Hasse diagrams are kept.  That is a strictly smaller
    class (a cover of the source may collapse to a non-cover); it is the
    class under which the twin property is preserved.
    """
    out = []
    src_wcov = d.west.covers()
    src_scov = d.south.covers()
    for partition in _set_partitions(list(range(d.n))):
        block_of = {}
        for i, block in enumerate(partition):
            for e in block:
                block_of[e] = i
        k = len(partition)
        pushed_w = {(block_of[a], block_of[b]) for a, b in d.west.pairs}
        pushed_s = {(block_of[a], block_of[b]) for a, b in d.south.pairs}
        if any(a == b for a, b in pushed_w | pushed_s):
            continue
        try:
            west = transitive_closure(pushed_w, k)
            south = transitive_closure(pushed_s, k)
        except ValueError:
            continue
        if cover_faithful:
            if {(block_of[a], block_of[b]) for a, b in src_wcov} != west.covers():
                continue
            if {(block_of[a], block_of[b]) for a, b in src_scov} != south.covers():
                continue
        out.append((DoublePoset(k, west, south),
                    tuple(block_of[e] for e in range(d.n))))
    return out


# ------------------------------------------------------------- vectors

class DPVector:
    """Finite rational combination of double poset isomorphism classes."""

    def __init__(self, terms: dict):
        # terms: canonical form -> (representative, coefficient)
        self._terms = {k: (rep, Fraction(c)) for k, (rep, c) in terms.items()
                       if c != 0}

    def coefficient(self, d: DoublePoset) -> Fraction:
        entry = self._terms.get(canonical_form(d))
        return entry[1] if entry else Fraction(0)

    def support(self) -> list[DoublePoset]:
        return [rep for rep, _ in self._terms.values()]

    def items(self):
        return [(rep, c) for rep, c in self._terms.values()]

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, DPVector) and \
            {k: c for k, (_, c) in self._terms.items()} == \
            {k: c for k, (_, c) in other._terms.items()}


class PatternVector:
    """Finite integer combination of permutations, graded by size."""

    def __init__(self, terms: dict[Permutation, int]):
        self._terms = {p: c for p, c in terms.items() if c != 0}

    def coefficient(self, sigma: Permutation) -> int:
        return self._terms.get(sigma, 0)

    def items(self):
        return sorted(self._terms.items(), key=lambda t: (t[0].n, t[0].values))

    def as_dict(self) -> dict[Permutation, int]:
        return dict(self._terms)

    def sizes(self) -> set[int]:
        return {p.n for p in self._terms}

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, PatternVector) and self._terms == other._terms

    def __repr__(self) -> str:
        inner = " + ".join(f"{c}*[{' '.join(map(str, p.values))}]"
                           for p, c in self.items())
        return f"PatternVector({inner})"


def phi_regmono_from_mor(d: DoublePoset) -> DPVector:
    """Translate morphism counting into induced-embedding counting.

    Coefficient of a class d' is |Epi(d, d')| / |Aut(d')|; the matrix of
    this map is triangular with unit diagonal when classes are ordered by
    relation sizes.
    """
    if d.n > _PHI_CAP:
        raise TooLarge(f"change-of-basis cap is {_PHI_CAP} elements")
    terms = {}
    for k in range(1, d.n + 1):
        for rep in all_double_posets(k):
            cnt = count_epis(d, rep)
            if cnt:
                terms[canonical_form(rep)] = (
                    rep, Fraction(cnt, automorphism_count(rep)))
    return DPVector(terms)


def phi_mono_from_mor(d: DoublePoset) -> DPVector:
    """Translate morphism counting into embedding counting.

    Coefficient of d' is |RegEpi(d, d')| / |Aut(d')|, which is exactly the
    number of set partitions whose pushed-closure quotient is d'.  Unlike
    the regmono variant this needs no codomain enumeration, so the cap is
    only the canonicalization bound.
    """
    if d.n > _ENUM_CAP:
        raise TooLarge(f"change-of-basis cap is {_ENUM_CAP} elements")
    terms: dict = {}
    for q, _ in regepi_quotients(d):
        key = canonical_form(q)
        if key in terms:
            rep, c = terms[key]
            terms[key] = (rep, c + 1)
        else:
            terms[key] = (q, Fraction(1))
    return DPVector(terms)


@lru_cache(maxsize=1024)
def _chain_surjections(order: StrictPoset) -> Mapping[tuple, tuple[tuple[int, ...], ...]]:
    """Order-preserving surjections of `order` onto chains, keyed by kernel.

    A surjection onto 1..k is its sequence of fibres (levels), each a
    bitmask of elements; level i is a non-empty set of unplaced elements
    whose predecessors all sit on levels below i.  The kernel key is the
    sorted tuple of fibres, and each surjection is stored as the level,
    counted from 1, of every fibre in key order.

    Equal orders share one enumeration: a family's west and south orders
    repeat (the level-5 rank family has 804 of them, 183 distinct), so the
    result is cached, and every caller gets the same read-only mapping.
    """
    n = order.n
    below = order.below
    full = (1 << n) - 1
    out: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    levels: list[int] = []

    def extend(placed: int):
        if placed == full:
            key = tuple(sorted(levels))
            level_of = {mask: i for i, mask in enumerate(levels, 1)}
            out.setdefault(key, []).append(tuple(level_of[m] for m in key))
            return
        ready = 0
        for e in range(n):
            if not placed >> e & 1 and not below[e] & ~placed:
                ready |= 1 << e
        sub = ready
        while sub:
            levels.append(sub)
            extend(placed | sub)
            levels.pop()
            sub = (sub - 1) & ready

    extend(0)
    return MappingProxyType({key: tuple(found) for key, found in out.items()})


def _pattern_counts(d: DoublePoset) -> Counter:
    """pattern_vector's coefficients, keyed by the permutations' value tuples.

    A surjective morphism onto perm_to_dp(sigma), sigma in S_k, is a pair
    of order-preserving surjections of the west and of the south order onto
    the chain 1..k with the same kernel: sigma lists the south levels of
    the fibres in west-level order.  For each west surjection of a kernel,
    one itemgetter reads sigma off every south surjection of that kernel,
    so the work is the sum of the coefficients.
    """
    if d.n > _ENUM_CAP:
        raise TooLarge(f"pattern vector cap is {_ENUM_CAP} elements")
    counts: Counter = Counter()
    if d.n == 0:
        return counts
    south = _chain_surjections(d.south)
    for kernel, west_levels in _chain_surjections(d.west).items():
        south_levels = south.get(kernel)
        if not south_levels:
            continue
        if len(kernel) == 1:
            # Both orders are antichains: one map each, onto the pattern 1.
            counts[(1,)] += 1
            continue
        for w in west_levels:
            fibre_at = [0] * len(kernel)
            for b, level in enumerate(w):
                fibre_at[level - 1] = b
            counts.update(map(itemgetter(*fibre_at), south_levels))
    return counts


def pattern_vector(d: DoublePoset) -> PatternVector:
    """The linear combination of patterns counted by morphisms out of d.

    Coefficient of sigma is the number of surjective morphisms onto the
    permutation's double poset; pairing the vector with the pattern counts
    of any permutation gives |Mor(d, perm)|.  The coefficients come from
    pairing the chain surjections of the two orders by kernel
    (_pattern_counts).
    """
    return PatternVector({Permutation(v): c for v, c in _pattern_counts(d).items()})


# -------------------------------------------------------- factorization

@dataclass(frozen=True)
class FactorizationReport:
    ok: bool
    failures: tuple


def check_factorization(d_a: DoublePoset, d_b: DoublePoset) -> FactorizationReport:
    """Verify both image-factorization counting identities for the pair.

    Every morphism factors through its image: with induced orders on the
    image the count per intermediate class C satisfies
    #maps * |Aut(C)| = |Epi(a, C)| * |RegMono(C, b)|, and with pushed
    closed orders the regular-epi/mono variant holds.
    """
    if d_a.n > _PHI_CAP or d_b.n > _PHI_CAP:
        raise TooLarge(f"factorization cap is {_PHI_CAP} elements")
    induced_hist: dict = {}
    pushed_hist: dict = {}
    reps: dict = {}
    for image in _iter_morphisms(d_a, d_b):
        img_sorted = sorted(set(image))
        pos = {e: i for i, e in enumerate(img_sorted)}
        k = len(img_sorted)
        induced = d_b.restrict(img_sorted)
        pw = {(pos[image[a]], pos[image[b]]) for a, b in d_a.west.pairs}
        ps = {(pos[image[a]], pos[image[b]]) for a, b in d_a.south.pairs}
        pushed = DoublePoset(k, transitive_closure(pw, k),
                             transitive_closure(ps, k))
        for hist, dp in ((induced_hist, induced), (pushed_hist, pushed)):
            key = canonical_form(dp)
            reps.setdefault(key, dp)
            hist[key] = hist.get(key, 0) + 1

    failures = []

    def candidates_induced():
        seen = set()
        for r in range(d_b.n + 1):
            for keep in itertools.combinations(range(d_b.n), r):
                dp = d_b.restrict(list(keep))
                key = canonical_form(dp)
                if key not in seen:
                    seen.add(key)
                    reps.setdefault(key, dp)
                    yield key

    for key in candidates_induced():
        c = reps[key]
        if c.n == 0:
            continue
        lhs = induced_hist.get(key, 0) * automorphism_count(c)
        rhs = count_epis(d_a, c) * enumerate_morphisms(c, d_b, "regmono")
        if lhs != rhs:
            failures.append(("epi-regmono", c, lhs, rhs))

    seen = set()
    for q, _ in regepi_quotients(d_a):
        key = canonical_form(q)
        if key in seen:
            continue
        seen.add(key)
        reps.setdefault(key, q)
        lhs = pushed_hist.get(key, 0) * automorphism_count(q)
        rhs = enumerate_morphisms(d_a, q, "regepi") * \
            enumerate_morphisms(q, d_b, "mono")
        if lhs != rhs:
            failures.append(("regepi-mono", q, lhs, rhs))
    # The pushed histogram must not contain classes outside the quotients.
    for key, cnt in pushed_hist.items():
        if key not in seen and cnt:
            failures.append(("regepi-mono-support", reps[key], cnt, 0))

    return FactorizationReport(not failures, tuple(failures))


# ----------------------------------------------------------------- rank

@dataclass(frozen=True)
class RankResult:
    """Exact dimensions of a family's span of pattern vectors.

    dim_top_intersection is the dimension of the top-level directions the
    span reaches once lower-level coordinates may be adjusted freely: the
    rank of the level-k column block on its own.  dim_top_strict counts the
    combinations supported purely on level k with no lower-level residue at
    all; for the twin tree family the two agree through level 4 and differ
    by one at level 5.
    """

    dim_span: int
    dim_top_intersection: int
    dim_top_strict: int


def _integer_rank(rows: list[list[int]], split: int | None = None):
    """Rank over Q by fraction-free elimination that narrows as it goes.

    Columns are eliminated from the first to the last.  The pivot for a
    column is the first live row that is nonzero there; every other live
    row r with entry f there becomes piv * r - f * pivot on the columns
    that remain, divided by the gcd of its entries.  Each step drops the
    eliminated column from every row (rows are held reversed, so that is a
    pop), retires the pivot row and drops rows that reach zero, so later
    updates span only the live rows and columns.  The rank is the number of
    pivots.  The argument is not modified.

    With split, returns (rank, pivots among the first split columns); the
    second is the rank of those columns alone, since the elimination
    reduces them to echelon form before it reads any later column.
    """
    rows = [list(reversed(r)) for r in rows if any(r)]
    rank = low = col = 0
    while rows:
        if col == split:
            low = rank
        col += 1
        pivot = next((r for r in rows if r[-1]), None)
        if pivot is None:
            for r in rows:
                r.pop()
            continue
        piv = pivot.pop()
        live = []
        for r in rows:
            if r is pivot:
                continue
            f = r.pop()
            if f:
                r = [piv * a - f * b for a, b in zip(r, pivot)]
                g = gcd(*r)
                if not g:
                    continue
                if g > 1:
                    r = [a // g for a in r]
            live.append(r)
        rows = live
        rank += 1
    if split is None:
        return rank
    return rank, rank if col <= split else low


def rank_of_family(family, top_level: int) -> RankResult:
    """Exact dimensions of the span of the family's pattern vectors.

    Row i holds family member i's pattern-vector coefficients over every
    permutation of size 1..top_level, ordered by size.  One elimination of
    the whole rows ranks the span and, at the split before the top level,
    the lower-level block; a second ranks the top-level block.  Both run
    through _integer_rank.
    """
    if top_level > RANK_LEVEL_CAP:
        raise TooLarge(f"rank computations are capped at level {RANK_LEVEL_CAP}")
    columns = [vals for size in range(1, top_level + 1)
               for vals in itertools.permutations(range(1, size + 1))]
    col_idx = {vals: i for i, vals in enumerate(columns)}
    n_low = sum(factorial(size) for size in range(1, top_level))
    rows = []
    for d in family:
        if d.n > top_level:
            raise TooLarge("family member exceeds the requested level")
        row = [0] * len(columns)
        for vals, c in _pattern_counts(d).items():
            row[col_idx[vals]] = c
        rows.append(row)
    dim_span, dim_low = _integer_rank(rows, split=n_low)
    dim_top = _integer_rank([r[n_low:] for r in rows])
    return RankResult(dim_span, dim_top, dim_span - dim_low)


def twin_tree_family(max_size: int) -> list[DoublePoset]:
    """All twin tree double posets with up to max_size elements."""
    out = []
    for k in range(1, max_size + 1):
        out.extend(snpolytree_to_dp(t) for t in enumerate_snpolytrees(k))
    return out


def new_direction_family() -> tuple[DoublePoset, ...]:
    """The six five-element tree double posets counted by the block algorithm."""
    from .gen3214 import level5_arbos

    base = [a.dp for a in level5_arbos()]
    return tuple(base + [anti(d) for d in base])


def new_direction_vectors() -> tuple[PatternVector, PatternVector, PatternVector]:
    """Pattern vectors of the three primary five-element family members."""
    from .gen3214 import level5_arbos

    return tuple(pattern_vector(a.dp) for a in level5_arbos())
