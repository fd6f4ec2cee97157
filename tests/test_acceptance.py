"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
The timing criterion (6) is marked `bench`; deselect with `-m "not bench"`
for a quick run.
"""

import itertools
import random
import time

import pytest

from patterncount.cli import bench_once
from patterncount.core import (
    classify,
    pattern_count_table,
    perm,
)
from patterncount.counting import (
    as_double_poset,
    corner_tree_profiles,
    count_corner_tree,
    naive_morphism_count,
)
from patterncount.gen3214 import (
    count_box,
    count_gen_3214,
    count_type_a,
    count_type_b_not_a,
)
from patterncount.trees import CornerTree
from patterncount import algebra
from patterncount.algebra import (
    all_double_posets,
    automorphism_count,
    check_factorization,
    count_epis,
    enumerate_morphisms,
    new_direction_family,
    new_direction_vectors,
    pattern_vector,
    phi_mono_from_mor,
    phi_regmono_from_mor,
    rank_of_family,
    twin_tree_family,
)
from tests.test_core import random_double_poset, random_perm
from tests.test_gen3214 import random_arbo


def report(criterion: str, ok: bool, detail: str = ""):
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


# --------------------------------------------------------- criterion 1

def test_criterion_1_worked_scan_examples():
    start = time.perf_counter()
    _, edge = corner_tree_profiles(perm([3, 4, 2, 5, 1]),
                                   CornerTree("a", (("a", "b", "NW"),)))
    ok = edge[("a", "b")] == [0, 0, 2, 0, 4]
    tree = CornerTree("r", (("r", "a", "SE"), ("a", "b", "NE"),
                            ("a", "c", "NW")))
    pi = perm([2, 3, 1, 5, 4, 6])
    vertex, _ = corner_tree_profiles(pi, tree)
    ok &= vertex["r"] == [6, 6, 0, 1, 0, 0]
    ok &= count_corner_tree(pi, tree) == 13
    elapsed = time.perf_counter() - start
    report("1 (worked scan examples)", ok and elapsed < 1.0,
           f"{elapsed * 1000:.0f} ms")


# --------------------------------------------------------- criterion 2

def test_criterion_2_pattern_vector_constants():
    start = time.perf_counter()

    def strings(vec):
        return {"".join(map(str, p.values)): c for p, c in vec.items()}

    ok = strings(pattern_vector(as_double_poset(
        CornerTree(0, ((0, 1, "NE"), (0, 2, "NE")))))) == \
        {"12": 1, "123": 2, "132": 2}

    from patterncount.core import double_poset
    four_node = double_poset(4, [(0, 2), (1, 2), (3, 1)],
                             [(0, 2), (2, 1), (3, 1)])
    ok &= strings(pattern_vector(four_node)) == {
        "132": 1, "1243": 2, "1342": 1, "1423": 1,
        "2143": 2, "2413": 1, "3142": 1, "3412": 1,
    }

    v1, v2, v3 = new_direction_vectors()
    ok &= strings(v1) == {"14325": 1, "24315": 1, "34215": 1}
    ok &= strings(v2) == {"14325": 1, "24315": 1, "41325": 1, "42315": 1}
    ok &= strings(v3) == {"14325": 1, "41325": 1, "43125": 1}

    ok &= strings(pattern_vector(double_poset(2, [(0, 1)], []))) == \
        {"12": 1, "21": 1}
    elapsed = time.perf_counter() - start
    report("2 (pattern vector constants)", ok and elapsed < 60,
           f"{elapsed:.1f} s")


# --------------------------------------------------------- criterion 3

def test_criterion_3_rank_reproduction():
    start = time.perf_counter()
    family = twin_tree_family(5)
    base = rank_of_family(family, 5)
    augmented = rank_of_family(family + list(new_direction_family()), 5)
    elapsed = time.perf_counter() - start
    ok = base.dim_top_intersection == 100 and \
        augmented.dim_top_intersection == 106
    report("3 (rank 100 -> 106)", ok and elapsed < 600,
           f"base={base.dim_top_intersection}, "
           f"augmented={augmented.dim_top_intersection}, {elapsed:.0f} s")


# --------------------------------------------------------- criterion 4

def test_criterion_4a_corner_tree_oracle():
    rng = random.Random(401)
    ok = True
    for _ in range(300):
        k = rng.randint(1, 5)
        edges = tuple((rng.randrange(c), c,
                       rng.choice(["NE", "NW", "SE", "SW"]))
                      for c in range(1, k))
        ct = CornerTree(0, edges)
        pi = random_perm(rng, rng.randint(1, 12))
        ok &= count_corner_tree(pi, ct) == \
            naive_morphism_count(as_double_poset(ct), pi)
    report("4a (corner tree vs morphism oracle, 300 cases)", ok)


def test_criterion_4b_block_algorithm_vs_pattern_oracle():
    rng = random.Random(402)
    ok = True
    cube = lambda n: max(1, round(n ** (1 / 3)))
    for case in range(100):
        arbo = random_arbo(rng, max_extra=2)
        if case < 85:
            n = rng.randint(arbo.n, arbo.n + 8)
        else:
            n = rng.randint(30, 40) if arbo.n <= 5 else rng.randint(20, 26)
        pi = random_perm(rng, n)
        vec = pattern_vector(arbo.dp)
        table = pattern_count_table(pi, vec.sizes())
        oracle = sum(c * table.get(p, 0) for p, c in vec.items())
        for m in {1, cube(n), n}:
            ok &= count_gen_3214(pi, arbo, m) == oracle
    report("4b (block counting vs pattern oracle, 100 cases x 3 block sizes)", ok)


def _brute_type_counts(pi, arbo, m):
    """Independent pruned DFS over all morphisms, classified by block type."""
    n = pi.n
    vals = pi.zero_indexed()
    d = arbo.dp
    pairs_w = d.west.pairs
    pairs_s = d.south.pairs
    counts = [0, 0, 0]

    def classify_leaf(image):
        f1, f3, f4 = image[arbo.one], image[arbo.three], image[arbo.four]
        if vals[f1] // m != vals[f4] // m:
            counts[0] += 1
        elif f3 // m != f4 // m:
            counts[1] += 1
        else:
            counts[2] += 1

    image = [0] * d.n

    def dfs(k):
        if k == d.n:
            classify_leaf(image)
            return
        for cand in range(n):
            ok = True
            for j in range(k):
                if (j, k) in pairs_w and not image[j] < cand:
                    ok = False
                elif (k, j) in pairs_w and not cand < image[j]:
                    ok = False
                elif (j, k) in pairs_s and not vals[image[j]] < vals[cand]:
                    ok = False
                elif (k, j) in pairs_s and not vals[cand] < vals[image[j]]:
                    ok = False
                if not ok:
                    break
            if ok:
                image[k] = cand
                dfs(k + 1)

    dfs(0)
    return tuple(counts)


def test_criterion_4c_per_type_counters():
    rng = random.Random(403)
    ok = True
    for case in range(12):
        arbo = random_arbo(rng, max_extra=1)
        n = rng.randint(12, 30) if arbo.n <= 5 else rng.randint(10, 18)
        pi = random_perm(rng, n)
        m = rng.choice([2, 3, max(1, round(n ** (1 / 3))), 7])
        expect = _brute_type_counts(pi, arbo, m)
        got = (count_type_a(pi, arbo, m),
               count_type_b_not_a(pi, arbo, m),
               count_box(pi, arbo, m))
        ok &= got == expect
    report("4c (per-type counters vs brute force, n <= 30)", ok)


# --------------------------------------------------------- criterion 5

@pytest.mark.slow
def test_criterion_5_factorization_exhaustive_and_random():
    small = [d for n in (1, 2, 3) for d in all_double_posets(n)]
    ok = True
    for d_a in small:
        for d_b in small:
            ok &= check_factorization(d_a, d_b).ok
    rng = random.Random(405)
    for _ in range(200):
        ok &= check_factorization(random_double_poset(rng, 4),
                                  random_double_poset(rng, 4)).ok
    report("5a (factorization identities, all pairs <=3 plus 200 random 4s)", ok)


def test_criterion_5_phi_triangularity():
    from fractions import Fraction

    ok = True
    for n in (1, 2, 3):
        classes = sorted(all_double_posets(n),
                         key=lambda d: (len(d.west.pairs), len(d.south.pairs)))
        for j, src in enumerate(classes):
            for i, dst in enumerate(classes):
                coeff = Fraction(count_epis(src, dst), automorphism_count(dst))
                if i == j:
                    ok &= coeff == 1
                elif i < j:
                    ok &= coeff == 0
    report("5b (phi triangular with unit diagonal on classes of <= 3)", ok)


def test_criterion_5_translation_identities():
    rng = random.Random(406)
    smalls = [d for n in (1, 2, 3) for d in all_double_posets(n)]
    larges = [random_double_poset(rng, 4), random_double_poset(rng, 5),
              random_double_poset(rng, 6)]

    def pair(kind, large, vector):
        return sum(c * enumerate_morphisms(rep, large, kind)
                   for rep, c in vector.items())

    ok = True
    for large in larges:
        for d in smalls:
            mor = enumerate_morphisms(d, large, "mor")
            ok &= mor == pair("regmono", large, phi_regmono_from_mor(d))
            ok &= mor == pair("mono", large, phi_mono_from_mor(d))
    for _ in range(12):
        d = random_double_poset(rng, 4)
        large = random_double_poset(rng, rng.randint(4, 5))
        mor = enumerate_morphisms(d, large, "mor")
        ok &= mor == pair("regmono", large, phi_regmono_from_mor(d))
        ok &= mor == pair("mono", large, phi_mono_from_mor(d))
    report("5c (translation identities)", ok)


@pytest.mark.xfail(
    strict=True,
    reason="Twin-support closure under the embedding-counting translation is "
           "false for genuine regular epimorphisms: merging a doubly "
           "incomparable pair of a twin double poset can produce a non-twin "
           "quotient (12 of the 94 twin classes on <= 4 elements).  The "
           "closure holds only for cover-faithful quotient maps, which is "
           "regression-tested in test_algebra.")
def test_criterion_5_twin_support_closure():
    twins = [d for n in range(1, 5) for d in all_double_posets(n)
             if classify(d).is_twin]
    ok = all(
        all(classify(s).is_twin for s in phi_mono_from_mor(d).support())
        for d in twins
    )
    report("5d (twin support closure under phi_mono)", ok)


# --------------------------------------------------------- criterion 6

@pytest.mark.bench
def test_criterion_6_streaming_scaling():
    import gc

    sizes = (100_000, 200_000, 400_000)
    times = {n: float("inf") for n in sizes}
    bench_once("general", sizes[-1], seed=70)  # touch peak memory once
    gc.collect()
    gc.disable()
    try:
        # Interleave repetitions so machine-state drift hits all sizes alike;
        # the minimum is the stable estimate of each size's cost.  Three
        # repetitions left it flaky on a loaded 2-vCPU machine.
        for rep in range(5):
            for n in sizes:
                times[n] = min(times[n], bench_once("general", n, seed=71 + rep))
    finally:
        gc.enable()
    r1 = times[200_000] / times[100_000]
    r2 = times[400_000] / times[200_000]
    ok = r1 <= 2.6 and r2 <= 2.6
    report("6a (streaming per-doubling ratio <= 2.6)", ok,
           f"ratios {r1:.2f}, {r2:.2f}")


@pytest.mark.bench
def test_criterion_6_block_scaling():
    bench_once("block", 8_000, seed=73)  # warm up
    times = {}
    for n in (20_000, 40_000, 80_000):
        times[n] = bench_once("block", n, seed=74)
    bound = 2 ** (5 / 3) * 1.25
    r1 = times[40_000] / times[20_000]
    r2 = times[80_000] / times[40_000]
    ok = r1 <= bound and r2 <= bound
    report("6b (block algorithm per-doubling ratio <= 2^(5/3) * 1.25)", ok,
           f"ratios {r1:.2f}, {r2:.2f} vs bound {bound:.2f}")
