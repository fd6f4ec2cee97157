import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patterncount.core import (
    DoublePoset,
    Permutation,
    chain_poset,
    classify,
    double_poset,
    empty_poset,
    naive_pattern_count,
    pattern_count_table,
    perm,
    perm_to_dp,
)
from patterncount.counting import count_morphisms_into_perm, corner_tree_to_dp
from patterncount.trees import CornerTree, TooLarge
from patterncount.algebra import (
    MorphismClassCounts,
    PatternVector,
    all_double_posets,
    automorphism_count,
    check_factorization,
    count_epis,
    enumerate_morphisms,
    morphism_class_counts,
    new_direction_family,
    new_direction_vectors,
    pattern_vector,
    phi_mono_from_mor,
    phi_regmono_from_mor,
    rank_of_family,
    twin_tree_family,
)
from tests.test_core import random_double_poset, random_perm


# ----------------------------------------------------- morphism classes

def test_permutation_dp_to_itself():
    rng = random.Random(61)
    for _ in range(10):
        d = perm_to_dp(random_perm(rng, rng.randint(1, 5)))
        c = morphism_class_counts(d, d)
        assert (c.mor, c.mono, c.regmono, c.iso, c.aut) == (1, 1, 1, 1, 1)


def test_regmono_counts_pattern_occurrences():
    rng = random.Random(62)
    for _ in range(20):
        sigma = random_perm(rng, rng.randint(1, 4))
        pi = random_perm(rng, rng.randint(sigma.n, 6))
        assert enumerate_morphisms(perm_to_dp(sigma), perm_to_dp(pi), "regmono") \
            == naive_pattern_count(pi, sigma)


def test_epi_without_regepi():
    # A 3-chain plus a 2-chain mapping onto a 5-chain covers only three of
    # the four target covers: epi yes, regular epi no.
    src = double_poset(5, [(0, 1), (1, 2), (3, 4)], [])
    dst = double_poset(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [])
    c = morphism_class_counts(src, dst)
    assert c.epi > 0 and c.regepi == 0
    # Redirecting the 2-chain onto a fork of the target makes the covers
    # surjective: a regular epimorphism exists.
    dst2 = double_poset(4, [(0, 1), (1, 2), (3, 2)], [])
    c2 = morphism_class_counts(src, dst2)
    assert c2.regepi > 0


def test_count_inequalities():
    rng = random.Random(63)
    for _ in range(40):
        a = random_double_poset(rng, rng.randint(1, 4))
        b = random_double_poset(rng, rng.randint(1, 4))
        c = morphism_class_counts(a, b)
        assert c.regmono <= c.mono <= c.mor
        assert c.regepi <= c.epi <= c.mor
        assert c.iso <= min(c.regmono, c.regepi)
        assert count_epis(a, b) == c.epi


def test_enumeration_cap():
    big = perm_to_dp(perm(range(1, 8)))
    with pytest.raises(TooLarge):
        morphism_class_counts(big, big)
    with pytest.raises(ValueError):
        enumerate_morphisms(big, big, "weird")


# ------------------------------------------------------------- phi maps

def test_phi_regmono_of_permutation_dp_is_itself():
    rng = random.Random(64)
    for _ in range(8):
        d = perm_to_dp(random_perm(rng, rng.randint(1, 4)))
        v = phi_regmono_from_mor(d)
        assert len(v) == 1 and v.coefficient(d) == 1


def test_phi_regmono_triangular_with_unit_diagonal():
    for n in (2, 3):
        classes = sorted(all_double_posets(n),
                         key=lambda d: (len(d.west.pairs), len(d.south.pairs)))
        for j, src in enumerate(classes):
            for i, dst in enumerate(classes):
                coeff = Fraction(count_epis(src, dst), automorphism_count(dst))
                if i == j:
                    assert coeff == 1
                elif i < j:
                    assert coeff == 0, (src, dst)


def test_phi_mono_coefficients_match_direct_counts():
    rng = random.Random(65)
    for _ in range(20):
        d = random_double_poset(rng, rng.randint(1, 4))
        v = phi_mono_from_mor(d)
        for rep in v.support():
            c = morphism_class_counts(d, rep)
            assert v.coefficient(rep) == Fraction(c.regepi, c.aut)


def test_twin_closure_holds_for_cover_faithful_quotients_only():
    # Regular epi images of a twin double poset need not be twin: merging a
    # doubly incomparable pair can turn a source cover into a non-cover of
    # one order only.  The twin property is preserved exactly when the
    # projection maps both Hasse diagrams onto the quotient's diagrams.
    from patterncount.algebra import regepi_quotients

    twins = [d for n in range(1, 5) for d in all_double_posets(n)
             if classify(d).is_twin]
    assert len(twins) == 94
    violating = 0
    for d in twins:
        quotients = regepi_quotients(d, cover_faithful=True)
        assert all(classify(q).is_twin for q, _ in quotients)
        if any(not classify(s).is_twin for s in phi_mono_from_mor(d).support()):
            violating += 1
    assert violating == 12


def test_tree_class_not_closed():
    # Five-element twin trees can produce non-tree classes under the
    # embedding-counting translation; with induced-embedding counting the
    # escape already happens at four elements.
    fam5 = twin_tree_family(5)
    assert any(
        any(not classify(s).is_tree for s in phi_mono_from_mor(d).support())
        for d in fam5 if d.n == 5
    )
    trees4 = [d for d in all_double_posets(4) if classify(d).is_tree]

    def regmono_support_escapes(d):
        for k in range(1, 5):
            for rep in all_double_posets(k):
                if count_epis(d, rep) and not classify(rep).is_tree:
                    return True
        return False

    assert any(regmono_support_escapes(d) for d in trees4)


# ------------------------------------------------- translation identity

def _dpc(kind, large, vector):
    return sum(c * enumerate_morphisms(rep, large, kind)
               for rep, c in vector.items())


def test_translation_identities_small():
    rng = random.Random(66)
    larges = [random_double_poset(rng, 4) for _ in range(2)] + \
        [random_double_poset(rng, 5), perm_to_dp(perm([3, 1, 4, 2, 6, 5]))]
    smalls = [d for n in (1, 2, 3) for d in all_double_posets(n)]
    for large in larges:
        for d in smalls:
            mor = enumerate_morphisms(d, large, "mor")
            assert mor == _dpc("regmono", large, phi_regmono_from_mor(d))
            assert mor == _dpc("mono", large, phi_mono_from_mor(d))


def test_translation_identities_level4():
    rng = random.Random(67)
    for _ in range(8):
        d = random_double_poset(rng, 4)
        large = random_double_poset(rng, rng.randint(4, 5))
        mor = enumerate_morphisms(d, large, "mor")
        assert mor == _dpc("regmono", large, phi_regmono_from_mor(d))
        assert mor == _dpc("mono", large, phi_mono_from_mor(d))


# ------------------------------------------------------ pattern vectors

def as_strings(vec):
    return {"".join(map(str, p.values)): c for p, c in vec.items()}


def pattern_vector_by_epis(d: DoublePoset) -> PatternVector:
    """Reference: one surjective-morphism search per permutation of size <= n."""
    terms = {}
    for k in range(1, d.n + 1):
        for vals in itertools.permutations(range(1, k + 1)):
            sigma = Permutation(vals)
            cnt = count_epis(d, perm_to_dp(sigma))
            if cnt:
                terms[sigma] = cnt
    return PatternVector(terms)


@st.composite
def closed_double_posets(draw, max_n=5):
    """Both orders are transitive closures of random acyclic relations."""
    n = draw(st.integers(0, max_n))

    def relation():
        order = draw(st.permutations(range(n)))
        pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                             max_size=len(pairs)))
        return [p for p, k in zip(pairs, keep) if k]

    return double_poset(n, relation(), relation())


@settings(max_examples=150, deadline=None)
@given(closed_double_posets())
def test_pattern_vector_matches_epi_searches(d):
    assert pattern_vector(d) == pattern_vector_by_epis(d)


@pytest.mark.parametrize("d", [
    DoublePoset(0, empty_poset(0), empty_poset(0)),
    DoublePoset(6, empty_poset(6), empty_poset(6)),
    DoublePoset(6, chain_poset(6), chain_poset(6)),
], ids=["empty", "antichain6", "chain6"])
def test_pattern_vector_pinned_cases(d):
    assert pattern_vector(d) == pattern_vector_by_epis(d)


@pytest.mark.slow
def test_pattern_vector_matches_epi_searches_on_rank_family():
    for d in twin_tree_family(5) + list(new_direction_family()):
        assert pattern_vector(d) == pattern_vector_by_epis(d)


def test_cherry_vector():
    cherry = corner_tree_to_dp(CornerTree(0, ((0, 1, "NE"), (0, 2, "NE"))))
    assert as_strings(pattern_vector(cherry)) == {"12": 1, "123": 2, "132": 2}


def test_four_node_twin_tree_vector():
    d = double_poset(4, [(0, 2), (1, 2), (3, 1)], [(0, 2), (2, 1), (3, 1)])
    assert as_strings(pattern_vector(d)) == {
        "132": 1, "1243": 2, "1342": 1, "1423": 1,
        "2143": 2, "2413": 1, "3142": 1, "3412": 1,
    }


def test_single_relation_pairs_share_vector():
    west_only = double_poset(2, [(0, 1)], [])
    south_only = double_poset(2, [], [(0, 1)])
    expected = {"12": 1, "21": 1}
    assert as_strings(pattern_vector(west_only)) == expected
    assert as_strings(pattern_vector(south_only)) == expected


def test_permutation_dp_vector_is_delta():
    rng = random.Random(68)
    for _ in range(10):
        sigma = random_perm(rng, rng.randint(1, 5))
        vec = pattern_vector(perm_to_dp(sigma))
        assert vec.as_dict() == {sigma: 1}


def test_new_direction_vectors():
    v1, v2, v3 = new_direction_vectors()
    assert as_strings(v1) == {"14325": 1, "24315": 1, "34215": 1}
    assert as_strings(v2) == {"14325": 1, "24315": 1, "41325": 1, "42315": 1}
    assert as_strings(v3) == {"14325": 1, "41325": 1, "43125": 1}


def test_master_identity():
    rng = random.Random(69)
    for _ in range(25):
        d = random_double_poset(rng, rng.randint(1, 5))
        pi = random_perm(rng, rng.randint(d.n, 9))
        vec = pattern_vector(d)
        table = pattern_count_table(pi, vec.sizes())
        paired = sum(c * table.get(p, 0) for p, c in vec.items())
        assert paired == count_morphisms_into_perm(d, pi)


def test_anti_vector_is_rotated():
    from patterncount.core import anti

    rng = random.Random(70)
    for _ in range(10):
        d = random_double_poset(rng, rng.randint(1, 4))
        rotated = {p.rotate180(): c for p, c in pattern_vector(d).items()}
        assert pattern_vector(anti(d)).as_dict() == rotated


# ------------------------------------------------------- factorization

def test_factorization_sample_small_pairs():
    rng = random.Random(71)
    classes = [d for n in (1, 2, 3) for d in all_double_posets(n)]
    for _ in range(60):
        a = rng.choice(classes)
        b = rng.choice(classes)
        assert check_factorization(a, b).ok


def test_factorization_random_4_pairs():
    rng = random.Random(72)
    for _ in range(25):
        a = random_double_poset(rng, 4)
        b = random_double_poset(rng, 4)
        report = check_factorization(a, b)
        assert report.ok, report.failures


def test_factorization_permutation_pair_trivial():
    d = perm_to_dp(perm([2, 3, 1]))
    assert check_factorization(d, d).ok


# ---------------------------------------------------------------- rank

def test_rank_level2():
    r = rank_of_family(twin_tree_family(2), 2)
    assert r.dim_span == 3 and r.dim_top_intersection == 2


def test_rank_level3_is_full():
    r = rank_of_family(twin_tree_family(3), 3)
    assert r.dim_top_intersection == 6


def test_rank_permutation_family_is_standard_basis():
    k = 3
    family = [perm_to_dp(Permutation(v))
              for v in __import__("itertools").permutations(range(1, k + 1))]
    r = rank_of_family(family, k)
    assert r.dim_span == 6
    assert r.dim_top_intersection == 6
    assert r.dim_top_strict == 6


def test_rank_cap():
    with pytest.raises(TooLarge):
        rank_of_family(twin_tree_family(2), 6)
    with pytest.raises(TooLarge):
        rank_of_family([perm_to_dp(perm([1, 2, 3]))], 2)


def test_new_direction_family_shapes():
    fam = new_direction_family()
    assert len(fam) == 6
    assert all(d.n == 5 for d in fam)
    assert all(classify(d).is_tree and not classify(d).is_twin for d in fam)


def test_integer_rank_basics():
    from patterncount.algebra import _integer_rank

    assert _integer_rank([]) == 0
    assert _integer_rank([[0, 0]]) == 0
    assert _integer_rank([[2, 4], [1, 2]]) == 1
    assert _integer_rank([[1, 0, 3], [0, 5, 1], [1, 5, 4]]) == 2
    assert _integer_rank([[3, 1], [1, 1]]) == 2
