"""Existence dispatch, closed multiplicity formulas, neighbor censuses."""

import random
from itertools import combinations, combinations_with_replacement, product

import pytest

from heckelab import hecke
from heckelab.bundles import BundleType, ClosedPoint, aut_order
from heckelab.deltas import DeltaVec, weight
from heckelab.forms import TruncatedPBun, hecke_matrix
from heckelab.hall import hall_multiplicity
from heckelab.hecke import (
    ModificationQuery,
    candidates,
    exists_modification,
    multiplicity,
    multiplicity_detail,
    neighbors,
    neighbors_detail,
)
from heckelab.oracle import brute_multiplicity
from heckelab.qcalc import QPoly, gaussian_binomial

Q = QPoly((0, 1))
ONE = QPoly((1,))
ZERO = QPoly(())


def B(*degrees):
    return BundleType(degrees)


def query(E_prime, E, d, r, q=2):
    return ModificationQuery(E, E_prime, ClosedPoint(q, d), r)


def test_query_validation():
    with pytest.raises(ValueError):
        query(B(0), B(0, 0), 1, 1)
    with pytest.raises(ValueError):
        query(B(0, 0), B(0, 0), 1, -1)


def test_exists_examples():
    assert exists_modification(query(B(-2, 0), B(0, 0), 2, 1))
    assert not exists_modification(query(B(-1, 4), B(0, 5), 3, 1))
    assert exists_modification(query(B(0, 0), B(0, 0), 1, 0))
    assert not exists_modification(query(B(-1, 0), B(0, 0), 1, 0))


def test_exists_chain_criterion():
    # the dropped top component may not fall below its left neighbor
    assert not exists_modification(query(B(-1, 1), B(0, 2), 2, 1))
    assert exists_modification(query(B(0, 0), B(0, 2), 2, 1))
    assert exists_modification(query(B(-2, 2), B(0, 2), 2, 1))


def test_exists_gap_split():
    assert exists_modification(query(B(-3, 5), B(0, 5), 3, 1))
    assert exists_modification(query(B(0, 2), B(0, 5), 3, 1))
    # a drop not divisible by d cannot cross a gap wider than d
    assert not exists_modification(query(B(-1, 3), B(0, 5), 3, 2, q=2))


def test_exists_weight_bounds():
    assert exists_modification(query(B(-1, -1), B(0, 0), 1, 2))
    assert not exists_modification(query(B(-2, 0), B(0, 0), 1, 2))
    assert not exists_modification(query(B(-1, -1, -1), B(0, 0, 0), 1, 4))


def small_bundles(n, lo, hi):
    return [BundleType(c) for c in combinations_with_replacement(range(lo, hi + 1), n)]


def all_candidates(E, d, r):
    """Independent reference for hecke.candidates."""
    seen = set()
    for eps in product(range(d + 1), repeat=E.rank):
        if sum(eps) == r * d:
            seen.add(BundleType([a - e for a, e in zip(E.degrees, eps)]))
    return sorted(seen)


def test_candidates_match_reference():
    for n in range(1, 5):
        for E in small_bundles(n, -1, 2):
            for d in (1, 2, 3):
                for r in range(n + 1):
                    assert candidates(E, d, r) == all_candidates(E, d, r), (E, d, r)


def test_exists_iff_hall_nonzero():
    for n in (2, 3):
        for E in small_bundles(n, 0, 3):
            for d in (1, 2, 3):
                for r in range(n + 1):
                    for E_prime in all_candidates(E, d, r):
                        got = exists_modification(query(E_prime, E, d, r))
                        want = not hall_multiplicity(E_prime, E, d, r).is_zero()
                        assert got == want, (E_prime, E, d, r)


def test_multiplicity_rank2_split_case():
    assert multiplicity(query(B(0, 1), B(0, 3), 2, 1)) == Q**2
    assert multiplicity(query(B(-2, 3), B(0, 3), 2, 1)) == ONE


def test_multiplicity_rank2_balanced_case():
    assert multiplicity(query(B(-1, -1), B(0, 0), 2, 1)) == Q**2 - Q
    assert multiplicity(query(B(-2, 0), B(0, 0), 2, 1)) == Q + ONE


def test_multiplicity_rank2_interior_entries():
    # middle case with g = d2-d1 = 2, d = 5: the interior entry at i=1 is
    # q^{g+2i+1} - q^{g+2i-1}; the mass over all five neighbors is q^5 + 1
    E = B(0, 2)
    got = multiplicity(query(B(-2, -1), E, 5, 1), cross_check=False)
    want = hall_multiplicity(B(-2, -1), E, 5, 1)
    assert got == want == Q**5 - Q**3
    nb = neighbors(E, 5, 1, cross_check=True)
    total = sum(p.evaluate(2) for p in nb.values())
    assert total == 2**5 + 1


def test_multiplicity_rank1():
    assert multiplicity(query(B(2), B(5), 3, 1)) == ONE
    assert multiplicity(query(B(0), B(5), 3, 1)) == ZERO


def test_multiplicity_grassmannian_case():
    got, method = multiplicity_detail(query(B(-2, -2, 0), B(0, 0, 0), 2, 2))
    assert got == gaussian_binomial(2, 3)
    assert method == "grassmannian"


def test_multiplicity_deg1_case():
    # dropping one component of the doubled degree-0 block: #Gr(1,2) choices
    got, method = multiplicity_detail(query(B(-1, 0, 1), B(0, 0, 1), 1, 1))
    assert method == "deg1"
    assert got == Q + ONE
    got, method = multiplicity_detail(query(B(0, 0, 0), B(0, 0, 1), 1, 1))
    assert method == "deg1"
    assert got == Q**2


def test_multiplicity_spaced_case():
    got, method = multiplicity_detail(query(B(0, 2, 4), B(0, 2, 6), 2, 1))
    assert method == "spaced"
    assert got == Q**4
    got, method = multiplicity_detail(query(B(-2, 2, 6), B(0, 2, 6), 2, 1))
    assert method == "spaced"
    assert got == ONE


def test_multiplicity_spaced_split_case():
    got, method = multiplicity_detail(query(B(0, 0, 3), B(0, 0, 5), 2, 1))
    assert method == "spaced-split"
    assert got == Q**4
    nb = neighbors(B(0, 0, 5), 2, 1)
    total = sum(p.evaluate(3) for p in nb.values())
    assert total == gaussian_binomial(2, 3).evaluate(9)


def test_multiplicity_nonexistent_is_zero():
    poly, method = multiplicity_detail(query(B(-1, 1), B(0, 2), 2, 1))
    assert poly == ZERO and method == "nonexistent"


def test_multiplicity_trivial_weights():
    assert multiplicity_detail(query(B(0, 1), B(0, 1), 1, 0)) == (ONE, "trivial")
    assert multiplicity_detail(query(B(-2, -1), B(0, 1), 2, 2)) == (ONE, "full-twist")


def test_neighbors_trivial_bundle_degree_two():
    nb = neighbors(B(0, 0), 2, 1)
    assert nb == {B(-2, 0): Q + ONE, B(-1, -1): Q**2 - Q}
    assert {E: p.evaluate(2) for E, p in nb.items()} == {B(-2, 0): 3, B(-1, -1): 2}


def test_neighbors_other_examples():
    assert neighbors(B(0, 0), 1, 2) == {B(-1, -1): ONE}
    assert neighbors(B(5), 3, 1) == {B(2): ONE}


def test_neighbors_validation():
    with pytest.raises(ValueError):
        neighbors(B(0, 0), 2, 0)
    with pytest.raises(ValueError):
        neighbors(B(0, 0), 2, 3)
    with pytest.raises(ValueError):
        neighbors(B(0, 0), 0, 1)


def test_neighbors_mass_identity():
    for n in (1, 2, 3):
        for E in small_bundles(n, 0, 3):
            for d in (1, 2, 3):
                for r in range(1, n + 1):
                    nb = neighbors(E, d, r)
                    for q0 in (2, 3):
                        total = sum(p.evaluate(q0) for p in nb.values())
                        want = gaussian_binomial(n - r, n).evaluate(q0**d)
                        assert total == want, (E, d, r, q0)


def test_neighbors_detail_carries_the_dispatch_method():
    for n in (2, 3, 4):
        for E in small_bundles(n, 0, 2):
            for d in (1, 2):
                for r in range(1, n + 1):
                    detail = neighbors_detail(E, d, r)
                    assert {e: p for e, (p, _) in detail.items()} == neighbors(E, d, r)
                    x = ClosedPoint(2, d)
                    for E_prime, got in detail.items():
                        assert got == multiplicity_detail(ModificationQuery(E, E_prime, x, r))


def test_neighbors_match_oracle_census():
    cases = [
        (B(0, 0), ClosedPoint(2, 2, (1, 1, 1)), 1),
        (B(0, 0), ClosedPoint(2, 2, (1, 1, 1)), 2),
        (B(0, 1, 2), ClosedPoint(2, 1, (0, 1)), 1),
        (B(0, 0, 1), ClosedPoint(3, 1, (0, 1)), 2),
        (B(0, 2), ClosedPoint(3, 2, (1, 0, 1)), 1),
    ]
    for E, x, r in cases:
        census = brute_multiplicity(E, x, r)
        nb = neighbors(E, x.d, r)
        assert {e: p.evaluate(x.q) for e, p in nb.items()} == census, (E, x, r)


def dual(m):
    """The dual [E -> E'(x)] of [E' -> E] with weight n - r: twisting by
    O(x) raises every degree by d."""
    return ModificationQuery(m.E_prime.twist(m.d), m.E, m.x, m.E.rank - m.r)


def test_dual_existence():
    m = query(B(-2, 0), B(0, 0), 2, 1)
    assert exists_modification(m) and exists_modification(dual(m))
    # full weight: dual has weight 0 and E'(x) must equal E
    m = query(B(-2, -1), B(0, 1), 2, 2)
    assert exists_modification(dual(m))
    # each sequence exists exactly when its dual does, in both directions
    for E in small_bundles(2, 0, 2) + small_bundles(3, 0, 2):
        n = E.rank
        for d in (1, 2, 3):
            for r in range(n + 1):
                for E_prime in all_candidates(E, d, r):
                    m = ModificationQuery(E, E_prime, ClosedPoint(2, d), r)
                    assert exists_modification(m) == exists_modification(dual(m)), (
                        E_prime, E, d, r
                    )


def test_dispatch_coherence_rank2_at_d1():
    # rank-2 table and the rational-point formula must agree where both apply
    from heckelab.hecke import _block_multiplicity, _rank2_table

    for E in small_bundles(2, 0, 3):
        for r in (1,):
            for E_prime in all_candidates(E, 1, r):
                if not exists_modification(query(E_prime, E, 1, r)):
                    continue
                a = _rank2_table(E_prime.degrees, E.degrees, 1)
                b = _block_multiplicity(E_prime.degrees, E.degrees, 1, r)
                assert a == b, (E_prime, E)


def test_method_metadata_tags():
    tags = {
        multiplicity_detail(query(B(-1, -1), B(0, 0), 2, 1))[1],
        multiplicity_detail(query(B(-1, 0, 1), B(0, 0, 1), 1, 1))[1],
        multiplicity_detail(query(B(0, 2, 4), B(0, 2, 6), 2, 1))[1],
        multiplicity_detail(query(B(-2, -2, 0), B(0, 0, 0), 2, 2))[1],
    }
    assert tags == {"rank2-table", "deg1", "spaced", "grassmannian"}


def test_hall_fallback_method():
    # rank 3, d = 2, mixed drops at a gap smaller than d: no closed branch
    poly, method = multiplicity_detail(query(B(-1, 0, 0), B(0, 0, 1), 2, 1))
    assert method in ("hall", "spaced-split")
    assert poly == hall_multiplicity(B(-1, 0, 0), B(0, 0, 1), 2, 1)


# The closed formulas as they stood before one block product replaced the
# last three: the five-case rank-2 table, the degree-one product, the
# delta-weight monomial for spaced degrees and the Gaussian binomial for
# balanced bundles.  They are the references for the tests below.


def reference_rank2_table(dp, dd, d):
    d1, d2 = dd
    a, b = dp
    g = d2 - d1
    if g >= d:
        if (a, b) == tuple(sorted((d1, d2 - d))):
            return QPoly.monomial(d)
        if (a, b) == (d1 - d, d2):
            return ONE
        return ZERO
    if g == 0:
        if d % 2 == 0 and (a, b) == (d1 - d // 2, d1 - d // 2):
            return QPoly.monomial(d) - QPoly.monomial(d - 1)
        if (a, b) == (d1 - d, d1):
            return QPoly((1, 1))  # q+1
        i = d1 - b
        if 1 <= i <= (d - 1) // 2 and a == d1 - d + i:
            return QPoly.monomial(2 * i + 1) - QPoly.monomial(2 * i - 1)
        return ZERO
    # 0 < g < d
    if (d + g) % 2 == 0 and (a, b) == ((d1 + d2 - d) // 2, (d1 + d2 - d) // 2):
        return QPoly.monomial(d) - QPoly.monomial(d - 1)
    if (a, b) == (d2 - d, d1):
        return QPoly.monomial(g + 1)
    if (a, b) == (d1 - d, d2):
        return ONE
    i = d1 - b
    ell = (d - g - 1) // 2
    if 1 <= i <= ell and a == d2 - d + i:
        return QPoly.monomial(g + 2 * i + 1) - QPoly.monomial(g + 2 * i - 1)
    return ZERO


def reference_deg1_multiplicity(dp, dd, r):
    eps = [a - b for a, b in zip(dd, dp)]
    E = BundleType(dd)
    out = ONE
    alpha = 0
    consumed = 0
    start = 0
    for _, length in E.grouped():
        theta = sum(eps[start : start + length])
        consumed += theta
        alpha += (length - theta) * (r - consumed)
        out = out * gaussian_binomial(theta, length)
        start += length
    return QPoly.monomial(alpha) * out


def reference_block_dispatch(dp, dd, d, r):
    """(poly, tag) from the deg1, spaced and grassmannian branches in
    dispatch order, for rank >= 3 and 0 < r < rank; None past them."""
    n = len(dd)
    if d == 1:
        return reference_deg1_multiplicity(dp, dd, r), "deg1"
    eps = tuple(a - b for a, b in zip(dd, dp))
    distinct = all(dd[i + 1] > dd[i] for i in range(n - 1))
    spaced = all(dd[i + 1] - dd[i] >= d for i in range(n - 1))
    if distinct and spaced and all(e in (0, d) for e in eps):
        delta = DeltaVec([e // d for e in eps])
        return QPoly.monomial(weight(delta) * d), "spaced"
    if len(set(dd)) == 1:
        lowered = tuple(sorted([dd[0] - d] * r + [dd[0]] * (n - r)))
        if dp == lowered:
            return gaussian_binomial(r, n), "grassmannian"
    return None


def test_rank2_table_matches_the_five_case_reference():
    seen = 0
    for d1 in range(-3, 6):
        for d2 in range(d1, 14):
            E = B(d1, d2)
            for d in range(1, 9):
                for E_prime in candidates(E, d, 1):
                    poly, method = multiplicity_detail(query(E_prime, E, d, 1), cross_check=False)
                    assert method in ("rank2-table", "nonexistent"), (E_prime, E, d)
                    assert poly == reference_rank2_table(E_prime.degrees, E.degrees, d), (
                        E_prime, E, d
                    )
                    seen += 1
    assert seen == 4518


def test_block_product_matches_the_deg1_spaced_and_grassmannian_references():
    # only drops of 0 or d can reach a block branch, so the candidates are
    # the subsets of components that drop by d; rank 5 leaves out the
    # near-miss gap d - 1, whose candidates mostly go to the Hall engine
    tags = {}
    for d in range(1, 5):
        for n in range(3, 6):
            gap_choices = {0, d - 1, d, d + 1} if n < 5 else {0, d, d + 1}
            for gaps in product(sorted(gap_choices), repeat=n - 1):
                dd = (0,) + tuple(sum(gaps[:i]) for i in range(1, n))
                E = BundleType(dd)
                for r in range(1, n):
                    for S in combinations(range(n), r):
                        E_prime = B(*(b - d * (i in S) for i, b in enumerate(dd)))
                        if not exists_modification(query(E_prime, E, d, r)):
                            continue
                        got = multiplicity_detail(query(E_prime, E, d, r), cross_check=False)
                        want = reference_block_dispatch(E_prime.degrees, dd, d, r)
                        if want is None:
                            assert got[1] in ("spaced-split", "hall"), (E_prime, E, d, r)
                        else:
                            assert got == want, (E_prime, E, d, r)
                        tags[got[1]] = tags.get(got[1], 0) + 1
    assert min(tags[t] for t in ("deg1", "spaced", "grassmannian")) >= 20, tags


def test_existence_at_degree_one_is_one_call_per_candidate(monkeypatch):
    # every drop vector in {0, 1}^n with the right sum is realizable, so at
    # d = 1 the existence test neither recurses over gaps nor asks the engine
    calls, listed = [0], [0]
    exists, all_candidates_of = hecke._exists, hecke.candidates

    def counting_exists(*args):
        calls[0] += 1
        return exists(*args)

    def counting_candidates(*args):
        out = all_candidates_of(*args)
        listed[0] += len(out)
        return out

    monkeypatch.setattr(hecke, "_exists", counting_exists)
    monkeypatch.setattr(hecke, "candidates", counting_candidates)
    for r in (1, 2, 3):
        hecke_matrix(TruncatedPBun(4, 6), r)
    assert calls[0] == listed[0] == 847


def census_instances(seed, count):
    """Seeded (E, d, r, twist) with ranks 3-6, gaps 0-2 and d 1-4.  The
    largest d falls with the rank: a census with its twist takes about
    65 ms at rank 6, d = 2 and 30 ms at rank 5, d = 3, against 11 ms or
    less at the ranks and degrees drawn here."""
    rng = random.Random(f"census-identities:{seed}")
    for _ in range(count):
        n = rng.randint(3, 6)
        degrees = [rng.randint(-5, 5)]
        for _ in range(n - 1):
            degrees.append(degrees[-1] + rng.randint(0, 2))
        d = rng.randint(1, {3: 4, 4: 4, 5: 2, 6: 1}[n])
        yield B(*degrees), d, rng.randint(1, n - 1), rng.randint(-9, 9)


def test_census_identities_on_seeded_instances():
    """Identities every census satisfies, with the cross-check off so that
    nothing else vouches for the answers: the mass is #Gr(n - r, n)(q^d), a
    twist E(k) twists every neighbour by k, and dualizing E' -> E gives
    E^v -> E'^v with the same cokernel, so
    m_r(E', E) |Aut E'| = m_r(E^v, E'^v) |Aut E|."""
    evaluations = 0
    for E, d, r, k in census_instances(0, 150):
        n = E.rank
        census = neighbors(E, d, r, cross_check=False)
        for q0 in (2, 3, 4, 5, 8, 9):
            mass = sum(poly.evaluate(q0) for poly in census.values())
            assert mass == gaussian_binomial(n - r, n).evaluate(q0**d), (E, d, r, q0)
        twisted = neighbors(E.twist(k), d, r, cross_check=False)
        assert twisted == {E_prime.twist(k): poly for E_prime, poly in census.items()}, (E, d, r, k)
        E_dual = B(*(-a for a in E.degrees))
        for E_prime, poly in census.items():
            dual = ModificationQuery(B(*(-a for a in E_prime.degrees)), E_dual, ClosedPoint(2, d), r)
            dual_poly = multiplicity(dual, cross_check=False)
            for q0 in (2, 3, 4):
                left = poly.evaluate(q0) * aut_order(E_prime, q0)
                right = dual_poly.evaluate(q0) * aut_order(E, q0)
                assert left == right, (E_prime, E, d, r, q0)
                evaluations += 1
    assert evaluations == 2556


#: pairs of Hecke operators, each (point degree, weight)
OPERATOR_PAIRS = [((1, 1), (2, 1)), ((1, 2), (2, 2)), ((2, 1), (2, 3)), ((1, 1), (3, 1))]


def composed(E, first, second):
    """E'' -> the sum over E' of m_first(E', E) * m_second(E'', E'), in Z[q]:
    the first operator, then the second, applied to E."""
    out = {}
    for E1, m1 in neighbors(E, *first, cross_check=False).items():
        for E2, m2 in neighbors(E1, *second, cross_check=False).items():
            out[E2] = out.get(E2, ZERO) + m1 * m2
    return out


def test_hecke_operators_at_two_point_degrees_commute():
    """The unramified Hecke algebra is commutative, so applying two
    operators in either order gives the same sum over the middle bundle,
    as polynomials in q; the cross-check is off so that each census stands
    on its own.  E runs over the bundles 0 = d_0 <= ... <= d_(n-1) of rank
    2-5 with spread at most 6, 4, 3, 2."""
    compared = 0
    for n, spread in ((2, 6), (3, 4), (4, 3), (5, 2)):
        for tail in combinations_with_replacement(range(spread + 1), n - 1):
            E = B(0, *tail)
            for a, b in OPERATOR_PAIRS:
                if max(a[1], b[1]) <= n:
                    assert composed(E, a, b) == composed(E, b, a), (E, a, b)
                    compared += 1
    assert compared == 221
