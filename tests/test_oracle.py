"""Ground-truth checks: fields, subspace census, splitting types, SNF."""

import random

import pytest

from heckelab import fpoly
from heckelab.bundles import BundleType, ClosedPoint, aut_order
from heckelab.oracle import (
    BudgetExceeded,
    Field,
    brute_aut_order,
    brute_multiplicity,
    check_subspace_budget,
    count_monomorphisms,
    enumerate_subspaces,
    matrix_rank,
    smith_normal_form,
    splitting_type,
    subspace_count,
)
from heckelab.qcalc import gaussian_binomial

F4 = Field(2, 2, (1, 1, 1))  # F_2[t]/(t^2+t+1)
X2 = ClosedPoint(2, 2, (1, 1, 1))  # degree-2 point of P^1 over F_2
X1 = ClosedPoint(2, 1, (0, 1))  # the origin t=0 over F_2

T = (0, 1)
T1 = (1, 1)
ONE = (1,)
PI = (1, 1, 1)


def test_field_f4_arithmetic():
    # t * (t+1) = t^2 + t = 1 modulo t^2+t+1
    assert F4.mul(T, T1) == ONE
    assert F4.inv(T) == T1
    assert F4.add(T, T) == ()
    assert F4.sub((), T) == T  # -1 = 1 in char 2
    elems = list(F4.elements())
    assert len(elems) == 4 and len(set(elems)) == 4
    for a in elems:
        if a:
            assert F4.mul(a, F4.inv(a)) == ONE


def test_field_f9_arithmetic():
    f9 = Field(3, 2, (1, 0, 1))  # t^2 = -1
    assert f9.mul(T, T) == (2,)
    for a in f9.elements():
        if a:
            assert f9.mul(a, f9.inv(a)) == f9.one
    assert f9.reduce((0, 0, 0, 1)) == f9.mul(f9.mul(T, T), T)


def test_field_validation():
    with pytest.raises(ValueError):
        Field(4, 1)  # q must be prime
    with pytest.raises(ValueError):
        Field(2, 2, (1, 1))  # wrong degree
    with pytest.raises(ValueError, match="reducible"):
        Field(2, 2, (1, 0, 1))  # t^2+1 = (t+1)^2 over F_2
    with pytest.raises(ValueError, match="reducible"):
        Field(3, 2, (2, 0, 1))  # t^2-1 = (t-1)(t+1)
    # default polynomial search finds an irreducible
    assert Field(3, 2).poly[-1] == 1


def test_enumerate_subspaces_counts():
    for field in (Field(2, 1), Field(3, 1), F4):
        for n in range(1, 4):
            for r in range(n + 1):
                got = sum(1 for _ in enumerate_subspaces(n, r, field))
                want = gaussian_binomial(n - r, n).evaluate(field.size)
                assert got == want


def test_enumerate_subspaces_distinct_and_echelon():
    seen = set()
    for W in enumerate_subspaces(3, 1, Field(2, 1)):
        assert W.dim == 2
        seen.add((W.pivots, W.basis))
    assert len(seen) == 7


def test_enumerate_subspaces_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_subspaces(4, 2, Field(5, 1), budget=10))
    assert check_subspace_budget(4, 2, 5, 1, budget=806) == 806
    with pytest.raises(BudgetExceeded):
        check_subspace_budget(4, 2, 5, 1, budget=805)
    assert check_subspace_budget(3, 0, 2, 10**9) == 1  # only the whole fiber
    with pytest.raises(BudgetExceeded):  # decided without forming 2^(10^9)
        check_subspace_budget(2, 1, 2, 10**9)
    with pytest.raises(ValueError):
        check_subspace_budget(2, 3, 2, 1)


def test_field_of_point_skips_a_second_irreducibility_test(monkeypatch):
    x = ClosedPoint(3, 2, (1, 0, 1))  # t^2 + 1, validated here, once
    monkeypatch.setattr(fpoly, "is_irreducible", lambda f, p: pytest.fail("tested again"))
    field = Field.of_point(x)
    assert (field.q, field.d, field.poly, field.size) == (3, 2, (1, 0, 1), 9)
    assert field.mul((0, 1), (0, 1)) == (2,)  # t^2 = -1


def test_subspace_count_prime_power():
    assert subspace_count(1, 2, 4) == 5
    assert subspace_count(2, 4, 3) == gaussian_binomial(2, 4).evaluate(3)
    assert subspace_count(1, 2, 17) == 18
    assert subspace_count(1, 2, 9) == gaussian_binomial(1, 2).evaluate(9)
    for q0 in (12, 6, 1):
        with pytest.raises(ValueError, match="prime power"):
            subspace_count(1, 2, q0)


def test_splitting_type_rational_vs_irrational_lines():
    E = BundleType([0, 0])
    # the line spanned by (1, t) has no F_2-rational point: no constant
    # section lands in it, so the kernel subsheaf is balanced
    W_irr = next(
        W
        for W in enumerate_subspaces(2, 1, F4)
        if W.basis == ((ONE, T),)
    )
    assert splitting_type(E, W_irr, X2) == BundleType([-1, -1])
    # the rational line spanned by (1, 1) keeps a constant section
    W_rat = next(
        W
        for W in enumerate_subspaces(2, 1, F4)
        if W.basis == ((ONE, ONE),)
    )
    assert splitting_type(E, W_rat, X2) == BundleType([-2, 0])


def test_brute_multiplicity_trivial_bundle_census():
    census = brute_multiplicity(BundleType([0, 0]), X2, 1)
    assert census == {
        BundleType([-2, 0]): 3,
        BundleType([-1, -1]): 2,
    }


def test_brute_multiplicity_degree_one_point():
    census = brute_multiplicity(BundleType([0, 0]), X1, 1)
    assert census == {BundleType([-1, 0]): 3}


def test_brute_multiplicity_full_twist():
    # r = n: the only subspace is zero and E' = E(-x)
    census = brute_multiplicity(BundleType([0, 0]), X2, 2)
    assert census == {BundleType([-2, -2]): 1}


def test_splitting_type_unbalanced_bundle():
    census = brute_multiplicity(BundleType([0, 3]), X1, 1)
    # dropping degree on the O(3) side once: O(0)+O(2); on the O side: O(-1)+O(3)
    assert census == {
        BundleType([-1, 3]): 1,
        BundleType([0, 2]): 2,
    }


PHI_1 = [[T, T1], [ONE, T]]
PHI_2 = [[ONE, T1], [T, ONE]]
PHI_3 = [[PI, ()], [(), ONE]]
PHI_4 = [[PI, ONE], [(), ONE]]
PHI_5 = [[PI, ()], [PI, ONE]]


@pytest.mark.parametrize("phi", [PHI_1, PHI_2, PHI_3, PHI_4, PHI_5])
def test_snf_of_explicit_modification_matrices(phi):
    diag, L, R = smith_normal_form(phi, 2)
    assert diag == [ONE, PI]


def test_snf_singular_and_nonsquare():
    with pytest.raises(ValueError):
        smith_normal_form([[T, T], [T, T]], 2)
    with pytest.raises(ValueError):
        smith_normal_form([[T, T, T], [T, T, T]], 2)
    with pytest.raises(ValueError, match="prime q"):
        smith_normal_form([[ONE]], 4)


def test_snf_random_matrices_verify():
    rng = random.Random(20240818)
    for q in (2, 3):
        for _ in range(40):
            n = rng.randint(1, 3)
            M = [
                [tuple(rng.randrange(q) for _ in range(rng.randint(1, 4))) for _ in range(n)]
                for _ in range(n)
            ]
            if not fpoly.det(M, q):
                continue
            diag, L, R = smith_normal_form(M, q)
            for a in diag:
                assert a and a[-1] == 1  # monic
            # L*D*R == M is asserted inside; divisibility chain too


def test_fp_poly_det():
    assert fpoly.det(PHI_1, 2) == PI
    assert fpoly.det([[PI]], 2) == PI
    assert fpoly.det([[T, T], [T, T]], 3) == ()


def test_matrix_rank_over_extension():
    rows = [[ONE, T], [T1, F4.mul(T1, T)]]  # second row = (t+1) * first
    assert matrix_rank(F4, rows) == 1
    assert matrix_rank(F4, [[ONE, ()], [(), ONE]]) == 2
    assert matrix_rank(F4, [[(), ()]]) == 0


def test_brute_aut_order_matches_closed_formula():
    for q in (2, 3):
        for degrees in ([0], [0, 0], [0, 1], [0, 2], [0, 0, 1], [0, 1, 2]):
            E = BundleType(degrees)
            assert brute_aut_order(E, q) == aut_order(E, q), (E, q)


def test_brute_aut_order_examples():
    assert brute_aut_order(BundleType([0, 0]), 2) == 6  # GL_2(F_2)
    assert brute_aut_order(BundleType([0, 1]), 2) == 4  # units^2 * q^2


def test_count_monomorphisms_factor_through_aut():
    E = BundleType([0, 0])
    for E_prime, mult in [
        (BundleType([-1, -1]), 2),
        (BundleType([-2, 0]), 3),
    ]:
        count = count_monomorphisms(E_prime, E, X2)
        assert count == mult * brute_aut_order(E_prime, 2)


def test_count_monomorphisms_degree_one():
    E = BundleType([0, 0])
    count = count_monomorphisms(BundleType([-1, 0]), E, X1)
    assert count == 3 * brute_aut_order(BundleType([-1, 0]), 2)


def test_matrix_budget_counts_every_matrix():
    # End(O^2) over F_2 has 2^4 matrices; Hom(O(-2)+O, O^2) has 2^(3+1+3+1)
    assert brute_aut_order(BundleType([0, 0]), 2, budget=16) == 6
    with pytest.raises(BudgetExceeded):
        brute_aut_order(BundleType([0, 0]), 2, budget=15)
    E_prime, E = BundleType([-2, 0]), BundleType([0, 0])
    assert count_monomorphisms(E_prime, E, X2, budget=256) == 3 * 8  # 3 * #Aut(E')
    with pytest.raises(BudgetExceeded):
        count_monomorphisms(E_prime, E, X2, budget=255)


def test_count_monomorphisms_weight_check():
    with pytest.raises(ValueError):
        count_monomorphisms(BundleType([-1, -1]), BundleType([0, 0]), X1)


def random_modification_matrix(rng, E_prime, E, x, r):
    """Rejection-sample a matrix realizing a weight-r modification.

    Accept iff det = unit * pi^r and the reduction mod pi has rank n-r over
    kappa(x); these two conditions characterize cokernel K_x^r without
    computing a Smith form.
    """
    q, n = x.q, E.rank
    field = Field.of_point(x)
    pi_r = (1,)
    for _ in range(r):
        pi_r = fpoly.mul(pi_r, tuple(x.poly), q)
    for _ in range(4000):
        mat = []
        for di in E.degrees:
            row = []
            for aj in E_prime.degrees:
                bound = di - aj
                if bound < 0:
                    row.append(())
                else:
                    row.append(_strip(tuple(rng.randrange(q) for _ in range(bound + 1))))
            mat.append(row)
        det = fpoly.det(mat, q)
        if not det or len(det) != len(pi_r):
            continue
        lead = det[-1]
        inv = pow(lead, -1, q)
        if tuple(c * inv % q for c in det) != pi_r:
            continue
        red = [[field.reduce(p) for p in row] for row in mat]
        if matrix_rank(field, red) != n - r:
            continue
        return mat
    raise AssertionError("no modification matrix found by sampling")


def _strip(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def test_snf_of_random_modification_matrices():
    rng = random.Random(20240819)
    cases = [
        (BundleType([-1, -1]), BundleType([0, 0]), X2, 1),
        (BundleType([-2, 0]), BundleType([0, 0]), X2, 1),
        (BundleType([-2, -2]), BundleType([0, 0]), X2, 2),
        (BundleType([-1, 0]), BundleType([0, 0]), X1, 1),
        (BundleType([-1, -1, 0]), BundleType([0, 0, 0]), X1, 2),
    ]
    for E_prime, E, x, r in cases:
        for _ in range(3):
            mat = random_modification_matrix(rng, E_prime, E, x, r)
            diag, _, _ = smith_normal_form(mat, x.q)
            want = [(1,)] * (E.rank - r) + [tuple(x.poly)] * r
            assert diag == want, (E_prime, E, r, diag)


def test_splitting_type_scan_reaches_low_degrees():
    # E' = O(-2)^2 from the full twist: the scan must look past k = max d_i
    W_zero = next(enumerate_subspaces(2, 2, F4))
    assert splitting_type(BundleType([0, 0]), W_zero, X2) == BundleType([-2, -2])


def test_splitting_type_rejects_a_subspace_of_another_point():
    W = next(enumerate_subspaces(2, 1, F4))
    with pytest.raises(ValueError, match="another point"):
        splitting_type(BundleType([0, 0]), W, ClosedPoint(3, 2, (1, 0, 1)))
