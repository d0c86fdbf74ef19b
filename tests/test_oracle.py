"""Ground-truth checks: fields, subspace census, splitting types, SNF."""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from heckelab import fpoly, oracle
from heckelab.cli import main
from heckelab.bundles import BundleType, ClosedPoint, aut_order
from heckelab.oracle import (
    BudgetExceeded,
    Field,
    FiberSubspace,
    OracleIntegrityError,
    brute_aut_order,
    brute_multiplicity,
    check_subspace_budget,
    count_monomorphisms,
    enumerate_subspaces,
    matrix_rank,
    smith_normal_form,
    splitting_type,
)
from heckelab.qcalc import gaussian_binomial

X2 = ClosedPoint(2, 2, (1, 1, 1))  # degree-2 point of P^1 over F_2
X1 = ClosedPoint(2, 1, (0, 1))  # the origin t=0 over F_2
F4 = Field(X2)  # F_2[t]/(t^2+t+1)

T = (0, 1)
T1 = (1, 1)
ONE = (1,)
PI = (1, 1, 1)


def first_field(q, d):
    """The residue field of the first degree-d point over F_q."""
    return Field(ClosedPoint(q, d, fpoly.first_irreducible(q, d)))


def has_inverse(field, a):
    return any(field.mul(a, b) == field.one for b in field.elements())


def test_field_f4_arithmetic():
    # t * (t+1) = t^2 + t = 1 modulo t^2+t+1
    assert F4.mul(T, T1) == ONE
    assert fpoly.sub((), T, 2) == T  # -1 = 1 in char 2
    elems = list(F4.elements())
    assert len(elems) == 4 and len(set(elems)) == 4
    assert all(has_inverse(F4, a) for a in elems if a)


def test_field_f9_arithmetic():
    f9 = Field(ClosedPoint(3, 2, (1, 0, 1)))  # t^2 = -1
    assert f9.mul(T, T) == (2,)
    assert all(has_inverse(f9, a) for a in f9.elements() if a)
    assert f9.reduce((0, 0, 0, 1)) == f9.mul(f9.mul(T, T), T)


@pytest.mark.parametrize("q, d", [(2, 1), (2, 3), (2, 4), (3, 2), (5, 2), (13, 1)])
def test_times_t_is_the_field_product_by_t(q, d):
    """The t^m*e table, filled by m steps of t times the entry before, is
    the field product by t^m: entry (m, e) is an int with coordinate c in
    bit c at q = 2, a list of d ints otherwise."""
    field = first_field(q, d)
    for e in field.elements():
        for m in range(d):
            coords = list(field.expand(field.mul((0,) * m + (1,), e)))
            want = sum(c << i for i, c in enumerate(coords)) if q == 2 else coords
            assert field._t_powers[m, e] == want, (m, e)
    assert len(field._t_powers) == d * field.size


def test_field_validation():
    # ClosedPoint validates (q, d, poly); a field needs the explicit poly
    for x in (ClosedPoint(4, 1), ClosedPoint(3, 2)):
        with pytest.raises(ValueError, match="^point has no explicit polynomial$"):
            Field(x)


def test_enumerate_subspaces_counts():
    for field in (Field(X1), first_field(3, 1), F4):
        for n in range(1, 4):
            for r in range(n + 1):
                got = sum(1 for _ in enumerate_subspaces(n, r, field))
                want = gaussian_binomial(n - r, n).evaluate(field.size)
                assert got == want


def test_enumerate_subspaces_distinct_and_echelon():
    seen = set()
    for W in enumerate_subspaces(3, 1, Field(X1)):
        assert W.dim == 2
        seen.add((W.pivots, W.basis))
    assert len(seen) == 7


def test_enumerate_subspaces_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_subspaces(4, 2, first_field(5, 1), budget=10))
    assert check_subspace_budget(4, 2, 5, 1, budget=806) == 806
    with pytest.raises(BudgetExceeded):
        check_subspace_budget(4, 2, 5, 1, budget=805)
    assert check_subspace_budget(3, 0, 2, 10**9) == 1  # only the whole fiber
    assert check_subspace_budget(3, 3, 2, 10**9) == 1  # only the zero subspace
    with pytest.raises(BudgetExceeded):  # decided without forming 2^(10^9)
        check_subspace_budget(2, 1, 2, 10**9)
    with pytest.raises(ValueError):
        check_subspace_budget(2, 3, 2, 1)


def test_whole_fiber_and_zero_subspace_never_list_the_field(monkeypatch):
    # no cell has a free entry at r = 0 or r = n, so the 2^24 elements of
    # F_{2^24} are never listed
    field = first_field(2, 24)
    monkeypatch.setattr(field, "elements", lambda: pytest.fail("listed the field"))
    start = time.perf_counter()
    (whole,) = enumerate_subspaces(3, 0, field)
    (zero,) = enumerate_subspaces(3, 3, field)
    assert time.perf_counter() - start < 1.0
    assert whole.basis == ((ONE, (), ()), ((), ONE, ()), ((), (), ONE)) and whole.pivots == (0, 1, 2)
    assert zero.basis == () and zero.pivots == ()


@pytest.mark.parametrize("budget", [0, -1, -5])
def test_a_budget_below_one_is_refused(budget, monkeypatch):
    E = BundleType((0, 1))
    calls = [
        lambda: check_subspace_budget(2, 1, 2, 1, budget=budget),
        lambda: list(enumerate_subspaces(2, 1, Field(X1), budget=budget)),
        lambda: brute_multiplicity(E, X1, 1, budget=budget),
        lambda: brute_aut_order(E, 2, budget=budget),
        lambda: count_monomorphisms(BundleType((-1, 1)), E, X1, budget=budget),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^budget must be at least 1, got {budget}$"):
            call()
    monkeypatch.setenv("HECKELAB_BUDGET", str(budget))
    for call in (lambda: check_subspace_budget(2, 1, 2, 1), lambda: brute_aut_order(E, 2)):
        with pytest.raises(ValueError, match=f"^HECKELAB_BUDGET must be at least 1, got {budget}$"):
            call()


def test_field_of_point_skips_a_second_irreducibility_test(monkeypatch):
    x = ClosedPoint(3, 2, (1, 0, 1))  # t^2 + 1, validated here, once
    monkeypatch.setattr(fpoly, "is_irreducible", lambda f, p: pytest.fail("tested again"))
    field = Field(x)
    assert (field.q, field.d, field.poly, field.size) == (3, 2, (1, 0, 1), 9)
    assert field.mul((0, 1), (0, 1)) == (2,)  # t^2 = -1


def test_subspace_count_prime_power():
    # #Gr(k, n)(F_q0) by enumeration over F_p[t]/(first irreducible of degree e)
    for k, n, q0, count in (
        (1, 2, 4, 5),
        (2, 4, 3, gaussian_binomial(2, 4).evaluate(3)),
        (1, 2, 17, 18),
        (1, 2, 9, gaussian_binomial(1, 2).evaluate(9)),
    ):
        p, e = fpoly.prime_power(q0)
        field = Field(ClosedPoint(p, e, fpoly.first_irreducible(p, e)))
        assert sum(1 for _ in enumerate_subspaces(n, n - k, field)) == count


def test_splitting_type_rational_vs_irrational_lines():
    E = BundleType([0, 0])
    # the line spanned by (1, t) has no F_2-rational point: no constant
    # section lands in it, so the kernel subsheaf is balanced
    W_irr = next(
        W
        for W in enumerate_subspaces(2, 1, F4)
        if W.basis == ((ONE, T),)
    )
    assert splitting_type(E, W_irr) == BundleType([-1, -1])
    # the rational line spanned by (1, 1) keeps a constant section
    W_rat = next(
        W
        for W in enumerate_subspaces(2, 1, F4)
        if W.basis == ((ONE, ONE),)
    )
    assert splitting_type(E, W_rat) == BundleType([-2, 0])


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


def test_snf_refuses_an_empty_matrix():
    with pytest.raises(ValueError, match="^matrix must not be empty$"):
        smith_normal_form([], 2)


def test_snf_singular_and_nonsquare():
    with pytest.raises(ValueError):
        smith_normal_form([[T, T], [T, T]], 2)
    with pytest.raises(ValueError):
        smith_normal_form([[T, T, T], [T, T, T]], 2)
    with pytest.raises(ValueError, match="prime q"):
        smith_normal_form([[ONE]], 4)


@pytest.mark.parametrize(
    "M, q",
    [([[(2.5,)]], 3), ([[(1.9,), (0,)], [(0,), (True, 1)]], 2), ([[(Fraction(1),)]], 2)],
    ids=repr,
)
def test_snf_refuses_coefficients_that_are_not_ints(M, q):
    """No int() conversion: (2.5,) over F_3 used to give diag [(1,)]."""
    with pytest.raises(TypeError, match="must be ints"):
        smith_normal_form(M, q)


def test_snf_refuses_a_q_that_is_not_an_int():
    """q = 2.0 used to pass the primality test and give diag [(1.0,)]."""
    for _ in range(2):  # before and after the int answer
        for q in (2.0, True):
            with pytest.raises(TypeError, match="needs an int"):
                smith_normal_form([[(1,)]], q)
        assert smith_normal_form([[(1,)]], 2)[0] == [(1,)]


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
    field = Field(x)
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


def schoolbook_mat_mul(A, B, q):
    """Reference A*B over F_q[t]: every entry a sum of schoolbook products."""

    def entry(row, j):
        acc = [0] * (max(map(len, row)) + max(len(b_row[j]) for b_row in B))
        for a, b_row in zip(row, B):
            for i, ca in enumerate(a):
                for k, cb in enumerate(b_row[j]):
                    acc[i + k] += ca * cb
        return _strip(c % q for c in acc)

    return [[entry(row, j) for j in range(len(B[0]))] for row in A]


def unit_times_diag_times_unit(rng, n, q, e, k):
    """(U * diag(1, .., 1, pi, .., pi) * V, the diagonal): k copies of a
    seeded monic irreducible pi of degree e; U and V row-permuted products
    of unitriangular matrices with entries of degree <= 1, as the oracle
    benchmark builds its SNF ops, so the entries have degree <= 4 + e."""

    def unimodular():
        def entry():
            return _strip(rng.randrange(q) for _ in range(2))

        lower = [[ONE if i == j else entry() if j < i else () for j in range(n)] for i in range(n)]
        upper = [[ONE if i == j else entry() if j > i else () for j in range(n)] for i in range(n)]
        M = schoolbook_mat_mul(lower, upper, q)
        rng.shuffle(M)
        return M

    pi = ()
    while not fpoly.is_irreducible(pi, q):
        pi = tuple(rng.randrange(q) for _ in range(e)) + (1,)
    diag = [ONE] * (n - k) + [pi] * k
    D = [[diag[i] if i == j else () for j in range(n)] for i in range(n)]
    return schoolbook_mat_mul(schoolbook_mat_mul(unimodular(), D, q), unimodular(), q), diag


#: test_fpoly.PACKING_PRIMES: 1-byte slots at 2 and 3, 2-byte at 5 and 13,
#: 4-byte at 251, 8-byte at 65537, and no slot, so addmul, at 4294967311
PACKING_PRIMES = [2, 3, 5, 13, 251, 65537, 4294967311]


@pytest.mark.parametrize("q", PACKING_PRIMES)
def test_mat_mul_matches_the_schoolbook_product(q):
    """Packed for q < 2^32; at q = 4294967311 no slot is wide enough, and
    the product and the SNF's check go entry by entry."""
    rng = random.Random(f"matmul:{q}")

    def poly(length, low=0, high=q):
        return tuple(rng.randrange(low, high) for _ in range(length))

    def matrix(rows, cols, **bounds):
        return [[poly(rng.randint(0, 9), **bounds) for _ in range(cols)] for _ in range(rows)]

    for n, e in ((1, 1), (2, 3), (4, 2), (6, 2)):
        M, diag = unit_times_diag_times_unit(rng, n, q, e, rng.randint(0, n))
        N = [[_strip(poly(rng.randint(0, 9))) for _ in range(n)] for _ in range(n)]
        assert fpoly.mat_mul(M, N, q) == schoolbook_mat_mul(M, N, q)
        zero = [[()] * n for _ in range(n)]
        assert fpoly.mat_mul(zero, N, q) == fpoly.mat_mul(M, zero, q) == zero
        diag_out, L, R = smith_normal_form(M, q)
        assert diag_out == diag
    for rows, inner, cols in ((1, 1, 1), (2, 3, 4)):
        A, B = matrix(rows, inner), matrix(inner, cols)
        assert fpoly.mat_mul(A, B, q) == schoolbook_mat_mul(A, B, q)
    # every coefficient q - 1: the middle slots receive the most they can
    full = [[(q - 1,) * 7] * 6] * 6
    assert fpoly.mat_mul(full, full, q) == schoolbook_mat_mul(full, full, q)
    # entries are taken mod p: unreduced and negative coefficients, which
    # would carry into the next slot or not fit one if packed as they are
    A, B = matrix(3, 3, low=-3 * q, high=3 * q), matrix(3, 3, low=-3 * q, high=3 * q)
    assert fpoly.mat_mul(A, B, q) == schoolbook_mat_mul(A, B, q)
    assert fpoly.mat_mul([[(-1,)]], [[(-1, -1)]], q) == [[(1, 1)]]
    square = [[(255, 255)]]
    assert fpoly.mat_mul(square, square, q) == schoolbook_mat_mul(square, square, q)
    if q == 2:
        assert fpoly.mat_mul(square, square, q) == [[(1, 0, 1)]]


def snf_batch():
    """A fixed, seeded batch of SNF inputs: n = 4-6, q = 2, 3, 5, deg pi = 1, 2."""
    rng = random.Random(20261019)
    return [
        (q,) + unit_times_diag_times_unit(rng, n, q, e, rng.randint(1, n - 1))
        for n in (4, 5, 6)
        for q in (2, 3, 5)
        for e in (1, 2)
    ]


def counting(monkeypatch, names, weigh):
    """Wrap the fpoly functions named; returns [calls, sum of weigh(args)]."""
    totals = [0, 0]
    for name in names:

        def count(*args, _call=getattr(fpoly, name)):
            totals[0] += 1
            totals[1] += weigh(*args)
            return _call(*args)

        monkeypatch.setattr(fpoly, name, count)
    return totals


def test_snf_batch_takes_the_packed_products(monkeypatch):
    """The L*D*R check packs every entry once.  On this batch the products
    in byte form, fpoly.addmul_bytes, and in tuple form, fpoly.addmul,
    run 6,606 times with 87,840 coefficient products, 462 and 3,424 of
    them the check's in tuple form.  With the check's packing switched
    off they run 8,395 times with 263,022: each bound below fails that."""
    batch = snf_batch()
    products = counting(monkeypatch, ("addmul_bytes", "addmul"), lambda c, a, b, p: len(a) * len(b))
    for q, M, diag in batch:
        assert smith_normal_form(M, q)[0] == diag
    assert products[0] < 7000 and products[1] < 95000, products


def test_snf_batch_skips_the_divisibility_scan_at_unit_pivots(monkeypatch):
    """A unit pivot divides the whole trailing submatrix, so the scan for a
    stray entry runs only after a pivot of positive degree: on this batch
    the divisions in byte form, fpoly.div_bytes, and in tuple form,
    fpoly.div, run 1,087 times, 789 of them by a non-constant.  With the
    scan at every pivot they run 1,600 times."""
    batch = snf_batch()
    divisions = counting(monkeypatch, ("div_bytes", "div"), lambda a, b, p: len(b) > 1)
    for q, M, diag in batch:
        assert smith_normal_form(M, q)[0] == diag
    assert divisions[0] < 1200, divisions


def test_snf_refuses_a_remainder_as_long_as_its_pivot(monkeypatch):
    """A division whose quotient is one term short leaves a remainder as
    long as its pivot, so the Euclidean loop would never lower the pivot's
    degree; the SNF raises on the first such remainder instead."""
    div_bytes = fpoly.div_bytes

    def one_term_short(a, b, p):
        quo = div_bytes(a, b, p)[0][1:]
        quo = bytes(1) + quo if quo else quo
        return quo, fpoly.addmul_bytes(a, fpoly.scale_bytes(quo, p - 1, p), b, p)

    monkeypatch.setattr(fpoly, "div_bytes", one_term_short)
    for q, M, _ in snf_batch():
        with pytest.raises(OracleIntegrityError, match="remainder"):
            smith_normal_form(M, q)


def chunk_length(q):
    """The most coefficients of a shorter factor that the byte form
    multiplies in one int product: (255 - (q - 1)) // (q - 1)^2."""
    return (255 - (q - 1)) // (q - 1) ** 2


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 251])
def test_snf_equals_the_tuple_elimination(q, monkeypatch):
    """diag, L and R equal those of the same elimination run on tuples,
    fpoly.byte_form forced off, on either side of the choice it makes
    from q, and on entries long enough that the byte form takes a product
    in chunks at every q <= 13."""
    rng = random.Random(f"snf-forms:{q}")
    cases = [
        unit_times_diag_times_unit(rng, n, q, e, rng.randint(0, n))[0]
        for n in (2, 4, 6)
        for e in (1, 2)
    ]

    def poly(k):
        return tuple(rng.randrange(q) for _ in range(k - 1)) + (rng.randrange(1, q),)

    # rejection-sampled: random entries, singular matrices rejected
    while len(cases) < 10:
        M = [[_strip(poly(rng.randint(1, 4))) for _ in range(3)] for _ in range(3)]
        if fpoly.det(M, q):
            cases.append(M)
    # a short corner a dividing its row and its column, by quotients f and g
    # past the chunk length: (a, a*g; a*f, c)
    long = chunk_length(q) + 3 if q <= 13 else 20
    while len(cases) < 12:
        a, f, g, c = poly(2), poly(long), poly(long), poly(long)
        M = [[a, fpoly.mul(a, g, q)], [fpoly.mul(a, f, q), c]]
        if fpoly.det(M, q):
            cases.append(M)
    byte_form = fpoly.byte_form
    monkeypatch.setattr(fpoly, "byte_form", lambda p: False)
    tuples = [smith_normal_form(M, q) for M in cases]
    monkeypatch.setattr(fpoly, "byte_form", byte_form)
    shorter = []
    addmul_bytes = fpoly.addmul_bytes

    def spy(c, a, b, p):
        shorter.append(min(len(a), len(b)))
        return addmul_bytes(c, a, b, p)

    monkeypatch.setattr(fpoly, "addmul_bytes", spy)
    for M, expected in zip(cases, tuples):
        assert smith_normal_form(M, q) == expected, M
    assert fpoly.byte_form(q) == (q <= 13)
    if q <= 13:
        assert max(shorter) > chunk_length(q)
    else:
        assert shorter == []


def test_splitting_type_scan_reaches_low_degrees():
    # E' = O(-2)^2 from the full twist: the scan must look past k = max d_i
    W_zero = next(enumerate_subspaces(2, 2, F4))
    assert splitting_type(BundleType([0, 0]), W_zero) == BundleType([-2, -2])


# --- the from-scratch scan, kept as the reference for splitting_type --------


def reference_residual(W: FiberSubspace, v):
    """Reduce v by W's basis; the non-pivot coordinates of what is left."""
    f = W.field
    v = list(v)
    for row, p in zip(W.basis, W.pivots):
        c = v[p]
        if c:
            v = [fpoly.sub(a, f.mul(c, b), f.q) for a, b in zip(v, row)]
    return tuple(v[j] for j in range(len(v)) if j not in W.pivots)


def reference_splitting_type(E, W, x, powers):
    """The kernel type from h^0(E'(k)) = dim {s in H^0(E(k)) : s(x) in W}
    at every twist k of the scan, with no drop profile.

    h^0(E'(k)) is the number of section rows t^j e_i, j <= d_i + k, whose
    residuals mod W in F_q coordinates are dependent.  The row sets grow
    with k, so one echelon takes each twist's new rows, and its size is the
    rank from scratch over every row so far.  powers maps j to t^j mod pi,
    shared by every scan over one field.
    """
    field = W.field
    lo = -(max(E.degrees) + x.d + 1)  # no component has a section yet
    hi = max(max(E.degrees), x.d - min(E.degrees))
    echelon = {}
    sections = 0
    degrees = []
    prev = prev_c = 0
    for k in range(lo + 1, hi + 1):
        for i, j in enumerate(di + k for di in E.degrees):
            if j < 0:
                continue
            if j not in powers:
                powers[j] = field.reduce((0,) * j + (1,))
            v = [field.zero] * E.rank
            v[i] = powers[j]
            fpoly.insert_row(
                echelon, [c for e in reference_residual(W, v) for c in field.expand(e)], field.q
            )
            sections += 1
        cur = sections - len(echelon)
        c = cur - prev
        degrees += [-k] * (c - prev_c)
        prev, prev_c = cur, c
    return BundleType(degrees)


def seeded_grid(seed=20261018, cap=500, draws=4, qs=(2, 3, 5, 7)):
    """(E, x, r) with q in qs, d <= 4, ranks 1..4, gaps 0..d+1 and every r
    in 0..n, keeping the cases with at most cap subspaces."""
    rng = random.Random(seed)
    for q in qs:
        for d in range(1, 5):
            x = ClosedPoint(q, d, fpoly.first_irreducible(q, d))
            for n in range(1, 5):
                for _ in range(draws):
                    degrees = [rng.randint(-1, 1)]
                    for _ in range(n - 1):
                        degrees.append(degrees[-1] + rng.randint(0, d + 1))
                    E = BundleType(degrees)
                    for r in range(n + 1):
                        if gaussian_binomial(n - r, n).evaluate(q**d) <= cap:
                            yield E, x, r


def test_splitting_type_matches_the_from_scratch_scan():
    seen, ranks, powers = 0, set(), {}
    for E, x, r in seeded_grid():
        for W in enumerate_subspaces(E.rank, r, Field(x)):
            want = reference_splitting_type(E, W, x, powers.setdefault(x, {}))
            assert splitting_type(E, W) == want, (E, x, W.basis)
            seen += 1
        ranks.add((E.rank, r))
    assert seen >= 15000
    assert ranks == {(n, r) for n in range(1, 5) for r in range(n + 1)}


def test_census_by_profile_matches_the_per_subspace_tally():
    """brute_multiplicity runs splitting_type once per drop profile; every
    subspace on its own must give the same census."""
    for E, x, r in seeded_grid():
        tally = {}
        for W in enumerate_subspaces(E.rank, r, Field(x)):
            t = splitting_type(E, W)
            tally[t] = tally.get(t, 0) + 1
        assert brute_multiplicity(E, x, r) == tally, (E, x, r)


def test_census_matches_the_per_subspace_tally_at_the_larger_primes():
    """q = 11 and 13, which the oracle workload draws and seeded_grid's
    default leaves out: a pivot row then has 11 or 13 values per free
    entry, and the walk counts whole fans of them at once."""
    proper = set()  # the strata with 0 < r < n, where a pivot row has free entries
    for E, x, r in seeded_grid(seed=20261020, cap=1500, draws=3, qs=(11, 13)):
        tally = {}
        for W in enumerate_subspaces(E.rank, r, Field(x)):
            t = splitting_type(E, W)
            tally[t] = tally.get(t, 0) + 1
        assert brute_multiplicity(E, x, r) == tally, (E, x, r)
        if 0 < r < E.rank:
            proper.add((x.q, x.d, E.rank, r))
    assert {(11, 1, 4, 1), (11, 1, 4, 3), (11, 3, 2, 1), (13, 2, 2, 1)} <= proper
    assert len(proper) == 11, sorted(proper)


def test_a_scan_inserts_at_most_n_times_d_rows(monkeypatch):
    """A section row t^m e_i with m >= d is never independent, so the scan
    builds and eliminates at most d rows per component, in either row
    format: bit masks at q = 2, int lists at odd q."""
    inserted = []
    real_row, real_mask = fpoly.insert_row, fpoly.insert_mask

    def insert_row(echelon, row, p):
        inserted.append(row)
        return real_row(echelon, row, p)

    def insert_mask(echelon, row):
        inserted.append(row)
        return real_mask(echelon, row)

    monkeypatch.setattr(fpoly, "insert_row", insert_row)
    monkeypatch.setattr(fpoly, "insert_mask", insert_mask)
    worst = {True: 0, False: 0}  # q == 2 -> most rows past the quotient's dimension
    for E, x, r in seeded_grid():
        for W in enumerate_subspaces(E.rank, r, Field(x)):
            inserted.clear()
            splitting_type(E, W)
            assert len(inserted) <= E.rank * x.d, (E, x, W.basis, len(inserted))
            extra = len(inserted) - (E.rank - W.dim) * x.d
            worst[x.q == 2] = max(worst[x.q == 2], extra)
    # some scans do meet dependent rows before the echelon fills, on both sides
    assert worst[True] > 0 and worst[False] > 0, worst


def counting_fills(monkeypatch):
    """Patch the t^m*e table to record the key of every entry it fills."""
    filled = []
    real = oracle._TPowers.__missing__

    def __missing__(table, key):
        filled.append(key)
        return real(table, key)

    monkeypatch.setattr(oracle._TPowers, "__missing__", __missing__)
    return filled


def test_a_lone_splitting_type_fills_only_what_its_scan_reads(monkeypatch):
    """At q = 2, d = 24 the field has 2^24 elements: a table built whole
    would not fit in the time, and a scan reads one entry per power of
    each of W's entries in free columns."""
    x = ClosedPoint(2, 24, fpoly.first_irreducible(2, 24))
    field = Field(x)
    filled = counting_fills(monkeypatch)
    E = BundleType([0, 1, 3])
    a, b = (1, 0, 1, 1) + (0,) * 19 + (1,), (0, 1)
    W = FiberSubspace(field, ((ONE, (), a), ((), ONE, b)), (0, 1))
    start = time.perf_counter()
    got = splitting_type(E, W)
    elapsed = time.perf_counter() - start
    assert got == reference_splitting_type(E, W, x, {})
    assert len(filled) == len(set(filled)) <= E.rank * x.d
    assert elapsed < 0.5, elapsed


def test_a_census_fills_each_table_entry_once(monkeypatch):
    filled = counting_fills(monkeypatch)
    cases = [
        (BundleType([0, 1, 1]), ClosedPoint(2, 4, (1, 0, 0, 1, 1)), 2),
        (BundleType([0, 0, 1, 2]), X2, 2),
        (BundleType([0, 1, 1]), ClosedPoint(3, 2, (1, 0, 1)), 2),
        (BundleType([0, 0, 1, 1]), ClosedPoint(7, 1, (0, 1)), 3),
    ]
    for E, x, r in cases:
        filled.clear()
        census = brute_multiplicity(E, x, r)
        assert sum(census.values()) == gaussian_binomial(E.rank - r, E.rank).evaluate(x.q**x.d)
        assert len(filled) == len(set(filled)) <= x.d * x.q**x.d, (E, x, r)
        assert filled  # the census did read the table


#: (E, q, d, r) -> the most fpoly.insert_row and insert_mask calls its
#: census may make, splitting_type's scans included.  Scanning every
#: subspace on its own made 1,265 / 472 / 336 / 1,913 / 2,597 calls; the
#: walk makes 436 / 22 / 62 / 601 / 2,083.
CENSUS_INSERTS = {
    ((0, 0, 1, 1), 7, 1, 3): 450,
    ((0, 0, 1, 1), 7, 1, 1): 30,
    ((0, 1, 1, 2), 3, 1, 2): 70,
    ((0, 0, 1, 2), 2, 2, 2): 620,
    ((0, 1, 1), 2, 4, 2): 2150,
}


def test_a_census_scans_each_cell_once_and_skips_unread_rows(monkeypatch):
    """The walk scans the steps before a pivot row's first read once for
    all of the row's values, and counts the rows a scan never reaches
    without enumerating them; every bound below fails when each subspace
    is scanned on its own."""
    calls = [0]
    real_row, real_mask = fpoly.insert_row, fpoly.insert_mask

    def insert_row(echelon, row, p):
        calls[0] += 1
        return real_row(echelon, row, p)

    def insert_mask(echelon, row):
        calls[0] += 1
        return real_mask(echelon, row)

    monkeypatch.setattr(fpoly, "insert_row", insert_row)
    monkeypatch.setattr(fpoly, "insert_mask", insert_mask)
    for (degrees, q, d, r), bound in CENSUS_INSERTS.items():
        calls[0] = 0
        n, x = len(degrees), ClosedPoint(q, d, fpoly.first_irreducible(q, d))
        census = brute_multiplicity(BundleType(degrees), x, r)
        assert sum(census.values()) == gaussian_binomial(n - r, n).evaluate(q**d)
        assert 0 < calls[0] <= bound, (degrees, q, d, r, calls[0])


def dropping_one_value(real):
    """A census walk that leaves out the first value of each pivot row it
    reads, as a broken branch would."""

    def _row_values(elements, f):
        values = real(elements, f)
        next(values, None)
        return values

    return _row_values


def dropping_the_top_degree(real):
    """A BundleType that loses its last degree, as a broken scan would."""
    return lambda degrees: real(list(degrees)[:-1])


def corrupting_products(real):
    """A mat_mul whose product has its first entry shifted by one."""

    def product(A, B, p):
        out = real(A, B, p)
        out[0][0] = fpoly.add(out[0][0], (1,), p)
        return out

    return product


@pytest.mark.parametrize(
    "module, name, corrupt, command, detail",
    [
        pytest.param(
            oracle,
            "_row_values",
            dropping_one_value,
            "oracle census --bundle 0,0 --q 2 --point 1,1,1 --weight 1",
            "census mass 4 != #Gr = 5",
            id="census-mass",
        ),
        pytest.param(
            oracle,
            "BundleType",
            dropping_the_top_degree,
            "oracle census --bundle 0,0 --q 2 --point 1,1,1 --weight 1",
            "has rank 1 and degree",
            id="splitting-type-shape",
        ),
        pytest.param(
            fpoly,
            "mat_mul",
            corrupting_products,
            "oracle snf --matrix 0,1|1,1;1|0,1 --q 2",
            "L*D*R == M failed",
            id="snf-product",
        ),
    ],
)
def test_broken_oracle_answer_exits_3(monkeypatch, capsys, module, name, corrupt, command, detail):
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    assert main(command.split()) == 3
    out, err = capsys.readouterr()
    doc = json.loads(err)
    assert out == "" and doc["error"] == "OracleIntegrityError" and detail in doc["detail"]


def test_census_mass_check_survives_optimized_python():
    # with one value of the one read pivot row dropped the census still
    # looks plausible, total 4 where #Gr(1, 2)(F_4) = 5; under -O an assert
    # would not run
    script = (
        "import sys\n"
        "from heckelab import oracle\n"
        "from heckelab.cli import main\n"
        "real = oracle._row_values\n"
        "def _row_values(elements, f):\n"
        "    values = real(elements, f)\n"
        "    next(values, None)\n"
        "    return values\n"
        "oracle._row_values = _row_values\n"
        "sys.exit(main('oracle census --bundle 0,0 --q 2 --point 1,1,1 --weight 1'.split()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 3, out.stdout + out.stderr
    assert "total" not in out.stdout
    doc = json.loads(out.stderr)
    assert doc["error"] == "OracleIntegrityError" and "census mass 4" in doc["detail"]
