"""Tests for the automorphic-forms layer: eigenforms, cusp defects, toroidal sums."""

import heapq
import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from heckelab import forms
from heckelab.bundles import (
    BundleType,
    ClosedPoint,
    ProjBundleClass,
    aut_order,
    ext1_dim,
    hom_dim,
    proj_class,
    q_factor,
)
from heckelab.cli import main
from heckelab.forms import (
    EigenQuery,
    FormVector,
    TheoremViolation,
    TruncatedPBun,
    _eigen_system,
    _kernel_of,
    cusp_defect,
    eigenform_solve,
    eigenvalue_of_balanced_relation,
    extension_middle_distribution,
    hecke_matrix,
    toroidal_sum,
)
from heckelab.hall import HallElement, HallIntegrityError, word_product
from heckelab.qcalc import Q, ONE, gaussian_binomial

X1 = ClosedPoint(2, 1, (0, 1))  # the point t = 0 over F_2
X1_Q3 = ClosedPoint(3, 1, (0, 1))
X1_Q4 = ClosedPoint(4, 1)  # forms only evaluate at q, so q need not be prime


def B(*degrees):
    return BundleType(degrees)


def cl(*degrees):
    return proj_class(B(*degrees))


def clear_form_caches():
    forms._hecke_operators.cache_clear()
    forms._cusp_middles.cache_clear()


def test_truncation_shape():
    sp = TruncatedPBun(2, 4)
    assert [c.degrees.degrees for c in sp.classes] == [(0, k) for k in range(5)]
    assert [c.degrees.degrees for c in sp.padded] == [(0, k) for k in range(6)]
    assert sp.base_class == cl(0, 0)
    assert cl(0, 5) in sp and cl(0, 4) in sp
    assert sp.index[cl(0, 3)] == 3
    sp3 = TruncatedPBun(3, 2)
    # classes 0 <= d2 <= d3 <= 2: six of them
    assert len(sp3.classes) == 6 and len(sp3.padded) == 10
    with pytest.raises(ValueError):
        TruncatedPBun(0, 3)


def test_hecke_matrix_rank2_rows():
    sp = TruncatedPBun(2, 3)
    M = hecke_matrix(sp, 1)
    assert M[cl(0, 0)] == {cl(0, 1): Q + ONE}
    for k in range(1, 4):
        assert M[cl(0, k)] == {cl(0, k + 1): ONE, cl(0, k - 1): Q}


def test_hecke_matrix_rank3_base_row():
    sp = TruncatedPBun(3, 2)
    M1 = hecke_matrix(sp, 1)
    assert M1[cl(0, 0, 0)] == {cl(0, 1, 1): Q * Q + Q + ONE}
    M2 = hecke_matrix(sp, 2)
    assert M2[cl(0, 0, 0)] == {cl(0, 0, 1): Q * Q + Q + ONE}


def test_hecke_matrix_refuses_a_neighbor_outside_the_padded_set(monkeypatch):
    monkeypatch.setattr(forms, "neighbors", lambda E, d, r: {B(0, 9): ONE})
    with pytest.raises(TheoremViolation, match="leaves the padded truncation"):
        hecke_matrix(TruncatedPBun(2, 2), 1)


def test_hecke_matrix_weight_bounds():
    sp = TruncatedPBun(2, 2)
    with pytest.raises(ValueError):
        hecke_matrix(sp, 0)
    with pytest.raises(ValueError):
        hecke_matrix(sp, 2)


def int_rows(rows, scale=1):
    """Fresh {column: nonzero int} rows, as _kernel_of takes them: each
    row times scale and the lcm of its denominators, zeros dropped."""
    out = []
    for row in rows:
        den = scale * lcm(*(Fraction(v).denominator for v in row.values()))
        out.append({j: int(v * den) for j, v in row.items() if v})
    return out


def test_kernel_of_simple_matrices():
    one = Fraction(1)
    assert _kernel_of(int_rows([{0: one}, {1: one}]), 2, range(2)) == []
    # x + y = 0 pivots on y, so the kernel vector is 1 at x: (1, -1)
    assert _kernel_of(int_rows([{0: one, 1: one}]), 2, range(2)) == [([1, -1], 1)]
    # 2x = 3y over Z: the kernel vector (1, 2/3) comes over denominator 3
    assert _kernel_of([{0: 2, 1: -3}], 2, range(2)) == [([3, 2], 3)]
    # zero matrix: full kernel
    assert len(_kernel_of(int_rows([{0: Fraction(0), 1: Fraction(0)}]), 2, range(2))) == 2


def test_kernel_of_refuses_a_fraction_entry():
    with pytest.raises(TypeError):
        _kernel_of([{0: Fraction(1, 2), 1: 1}], 2, range(2))
    with pytest.raises(TypeError):
        _kernel_of([{1: 2}, {0: 1, 1: Fraction(1, 3)}], 2, range(2))


def fraction_kernel_of(rows, ncols, order):
    """Reference: the elimination over Q that _kernel_of replaced.

    The same sparse loop, heap order and pivot choice, with each pivot row
    scaled to pivot 1 in Fractions; returns Fraction vectors.
    """
    pivot_rows = []  # (pivot column, row scaled so that row[column] == 1)
    found = {}  # pivot column -> index into pivot_rows
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        pending = [found[c] for c in row if c in found]
        heapq.heapify(pending)
        while pending:
            col, prow = pivot_rows[heapq.heappop(pending)]
            c = row.get(col)
            if c is None:
                continue
            for j, v in prow.items():
                w = row.get(j)
                if w is None:
                    row[j] = -c * v
                    if j in found:
                        heapq.heappush(pending, found[j])
                elif w == c * v:
                    del row[j]
                else:
                    row[j] = w - c * v
        if not row:
            continue
        col = max(row, key=order.__getitem__)
        inv = Fraction(1) / row[col]
        found[col] = len(pivot_rows)
        pivot_rows.append((col, {j: v * inv for j, v in row.items()}))
    basis = []
    for fc in range(ncols):
        if fc in found:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for col, prow in reversed(pivot_rows):
            v[col] = -sum((a * v[j] for j, a in prow.items() if j != col), Fraction(0))
        basis.append(v)
    return basis


def as_fractions(basis):
    """_kernel_of's (nums, den) vectors as Fraction lists."""
    return [[Fraction(a, den) for a in nums] for nums, den in basis]


def reference_kernel_of(rows, ncols, order):
    """fraction_kernel_of in _kernel_of's (nums, den) form, to patch in."""
    out = []
    for v in fraction_kernel_of(rows, ncols, order):
        den = lcm(*(x.denominator for x in v))
        out.append(([x.numerator * (den // x.denominator) for x in v], den))
    return out


def dense_kernel(rows, ncols):
    """Reference: kernel basis of a dense Fraction matrix by Gauss-Jordan."""
    mat = [row[:] for row in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1, 1) / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row_i, pc in enumerate(pivots):
            v[pc] = -mat[row_i][fc]
        basis.append(v)
    return basis


def dense_rank(rows, ncols):
    return ncols - len(dense_kernel(rows, ncols))


def random_deficient_matrix(rng, nrows, ncols, rank):
    """nrows x ncols Fraction matrix of rank <= rank, often sparse, with a
    zero row and a duplicated row mixed in."""

    def entry():
        if rng.random() < 0.5:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    basis = [[entry() for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        coeffs = [Fraction(rng.randint(-3, 3)) * (rng.random() < 0.6) for _ in basis]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0)) for j in range(ncols)])
    rows.append([Fraction(0)] * ncols)
    rows.append(list(rows[rng.randrange(len(rows))]))
    rng.shuffle(rows)
    return rows


def random_sparse_matrix(rng, ncols, nullity):
    """Sparse {column: Fraction} rows over ncols columns with exactly the
    given nullity.  The independent rows are in echelon form over a
    shuffled column order, each with a nonzero leading entry, negative or
    non-unit as often as not, and up to three entries further on.  Rows
    that are sums of multiples of one or two of them, a zero row and a
    duplicated row are mixed in."""
    cols = list(range(ncols))
    rng.shuffle(cols)

    def value():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

    independent = []
    for i in range(ncols - nullity):
        row = {cols[i]: value()}
        for _ in range(rng.randint(0, 3)):
            row[cols[rng.randrange(i, ncols)]] = value()
        independent.append(row)
    rows = [dict(row) for row in independent]
    for _ in range(rng.randint(0, len(independent) // 2 + 1) if independent else 0):
        combo = {}
        for row in rng.sample(independent, min(2, len(independent))):
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            for j, v in row.items():
                combo[j] = combo.get(j, 0) + k * v
        rows.append(combo)
    rows.append({})
    rows.append(dict(rng.choice(rows)))
    rng.shuffle(rows)
    return rows


def as_dict_rows(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def test_kernel_of_matches_dense_reference():
    rng = random.Random(20261018)
    cases = [[[Fraction(0)] * 4 for _ in range(3)]]  # the zero matrix
    cases.append([[Fraction(rng.randint(-9, 9)) for _ in range(5)] for _ in range(4)])
    for _ in range(60):
        ncols = rng.randint(1, 9)
        cases.append(
            random_deficient_matrix(rng, rng.randint(1, 10), ncols, rng.randint(0, ncols))
        )
    for rows in cases:
        ncols = len(rows[0])
        ref = dense_kernel(rows, ncols)
        shuffled = list(range(ncols))
        rng.shuffle(shuffled)
        for order in (range(ncols), shuffled):
            got = as_fractions(_kernel_of(int_rows(as_dict_rows(rows)), ncols, order))
            assert got == fraction_kernel_of(as_dict_rows(rows), ncols, order)
            # scaling a row, sign included, changes no pivot and no vector
            assert as_fractions(_kernel_of(int_rows(as_dict_rows(rows), -6), ncols, order)) == got
            assert len(got) == len(ref)
            for v in got:  # each vector solves every row
                assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
            for u in ref:  # and they span the reference kernel
                assert dense_rank(got + [u], ncols) == len(got)
    # sparse matrices up to 60 columns: the very list the elimination over
    # Q returns, in index order and in a shuffled order
    nullities = []
    for _ in range(200):
        ncols = rng.randint(1, 60)
        nullity = min(ncols, rng.choice((0, 1, 2, rng.randint(3, 60))))
        rows = random_sparse_matrix(rng, ncols, nullity)
        shuffled = list(range(ncols))
        rng.shuffle(shuffled)
        for order in (range(ncols), shuffled):
            got = _kernel_of(int_rows(rows), ncols, order)
            assert as_fractions(got) == fraction_kernel_of(rows, ncols, order)
            assert all(den > 0 for _, den in got)
            assert len(got) == nullity
            for nums, _ in got:
                for row in rows:
                    assert sum(v * nums[j] for j, v in row.items()) == 0
        nullities.append(nullity)
    assert {0, 1, 2} <= set(nullities) and max(nullities) > 2


def test_eigenform_independent_of_pivot_order():
    """Index order pivots on the last nonzero column instead of the widest
    class; the normalized eigenform must be the same."""
    for n, D, x, lams in [
        (2, 6, X1, [Fraction(5)]),
        (3, 4, X1_Q3, [Fraction(7, 2), Fraction(-3)]),
        (4, 3, X1, [Fraction(2), Fraction(9, 5), Fraction(-1)]),
    ]:
        query = EigenQuery(lams, x, D)
        f = eigenform_solve(query)
        space, rows = _eigen_system(query)
        ncols = len(space.padded)
        ((nums, _),) = _kernel_of(rows, ncols, range(ncols))
        base = nums[space.index[space.base_class]]
        assert {c: Fraction(nums[space.index[c]], base) for c in space.padded} == f.values


def reference_eigen_system(query):
    """_eigen_system as it was over Q: rows of multiplicities with the
    Fraction - lambda_r added on the diagonal."""
    space, operators = forms._hecke_operators(query.n, query.D, query.x.q)
    rows = []
    for lam, operator in zip(query.lams, operators):
        for i, entries in operator:
            eq = dict(entries)
            eq[i] = eq.get(i, 0) - lam
            rows.append(eq)
    return space, rows


def solve_outcome(query):
    """(nullity, values) of eigenform_solve, or the TheoremViolation text."""
    try:
        f = eigenform_solve(query)
    except TheoremViolation as exc:
        return str(exc)
    return f.nullity, f.space, f.values


#: eigenvalue tuples with a zero, whose diagonal entries cancel to 0
ZERO_LAMBDAS = [[0], [0, 3], [3, 0], [0, 0], [0, 2, 0]]


def zero_lambda_queries():
    """Each ZERO_LAMBDAS tuple at q = 2, 3 and 4."""
    return [
        EigenQuery(lams, ClosedPoint(q0, 1), {2: 8, 3: 4, 4: 3}[len(lams) + 1])
        for lams in ZERO_LAMBDAS
        for q0 in (2, 3, 4)
    ]


def test_eigen_system_rows_hold_nonzero_ints():
    rng = random.Random(20261019)
    queries = zero_lambda_queries()
    for n, D in ((2, 8), (3, 4), (4, 3)):
        lams = [Fraction(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(n - 1)]
        queries.append(EigenQuery(lams, X1_Q3, D))
    for query in queries:
        space, rows = _eigen_system(query)
        assert len(rows) == (query.n - 1) * len(space.classes)
        for row in rows:
            assert row and all(type(v) is int and v for v in row.values()), query.lams


def test_eigenform_solve_matches_the_fraction_reference(monkeypatch):
    """50 seeded queries drawn as the eigen benchmark draws them, and the
    zero-eigenvalue queries."""
    strata = [(2, D) for D in range(8, 25)] + [(3, D) for D in range(3, 8)]
    strata += [(4, D) for D in range(2, 5)]
    rng = random.Random(20261018)
    queries = []
    for _ in range(50):
        n, D = rng.choice(strata)
        lams = [Fraction(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(n - 1)]
        queries.append(EigenQuery(lams, ClosedPoint(rng.choice((2, 3, 5)), 1), D))
    queries += zero_lambda_queries()
    got = [solve_outcome(query) for query in queries]
    monkeypatch.setattr(forms, "_eigen_system", reference_eigen_system)
    monkeypatch.setattr(forms, "_kernel_of", reference_kernel_of)
    assert [solve_outcome(query) for query in queries] == got


def weight_major_eigen_system(query):
    """_eigen_system with its rows weight by weight, as it was built before
    they came class by class: every weight-1 row, then every weight-2 row."""
    space, operators = forms._hecke_operators(query.n, query.D, query.x.q)
    rows = []
    for lam, operator in zip(query.lams, operators):
        a, b = lam.numerator, lam.denominator
        for i, entries in operator:
            eq = {j: b * m for j, m in entries}
            diagonal = eq.pop(i, 0) - a
            if diagonal:
                eq[i] = diagonal
            rows.append(eq)
    return space, rows


def kernel_with_base_row(kernel):
    """A kernel that also imposes f(O^n) = 0: nullity 0 for an eigen system."""

    def patched(rows, ncols, order):
        return kernel(list(rows) + [{0: 1}], ncols, order)

    return patched


def kernel_with_spare_column(kernel):
    """A kernel with one more unknown, in no equation: nullity 2."""

    def patched(rows, ncols, order):
        return kernel(rows, ncols + 1, list(order) + [(-1, -1)])

    return patched


def kernel_vanishing_at_base(kernel):
    """A kernel whose vectors lose their value at O^n."""

    def patched(rows, ncols, order):
        return [([0] + nums[1:], den) for nums, den in kernel(rows, ncols, order)]

    return patched


def test_class_major_rows_match_the_weight_major_reference(monkeypatch):
    """Seeded queries over n = 2-5, about a third of the eigenvalues 0: the
    same values and nullity, and the same TheoremViolation messages under
    each patched kernel, from either row order."""
    rng = random.Random(20261019)
    depths = {2: (4, 12), 3: (2, 6), 4: (2, 4), 5: (2, 3)}
    queries = []
    for n in (2, 3, 4, 5):
        for _ in range(4):
            lams = [
                Fraction(0) if rng.random() < 0.35 else Fraction(rng.randint(-30, 30), rng.randint(1, 5))
                for _ in range(n - 1)
            ]
            queries.append(EigenQuery(lams, ClosedPoint(rng.choice((2, 3, 4, 5)), 1), rng.randint(*depths[n])))
    assert sum(lam == 0 for query in queries for lam in query.lams) >= 5
    kernels = [None, kernel_with_base_row, kernel_with_spare_column, kernel_vanishing_at_base]
    outcomes = {}
    for builder in (forms._eigen_system, weight_major_eigen_system):
        monkeypatch.setattr(forms, "_eigen_system", builder)
        for patch in kernels:
            monkeypatch.setattr(forms, "_kernel_of", patch(_kernel_of) if patch else _kernel_of)
            outcomes.setdefault(patch, []).append([solve_outcome(query) for query in queries])
    for patch, (class_major, weight_major) in outcomes.items():
        assert class_major == weight_major, patch
    assert all(type(out) is tuple for out in outcomes[None][0])
    assert {out.split(" for ")[0] for out in outcomes[kernel_with_base_row][0]} == {
        "eigenspace dimension 0 != 1"
    }
    assert {out.split(" for ")[0] for out in outcomes[kernel_with_spare_column][0]} == {
        "eigenspace dimension 2 != 1"
    }
    assert {out.split(" for ")[0] for out in outcomes[kernel_vanishing_at_base][0]} == {
        "eigenform vanishes at the base class"
    }


def without_weight(system, r):
    """An _eigen_system that leaves out the weight-r equations; the rows
    come class by class, the n - 1 weights of a class in turn."""

    def patched(query):
        space, rows = system(query)
        return space, [row for k, row in enumerate(rows) if k % (query.n - 1) != r - 1]

    return patched


def with_base_row(system):
    """An _eigen_system with the extra equation f(O^n) = 0."""

    def patched(query):
        space, rows = system(query)
        return space, rows + [{space.index[space.base_class]: 1}]

    return patched


@pytest.mark.parametrize(
    "lams, D, patch",
    [
        pytest.param([5], 4, lambda system: without_weight(system, 1), id="n2-no-weight-1"),
        pytest.param(
            [Fraction(7, 2), -3], 3, lambda system: without_weight(system, 1), id="n3-no-weight-1"
        ),
        pytest.param(
            [Fraction(7, 2), -3], 3, lambda system: without_weight(system, 2), id="n3-no-weight-2"
        ),
        pytest.param(
            [2, Fraction(9, 5), -1], 2, lambda system: without_weight(system, 3), id="n4-no-weight-3"
        ),
        pytest.param([Fraction(7, 2), -3], 3, with_base_row, id="n3-base-row-nullity-0"),
    ],
)
def test_wrong_nullity_raises_the_reference_message(monkeypatch, lams, D, patch):
    query = EigenQuery([Fraction(v) for v in lams], X1_Q3, D)
    monkeypatch.setattr(forms, "_eigen_system", patch(forms._eigen_system))
    with pytest.raises(TheoremViolation, match="eigenspace dimension") as new:
        eigenform_solve(query)
    monkeypatch.setattr(forms, "_kernel_of", reference_kernel_of)
    with pytest.raises(TheoremViolation) as ref:
        eigenform_solve(query)
    assert str(new.value) == str(ref.value)
    assert "dimension 1 !=" not in str(new.value)


#: f at three classes, by degrees, of the solve with lambda_r = (3+2r)/r
#: at q = 2, recorded from the elimination over Q
LARGE_TRUNCATIONS = {
    (4, 6): {(0, 1, 1, 2): "-1", (0, 1, 3, 6): "2755/12", (0, 0, 0, 7): "2717/5"},
    (3, 40): {
        (0, 1, 2): "-1/2",
        (0, 20, 40): "-30096452763155163460682057/1835008",
        (0, 0, 41): "-2339475974247186298693222653353/15393162788864",
    },
    (4, 12): {(0, 1, 1, 2): "-1", (0, 1, 6, 12): "66342989/96", (0, 0, 0, 13): "7350953/5"},
    (3, 80): {
        (0, 1, 2): "-1/2",
        (0, 40, 80): "11952485836055031128478104957069796450725603444511787/7696581394432",
        (0, 0, 81): "-133775040203289154909423678254060091022269614977009707962959"
        "/2417851639229258349412352",
    },
}


@pytest.mark.parametrize("n, D", list(LARGE_TRUNCATIONS))
def test_larger_truncations_solve_with_nullity_one(n, D):
    query = EigenQuery([Fraction(3 + 2 * r, r) for r in range(1, n)], X1, D)
    f = eigenform_solve(query)
    assert f.nullity == 1 and f[f.space.base_class] == 1
    assert all(eigenvalue_of_balanced_relation(query, f, r) for r in range(1, n))
    for degrees, value in LARGE_TRUNCATIONS[n, D].items():
        assert f[B(*degrees)] == Fraction(value)


def test_eigenform_rank2_recurrence():
    """The weight-1 system forces f(0,1) = lam f(0,0)/(q+1) and then
    f(0,k+1) = lam f(0,k) - q f(0,k-1)."""
    for x, lam in [(X1, Fraction(5)), (X1, Fraction(-3, 2)), (X1_Q3, Fraction(7, 3))]:
        q0 = x.q
        f = eigenform_solve(EigenQuery([lam], x, 6))
        assert f[cl(0, 0)] == 1
        assert f[cl(0, 1)] == lam / (q0 + 1)
        for k in range(1, 6):
            assert f[cl(0, k + 1)] == lam * f[cl(0, k)] - q0 * f[cl(0, k - 1)]


def test_eigenform_nullity_one_random():
    rng = random.Random(20260823)
    for n in (2, 3):
        for q0, x in [(2, X1), (3, X1_Q3)]:
            for _ in range(4):
                lams = [Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(n - 1)]
                f = eigenform_solve(EigenQuery(lams, x, 4))
                assert f.nullity == 1
                assert f[f.space.base_class] == 1


def test_balanced_relation_uses_grassmannian_count():
    """lambda_r / f(balanced neighbor) equals #Gr(r,n)(F_q), which differs
    from the plain power q^{r(n-r)} for every 1 <= r <= n-1."""
    for n, x in [(2, X1), (3, X1), (3, X1_Q3), (2, X1_Q4), (3, X1_Q4)]:
        q0 = x.q
        lams = [Fraction(13, 2) + r for r in range(n - 1)]
        query = EigenQuery(lams, x, 4)
        f = eigenform_solve(query)
        for r in range(1, n):
            assert eigenvalue_of_balanced_relation(query, f, r)
            grass = gaussian_binomial(r, n).evaluate(q0)
            plain = q0 ** (r * (n - r))
            assert grass != plain
            target = cl(*([0] * r + [1] * (n - r)))
            assert f[target] == lams[r - 1] / grass
            assert f[target] != lams[r - 1] / plain


@pytest.mark.parametrize("lams, r", [((1,), 0), ((1,), 2), ((2, 3), 0), ((2, 3), 3)])
def test_balanced_relation_needs_r_between_1_and_n_minus_1(lams, r):
    query = EigenQuery([Fraction(l) for l in lams], X1, 3)
    f = eigenform_solve(query)
    with pytest.raises(ValueError, match=f"^need 1 <= r <= n-1, got r={r}, n={query.n}$"):
        eigenvalue_of_balanced_relation(query, f, r)


def test_eigen_query_validation():
    with pytest.raises(ValueError):
        EigenQuery([Fraction(1)], ClosedPoint(2, 2, (1, 1, 1)), 3)
    with pytest.raises(ValueError):
        EigenQuery([], X1, 3)
    q = EigenQuery([2, Fraction(1, 3)], X1, 3)
    assert q.n == 3 and q.lams == (Fraction(2), Fraction(1, 3))


def test_form_vector_lookup_and_json():
    f = eigenform_solve(EigenQuery([Fraction(5)], X1, 2))
    # BundleType keys are projected to their class
    assert f[B(3, 4)] == f[cl(0, 1)]
    blob = f.to_json()
    assert blob["nullity"] == 1
    entry = next(e for e in blob["values"] if e["degrees"] == [0, 1])
    assert (entry["value_num"], entry["value_den"]) == (5, 3)


def test_extension_distribution_examples():
    O = B(0)
    assert extension_middle_distribution(O, O, 2) == {B(0, 0): 1}
    assert extension_middle_distribution(B(1), O, 5) == {B(0, 1): 1}
    for q0 in (2, 3, 4, 5):
        dist = extension_middle_distribution(B(2), O, q0)
        assert dist == {B(0, 2): 1, B(1, 1): q0 - 1}
        assert sum(dist.values()) == q0  # dim Ext^1(O(2), O) = h^1(O(-2)) = 1


def test_extension_mass_identity_grid():
    """Counts per middle must total q^{dim Ext^1(F,G)}; the function raises
    on any mismatch, so the grid just has to come back clean."""
    shapes = [(a,) for a in range(4)] + [
        (a, b) for a in range(4) for b in range(a, 4)
    ]
    for q0 in (2, 3):
        for fdeg in shapes:
            for gdeg in shapes:
                dist = extension_middle_distribution(B(*fdeg), B(*gdeg), q0)
                assert sum(dist.values()) == q0 ** ext1_dim(B(*fdeg), B(*gdeg))
                assert all(v > 0 for v in dist.values())


def reference_middle_distribution(F, G, q0):
    """The counts evaluated first: word_product(F + G) and Q(F) * Q(G)
    each taken at q0, with no product of rational functions."""
    scale = Fraction(1)
    for factor in (q_factor(F), q_factor(G)):
        scale *= Fraction(factor.num.evaluate(q0), factor.den.evaluate(q0))
    scale *= aut_order(F, q0) * aut_order(G, q0) * q0 ** hom_dim(F, G)
    out = {}
    for term, coeff in word_product(F.degrees + G.degrees).items():
        g = coeff.evaluate(q0) * scale / aut_order(term.bundle, q0)
        assert g.denominator == 1 and g > 0, (F, G, term, g)
        out[term.bundle] = int(g)
    return out


def test_extension_distribution_matches_bundle_product():
    # extension_middle_distribution reads phi^B off bundle_product in Z[q]
    shapes = [(a,) for a in range(4)] + [(a, b) for a in range(4) for b in range(a, 4)]
    for q0 in (2, 3, 4, 5):
        for fdeg in shapes:
            for gdeg in shapes:
                F, G = B(*fdeg), B(*gdeg)
                assert extension_middle_distribution(F, G, q0) == reference_middle_distribution(F, G, q0)


def test_extension_middles_conserve_type():
    dist = extension_middle_distribution(B(0, 2), B(1), 3)
    for mid in dist:
        assert mid.rank == 3 and mid.degree == 3


@pytest.mark.parametrize("q0", [6, 1, 0])
def test_counts_refuse_a_field_that_does_not_exist(q0):
    f = eigenform_solve(EigenQuery([Fraction(5)], X1, 4))
    calls = [
        lambda: aut_order(B(0, 0), q0),
        lambda: extension_middle_distribution(B(2), B(0), q0),
        lambda: cusp_defect(f, 1, 1, f.space, q0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^q must be a prime power, got {q0}$"):
            call()


def test_cusp_defect_of_eigenform_is_nonzero():
    """No cusp forms: a normalized eigenform must fail some (in fact the
    very first) cuspidality constraint."""
    f = eigenform_solve(EigenQuery([Fraction(5)], X1, 4))
    defects = cusp_defect(f, 1, 1, f.space, 2)
    assert defects[(B(0), B(0))] == 1  # the split-only pair reads off f(E0)
    assert any(v != 0 for v in defects.values())


def test_cusp_defect_split_pair_values():
    lam = Fraction(5)
    f = eigenform_solve(EigenQuery([lam], X1, 4))
    defects = cusp_defect(f, 1, 1, f.space, 2)
    # Ext^1(O(2), O) has q0 classes: split middle once, q0-1 balanced ones
    assert defects[(B(2), B(0))] == f[cl(0, 2)] + (2 - 1) * f[cl(0, 0)]


def test_cusp_defect_of_zero_form_vanishes():
    f = eigenform_solve(EigenQuery([Fraction(5)], X1, 4), base_value=0)
    assert f.is_zero()
    defects = cusp_defect(f, 1, 1, f.space, 2)
    assert defects and all(v == 0 for v in defects.values())


@pytest.mark.parametrize(
    "lams, n1, D", [((5,), 1, 4), ((2, 3), 1, 3), ((2, 3), 2, 3), ((2, 3, 5), 2, 2)]
)
def test_cusp_defect_covers_every_pair_with_minimum_zero(lams, n1, D):
    """Every middle of a pair in [0, D] stays in the truncation, so no pair
    is skipped."""
    f = eigenform_solve(EigenQuery([Fraction(v) for v in lams], X1, D))
    n2 = f.space.n - n1
    defects = cusp_defect(f, n1, n2, f.space, 2)
    want = {
        (B(*fdeg), B(*gdeg))
        for fdeg in product(range(D + 1), repeat=n1)
        for gdeg in product(range(D + 1), repeat=n2)
        if min(fdeg + gdeg) == 0
    }
    assert set(defects) == want


def test_cusp_defect_rank_split_validation():
    f = eigenform_solve(EigenQuery([Fraction(5)], X1, 3))
    with pytest.raises(ValueError):
        cusp_defect(f, 1, 2, f.space, 2)
    for other in (TruncatedPBun(2, 5), TruncatedPBun(2, 2), TruncatedPBun(3, 3)):
        with pytest.raises(ValueError, match="truncation of f"):
            cusp_defect(f, 1, 1, other, 2)


def test_toroidal_sum_reduces_to_base_value():
    f = eigenform_solve(EigenQuery([Fraction(5)], X1, 3))
    assert toroidal_sum(f) == 1
    zero = eigenform_solve(EigenQuery([Fraction(5)], X1, 3), base_value=0)
    assert toroidal_sum(zero) == 0
    f3 = eigenform_solve(EigenQuery([Fraction(2), Fraction(3)], X1, 3))
    assert toroidal_sum(f3) == 1


def test_toroidal_vanishing_forces_zero_form():
    """A toroidal eigenform has f(E0) = 0; with nullity one that kills the
    whole form, on any truncation and eigenvalue tuple tried."""
    rng = random.Random(7)
    for n, x in [(2, X1), (3, X1_Q3)]:
        lams = [Fraction(rng.randint(-9, 9)) for _ in range(n - 1)]
        f = eigenform_solve(EigenQuery(lams, x, 3), base_value=0)
        assert f.is_zero()


#: (n, D, lambdas): two eigenvalue tuples per truncation
CACHED_CASES = [
    (2, 4, [Fraction(5)]),
    (2, 4, [Fraction(-3, 2)]),
    (3, 3, [Fraction(3), Fraction(5)]),
    (3, 3, [Fraction(7, 2), Fraction(-3)]),
    (4, 2, [Fraction(2), Fraction(9, 5), Fraction(-1)]),
    (4, 2, [Fraction(3), Fraction(5), Fraction(7)]),
]


def solve_and_cusp(n, D, q0, lams):
    f = eigenform_solve(EigenQuery(lams, ClosedPoint(q0, 1), D))
    defects = {n1: cusp_defect(f, n1, n - n1, f.space, q0) for n1 in range(1, n)}
    return f.nullity, f.values, defects


def test_cached_answers_equal_cold_ones():
    """Every solve after the first reuses what earlier ones cached, at
    another q or with other eigenvalues; a key missing a component would
    hand it the wrong operators or counts."""
    clear_form_caches()
    cases = [(n, D, q0, lams) for n, D, lams in CACHED_CASES for q0 in (2, 3, 4)]
    cases.sort(key=lambda case: (case[0], case[1], case[2]))
    warm = [solve_and_cusp(*case) for case in cases]
    assert forms._hecke_operators.cache_info().hits > 0
    assert forms._cusp_middles.cache_info().hits > 0
    for case, got in zip(cases, warm):
        clear_form_caches()
        assert solve_and_cusp(*case) == got, case


def test_mutating_returned_values_changes_no_later_answer():
    query = EigenQuery([Fraction(7, 2), Fraction(-3)], X1_Q3, 3)
    f = eigenform_solve(query)
    defects = cusp_defect(f, 1, 2, f.space, 3)
    want = (dict(f.values), dict(defects))
    want_row = dict(hecke_matrix(f.space, 1)[f.space.base_class])
    want_dist = extension_middle_distribution(B(2), B(0), 3)

    hecke_matrix(f.space, 1)[f.space.base_class][cl(0, 0, 1)] = ONE
    extension_middle_distribution(B(2), B(0), 3)[B(0, 2)] = 7
    defects[(B(0), B(0, 0))] = Fraction(99)
    f.values[f.space.base_class] = Fraction(99)
    f.values.pop(cl(0, 1, 1))

    again = eigenform_solve(query)
    assert (again.values, cusp_defect(again, 1, 2, again.space, 3)) == want
    assert hecke_matrix(again.space, 1)[again.space.base_class] == want_row
    assert extension_middle_distribution(B(2), B(0), 3) == want_dist


def with_first_coefficient(real, change):
    """A bundle_product whose first coefficient is change(coefficient)."""

    def product(F, G):
        terms = dict(real(F, G).terms)
        first = next(iter(terms))
        terms[first] = change(terms[first])
        return HallElement(terms)

    return product


@pytest.mark.parametrize(
    "change, message",
    [(lambda c: c + c, "extension mass"), (lambda c: c + ONE, "not a positive integer")],
)
def test_wrong_hall_number_raises_integrity_error(monkeypatch, change, message):
    clear_form_caches()
    monkeypatch.setattr(forms, "bundle_product", with_first_coefficient(forms.bundle_product, change))
    with pytest.raises(HallIntegrityError, match=message):
        extension_middle_distribution(B(0), B(0), 2)
    f = eigenform_solve(EigenQuery([Fraction(5)], X1, 4))
    with pytest.raises(HallIntegrityError, match=message):
        cusp_defect(f, 1, 1, f.space, 2)


def test_wrong_hall_number_exits_3_through_the_cli(monkeypatch, capsys):
    clear_form_caches()
    monkeypatch.setattr(
        forms, "bundle_product", with_first_coefficient(forms.bundle_product, lambda c: c + c)
    )
    code = main("forms cusp --n 2 --q 2 --lambda 5 --depth 4".split())
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    doc = json.loads(err)
    assert doc["schema"] == "heckelab/1" and doc["error"] == "HallIntegrityError"


def test_integrity_check_survives_optimized_python():
    # [O]*[O] = (q+1)[O+O]; q+2 instead makes the count at q=2 a fraction,
    # 8/6, whose floor is the right count 1, so only the integrality check
    # sees the fault, and under -O an assert would not run
    script = (
        "import sys\n"
        "from heckelab import forms\n"
        "from heckelab.cli import main\n"
        "from heckelab.hall import HallElement\n"
        "from heckelab.qcalc import ONE\n"
        "real = forms.bundle_product\n"
        "def product(F, G):\n"
        "    out = real(F, G)\n"
        "    if F.degrees == G.degrees == (0,):\n"
        "        ((term, coeff),) = out.items()\n"
        "        out = HallElement({term: coeff + ONE})\n"
        "    return out\n"
        "forms.bundle_product = product\n"
        "sys.exit(main('forms cusp --n 2 --q 2 --lambda 5 --depth 4'.split()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 3, out.stderr
    doc = json.loads(out.stderr)
    assert doc["error"] == "HallIntegrityError" and "not a positive integer" in doc["detail"]
