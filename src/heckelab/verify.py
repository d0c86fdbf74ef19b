"""The cross-check grid: every count agrees across independent paths.

Ten checks compare the closed formulas, the Hall engine and the fiber
oracle, closed against recursive K_x products, Smith normal forms against
their construction, and the eigenform theorems against the solver.
`rank2-table`, `deg1-classification` and `spaced-factorization` share one
comparison of a census, `_census_disagreement`: each closed answer
against the Hall engine's, and the census mass against #Gr(n - r, n) over
F_{q^d}, so each of the three checks the mass.  Each
check takes an rng plus its grid as keyword arguments -- plain data: ranks,
degree ranges, q values, case lists, trial counts -- and returns None when
everything agrees, else a one-line description of the first disagreement.

`GRIDS` holds three sizes.  `quick` and `full` back `heckelab verify`;
`acceptance` backs the acceptance suite and contains the `full` grid of
every check.  `heckelab verify` gives each check its own rng, seeded by
the seed and the check's name, so a seed fixes each check's instances
whatever the other checks draw.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from . import fpoly
from .bundles import BundleType, ClosedPoint, ext1_dim
from .forms import (
    EigenQuery,
    cusp_defect,
    eigenform_solve,
    eigenvalue_of_balanced_relation,
    extension_middle_distribution,
    toroidal_sum,
)
from .hall import (
    HallElement,
    HallIntegrityError,
    bundle_product,
    hall_multiplicity,
    kx_times,
    word_product,
)
from .hecke import ModificationQuery, candidates, exists_modification, multiplicity_detail
from .oracle import Field, brute_multiplicity, matrix_rank, smith_normal_form
from .qcalc import ZERO, QPoly, gaussian_binomial

__all__ = ["CHECKS", "GRIDS", "random_modification_matrix"]


def _worked_example(rng):
    E = BundleType((0, 0))
    x = ClosedPoint(2, 2, (1, 1, 1))
    expected = {BundleType((-2, 0)): 3, BundleType((-1, -1)): 2}
    census = brute_multiplicity(E, x, 1)
    if census != expected:
        return f"oracle census {census}"
    for E_prime, count in expected.items():
        h = hall_multiplicity(E_prime, E, 2, 1).evaluate(2)
        m = multiplicity_detail(ModificationQuery(E, E_prime, x, 1))[0].evaluate(2)
        if h != count or m != count:
            return f"{E_prime.pretty()}: hall {h}, closed {m}, oracle {count}"
    return None


def _census_disagreement(E, d, r, methods, cross_check=False):
    """The first disagreement in E's weight-r census at a degree-d point,
    as one line, or None.

    Each candidate's closed answer (`multiplicity_detail` with
    `cross_check`) must equal the Hall engine's, and their sum must be
    #Gr(n - r, n) over F_{q^d}: the Gaussian binomial with q replaced by
    q^d, its coefficients spread d apart.  Each answer's method tag is
    added to `methods`.
    """
    x, total = ClosedPoint(2, d), ZERO
    for E_prime in candidates(E, d, r):
        got, method = multiplicity_detail(ModificationQuery(E, E_prime, x, r), cross_check)
        want = hall_multiplicity(E_prime, E, d, r)
        if got != want:
            return (
                f"{E_prime.pretty()} -> {E.pretty()} d={d} r={r}: "
                f"closed {got.pretty()}, hall {want.pretty()}"
            )
        methods.add(method)
        total = total + got
    grassmannian = gaussian_binomial(E.rank - r, E.rank).coeffs
    spread = [0] * (d * len(grassmannian) - d + 1)
    spread[::d] = grassmannian
    mass = QPoly(spread)
    if total != mass:
        return f"{E.pretty()} d={d} r={r}: census mass {total.pretty()} != {mass.pretty()}"
    return None


def _rank2_table(rng, top, ds):
    methods = set()
    for d1 in range(top + 1):
        for d2 in range(d1, top + 1):
            for d in ds:
                if bad := _census_disagreement(BundleType((d1, d2)), d, 1, methods):
                    return bad
    return None if "rank2-table" in methods else "the rank-2 table never answered"


def _deg1_classification(rng, nmax, top):
    for n in range(1, nmax + 1):
        for degrees in combinations_with_replacement(range(top + 1), n):
            for r in range(1, n + 1):
                if bad := _census_disagreement(BundleType(degrees), 1, r, set()):
                    return bad
    return None


def _oracle_equivalence(rng, qs, nmax, top):
    for q0 in qs:
        for d in (1, 2):
            x = ClosedPoint(q0, d, fpoly.first_irreducible(q0, d))
            for n in range(1, nmax + 1):
                for degrees in combinations_with_replacement(range(top + 1), n):
                    E = BundleType(degrees)
                    for r in range(1, n + 1):
                        census = brute_multiplicity(E, x, r)
                        types = candidates(E, d, r)
                        stray = set(census) - set(types)
                        if stray:
                            return (
                                f"oracle found {min(stray).pretty()} -> {E.pretty()} "
                                f"q={q0} d={d} r={r} outside the candidates"
                            )
                        for E_prime in types:
                            want = multiplicity_detail(
                                ModificationQuery(E, E_prime, x, r), cross_check=False
                            )[0].evaluate(q0)
                            got = census.get(E_prime, 0)
                            if got != want:
                                return (
                                    f"{E_prime.pretty()} -> {E.pretty()} q={q0} d={d} "
                                    f"r={r}: oracle {got}, closed {want}"
                                )
    return None


def _weight_one_criterion(rng, nmax, dmax, top):
    for n in range(1, nmax + 1):
        for degrees in combinations_with_replacement(range(top + 1), n):
            E = BundleType(degrees)
            for d in range(1, dmax + 1):
                x = ClosedPoint(2, d)
                for E_prime in candidates(E, d, 1):
                    chain = exists_modification(ModificationQuery(E, E_prime, x, 1))
                    hall = not hall_multiplicity(E_prime, E, d, 1).is_zero()
                    if chain != hall:
                        return f"{E_prime.pretty()} -> {E.pretty()} d={d}: chain {chain}, hall {hall}"
    return None


def _spaced_factorization(rng, cases):
    methods = set()
    for degrees, d in cases:
        for r in range(1, len(degrees) + 1):
            if bad := _census_disagreement(BundleType(degrees), d, r, methods, cross_check=True):
                return bad
    return None if "spaced-split" in methods else "the gap factorization never answered"


def _element_mul(a, b):
    """Bilinear product of two torsion-free hall elements."""
    for term in (*a.terms, *b.terms):
        if term.torsion_weight:
            raise HallIntegrityError(f"torsion term [{term.pretty()}] in a torsion-free product")
    acc = HallElement({})
    for t1, c1 in a.items():
        for t2, c2 in b.items():
            acc = acc + bundle_product(t1.bundle, t2.bundle).scale(c1 * c2)
    return acc


def _hall_integrity(rng, words, shapes, integral):
    for _ in range(words):
        length = rng.randint(2, 4)
        word = tuple(rng.randint(-2, 3) for _ in range(length))
        full = word_product(word)
        for cut in range(1, length):
            left = word_product(word[:cut])
            right = word_product(word[cut:])
            if _element_mul(left, right) != full:
                return f"associativity fails on word {word} at cut {cut}"
    for degrees in shapes:
        E = BundleType(degrees)
        for d in (1, 2, 3):
            for r in range(1, 4):
                closed = kx_times(r, E, d, method="closed")
                recursive = kx_times(r, E, d, method="recursive")
                if closed != recursive:
                    return f"kx closed != recursive on {E.pretty()} d={d} r={r}"
    # the Z[q] guard: kx_times raises HallIntegrityError when a coefficient
    # times Q(E') leaves a remainder, so every multiplicity is in Z[q]
    for degrees, d in integral:
        E = BundleType(degrees)
        for r in range(1, E.rank + 1):
            for E_prime in candidates(E, d, r):
                hall_multiplicity(E_prime, E, d, r)
    return None


_PHI_MATRICES = [
    [[(0, 1), (1, 1)], [(1,), (0, 1)]],
    [[(1,), (1, 1)], [(0, 1), (1,)]],
    [[(1, 1, 1), ()], [(), (1,)]],
    [[(1, 1, 1), (1,)], [(), (1,)]],
    [[(1, 1, 1), ()], [(1, 1, 1), (1,)]],
]


def _unimodular(rng, n, q0, deg):
    """A row-permuted lower times upper unitriangular n x n matrix over
    F_q[t], its off-diagonal entries of degree <= deg."""

    def entry():
        return fpoly.trim(rng.randrange(q0) for _ in range(deg + 1))

    lower = [[(1,) if i == j else entry() if j < i else () for j in range(n)] for i in range(n)]
    upper = [[(1,) if i == j else entry() if j > i else () for j in range(n)] for i in range(n)]
    M = fpoly.mat_mul(lower, upper, q0)
    rng.shuffle(M)
    return M


def random_modification_matrix(rng, field: Field, n: int, r: int) -> list:
    """A random n x n matrix over F_q[t] with cokernel K_x^r: U * D * V.

    x is the point of `field.poly` = pi, D = diag(1, ..., 1, pi, ..., pi)
    with r copies of pi, and U and V are unimodular, each built by
    `_unimodular` with entries of degree <= max(1, d - 1).  So det M is a
    unit times pi^r, M mod pi has rank n - r, and the SNF of M is D.

    Every (n - r)-dimensional subspace W of kappa(x)^n is the row space of
    some M mod pi, though not with equal frequency.  U mod pi is
    invertible, so that row space is the span of the first n - r rows of
    V mod pi.  The off-diagonal entries reduce mod pi onto all of kappa(x),
    so V mod pi may be any row-permuted lower times upper unitriangular
    matrix over kappa(x).  One such is the reduced echelon basis of W,
    completed by the unit vectors of its non-pivot columns (sorted by
    pivot, an upper unitriangular matrix), with W's rows permuted to the
    top.
    """
    q0 = field.q
    deg = max(1, field.d - 1)
    U = _unimodular(rng, n, q0, deg)
    V = _unimodular(rng, n, q0, deg)
    DV = V[: n - r] + [[fpoly.mul(field.poly, e, q0) for e in row] for row in V[n - r :]]
    return fpoly.mat_mul(U, DV, q0)


def _smith_normal_form(rng, cases, per_case):
    pi = (1, 1, 1)
    for M in _PHI_MATRICES:
        diag, _, _ = smith_normal_form(M, 2)
        if diag != [(1,), pi]:
            return f"phi matrix SNF {diag}"
    for q0, d, n, r in cases:
        field = Field(ClosedPoint(q0, d, fpoly.first_irreducible(q0, d)))
        expect = [(1,)] * (n - r) + [field.poly] * r
        pi_r = (1,)
        for _ in range(r):
            pi_r = fpoly.mul(pi_r, field.poly, q0)
        where = f"(q={q0}, d={d}, n={n}, r={r})"
        for _ in range(per_case):
            M = random_modification_matrix(rng, field, n, r)
            det = fpoly.det(M, q0)
            if not det or fpoly.monic(det, q0) != pi_r:
                return f"random matrix det {det} is not a unit times pi^{r} {where}"
            rank = matrix_rank(field, [[field.reduce(e) for e in row] for row in M])
            if rank != n - r:
                return f"random matrix has rank {rank} mod pi, not {n - r} {where}"
            diag, _, _ = smith_normal_form(M, q0)
            if diag != expect:
                return f"random matrix SNF {diag} != {expect} {where}"
    return None


def _eigen_nullity(rng, trials, qs, depths, num, den):
    for depth in depths:
        for _ in range(trials):
            n = rng.choice((2, 3))
            q0 = rng.choice(qs)
            lams = [Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(n - 1)]
            query = EigenQuery(lams, ClosedPoint(q0, 1, (0, 1)), depth)
            f = eigenform_solve(query)
            if f.nullity != 1:
                return f"nullity {f.nullity} at lambda={lams}, q={q0}, n={n}"
            if f[f.space.base_class] != 1:
                return f"f(O^n) = {f[f.space.base_class]} at lambda={lams}, q={q0}, n={n}"
            for r in range(1, n):
                if not eigenvalue_of_balanced_relation(query, f, r):
                    return f"balanced relation fails at r={r}, lambda={lams}, q={q0}, n={n}"
    return None


def _triviality(rng, top, qs, cases):
    shapes = [(a,) for a in range(top + 1)] + [
        (a, b) for a in range(top + 1) for b in range(a, top + 1)
    ]
    for q0 in qs:
        for fdeg in shapes:
            for gdeg in shapes:
                dist = extension_middle_distribution(BundleType(fdeg), BundleType(gdeg), q0)
                if sum(dist.values()) != q0 ** ext1_dim(BundleType(fdeg), BundleType(gdeg)):
                    return f"extension mass off for F={fdeg}, G={gdeg}, q={q0}"
    for q0, lams in cases:
        query = EigenQuery(lams, ClosedPoint(q0, 1, (0, 1)), 4)
        n = query.n
        where = f"lambda={list(query.lams)}, q={q0}"
        # toroidal vanishing: forcing f(O^n), the whole toroidal sum, to
        # zero kills the eigenform
        forced = eigenform_solve(query, base_value=0)
        if not forced.is_zero() or toroidal_sum(forced) != 0:
            return f"toroidal-vanishing solution is not identically zero at {where}"
        f = eigenform_solve(query)
        if toroidal_sum(f) != 1:
            return f"toroidal sum of normalized eigenform != 1 at {where}"
        # no cusp forms: a nonzero eigenform has a nonzero constant term
        defects = cusp_defect(f, 1, n - 1, f.space, q0)
        if not any(v != 0 for v in defects.values()):
            return f"eigenform has vanishing cusp defect at {where}"
    return None


#: check name -> check, in the order `heckelab verify` runs them
CHECKS = {
    "worked-example": _worked_example,
    "rank2-table": _rank2_table,
    "deg1-classification": _deg1_classification,
    "oracle-equivalence": _oracle_equivalence,
    "weight-one-criterion": _weight_one_criterion,
    "spaced-factorization": _spaced_factorization,
    "hall-integrity": _hall_integrity,
    "smith-normal-form": _smith_normal_form,
    "eigen-nullity": _eigen_nullity,
    "triviality-theorems": _triviality,
}


def _spaced(es):
    """Rank-3 types (0, e, e+gap) whose top gap is d or d+1."""
    return tuple(((0, e, e + gap), d) for d in (1, 2) for e in es for gap in (d, d + 1))


_KX_SHAPES = ((0,), (0, 0), (0, 1), (0, 0, 1))
_SNF_CASES = ((2, 1, 2, 1), (2, 2, 2, 1), (3, 1, 2, 1), (2, 1, 3, 2))
_TRIVIAL_CASES = ((2, (5,)),)

_FULL = {
    "worked-example": {},
    "rank2-table": {"top": 4, "ds": (1, 2, 3)},
    "deg1-classification": {"nmax": 4, "top": 3},
    "oracle-equivalence": {"qs": (2, 3), "nmax": 3, "top": 2},
    "weight-one-criterion": {"nmax": 4, "dmax": 3, "top": 4},
    "spaced-factorization": {"cases": _spaced((0, 1, 2))},
    "hall-integrity": {"words": 200, "shapes": _KX_SHAPES + ((0, 1, 3), (0, 0, 0)), "integral": ()},
    "smith-normal-form": {"cases": _SNF_CASES, "per_case": 11},
    "eigen-nullity": {"trials": 20, "qs": (2, 3), "depths": (6,), "num": 30, "den": 5},
    "triviality-theorems": {"top": 3, "qs": (2, 3), "cases": _TRIVIAL_CASES},
}

GRIDS = {
    "quick": {
        "worked-example": {},
        "rank2-table": {"top": 3, "ds": (1, 2)},
        "deg1-classification": {"nmax": 3, "top": 2},
        "oracle-equivalence": {"qs": (2,), "nmax": 2, "top": 1},
        "weight-one-criterion": {"nmax": 3, "dmax": 2, "top": 3},
        "spaced-factorization": {"cases": _spaced((0, 1))},
        "hall-integrity": {"words": 30, "shapes": _KX_SHAPES, "integral": ()},
        "smith-normal-form": {"cases": _SNF_CASES, "per_case": 3},
        "eigen-nullity": {"trials": 6, "qs": (2,), "depths": (4,), "num": 30, "den": 5},
        "triviality-theorems": {"top": 2, "qs": (2,), "cases": _TRIVIAL_CASES},
    },
    "full": _FULL,
    # the full grid plus what only the acceptance suite runs: the oracle
    # census at rank 4, rank-3 and rank-4 gap cases up to d = 3, the
    # denominator-one grid, SNF cases up to n = 5, depths 4 and 5 with
    # wider eigenvalues, and more eigenforms
    "acceptance": {
        **_FULL,
        "oracle-equivalence": {"qs": (2, 3), "nmax": 4, "top": 2},
        "spaced-factorization": {
            "cases": _spaced((0, 1, 2))
            + tuple(((0, 1, 1 + d, 1 + d), d) for d in (1, 2, 3))
            + tuple(
                (low + (low[1] + d + extra,), d)
                for d in (1, 2, 3) for low in ((0, 0), (0, 1), (1, 1)) for extra in (0, 1)
            )
        },
        "hall-integrity": {
            **_FULL["hall-integrity"],
            "integral": tuple(
                (degrees, d)
                for degrees in ((0, 0), (0, 2), (0, 0, 1), (0, 1, 2), (0, 0, 0, 1)) for d in (1, 2)
            ),
        },
        "smith-normal-form": {
            "cases": _SNF_CASES
            + ((3, 2, 2, 1), (3, 1, 3, 2), (2, 1, 4, 3), (5, 1, 4, 2), (2, 1, 5, 3), (2, 3, 5, 3)),
            "per_case": 11,
        },
        "eigen-nullity": {"trials": 20, "qs": (2, 3), "depths": (4, 5, 6), "num": 50, "den": 7},
        "triviality-theorems": {
            "top": 3,
            "qs": (2, 3),
            "cases": _TRIVIAL_CASES + ((2, (Fraction(9, 2),)), (3, (4, -6)), (2, (3,)),
                                       (2, (Fraction(-5, 2),)), (2, (12,))),
        },
    },
}
