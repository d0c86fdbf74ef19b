"""Existence tests and closed multiplicity formulas for Hecke modifications.

A weight-r modification of E at a point x of degree d drops each component
degree by some epsilon_i between 0 and d with total drop r*d.  Existence
and multiplicity both dispatch through a chain of closed-form criteria
(rank-2 table, degree-one points, spaced degrees, balanced bundles,
factorization across large gaps) and fall back to the Hall engine when no
formula applies.  Multiplicities are polynomials in q: one computation
answers the question over every finite base field.
"""

from __future__ import annotations

from itertools import product

from .bundles import BundleType, ClosedPoint
from .deltas import DeltaVec, weight
from .hall import HallIntegrityError, hall_multiplicity
from .qcalc import QPoly, gaussian_binomial

__all__ = [
    "ModificationQuery",
    "exists_modification",
    "multiplicity",
    "multiplicity_detail",
    "candidates",
    "neighbors",
    "dual_existence_check",
]

_ONE = QPoly((1,))
_ZERO = QPoly(())

#: instances with rank * point-degree at most this are re-verified against
#: the hall engine on every closed-formula dispatch
CROSS_CHECK_LIMIT = 8


class ModificationQuery:
    """A candidate modification [E' -> E] at x with weight r.

    Both degree lists are kept sorted ascending and the drops are matched
    indexwise: eps_i = d_i - d'_i.  A is the 1-based index set where the
    drop is nonzero, with s = min(A) and B = max(A).
    """

    __slots__ = ("E", "E_prime", "x", "r")

    def __init__(self, E: BundleType, E_prime: BundleType, x: ClosedPoint, r: int):
        if E.rank != E_prime.rank:
            raise ValueError(
                f"rank mismatch: {E_prime.pretty()} has rank {E_prime.rank}, "
                f"{E.pretty()} has rank {E.rank}"
            )
        if r < 0:
            raise ValueError(f"weight must be nonnegative, got {r}")
        self.E = E
        self.E_prime = E_prime
        self.x = x
        self.r = r

    @property
    def d(self) -> int:
        return self.x.d

    @property
    def eps(self) -> tuple:
        return tuple(a - b for a, b in zip(self.E.degrees, self.E_prime.degrees))

    @property
    def A(self) -> tuple:
        return tuple(i + 1 for i, e in enumerate(self.eps) if e != 0)

    @property
    def s(self):
        return self.A[0] if self.A else None

    @property
    def B(self):
        return self.A[-1] if self.A else None

    def __repr__(self):
        return (
            f"ModificationQuery([{self.E_prime.pretty()} -> {self.E.pretty()}], "
            f"d={self.d}, r={self.r})"
        )


def _exists(dp: tuple, dd: tuple, d: int, r: int) -> bool:
    """Core existence test on sorted degree tuples."""
    n = len(dd)
    if r == 0:
        return dp == dd
    if sum(dd) - sum(dp) != r * d:
        return False
    eps = [a - b for a, b in zip(dd, dp)]
    if any(e < 0 or e > d for e in eps):
        return False
    if r >= n:
        # the bounds force every drop to be exactly d
        return r == n
    # a gap wider than d splits the problem: no component can be moved
    # across it, so both halves must be modifications on their own
    for j in range(n - 1):
        if dd[j + 1] - dd[j] > d:
            drop = sum(eps[: j + 1])
            if drop % d:
                return False
            r1 = drop // d
            if not (0 <= r1 <= j + 1 and 0 <= r - r1 <= n - j - 1):
                return False
            return _exists(dp[: j + 1], dd[: j + 1], d, r1) and _exists(
                dp[j + 1 :], dd[j + 1 :], d, r - r1
            )
    if d == 1:
        # drops are 0/1 with sum r: every such vector is realizable
        return True
    if r == 1:
        # chain criterion: between the first and last touched component,
        # each dropped degree must stay below its left neighbor
        touched = [i for i, e in enumerate(eps) if e]
        lo, hi = touched[0], touched[-1]
        return all(dp[j + 1] <= dd[j] for j in range(lo, hi))
    poly = hall_multiplicity(BundleType(dp), BundleType(dd), d, r)
    return not poly.is_zero()


def exists_modification(query: ModificationQuery) -> bool:
    """Whether [E' -> E] at x with weight r exists."""
    return _exists(
        query.E_prime.degrees, query.E.degrees, query.d, query.r
    )


def _rank2_table(dp: tuple, dd: tuple, d: int) -> QPoly:
    """Weight-1 multiplicity for rank 2 from the five-case table.

    g = d2 - d1 is the degree gap of E.  In the middle case (0 < g < d)
    the interior entries are (q^2-1) q^{g+2i-1}; together with q^{g+1} and
    1 they telescope to the total mass q^d + 1.
    """
    d1, d2 = dd
    a, b = dp
    g = d2 - d1
    if g >= d:
        if (a, b) == tuple(sorted((d1, d2 - d))):
            return QPoly.monomial(d)
        if (a, b) == (d1 - d, d2):
            return _ONE
        return _ZERO
    if g == 0:
        if d % 2 == 0 and (a, b) == (d1 - d // 2, d1 - d // 2):
            return QPoly.monomial(d) - QPoly.monomial(d - 1)
        if (a, b) == (d1 - d, d1):
            return QPoly((1, 1))  # q+1
        i = d1 - b
        if 1 <= i <= (d - 1) // 2 and a == d1 - d + i:
            return QPoly.monomial(2 * i + 1) - QPoly.monomial(2 * i - 1)
        return _ZERO
    # 0 < g < d
    if (d + g) % 2 == 0 and (a, b) == ((d1 + d2 - d) // 2, (d1 + d2 - d) // 2):
        return QPoly.monomial(d) - QPoly.monomial(d - 1)
    if (a, b) == (d2 - d, d1):
        return QPoly.monomial(g + 1)
    if (a, b) == (d1 - d, d2):
        return _ONE
    i = d1 - b
    ell = (d - g - 1) // 2
    if 1 <= i <= ell and a == d2 - d + i:
        return QPoly.monomial(g + 2 * i + 1) - QPoly.monomial(g + 2 * i - 1)
    return _ZERO


def _deg1_multiplicity(dp: tuple, dd: tuple, r: int) -> QPoly:
    """Any weight at a rational point: q^alpha times a Grassmannian product.

    With E grouped into blocks of equal degree b_j of sizes l_j, and
    theta_j components dropped from block j, the count is
    q^alpha prod_j #Gr(theta_j, l_j) where
    alpha = sum_j (l_j - theta_j) (r - theta_1 - ... - theta_j).
    """
    eps = [a - b for a, b in zip(dd, dp)]
    E = BundleType(dd)
    out = _ONE
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


def _multiplicity_core(dp: tuple, dd: tuple, d: int, r: int) -> tuple:
    """Dispatch to the first applicable formula; returns (poly, method)."""
    n = len(dd)
    if not _exists(dp, dd, d, r):
        return _ZERO, "nonexistent"
    if r == 0:
        return _ONE, "trivial"
    if r == n:
        # the zero subspace is the only choice: E' = E twisted down by d
        return _ONE, "full-twist"
    if n == 2:
        return _rank2_table(dp, dd, d), "rank2-table"
    if d == 1:
        return _deg1_multiplicity(dp, dd, r), "deg1"
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
    for n1 in range(2, n):
        if dd[n1] - dd[n1 - 1] >= d:
            drop = sum(eps[:n1])
            if drop % d:
                continue
            r1 = drop // d
            if not (0 <= r1 <= n1 and 0 <= r - r1 <= n - n1):
                continue
            m1, _ = _multiplicity_core(dp[:n1], dd[:n1], d, r1)
            m2, _ = _multiplicity_core(dp[n1:], dd[n1:], d, r - r1)
            r2 = r - r1
            return m1 * m2 * QPoly.monomial(r2 * (n1 - r1) * d), "spaced-split"
    return hall_multiplicity(BundleType(dp), BundleType(dd), d, r), "hall"


def _checked_core(dp: tuple, dd: tuple, d: int, r: int, cross_check) -> tuple:
    """Dispatch plus the guard comparing closed formulas to the engine.

    cross_check: None re-verifies whenever rank * d <= CROSS_CHECK_LIMIT;
    True forces the verification, False skips it.
    """
    poly, method = _multiplicity_core(dp, dd, d, r)
    if cross_check is None:
        cross_check = len(dd) * d <= CROSS_CHECK_LIMIT
    if cross_check and method not in ("nonexistent", "hall"):
        reference = hall_multiplicity(BundleType(dp), BundleType(dd), d, r)
        if poly != reference:
            raise HallIntegrityError(
                f"dispatch {method} gave {poly.pretty()} but the hall engine "
                f"gives {reference.pretty()} for [{BundleType(dp).pretty()} -> "
                f"{BundleType(dd).pretty()}], d={d}, r={r}"
            )
    return poly, method


def multiplicity_detail(query: ModificationQuery, cross_check=None) -> tuple:
    """(multiplicity polynomial, method tag) for the query."""
    return _checked_core(
        query.E_prime.degrees, query.E.degrees, query.d, query.r, cross_check
    )


def multiplicity(query: ModificationQuery, cross_check=None) -> QPoly:
    """The number of weight-r subsheaves of type E', as a polynomial in q."""
    return multiplicity_detail(query, cross_check=cross_check)[0]


def candidates(E: BundleType, d: int, r: int) -> list:
    """Splitting types E' reachable from E by drops in [0, d] summing to r*d.

    Sorted and distinct.  Every weight-r modification of E at a point of
    degree d has one of these types, but not every type is realized.
    """
    seen = set()
    for eps in product(range(d + 1), repeat=E.rank):
        if sum(eps) == r * d:
            seen.add(tuple(sorted(a - e for a, e in zip(E.degrees, eps))))
    return [BundleType(dp) for dp in sorted(seen)]


def neighbors(E: BundleType, d: int, r: int, cross_check=None) -> dict:
    """All E' with nonzero multiplicity, mapped to their polynomials.

    Candidates come from drop vectors in {0..d}^n with total r*d; the sum
    of the returned polynomials at q is #Gr(n-r, n) over F_{q^d}.
    """
    n = E.rank
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= rank, got r={r}, rank={n}")
    if d < 1:
        raise ValueError(f"point degree must be >= 1, got {d}")
    out = {}
    for E_prime in candidates(E, d, r):
        poly, _ = _checked_core(E_prime.degrees, E.degrees, d, r, cross_check)
        if not poly.is_zero():
            out[E_prime] = poly
    return out


def dual_existence_check(query: ModificationQuery) -> bool:
    """Existence of the dual modification [E -> E'(d*x)] with weight n-r.

    Twisting E' by O(x) raises every component degree by d; the dual
    sequence exists exactly when the original one does.
    """
    n = query.E.rank
    if query.r > n:
        return False
    raised = tuple(a + query.d for a in query.E_prime.degrees)
    return _exists(query.E.degrees, raised, query.d, n - query.r)
