"""Existence tests and closed multiplicity formulas for Hecke modifications.

A weight-r modification of E at a point x of degree d drops each component
degree by some epsilon_i between 0 and d with total drop r*d.  Existence
and multiplicity both dispatch through a chain of closed-form criteria
(rank-2 table, one block product for degree-one points, spaced degrees and
balanced bundles, factorization across large gaps) and fall back to the
Hall engine when no formula applies.  Multiplicities are polynomials in q:
one computation answers the question over every finite base field.
"""

from __future__ import annotations

from itertools import product

from .bundles import BundleType, ClosedPoint
from .hall import HallIntegrityError, hall_multiplicity
from .qcalc import ONE, ZERO, QPoly, gaussian_binomial

__all__ = [
    "ModificationQuery",
    "exists_modification",
    "multiplicity",
    "multiplicity_detail",
    "candidates",
    "neighbors",
    "neighbors_detail",
]

#: instances with rank * point-degree at most this are re-verified against
#: the hall engine on every closed-formula dispatch
CROSS_CHECK_LIMIT = 8


class ModificationQuery:
    """A candidate modification [E' -> E] at x with weight r."""

    __slots__ = ("E", "E_prime", "x", "r")

    def __init__(self, E: BundleType, E_prime: BundleType, x: ClosedPoint, r: int):
        if E.rank != E_prime.rank:
            raise ValueError(
                f"rank mismatch: {E_prime.pretty()} has rank {E_prime.rank}, "
                f"{E.pretty()} has rank {E.rank}"
            )
        if type(r) is not int:
            raise TypeError(f"weight r must be an int, got {r!r}")
        if r < 0:
            raise ValueError(f"weight must be nonnegative, got {r}")
        self.E = E
        self.E_prime = E_prime
        self.x = x
        self.r = r

    @property
    def d(self) -> int:
        return self.x.d

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
    if d == 1:
        # drops are 0/1 with sum r: every such vector is realizable
        return True
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
    """Weight-1 multiplicity for rank 2: the block product where it applies,
    a table where it does not.

    g = d2 - d1 is the degree gap of E.  A target whose two drops are each
    0 or d is a block product: the two split targets, q^d and 1, when
    g >= d; the corner (d1 - d, d2), 1, when 0 < g < d; and at g = 0 the
    one corner type, q + 1.  The rest occur only for 0 < g < d: the corner
    (d2 - d, d1) with q^{g+1}, the balanced pair (when d + g is even) and
    the interior entries (q^2-1) q^{g+2i-1}; with the corner 1 they
    telescope to the total mass q^d + 1.
    """
    d1, d2 = dd
    a, b = dp
    g = d2 - d1
    if d1 - a in (0, d) and d2 - b in (0, d):
        return _block_multiplicity(dp, dd, d, 1)
    if (d + g) % 2 == 0 and a == b == (d1 + d2 - d) // 2:
        return QPoly.monomial(d) - QPoly.monomial(d - 1)
    i = d1 - b
    if 1 <= i <= (d - g - 1) // 2 and a == d2 - d + i:
        return QPoly.monomial(g + 2 * i + 1) - QPoly.monomial(g + 2 * i - 1)
    if (a, b) == (d2 - d, d1):
        return QPoly.monomial(g + 1)
    return ZERO


def _block_multiplicity(dp: tuple, dd: tuple, d: int, r: int) -> QPoly:
    """q^(d alpha) times a Grassmannian product, when every drop is 0 or d.

    With E grouped into blocks of equal degree of sizes l_j, and theta_j
    components dropped (by d) from block j, the count is
    q^(d alpha) prod_j #Gr(theta_j, l_j) where
    alpha = sum_j (l_j - theta_j) (r - theta_1 - ... - theta_j).
    At d = 1 this holds for every drop vector; for d > 1 it answers E with
    every gap at least d (each l_j = 1) and balanced E (one block).  The
    blocks are the runs of dd, which is sorted; #Gr(theta, l) is 1 at
    theta = 0 and theta = l, so only the other blocks multiply.
    """
    out = ONE
    alpha = 0
    consumed = 0
    start = 0
    while start < len(dd):
        length = dd.count(dd[start])
        theta = (length * dd[start] - sum(dp[start : start + length])) // d
        consumed += theta
        alpha += (length - theta) * (r - consumed)
        if 0 < theta < length:
            out = out * gaussian_binomial(theta, length)
        start += length
    return QPoly((0,) * (d * alpha) + out.coeffs)


def _multiplicity_core(dp: tuple, dd: tuple, d: int, r: int) -> tuple:
    """Dispatch to the first applicable formula; returns (poly, method)."""
    n = len(dd)
    if not _exists(dp, dd, d, r):
        return ZERO, "nonexistent"
    if r == 0:
        return ONE, "trivial"
    if r == n:
        # the zero subspace is the only choice: E' = E twisted down by d
        return ONE, "full-twist"
    if n == 2:
        return _rank2_table(dp, dd, d), "rank2-table"
    if d == 1:
        return _block_multiplicity(dp, dd, d, r), "deg1"
    eps = tuple(a - b for a, b in zip(dd, dp))
    if all(e in (0, d) for e in eps):
        if all(dd[i + 1] - dd[i] >= d for i in range(n - 1)):
            return _block_multiplicity(dp, dd, d, r), "spaced"
        if dd[0] == dd[-1]:
            return _block_multiplicity(dp, dd, d, r), "grassmannian"
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


def neighbors_detail(E: BundleType, d: int, r: int, cross_check=None) -> dict:
    """All E' with nonzero multiplicity, mapped to (polynomial, method tag).

    Candidates come from drop vectors in {0..d}^n with total r*d; the sum
    of the returned polynomials at q is #Gr(n-r, n) over F_{q^d}.  d and r
    must be ints, bool refused: TypeError.
    """
    if type(d) is not int or type(r) is not int:
        raise TypeError(f"d and r must be ints, got d={d!r}, r={r!r}")
    n = E.rank
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= rank, got r={r}, rank={n}")
    if d < 1:
        raise ValueError(f"point degree must be >= 1, got {d}")
    out = {}
    for E_prime in candidates(E, d, r):
        poly, method = _checked_core(E_prime.degrees, E.degrees, d, r, cross_check)
        if not poly.is_zero():
            out[E_prime] = poly, method
    return out


def neighbors(E: BundleType, d: int, r: int, cross_check=None) -> dict:
    """All E' with nonzero multiplicity, mapped to their polynomials; the
    census of neighbors_detail without the method tags."""
    return {
        E_prime: poly
        for E_prime, (poly, _) in neighbors_detail(E, d, r, cross_check).items()
    }
