"""Unramified automorphic forms for PGL_n over P^1, at desk scale.

A form is a function on projective bundle classes; the Hecke operator at a
rational point x sends f to E -> sum of m(E', E) f(E') over the weight-r
neighbors E'.  Working on classes with bounded spread gives a finite exact
linear system: eigenforms exist and are unique up to scale, there are no
cusp forms, and every toroidal eigenform vanishes.  All arithmetic is
exact.

Truncation semantics: equations are written only for classes of spread at
most D, whose neighbors can raise the spread by at most one; the unknowns
therefore live on the padded set of spread at most D+1, so no equation is
ever cut off at the boundary.

Elimination: each equation has at most C(n,r)+1 nonzero entries, so the
system is kept as sparse {column: int} rows, the weight-r equations
scaled by the denominator of lambda_r, and eliminated row by row over Z
(_kernel_of): fraction-free, each row stays a multiple of the row an
elimination over Q would hold.  The rows come class by class, all
weights of one class together, and a new row pivots on its widest
class, largest by (spread, index).  The pivot rows then stay short: at
n=5, D=12 with lambda_r = (3+2r)/r each holds two entries, 4,758 in
all, where weight-by-weight rows left 52,319, up to 96 in one row.  The
solution is unique up to scale, so the normalized eigenform does not
depend on the row or pivot order.  The kernel vector comes back as ints
over one common denominator, and the only Fractions of a solve are the
values of f, one per class, built when eigenform_solve divides by the
value at the base class.

Caching: the operators and the extension counts depend on the rank, the
truncation D and q, never on the eigenvalues, so two bounded module-level
caches keep them, every number an int in a tuple:
  * _hecke_operators, keyed by (n, D, q0): the truncation and the rows of
    every weight's hecke_matrix valued at q0, as column indices and
    multiplicities.  Each solve builds fresh int row dicts from them;
  * _cusp_middles, keyed by (n1, n2, D, q0): every pair (F, G) of
    cusp_defect with the column index and count of each middle.  Each
    cusp sum is then an exact integer sum over the common denominator
    of f.
Only lambda and f change from one solve to the next.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd, lcm

from .bundles import (
    BundleType,
    ClosedPoint,
    ProjBundleClass,
    aut_order,
    ext1_dim,
    hom_dim,
    proj_class,
)
from .hall import HallIntegrityError, bundle_product
from .hecke import neighbors
from .qcalc import gaussian_binomial

__all__ = [
    "TruncatedPBun",
    "FormVector",
    "EigenQuery",
    "TheoremViolation",
    "hecke_matrix",
    "eigenform_solve",
    "extension_middle_distribution",
    "cusp_defect",
    "toroidal_sum",
    "eigenvalue_of_balanced_relation",
]


class TheoremViolation(RuntimeError):
    """The eigen-system failed a property the theory guarantees."""


def _classes_with_spread(n: int, bound: int):
    """All classes 0 = d_1 <= ... <= d_n <= bound, ascending order."""
    out = []
    for rest in combinations_with_replacement(range(bound + 1), n - 1):
        out.append(ProjBundleClass(BundleType((0,) + rest)))
    return out


class TruncatedPBun:
    """Projective bundle classes of rank n with spread at most D, indexed.

    The padded list extends to spread D+1: every neighbor of an equation
    row lies there, so the row is always complete.

    eigenform_solve takes its truncation from a cache, so the FormVectors
    of one (n, D, q) share one instance: treat it as read-only.
    """

    def __init__(self, n: int, D: int):
        if n < 1 or D < 0:
            raise ValueError(f"need n >= 1 and D >= 0, got n={n}, D={D}")
        self.n = n
        self.D = D
        self.classes = _classes_with_spread(n, D)
        self.padded = _classes_with_spread(n, D + 1)
        self.index = {c: i for i, c in enumerate(self.padded)}

    @property
    def base_class(self) -> ProjBundleClass:
        return self.padded[0]  # the trivial bundle O^n

    def __contains__(self, c: ProjBundleClass) -> bool:
        return c in self.index

    def __repr__(self):
        return f"TruncatedPBun(n={self.n}, D={self.D}, {len(self.classes)} classes)"


class FormVector:
    """Exact-rational values on the padded class set of a truncation."""

    __slots__ = ("space", "values", "nullity")

    def __init__(self, space: TruncatedPBun, values: dict, nullity: int = 1):
        self.space = space
        self.values = values
        self.nullity = nullity

    def __getitem__(self, key) -> Fraction:
        if isinstance(key, BundleType):
            key = proj_class(key)
        return self.values[key]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())

    def to_json(self):
        return {
            "nullity": self.nullity,
            "values": [
                {
                    "degrees": list(c.degrees.degrees),
                    "value_num": v.numerator,
                    "value_den": v.denominator,
                }
                for c, v in sorted(self.values.items())
            ],
        }


class EigenQuery:
    """Eigenvalue tuple (lambda_1..lambda_{n-1}) at a degree-one point."""

    __slots__ = ("lams", "x", "D")

    def __init__(self, lams, x: ClosedPoint, D: int):
        self.lams = tuple(Fraction(l) for l in lams)
        if x.d != 1:
            raise ValueError("eigen queries use a degree-one point")
        if not self.lams:
            raise ValueError("need at least one eigenvalue (rank >= 2)")
        self.x = x
        self.D = D

    @property
    def n(self) -> int:
        return len(self.lams) + 1


def hecke_matrix(space: TruncatedPBun, r: int) -> dict:
    """Sparse weight-r Hecke operator: row class -> {neighbor class: QPoly}.

    Rows run over spread <= D; every neighbor class lands in the padded
    set, which is checked (TheoremViolation otherwise), so each row is
    complete.
    """
    n = space.n
    if not 1 <= r <= n - 1:
        raise ValueError(f"need 1 <= r <= n-1, got r={r}, n={n}")
    out = {}
    for c in space.classes:
        row = {}
        for E_prime, poly in neighbors(c.degrees, 1, r).items():
            target = proj_class(E_prime)
            if target not in space:
                raise TheoremViolation(
                    f"neighbor {target.degrees.pretty()} of {c.degrees.pretty()} "
                    f"leaves the padded truncation {space}"
                )
            row[target] = poly
        out[c] = row
    return out


def _kernel_of(rows, ncols, order):
    """Kernel basis of a sparse exact matrix, by elimination over Z.

    rows are {column: nonzero int} dicts over columns 0..ncols-1, which
    the elimination consumes; a Fraction entry raises TypeError in
    math.gcd.  order[c] is the sort key of column c.  Each row in turn is
    reduced against the pivot rows found so far, oldest
    pivot first: with pivot p of pivot row P and entry c of the row, the
    row becomes (p/g)*row - (c/g)*P, g = gcd(p, c).  If anything is left,
    it pivots on its nonzero column with the largest key and, divided by
    its content and signed so that the pivot is positive, becomes a pivot
    row.  Every row stays a nonzero multiple of the row an elimination
    over Q in the same order holds, so the zero patterns and the pivots
    are those of that elimination (Bareiss-style integer preservation).

    Back substitution in reverse pivot order then gives one kernel vector
    per free column, the rational vector that is 1 there and 0 on the
    other free columns.  It is returned as (nums, den): ints over one
    common positive denominator, entry k being Fraction(nums[k], den).
    """
    pivot_rows = []  # (pivot column, primitive int row whose pivot is > 0)
    found = {}  # pivot column -> index into pivot_rows
    for row in rows:
        pending = [found[c] for c in row if c in found]
        heapq.heapify(pending)
        while pending:
            col, prow = pivot_rows[heapq.heappop(pending)]
            c = row.get(col)
            if c is None:
                continue
            p = prow[col]
            g = gcd(p, c)
            a, b = p // g, c // g
            if a != 1:
                for j in row:
                    row[j] *= a
            # prow holds no column of an older pivot, so what it brings in
            # is cancelled later in this loop
            for j, v in prow.items():
                w = row.get(j)
                if w is None:
                    row[j] = -b * v
                    if j in found:
                        heapq.heappush(pending, found[j])
                else:
                    w -= b * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
        if not row:
            continue
        col = max(row, key=order.__getitem__)
        g = gcd(*row.values())
        if row[col] < 0:
            g = -g
        if g != 1:
            row = {j: v // g for j, v in row.items()}
        found[col] = len(pivot_rows)
        pivot_rows.append((col, row))
    basis = []
    for fc in range(ncols):
        if fc in found:
            continue
        nums = [0] * ncols
        nums[fc] = 1
        den = 1
        for col, prow in reversed(pivot_rows):
            # nums[col] is still 0, so the sum is over the other columns;
            # the entry is -s / (p * den)
            s = sum(a * nums[j] for j, a in prow.items())
            if not s:
                continue
            p = prow[col]
            g = gcd(s, p)
            if g != p:
                m = p // g
                nums = [m * a for a in nums]
                den *= m
                s *= m
            nums[col] = -s // p
        basis.append((nums, den))
    return basis


#: bounded; holds the eigen benchmark's working set of 75 (n, D, q0) systems
@lru_cache(maxsize=128)
def _hecke_operators(n: int, D: int, q0: int) -> tuple:
    """(space, operators) of TruncatedPBun(n, D) at q0.

    operators[r-1] holds the weight-r rows of hecke_matrix as int tuples
    (row index, ((column index, multiplicity at q0), ...)).
    """
    space = TruncatedPBun(n, D)
    operators = tuple(
        tuple(
            (
                space.index[c],
                tuple((space.index[t], poly.evaluate(q0)) for t, poly in row.items()),
            )
            for c, row in hecke_matrix(space, r).items()
        )
        for r in range(1, n)
    )
    return space, operators


def _eigen_system(query: EigenQuery):
    """(space, rows): one {column: int} row per equation
    (Phi_r f)(c) = lambda_r f(c), class by class, and for each row class c
    every weight r in turn.

    With lambda_r = a/b in lowest terms, the weight-r equation is scaled
    by b: its entries are b * multiplicity, and b * m_cc - a on the
    diagonal unless that is 0.  m_cc = 0 for 0 < r < n, so the diagonal
    is left out exactly when lambda_r = 0: every entry is a nonzero int."""
    space, operators = _hecke_operators(query.n, query.D, query.x.q)
    scales = [(lam.numerator, lam.denominator) for lam in query.lams]
    rows = []
    for weights in zip(*operators):  # the rows of one class, weight 1 first
        for (a, b), (i, entries) in zip(scales, weights):
            eq = {j: b * m for j, m in entries}
            diagonal = eq.pop(i, 0) - a
            if diagonal:
                eq[i] = diagonal
            rows.append(eq)
    return space, rows


def eigenform_solve(query: EigenQuery, base_value=1) -> FormVector:
    """The unique Hecke eigenform with f(O^n) = base_value on a truncation.

    Solves the homogeneous system {Phi_r f = lambda_r f on all complete
    rows}; its solution space must be one-dimensional and not vanish at
    the base class O^n, else the eigenform theorem is violated and this
    raises.  base_value=0 returns the zero form, which is the content of
    the toroidal-vanishing theorem.
    """
    space, rows = _eigen_system(query)
    q0 = query.x.q
    # pivoting on the widest class solves each row for its widest
    # neighbour, the way the rank-2 recurrence does, so rows stay sparse
    order = [(c.spread, i) for i, c in enumerate(space.padded)]
    kernel = _kernel_of(rows, len(space.padded), order)
    if len(kernel) != 1:
        raise TheoremViolation(
            f"eigenspace dimension {len(kernel)} != 1 for lambda={query.lams}, "
            f"q={q0}, n={query.n}, D={query.D}"
        )
    ((nums, _),) = kernel  # the common denominator cancels in f/f(O^n)
    base = nums[space.index[space.base_class]]
    if base == 0:
        raise TheoremViolation(
            f"eigenform vanishes at the base class for lambda={query.lams}"
        )
    value = Fraction(base_value)
    top, bottom = value.numerator, value.denominator * base
    values = {c: Fraction(top * a, bottom) for c, a in zip(space.padded, nums)}
    return FormVector(space, values, nullity=1)


def extension_middle_distribution(F: BundleType, G: BundleType, q0: int) -> dict:
    """How Ext^1(F, G) classes distribute over middle terms.

    The count with middle B is the Hall number phi^B_{F,G}, the coefficient
    of B in bundle_product(F, G), rescaled by automorphisms and the
    stabilizer Hom(F, G) of a fixed sequence:
    g^B = phi^B * |Aut F| * |Aut G| * |Hom(F,G)| / |Aut B|.  The counts
    must total q0^{dim Ext^1(F,G)}, which is enforced.
    """
    scale = aut_order(F, q0) * aut_order(G, q0) * q0 ** hom_dim(F, G)
    out = {}
    for term, coeff in bundle_product(F, G).items():
        B = term.bundle
        g, rem = divmod(coeff.evaluate(q0) * scale, aut_order(B, q0))
        if rem or g <= 0:
            raise HallIntegrityError(
                f"extension count {g} + {rem}/|Aut B| is not a positive integer for "
                f"F={F.pretty()}, G={G.pretty()}, B={B.pretty()}, q={q0}"
            )
        out[B] = g
    total = sum(out.values())
    expected = q0 ** ext1_dim(F, G)
    if total != expected:
        raise HallIntegrityError(
            f"extension mass {total} != q^dimExt = {expected} for "
            f"F={F.pretty()}, G={G.pretty()}, q={q0}"
        )
    return out


#: bounded; holds the eigen benchmark's working set of about 110 cusp keys
@lru_cache(maxsize=128)
def _cusp_middles(n1: int, n2: int, D: int, q0: int) -> tuple:
    """((F, G), ((middle column, count), ...)) for every pair cusp_defect
    sums over: degree tuples in [0, D] with combined minimum 0.  A middle
    column indexes the padded classes of TruncatedPBun(n1 + n2, D)."""
    index = TruncatedPBun(n1 + n2, D).index
    out = []
    rng = range(D + 1)
    for fdeg in combinations_with_replacement(rng, n1):
        for gdeg in combinations_with_replacement(rng, n2):
            if min(fdeg + gdeg) != 0:
                continue
            F, G = BundleType(fdeg), BundleType(gdeg)
            dist = extension_middle_distribution(F, G, q0)
            out.append(((F, G), tuple((index[proj_class(B)], g) for B, g in dist.items())))
    return tuple(out)


def cusp_defect(f: FormVector, n1: int, n2: int, space: TruncatedPBun, q0: int) -> dict:
    """Sums of f over extension middles, per quotient/sub pair (F, G).

    A cusp form makes every such sum vanish.  Pairs range over degree
    tuples in [0, D] with combined minimum 0 (simultaneous twists give the
    same middles).  Every middle B of 0 -> G -> B -> F -> 0 is a
    generization of F + G, so its degrees lie in [0, D] too and its class
    is in the space where f is defined; space must be that truncation.

    The extension counts come from a cache keyed by (n1, n2, D, q0).  Each
    sum is exact in integers: with L the lcm of f's denominators it adds
    count * L*f(B) and divides by L once.
    """
    if (space.n, space.D) != (f.space.n, f.space.D):
        raise ValueError(f"space must be the truncation of f, {f.space}, got {space}")
    if n1 + n2 != space.n:
        raise ValueError(f"need n1+n2 = {space.n}, got {n1}+{n2}")
    values = [f.values[c] for c in f.space.padded]
    L = lcm(*(v.denominator for v in values))
    num = [v.numerator * (L // v.denominator) for v in values]
    return {
        pair: Fraction(sum(g * num[j] for j, g in middles), L)
        for pair, middles in _cusp_middles(n1, n2, space.D, q0)
    }


def toroidal_sum(f: FormVector) -> Fraction:
    """Sum of f over trace bundles of line classes on the degree-n cover,
    n the rank of f's space.

    For the constant extension of degree n, the pushforward of any line
    bundle O(k) is the balanced bundle O(k)^n (projection formula), so
    all coset representatives of Pic mod pullbacks share the class of
    O^n and the sum reduces to f at the base class.
    """
    return f[f.space.base_class]


def eigenvalue_of_balanced_relation(query: EigenQuery, f: FormVector, r: int) -> bool:
    """Check lambda_r = #Gr(r,n)(q) * f(class of O(-1)^r + O^{n-r}).

    This is the base-class row of the weight-r operator: the only
    neighbor of O^n has multiplicity #Gr(r,n)(F_q).
    """
    n = query.n
    if not 1 <= r <= n - 1:
        raise ValueError(f"need 1 <= r <= n-1, got r={r}, n={n}")
    cls = ProjBundleClass(BundleType([0] * r + [1] * (n - r)))
    count = gaussian_binomial(r, n).evaluate(query.x.q)
    return query.lams[r - 1] * f[f.space.base_class] == count * f[cls]
