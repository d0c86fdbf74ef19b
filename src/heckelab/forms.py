"""Unramified automorphic forms for PGL_n over P^1, at desk scale.

A form is a function on projective bundle classes; the Hecke operator at a
rational point x sends f to E -> sum of m(E', E) f(E') over the weight-r
neighbors E'.  Working on classes with bounded spread gives a finite exact
linear system: eigenforms exist and are unique up to scale, there are no
cusp forms, and every toroidal eigenform vanishes.  All arithmetic is in
exact rationals.

Truncation semantics: equations are written only for classes of spread at
most D, whose neighbors can raise the spread by at most one; the unknowns
therefore live on the padded set of spread at most D+1, so no equation is
ever cut off at the boundary.

Elimination: each equation has at most C(n,r)+1 nonzero entries, so the
system is kept as sparse {column: Fraction} rows and eliminated row by row
(_kernel_of).  A new row pivots on its widest class, largest by (spread,
index); the solution is then unique up to scale, so the normalized
eigenform does not depend on the pivot order.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import combinations_with_replacement

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
    set, which is checked, so each row is complete.
    """
    n = space.n
    if not 1 <= r <= n - 1:
        raise ValueError(f"need 1 <= r <= n-1, got r={r}, n={n}")
    out = {}
    for c in space.classes:
        row = {}
        for E_prime, poly in neighbors(c.degrees, 1, r).items():
            target = proj_class(E_prime)
            assert target in space, (c, target)
            row[target] = poly
        out[c] = row
    return out


def _kernel_of(rows, ncols, order):
    """Kernel basis of a sparse exact-rational matrix.

    rows are {column: Fraction} dicts over columns 0..ncols-1; order[c] is
    the sort key of column c.  Each row in turn is reduced against the
    pivot rows found so far, oldest pivot first, and, if anything is left,
    pivots on its nonzero column with the largest key.  Back substitution
    in reverse pivot order then gives one kernel vector per free column,
    as a dense list that is 1 there and 0 on the other free columns.
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
            # prow holds no column of an older pivot, so what it brings in
            # is cancelled later in this loop
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


def _eigen_system(query: EigenQuery):
    """(space, rows): one {column: Fraction} row per equation
    (Phi_r f)(c) = lambda_r f(c), for every weight r and row class c."""
    space = TruncatedPBun(query.n, query.D)
    q0 = query.x.q
    rows = []
    for r in range(1, query.n):
        lam = query.lams[r - 1]
        for c, row in hecke_matrix(space, r).items():
            eq = {space.index[t]: Fraction(poly.evaluate(q0)) for t, poly in row.items()}
            i = space.index[c]
            eq[i] = eq.get(i, 0) - lam
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
    v = kernel[0]
    base = v[space.index[space.base_class]]
    if base == 0:
        raise TheoremViolation(
            f"eigenform vanishes at the base class for lambda={query.lams}"
        )
    scale = Fraction(base_value) / base
    values = {c: v[space.index[c]] * scale for c in space.padded}
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
        assert rem == 0 and g > 0, (F, G, B, g)
        out[B] = g
    total = sum(out.values())
    expected = q0 ** ext1_dim(F, G)
    if total != expected:
        raise HallIntegrityError(
            f"extension mass {total} != q^dimExt = {expected} for "
            f"F={F.pretty()}, G={G.pretty()}, q={q0}"
        )
    return out


def cusp_defect(f: FormVector, n1: int, n2: int, space: TruncatedPBun, q0: int) -> dict:
    """Sums of f over extension middles, per quotient/sub pair (F, G).

    A cusp form makes every such sum vanish.  Pairs range over degree
    tuples in [0, D] with combined minimum 0 (simultaneous twists give the
    same middles).  Every middle B of 0 -> G -> B -> F -> 0 is a
    generization of F + G, so its degrees lie in [0, D] too and its class
    is in the space where f is defined; space must be that truncation.
    """
    if (space.n, space.D) != (f.space.n, f.space.D):
        raise ValueError(f"space must be the truncation of f, {f.space}, got {space}")
    if n1 + n2 != space.n:
        raise ValueError(f"need n1+n2 = {space.n}, got {n1}+{n2}")
    out = {}
    rng = range(space.D + 1)
    for fdeg in combinations_with_replacement(rng, n1):
        for gdeg in combinations_with_replacement(rng, n2):
            if min(fdeg + gdeg) != 0:
                continue
            F, G = BundleType(fdeg), BundleType(gdeg)
            dist = extension_middle_distribution(F, G, q0)
            out[(F, G)] = sum(count * f[B] for B, count in dist.items())
    return out


def toroidal_sum(f: FormVector) -> Fraction:
    """Sum of f over trace bundles of line classes on the degree-n cover,
    n the rank of f's space.

    For the constant extension of degree n, the pushforward of any line
    bundle O(k) is the balanced bundle O(k)^n (projection formula), so
    all coset representatives of Pic mod pullbacks share the class of
    O^n and the sum reduces to f at the base class.
    """
    reps = [BundleType([k] * f.space.n) for k in (0,)]  # the quotient is trivial
    return sum(f[proj_class(rep)] for rep in reps)


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
