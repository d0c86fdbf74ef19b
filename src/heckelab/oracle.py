"""Brute-force ground truth over finite fields.

Weight-r Hecke modifications of E at x correspond to (n-r)-dimensional
kappa(x)-subspaces W of the fiber kappa(x)^n: the subsheaf is
E'(U) = {s in E(U) : s(x) in W}.  This module enumerates the subspaces
cell-by-cell (Schubert decomposition of the Grassmannian), recovers the
splitting type of each kernel subsheaf from twisted section counts, and
cross-validates the closed formulas: multiplicity censuses, automorphism
orders, constrained monomorphism counts, and Smith normal forms over
F_q[t].

The section counts come from one incremental scan per subspace: each twist
adds one section row per component, the row of the previous twist times t,
to a single F_q echelon form kept by `fpoly.insert_row`, and h^0 is the
number of rows that were dependent.  The scan stops eliminating once the
echelon spans the quotient kappa^n / W: every later row is dependent and is
only counted.

The residue field kappa(x) = F_{q^d} = F_q[t]/(poly) is built only from a
ClosedPoint with an explicit polynomial, which has already checked that q
is prime and poly monic irreducible of degree d; the Field checks none of
it again.  Its elements are plain int tuples of length d (coefficients of
the reduced representative, little-endian).  Linear algebra over the
extension is expanded to F_q, where `fpoly.insert_row` is the one
elimination step.
"""

from __future__ import annotations

import os
from itertools import combinations, product

from . import fpoly
from .bundles import BundleType, ClosedPoint
from .qcalc import gaussian_binomial

__all__ = [
    "BudgetExceeded",
    "OracleIntegrityError",
    "Field",
    "FiberSubspace",
    "check_subspace_budget",
    "enumerate_subspaces",
    "splitting_type",
    "brute_multiplicity",
    "smith_normal_form",
    "brute_aut_order",
    "count_monomorphisms",
    "subspace_count",
    "default_budget",
    "matrix_rank",
]

SUBSPACE_BUDGET = 10**6
MATRIX_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """Enumeration would exceed the configured budget; never truncated."""


class OracleIntegrityError(RuntimeError):
    """An enumerated answer failed a check it cannot fail unless the oracle
    is broken: a splitting type of the wrong shape, a census mass that is
    not #Gr, or a Smith normal form that is not one."""


def default_budget(kind: str) -> int:
    env = os.environ.get("HECKELAB_BUDGET")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"HECKELAB_BUDGET must be an integer, got {env!r}") from None
        if value < 1:
            raise ValueError(f"HECKELAB_BUDGET must be at least 1, got {value}")
        return value
    return SUBSPACE_BUDGET if kind == "subspaces" else MATRIX_BUDGET


def _limit(budget: int | None, kind: str) -> int:
    """The budget to enforce: the given one, which must be at least 1, or
    the default for kind."""
    if budget is None:
        return default_budget(kind)
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    return budget


# --- the residue field F_{q^d} --------------------------------------------


class Field:
    """The residue field kappa(x) = F_q[t]/(poly) of a closed point x.

    Only a point with an explicit polynomial has one.  ClosedPoint has
    already checked that q is prime and poly monic irreducible of degree d;
    the field copies the three.  Elements are int tuples.
    """

    zero = ()
    one = (1,)

    def __init__(self, x: ClosedPoint):
        if x.poly is None:
            raise ValueError("point has no explicit polynomial")
        self.q = x.q
        self.d = x.d
        self.poly = x.poly
        self.size = x.q**x.d

    def elements(self):
        """All q^d elements in counting order: 0, 1, ..., t, t+1, ..."""
        for digits in product(range(self.q), repeat=self.d):
            yield fpoly.trim(reversed(digits))

    def sub(self, a, b):
        return fpoly.sub(a, b, self.q)

    def mul(self, a, b):
        return fpoly.div(fpoly.mul(a, b, self.q), self.poly, self.q)[1]

    def reduce(self, coeffs):
        """Reduce an arbitrary F_q[t] polynomial into the field."""
        return fpoly.div(fpoly.trim(c % self.q for c in coeffs), self.poly, self.q)[1]

    def expand(self, a) -> tuple:
        """d base-field coordinates of an element."""
        return tuple(a[i] if i < len(a) else 0 for i in range(self.d))


def matrix_rank(field: Field, rows) -> int:
    """Rank over F_{q^d} of a matrix with Field entries.

    The rows times t^k, k < d, span over F_q a space of dimension d times
    the rank, so the elimination runs over the prime field.  t^k with
    k < d is already reduced: k zeros, then a one.
    """
    expanded = [
        [c for elem in row for c in field.expand(field.mul((0,) * k + (1,), elem))]
        for row in rows
        for k in range(field.d)
    ]
    return fpoly.rank(expanded, field.q) // field.d


# --- subspace enumeration (Schubert cells) ---------------------------------


class FiberSubspace:
    """(n-r)-dim subspace of kappa(x)^n as a reduced row-echelon basis."""

    __slots__ = ("field", "basis", "pivots")

    def __init__(self, field: Field, basis, pivots):
        self.field = field
        self.basis = basis  # tuple of rows; row = tuple of field elems
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"FiberSubspace(dim={self.dim}, pivots={self.pivots})"


def check_subspace_budget(n: int, r: int, q: int, d: int, budget: int | None = None) -> int:
    """#Gr(n-r, n)(F_{q^d}), the codim-r subspaces of a degree-d fiber.

    Raises BudgetExceeded when the count is above the budget, so a caller
    can refuse an enumeration before it builds the point or the field.
    """
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    if d < 1:
        raise ValueError(f"point degree must be >= 1, got {d}")
    limit = _limit(budget, "subspaces")
    k = n - r
    if 0 < k < n and d > limit.bit_length():
        # the count exceeds q^d >= 2^d > limit; q^d itself may be too big to form
        raise BudgetExceeded(f"more than 2^{d} subspaces exceed budget {limit}")
    total = gaussian_binomial(k, n).evaluate(q**d)
    if total > limit:
        raise BudgetExceeded(f"{total} subspaces exceed budget {limit}")
    return total


def enumerate_subspaces(n: int, r: int, field: Field, budget: int | None = None):
    """Yield every codim-r subspace of kappa^n exactly once, cell by cell.

    Cells are indexed by pivot-column sets; free entries sit right of their
    pivot in non-pivot columns.  The total count is checked against the
    budget by check_subspace_budget before any work.
    """
    check_subspace_budget(n, r, field.q, field.d, budget)
    k = n - r
    zero, one = field.zero, field.one
    for pivots in combinations(range(n), k):
        free = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j > pivots[i] and j not in pivots
        ]
        template = []
        for i in range(k):
            row = [zero] * n
            row[pivots[i]] = one
            template.append(row)
        for values in product(field.elements(), repeat=len(free)):
            rows = [row[:] for row in template]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield FiberSubspace(field, tuple(tuple(r_) for r_ in rows), pivots)


def subspace_count(k: int, n: int, q0: int, budget: int | None = None) -> int:
    """#Gr(k,n)(F_{q0}) by honest enumeration; q0 a prime power p^e."""
    p, e = fpoly.prime_power(q0)
    check_subspace_budget(n, n - k, p, e, budget)
    field = Field(ClosedPoint(p, e, fpoly.first_irreducible(p, e)))
    return sum(1 for _ in enumerate_subspaces(n, n - k, field, budget=budget))


# --- splitting type from section counts ------------------------------------


def splitting_type(E: BundleType, W: FiberSubspace) -> BundleType:
    """Splitting type of the kernel subsheaf E' = {s : s(x) in W}, where x
    is the point of W's field.

    h^0(E'(k)) - h^0(E'(k-1)) = #{i : d_i' >= -k}; scanning k recovers the
    degree multiset.  The scan must reach k = d - min(d_i) at the top so the
    lowest possible component degree min(d_i) - d is visible.

    One scan keeps one F_q echelon form.  A section lies in E' when its
    value at x maps to zero in kappa^n / W, and that map is kappa-linear:
    t^j e_i maps to t^j times the image of e_i, which W's reduced
    row-echelon basis gives in its non-pivot coordinates (minus the row
    whose pivot is i, or a unit vector when column i is no pivot).  Twist k
    adds the section t^(d_i+k) e_i of each component with d_i + k >= 0, and
    h^0(E'(k)) is the number of section rows so far that were dependent.
    Once the echelon holds r*d pivots, the F_q-dimension of kappa^n / W,
    every later row is dependent and is counted without being built.
    """
    field = W.field
    d = field.d
    n = E.rank
    r = n - W.dim
    pivot_rows = dict(zip(W.pivots, W.basis))
    free = [j for j in range(n) if j not in pivot_rows]
    images = [
        [field.sub(field.zero, pivot_rows[i][j]) for j in free]
        if i in pivot_rows
        else [field.one if j == i else field.zero for j in free]
        for i in range(n)
    ]
    lo = -(max(E.degrees) + d + 1)
    hi = max(max(E.degrees), d - min(E.degrees))
    echelon = {}
    degrees = []
    h0 = prev_h0 = prev_c = 0
    for k in range(lo + 1, hi + 1):
        for i, di in enumerate(E.degrees):
            if di + k < 0:
                continue
            if len(echelon) == r * d:  # the echelon spans kappa^n / W
                h0 += 1
                continue
            if di + k > 0:
                images[i] = [field.mul(c, (0, 1)) for c in images[i]]
            row = [c for elem in images[i] for c in field.expand(elem)]
            h0 += not fpoly.insert_row(echelon, row, field.q)
        c = h0 - prev_h0
        degrees += [-k] * (c - prev_c)
        prev_h0, prev_c = h0, c
    out = BundleType(degrees)
    if out.rank != n or out.degree != E.degree - r * d:
        raise OracleIntegrityError(
            f"splitting type {out.pretty()} of {E.pretty()} has rank {out.rank} and "
            f"degree {out.degree}, not {n} and {E.degree - r * d}"
        )
    if not all(0 <= a - b <= d for a, b in zip(E.degrees, out.degrees)):
        raise OracleIntegrityError(
            f"splitting type {out.pretty()} of {E.pretty()} drops a degree by "
            f"less than 0 or more than d={d}"
        )
    return out


def brute_multiplicity(E: BundleType, x: ClosedPoint, r: int, budget=None):
    """Census of splitting types over all codim-r subspaces of the fiber."""
    field = Field(x)
    census: dict[BundleType, int] = {}
    for W in enumerate_subspaces(E.rank, r, field, budget=budget):
        t = splitting_type(E, W)
        census[t] = census.get(t, 0) + 1
    total = sum(census.values())
    expected = gaussian_binomial(E.rank - r, E.rank).evaluate(field.size)
    if total != expected:
        raise OracleIntegrityError(
            f"census mass {total} != #Gr = {expected} for E={E.pretty()}, r={r}, "
            f"q^d={field.size}"
        )
    return dict(sorted(census.items()))


# --- Smith normal form over F_q[t] -----------------------------------------


def _mat_id(n):
    return [[((1,) if i == j else ()) for j in range(n)] for i in range(n)]


def _poly_mat_mul(A, B, p):
    n, m, k = len(A), len(B[0]), len(B)
    out = [[() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = ()
            for l in range(k):
                acc = fpoly.add(acc, fpoly.mul(A[i][l], B[l][j], p), p)
            out[i][j] = acc
    return out


def smith_normal_form(M, q: int):
    """SNF over F_q[t]: returns (diag, L, R) with M = L*diag*R.

    diag entries are monic with alpha_i | alpha_{i+1}; L and R are products
    of elementary matrices, hence invertible over F_q[t].  Euclidean
    reduction: repeatedly move a minimal-degree entry to the pivot and
    reduce its row and column by division with remainder.  Every
    coefficient must be an int, bool refused; anything else raises
    TypeError and nothing is converted.
    """
    if not fpoly.is_prime(q):
        raise ValueError(f"SNF over F_q[t] needs prime q, got {q}")
    if not {type(c) for row in M for entry in row for c in entry} <= {int}:
        raise TypeError(f"matrix coefficients must be ints, got {M!r}")
    A = [[fpoly.trim(c % q for c in entry) for entry in row] for row in M]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix must be square")
    orig = [list(row) for row in A]  # the elimination rewrites A in place
    L = _mat_id(n)
    R = _mat_id(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        for row in L:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        R[i], R[j] = R[j], R[i]

    def row_sub(i, j, f):
        # row_i -= f * row_j ; compensate L by col_j += f * col_i
        for col in range(n):
            A[i][col] = fpoly.sub(A[i][col], fpoly.mul(f, A[j][col], q), q)
        for row in L:
            row[j] = fpoly.add(row[j], fpoly.mul(f, row[i], q), q)

    def col_sub(i, j, f):
        # col_i -= f * col_j ; compensate R by row_j += f * row_i
        for row in A:
            row[i] = fpoly.sub(row[i], fpoly.mul(f, row[j], q), q)
        R[j] = [fpoly.add(a, fpoly.mul(f, b, q), q) for a, b in zip(R[j], R[i])]

    for k in range(n):
        while True:
            # minimal-degree nonzero entry of the trailing submatrix
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    if A[i][j] and (best is None or len(A[i][j]) < len(A[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                raise ValueError("singular matrix has no Smith normal form here")
            if best != (k, k):
                if best[0] != k:
                    swap_rows(k, best[0])
                if best[1] != k:
                    swap_cols(k, best[1])
            dirty = False
            for i in range(k + 1, n):
                if A[i][k]:
                    f, rem = fpoly.div(A[i][k], A[k][k], q)
                    row_sub(i, k, f)
                    if rem:
                        dirty = True
            for j in range(k + 1, n):
                if A[k][j]:
                    f, rem = fpoly.div(A[k][j], A[k][k], q)
                    col_sub(j, k, f)
                    if rem:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole trailing submatrix
            stray = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if A[i][j] and fpoly.div(A[i][j], A[k][k], q)[1]:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            row_sub(k, stray, fpoly.scale((1,), q - 1, q))  # row_k += row_stray

    diag = []
    for k in range(n):
        lead = A[k][k][-1]
        if lead != 1:
            inv = pow(lead, -1, q)
            A[k][k] = fpoly.scale(A[k][k], inv, q)
            for row in L:
                row[k] = fpoly.scale(row[k], lead, q)
        diag.append(A[k][k])
    for i in range(n - 1):
        if fpoly.div(diag[i + 1], diag[i], q)[1]:
            raise OracleIntegrityError(f"SNF divisibility chain broken at entry {i + 1}")
    D = [[diag[i] if i == j else () for j in range(n)] for i in range(n)]
    check = _poly_mat_mul(_poly_mat_mul(L, D, q), R, q)
    if check != orig:
        raise OracleIntegrityError("SNF verification L*D*R == M failed")
    return diag, L, R


# --- automorphisms and monomorphisms ---------------------------------------


def _all_polys_up_to(deg_bound: int, q: int):
    """All polynomials of degree <= deg_bound (dimension deg_bound+1)."""
    if deg_bound < 0:
        return [()]
    return [fpoly.trim(c) for c in product(range(q), repeat=deg_bound + 1)]


def _matrix_spaces(rows: tuple, cols: tuple, q: int, budget) -> list:
    """Row-major entry spaces of the n x n matrices over F_q[t] whose entry
    (i,j) has degree <= rows[i] - cols[j]; BudgetExceeded when there are
    more such matrices than the matrix budget allows."""
    n = len(rows)
    dims = [max(0, rows[i] - cols[j] + 1) for i in range(n) for j in range(n)]
    total = q ** sum(dims)
    limit = _limit(budget, "matrices")
    if total > limit:
        raise BudgetExceeded(f"{total} matrices exceed budget {limit}")
    return [_all_polys_up_to(dim - 1, q) for dim in dims]


def brute_aut_order(E: BundleType, q: int, budget=None) -> int:
    """Count invertible endomorphism matrices of E over F_q.

    Entry (i,j) maps O(d_j) -> O(d_i): a polynomial of degree <= d_i - d_j.
    Invertibility is the block-triangular criterion: each equal-degree
    diagonal block (constant entries) lies in GL over F_q.
    """
    n = E.rank
    spaces = _matrix_spaces(E.degrees, E.degrees, q, budget)
    groups = []
    start = 0
    for _, l in E.grouped():
        groups.append(range(start, start + l))
        start += l
    count = 0
    for flat in product(*spaces):
        mat = [flat[i * n : (i + 1) * n] for i in range(n)]
        ok = True
        for g in groups:
            block = [[(mat[i][j][0] if mat[i][j] else 0) for j in g] for i in g]
            if fpoly.rank(block, q) != len(block):
                ok = False
                break
        if ok:
            count += 1
    return count


def count_monomorphisms(
    E_prime: BundleType, E: BundleType, x: ClosedPoint, budget=None
) -> int:
    """Count matrices phi: E' -> E with det(phi) a unit times the point poly.

    Entry (i,j) maps the j-th component O(a_j) of E' into the i-th component
    O(d_i) of E: a polynomial of degree <= d_i - a_j.  Each weight-one
    modification class contributes #Aut(E') matrices.
    """
    if x.poly is None:
        raise ValueError("count_monomorphisms needs a point with explicit poly")
    if E.degree - E_prime.degree != x.d:
        raise ValueError("weight-one count needs deg E - deg E' = d")
    q = x.q
    n = E.rank
    spaces = _matrix_spaces(E.degrees, E_prime.degrees, q, budget)
    target = fpoly.trim(x.poly)
    count = 0
    for flat in product(*spaces):
        mat = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        det = fpoly.det(mat, q)
        if det and len(det) == len(target) and fpoly.monic(det, q) == target:
            count += 1
    return count
