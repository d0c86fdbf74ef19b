"""Brute-force ground truth over finite fields.

Weight-r Hecke modifications of E at x correspond to (n-r)-dimensional
kappa(x)-subspaces W of the fiber kappa(x)^n: the subsheaf is
E'(U) = {s in E(U) : s(x) in W}.  This module enumerates the subspaces
cell-by-cell (Schubert decomposition of the Grassmannian), recovers the
splitting type of each kernel subsheaf from twisted section counts, and
cross-validates the closed formulas: multiplicity censuses, automorphism
orders, constrained monomorphism counts, and Smith normal forms over
F_q[t].

Field elements of F_{q^d} = F_q[t]/(poly) are plain int tuples of length d
(coefficients of the reduced representative, little-endian); q must be
prime.  Linear algebra over the extension is expanded to F_q and done by
`fpoly.rank`; the modulus is checked irreducible once, when a Field or
the ClosedPoint it comes from is built.
"""

from __future__ import annotations

import os
from itertools import combinations, product

from . import fpoly
from .bundles import BundleType, ClosedPoint
from .qcalc import gaussian_binomial

__all__ = [
    "BudgetExceeded",
    "Field",
    "FieldElem",
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

#: an element of F_{q^d}: reduced residue as little-endian int tuple
FieldElem = tuple

SUBSPACE_BUDGET = 10**6
MATRIX_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """Enumeration would exceed the configured budget; never truncated."""


def default_budget(kind: str) -> int:
    env = os.environ.get("HECKELAB_BUDGET")
    if env:
        return int(env)
    return SUBSPACE_BUDGET if kind == "subspaces" else MATRIX_BUDGET


# --- the residue field F_{q^d} --------------------------------------------


class Field:
    """F_{q^d} = F_q[t]/(poly), q prime, poly monic irreducible of degree d.

    Elements are int tuples.  Without poly, the first monic irreducible of
    degree d in lexicographic order is used.
    """

    def __init__(self, q: int, d: int, poly=None):
        if not fpoly.is_prime(q):
            raise ValueError(f"oracle fields need prime q, got {q}")
        if poly is None:
            poly = fpoly.first_irreducible(q, d)
        poly = tuple(int(c) % q for c in poly)
        if len(poly) - 1 != d or poly[-1] != 1:
            raise ValueError("field poly must be monic of degree d")
        if not fpoly.is_irreducible(poly, q):
            raise ValueError(f"field poly {list(poly)} reducible over F_{q}")
        self._set(q, d, poly)

    def _set(self, q: int, d: int, poly: tuple) -> None:
        self.q = q
        self.d = d
        self.poly = poly
        self.size = q**d
        self.zero = ()
        self.one = (1,)

    @staticmethod
    def of_point(x: ClosedPoint) -> "Field":
        """The residue field of x; ClosedPoint has already checked that its
        polynomial is monic and irreducible of degree d over a prime q."""
        if x.poly is None:
            raise ValueError("point has no explicit polynomial")
        field = Field.__new__(Field)
        field._set(x.q, x.d, x.poly)
        return field

    def elements(self):
        """All q^d elements in counting order: 0, 1, ..., t, t+1, ..."""
        for digits in product(range(self.q), repeat=self.d):
            yield fpoly.trim(reversed(digits))

    def add(self, a, b):
        return fpoly.add(a, b, self.q)

    def sub(self, a, b):
        return fpoly.sub(a, b, self.q)

    def mul(self, a, b):
        return fpoly.div(fpoly.mul(a, b, self.q), self.poly, self.q)[1]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("field inverse of zero")
        # a^(q^d - 2) by square-and-multiply
        out, base, e = self.one, a, self.size - 2
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def reduce(self, coeffs):
        """Reduce an arbitrary F_q[t] polynomial into the field."""
        return fpoly.div(fpoly.trim(c % self.q for c in coeffs), self.poly, self.q)[1]

    def expand(self, a) -> tuple:
        """d base-field coordinates of an element."""
        return tuple(a[i] if i < len(a) else 0 for i in range(self.d))

    def t_powers(self, count: int) -> list:
        """t^0, ..., t^(count-1) reduced into the field."""
        out = [self.one]
        for _ in range(count - 1):
            out.append(self.mul(out[-1], (0, 1)))
        return out


def matrix_rank(field: Field, rows) -> int:
    """Rank over F_{q^d} of a matrix with Field entries.

    The rows times t^k, k < d, span over F_q a space of dimension d times
    the rank, so the elimination runs over the prime field.
    """
    tpow = field.t_powers(field.d)
    expanded = [
        [c for elem in row for c in field.expand(field.mul(tk, elem))]
        for row in rows
        for tk in tpow
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

    def contains_residual(self, v):
        """Reduce v by the basis; zero residual iff v in the subspace.

        Returns the residual restricted to non-pivot columns (kappa-linear
        in v), the quotient-map coordinates used for section counting.
        """
        f = self.field
        v = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c:
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        n = len(v)
        nonpivots = [j for j in range(n) if j not in self.pivots]
        return tuple(v[j] for j in nonpivots)

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
    limit = budget if budget is not None else default_budget("subspaces")
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
    field = Field(p, e)
    return sum(1 for _ in enumerate_subspaces(n, n - k, field, budget=budget))


# --- splitting type from section counts ------------------------------------


def _h0_constrained(E: BundleType, W: FiberSubspace, k: int) -> int:
    """dim_{F_q} of {s in H^0(E(k)) : ev_x(s) in W}.

    H^0(E(k)) has basis t^j in component i for 0 <= j <= d_i + k; the value
    at x is the reduction mod the point polynomial, a kappa(x)^n vector.
    Twisting scales every coordinate by the same unit, so W is the same
    condition for every k.
    """
    n = E.rank
    dims = [max(0, di + k + 1) for di in E.degrees]
    nsec = sum(dims)
    if nsec == 0:
        return 0
    field = W.field
    tpow = field.t_powers(max(dims))
    rows = []
    for i in range(n):
        for j in range(dims[i]):
            v = [field.zero] * n
            v[i] = tpow[j]
            res = W.contains_residual(v)
            rows.append([c for elem in res for c in field.expand(elem)])
    return nsec - fpoly.rank(rows, field.q)


def splitting_type(E: BundleType, W: FiberSubspace, x: ClosedPoint) -> BundleType:
    """Splitting type of the kernel subsheaf E' = {s : s(x) in W}.

    h^0(E'(k)) - h^0(E'(k-1)) = #{i : d_i' >= -k}; scanning k recovers the
    degree multiset.  The scan must reach k = d - min(d_i) at the top so the
    lowest possible component degree min(d_i) - d is visible.
    """
    if x.poly is None:
        raise ValueError("splitting_type needs a point with explicit poly")
    if (W.field.q, W.field.poly) != (x.q, x.poly):
        raise ValueError("subspace W lies in the fiber of another point than x")
    n = E.rank
    r = n - W.dim
    lo = -(max(E.degrees) + x.d + 1)
    hi = max(max(E.degrees), x.d - min(E.degrees))
    h0 = {lo: _h0_constrained(E, W, lo)}
    assert h0[lo] == 0
    counts = {}
    prev = 0
    prev_c = 0
    for k in range(lo + 1, hi + 1):
        cur = _h0_constrained(E, W, k)
        c = cur - prev
        if c - prev_c:
            counts[-k] = c - prev_c
        prev, prev_c = cur, c
    degrees = []
    for deg, mult in counts.items():
        degrees.extend([deg] * mult)
    out = BundleType(degrees)
    assert out.rank == n and out.degree == E.degree - r * x.d
    assert all(0 <= a - b <= x.d for a, b in zip(E.degrees, out.degrees))
    return out


def brute_multiplicity(E: BundleType, x: ClosedPoint, r: int, budget=None):
    """Census of splitting types over all codim-r subspaces of the fiber."""
    field = Field.of_point(x)
    census: dict[BundleType, int] = {}
    for W in enumerate_subspaces(E.rank, r, field, budget=budget):
        t = splitting_type(E, W, x)
        census[t] = census.get(t, 0) + 1
    assert sum(census.values()) == gaussian_binomial(E.rank - r, E.rank).evaluate(
        field.size
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
    reduce its row and column by division with remainder.
    """
    if not fpoly.is_prime(q):
        raise ValueError(f"SNF over F_q[t] needs prime q, got {q}")
    A = [[fpoly.trim(int(c) % q for c in entry) for entry in row] for row in M]
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix must be square")
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
        assert not fpoly.div(diag[i + 1], diag[i], q)[1], "divisibility chain broken"
    D = [[diag[i] if i == j else () for j in range(n)] for i in range(n)]
    check = _poly_mat_mul(_poly_mat_mul(L, D, q), R, q)
    orig = [[fpoly.trim(int(c) % q for c in entry) for entry in row] for row in M]
    assert check == orig, "SNF verification L*D*R == M failed"
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
    limit = budget if budget is not None else default_budget("matrices")
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
