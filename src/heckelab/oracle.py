"""Brute-force ground truth over finite fields.

Weight-r Hecke modifications of E at x correspond to (n-r)-dimensional
kappa(x)-subspaces W of the fiber kappa(x)^n: the subsheaf is
E'(U) = {s in E(U) : s(x) in W}.  This module enumerates the subspaces
cell-by-cell (Schubert decomposition of the Grassmannian), recovers the
splitting type of each kernel subsheaf from twisted section counts, and
cross-validates the closed formulas: multiplicity censuses, automorphism
orders, constrained monomorphism counts, and Smith normal forms over
F_q[t].

The section counts come from a row schedule built once per census,
`_schedule(E, d)`: the section rows t^m e_i in twist order, with m < d
only.  A row with m >= d is never independent, since t^m is an F_q
combination of 1, t, ..., t^(d-1) modulo the point's polynomial and those
rows of its component came earlier; it is counted and never built.

Each Schubert cell gets a scan plan, `_plan`, built once per census: the
free columns, and for every scheduled row either a unit row at a fixed
coordinate (a free component i at power m, which no subspace of the cell
changes) or the pivot row a of W at power m; a pivot row with no free
entry maps to zero and gets no step.  A scan reads the t^m*e products of
a pivot row's free entries from the field's table `Field._t_powers`,
which fills an entry when a scan first asks for it and keeps it for every
later scan over the field.  It adds each row to one echelon form and
stops once the echelon spans the quotient kappa^n / W.  At q = 2 the rows
are int bit masks and `fpoly.insert_mask` reduces them by xor; at odd q
they are int lists for `fpoly.insert_row`.  The twists at which a row was
independent, the drop profile, determine the splitting type.

A census walks each cell's plan once, depth first (`_Walk`), instead of
scanning each subspace on its own.  At the first step that reads pivot
row a it branches over the |kappa|^(f_a) values of the row's f_a free
entries, so the steps before that read are scanned once for all of them.
When the echelon fills or the steps run out, the rows not yet read cannot
change the profile, and the branch counts |kappa| to the number of their
free entries at once.  The census counts subspaces per profile and reads
each profile's type straight off it (`_kernel_type`), which checks the
type's shape; it builds no subspace.  `splitting_type` runs the same walk
over the cell of one given subspace, with every row's values given, so
it scans once.  It and `enumerate_subspaces`, which lists the subspaces
one by one, are the per-subspace reference that the tests compare the
census against.

The residue field kappa(x) = F_{q^d} = F_q[t]/(poly) is built only from a
ClosedPoint with an explicit polynomial, which has already checked that q
is prime and poly monic irreducible of degree d; the Field checks none of
it again.  Its elements are plain int tuples of length d (coefficients of
the reduced representative, little-endian).  Linear algebra over the
extension is expanded to F_q, where one elimination step, in the row
format of `fpoly.insert_row` or of `fpoly.insert_mask`, does the work.
"""

from __future__ import annotations

import os
from itertools import combinations, product
from typing import NamedTuple

from . import fpoly
from .bundles import BundleType, ClosedPoint
from .qcalc import gaussian_binomial

__all__ = [
    "BudgetExceeded",
    "OracleIntegrityError",
    "Field",
    "FiberSubspace",
    "check_subspace_budget",
    "brute_multiplicity",
    "smith_normal_form",
    "brute_aut_order",
    "count_monomorphisms",
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
    the field copies the three.  Elements are int tuples.  _t_powers is the
    t^m*e table of the scans over the field, empty until a scan reads it.
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
        self._t_powers = _TPowers(x.q, x.d, x.poly)

    def elements(self):
        """All q^d elements in counting order: 0, 1, ..., t, t+1, ..."""
        for digits in product(range(self.q), repeat=self.d):
            yield fpoly.trim(reversed(digits))

    def mul(self, a, b):
        return fpoly.div(fpoly.mul(a, b, self.q), self.poly, self.q)[1]

    def reduce(self, coeffs):
        """Reduce an arbitrary F_q[t] polynomial into the field."""
        return fpoly.div(fpoly.trim(c % self.q for c in coeffs), self.poly, self.q)[1]

    def expand(self, a) -> tuple:
        """d base-field coordinates of an element."""
        return tuple(a[i] if i < len(a) else 0 for i in range(self.d))


class _TPowers(dict):
    """The t^m*e table of a field: t^m times the element e, for m < d, as
    its d F_q coordinates, keyed by (m, e).  At q = 2 an entry is an int
    with coordinate c in bit c, at odd q a list of ints.

    An entry is filled when a scan first reads it, from the entry at m - 1
    by one companion step, so the table holds only what the scans over
    the field have read, and each entry is computed once.
    """

    __slots__ = ("q", "d", "poly")

    def __init__(self, q: int, d: int, poly: tuple):
        super().__init__()
        self.q, self.d, self.poly = q, d, poly

    def __missing__(self, key):
        m, e = key
        if m:
            prev = self[m - 1, e]
            if self.q == 2:
                out = prev << 1
                if out >> self.d:
                    out ^= _bits(self.poly)
            else:
                # the companion step of poly: shift up, fold t^d back in
                # as -(poly - t^d)
                top, out = prev[-1], [0] + prev[:-1]
                if top:
                    out = [(a - top * c) % self.q for a, c in zip(out, self.poly)]
        elif self.q == 2:
            out = _bits(e)
        else:
            out = list(e) + [0] * (self.d - len(e))
        self[key] = out
        return out


def _bits(coeffs) -> int:
    """An F_2 coordinate vector as an int, coordinate c in bit c."""
    return sum(c << i for i, c in enumerate(coeffs))


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
    if k in (0, n):
        return 1  # the whole fiber or the zero subspace, within any budget
    if d > limit.bit_length():
        # the count exceeds q^d >= 2^d > limit; q^d itself may be too big to form
        raise BudgetExceeded(f"more than 2^{d} subspaces exceed budget {limit}")
    total = gaussian_binomial(k, n).evaluate(q**d)
    if total > limit:
        raise BudgetExceeded(f"{total} subspaces exceed budget {limit}")
    return total


def enumerate_subspaces(n: int, r: int, field: Field, budget: int | None = None):
    """Yield every codim-r subspace of kappa^n exactly once, cell by cell:
    the per-subspace reference for the census walk, which does not call it.

    Cells are indexed by pivot-column sets; free entries sit right of their
    pivot in non-pivot columns.  Each cell's rows are built once and each
    subspace writes its free entries into them.  The total count is
    checked against the budget by check_subspace_budget before any work;
    at r = 0 and r = n no cell has a free entry, so the field's elements
    are listed only for 0 < r < n.
    """
    check_subspace_budget(n, r, field.q, field.d, budget)
    k = n - r
    elements = list(field.elements()) if 0 < r < n else ()
    for pivots in combinations(range(n), k):
        rows = [[field.zero] * n for _ in pivots]
        free = []
        for row, pivot in zip(rows, pivots):
            row[pivot] = field.one
            free += [(row, j) for j in range(pivot + 1, n) if j not in pivots]
        for values in product(elements, repeat=len(free)):
            for (row, j), v in zip(free, values):
                row[j] = v
            yield FiberSubspace(field, tuple(map(tuple, rows)), pivots)


# --- splitting type from section counts ------------------------------------


def _twists(E: BundleType, d: int) -> range:
    """The twists k a scan visits: below the first, no component has a
    section; at the last, k = d - min(d_i), the lowest possible kernel
    degree min(d_i) - d is visible."""
    top = max(E.degrees)
    return range(-(top + d), max(top, d - min(E.degrees)) + 1)


def _schedule(E: BundleType, d: int) -> list:
    """The section rows (k, i, m) of a scan, m = d_i + k, in twist order
    and with 0 <= m < d: row (k, i, m) is t^m e_i.  The rows with m >= d
    are left out, as they are never independent."""
    return [
        (k, i, di + k)
        for k in _twists(E, d)
        for i, di in enumerate(E.degrees)
        if 0 <= di + k < d
    ]


class _Plan(NamedTuple):
    """The scan of one Schubert cell: what its pivot columns fix.

    full is the F_q-dimension r*d of kappa^n / W; columns lists each free
    column j with the offset of its d coordinates in a row; each step is
    (k, a, m, row), with row the fixed unit row of a free component, or
    None for the pivot row a of W at power m; leads[a] is the index in
    columns of the first free column right of pivot row a's pivot, so the
    row has len(columns) - leads[a] free entries.
    """

    full: int
    columns: list
    steps: list
    leads: list


def _plan(schedule: list, pivots: tuple, n: int, field: Field) -> _Plan:
    """The scan plan of the cell with these pivot columns.

    Component i maps to the image of e_i in kappa^n / W, in W's non-pivot
    coordinates: the pivot row of W whose pivot is i, negated, or the unit
    vector at i when column i is no pivot.  The sign is dropped: scaling
    all rows of a component by -1 changes none of their dependences.  A
    unit vector times t^m, m < d, is the unit at coordinate m of its
    column, the same for every subspace of the cell.  A pivot row with no
    free entry maps to zero and is never independent, so it has no step.
    Rows are int bit masks at q = 2 and int lists otherwise.
    """
    d = field.d
    offsets = {j: b * d for b, j in enumerate(j for j in range(n) if j not in pivots)}
    full = len(offsets) * d
    leads = [i - a for a, i in enumerate(pivots)]  # free columns left of each pivot
    row_of = {i: a for a, i in enumerate(pivots) if leads[a] < len(offsets)}
    steps = []
    for k, i, m in schedule if offsets else ():  # W = kappa^n: no row is independent
        if i in row_of:
            steps.append((k, row_of[i], m, None))
        elif i in offsets:
            if field.q == 2:
                steps.append((k, None, m, 1 << offsets[i] + m))
            else:
                unit = [0] * full
                unit[offsets[i] + m] = 1
                steps.append((k, None, m, unit))
    return _Plan(full, list(offsets.items()), steps, leads)


def _row_values(elements: list, f: int):
    """Every value of a pivot row's f free entries, in counting order."""
    return product(elements, repeat=f)


class _Walk:
    """The scans of one field: each Schubert cell's scan plan is walked
    once, depth first, and the subspaces are counted per drop profile.

    A section lies in E' when its value at x maps to zero in kappa^n / W,
    and that map is kappa-linear: t^m e_i maps to t^m times the image of
    e_i.  The cell's plan holds the rows that W's entries do not change;
    a pivot row of W at power m is read entry by entry from the field's
    t^m*e table.  At q = 2 the rows are int bit masks and one xor reduces
    them (fpoly.insert_mask); at odd q they are int lists for
    fpoly.insert_row.  Once the echelon holds r*d pivots, the
    F_q-dimension of kappa^n / W, every later row is dependent.

    The walk keeps one echelon, one profile and the values of the pivot
    rows read so far, and a branch gives all three back as it found them.
    At the first step that reads pivot row a whose values are not given,
    the walk branches over the |kappa|^(f_a) values of the row's f_a free
    entries, so the steps before it are scanned once for all of them.  A
    branch ends when the echelon spans kappa^n / W or the steps run out.
    The rows it has not read then cannot change the profile, as the scan
    of any one subspace never reaches them either, so the branch counts
    |kappa| to the number of their free entries at once.
    """

    __slots__ = ("field", "elements", "plan", "values", "echelon", "profile", "counts")

    def __init__(self, field: Field, elements):
        self.field = field
        self.elements = elements
        self.echelon = {}
        self.profile = []
        self.counts: dict[tuple, int] = {}  # drop profile -> subspaces

    def cell(self, plan: _Plan, values: list) -> None:
        """Count the subspaces of the plan's cell whose pivot row a has the
        free entries values[a], every value where that is None."""
        self.plan, self.values = plan, values
        n_free = len(plan.columns)
        self._scan(0, sum(n_free - lead for lead, v in zip(plan.leads, values) if v is None))

    def _scan(self, start: int, unread: int) -> None:
        """Scan the plan from step start on; unread counts the free entries
        of the pivot rows no step has read yet."""
        field = self.field
        q, d, table = field.q, field.d, field._t_powers
        insert_mask, insert_row = fpoly.insert_mask, fpoly.insert_row
        full, columns, steps, leads = self.plan
        echelon, profile, values = self.echelon, self.profile, self.values
        size, depth = len(echelon), len(profile)
        for i in range(start, len(steps)):
            k, a, m, row = steps[i]
            if row is None:
                v = values[a]
                if v is None:
                    f = len(columns) - leads[a]
                    for v in _row_values(self.elements, f):
                        values[a] = v
                        self._scan(i, unread - f)
                    values[a] = None
                    break
                if q == 2:
                    row, shift = 0, leads[a] * d
                    for e in v:
                        row |= table[m, e] << shift
                        shift += d
                else:
                    row = [0] * (leads[a] * d)
                    for e in v:
                        row += table[m, e]
            if insert_mask(echelon, row) if q == 2 else insert_row(echelon, row, q):
                profile.append(k)
                if len(echelon) == full:
                    self._count(unread)
                    break
        else:
            self._count(unread)
        while len(echelon) > size:
            echelon.popitem()  # the last pivot added first, so the order is kept
        del profile[depth:]

    def _count(self, unread: int) -> None:
        key = tuple(self.profile)
        self.counts[key] = self.counts.get(key, 0) + self.field.size**unread


def _kernel_type(E: BundleType, d: int, r: int, profile: tuple) -> BundleType:
    """The kernel type whose weight-r scan at a degree-d point has this drop
    profile, with its shape checked.

    h^0(E'(k)) - h^0(E'(k-1)) = #{i : d_i' >= -k}, and that difference is
    #{i : d_i + k >= 0} minus the rows independent at twist k.  So each
    independent row at twist k lowers one component of degree -k by one,
    and one pass over the profile, in its twist order, gives E'.  A
    profile that lowers a degree no component has, or a type whose rank,
    degree or drops in [0, d] are wrong, raises OracleIntegrityError.
    """
    degrees = list(E.degrees)
    for k in profile:
        if -k not in degrees:
            raise OracleIntegrityError(
                f"drop profile {profile} of {E.pretty()} lowers degree {-k}, which no "
                f"component has"
            )
        degrees[degrees.index(-k)] -= 1
    out = BundleType(degrees)
    if out.rank != E.rank or out.degree != E.degree - r * d:
        raise OracleIntegrityError(
            f"splitting type {out.pretty()} of {E.pretty()} has rank {out.rank} and "
            f"degree {out.degree}, not {E.rank} and {E.degree - r * d}"
        )
    if not all(0 <= a - b <= d for a, b in zip(E.degrees, out.degrees)):
        raise OracleIntegrityError(
            f"splitting type {out.pretty()} of {E.pretty()} drops a degree by "
            f"less than 0 or more than d={d}"
        )
    return out


def splitting_type(E: BundleType, W: FiberSubspace) -> BundleType:
    """Splitting type of the kernel subsheaf E' = {s : s(x) in W}, where x
    is the point of W's field.  W must lie in kappa^(rank E): a basis row
    of any other length raises ValueError.

    One walk of W's cell, with W's entries given, scans once and gives W's
    drop profile, the twists at which a section row was independent, and
    `_kernel_type` reads the type off it.  The census reads its types off
    the profiles without building any W; this is the per-subspace
    reference that the tests compare it against.
    """
    field, n = W.field, E.rank
    if any(len(row) != n for row in W.basis):
        raise ValueError(f"subspace does not lie in the fiber kappa^{n} of {E.pretty()}")
    plan = _plan(_schedule(E, field.d), W.pivots, n, field)
    walk = _Walk(field, ())
    entries = [[row[j] for j, _ in plan.columns[lead:]] for row, lead in zip(W.basis, plan.leads)]
    walk.cell(plan, entries)
    (profile,) = walk.counts
    return _kernel_type(E, field.d, n - W.dim, profile)


def brute_multiplicity(E: BundleType, x: ClosedPoint, r: int, budget=None):
    """Census of splitting types over all codim-r subspaces of the fiber.

    The subspace count is checked against the budget before any work.  The
    row schedule is built once, and each Schubert cell's scan plan is
    walked once (`_Walk`): a pivot row's values are enumerated only at the
    first step that reads the row, and when the scan stops before a row is
    read, the subspaces that differ only there are counted at once.  The
    census counts subspaces per drop profile and reads each profile's
    type off it once (`_kernel_type`), as the type is a function of the
    profile.  The census mass must be #Gr.
    """
    field = Field(x)
    n = E.rank
    check_subspace_budget(n, r, field.q, field.d, budget)
    schedule = _schedule(E, x.d)
    walk = _Walk(field, list(field.elements()) if 0 < r < n else ())
    for pivots in combinations(range(n), n - r):
        walk.cell(_plan(schedule, pivots, n, field), [None] * (n - r))
    census: dict[BundleType, int] = {}
    for profile, count in walk.counts.items():
        t = _kernel_type(E, x.d, r, profile)
        census[t] = census.get(t, 0) + count
    total = sum(census.values())
    expected = gaussian_binomial(n - r, n).evaluate(field.size)
    if total != expected:
        raise OracleIntegrityError(
            f"census mass {total} != #Gr = {expected} for E={E.pretty()}, r={r}, "
            f"q^d={field.size}"
        )
    return dict(sorted(census.items()))


# --- Smith normal form over F_q[t] -----------------------------------------


def smith_normal_form(M, q: int):
    """SNF over F_q[t]: returns (diag, L, R) with M = L*diag*R.

    diag entries are monic with alpha_i | alpha_{i+1}; L and R are products
    of elementary matrices, hence invertible over F_q[t].  Euclidean
    reduction: repeatedly move a minimal-degree entry to the pivot and
    reduce its row and column by division with remainder; a pivot of
    positive degree must then divide the trailing submatrix, which a
    unit pivot does without a check.  Each elementary operation negates
    its quotient f once and updates A, L and R entry by entry with addmul.
    Every remainder must be shorter than its pivot, else
    OracleIntegrityError: each round that leaves a remainder then lowers
    the pivot's degree, and a stray-row step is followed by such a round,
    so the elimination ends.
    q and every coefficient must be ints, bool refused; anything else
    raises TypeError and nothing is converted.  An empty or non-square
    matrix raises ValueError.

    The elimination runs once, over the representation fpoly.byte_form
    chooses from q.  For q <= 13 the entries are bytes, and each update
    c + a*b is one int product reduced by one bytes.translate
    (fpoly.addmul_bytes), taken in chunks of the shorter factor when its
    coefficients could overflow a byte: chunks of 254, 63, 15, 6, 2 and 1
    coefficients at q = 2, 3, 5, 7, 11 and 13.  For larger q the entries
    are tuples and the updates fpoly.addmul.  Both perform the same
    operations on the same values, and diag, L and R are returned as
    tuples either way.

    The answer is checked on the tuple form before it is returned: the
    divisibility chain, and L*D*R == M by fpoly.mat_mul, which packs each
    entry of L*D and of R into one int and unpacks each entry of the
    product once; when no slot is wide enough, as at q above 2^32, it
    multiplies entry by entry.  A failed check raises OracleIntegrityError.
    """
    if not fpoly.is_prime(q):
        raise ValueError(f"SNF over F_q[t] needs prime q, got {q}")
    if not {type(c) for row in M for entry in row for c in entry} <= {int}:
        raise TypeError(f"matrix coefficients must be ints, got {M!r}")
    orig = [[fpoly.trim(c % q for c in entry) for entry in row] for row in M]
    n = len(orig)
    if not n:
        raise ValueError("matrix must not be empty")
    if any(len(row) != n for row in orig):
        raise ValueError("matrix must be square")
    if fpoly.byte_form(q):
        form, addmul, scale, div = bytes, fpoly.addmul_bytes, fpoly.scale_bytes, fpoly.div_bytes
    else:
        form, addmul, scale, div = tuple, fpoly.addmul, fpoly.scale, fpoly.div
    one = form((1,))
    A = [[form(entry) for entry in row] for row in orig]
    L = [[one if i == j else form() for j in range(n)] for i in range(n)]
    R = [[one if i == j else form() for j in range(n)] for i in range(n)]

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
        neg = scale(f, q - 1, q)
        A[i] = [addmul(a, neg, b, q) if b else a for a, b in zip(A[i], A[j])]
        for row in L:
            if row[i]:
                row[j] = addmul(row[j], f, row[i], q)

    def col_sub(i, j, f):
        # col_i -= f * col_j ; compensate R by row_j += f * row_i
        neg = scale(f, q - 1, q)
        for row in A:
            if row[j]:
                row[i] = addmul(row[i], neg, row[j], q)
        R[j] = [addmul(a, f, b, q) if b else a for a, b in zip(R[j], R[i])]

    def divide(a, pivot):
        f, rem = div(a, pivot, q)
        if len(rem) >= len(pivot):
            raise OracleIntegrityError(
                f"SNF division left a remainder of {len(rem)} coefficients "
                f"by a pivot of {len(pivot)}"
            )
        return f, rem

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
                    f, rem = divide(A[i][k], A[k][k])
                    row_sub(i, k, f)
                    if rem:
                        dirty = True
            for j in range(k + 1, n):
                if A[k][j]:
                    f, rem = divide(A[k][j], A[k][k])
                    col_sub(j, k, f)
                    if rem:
                        dirty = True
            if dirty:
                continue
            if len(A[k][k]) == 1:
                break  # a unit pivot divides the whole trailing submatrix
            # pivot must divide the whole trailing submatrix
            stray = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if A[i][j] and divide(A[i][j], A[k][k])[1]:
                        stray = i
                        break
                if stray is not None:
                    break
            if stray is None:
                break
            row_sub(k, stray, scale(one, q - 1, q))  # row_k += row_stray

    diag = []
    for k in range(n):
        lead = A[k][k][-1]
        if lead != 1:
            inv = pow(lead, -1, q)
            A[k][k] = scale(A[k][k], inv, q)
            for row in L:
                row[k] = scale(row[k], lead, q)
        diag.append(tuple(A[k][k]))
    L = [[tuple(entry) for entry in row] for row in L]
    R = [[tuple(entry) for entry in row] for row in R]
    for i in range(n - 1):
        if fpoly.div(diag[i + 1], diag[i], q)[1]:
            raise OracleIntegrityError(f"SNF divisibility chain broken at entry {i + 1}")
    # L*D scales the columns of L, as D is diagonal
    check = fpoly.mat_mul([[fpoly.mul(a, b, q) for a, b in zip(row, diag)] for row in L], R, q)
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
