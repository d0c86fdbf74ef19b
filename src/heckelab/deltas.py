"""Delta vectors: the combinatorial index of Hecke neighbors.

Delta_r^n is the set of 0/1 vectors of length n with exactly r ones; the
ones mark which line-bundle components drop degree.  A DeltaVec takes int
bits: any other entry, bool or str included, raises TypeError, and an int
other than 0 or 1 raises ValueError.  Two statistics drive
the multiplicity formulas (positions 1-based, as in all formulas here;
serialized bit arrays are plain 0-based lists):

    |delta| = sum_{i=1}^n (1 - delta(i)) * (r - sum_{j<=i} delta(j))
    omega(delta) = sum of the 1-based positions of the ones

|delta| is 0 exactly for (1,...,1,0,...,0) and maximal, r(n-r), for
(0,...,0,1,...,1).  Summing q^(omega(max) - omega(sigma)) over the cells
recovers the Grassmannian count #Gr(r,n), the Schubert-cell identity.
"""

from __future__ import annotations

from itertools import combinations

from .qcalc import QPoly, ZERO

__all__ = ["DeltaVec", "enumerate_deltas", "weight", "omega", "schubert_count"]


class DeltaVec:
    """Binary vector of length n with r ones; immutable."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        bits = tuple(bits)
        if not set(map(type, bits)) <= {int}:
            raise TypeError(f"delta bits must be ints, got {bits!r}")
        if not set(bits) <= {0, 1}:
            raise ValueError(f"bits must be 0/1, got {bits}")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("DeltaVec is immutable")

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def r(self) -> int:
        return sum(self.bits)

    def __call__(self, i: int) -> int:
        """delta(i) with 1-based i, matching the formulas."""
        return self.bits[i - 1]

    def __eq__(self, other):
        if not isinstance(other, DeltaVec):
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self):
        return hash(("DeltaVec", self.bits))

    def __iter__(self):
        return iter(self.bits)

    def __repr__(self):
        return f"DeltaVec({list(self.bits)})"

    def to_json(self) -> list[int]:
        return list(self.bits)


def enumerate_deltas(n: int, r: int) -> list[DeltaVec]:
    """All C(n,r) vectors of Delta_r^n, ordered by position of support."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    out = []
    for support in combinations(range(n), r):
        bits = [0] * n
        for i in support:
            bits[i] = 1
        out.append(DeltaVec(bits))
    return out


def weight(delta: DeltaVec) -> int:
    """|delta|, the displacement weight governing q-powers."""
    r = delta.r
    total = 0
    running = 0
    for b in delta.bits:
        running += b
        if not b:
            total += r - running
    return total


def omega(delta: DeltaVec) -> int:
    """Sum of 1-based positions of the ones."""
    return sum(i for i, b in enumerate(delta.bits, start=1) if b)


def schubert_count(n: int, r: int) -> QPoly:
    """Sum of q^(omega(delta_max) - omega(sigma)) over Delta_r^n.

    delta_max = (0,...,0,1,...,1); the result equals gaussian_binomial(r,n).
    """
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    w_max = sum(range(n - r + 1, n + 1))
    out = ZERO
    for sigma in enumerate_deltas(n, r):
        out = out + QPoly.monomial(w_max - omega(sigma))
    return out
