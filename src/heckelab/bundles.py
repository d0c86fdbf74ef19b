"""Splitting types of vector bundles on P^1 and closed points of the line.

Birkhoff-Grothendieck: every bundle on P^1 is O(d_1) + ... + O(d_n) for a
unique non-decreasing degree multiset, the splitting type.  BundleType is
that multiset in sorted canonical form; ProjBundleClass is its image modulo
uniform twist (minimum degree shifted to 0), the natural domain for PGL_n
automorphic forms.

A closed point x of degree d is a Galois orbit of geometric points with
residue field kappa(x) = F_{q^d}; for the brute-force oracle it is pinned to
an explicit monic irreducible polynomial in the affine coordinate t = T/S
(the point at infinity is excluded; a coordinate change moves it into the
chart, and closed-form results depend only on d).
"""

from __future__ import annotations

from functools import lru_cache

from . import fpoly
from .qcalc import QPoly, QRat, RAT_ONE

__all__ = [
    "BundleType",
    "ProjBundleClass",
    "ClosedPoint",
    "proj_class",
    "q_factor",
    "aut_order",
    "hom_dim",
    "ext1_dim",
    "gl_order",
]


class BundleType:
    """Sorted multiset of line-bundle degrees; immutable and hashable."""

    __slots__ = ("degrees",)

    def __init__(self, degrees):
        degrees = tuple(sorted(int(d) for d in degrees))
        if not degrees:
            raise ValueError("a bundle has rank >= 1")
        object.__setattr__(self, "degrees", degrees)

    def __setattr__(self, name, value):
        raise AttributeError("BundleType is immutable")

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degree(self) -> int:
        return sum(self.degrees)

    def grouped(self) -> tuple[tuple[int, int], ...]:
        """((b_1, l_1), ..., (b_m, l_m)) with b_i strictly increasing."""
        out = []
        for d in self.degrees:
            if out and out[-1][0] == d:
                out[-1][1] += 1
            else:
                out.append([d, 1])
        return tuple((b, l) for b, l in out)

    def twist(self, k: int) -> "BundleType":
        """Tensor by O(k): add k to every degree."""
        return BundleType(d + k for d in self.degrees)

    def __eq__(self, other):
        if not isinstance(other, BundleType):
            return NotImplemented
        return self.degrees == other.degrees

    def __hash__(self):
        return hash(("BundleType", self.degrees))

    def __lt__(self, other):
        return self.degrees < other.degrees

    def __iter__(self):
        return iter(self.degrees)

    def pretty(self) -> str:
        parts = []
        for b, l in self.grouped():
            base = "O" if b == 0 else f"O({b})"
            parts.append(base if l == 1 else f"{base}^{l}")
        return "+".join(parts)

    def __repr__(self):
        return f"BundleType({list(self.degrees)})"

    def to_json(self) -> dict:
        return {"degrees": list(self.degrees)}

    @staticmethod
    def from_json(obj: dict) -> "BundleType":
        return BundleType(obj["degrees"])


class ProjBundleClass:
    """A splitting type modulo uniform degree shift; min degree pinned to 0."""

    __slots__ = ("degrees",)

    def __init__(self, E: BundleType):
        m = min(E.degrees)
        object.__setattr__(self, "degrees", E.twist(-m))

    def __setattr__(self, name, value):
        raise AttributeError("ProjBundleClass is immutable")

    @property
    def rank(self) -> int:
        return self.degrees.rank

    @property
    def spread(self) -> int:
        return max(self.degrees.degrees)

    def __eq__(self, other):
        if not isinstance(other, ProjBundleClass):
            return NotImplemented
        return self.degrees == other.degrees

    def __hash__(self):
        return hash(("ProjBundleClass", self.degrees.degrees))

    def __lt__(self, other):
        return self.degrees < other.degrees

    def __repr__(self):
        return f"ProjBundleClass({list(self.degrees.degrees)})"


def proj_class(E: BundleType) -> ProjBundleClass:
    """Class of E in PBun_n: degrees shifted so the minimum is 0."""
    return ProjBundleClass(E)


def q_factor(E: BundleType) -> QRat:
    """Q(E) = prod_i prod_{j=0}^{l_i-1} (q-1)/(q^{l_i - j} - 1).

    The normalization relating E to the ordered Hall product of its line
    bundles; equals 1 iff all degrees are distinct.
    """
    return _q_factor_of_runs(tuple(sorted(l for _, l in E.grouped())))


@lru_cache(maxsize=None)
def _q_factor_of_runs(runs: tuple) -> QRat:
    """Q for sorted run lengths; the keys are partitions of the rank."""
    out = RAT_ONE
    qm1 = QPoly((-1, 1))
    for l in runs:
        for j in range(l):
            out = out * QRat(qm1, QPoly.monomial(l - j) - 1)
    return out


@lru_cache(maxsize=None)
def gl_order(l: int, q0: int) -> int:
    """#GL_l(F_{q0}) = prod_{i=0}^{l-1} (q0^l - q0^i)."""
    out = 1
    for i in range(l):
        out *= q0**l - q0**i
    return out


def hom_dim(E: BundleType, F: BundleType) -> int:
    """dim Hom(E, F) = sum over pairs of max(0, b - a + 1)."""
    return sum(max(0, b - a + 1) for a in E.degrees for b in F.degrees)


def ext1_dim(F: BundleType, G: BundleType) -> int:
    """dim Ext^1(F, G) = sum over pairs of max(0, a - b - 1)."""
    return sum(max(0, a - b - 1) for a in F.degrees for b in G.degrees)


def aut_order(E: BundleType, q0: int) -> int:
    """#Aut(E) for a split bundle over F_{q0}.

    Automorphisms are block-triangular: GL_{l_i} on each equal-degree block,
    times the unipotent part q0^(dim Hom from lower to higher blocks), with
    dim Hom(O(a), O(b)) = b - a + 1 for a <= b.
    """
    groups = E.grouped()
    out = 1
    for _, l in groups:
        out *= gl_order(l, q0)
    exp = 0
    for i, (bi, li) in enumerate(groups):
        for bj, lj in groups[i + 1 :]:
            exp += li * lj * (bj - bi + 1)
    return out * q0**exp


# --- closed points ---------------------------------------------------------


class ClosedPoint:
    """Closed point of P^1 over F_q: degree d, optional explicit polynomial.

    q must be a prime power, the size of a field.  poly, when present, is
    the monic irreducible of degree d over F_q (prime q required for the
    modular arithmetic), little-endian in t; it is the uniformizer used by
    the SNF oracle.
    """

    __slots__ = ("q", "d", "poly")

    def __init__(self, q: int, d: int, poly=None):
        if d < 1:
            raise ValueError("point degree must be >= 1")
        if poly is None:
            fpoly.prime_power(q)  # no field F_q exists otherwise
        else:
            if not fpoly.is_prime(q):
                raise ValueError(f"explicit-poly points need prime q, got {q}")
            poly = fpoly.trim(int(c) % q for c in poly)
            if len(poly) - 1 != d:
                raise ValueError(f"poly degree {len(poly)-1} != point degree {d}")
            if poly[-1] != 1:
                raise ValueError("point poly must be monic")
            if not fpoly.is_irreducible(poly, q):
                raise ValueError(f"point poly {list(poly)} reducible over F_{q}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "poly", poly)

    def __setattr__(self, name, value):
        raise AttributeError("ClosedPoint is immutable")

    def __eq__(self, other):
        if not isinstance(other, ClosedPoint):
            return NotImplemented
        return (self.q, self.d, self.poly) == (other.q, other.d, other.poly)

    def __hash__(self):
        return hash(("ClosedPoint", self.q, self.d, self.poly))

    def __repr__(self):
        if self.poly is None:
            return f"ClosedPoint(q={self.q}, d={self.d})"
        return f"ClosedPoint(q={self.q}, d={self.d}, poly={list(self.poly)})"

    def poly_pretty(self) -> str:
        if self.poly is None:
            return f"<degree {self.d}>"
        return QPoly(self.poly).pretty().replace("q", "t")

    def to_json(self) -> dict:
        out = {"q": self.q, "degree": self.d}
        if self.poly is not None:
            out["poly"] = list(self.poly)
        return out

    @staticmethod
    def from_json(obj: dict) -> "ClosedPoint":
        return ClosedPoint(obj["q"], obj["degree"], obj.get("poly"))
