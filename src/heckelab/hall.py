"""Hall-algebra engine for coherent sheaves on P^1 supported by one point.

Products live in the span of classes [E + K_x^s]: a vector bundle plus
semisimple torsion at a single closed point x of degree d.  The structure
constants phi^B_{F,G} count subsheaves of B isomorphic to G with quotient
isomorphic to F, so in a product F * G the left factor is the quotient
side.  Everything reduces to two rewriting moves:

  * an inverted pair of line bundles, n > m:
      O(n) * O(m) = q^{n-m+1} [O(m)+O(n)]
                  + sum_{i=1}^{floor((n-m)/2)} (q^2-1) q^{n-m-1} [O(m+i)+O(n-i)]
  * torsion through a line bundle:
      K_x^s * O(m) = [O(m+d) + K_x^{s-1}] + q^{sd} [O(m) + K_x^s]

plus the degenerate facts that ascending distinct products split with
coefficient 1 and a_fold equal products give [a]_q! copies.  Multiplicity
extraction: m_{x,r}(E', E) is the coefficient of [E] in K_x^r * [E'].

Coefficients are exact polynomials or ratios in an indeterminate q, so one
computation covers every finite base field at once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .bundles import BundleType, q_factor
from .deltas import enumerate_deltas, weight
from .qcalc import QPoly, QRat, q_factorial

__all__ = [
    "HallTerm",
    "HallElement",
    "HallIntegrityError",
    "word_product",
    "bundle_product",
    "kx_times",
    "vec_part",
    "hall_multiplicity",
    "realizing_deltas",
]

_ONE = QPoly((1,))
_QQ_MINUS = QPoly((-1, 0, 1))  # q^2 - 1
_Q_MINUS = QPoly((-1, 1))  # q - 1


class HallIntegrityError(RuntimeError):
    """An exact identity the engine guarantees failed; abort loudly."""


class HallTerm(NamedTuple):
    bundle: BundleType
    torsion_weight: int = 0

    def pretty(self) -> str:
        """The class label, e.g. O(-1)+O(2)+K^1."""
        label = self.bundle.pretty()
        if self.torsion_weight:
            label += f"+K^{self.torsion_weight}"
        return label


class HallElement:
    """Finite QRat-combination of HallTerms; zero coefficients dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for term, coeff in (terms or {}).items():
            if not isinstance(coeff, QRat):
                coeff = QRat.of(coeff)
            if not coeff.is_zero():
                clean[term] = coeff
        self.terms = clean

    def coeff(self, term: HallTerm) -> QRat:
        return self.terms.get(term, QRat.of(0))

    def __add__(self, other: "HallElement") -> "HallElement":
        out = dict(self.terms)
        for term, coeff in other.terms.items():
            out[term] = out.get(term, QRat.of(0)) + coeff
        return HallElement(out)

    def scale(self, factor) -> "HallElement":
        if not isinstance(factor, QRat):
            factor = QRat.of(factor)
        return HallElement({t: c * factor for t, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, HallElement) and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def items(self):
        return sorted(self.terms.items(), key=lambda tc: (tc[0].bundle, tc[0].torsion_weight))

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c.pretty()})*({t.pretty()})" for t, c in self.items())

    def __repr__(self):
        return f"HallElement({self.pretty()})"

    def to_json(self):
        return [
            {
                "degrees": list(term.bundle.degrees),
                "torsion": term.torsion_weight,
                "coeff_num": list(coeff.num.coeffs),
                "coeff_den": list(coeff.den.coeffs),
            }
            for term, coeff in self.items()
        ]


@lru_cache(maxsize=None)
def _straighten(word: tuple) -> tuple:
    """Expand a word over ascending words: tuple of (ascending_word, QPoly).

    Rewrites the rightmost adjacent inversion O(n)*O(m), n > m.  The middle
    term of the rewriting rule with equal degrees c = (n+m)/2 is a class
    [O(c)+O(c)] = word(c,c)/(q+1); the division cancels against q^2-1 and
    keeps every coefficient in Z[q].  Terminates because each rewrite
    strictly decreases the total inversion gap.
    """
    for j in range(len(word) - 2, -1, -1):
        if word[j] > word[j + 1]:
            break
    else:
        return ((word, _ONE),)
    hi, lo = word[j], word[j + 1]
    pre, suf = word[:j], word[j + 2 :]
    gap = hi - lo
    replacements = [((lo, hi), QPoly.monomial(gap + 1))]
    inner = QPoly.monomial(gap - 1)
    for i in range(1, gap // 2 + 1):
        a, b = lo + i, hi - i
        if a < b:
            replacements.append(((a, b), _QQ_MINUS * inner))
        else:
            replacements.append(((a, a), _Q_MINUS * inner))
    out: dict[tuple, QPoly] = {}
    for pair, coeff in replacements:
        for asc, c in _straighten(pre + pair + suf):
            out[asc] = out.get(asc, QPoly(())) + coeff * c
    return tuple(sorted((w, c) for w, c in out.items() if not c.is_zero()))


def _word_element(degrees: tuple) -> dict[BundleType, QPoly]:
    """O(e_1)*...*O(e_k) as a Z[q]-combination of bundle classes.

    An ascending word with run lengths l_i is prod_i [l_i]_q! times the
    bundle class, by the equal-degree product rule and the split rule for
    ascending distinct factors.
    """
    out: dict[BundleType, QPoly] = {}
    for asc, coeff in _straighten(tuple(degrees)):
        E = BundleType(asc)
        full = coeff
        for _, length in E.grouped():
            full = full * q_factorial(length)
        out[E] = out.get(E, QPoly(())) + full
    return out


def word_product(degrees) -> HallElement:
    """Hall product of line bundles O(e_1)*...*O(e_k), left = quotient side.

    The result has no torsion terms.
    """
    if not degrees:
        raise ValueError("empty word has no bundle terms")
    return HallElement(
        {HallTerm(E, 0): QRat.of(c) for E, c in _word_element(tuple(degrees)).items()}
    )


def bundle_product(F: BundleType, G: BundleType) -> HallElement:
    """[F] * [G]: normalize both words by Q and multiply."""
    factor = q_factor(F) * q_factor(G)
    return word_product(tuple(F.degrees) + tuple(G.degrees)).scale(factor)


@lru_cache(maxsize=None)
def _kx_recursive(r: int, E: BundleType, d: int) -> HallElement:
    """K_x^r * [E] by pushing the torsion through one letter at a time.

    State (w, s, c): the processed prefix w, remaining torsion s, and
    accumulated coefficient c; each letter m either absorbs one torsion
    copy (degree m+d) or passes it along at cost q^{sd}.
    """
    states = {((), r): _ONE}
    for m in E.degrees:
        nxt: dict[tuple, QPoly] = {}
        for (w, s), c in states.items():
            if s > 0:
                key = (w + (m + d,), s - 1)
                nxt[key] = nxt.get(key, QPoly(())) + c
            key = (w + (m,), s)
            nxt[key] = nxt.get(key, QPoly(())) + c * QPoly.monomial(s * d)
        states = nxt
    out: dict[HallTerm, QRat] = {}
    for (w, s), c in states.items():
        for B, wc in _word_element(w).items():
            term = HallTerm(B, s)
            out[term] = out.get(term, QRat.of(0)) + QRat.of(c * wc)
    return HallElement(out).scale(q_factor(E))


@lru_cache(maxsize=None)
def _kx_closed(r: int, E: BundleType, d: int) -> HallElement:
    """K_x^r * [E] by the closed sum over partial delta vectors.

    The layer with i absorbed copies runs over sigma with i ones; the
    exponent is d times (weight(sigma) + (n-i)(r-i)), the weight statistic
    taken with the full budget r rather than sigma's own count.
    """
    n = E.rank
    out: dict[HallTerm, QRat] = {}
    for i in range(min(r, n) + 1):  # no sigma has more ones than slots
        for sigma in enumerate_deltas(n, i):
            expo = (weight(sigma) + (n - i) * (r - i)) * d
            shifted = tuple(
                deg + sigma(j + 1) * d for j, deg in enumerate(E.degrees)
            )
            for B, wc in _word_element(shifted).items():
                term = HallTerm(B, r - i)
                out[term] = out.get(term, QRat.of(0)) + QRat.of(QPoly.monomial(expo) * wc)
    return HallElement(out).scale(q_factor(E))


def kx_times(r: int, E: BundleType, d: int, method: str = "recursive") -> HallElement:
    """K_x^{r} * [E] at a point of degree d, torsion terms included."""
    if r < 1:
        raise ValueError(f"kx_times needs r >= 1, got {r}")
    if d < 1:
        raise ValueError(f"point degree must be >= 1, got {d}")
    if method == "recursive":
        return _kx_recursive(r, E, d)
    if method == "closed":
        return _kx_closed(r, E, d)
    raise ValueError(f"unknown method {method!r}")


def vec_part(h: HallElement) -> HallElement:
    """Restriction to torsion-free terms."""
    return HallElement({t: c for t, c in h.terms.items() if t.torsion_weight == 0})


def hall_multiplicity(E_prime: BundleType, E: BundleType, d: int, r: int) -> QPoly:
    """m_{x,r}(E', E) as a polynomial in q: coeff of [E] in K_x^r * [E'].

    Zero when the degree bookkeeping deg E - deg E' = r*d fails.  A
    coefficient that does not reduce to denominator one would mean the
    engine is broken, so that aborts rather than returning.
    """
    if E_prime.rank != E.rank:
        raise ValueError(f"rank mismatch: {E_prime.pretty()} vs {E.pretty()}")
    if E.degree - E_prime.degree != r * d:
        return QPoly(())
    if r == 0:
        return _ONE if E_prime == E else QPoly(())
    coeff = kx_times(r, E_prime, d).coeff(HallTerm(E, 0))
    if not coeff.is_polynomial():
        raise HallIntegrityError(
            f"non-polynomial multiplicity {coeff.pretty()} for "
            f"[{E_prime.pretty()} -> {E.pretty()}], d={d}, r={r}"
        )
    return coeff.as_poly()


def realizing_deltas(E_prime: BundleType, E: BundleType, d: int, r: int):
    """Delta vectors realizing the modification, as (delta, maximal) pairs.

    A delta realizes [E' -> E] when [E] appears in the word with degrees
    d'_i + delta(i)*d; maximal means of largest weight among those.
    """
    if E_prime.rank != E.rank:
        raise ValueError(f"rank mismatch: {E_prime.pretty()} vs {E.pretty()}")
    n = E.rank
    realized = []
    for delta in enumerate_deltas(n, r):
        shifted = tuple(
            deg + delta(j + 1) * d for j, deg in enumerate(E_prime.degrees)
        )
        if _word_element(shifted).get(E):
            realized.append(delta)
    if not realized:
        return []
    top = max(weight(delta) for delta in realized)
    return [(delta, weight(delta) == top) for delta in realized]
