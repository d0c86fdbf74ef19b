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
coefficient 1 and a_fold equal products give [a]_q! copies.  So straightening
a word returns bundle classes directly: an ascending word with runs l_i is
prod_i [l_i]_q! times its class.  Multiplicity extraction: m_{x,r}(E', E) is
the coefficient of [E] in K_x^r * [E'].

Coefficients are exact polynomials in an indeterminate q, so one
computation covers every finite base field at once.  Every structure
constant is a count, so a HallElement is a Z[q]-combination.  The only
ratio is the normalization Q(E) = 1/prod_i [l_i]_q! of bundles.q_factor;
`_normalized` applies it by dividing each term exactly by its denominator,
and a remainder would mean the engine is broken, so it raises
HallIntegrityError.  The run factors prod_i [l_i]_q! are computed here
with q_factorial, not read off Q(E): if both came from q_factor, a wrong
Q(E) would multiply in and divide out again, and the exact division would
no longer check it.  K_x^r *
[E] is derived twice, recursively and in closed form, as a table from
(word, torsion left) to the exponent e of a single monomial q^e, in int
arithmetic only.  The expansion is cached one torsion layer at a time:
layer s straightens, in Z[q], only the words with s copies of torsion left
and normalizes them by Q(E).  Every term lies in exactly one layer, so the
layers divide exactly when the whole product does.  A multiplicity reads
layer 0 alone; kx_times joins the layers max(0, r-n) <= s <= r.

Inside the straightening and a layer, every coefficient is multiplied only
by signed monomials +-q^k, so both sum Z[q] coefficients as plain int
lists, each cached sub-result added at its shift, and build one QPoly per
class when the sum is done.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .bundles import BundleType, q_factor
from .deltas import enumerate_deltas, weight
from .qcalc import ONE, ZERO, QPoly, q_factorial

__all__ = [
    "HallTerm",
    "HallElement",
    "HallIntegrityError",
    "word_product",
    "bundle_product",
    "kx_times",
    "hall_multiplicity",
]

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
    """Finite Z[q]-combination of HallTerms: QPoly coefficients, zeros dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for term, coeff in (terms or {}).items():
            if not isinstance(coeff, QPoly):
                coeff = QPoly(coeff)
            if coeff:
                clean[term] = coeff
        self.terms = clean

    def coeff(self, term: HallTerm) -> QPoly:
        return self.terms.get(term, ZERO)

    def __add__(self, other: "HallElement") -> "HallElement":
        out = dict(self.terms)
        for term, coeff in other.terms.items():
            out[term] = out.get(term, ZERO) + coeff
        return HallElement(out)

    def scale(self, factor) -> "HallElement":
        """Every coefficient times factor, an int or a QPoly."""
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
                "coeff_num": list(coeff.coeffs),
                "coeff_den": [1],
            }
            for term, coeff in self.items()
        ]


def _add_shifted(acc: list, coeffs: tuple, shift: int, sign: int = 1) -> None:
    """acc += sign * q^shift * coeffs on little-endian int lists; acc grows
    as needed."""
    grow = shift + len(coeffs) - len(acc)
    if grow > 0:
        acc.extend([0] * grow)
    for k, x in enumerate(coeffs, shift):
        acc[k] += sign * x


@lru_cache(maxsize=None)
def _straighten(word: tuple) -> tuple:
    """O(e_1)*...*O(e_k) over bundle classes: a sorted tuple of (BundleType, QPoly).

    Rewrites the rightmost adjacent inversion O(n)*O(m), n > m.  The middle
    term of the rewriting rule with equal degrees c = (n+m)/2 is a class
    [O(c)+O(c)] = word(c,c)/(q+1); the division cancels against q^2-1 and
    keeps every coefficient in Z[q].  Terminates because each rewrite
    strictly decreases the total inversion gap.  An ascending word with run
    lengths l_i is prod_i [l_i]_q! times its class, by the equal-degree
    product rule and the split rule for ascending distinct factors; that
    factor comes from q_factorial, independently of bundles.q_factor, so
    `_normalized` still checks Q(E).

    Each replacement coefficient is a sum of signed monomials: q^(gap+1),
    (q^2-1)q^(gap-1) = q^(gap+1) - q^(gap-1) and (q-1)q^(gap-1) = q^gap -
    q^(gap-1).  The sub-results' coefficients are added into one int list
    per class at those shifts, and each list becomes one QPoly.
    """
    for j in range(len(word) - 2, -1, -1):
        if word[j] > word[j + 1]:
            break
    else:
        E = BundleType(word)
        coeff = ONE
        for _, length in E.grouped():
            if length > 1:  # [1]_q! = 1
                coeff = coeff * q_factorial(length)
        return ((E, coeff),)
    hi, lo = word[j], word[j + 1]
    pre, suf = word[:j], word[j + 2 :]
    gap = hi - lo
    # each replacement's coefficient as (shift, sign) monomials
    replacements = [((lo, hi), ((gap + 1, 1),))]
    for i in range(1, gap // 2 + 1):
        a, b = lo + i, hi - i
        top = gap + 1 if a < b else gap
        replacements.append(((a, b), ((top, 1), (gap - 1, -1))))
    sums: dict[BundleType, list] = {}
    for pair, monomials in replacements:
        for E, c in _straighten(pre + pair + suf):
            acc = sums.setdefault(E, [])
            for shift, sign in monomials:
                _add_shifted(acc, c.coeffs, shift, sign)
    out = ((E, QPoly(acc)) for E, acc in sums.items())
    return tuple(sorted((E, c) for E, c in out if c))


def word_product(degrees) -> HallElement:
    """Hall product of line bundles O(e_1)*...*O(e_k), left = quotient side.

    The result has no torsion terms.
    """
    word = tuple(degrees)
    if not word:
        raise ValueError("empty word has no bundle terms")
    # checked before the cache: True and 1.0 are the same key as 1
    if not set(map(type, word)) <= {int}:
        raise TypeError(f"word degrees must be ints, got {word!r}")
    return HallElement({HallTerm(E, 0): c for E, c in _straighten(word)})


def _normalized(coeffs: dict, den: QPoly) -> HallElement:
    """The Z[q]-combination coeffs times 1/den, a product of Q(E)s.

    Each Q(E) = 1/prod_i [l_i]_q! has numerator 1, so each coefficient is
    only divided, exactly, by den; a remainder means a count that is not
    in Z[q], so the engine is broken.
    """
    if den.coeffs == (1,):  # no repeated degree
        return HallElement(coeffs)
    out = {}
    for term, c in coeffs.items():
        try:
            out[term] = c // den
        except ValueError:
            raise HallIntegrityError(
                f"coefficient {c.pretty()} of [{term.pretty()}] times "
                f"(1)/({den.pretty()}) is not in Z[q]"
            ) from None
    return HallElement(out)


def bundle_product(F: BundleType, G: BundleType) -> HallElement:
    """[F] * [G]: the word product of both degree lists, divided by the
    denominators of Q(F) and Q(G)."""
    word = word_product(F.degrees + G.degrees)
    return _normalized(word.terms, q_factor(F).den * q_factor(G).den)


def _kx_recursive_table(r: int, E: BundleType, d: int) -> dict:
    """K_x^r * [E] by pushing the torsion through one letter at a time.

    Maps (word, torsion left) to the exponent e of its coefficient q^e.
    Each letter m either absorbs one torsion copy (degree m+d, exponent
    kept) or passes the s copies left along (exponent plus s*d).  The word
    records which letters absorbed, so every state is reached once.
    """
    states = {((), r): 0}
    for m in E.degrees:
        nxt = {}
        for (w, s), e in states.items():
            if s > 0:
                nxt[w + (m + d,), s - 1] = e
            nxt[w + (m,), s] = e + s * d
        states = nxt
    return states


def _kx_closed_table(r: int, E: BundleType, d: int) -> dict:
    """K_x^r * [E] by the closed sum over partial delta vectors.

    The same table as `_kx_recursive_table`.  The layer with i absorbed
    copies runs over sigma with i ones; the exponent is d times
    (weight(sigma) + (n-i)(r-i)), the weight statistic taken with the full
    budget r rather than sigma's own count.
    """
    n = E.rank
    table = {}
    for i in range(min(r, n) + 1):  # no sigma has more ones than slots
        for sigma in enumerate_deltas(n, i):
            word = tuple(deg + sigma(j + 1) * d for j, deg in enumerate(E.degrees))
            table[word, r - i] = (weight(sigma) + (n - i) * (r - i)) * d
    return table


_KX_TABLES = {"recursive": _kx_recursive_table, "closed": _kx_closed_table}


def _check_kx(r: int, d: int, method: str) -> None:
    # before any cache: lru_cache keys 2.0 and True like 2 and 1
    if type(r) is not int or type(d) is not int:
        raise TypeError(f"r and d must be ints, got r={r!r}, d={d!r}")
    if r < 1:
        raise ValueError(f"kx_times needs r >= 1, got {r}")
    if d < 1:
        raise ValueError(f"point degree must be >= 1, got {d}")
    if method not in _KX_TABLES:
        raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=None)
def _kx_layer(r: int, E: BundleType, d: int, method: str, s: int) -> HallElement:
    """The terms of K_x^r * [E] with s torsion copies left.

    Straightens only the table's words in layer s; q^e * c is c's
    coefficients shifted by e, added into one int list per term.  Each
    list becomes one QPoly, divided by the denominator of Q(E).
    """
    sums: dict[HallTerm, list] = {}
    for (word, left), e in _KX_TABLES[method](r, E, d).items():
        if left != s:
            continue
        for B, wc in _straighten(word):
            _add_shifted(sums.setdefault(HallTerm(B, s), []), wc.coeffs, e)
    return _normalized({term: QPoly(acc) for term, acc in sums.items()}, q_factor(E).den)


def kx_times(r: int, E: BundleType, d: int, method: str = "recursive") -> HallElement:
    """K_x^{r} * [E] at a point of degree d, torsion terms included.  r and
    d must be ints, bool refused: TypeError, cold or cached alike."""
    _check_kx(r, d, method)
    out = {}
    for s in range(max(0, r - E.rank), r + 1):
        out.update(_kx_layer(r, E, d, method, s).terms)
    return HallElement(out)


def hall_multiplicity(E_prime: BundleType, E: BundleType, d: int, r: int) -> QPoly:
    """m_{x,r}(E', E) as a polynomial in q: coeff of [E] in K_x^r * [E'].

    Zero when the degree bookkeeping deg E - deg E' = r*d fails.  Only the
    torsion-free layer of the product is built; a coefficient of it outside
    Z[q] raises HallIntegrityError when the layer is normalized.  d and r
    must be ints, bool refused: TypeError, cold or cached alike.
    """
    if type(d) is not int or type(r) is not int:
        raise TypeError(f"d and r must be ints, got d={d!r}, r={r!r}")
    if E_prime.rank != E.rank:
        raise ValueError(f"rank mismatch: {E_prime.pretty()} vs {E.pretty()}")
    if E.degree - E_prime.degree != r * d:
        return ZERO
    if r == 0:
        return ONE if E_prime == E else ZERO
    _check_kx(r, d, "recursive")
    return _kx_layer(r, E_prime, d, "recursive", 0).coeff(HallTerm(E, 0))

