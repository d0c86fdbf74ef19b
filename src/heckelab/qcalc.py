"""Exact arithmetic in Z[q], the ratio Q(E), and q-combinatorial counts.

A QPoly is an integer-coefficient polynomial in the formal variable q, stored
little-endian: coeffs[i] is the coefficient of q^i; every structure constant
of the Hall algebra of Coh(P^1) is one.  Its one constructor checks that each
coefficient is an int (bool is refused) and raises TypeError otherwise; it
converts nothing, so a Fraction or a float can never be silently truncated,
and it trims trailing zeros.

A QRat is the normalization Q(E) of bundles.q_factor as a reduced ratio
num/den of two QPolys.  It has no arithmetic: Q(E) = 1/prod_i [l_i]_q!
has numerator 1, so the Hall engine applies it by dividing its Z[q]
counts exactly by den.  Canonical form: gcd(num, den) = 1 in Z[q]
(including integer content) and the leading coefficient of den is
positive.  gcd in Z[q] is computed by the content / primitive-part
splitting with a pseudo-remainder Euclidean loop.

The Grassmannian point count #Gr(k,n)(F_q) is the Gaussian binomial
    [n choose k]_q = prod_{i=0}^{k-1} (q^{n-i} - 1) / (q^{k-i} - 1),
an exact polynomial division since the denominator product is monic.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd as int_gcd

__all__ = [
    "QPoly",
    "QRat",
    "ZERO",
    "ONE",
    "Q",
    "gaussian_binomial",
    "q_factorial",
]


class QPoly:
    """Integer-coefficient polynomial in q; immutable, little-endian coeffs."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        coeffs = tuple(coeffs)
        if not set(map(type, coeffs)) <= {int}:
            raise TypeError(f"QPoly coefficients must be ints, got {coeffs!r}")
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        object.__setattr__(self, "coeffs", coeffs[:n])

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @staticmethod
    def monomial(k: int, c: int = 1) -> "QPoly":
        """c * q^k."""
        if k < 0:
            raise ValueError(f"monomial needs k >= 0, got {k}")
        return QPoly((0,) * k + (c,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPoly(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("QPoly", self.coeffs))

    def __neg__(self):
        return QPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, int):
            other = QPoly(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = QPoly(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return QPoly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            other = QPoly(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"QPoly power needs k >= 0, got {k}")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        """Long division over Z; every quotient step must divide exactly."""
        quo, rem = _long_division(self, other)
        return QPoly(quo), QPoly(rem)

    def __floordiv__(self, other):
        if isinstance(other, int):
            other = QPoly(other)
        quo, rem = _long_division(self, other)
        if any(rem):
            raise ValueError(f"non-exact division: {self} by {other}")
        return QPoly(quo)

    def content(self) -> int:
        """gcd of the coefficients, nonnegative; 0 for the zero polynomial."""
        g = 0
        for c in self.coeffs:
            g = int_gcd(g, abs(c))
        return g

    def primitive(self) -> "QPoly":
        g = self.content()
        if g <= 1:
            return self
        return QPoly(tuple(c // g for c in self.coeffs))

    def evaluate(self, q0):
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def pretty(self) -> str:
        """Human form like 'q^2+q+1', highest power first."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self):
        return f"QPoly({self.pretty()})"


ZERO = QPoly()
ONE = QPoly(1)
Q = QPoly((0, 1))


def _long_division(a: QPoly, b: QPoly) -> tuple[list, list]:
    """Quotient and remainder of a by b over Z as int lists, untrimmed;
    every quotient step must divide exactly."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    b_coeffs = b.coeffs
    db, lb = len(b_coeffs) - 1, b_coeffs[-1]
    quo = [0] * max(0, len(rem) - db)
    for shift in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[shift + db], lb)
        if r:
            raise ValueError(f"non-exact division: {a} by {b}")
        if c:
            quo[shift] = c
            for i, cb in enumerate(b_coeffs, shift):
                rem[i] -= c * cb
    return quo, rem


def _pseudo_rem(a: QPoly, b: QPoly) -> QPoly:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, over Z."""
    d = a.degree - b.degree + 1
    scaled = a * QPoly(b.leading() ** max(d, 0))
    _, r = scaled.divmod(b)
    return r


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """gcd in Z[q], positive leading coefficient (content included)."""
    if a.is_zero():
        g = b
    elif b.is_zero():
        g = a
    else:
        cont = int_gcd(a.content(), b.content())
        a, b = a.primitive(), b.primitive()
        while not b.is_zero():
            r = _pseudo_rem(a, b).primitive()
            a, b = b, r
        g = a * QPoly(cont)
    if g.leading() < 0:
        g = -g
    return g


class QRat:
    """Q(E) as a reduced ratio of QPolys, in canonical form; no arithmetic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        if isinstance(num, int):
            num = QPoly(num)
        if isinstance(den, int):
            den = QPoly(den)
        if den.is_zero():
            raise ZeroDivisionError("QRat with zero denominator")
        if num.is_zero():
            num, den = ZERO, ONE
        elif den.coeffs != (1,):  # gcd(num, 1) = 1: already canonical
            g = poly_gcd(num, den)
            if g != ONE:
                num = num // g
                den = den // g
            if den.leading() < 0:
                num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("QRat is immutable")

    def pretty(self) -> str:
        if self.den == ONE:
            return self.num.pretty()
        return f"({self.num.pretty()})/({self.den.pretty()})"

    def __repr__(self):
        return f"QRat({self.pretty()})"


def _refuse_non_ints(name: str, *args) -> None:
    """TypeError unless every argument is an int, bool refused.  A cached
    function checks here first: lru_cache keys 2.0 and True like 2 and 1."""
    if not set(map(type, args)) <= {int}:
        raise TypeError(f"{name} needs ints, got {', '.join(map(repr, args))}")


def gaussian_binomial(k: int, n: int) -> QPoly:
    """#Gr(k,n)(F_q) as a polynomial in q.

    Exact product-formula division; symmetric in k <-> n-k.
    """
    _refuse_non_ints("gaussian_binomial", k, n)
    return _gaussian_binomial(k, n)


@lru_cache(maxsize=None)
def _gaussian_binomial(k: int, n: int) -> QPoly:
    if not 0 <= k <= n:
        raise ValueError(f"gaussian_binomial needs 0 <= k <= n, got ({k}, {n})")
    num, den = ONE, ONE
    for i in range(k):
        num = num * (QPoly.monomial(n - i) - 1)
        den = den * (QPoly.monomial(k - i) - 1)
    return num // den


def q_factorial(a: int) -> QPoly:
    """[a]_q! = prod_{i=1}^{a} [i]_q, where [i]_q = 1 + q + ... + q^{i-1}."""
    _refuse_non_ints("q_factorial", a)
    return _q_factorial(a)


@lru_cache(maxsize=None)
def _q_factorial(a: int) -> QPoly:
    if a < 0:
        raise ValueError(f"q_factorial needs a >= 0, got {a}")
    out = ONE
    for i in range(1, a + 1):
        out = out * QPoly((1,) * i)
    return out
