"""Exact q-arithmetic: canonical forms, Gaussian binomials, evaluation."""

import random
from fractions import Fraction
from itertools import product

import pytest

from heckelab import bundles, qcalc
from heckelab.qcalc import (
    ONE,
    Q,
    ZERO,
    QPoly,
    QRat,
    gaussian_binomial,
    poly_gcd,
    q_factorial,
)


def brute_subspace_count(k, n, q):
    """Count k-dim subspaces of F_q^n by enumerating spans; prime q only."""

    def vsub(u, v, c):
        return tuple((a - c * b) % q for a, b in zip(u, v))

    def rref(rows):
        rows = [r for r in rows]
        out = []
        col = 0
        while rows and col < n:
            pivot = next((r for r in rows if r[col] % q != 0), None)
            if pivot is None:
                col += 1
                continue
            rows.remove(pivot)
            inv = pow(pivot[col], -1, q)
            pivot = tuple(c * inv % q for c in pivot)
            rows = [vsub(r, pivot, r[col]) for r in rows]
            out = [vsub(r, pivot, r[col]) for r in out]
            out.append(pivot)
            col += 1
        return tuple(out)

    vectors = list(product(range(q), repeat=n))
    seen = set()
    for combo in product(vectors, repeat=k):
        basis = rref(combo)
        if len(basis) == k:
            seen.add(basis)
    return len(seen)


def test_qpoly_basics():
    p = QPoly((1, 0, 1))
    assert p.degree == 2
    assert p.pretty() == "q^2+1"
    assert (Q + 1) * (Q - 1) == QPoly((-1, 0, 1))
    assert QPoly((0, 0, 0)) == ZERO
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2) and QPoly((0, 0, 3)).coeffs == (0, 0, 3)
    assert QPoly(0).coeffs == QPoly().coeffs == ()
    assert QPoly(iter([-1, 0, 1])) == Q**2 - 1
    assert Q**3 == QPoly.monomial(3)
    assert (-Q).pretty() == "-q"
    assert (2 * Q**3 - Q + 5).pretty() == "2q^3-q+5"


@pytest.mark.parametrize(
    "coeffs",
    [[Fraction(1, 2)], (2.9, "3"), (1.0,), 1.0, "12", (True,), True, (1, False), [Fraction(2)]],
    ids=repr,
)
def test_qpoly_rejects_entries_that_are_not_ints(coeffs):
    """No int() conversion: Fraction(1, 2) used to become 0 and (2.9, "3")
    the polynomial 3q+2."""
    with pytest.raises(TypeError):
        QPoly(coeffs)


def test_qpoly_divmod_exact_and_errors():
    num = Q**2 - 1
    quo, rem = num.divmod(Q - 1)
    assert quo == Q + 1 and rem.is_zero()
    with pytest.raises(ZeroDivisionError):
        num.divmod(ZERO)
    # 1 step of non-exact integer division must refuse, not truncate
    with pytest.raises(ValueError):
        Q.divmod(QPoly(2) * Q)


def test_qpoly_divmod_recovers_quotient_and_remainder():
    """(a*b + r).divmod(b) == (a, r) whenever deg r < deg b and the leading
    coefficient of b is +-1, so every quotient step divides exactly."""
    rng = random.Random(20261018)

    def rand_poly(deg, lead=None):
        coeffs = [rng.randint(-6, 6) for _ in range(deg + 1)]
        if lead is not None:
            coeffs[-1] = lead
        return QPoly(coeffs)

    for trial in range(300):
        lead = (1, 1, -1)[trial % 3]  # monic b twice as often as lead -1
        b = rand_poly(rng.randint(0, 5), lead)
        a = rand_poly(rng.randint(-1, 6))
        r = rand_poly(rng.randint(-1, b.degree - 1))
        assert r.degree < b.degree
        assert (a * b + r).divmod(b) == (a, r)
        assert (a * b) // b == a
    with pytest.raises(ZeroDivisionError):
        (Q + 1).divmod(ZERO)
    with pytest.raises(ZeroDivisionError):
        ZERO.divmod(ZERO)
    # the first step is exact, the second is not: 2q^2 + q by 2q + 2
    with pytest.raises(ValueError, match="non-exact division"):
        QPoly((0, 1, 2)).divmod(QPoly((2, 2)))
    with pytest.raises(ValueError, match="non-exact division"):
        (Q**3 + 1) // (Q + 2)


def rat(num, den=ONE):
    """The canonical form of num/den as QRat builds it: (num, den)."""
    r = QRat(num, den)
    return r.num, r.den


def test_qrat_examples():
    # the products 1/(q+1) * (q+1), (q^2-1) * 1/(q-1) and
    # (q-1)/(q^2-1) * (q-1)/(q-1), written as one fraction each
    assert rat(ONE * (Q + 1), (Q + 1) * ONE) == (ONE, ONE)
    assert rat((Q**2 - 1) * ONE, ONE * (Q - 1)) == (Q + 1, ONE)
    assert rat(Q - 1, Q**2 - 1) == (ONE, Q + 1)
    assert rat((Q - 1) * (Q - 1), (Q**2 - 1) * (Q - 1)) == (ONE, Q + 1)


def test_qrat_canonical_form():
    r = QRat(QPoly((2, 2)), QPoly((0, 2)))  # (2q+2)/(2q)
    assert r.num == Q + 1 and r.den == Q
    assert rat(-(Q + 1), -(Q**2)) == (Q + 1, Q**2)  # den's leading coefficient > 0
    with pytest.raises(ZeroDivisionError):
        QRat(ONE, ZERO)


def test_qrat_reduction_randomized():
    """p*h / d*h reduces to the form of p/d: coprime, den leading > 0, and
    the same value at every q0 where d does not vanish."""
    rng = random.Random(20240817)

    def rand_poly():
        return QPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])

    def rand_nonzero():
        p = ZERO
        while p.is_zero():
            p = rand_poly()
        return p

    for _ in range(60):
        p, d, h = rand_poly(), rand_nonzero(), rand_nonzero()
        num, den = rat(p, d)
        assert rat(p * h, d * h) == (num, den)
        assert rat(num, den) == (num, den)
        assert den.leading() > 0 and poly_gcd(num, den) == ONE
        for q0 in (5, 7):  # an integer root of d divides a coefficient in [-4, 4]
            assert Fraction(num.evaluate(q0), den.evaluate(q0)) == Fraction(
                p.evaluate(q0), d.evaluate(q0)
            )


def test_qrat_denominator_one_is_canonical():
    """The gcd is skipped for a denominator of one; the result must still
    be the reduced form of any scaled fraction p*h / h."""
    rng = random.Random(20261018)

    def rand_poly():
        return QPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])

    for _ in range(80):
        p, h = rand_poly(), rand_poly()
        if h.is_zero():
            continue
        scaled = QRat(p * h, h)
        for r in (QRat(p), QRat(p, 1), QRat(p, ONE)):
            assert (r.num, r.den) == (scaled.num, scaled.den)


def test_poly_gcd_content_and_primitive():
    g = poly_gcd(QPoly((2, 2)), QPoly((0, 4)))
    assert g == QPoly(2)
    g = poly_gcd((Q + 1) * (Q - 1), (Q + 1) * Q)
    assert g == Q + 1
    assert poly_gcd(ZERO, -(Q + 2)) == Q + 2


def test_gaussian_binomial_examples():
    assert gaussian_binomial(1, 2) == Q + 1
    for n in range(7):
        assert gaussian_binomial(0, n) == ONE
    assert gaussian_binomial(2, 4).evaluate(2) == 35
    with pytest.raises(ValueError):
        gaussian_binomial(3, 2)


def test_gaussian_binomial_vs_brute_subspace_count():
    # independent enumeration over small prime fields (q^(n*k) span tuples)
    for q, n_max in ((2, 4), (3, 3)):
        for n in range(n_max + 1):
            for k in range(n + 1):
                assert gaussian_binomial(k, n).evaluate(q) == brute_subspace_count(
                    k, n, q
                )
    assert gaussian_binomial(2, 4).evaluate(2) == brute_subspace_count(2, 4, 2) == 35


def test_gaussian_binomial_symmetry_and_pascal():
    for n in range(9):
        for k in range(n + 1):
            assert gaussian_binomial(k, n) == gaussian_binomial(n - k, n)
            if 1 <= k <= n - 1:
                rec = QPoly.monomial(k) * gaussian_binomial(k, n - 1) + gaussian_binomial(
                    k - 1, n - 1
                )
                assert gaussian_binomial(k, n) == rec


def test_q_int_and_factorial():
    assert q_factorial(0) == ONE
    assert q_factorial(2) == Q + 1
    assert q_factorial(3) == (Q + 1) * QPoly((1, 1, 1))


# Range guards raise, so they hold under python -O too: an assert there
# let monomial(-2) and q_factorial(-2) return 1.
def test_monomial_refuses_a_negative_exponent():
    with pytest.raises(ValueError, match="k >= 0"):
        QPoly.monomial(-2)


def test_power_refuses_a_negative_exponent():
    with pytest.raises(ValueError, match="k >= 0"):
        Q ** -1


def test_q_factorial_refuses_a_negative_argument():
    with pytest.raises(ValueError, match="a >= 0"):
        q_factorial(-2)


def test_evaluate():
    assert (Q + 1).evaluate(4) == 5
    assert ZERO.evaluate(17) == 0
    assert gaussian_binomial(1, 3).evaluate(2) == 7


#: each public function that keeps a cache, its private cache, and int
#: arguments it answers
CACHED = [
    (gaussian_binomial, qcalc._gaussian_binomial, (1, 3)),
    (q_factorial, qcalc._q_factorial, (3,)),
    (bundles.gl_order, bundles._gl_order, (2, 2)),
]


def outcome(f, args):
    """f(*args), or the type and text of the error it raises."""
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("public, cache, ints", CACHED, ids=lambda v: getattr(v, "__name__", ""))
def test_cached_functions_answer_alike_cold_and_warm(public, cache, ints):
    """lru_cache keys 2.0 and True like 2 and 1: gl_order(2, 2.0) used to
    raise cold and return 6 once gl_order(2, 2) was cached."""
    cache.cache_clear()
    assert outcome(public, ints) == outcome(public, ints)
    for position in range(len(ints)):
        for twin in (float(ints[position]), True):
            args = ints[:position] + (twin,) + ints[position + 1 :]
            cache.cache_clear()
            cold = outcome(public, args)
            outcome(public, tuple(map(int, args)))  # the int key the twin shares
            assert outcome(public, args) == cold, args
            assert cold[0] == "TypeError", args
