"""Hall-product engine: worked examples, algebra laws, oracle agreement."""

import json
import random
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

import pytest

from heckelab import hall, hecke
from heckelab.bundles import BundleType, ClosedPoint, q_factor
from heckelab.cli import main
from heckelab.hall import (
    HallElement,
    HallIntegrityError,
    HallTerm,
    _kx_closed_table,
    _kx_layer,
    _kx_recursive_table,
    _straighten,
    bundle_product,
    hall_multiplicity,
    kx_times,
    word_product,
)
from heckelab.hecke import candidates
from heckelab.oracle import brute_multiplicity
from heckelab.qcalc import QPoly, QRat, gaussian_binomial, q_factorial
from heckelab.verify import _element_mul

Q = QPoly((0, 1))
ONE = QPoly((1,))


def B(*degrees):
    return BundleType(degrees)


def elem(pairs):
    return HallElement({HallTerm(b, s): c for b, s, c in pairs})


def test_word_product_ascending_pair():
    assert word_product([0, 1]) == elem([(B(0, 1), 0, 1)])


def test_word_product_single_inversion():
    assert word_product([1, 0]) == elem([(B(0, 1), 0, Q**2)])


def test_word_product_gap_two():
    assert word_product([2, 0]) == elem(
        [(B(0, 2), 0, Q**3), (B(1, 1), 0, (Q**2 - ONE) * Q)]
    )


def test_word_product_equal_letters():
    assert word_product([0, 0]) == elem([(B(0, 0), 0, Q + ONE)])
    assert word_product([5, 5, 5]) == elem(
        [(B(5, 5, 5), 0, (Q + ONE) * (Q**2 + Q + ONE))]
    )


def test_bundle_product_examples():
    assert bundle_product(B(0), B(0)) == elem([(B(0, 0), 0, Q + ONE)])
    assert bundle_product(B(2), B(0)) == elem(
        [(B(0, 2), 0, Q**3), (B(1, 1), 0, Q**3 - Q)]
    )
    assert bundle_product(B(0), B(2)) == elem([(B(0, 2), 0, 1)])


def test_bundle_product_with_multiplicity_normalization():
    # [O+O] * [O]: every coefficient stays polynomial after dividing by [2]_q!
    h = bundle_product(B(0, 0), B(0))
    assert h == elem([(B(0, 0, 0), 0, Q**2 + Q + ONE)])


def test_kx_times_single_line():
    assert kx_times(1, B(0), 2) == elem([(B(2), 0, 1), (B(0), 1, Q**2)])
    assert kx_times(2, B(0), 1) == elem([(B(1), 1, 1), (B(0), 2, Q**2)])


def test_kx_times_rank_two_full():
    got = kx_times(1, B(0, 0), 1)
    assert got == elem([(B(0, 1), 0, Q), (B(0, 0), 1, Q**2)])


def test_kx_times_validation():
    with pytest.raises(ValueError):
        kx_times(0, B(0), 1)
    with pytest.raises(ValueError):
        kx_times(1, B(0), 0)
    with pytest.raises(ValueError):
        kx_times(1, B(0), 1, method="magic")


def test_hall_multiplicity_degree_two_point_values():
    m1 = hall_multiplicity(B(-1, -1), B(0, 0), 2, 1)
    assert m1 == Q**2 - Q
    assert m1.evaluate(2) == 2
    m2 = hall_multiplicity(B(-2, 0), B(0, 0), 2, 1)
    assert m2 == Q + ONE
    assert m2.evaluate(2) == 3


def test_hall_multiplicity_degenerate():
    assert hall_multiplicity(B(0, 0), B(0, 0), 2, 1) == QPoly(())
    assert hall_multiplicity(B(0, 0), B(0, 0), 2, 0) == ONE
    assert hall_multiplicity(B(-1, 0), B(0, 0), 2, 0) == QPoly(())
    with pytest.raises(ValueError):
        hall_multiplicity(B(0), B(0, 0), 1, 1)


def test_hall_multiplicity_matches_oracle_census():
    x = ClosedPoint(2, 2, (1, 1, 1))
    census = brute_multiplicity(B(0, 0), x, 1)
    for E_prime, count in census.items():
        assert hall_multiplicity(E_prime, B(0, 0), 2, 1).evaluate(2) == count


@pytest.mark.parametrize("degrees", [(0,), (0, 0), (0, 3), (-1, 1), (0, 1, 2), (0, 0, 2)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_mass_identity(degrees, d):
    E = BundleType(degrees)
    n = E.rank
    for r in range(n + 1):
        total = 0
        for E_prime in candidates(E, d, r):
            poly = hall_multiplicity(E_prime, E, d, r)
            for q0 in (2, 3, 4, 5):
                assert poly.evaluate(q0) >= 0
            total += poly.evaluate(2)
        assert total == gaussian_binomial(n - r, n).evaluate(2**d), (E, d, r)


def test_associativity_of_random_words():
    rng = random.Random(20240820)
    for _ in range(200):
        k = rng.randint(2, 4)
        word = tuple(rng.randint(-2, 3) for _ in range(k))
        full = word_product(word)
        for cut in range(1, k):
            left = word_product(word[:cut])
            right = word_product(word[cut:])
            assert _element_mul(left, right) == full, (word, cut)


def test_element_mul_refuses_torsion_terms():
    torsion = HallElement({HallTerm(B(0), 1): ONE})
    for a, b in ((torsion, word_product([0])), (word_product([0]), torsion)):
        with pytest.raises(HallIntegrityError, match=r"torsion term \[O\+K\^1\]"):
            _element_mul(a, b)


def test_straighten_returns_bundle_classes_with_run_factors():
    # an ascending word with runs l_i is prod [l_i]_q! times its class
    word = (0, 0, 1, 1, 1)
    assert _straighten(word) == ((B(*word), q_factorial(2) * q_factorial(3)),)
    assert _straighten((0, 1)) == ((B(0, 1), ONE),)


@lru_cache(maxsize=None)
def reference_straighten(word):
    """The straightening on QPoly arithmetic: each replacement coefficient
    is a QPoly, and every sub-result is multiplied and added as one."""
    for j in range(len(word) - 2, -1, -1):
        if word[j] > word[j + 1]:
            break
    else:
        E = BundleType(word)
        coeff = ONE
        for _, length in E.grouped():
            if length > 1:
                coeff = coeff * q_factorial(length)
        return ((E, coeff),)
    hi, lo = word[j], word[j + 1]
    pre, suf = word[:j], word[j + 2 :]
    gap = hi - lo
    replacements = [((lo, hi), QPoly.monomial(gap + 1))]
    inner = QPoly.monomial(gap - 1)
    for i in range(1, gap // 2 + 1):
        a, b = lo + i, hi - i
        if a < b:
            replacements.append(((a, b), QPoly((-1, 0, 1)) * inner))
        else:
            replacements.append(((a, a), QPoly((-1, 1)) * inner))
    out = {}
    for pair, coeff in replacements:
        for E, c in reference_straighten(pre + pair + suf):
            out[E] = out.get(E, QPoly(())) + coeff * c
    return tuple(sorted((E, c) for E, c in out.items() if not c.is_zero()))


def test_straighten_matches_the_qpoly_reference():
    rng = random.Random(20261019)
    words = []
    for i in range(360):
        # every other word draws from three letters, so runs are common
        letters = range(-3, 6) if i % 2 else rng.sample(range(-3, 6), 3)
        words.append(tuple(rng.choice(letters) for _ in range(rng.randint(1, 6))))
    assert sum(len(set(w)) < len(w) for w in words) > 150
    for word in words:
        assert _straighten(word) == reference_straighten(word), word


def test_a_cold_census_builds_few_qpolys(monkeypatch):
    """The straightening and the K_x layers sum coefficients as int lists
    and build one QPoly per class, so a cold rank-5 census stays well below
    the construction count of per-term QPoly arithmetic (7,104)."""
    built = [0]
    init = QPoly.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    _straighten.cache_clear()
    _kx_layer.cache_clear()
    monkeypatch.setattr(QPoly, "__init__", counting_init)
    census = hecke.neighbors(B(0, 1, 2, 3, 4), 3, 2)
    monkeypatch.undo()
    assert sum(poly.evaluate(2) for poly in census.values()) == gaussian_binomial(3, 5).evaluate(8)
    assert built[0] < 3500, built[0]


def test_word_product_refuses_non_int_letters_on_a_warm_cache():
    word_product((1, 0))
    for bad in ((True, 0), (1.0, 0), (0, "1")):
        with pytest.raises(TypeError, match="word degrees must be ints"):
            word_product(bad)
    assert word_product((1, 0)) == elem([(B(0, 1), 0, Q**2)])


def test_repeated_word_product_is_a_cache_hit():
    word = (3, -1, 2, 0, 2)
    first = word_product(word)
    misses = _straighten.cache_info().misses
    assert word_product(word) == first
    assert _straighten.cache_info().misses == misses


def test_kx_closed_equals_recursive():
    degree_sets = [(0,), (0, 1), (0, 0), (-1, 2), (0, 1, 1), (0, 2, 3), (-1, 0, 1)]
    for degrees in degree_sets:
        E = BundleType(degrees)
        for r in range(1, E.rank + 1):
            for d in (1, 2, 3):
                a = kx_times(r, E, d, method="recursive")
                b = kx_times(r, E, d, method="closed")
                assert a == b, (E, r, d)
    # the exponent tables themselves agree, and no state is reached twice:
    # a table has one key per choice of absorbing letters
    for n in range(1, 7):
        for degrees in combinations_with_replacement(range(4), n):
            E = BundleType(degrees)
            for d in (1, 2, 3):
                for r in range(1, n + 3):
                    recursive = _kx_recursive_table(r, E, d)
                    assert recursive == _kx_closed_table(r, E, d), (E, r, d)
                    paths = sum(comb(n, i) for i in range(min(r, n) + 1))
                    assert len(recursive) == paths, (E, r, d)


def reference_kx(r, E, d):
    """K_x^r * [E] as {term: QRat}: a QPoly coefficient per state, the
    states summed in Z[q] and each sum times Q(E) once, as a gcd-reduced
    ratio that keeps Q(E)'s numerator."""
    states = {((), r): ONE}
    for m in E.degrees:
        nxt = {}
        for (w, s), c in states.items():
            if s > 0:
                key = (w + (m + d,), s - 1)
                nxt[key] = nxt.get(key, QPoly(())) + c
            key = (w + (m,), s)
            nxt[key] = nxt.get(key, QPoly(())) + c * QPoly.monomial(s * d)
        states = nxt
    out = {}
    for (w, s), c in states.items():
        for term, wc in word_product(w).items():
            key = HallTerm(term.bundle, s)
            out[key] = out.get(key, QPoly(())) + wc * c
    factor = q_factor(E)
    return {term: QRat(c * factor.num, factor.den) for term, c in out.items() if c}


def assert_matches_rational(got, want, context):
    """got, a HallElement, equals want, a {term: QRat} whose every
    coefficient has denominator one."""
    assert set(got.terms) == set(want), context
    for term, c in want.items():
        assert c.den == ONE and c.num == got.coeff(term), (context, term)


def test_kx_times_matches_the_state_sum_reference():
    rng = random.Random(20261018)
    for _ in range(80):
        E = BundleType(rng.randint(-2, 3) for _ in range(rng.randint(1, 5)))
        d = rng.randint(1, 3)
        r = rng.randint(1, E.rank + 2)
        want = reference_kx(r, E, d)
        for method in ("recursive", "closed"):
            assert_matches_rational(kx_times(r, E, d, method=method), want, (E, r, d, method))


def test_hall_multiplicity_is_the_torsion_free_coefficient_of_kx_times():
    """The layer-0 read equals the coefficient of [E] in the full product,
    for every E that K_x^r * [E'] can reach, and no torsion-free term of
    the product falls outside those E."""
    rng = random.Random(20261020)
    for _ in range(80):
        E_prime = BundleType(rng.randint(-2, 3) for _ in range(rng.randint(1, 5)))
        n = E_prime.rank
        d = rng.randint(1, 3)
        r = rng.randint(1, n)
        targets = candidates(E_prime.twist(d), d, n - r)
        for method in ("recursive", "closed"):
            product = kx_times(r, E_prime, d, method=method)
            free = {term.bundle for term in product.terms if term.torsion_weight == 0}
            assert free <= set(targets), (E_prime, d, r, method)
            for E in targets:
                want = product.coeff(HallTerm(E, 0))
                assert hall_multiplicity(E_prime, E, d, r) == want, (E_prime, E, d, r, method)


def test_bundle_product_matches_the_rational_reference():
    # the word product times Q(F)*Q(G) as gcd-reduced QRats, numerators
    # included, against exact division in Z[q]
    rng = random.Random(20261019)
    for _ in range(200):
        F, G = (BundleType(rng.randint(-1, 2) for _ in range(rng.randint(1, 3))) for _ in "FG")
        QF, QG = q_factor(F), q_factor(G)
        word = word_product(F.degrees + G.degrees)
        want = {term: QRat(c * QF.num * QG.num, QF.den * QG.den) for term, c in word.items()}
        assert_matches_rational(bundle_product(F, G), want, (F, G))


@pytest.fixture
def broken_q_factor(monkeypatch):
    """Q(E) = 1/(q+2) for every E: no nonzero count divides exactly.  Both
    caches start cold, so the straightening runs under the broken Q(E)."""
    _kx_layer.cache_clear()
    _straighten.cache_clear()
    monkeypatch.setattr(hall, "q_factor", lambda E: QRat(ONE, Q + 2))
    yield
    monkeypatch.undo()
    _kx_layer.cache_clear()
    _straighten.cache_clear()


def test_a_coefficient_outside_z_q_raises(broken_q_factor, capsys):
    with pytest.raises(HallIntegrityError, match=r"of \[O\(2\)\] times \(1\)/\(q\+2\) is not in Z\[q\]"):
        kx_times(1, B(0), 2)
    with pytest.raises(HallIntegrityError, match="is not in Z"):
        bundle_product(B(2), B(0))
    with pytest.raises(HallIntegrityError, match="is not in Z"):
        hall_multiplicity(B(-1, -1), B(0, 0), 2, 1)
    code = main("hall kx --bundle 0,0 --weight 1 --point-degree 2".split())
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    doc = json.loads(err)
    assert doc["schema"] == "heckelab/1" and doc["error"] == "HallIntegrityError"
    assert doc["detail"].endswith("times (1)/(q+2) is not in Z[q]")


def test_hall_multiplicity_straightens_no_torsion_word(monkeypatch):
    """Every word a multiplicity straightens has degree deg E' + r*d: all r
    torsion copies absorbed, none left over."""
    E, d, r = B(0, 1, 1, 2, 5), 3, 2
    seen = []
    real = hall._straighten

    def spy(word):
        seen.append(word)
        return real(word)

    _kx_layer.cache_clear()
    monkeypatch.setattr(hall, "_straighten", spy)
    found = 0
    for E_prime in candidates(E, d, r):
        found += bool(hall_multiplicity(E_prime, E, d, r))
        assert seen and all(sum(w) == E_prime.degree + r * d for w in seen), E_prime
        seen.clear()
    assert found > 1


def test_kx_weight_can_exceed_rank():
    """More skyscraper copies than components: excess stays torsion."""
    for degrees, r in [((0,), 2), ((0,), 3), ((0, 1), 3)]:
        E = BundleType(degrees)
        a = kx_times(r, E, 1, method="recursive")
        b = kx_times(r, E, 1, method="closed")
        assert a == b, (E, r)
        assert all(term.torsion_weight >= r - E.rank for term, _ in a.items())


def test_kx_conservation():
    for degrees in [(0, 1), (0, 0, 2)]:
        E = BundleType(degrees)
        for r in range(1, E.rank + 1):
            for d in (1, 2):
                h = kx_times(r, E, d)
                for term, _ in h.items():
                    assert term.bundle.rank == E.rank
                    assert (
                        term.bundle.degree + term.torsion_weight * d
                        == E.degree + r * d
                    )


def test_hall_element_json():
    h = word_product([2, 0])
    data = h.to_json()
    assert data == [
        {
            "degrees": [0, 2],
            "torsion": 0,
            "coeff_num": [0, 0, 0, 1],
            "coeff_den": [1],
        },
        {
            "degrees": [1, 1],
            "torsion": 0,
            "coeff_num": [0, -1, 0, 1],
            "coeff_den": [1],
        },
    ]


def test_pretty_output():
    assert "q^2" in word_product([1, 0]).pretty()
    assert "K^1" in kx_times(1, B(0), 2).pretty()
