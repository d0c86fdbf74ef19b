"""F_p[t] arithmetic: Rabin's test, the irreducible search, ranks."""

import random
from itertools import product

import pytest

from heckelab import fpoly
from heckelab.bundles import ClosedPoint
from heckelab.oracle import Field, matrix_rank

# (p, max degree): every monic polynomial of degree 1..max is tested
EXHAUSTIVE = [(2, 6), (3, 4), (5, 3), (7, 2)]


def monic_polys(p, d):
    for tail in product(range(p), repeat=d):
        yield tail + (1,)


def trial_division_irreducible(f, p):
    """Reference: no monic divisor of degree 1..deg/2."""
    d = len(f) - 1
    return all(
        fpoly.div(f, g, p)[1]
        for k in range(1, d // 2 + 1)
        for g in monic_polys(p, k)
    )


def test_rabin_matches_trial_division_exhaustively():
    tested = 0
    for p, top in EXHAUSTIVE:
        for d in range(1, top + 1):
            for f in monic_polys(p, d):
                assert fpoly.is_irreducible(f, p) == trial_division_irreducible(f, p), (f, p)
                tested += 1
    assert tested == 457


def test_rabin_edge_cases():
    assert not fpoly.is_irreducible((1,), 2)  # a unit
    assert not fpoly.is_irreducible((), 3)
    assert fpoly.is_irreducible((2, 2), 3)  # degree one, not monic
    assert fpoly.is_irreducible((1, 1, 1, 0), 2)  # trailing zero trimmed
    assert not fpoly.is_irreducible((0, 0, 2), 3)  # 2 t^2


def test_div_by_the_zero_polynomial_raises():
    # not an assert: under python -O that leaked an IndexError
    with pytest.raises(ZeroDivisionError):
        fpoly.div((1, 1), (), 2)
    assert fpoly.div((1, 0, 1), (1, 1), 2) == ((1, 1), ())


def long_division(a, b, p):
    """Reference (quotient, remainder): schoolbook long division, one
    leading term at a time, for any nonzero b."""
    inv = pow(b[-1], -1, p)
    rem = list(a)
    quo = [0] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        if rem[-1] == 0:
            rem.pop()
            continue
        c = rem[-1] * inv % p
        shift = len(rem) - len(b)
        quo[shift] = c
        for i, cb in enumerate(b):
            rem[shift + i] = (rem[shift + i] - c * cb) % p
        rem.pop()
    return fpoly.trim(quo), fpoly.trim(rem)


@pytest.mark.parametrize("p", [2, 3, 5, 13, 251])
def test_division_by_a_unit_is_long_division(p):
    """A constant divisor takes a shortcut: the dividend scaled by its
    inverse, remainder zero.  It must agree with long division also on
    unreduced and negative coefficients, zero ones included."""
    rng = random.Random(f"div:{p}")
    for _ in range(400):
        a = tuple(rng.randint(-3 * p, 3 * p) for _ in range(rng.randint(0, 12)))
        unit = rng.randrange(1, p) + p * rng.randint(-2, 2)
        assert fpoly.div(a, (unit,), p) == long_division(a, (unit,), p), (a, unit)
        b = tuple(rng.randint(-p, p) for _ in range(rng.randint(1, 4))) + (unit,)
        assert fpoly.div(a, b, p) == long_division(a, b, p), (a, b)


def test_det_reduces_at_every_size():
    # a 1 x 1 matrix is reduced mod p like the cofactor sums of larger ones
    assert fpoly.det([[(3,)]], 3) == ()
    assert fpoly.det([[(-1, 2)]], 3) == (2, 2)
    assert fpoly.det([[(4, 0, 3, 0)]], 3) == (1,)
    assert fpoly.det([[(1, 1), (1,)], [(1,), (0, 1)]], 2) == (1, 1, 1)
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 3)
        M = [[tuple(rng.randint(-7, 7) for _ in range(rng.randint(0, 3))) for _ in range(n)]
             for _ in range(n)]
        reduced = [[fpoly.trim(c % 3 for c in e) for e in row] for row in M]
        got = fpoly.det(M, 3)
        assert got == fpoly.det(reduced, 3) and got == fpoly.trim(got), M
        assert all(0 <= c < 3 for c in got), M


def test_first_irreducible_is_the_lexicographic_first():
    for p, top in EXHAUSTIVE:
        for d in range(1, top + 1):
            want = next(f for f in monic_polys(p, d) if trial_division_irreducible(f, p))
            assert fpoly.first_irreducible(p, d) == want, (p, d)
    with pytest.raises(ValueError):
        fpoly.first_irreducible(2, 0)


def schoolbook(a, b, p, op):
    """Reference ring operations on coefficient lists: reduce each result
    coefficient mod p, then drop the zero top coefficients."""
    if op == "mul":
        out = [0] * (len(a) + len(b))
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    else:
        sign = 1 if op == "add" else -1
        n = max(len(a), len(b))
        out = [(a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0) for i in range(n)]
    out = [c % p for c in out]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_add_sub_mul_match_the_schoolbook_reference(p):
    rng = random.Random(f"ring:{p}")
    pairs = [((), ()), ((), (1,)), ((0, 1), ()), ((1, 1), (1, p - 1)), ((p, 2 * p), (p,))]
    for _ in range(300):
        # entries up to 3p - 1, so some are >= p; lengths differ often
        a = tuple(rng.randrange(3 * p) for _ in range(rng.randint(0, 6)))
        b = tuple(rng.randrange(3 * p) for _ in range(rng.randint(0, 6)))
        pairs.append((a, b))
        if a:  # b = -a above the constant term: the sum cancels at the top
            pairs.append((a, (rng.randrange(p),) + tuple(p - c % p for c in a[1:])))
            pairs.append((a, a[:1] + tuple(c + p for c in a[1:])))  # a - b cancels too
    for a, b in pairs:
        for op in ("add", "sub", "mul"):
            assert getattr(fpoly, op)(a, b, p) == schoolbook(a, b, p, op), (op, a, b)


def reference_mul(a, b, p):
    """fpoly.mul as it was before addmul: the schoolbook loop alone."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return fpoly.trim([c % p for c in out])


#: with a shorter factor of 40 the slots are 1 byte wide at p = 2, 3, 2 at
#: 5, 13, 4 at 251 and 8 at 65537; the prime 4294967311 > 2^32 fits none
PACKING_PRIMES = [2, 3, 5, 13, 251, 65537, 4294967311]
#: lengths from the zero polynomial to 40 and more
LENGTHS = (0, 1, 2, 6, 7, 8, 12, 40, 57)


def test_packing_primes_span_every_slot_and_the_fallback():
    slots = {fpoly._slot_for(40 * (p - 1) ** 2 + p - 1) for p in PACKING_PRIMES}
    assert {size for _, size in slots - {None}} == {1, 2, 4, 8} and None in slots


@pytest.mark.parametrize("p", PACKING_PRIMES)
def test_addmul_and_mul_match_the_schoolbook_reference(p):
    rng = random.Random(f"addmul:{p}")

    def poly(length, top=p):
        return tuple(rng.randrange(top) for _ in range(length))

    cases = []
    for la in LENGTHS:
        for lb in LENGTHS:
            for lc in (0, max(la + lb - 3, 0), la + lb + 4):  # c shorter and longer than a*b
                cases.append((poly(lc), poly(la), poly(lb)))
    for _ in range(100):
        # unreduced and negative coefficients, and a sum that cancels to 0
        la, lb = rng.choice(LENGTHS), rng.choice(LENGTHS)
        a, b = poly(la, 3 * p), poly(lb, 3 * p)
        cases.append((tuple(-x for x in poly(la + lb - 1)), a, b))
        cases.append((tuple(-x % p for x in reference_mul(a, b, p)), a, b))
        cases.append((poly(rng.randint(0, 50)), tuple(-x for x in a), b))
    for c, a, b in cases:
        want = fpoly.add(c, reference_mul(a, b, p), p)
        assert fpoly.addmul(c, a, b, p) == want, (c, a, b)
        assert fpoly.addmul(c, b, a, p) == want, (c, a, b)
        assert fpoly.mul(a, b, p) == reference_mul(a, b, p), (a, b)


#: the primes of the byte form, each with m, the most coefficients of a
#: shorter factor that it multiplies in one int product
BYTE_PRIMES = {2: 254, 3: 63, 5: 15, 7: 6, 11: 2, 13: 1}


def test_byte_form_is_chosen_for_the_primes_up_to_13():
    primes = [p for p in range(2, 300) if fpoly.is_prime(p)]
    assert [p for p in primes if fpoly.byte_form(p)] == list(BYTE_PRIMES)
    # exactly the primes whose byte holds a reduced coefficient plus one product
    assert [p for p in primes if (p - 1) + (p - 1) ** 2 <= 255] == list(BYTE_PRIMES)
    assert not fpoly.byte_form(4294967311)


@pytest.mark.parametrize("p, m", BYTE_PRIMES.items())
def test_byte_form_matches_the_tuple_functions(p, m):
    """addmul_bytes, scale_bytes and div_bytes give the bytes of addmul,
    scale and div.  Shorter factors of m and m + 1 coefficients, all p - 1
    as well as random, fill a byte to 255 and would overflow it unless the
    product is taken in chunks."""
    rng = random.Random(f"bytes:{p}")

    def poly(length, top=None):
        """length coefficients, the last nonzero; all equal to top if given."""
        if top is not None or not length:
            return (top,) * length
        return tuple(rng.randrange(p) for _ in range(length - 1)) + (rng.randrange(1, p),)

    tops = (None, p - 1)
    lengths = (2, m, m + 1, 2 * m + 1)
    factors = [(), (1,), (p - 1,)] + [poly(k, top) for k in lengths for top in tops]
    for a in factors:
        for b in factors[:7] + [poly(3 * m + 5, top) for top in tops]:
            for c in ((), poly(len(a) + len(b) // 2, p - 1), poly(len(a) + len(b) + 3)):
                want = fpoly.addmul(c, a, b, p)
                assert fpoly.addmul_bytes(bytes(c), bytes(a), bytes(b), p) == bytes(want), (c, a, b)
        for k in range(-p, 2 * p):
            assert fpoly.scale_bytes(bytes(a), k, p) == bytes(fpoly.scale(a, k, p)), (a, k)
    divisors = [(1,), (p - 1,), poly(1), poly(2), poly(2, p - 1), poly(5), poly(m + 1)]
    for a in factors + [poly(rng.randint(0, 3 * m + 5)) for _ in range(30)]:
        for b in divisors:
            quo, rem = fpoly.div(a, b, p)
            assert fpoly.div_bytes(bytes(a), bytes(b), p) == (bytes(quo), bytes(rem)), (a, b)
    with pytest.raises(ZeroDivisionError):
        fpoly.div_bytes(b"\x01", b"", p)


def brute_kernel_size(field, rows, ncols):
    """#{x in F^ncols : row . x = 0 for every row}, by enumeration."""

    def dot(row, x):
        acc = field.zero
        for a, b in zip(row, x):
            acc = fpoly.add(acc, field.mul(a, b), field.q)
        return acc

    vectors = product(list(field.elements()), repeat=ncols)
    return sum(all(not dot(row, x) for row in rows) for x in vectors)


@pytest.mark.parametrize("q, d", [(2, 2), (2, 3), (3, 2)])
def test_matrix_rank_matches_kernel_count(q, d):
    field = Field(ClosedPoint(q, d, fpoly.first_irreducible(q, d)))
    elems = list(field.elements())
    rng = random.Random(f"rank:{q}:{d}")
    for _ in range(25):
        nrows, ncols, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 2)
        # rows in the span of k random rows, so low ranks are common
        basis = [[rng.choice(elems) for _ in range(ncols)] for _ in range(k)]
        rows = []
        for _ in range(nrows):
            row = [field.zero] * ncols
            for b in basis:
                c = rng.choice(elems)
                row = [fpoly.add(x, field.mul(c, y), q) for x, y in zip(row, b)]
            rows.append(row)
        rank = matrix_rank(field, rows)
        assert brute_kernel_size(field, rows, ncols) == field.size ** (ncols - rank)


def gauss_jordan_rank(rows, p):
    """Reference: rank over F_p by Gauss-Jordan on a copy of the rows."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    found = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(found, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        inv = pow(rows[found][col], -1, p)
        rows[found] = [c * inv % p for c in rows[found]]
        for i in range(len(rows)):
            if i != found and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[found])]
        found += 1
        if found == len(rows):
            break
    return found


def test_rank_and_insert_row_match_gauss_jordan():
    rng = random.Random(20261018)
    cases = 0
    for p in (2, 3, 5, 7, 101):
        for _ in range(120):
            nrows, ncols, k = rng.randint(0, 7), rng.randint(1, 7), rng.randint(0, 4)
            # rows in the span of k random rows with entries moved out of
            # [0, p) by multiples of p, up to two rows that are zero mod p,
            # in random order
            basis = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
            rows = []
            for _ in range(nrows):
                row = [0] * ncols
                for b in basis:
                    c = rng.randrange(p)
                    row = [(x + c * y) % p for x, y in zip(row, b)]
                rows.append([x + p * rng.randint(-2, 2) for x in row])
            rows += [[0] * ncols, [p * rng.randint(-2, 2) for _ in range(ncols)]][: rng.randint(0, 2)]
            rng.shuffle(rows)
            want = gauss_jordan_rank(rows, p)
            assert fpoly.rank(rows, p) == want, (rows, p)
            echelon, grew = {}, []
            for row in rows:
                before = [list(r) for r in echelon.values()]
                grew.append(fpoly.insert_row(echelon, row, p))
                # a row is added exactly when it raises the rank
                assert grew[-1] == (gauss_jordan_rank(before + [row], p) > len(before))
            assert sum(grew) == len(echelon) == want
            pivots = list(echelon)
            for i, col in enumerate(pivots):
                pivot_row = echelon[col]
                assert pivot_row[col] == 1 and all(0 <= c < p for c in pivot_row)
                assert all(pivot_row[c] == 0 for c in pivots[:i])
            cases += 1
    assert cases == 600
    assert fpoly.rank([], 5) == 0
    assert fpoly.rank([[5, 10, -15]], 5) == 0


def test_insert_mask_is_insert_row_on_packed_f2_rows():
    """The F_2 step on int bit masks grows at the same rows as insert_row on
    the same rows as int lists, with the same pivots in the same order and
    the same echelon rows once unpacked."""
    rng = random.Random(20261020)
    grown = 0
    for _ in range(600):
        width = rng.randint(1, 16)
        basis = [rng.getrandbits(width) for _ in range(rng.randint(0, 6))]
        rows = []
        for _ in range(rng.randint(0, 12)):
            kind = rng.randrange(4)
            if kind == 0 or not basis:
                rows.append(0)  # a zero row
            elif kind == 1 and rows:
                rows.append(rng.choice(rows))  # a repeated row
            else:  # a dependent row: a random sum of the basis
                row = 0
                for b in basis:
                    row ^= b * rng.randrange(2)
                rows.append(row)
        rows += [rng.getrandbits(width) for _ in range(rng.randint(0, 2))]
        rng.shuffle(rows)
        masks, lists = {}, {}
        for row in rows:
            as_list = [row >> j & 1 for j in range(width)]
            grew = fpoly.insert_mask(masks, row)
            assert grew == fpoly.insert_row(lists, as_list, 2), rows
            grown += grew
        assert list(masks) == list(lists), rows
        assert [[m >> j & 1 for j in range(width)] for m in masks.values()] == list(lists.values())
    assert grown > 1000


def trial_division_prime_power(q):
    """Reference: (p, e) by the smallest prime factor, or None."""
    if q < 2:
        return None
    p = fpoly.smallest_prime_factor(q)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


def test_is_prime_matches_trial_division_below_1e5():
    for n in range(-3, 10**5):
        assert fpoly.is_prime(n) == (n >= 2 and fpoly.smallest_prime_factor(n) == n), n


def test_prime_power_matches_trial_division_below_1e5():
    for q in range(-3, 10**5):
        want = trial_division_prime_power(q)
        if want is None:
            with pytest.raises(ValueError, match="prime power"):
                fpoly.prime_power(q)
        else:
            assert fpoly.prime_power(q) == want, q


def test_primality_refuses_a_number_that_is_not_an_int():
    """prime_power(2.0) used to leak AttributeError, and is_prime(2.0) and
    is_prime(7.0) said True."""
    for _ in range(2):  # before and after the int answers
        for n in (2.0, 7.0, True):
            with pytest.raises(TypeError, match="must be an int"):
                fpoly.prime_power(n)
            with pytest.raises(TypeError, match="needs an int"):
                fpoly.is_prime(n)
        assert fpoly.prime_power(2) == (2, 1) and fpoly.is_prime(7)


def test_primality_of_large_numbers():
    primes = [2**31 - 1, 10**9 + 7, 2**61 - 1, 2**64 - 59, 10**18 + 3, 2**79 - 67]
    for p in primes:
        assert fpoly.is_prime(p)
        assert fpoly.prime_power(p) == (p, 1)
        assert fpoly.prime_power(p**3) == (p, 3)
        assert not fpoly.is_prime(p * (2**31 - 1))
    assert fpoly.prime_power(2**200) == (2, 200)
    assert fpoly.prime_power(3**100) == (3, 100)
    carmichael = [561, 1105, 1729, 2465, 41041, 825265, 321197185]
    spsp_2_to_23 = 3825123056546413051  # strong pseudoprime to the bases 2..23
    for n in carmichael + [spsp_2_to_23, 10**18 + 1, 2**64 + 1]:
        assert not fpoly.is_prime(n), n
        with pytest.raises(ValueError, match="prime power"):
            fpoly.prime_power(n)
    # the least strong pseudoprime to the bases 2..37 is caught by base 41
    assert not fpoly.is_prime(318665857834031151167461)


def test_primality_above_the_exact_bound_is_refused():
    # the bound is itself a strong pseudoprime to every base used
    with pytest.raises(ValueError, match="cannot certify"):
        fpoly.is_prime(fpoly.MR_EXACT_BOUND)
    big = 2**89 - 1  # a Mersenne prime above the bound
    assert big > fpoly.MR_EXACT_BOUND
    with pytest.raises(ValueError, match="cannot certify"):
        fpoly.is_prime(big)
    with pytest.raises(ValueError, match="cannot certify"):
        fpoly.prime_power(big**2)
    # a witness still proves a large number composite
    assert not fpoly.is_prime(big * (2**61 - 1))
    assert not fpoly.is_prime(2 * big)
