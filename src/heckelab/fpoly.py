"""Arithmetic in F_p[t] and over F_p, for prime p.

A polynomial is a little-endian tuple of ints in [0, p), trimmed so the
last coefficient is nonzero; the zero polynomial is ().  Every function
takes the prime p explicitly and returns trimmed tuples, except those of
the byte form below, which take and return bytes.  Besides the ring
operations this module holds the product and determinant of polynomial
matrices, the one elimination step over F_p, Rabin's irreducibility test
and the search for the first monic irreducible of a degree, plus the
primality helpers that validate q.

Elimination.  One step reduces a row by an echelon form, a dict from each
pivot column to its row, and adds it when it is independent.  It comes in
two row formats with the same echelon: `insert_row` takes int lists over
any F_p, and `insert_mask` takes an F_2 row packed into an int, entry j
in bit j, where reducing by a row is one xor.  Both reduce by the rows in
the order they were added and take the first nonzero entry as the pivot,
so on the same rows they grow at the same steps, with the same pivots and
the same echelon rows.  `rank` folds `insert_row` over a matrix.

Products.  mul(a, b) is addmul((), a, b), and addmul(c, a, b) = c + a*b
is one schoolbook loop that skips the zero coefficients of the shorter
factor, then reduces mod p and trims once.  mat_mul(A, B, p) is the one
matrix product over F_p[t], which the SNF check and the verify sampler
share, and it alone knows the packing: by Kronecker substitution each
entry becomes an int with one coefficient per slot of a fixed width, a
sum of int products forms every coefficient of an entry of A*B at once,
and the slots are read back.  The slot is the narrowest unsigned array
type, of 1, 2, 4 or 8 bytes, that holds the most a slot can receive, so
no carry crosses a slot.  Entries are taken mod p, as addmul takes them,
and each coefficient is reduced while it is packed.  Above 2^32 no slot
is wide enough and the entries are combined by addmul.

Byte form.  For a prime p <= 13 one byte holds (p - 1) + (p - 1)^2, and
byte_form(p) says so; it is the one place the choice is made.  There a
polynomial may be held as bytes, one coefficient per byte, little-endian,
trimmed like a tuple, b"" for zero: bytes(a) and tuple(b) convert.
addmul_bytes(c, a, b) is int.from_bytes(a) * int.from_bytes(b) +
int.from_bytes(c), written back by to_bytes, reduced mod p by one
bytes.translate through a 256-entry table and trimmed by rstrip, all in
C.  A shorter factor of more than m = (255 - (p - 1)) // (p - 1)^2
coefficients, which could overflow a byte, is taken m at a time, reduced
between chunks: m is 254, 63, 15, 6, 2 and 1 at p = 2, 3, 5, 7, 11 and
13.  Each chunk but the last costs one int product, shifted into c by
its offset, and one translate; b becomes an int once.  scale_bytes is one
translate, and div_bytes finds the quotient's coefficients from the top
of the dividend and the remainder by one addmul_bytes.  Each returns the
bytes of its tuple counterpart.  Timed on SNF inputs, the byte form beats
the tuple form at every one of these primes, by the least at p = 13,
where m = 1 and most products are chunked.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, product
from math import isqrt

__all__ = [
    "trim",
    "add",
    "sub",
    "mul",
    "addmul",
    "byte_form",
    "addmul_bytes",
    "scale_bytes",
    "div_bytes",
    "mat_mul",
    "scale",
    "div",
    "monic",
    "gcd",
    "powmod",
    "det",
    "insert_row",
    "insert_mask",
    "rank",
    "is_irreducible",
    "first_irreducible",
    "smallest_prime_factor",
    "is_prime",
    "prime_power",
]

#: (bytes, typecode) of the unsigned array types, narrowest first
_SLOTS = tuple(sorted({array(code).itemsize: code for code in "BHILQ"}.items()))
_BIG_ENDIAN = sys.byteorder == "big"


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim([c % p for c in out])


def sub(a, b, p):
    out = list(a)
    out += [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return trim([c % p for c in out])


def mul(a, b, p):
    return addmul((), a, b, p)


def addmul(c, a, b, p):
    """c + a*b in F_p[t], reduced mod p and trimmed once."""
    if len(a) > len(b):
        a, b = b, a
    out = list(c)
    out += [0] * (len(a) + len(b) - 1 - len(out))
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return trim([x % p for x in out])


#: p -> (tables, m) for the primes p whose byte holds (p - 1) + (p - 1)^2,
#: those up to 13: tables[c] maps a byte x to x * c mod p, and m is the
#: longest shorter factor whose product, plus a reduced polynomial, fills
#: no byte past 255
_BYTE_FORM = {
    p: (
        tuple((bytes(x * c % p for x in range(p)) * (256 // p + 1))[:256] for c in range(p)),
        (255 - (p - 1)) // (p - 1) ** 2,
    )
    for p in (2, 3, 5, 7, 11, 13)
}


def byte_form(p) -> bool:
    """Whether F_p[t] arithmetic may run on the byte form: bytes with one
    coefficient in [0, p) per byte, little-endian, trimmed like tuples."""
    return p in _BYTE_FORM


def addmul_bytes(c, a, b, p):
    """addmul on the byte form: c + a*b as one int product, reduced by one
    translate.  A shorter factor of more than m coefficients is taken m at
    a time, each chunk's product reduced before the next is added."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return c
    tables, m = _BYTE_FORM[p]
    size = len(a) + len(b) - 1
    if size < len(c):
        size = len(c)
    if len(a) > m:
        # every chunk but the last, shifted by its offset and reduced
        last = (len(a) - 1) // m * m
        y = int.from_bytes(b, "little")
        for i in range(0, last, m):
            v = int.from_bytes(c, "little") + (int.from_bytes(a[i : i + m], "little") * y << 8 * i)
            c = v.to_bytes(size, "little").translate(tables[1])
        a, b = a[last:], bytes(last) + b
    v = int.from_bytes(a, "little") * int.from_bytes(b, "little") + int.from_bytes(c, "little")
    return v.to_bytes(size, "little").translate(tables[1]).rstrip(b"\0")


def scale_bytes(a, c, p):
    """scale on the byte form: one translate."""
    return a.translate(_BYTE_FORM[p][0][c % p]).rstrip(b"\0")


def div_bytes(a, b, p):
    """div on the byte form.  The quotient's coefficients come top down
    from the top of a; the remainder is a - quotient*b, by addmul_bytes."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    inv = pow(b[-1], -1, p)
    if len(b) == 1:
        return scale_bytes(a, inv, p), b""
    top = len(b) - 1
    size = len(a) - top
    if size <= 0:
        return b"", a
    quo = [0] * size
    for k in range(size - 1, -1, -1):
        s = a[k + top]
        for j in range(k + 1, min(size, k + top + 1)):
            s -= quo[j] * b[k + top - j]
        quo[k] = s * inv % p
    quo = bytes(quo)
    return quo, addmul_bytes(a, scale_bytes(quo, p - 1, p), b, p)


def _slot_for(bound):
    """The narrowest unsigned array type that holds every int in [0, bound],
    as (typecode, bytes); None when none does."""
    for size, code in _SLOTS:
        if bound >> (8 * size) == 0:
            return code, size
    return None


def _reduced(M, p):
    """M when every coefficient of it lies in [0, p), else M with each entry
    reduced mod p.  One set of the coefficients is cheaper than a range
    test per entry, and the SNF check passes reduced entries."""
    coeffs = set(chain.from_iterable(chain.from_iterable(M)))
    if not coeffs or (min(coeffs) >= 0 and max(coeffs) < p):
        return M
    return [[trim(c % p for c in entry) for entry in row] for row in M]


def _pack(a, slot):
    """Kronecker substitution: sum of a[i] * 2^(8 * bytes * i), one
    coefficient per slot; mat_mul packs reduced entries only."""
    arr = array(slot[0], a)
    if _BIG_ENDIAN:
        arr.byteswap()
    return int.from_bytes(arr, "little")


def _unpack(v, slot, p):
    """The polynomial whose coefficients are the slots of v >= 0, mod p."""
    code, size = slot
    arr = array(code, v.to_bytes(-(-v.bit_length() // (8 * size)) * size, "little"))
    if _BIG_ENDIAN:
        arr.byteswap()
    out = [x % p for x in arr]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def mat_mul(A, B, p):
    """A*B over F_p[t], row by row, entries taken mod p.

    A factor with a coefficient outside [0, p) is reduced first.  One slot
    width holds every coefficient of A and of B, and of a sum of len(B)
    products, so each entry of A and B is packed into an int once, and
    each entry of A*B is a sum of int products, unpacked and reduced
    once.  When no slot is that wide, as for p above 2^32, the entries are
    combined by addmul.  Zero entries of A multiply nothing.
    """
    A, B = _reduced(A, p), _reduced(B, p)
    shortest = min(max(len(e) for row in M for e in row) for M in (A, B))
    slot = _slot_for(max(len(B) * shortest, 1) * (p - 1) ** 2)
    out = []
    if slot is None:
        for row in A:
            acc = [()] * len(B[0])
            for a, b_row in zip(row, B):
                if a:
                    acc = [addmul(c, a, b, p) if b else c for c, b in zip(acc, b_row)]
            out.append(acc)
        return out
    packed_B = [[_pack(b, slot) for b in row] for row in B]
    for row in A:
        terms = [(_pack(a, slot), b_row) for a, b_row in zip(row, packed_B) if a]
        out.append(
            [_unpack(sum(a * b_row[j] for a, b_row in terms), slot, p) for j in range(len(B[0]))]
        )
    return out


def scale(a, c, p):
    c %= p
    return trim(x * c % p for x in a)


def div(a, b, p):
    """(quotient, remainder) of a by b in F_p[t]; b nonzero.  A constant b
    is a unit: the quotient is a scaled by its inverse, the remainder 0."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    inv = pow(b[-1], -1, p)
    if len(b) == 1:
        return trim([c * inv % p for c in a]), ()
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
    return trim(quo), trim(rem)


def monic(a, p):
    if not a:
        return a
    return scale(a, pow(a[-1], -1, p), p)


def gcd(a, b, p):
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    while b:
        a, b = b, div(a, b, p)[1]
    return monic(a, p)


def powmod(a, e, f, p):
    """a^e modulo f, by square-and-multiply; f of degree >= 1."""
    out, base = (1,), div(a, f, p)[1]
    while e:
        if e & 1:
            out = div(mul(out, base, p), f, p)[1]
        e >>= 1
        if e:
            base = div(mul(base, base, p), f, p)[1]
    return out


def det(M, p):
    """Determinant of a square matrix of F_p[t] polynomials (cofactors)."""
    n = len(M)
    if n == 1:
        return trim(c % p for c in M[0][0])
    out = ()
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = mul(M[0][j], det(minor, p), p)
        out = add(out, term, p) if j % 2 == 0 else sub(out, term, p)
    return out


def insert_row(echelon: dict, row, p) -> bool:
    """One step of elimination over F_p: reduce row by the echelon, and add
    it when it is independent of the rows already there.

    echelon maps each pivot column to its row, which is 1 at the pivot and
    0 at the pivots of the rows added before it; start from {}.  Rows are
    int sequences of one length, entries taken mod p.  Returns whether the
    row was added, that is whether the rank grew.
    """
    row = list(row)
    for col, pivot_row in echelon.items():
        c = row[col] % p
        if c:
            row = [(a - c * b) % p for a, b in zip(row, pivot_row)]
    lead = next((j for j, c in enumerate(row) if c % p), None)
    if lead is None:
        return False
    inv = pow(row[lead], -1, p)
    echelon[lead] = [c * inv % p for c in row]
    return True


def insert_mask(echelon: dict, row: int) -> bool:
    """insert_row over F_2 for a row packed into an int, entry j in bit j.

    echelon maps each pivot column to its row as an int; start from {}.
    Returns whether the row was added, that is whether the rank grew.
    """
    for col, pivot_row in echelon.items():
        if row >> col & 1:
            row ^= pivot_row
    if not row:
        return False
    echelon[(row & -row).bit_length() - 1] = row
    return True


def rank(rows, p) -> int:
    """Rank over F_p of a matrix given as int rows."""
    echelon = {}
    return sum(insert_row(echelon, row, p) for row in rows)


def is_irreducible(f, p) -> bool:
    """Rabin's test (1980) for a polynomial of degree n >= 1 over F_p.

    f is irreducible iff t^(p^n) = t mod f and gcd(t^(p^(n/l)) - t, f) = 1
    for every prime l dividing n.  Constants are units, not irreducible.
    """
    f = monic(trim(c % p for c in f), p)
    n = len(f) - 1
    if n <= 1:
        return n == 1
    frobenius = [div((0, 1), f, p)[1]]  # t^(p^k) mod f for k = 0..n
    for _ in range(n):
        frobenius.append(powmod(frobenius[-1], p, f, p))
    if frobenius[n] != frobenius[0]:
        return False
    m = n
    while m > 1:
        ell = smallest_prime_factor(m)
        if gcd(sub(frobenius[n // ell], frobenius[0], p), f, p) != (1,):
            return False
        while m % ell == 0:
            m //= ell
    return True


def first_irreducible(p: int, d: int):
    """First monic irreducible of degree d over F_p in lexicographic order.

    The order runs over the coefficient tuples (c_0, ..., c_{d-1}) with c_0
    most significant.  For d >= 2 every candidate with c_0 = 0 is divisible
    by t, so the scan starts at c_0 = 1.
    """
    if d < 1:
        raise ValueError(f"irreducible polynomials have degree >= 1, got {d}")
    if d == 1:
        return (0, 1)
    for tail in product(range(1, p), *[range(p)] * (d - 1)):
        poly = tail + (1,)
        if is_irreducible(poly, p):
            return poly
    raise RuntimeError(f"no irreducible of degree {d} over F_{p}")


#: Miller-Rabin with the prime bases up to 41 is exact below MR_EXACT_BOUND,
#: the least strong pseudoprime to all of them (Sorenson and Webster 2015);
#: the bases up to 37 alone are fooled by 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3317044064679887385961981


def smallest_prime_factor(n: int) -> int:
    """The least prime dividing n >= 2, n itself when n is prime; by trial
    division, so for small n such as a polynomial degree."""
    return next((k for k in range(2, isqrt(n) + 1) if n % k == 0), n)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test with the prime bases 2..41.

    Every answer is exact: a witness proves n composite, and below
    MR_EXACT_BOUND no composite passes all thirteen bases.  A larger n
    that passes them cannot be certified and raises ValueError.  Any n
    that is not an int, bool included, raises TypeError.
    """
    if type(n) is not int:
        raise TypeError(f"is_prime needs an int, got {n!r}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s, m = 0, n - 1
    while m % 2 == 0:
        m //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, m, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_EXACT_BOUND:
        raise ValueError(
            f"cannot certify that {n} is prime: it is not below {MR_EXACT_BOUND}, "
            "the bound of the deterministic Miller-Rabin test"
        )
    return True


def _iroot(n: int, e: int) -> int:
    """floor(n^(1/e)) for n >= 0 and e >= 1, by Newton's method from above."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e and p prime; ValueError when q is no prime power.

    Tries the exponents from the largest down: the first exact e-th root
    that is prime is p.  A base that is_prime cannot certify raises its
    ValueError; a q that is not an int, bool included, raises TypeError.
    """
    if type(q) is not int:
        raise TypeError(f"q must be an int, got {q!r}")
    for e in range(max(q.bit_length(), 1), 0, -1):
        p = _iroot(q, e)
        if p >= 2 and p**e == q and is_prime(p):
            return p, e
    raise ValueError(f"q must be a prime power, got {q}")
