"""The four benchmark workloads: seeded inputs, one op, output checks.

Each workload is a `Workload` with
  * `why`: the reason it is in the benchmark (also in BENCHMARK.json);
  * `ops(seed)`: an endless, deterministic stream of op inputs.  The stream
    is built in rounds; every round covers each stratum of the workload's
    input space once, in a seeded order with seeded details, so runs with
    different seeds do the same mix of work and differ in the instances;
  * `run(op)`: the call into heckelab whose latency is measured;
  * `check(op, out)`: the output check, run outside the timed region.  It
    returns None or a one-line reason for the failure;
  * `canonical(op, out)`: a JSON-able form of the answer for the digest;
  * `prefix`: the number of leading ops every run completes, timed or not.
    The digest, the peak RSS and the traced run all cover that prefix, so
    they measure the same work on every commit.

Importers put the checkout's src/ first on sys.path, so heckelab is the
commit under test.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import sys
from fractions import Fraction
from itertools import product

from heckelab import cli, forms, hecke, oracle
from heckelab.bundles import BundleType, ClosedPoint

DEFAULT_SEED = 0


class Workload:
    def __init__(self, name, why, ops, run, check, canonical, prefix, cold=False):
        self.name = name
        self.why = why
        self.ops = ops
        self.run = run
        self.check = check
        self.canonical = canonical
        self.prefix = prefix
        #: clear heckelab's caches before every op, as a fresh CLI process would
        self.cold = cold


def reset_caches() -> None:
    """Empty every lru_cache bound in a loaded heckelab module."""
    for name, mod in list(sys.modules.items()):
        if name == "heckelab" or name.startswith("heckelab."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def grassmannian_count(k: int, n: int, Q: int) -> int:
    """#Gr(k, n)(F_Q), by the product formula, independent of heckelab."""
    num = den = 1
    for i in range(k):
        num *= Q ** (n - i) - 1
        den *= Q ** (k - i) - 1
    return num // den


def _cycle(rng, items):
    """All items in a seeded order, then all again in a new order, forever.

    Drawing instance details from cycles, not independently, gives every
    run a balanced mix of them, so runs with different seeds do the same
    amount of work.
    """
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _degrees(gaps, base=0):
    out = [base]
    for g in gaps:
        out.append(out[-1] + g)
    return tuple(out)


def _point_poly(rng, q, d):
    """A seeded monic irreducible of degree d over F_q (q prime)."""
    while True:
        poly = tuple(rng.randrange(q) for _ in range(d)) + (1,)
        try:
            ClosedPoint(q, d, poly)
        except ValueError:
            continue
        return poly


def _bundle_key(E: BundleType):
    return list(E.degrees)


# --- census -----------------------------------------------------------------

CENSUS_STRATA = [(n, d, r) for n in (3, 4, 5) for d in (2, 3) for r in range(1, n)]


def census_ops(seed):
    """Distinct (degrees, d, r): gaps from {0,1,2}, a seeded twist per query.

    A twist changes no answer up to shift but every cache key, so distinct
    queries do their Hall work afresh, as distinct user queries would.
    """
    rng = random.Random(f"census:{seed}")
    gaps = {n: _cycle(rng, product((0, 1, 2), repeat=n - 1)) for n in (3, 4, 5)}
    seen = set()
    while True:
        strata = CENSUS_STRATA[:]
        rng.shuffle(strata)
        for n, d, r in strata:
            g = next(gaps[n])
            while True:
                op = (_degrees(g, rng.randint(-50, 50)), d, r)
                if op not in seen:
                    seen.add(op)
                    yield op
                    break


def census_run(op):
    degrees, d, r = op
    return hecke.neighbors(BundleType(degrees), d, r)


def census_check(op, out):
    degrees, d, r = op
    E = BundleType(degrees)
    n = E.rank
    for q in (2, 3, 5):
        mass = sum(poly.evaluate(q) for poly in out.values())
        if mass != grassmannian_count(n - r, n, q**d):
            return f"census mass {mass} at q={q} is not #Gr({n - r},{n})(F_{q}^{d})"
    x = ClosedPoint(2, d)
    for E_prime in out:
        if not hecke.exists_modification(hecke.ModificationQuery(E, E_prime, x, r)):
            return f"{E_prime.pretty()} fails exists_modification"
    return None


def census_canonical(op, out):
    return [[_bundle_key(E), list(p.coeffs)] for E, p in out.items()]


# --- eigen ------------------------------------------------------------------

EIGEN_STRATA = (
    [(2, D) for D in range(8, 25)]
    + [(3, D) for D in range(3, 8)]
    + [(4, D) for D in range(2, 5)]
)


def eigen_ops(seed):
    """(n, D, q, lambdas, n1): every (n, D) once per round; q and n1 cycle."""
    rng = random.Random(f"eigen:{seed}")
    qs = {s: _cycle(rng, (2, 3, 5)) for s in EIGEN_STRATA}
    n1s = {s: _cycle(rng, range(1, s[0])) for s in EIGEN_STRATA}
    while True:
        strata = EIGEN_STRATA[:]
        rng.shuffle(strata)
        for n, D in strata:
            lams = tuple(
                (rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(n - 1)
            )
            yield (n, D, next(qs[n, D]), lams, next(n1s[n, D]))


def _eigen_query(op):
    n, D, q, lams, _ = op
    return forms.EigenQuery([Fraction(a, b) for a, b in lams], ClosedPoint(q, 1, (0, 1)), D)


def eigen_run(op):
    n, _, q, _, n1 = op
    f = forms.eigenform_solve(_eigen_query(op))
    return f, forms.cusp_defect(f, n1, n - n1, f.space, q)


def eigen_check(op, out):
    f, _ = out
    query = _eigen_query(op)
    for r in range(1, query.n):
        if not forms.eigenvalue_of_balanced_relation(query, f, r):
            return f"balanced relation fails at r={r}"
    return None


def _frac(v):
    v = Fraction(v)
    return [v.numerator, v.denominator]


def eigen_canonical(op, out):
    f, defects = out
    return {
        "f": [[_bundle_key(c.degrees)] + _frac(v) for c, v in sorted(f.values.items())],
        "cusp": [
            [_bundle_key(F), _bundle_key(G)] + _frac(v)
            for (F, G), v in sorted(defects.items(), key=lambda kv: kv[0])
        ],
    }


# --- oracle -----------------------------------------------------------------

#: (q, d, n, r) over prime q with q^d <= 16 and at most 400 fiber subspaces,
#: so one brute census stays within about a second
ORACLE_BRUTE_STRATA = [
    (q, d, n, r)
    for q, d in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1))
    for n in (2, 3, 4)
    for r in range(1, n)
    if grassmannian_count(n - r, n, q**d) <= 400
]
#: (n, q, degree of pi) of the SNF ops, which cycle through them
ORACLE_SNF_STRATA = [(n, q, e) for n in (4, 5, 6) for q in (2, 3, 5) for e in (1, 2)]
#: two SNF ops for every three brute censuses
ORACLE_SNF_PER_ROUND = 2 * len(ORACLE_BRUTE_STRATA) // 3


def _pmul(a, b, q):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _padd(a, b, q):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % q
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _matmul(A, B, q):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ()
            for k in range(n):
                acc = _padd(acc, _pmul(A[i][k], B[k][j], q), q)
            row.append(acc)
        out.append(row)
    return out


def _unimodular(rng, n, q):
    """A row-permuted lower times upper unitriangular matrix over F_q[t]."""
    def entry():
        return _padd((), tuple(rng.randrange(q) for _ in range(2)), q)

    L = [[(1,) if i == j else (entry() if j < i else ()) for j in range(n)] for i in range(n)]
    U = [[(1,) if i == j else (entry() if j > i else ()) for j in range(n)] for i in range(n)]
    M = _matmul(L, U, q)
    rng.shuffle(M)
    return M


def _snf_op(rng, n, q, e, k):
    """U * diag(1, .., 1, pi, .., pi) * V with k copies of pi, deg pi = e."""
    pi = _point_poly(rng, q, e)
    diag = [(1,)] * (n - k) + [pi] * k
    D = [[diag[i] if i == j else () for j in range(n)] for i in range(n)]
    M = _matmul(_matmul(_unimodular(rng, n, q), D, q), _unimodular(rng, n, q), q)
    return ("snf", q, tuple(tuple(row) for row in M), tuple(diag))


def oracle_ops(seed):
    """Brute censuses over every (q, d, n, r) stratum, mixed with SNF ops.

    Degree gaps are 0 or 1: wider gaps lengthen the twist scan of
    splitting_type and would let a few instances dominate a run.
    """
    rng = random.Random(f"oracle:{seed}")
    gaps = {s: _cycle(rng, product((0, 1), repeat=s[2] - 1)) for s in ORACLE_BRUTE_STRATA}
    snf = _cycle(rng, ORACLE_SNF_STRATA)
    ks = {s: _cycle(rng, range(1, s[0])) for s in ORACLE_SNF_STRATA}
    while True:
        round_ = [("brute", s) for s in ORACLE_BRUTE_STRATA] + [("snf",)] * ORACLE_SNF_PER_ROUND
        rng.shuffle(round_)
        for kind in round_:
            if kind[0] == "snf":
                s = next(snf)
                yield _snf_op(rng, *s, next(ks[s]))
                continue
            q, d, n, r = kind[1]
            yield ("brute", q, d, _point_poly(rng, q, d), _degrees(next(gaps[kind[1]])), r)


def oracle_run(op):
    if op[0] == "snf":
        _, q, M, _ = op
        return oracle.smith_normal_form([list(row) for row in M], q)[0]
    _, q, d, poly, degrees, r = op
    return oracle.brute_multiplicity(BundleType(degrees), ClosedPoint(q, d, poly), r)


def oracle_check(op, out):
    if op[0] == "snf":
        if list(out) != list(op[3]):
            return f"SNF diagonal {out} != constructed {list(op[3])}"
        return None
    _, q, d, _, degrees, r = op
    expect = {
        E_prime: poly.evaluate(q)
        for E_prime, poly in hecke.neighbors(BundleType(degrees), d, r).items()
    }
    if out != expect:
        return f"brute census differs from neighbors() at q={q}"
    return None


def oracle_canonical(op, out):
    if op[0] == "snf":
        return [list(p) for p in out]
    return [[_bundle_key(E), c] for E, c in out.items()]


# --- verify -----------------------------------------------------------------

_CHECK_LINE = re.compile(r"^(PASS|FAIL)\s+(\S+)\s+\(([0-9.]+)s\)")


def verify_ops(seed):
    """Seeds for `heckelab verify --full`."""
    rng = random.Random(f"verify:{seed}")
    while True:
        yield rng.randrange(2**31)


def verify_run(op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--full", "--seed", str(op)])
    return code, buf.getvalue()


def verify_check(op, out):
    code, text = out
    if code != 0:
        return f"verify exited {code}"
    return None


def check_times(text: str) -> dict:
    """{check name: seconds} from verify's `PASS name (t s)` lines."""
    out = {}
    for line in text.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            out[m.group(2)] = float(m.group(3))
    return out


def verify_canonical(op, out):
    code, text = out
    return [code, [_CHECK_LINE.sub(r"\1 \2", line) for line in text.splitlines()]]


#: the `why` of each workload is the one in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census",
            "distinct seeded hecke.neighbors censuses, rank 3-5, d in {2,3}: the Hall "
            "engine (kx_times, straightening, QRat/poly_gcd), no elimination or field work",
            census_ops, census_run, census_check, census_canonical, prefix=54,
        ),
        Workload(
            "eigen",
            "eigenform_solve plus cusp_defect: dense Fraction elimination, d=1 Hecke "
            "matrices with the Hall cross-check, bundle_product through cusp sums",
            eigen_ops, eigen_run, eigen_check, eigen_canonical, prefix=2 * len(EIGEN_STRATA),
        ),
        Workload(
            "oracle",
            "brute fiber censuses over F_{q^d}, q^d <= 16, mixed with SNF over F_q[t]: "
            "field arithmetic and splitting_type, no Hall work",
            oracle_ops, oracle_run, oracle_check, oracle_canonical,
            prefix=len(ORACLE_BRUTE_STRATA) + ORACLE_SNF_PER_ROUND,
        ),
        Workload(
            "verify",
            "cold `heckelab verify --full` through cli.main: the documented cross-check "
            "grid, the only workload through the cli layer",
            verify_ops, verify_run, verify_check, verify_canonical, prefix=2, cold=True,
        ),
    )
}


def first_ops(workload: Workload, seed: int, count: int) -> list:
    stream = workload.ops(seed)
    return [next(stream) for _ in range(count)]
