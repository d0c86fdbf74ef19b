"""Command-line surface: every capability as a batch subcommand.

Output is deterministic for fixed inputs.  Each subcommand builds one result
document together with its text lines, and `_emit` prints one of the two:
`--format json` prints the document under a top-level "schema": "heckelab/1"
marker, text prints the lines.  Polynomials appear as coefficient lists in
JSON and as pretty strings in both; --q adds their values at q.  Exit
codes: 0 success, 1 stdout closed before the output was written, 2 usage
or domain error, 3 internal identity violation (with a diagnostic JSON
document on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import __version__, fpoly, verify
from .bundles import BundleType, ClosedPoint
from .deltas import enumerate_deltas, omega, schubert_count, weight
from .forms import (
    EigenQuery,
    TheoremViolation,
    cusp_defect,
    eigenform_solve,
    toroidal_sum,
)
from .hall import HallIntegrityError, bundle_product, kx_times
from .hecke import ModificationQuery, exists_modification, multiplicity_detail, neighbors_detail
from .oracle import (
    BudgetExceeded,
    OracleIntegrityError,
    brute_multiplicity,
    check_subspace_budget,
    default_budget,
    smith_normal_form,
)
from .qcalc import ZERO, QPoly, gaussian_binomial

SCHEMA = "heckelab/1"


# ---------------------------------------------------------------------------
# argument parsing helpers

def _degrees(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad degree list {text!r}; want e.g. 0,0 or -1,2")


def _integer_q(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"q must be an integer, got {text!r}")


def _budget(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"budget must be an integer, got {text!r}")
    if budget < 1:
        raise argparse.ArgumentTypeError(f"budget must be at least 1, got {budget}")
    return budget


def _field_size(text: str) -> int:
    """--q where it names the field F_q: a prime power."""
    q = _integer_q(text)
    try:
        fpoly.prime_power(q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return q


def _prime(text: str) -> int:
    """--q where arithmetic is done mod q: a prime."""
    q = _integer_q(text)
    try:
        prime = fpoly.is_prime(q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not prime:
        raise argparse.ArgumentTypeError(f"q must be a prime, got {q}")
    return q


def _coeffs(text: str) -> tuple:
    """Little-endian polynomial coefficients; '' and '0' both mean zero."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad coefficient list {text!r}; want e.g. 1,1,1")


def _matrix(text: str) -> list:
    """Rows split by ';', entries by '|', coefficients by ','."""
    return [[_coeffs(entry) for entry in row.split("|")] for row in text.split(";")]


def _rationals(text: str) -> tuple:
    try:
        return tuple(Fraction(p) for p in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational list {text!r}; want e.g. 3 or 7,11/2")


def _poly_doc(p: QPoly) -> dict:
    return {"coeffs": list(p.coeffs), "pretty": p.pretty()}


def _emit(args, doc: dict, lines: list) -> int:
    """Print the result document: as JSON, or as its text lines."""
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, **doc}, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


def _at_q(doc: dict, poly: QPoly, q, key: str = "at_q") -> str:
    """Add --q and poly's value there to doc; return the text suffix."""
    if q is None:
        return ""
    doc["q"] = q
    doc[key] = poly.evaluate(q)
    return f" = {doc[key]}"


def _hall_terms(elem, q) -> tuple:
    """A Hall element's terms as document rows and as text lines."""
    rows = elem.to_json()
    lines = []
    for row, (term, coeff) in zip(rows, elem.items()):
        line = f"[{term.pretty()}]: {coeff.pretty()}"
        if q is not None:
            row["at_q"] = str(coeff.evaluate(q))
            line += f"   (at q={q}: {row['at_q']})"
        lines.append(line)
    return rows, lines or ["0"]


_CROSS_CHECK = {"auto": None, "on": True, "off": False}


# ---------------------------------------------------------------------------
# subcommands

def cmd_gr(args) -> int:
    poly = gaussian_binomial(args.k, args.n)
    doc = {"command": "gr", "k": args.k, "n": args.n, "count": _poly_doc(poly)}
    lines = [f"#Gr({args.k},{args.n}) = {poly.pretty()}"]
    if _at_q(doc, poly, args.q):
        lines.append(f"at q={args.q}: {doc['at_q']}")
    return _emit(args, doc, lines)


def cmd_delta(args) -> int:
    count = math.comb(args.n, args.r) if 0 <= args.r <= args.n else 0
    limit = default_budget("subspaces")
    if count > limit:
        raise BudgetExceeded(f"{count} drop vectors exceed budget {limit}")
    rows = [
        {"bits": d.to_json(), "weight": weight(d), "omega": omega(d)}
        for d in enumerate_deltas(args.n, args.r)
    ]
    check = schubert_count(args.n, args.r)
    doc = {
        "command": "delta",
        "n": args.n,
        "r": args.r,
        "vectors": rows,
        "count": len(rows),
        "schubert_count": _poly_doc(check),
    }
    lines = ["bits\tweight\tomega"]
    lines += [f"{tuple(row['bits'])}\t{row['weight']}\t{row['omega']}" for row in rows]
    lines.append(f"count {len(rows)}; schubert sum {check.pretty()}")
    return _emit(args, doc, lines)


def cmd_hall_mul(args) -> int:
    F, G = BundleType(args.f), BundleType(args.g)
    terms, lines = _hall_terms(bundle_product(F, G), args.q)
    doc = {"command": "hall mul", "f": list(F.degrees), "g": list(G.degrees), "terms": terms}
    return _emit(args, doc, lines)


def cmd_hall_kx(args) -> int:
    E = BundleType(args.bundle)
    elem = kx_times(args.weight, E, args.point_degree, method=args.method)
    terms, lines = _hall_terms(elem, args.q)
    doc = {
        "command": "hall kx",
        "bundle": list(E.degrees),
        "weight": args.weight,
        "point_degree": args.point_degree,
        "method": args.method,
        "terms": terms,
    }
    return _emit(args, doc, lines)


def cmd_hecke_neighbors(args) -> int:
    E = BundleType(args.bundle)
    x = ClosedPoint(args.q or 2, args.point_degree)
    census = neighbors_detail(E, x.d, args.weight, cross_check=_CROSS_CHECK[args.cross_check])
    rows, lines = [], []
    for E_prime, (poly, method) in census.items():
        row = {"degrees": list(E_prime.degrees), "multiplicity": _poly_doc(poly), "method": method}
        line = f"{E_prime.pretty()}: {poly.pretty()}"
        if args.q is not None:
            row["at_q"] = poly.evaluate(args.q)
            line += f" = {row['at_q']}"
        rows.append(row)
        lines.append(f"{line}   [{method}]")
    total = sum((poly for poly, _ in census.values()), ZERO)
    doc = {
        "command": "hecke neighbors",
        "bundle": list(E.degrees),
        "point_degree": args.point_degree,
        "weight": args.weight,
        "neighbors": rows,
        "total": _poly_doc(total),
    }
    lines.append(f"total {total.pretty()}" + _at_q(doc, total, args.q, "total_at_q"))
    return _emit(args, doc, lines)


def cmd_hecke_mult(args) -> int:
    E = BundleType(args.bundle)
    E_prime = BundleType(args.target)
    x = ClosedPoint(args.q or 2, args.point_degree)
    query = ModificationQuery(E, E_prime, x, args.weight)
    poly, method = multiplicity_detail(query, cross_check=_CROSS_CHECK[args.cross_check])
    doc = {
        "command": "hecke mult",
        "bundle": list(E.degrees),
        "target": list(E_prime.degrees),
        "point_degree": args.point_degree,
        "weight": args.weight,
        "exists": exists_modification(query),
        "multiplicity": _poly_doc(poly),
        "method": method,
    }
    line = f"m({E_prime.pretty()} -> {E.pretty()}) = {poly.pretty()}" + _at_q(doc, poly, args.q)
    return _emit(args, doc, [f"{line}   [{method}]"])


def cmd_oracle_census(args) -> int:
    E = BundleType(args.bundle)
    if args.point is None and args.point_degree is None:
        raise ValueError("need --point or --point-degree")
    d = args.point_degree if args.point is None else len(args.point) - 1
    if args.point_degree not in (None, d):
        raise ValueError(f"--point has degree {d} but --point-degree is {args.point_degree}")
    # the point search alone can outlast any census the budget allows
    check_subspace_budget(E.rank, args.weight, args.q, d, args.budget)
    poly = fpoly.first_irreducible(args.q, d) if args.point is None else args.point
    x = ClosedPoint(args.q, d, poly)
    census = brute_multiplicity(E, x, args.weight, budget=args.budget)
    doc = {
        "command": "oracle census",
        "bundle": list(E.degrees),
        "point": x.to_json(),
        "weight": args.weight,
        "census": [{"degrees": list(F.degrees), "count": c} for F, c in census.items()],
        "total": sum(census.values()),
    }
    lines = [f"point {x.poly_pretty()} over F_{x.q} (degree {x.d})"]
    lines += [f"{F.pretty()}: {c}" for F, c in census.items()]
    lines.append(f"total {doc['total']}")
    return _emit(args, doc, lines)


def cmd_oracle_snf(args) -> int:
    diag, L, R = smith_normal_form(args.matrix, args.q)
    doc = {
        "command": "oracle snf",
        "q": args.q,
        "diag": [list(entry) for entry in diag],
        "diag_pretty": [QPoly(entry).pretty().replace("q", "t") for entry in diag],
        "left": [[list(e) for e in row] for row in L],
        "right": [[list(e) for e in row] for row in R],
    }
    return _emit(args, doc, ["diag: " + ", ".join(doc["diag_pretty"])])


def _solve_forms(args) -> tuple:
    """The eigenform of --n/--q/--lambda/--depth, with the document fields
    that every forms command shares."""
    query = EigenQuery(args.lams, ClosedPoint(args.q, 1), args.depth)
    if query.n != args.n:
        raise ValueError(f"--lambda needs n-1 = {args.n - 1} values, got {len(query.lams)}")
    doc = {
        "command": f"forms {args.forms_command}",
        "n": args.n,
        "q": args.q,
        "lambda": [str(l) for l in query.lams],
        "depth": args.depth,
    }
    return eigenform_solve(query), doc


def cmd_forms_eigen(args) -> int:
    f, doc = _solve_forms(args)
    lines = [f"nullity {f.nullity}"] + [f"{c.degrees.pretty()}: {f[c]}" for c in f.space.padded]
    return _emit(args, {**f.to_json(), **doc}, lines)


def cmd_forms_toroidal(args) -> int:
    f, doc = _solve_forms(args)
    total = toroidal_sum(f)
    doc.update(toroidal_sum=str(total), is_zero=total == 0)
    return _emit(args, doc, [f"toroidal sum {total}"])


def cmd_forms_cusp(args) -> int:
    n1 = args.n1
    if not 1 <= n1 <= args.n - 1:
        raise ValueError(f"need 1 <= n1 <= {args.n - 1}, got {n1}")
    f, doc = _solve_forms(args)
    defects = sorted(cusp_defect(f, n1, args.n - n1, f.space, args.q).items())
    doc.update(
        n1=n1,
        defects=[
            {"quotient": list(F.degrees), "sub": list(G.degrees), "defect": str(v)}
            for (F, G), v in defects
        ],
        all_zero=all(v == 0 for _, v in defects),
    )
    lines = [f"({F.pretty()}, {G.pretty()}): {v}" for (F, G), v in defects]
    lines.append(f"all zero: {doc['all_zero']}")
    return _emit(args, doc, lines)


# ---------------------------------------------------------------------------
# verify: the cross-check grid of heckelab.verify

def cmd_verify(args) -> int:
    mode = "full" if args.full else "quick"
    grid = verify.GRIDS[mode]
    failures = []
    for name, check in verify.CHECKS.items():
        start = time.perf_counter()
        try:
            detail = check(random.Random(f"{args.seed}:{name}"), **grid[name])
        except Exception as exc:  # a crash in a cross-check is a failure
            detail = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if detail is None:
            print(f"PASS  {name}  ({elapsed:.2f}s)")
        else:
            print(f"FAIL  {name}  ({elapsed:.2f}s): {detail}")
            failures.append({"check": name, "detail": str(detail)})
    if failures:
        print(
            json.dumps({"schema": SCHEMA, "command": "verify", "failures": failures}),
            file=sys.stderr,
        )
        return 3
    print(f"all {len(verify.CHECKS)} checks passed ({mode})")
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckelab",
        description="Exact Hecke-modification counts for bundles on the projective line.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("gr", parents=[fmt], help="Grassmannian point count as a q-polynomial")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_field_size)
    p.set_defaults(func=cmd_gr)

    p = sub.add_parser("delta", parents=[fmt], help="enumerate drop vectors with weights")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("hall", help="hall-algebra products")
    hall_sub = p.add_subparsers(dest="hall_command", required=True)
    pm = hall_sub.add_parser("mul", parents=[fmt], help="product [F]*[G] expanded over bundles")
    pm.add_argument("--f", type=_degrees, required=True, metavar="DEGS")
    pm.add_argument("--g", type=_degrees, required=True, metavar="DEGS")
    pm.add_argument("--q", type=_field_size)
    pm.set_defaults(func=cmd_hall_mul)
    pk = hall_sub.add_parser("kx", parents=[fmt], help="skyscraper product K_x^r * [E]")
    pk.add_argument("--bundle", type=_degrees, required=True, metavar="DEGS")
    pk.add_argument("--weight", type=int, required=True)
    pk.add_argument("--point-degree", type=int, required=True)
    pk.add_argument("--method", choices=("recursive", "closed"), default="recursive")
    pk.add_argument("--q", type=_field_size)
    pk.set_defaults(func=cmd_hall_kx)

    p = sub.add_parser("hecke", help="modification existence, counts, censuses")
    hecke_sub = p.add_subparsers(dest="hecke_command", required=True)
    hecke = argparse.ArgumentParser(add_help=False, parents=[fmt])
    hecke.add_argument("--bundle", type=_degrees, required=True, metavar="DEGS")
    hecke.add_argument("--point-degree", type=int, required=True)
    hecke.add_argument("--weight", type=int, required=True)
    hecke.add_argument("--q", type=_field_size)
    hecke.add_argument("--cross-check", choices=tuple(_CROSS_CHECK), default="auto")
    pn = hecke_sub.add_parser(
        "neighbors", parents=[hecke], help="census of weight-r modifications of E"
    )
    pn.set_defaults(func=cmd_hecke_neighbors)
    pt = hecke_sub.add_parser("mult", parents=[hecke], help="multiplicity of one modification")
    pt.add_argument("--target", type=_degrees, required=True, metavar="DEGS")
    pt.set_defaults(func=cmd_hecke_mult)

    p = sub.add_parser("oracle", help="brute-force enumeration over an explicit field")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    pc = oracle_sub.add_parser("census", parents=[fmt], help="enumerate subsheaves fiberwise")
    pc.add_argument("--bundle", type=_degrees, required=True, metavar="DEGS")
    pc.add_argument("--q", type=_prime, required=True)
    pc.add_argument("--point", type=_coeffs, metavar="COEFFS")
    pc.add_argument("--point-degree", type=int)
    pc.add_argument("--weight", type=int, required=True)
    pc.add_argument("--budget", type=_budget)
    pc.set_defaults(func=cmd_oracle_census)
    ps = oracle_sub.add_parser("snf", parents=[fmt], help="Smith normal form over F_q[t]")
    ps.add_argument(
        "--matrix",
        type=_matrix,
        required=True,
        help="rows ';', entries '|', little-endian coefficients ','  e.g. '1,1,1|0;0|1'",
    )
    ps.add_argument("--q", type=_prime, required=True)
    ps.set_defaults(func=cmd_oracle_snf)

    p = sub.add_parser("forms", help="eigenforms and the triviality theorems")
    forms_sub = p.add_subparsers(dest="forms_command", required=True)
    for name, func in (
        ("eigen", cmd_forms_eigen),
        ("toroidal", cmd_forms_toroidal),
        ("cusp", cmd_forms_cusp),
    ):
        pf = forms_sub.add_parser(name, parents=[fmt])
        pf.add_argument("--n", type=int, required=True)
        pf.add_argument("--q", type=_field_size, required=True)
        pf.add_argument("--lambda", dest="lams", type=_rationals, required=True, metavar="RATS")
        pf.add_argument("--depth", type=int, required=True)
        if name == "cusp":
            pf.add_argument("--n1", type=int, default=1)
        pf.set_defaults(func=func)

    p = sub.add_parser("verify", help="run the cross-check grid")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--quick", action="store_true", default=True)
    group.add_argument("--full", action="store_true")
    p.add_argument("--seed", type=int, default=20260823)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone (`| head`): send the rest, and the flush at
        # exit, to devnull so nothing reaches stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (HallIntegrityError, TheoremViolation, OracleIntegrityError, BudgetExceeded) as exc:
        print(
            json.dumps(
                {"schema": SCHEMA, "error": type(exc).__name__, "detail": str(exc)}
            ),
            file=sys.stderr,
        )
        return 3
    except ValueError as exc:
        print(f"heckelab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
