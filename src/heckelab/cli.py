"""Command-line surface: every capability as a batch subcommand.

Output is deterministic for fixed inputs.  `--format json` documents carry
a top-level "schema": "heckelab/1" marker; text output prints polynomials
both ways (coefficient list on request via JSON, pretty string always) and
adds an evaluation column whenever --q is supplied.  Exit codes: 0 success,
2 usage or domain error, 3 internal identity violation (with a diagnostic
JSON document on stderr).
"""

from __future__ import annotations

import argparse
import json
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
from .hecke import ModificationQuery, exists_modification, multiplicity_detail, neighbors
from .oracle import BudgetExceeded, brute_multiplicity, check_subspace_budget, smith_normal_form
from .qcalc import QPoly, gaussian_binomial

SCHEMA = "heckelab/1"


# ---------------------------------------------------------------------------
# argument parsing helpers

def _degrees(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad degree list {text!r}; want e.g. 0,0 or -1,2")


def _field_size(text: str) -> int:
    """--q where it names the field F_q: a prime power."""
    q = int(text)
    try:
        fpoly.prime_power(q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return q


def _prime(text: str) -> int:
    """--q where arithmetic is done mod q: a prime."""
    q = int(text)
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


def _emit_json(doc: dict) -> None:
    doc = {"schema": SCHEMA, **doc}
    print(json.dumps(doc, indent=2, sort_keys=True))


def _term_label(term) -> str:
    label = term.bundle.pretty()
    if term.torsion_weight:
        label += f"+K^{term.torsion_weight}"
    return label


def _print_element(elem, q0) -> None:
    if not len(elem):
        print("0")
        return
    for term, coeff in elem.items():
        line = f"[{_term_label(term)}]: {coeff.pretty()}"
        if q0 is not None:
            line += f"   (at q={q0}: {coeff.evaluate(q0)})"
        print(line)


def _element_doc(elem, q0) -> list:
    terms = elem.to_json()
    if q0 is not None:
        for entry, (term, coeff) in zip(terms, elem.items()):
            entry["at_q"] = str(coeff.evaluate(q0))
    return terms


# ---------------------------------------------------------------------------
# subcommands

def cmd_gr(args) -> int:
    poly = gaussian_binomial(args.k, args.n)
    value = poly.evaluate(args.q) if args.q is not None else None
    if args.format == "json":
        doc = {"command": "gr", "k": args.k, "n": args.n, "count": _poly_doc(poly)}
        if value is not None:
            doc["q"] = args.q
            doc["at_q"] = value
        _emit_json(doc)
    else:
        print(f"#Gr({args.k},{args.n}) = {poly.pretty()}")
        if value is not None:
            print(f"at q={args.q}: {value}")
    return 0


def cmd_delta(args) -> int:
    deltas = enumerate_deltas(args.n, args.r)
    rows = [
        {"bits": d.to_json(), "weight": weight(d), "omega": omega(d)} for d in deltas
    ]
    check = schubert_count(args.n, args.r)
    if args.format == "json":
        _emit_json(
            {
                "command": "delta",
                "n": args.n,
                "r": args.r,
                "vectors": rows,
                "count": len(rows),
                "schubert_count": _poly_doc(check),
            }
        )
    else:
        print("bits\tweight\tomega")
        for row in rows:
            print(f"{tuple(row['bits'])}\t{row['weight']}\t{row['omega']}")
        print(f"count {len(rows)}; schubert sum {check.pretty()}")
    return 0


def cmd_hall_mul(args) -> int:
    elem = bundle_product(BundleType(args.f), BundleType(args.g))
    if args.format == "json":
        _emit_json(
            {
                "command": "hall mul",
                "f": list(BundleType(args.f).degrees),
                "g": list(BundleType(args.g).degrees),
                "terms": _element_doc(elem, args.q),
            }
        )
    else:
        _print_element(elem, args.q)
    return 0


def cmd_hall_kx(args) -> int:
    elem = kx_times(args.weight, BundleType(args.bundle), args.point_degree, method=args.method)
    if args.format == "json":
        _emit_json(
            {
                "command": "hall kx",
                "bundle": list(BundleType(args.bundle).degrees),
                "weight": args.weight,
                "point_degree": args.point_degree,
                "method": args.method,
                "terms": _element_doc(elem, args.q),
            }
        )
    else:
        _print_element(elem, args.q)
    return 0


def _cross_check_flag(choice: str):
    return {"auto": None, "on": True, "off": False}[choice]


def cmd_hecke_neighbors(args) -> int:
    E = BundleType(args.bundle)
    x = ClosedPoint(args.q if args.q is not None else 2, args.point_degree)
    census = neighbors(E, args.point_degree, args.weight, cross_check=_cross_check_flag(args.cross_check))
    rows = []
    for E_prime, poly in census.items():
        _, method = multiplicity_detail(ModificationQuery(E, E_prime, x, args.weight), cross_check=False)
        row = {
            "degrees": list(E_prime.degrees),
            "multiplicity": _poly_doc(poly),
            "method": method,
        }
        if args.q is not None:
            row["at_q"] = poly.evaluate(args.q)
        rows.append(row)
    total = sum((p for p in census.values()), QPoly(()))
    if args.format == "json":
        doc = {
            "command": "hecke neighbors",
            "bundle": list(E.degrees),
            "point_degree": args.point_degree,
            "weight": args.weight,
            "neighbors": rows,
            "total": _poly_doc(total),
        }
        if args.q is not None:
            doc["q"] = args.q
            doc["total_at_q"] = total.evaluate(args.q)
        _emit_json(doc)
    else:
        for row in rows:
            line = f"{BundleType(row['degrees']).pretty()}: {row['multiplicity']['pretty']}"
            if args.q is not None:
                line += f" = {row['at_q']}"
            line += f"   [{row['method']}]"
            print(line)
        tail = f"total {total.pretty()}"
        if args.q is not None:
            tail += f" = {total.evaluate(args.q)}"
        print(tail)
    return 0


def cmd_hecke_mult(args) -> int:
    E = BundleType(args.bundle)
    E_prime = BundleType(args.target)
    x = ClosedPoint(args.q if args.q is not None else 2, args.point_degree)
    query = ModificationQuery(E, E_prime, x, args.weight)
    poly, method = multiplicity_detail(query, cross_check=_cross_check_flag(args.cross_check))
    exists = exists_modification(query)
    if args.format == "json":
        doc = {
            "command": "hecke mult",
            "bundle": list(E.degrees),
            "target": list(E_prime.degrees),
            "point_degree": args.point_degree,
            "weight": args.weight,
            "exists": exists,
            "multiplicity": _poly_doc(poly),
            "method": method,
        }
        if args.q is not None:
            doc["q"] = args.q
            doc["at_q"] = poly.evaluate(args.q)
        _emit_json(doc)
    else:
        line = f"m({E_prime.pretty()} -> {E.pretty()}) = {poly.pretty()}"
        if args.q is not None:
            line += f" = {poly.evaluate(args.q)}"
        line += f"   [{method}]"
        print(line)
    return 0


def cmd_oracle_census(args) -> int:
    E = BundleType(args.bundle)
    if args.point is not None:
        d = len(args.point) - 1
    elif args.point_degree is not None:
        d = args.point_degree
    else:
        raise ValueError("need --point or --point-degree")
    # the point search alone can outlast any census the budget allows
    check_subspace_budget(E.rank, args.weight, args.q, d, args.budget)
    if args.point is not None:
        x = ClosedPoint(args.q, d, args.point)
    else:
        x = ClosedPoint(args.q, d, fpoly.first_irreducible(args.q, d))
    census = brute_multiplicity(E, x, args.weight, budget=args.budget)
    rows = [
        {"degrees": list(E_prime.degrees), "count": c} for E_prime, c in census.items()
    ]
    if args.format == "json":
        _emit_json(
            {
                "command": "oracle census",
                "bundle": list(E.degrees),
                "point": x.to_json(),
                "weight": args.weight,
                "census": rows,
                "total": sum(census.values()),
            }
        )
    else:
        print(f"point {x.poly_pretty()} over F_{x.q} (degree {x.d})")
        for row in rows:
            print(f"{BundleType(row['degrees']).pretty()}: {row['count']}")
        print(f"total {sum(census.values())}")
    return 0


def _t_pretty(coeffs) -> str:
    return QPoly(tuple(coeffs)).pretty().replace("q", "t")


def cmd_oracle_snf(args) -> int:
    diag, L, R = smith_normal_form(args.matrix, args.q)
    if args.format == "json":
        _emit_json(
            {
                "command": "oracle snf",
                "q": args.q,
                "diag": [list(entry) for entry in diag],
                "diag_pretty": [_t_pretty(entry) for entry in diag],
                "left": [[list(e) for e in row] for row in L],
                "right": [[list(e) for e in row] for row in R],
            }
        )
    else:
        print("diag: " + ", ".join(_t_pretty(entry) for entry in diag))
    return 0


def _eigen_query(args) -> EigenQuery:
    x = ClosedPoint(args.q, 1, (0, 1))
    return EigenQuery(args.lams, x, args.depth)


def cmd_forms_eigen(args) -> int:
    query = _eigen_query(args)
    if query.n != args.n:
        raise ValueError(f"--lambda needs n-1 = {args.n - 1} values, got {len(query.lams)}")
    f = eigenform_solve(query)
    if args.format == "json":
        doc = f.to_json()
        doc.update(
            {
                "command": "forms eigen",
                "n": args.n,
                "q": args.q,
                "lambda": [str(l) for l in query.lams],
                "depth": args.depth,
            }
        )
        _emit_json(doc)
    else:
        print(f"nullity {f.nullity}")
        for c in f.space.padded:
            print(f"{c.degrees.pretty()}: {f[c]}")
    return 0


def cmd_forms_toroidal(args) -> int:
    query = _eigen_query(args)
    if query.n != args.n:
        raise ValueError(f"--lambda needs n-1 = {args.n - 1} values, got {len(query.lams)}")
    f = eigenform_solve(query)
    total = toroidal_sum(f, args.n)
    if args.format == "json":
        _emit_json(
            {
                "command": "forms toroidal",
                "n": args.n,
                "q": args.q,
                "lambda": [str(l) for l in query.lams],
                "depth": args.depth,
                "toroidal_sum": str(total),
                "is_zero": total == 0,
            }
        )
    else:
        print(f"toroidal sum {total}")
    return 0


def cmd_forms_cusp(args) -> int:
    query = _eigen_query(args)
    if query.n != args.n:
        raise ValueError(f"--lambda needs n-1 = {args.n - 1} values, got {len(query.lams)}")
    n1 = args.n1
    if not 1 <= n1 <= args.n - 1:
        raise ValueError(f"need 1 <= n1 <= {args.n - 1}, got {n1}")
    f = eigenform_solve(query)
    defects = cusp_defect(f, n1, args.n - n1, f.space, args.q)
    rows = [
        {
            "quotient": list(F.degrees),
            "sub": list(G.degrees),
            "defect": str(v),
        }
        for (F, G), v in sorted(defects.items())
    ]
    if args.format == "json":
        _emit_json(
            {
                "command": "forms cusp",
                "n": args.n,
                "q": args.q,
                "lambda": [str(l) for l in query.lams],
                "depth": args.depth,
                "n1": n1,
                "defects": rows,
                "all_zero": all(v == 0 for v in defects.values()),
            }
        )
    else:
        for row in rows:
            F = BundleType(row["quotient"]).pretty()
            G = BundleType(row["sub"]).pretty()
            print(f"({F}, {G}): {row['defect']}")
        print(f"all zero: {all(v == 0 for v in defects.values())}")
    return 0


# ---------------------------------------------------------------------------
# verify: the cross-check grid of heckelab.verify

def cmd_verify(args) -> int:
    mode = "full" if args.full else "quick"
    grid = verify.GRIDS[mode]
    rng = random.Random(args.seed)
    failures = []
    for name, check in verify.CHECKS.items():
        start = time.perf_counter()
        try:
            detail = check(rng, **grid[name])
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

def _add_format(p) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckelab",
        description="Exact Hecke-modification counts for bundles on the projective line.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gr", help="Grassmannian point count as a q-polynomial")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_field_size)
    _add_format(p)
    p.set_defaults(func=cmd_gr)

    p = sub.add_parser("delta", help="enumerate drop vectors with weights")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("hall", help="hall-algebra products")
    hall_sub = p.add_subparsers(dest="hall_command", required=True)
    pm = hall_sub.add_parser("mul", help="product [F]*[G] expanded over bundles")
    pm.add_argument("--f", type=_degrees, required=True, metavar="DEGS")
    pm.add_argument("--g", type=_degrees, required=True, metavar="DEGS")
    pm.add_argument("--q", type=_field_size)
    _add_format(pm)
    pm.set_defaults(func=cmd_hall_mul)
    pk = hall_sub.add_parser("kx", help="skyscraper product K_x^r * [E]")
    pk.add_argument("--bundle", type=_degrees, required=True, metavar="DEGS")
    pk.add_argument("--weight", type=int, required=True)
    pk.add_argument("--point-degree", type=int, required=True)
    pk.add_argument("--method", choices=("recursive", "closed"), default="recursive")
    pk.add_argument("--q", type=_field_size)
    _add_format(pk)
    pk.set_defaults(func=cmd_hall_kx)

    p = sub.add_parser("hecke", help="modification existence, counts, censuses")
    hecke_sub = p.add_subparsers(dest="hecke_command", required=True)
    pn = hecke_sub.add_parser("neighbors", help="census of weight-r modifications of E")
    pn.add_argument("--bundle", type=_degrees, required=True, metavar="DEGS")
    pn.add_argument("--point-degree", type=int, required=True)
    pn.add_argument("--weight", type=int, required=True)
    pn.add_argument("--q", type=_field_size)
    pn.add_argument("--cross-check", choices=("auto", "on", "off"), default="auto")
    _add_format(pn)
    pn.set_defaults(func=cmd_hecke_neighbors)
    pt = hecke_sub.add_parser("mult", help="multiplicity of one modification")
    pt.add_argument("--bundle", type=_degrees, required=True, metavar="DEGS")
    pt.add_argument("--target", type=_degrees, required=True, metavar="DEGS")
    pt.add_argument("--point-degree", type=int, required=True)
    pt.add_argument("--weight", type=int, required=True)
    pt.add_argument("--q", type=_field_size)
    pt.add_argument("--cross-check", choices=("auto", "on", "off"), default="auto")
    _add_format(pt)
    pt.set_defaults(func=cmd_hecke_mult)

    p = sub.add_parser("oracle", help="brute-force enumeration over an explicit field")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    pc = oracle_sub.add_parser("census", help="enumerate subsheaves fiberwise")
    pc.add_argument("--bundle", type=_degrees, required=True, metavar="DEGS")
    pc.add_argument("--q", type=_prime, required=True)
    pc.add_argument("--point", type=_coeffs, metavar="COEFFS")
    pc.add_argument("--point-degree", type=int)
    pc.add_argument("--weight", type=int, required=True)
    pc.add_argument("--budget", type=int)
    _add_format(pc)
    pc.set_defaults(func=cmd_oracle_census)
    ps = oracle_sub.add_parser("snf", help="Smith normal form over F_q[t]")
    ps.add_argument(
        "--matrix",
        type=_matrix,
        required=True,
        help="rows ';', entries '|', little-endian coefficients ','  e.g. '1,1,1|0;0|1'",
    )
    ps.add_argument("--q", type=_prime, required=True)
    _add_format(ps)
    ps.set_defaults(func=cmd_oracle_snf)

    p = sub.add_parser("forms", help="eigenforms and the triviality theorems")
    forms_sub = p.add_subparsers(dest="forms_command", required=True)
    for name, func in (
        ("eigen", cmd_forms_eigen),
        ("toroidal", cmd_forms_toroidal),
        ("cusp", cmd_forms_cusp),
    ):
        pf = forms_sub.add_parser(name)
        pf.add_argument("--n", type=int, required=True)
        pf.add_argument("--q", type=_prime, required=True)
        pf.add_argument("--lambda", dest="lams", type=_rationals, required=True, metavar="RATS")
        pf.add_argument("--depth", type=int, required=True)
        if name == "cusp":
            pf.add_argument("--n1", type=int, default=1)
        _add_format(pf)
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
        return args.func(args)
    except (HallIntegrityError, TheoremViolation, BudgetExceeded) as exc:
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
