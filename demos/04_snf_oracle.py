#!/usr/bin/env python3
"""Modification matrices and their invariant factors.

A weight-r modification at x can be presented concretely: a square
matrix over F_q[t] whose determinant is a unit times pi^r (pi the monic
irreducible of x) and whose reduction mod pi has rank n - r.  The Smith
normal form of such a matrix is diag(1, ..., 1, pi, ..., pi) with r
copies of pi -- the cokernel is the skyscraper kappa(x)^r and nothing
else.  We verify the transform matrices exactly: L * D * R = M over F_q[t].
"""

import random

from heckelab import fpoly
from heckelab.bundles import ClosedPoint
from heckelab.verify import random_modification_matrix
from heckelab.oracle import Field, smith_normal_form
from heckelab.qcalc import QPoly


def t_str(coeffs):
    return QPoly(tuple(coeffs)).pretty().replace("q", "t") if coeffs else "0"


print("five explicit 2x2 presentations over F_2, pi = t^2+t+1:")
pi = (1, 1, 1)
for M in [
    [[(0, 1), (1, 1)], [(1,), (0, 1)]],
    [[(1,), (1, 1)], [(0, 1), (1,)]],
    [[pi, ()], [(), (1,)]],
    [[pi, (1,)], [(), (1,)]],
    [[pi, ()], [pi, (1,)]],
]:
    diag, _, _ = smith_normal_form(M, 2)
    entries = "; ".join(", ".join(t_str(e) for e in row) for row in M)
    print(f"  [{entries}]  ->  diag({', '.join(t_str(e) for e in diag)})")
print()

rng = random.Random(2)
for q0, d, n, r in [(2, 2, 2, 1), (3, 1, 3, 2)]:
    field = Field(ClosedPoint(q0, d, fpoly.first_irreducible(q0, d)))
    M = random_modification_matrix(rng, field, n, r)
    diag, _, _ = smith_normal_form(M, q0)
    print(f"random {n}x{n} weight-{r} matrix over F_{q0}[t], pi = {t_str(field.poly)}:")
    width = max(len(t_str(e)) for row in M for e in row)
    for row in M:
        print("  [" + ", ".join(f"{t_str(e):<{width}}" for e in row) + "]")
    print(f"  invariant factors: {', '.join(t_str(e) for e in diag)}\n")
