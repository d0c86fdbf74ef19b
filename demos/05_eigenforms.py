#!/usr/bin/env python3
"""Hecke eigenforms on bundle classes, and why none of them are cuspidal.

An unramified automorphic form for PGL_n over the function field of P^1
is just a function on splitting types modulo twist.  The Hecke operator
at a rational point averages a form over weight-r modifications.  On a
truncation (classes of bounded spread) the eigenform equations have a
one-dimensional exact solution space for every eigenvalue tuple -- the
eigenform exists and is unique up to scale.

Two classical vanishing theorems then fall out by direct calculation:
the eigenform's sums over extension middles never all vanish (no cusp
forms), and an eigenform whose toroidal sum vanishes is identically zero.
"""

from fractions import Fraction

from heckelab.bundles import BundleType, ClosedPoint
from heckelab.forms import EigenQuery, cusp_defect, eigenform_solve, toroidal_sum
from heckelab.qcalc import gaussian_binomial

q0, lam = 2, Fraction(5)
query = EigenQuery([lam], ClosedPoint(q0, 1, (0, 1)), 5)
f = eigenform_solve(query)

print(f"rank 2 over F_{q0}, eigenvalue {lam}: the unique eigenform with f(O^2) = 1")
for c in f.space.padded:
    print(f"  f{c.degrees.degrees} = {f[c]}")
print()

count = gaussian_binomial(1, 2).evaluate(q0)
print(f"base relation: f(0,1) = lambda / #Gr(1,2)(F_{q0}) = {lam}/{count} = {f[BundleType((0, 1))]}")
print(f"second step:   f(0,2) = lambda*f(0,1) - q*f(0,0) = {lam * f[BundleType((0,1))] - q0}")
print()

defects = cusp_defect(f, 1, 1, f.space, q0)
nonzero = sum(1 for v in defects.values() if v != 0)
print(f"cusp defects over {len(defects)} quotient/sub pairs: {nonzero} nonzero")
print(f"  the split pair (O, O) already gives {defects[(BundleType((0,)), BundleType((0,)))]}")
print()

print(f"toroidal sum of f: {toroidal_sum(f)}")
forced = eigenform_solve(query, base_value=0)
print(f"forcing the toroidal sum to 0 leaves only the zero form: {forced.is_zero()}")
