"""Splitting types, projective classes, aut orders, closed points."""

from fractions import Fraction

import pytest

from heckelab import bundles
from heckelab.bundles import (
    BundleType,
    ClosedPoint,
    aut_order,
    ext1_dim,
    gl_order,
    hom_dim,
    proj_class,
    q_factor,
)
from heckelab.qcalc import ONE, Q, QPoly


def test_grouped_and_pretty():
    assert BundleType([3, 0, 1]).degrees == (0, 1, 3)
    assert BundleType([0, 0]).degrees == (0, 0)
    assert BundleType([2, -1, 2]).degrees == (-1, 2, 2)
    with pytest.raises(ValueError):
        BundleType([])
    E = BundleType([0, 0, 2, 3, 3, 3])
    assert E.grouped() == ((0, 2), (2, 1), (3, 3))
    assert E.rank == 6 and E.degree == 11
    assert E.pretty() == "O^2+O(2)+O(3)^3"


@pytest.mark.parametrize(
    "degrees", [(1.7, 2), ("1", "2"), (0, True), [Fraction(1)], "12", (2.0,)], ids=repr
)
def test_bundle_type_rejects_degrees_that_are_not_ints(degrees):
    """(1.7, 2) used to be O(1)+O(2)."""
    with pytest.raises(TypeError):
        BundleType(degrees)


def test_proj_class():
    assert proj_class(BundleType([-1, 0])).degrees.degrees == (0, 1)
    assert proj_class(BundleType([0, 1, 3])).degrees.degrees == (0, 1, 3)
    assert proj_class(BundleType([5, 5, 5])).degrees.degrees == (0, 0, 0)
    # invariance under uniform shift
    for shift in (-3, 0, 7):
        assert proj_class(BundleType([1, 4]).twist(shift)) == proj_class(
            BundleType([1, 4])
        )


def q_factor_form(degrees):
    """Q(E) as (num, den)."""
    factor = q_factor(BundleType(degrees))
    return factor.num, factor.den


def test_q_factor():
    assert q_factor_form([1, 3]) == (ONE, ONE)
    assert q_factor_form([0, 0]) == (ONE, Q + 1)
    assert q_factor_form([0, 0, 0]) == (ONE, (Q + 1) * QPoly((1, 1, 1)))
    # distinct degrees <-> trivial factor
    assert q_factor_form([-2, 0, 5]) == (ONE, ONE)


def test_aut_order():
    assert aut_order(BundleType([0, 0]), 2) == 6 == gl_order(2, 2)
    assert aut_order(BundleType([1]), 3) == 2
    assert aut_order(BundleType([0, 1]), 2) == 4
    # scalars * unipotent for O+O(2): (q-1)^2 * q^(2-0+1)
    assert aut_order(BundleType([0, 2]), 3) == 4 * 27


def test_aut_order_refuses_a_q_that_is_not_an_int():
    """2.0 hashes like 2, so after aut_order(O^2, 2) a float q used to hit
    gl_order's cache and come back as the float 6.0."""
    O2 = BundleType([0, 0])
    bundles._gl_order.cache_clear()
    for _ in range(2):  # cold, then with gl_order(2, 2) cached
        for q0 in (2.0, True):
            with pytest.raises(TypeError, match="q must be an int"):
                aut_order(O2, q0)
        assert aut_order(O2, 2) == 6


def test_hom_ext_dims():
    O, O1, O2 = BundleType([0]), BundleType([1]), BundleType([2])
    assert hom_dim(O, O2) == 3 and hom_dim(O2, O) == 0
    assert ext1_dim(O2, O) == 1 and ext1_dim(O1, O) == 0 and ext1_dim(O, O) == 0
    assert hom_dim(BundleType([0, 1]), BundleType([0, 1])) == 1 + 2 + 0 + 1


def test_closed_point_validation():
    x = ClosedPoint(2, 2, [1, 1, 1])
    assert x.poly == (1, 1, 1)
    assert x.poly_pretty() == "t^2+t+1"
    ClosedPoint(5, 1, [2, 1])
    ClosedPoint(3, 4, None)  # no poly: any degree
    ClosedPoint(4, 2)  # no poly: any prime power q
    for q in (6, 1, 0, -3):  # no field F_q
        with pytest.raises(ValueError, match="prime power"):
            ClosedPoint(q, 1)
    with pytest.raises(ValueError, match="reducible"):
        ClosedPoint(2, 2, [1, 0, 1])  # t^2+1 = (t+1)^2 over F_2
    with pytest.raises(ValueError, match="reducible"):
        ClosedPoint(3, 2, [2, 0, 1])  # t^2-1 = (t-1)(t+1) over F_3
    with pytest.raises(ValueError, match="degree 1 != point degree 2"):
        ClosedPoint(2, 2, [1, 1])
    with pytest.raises(ValueError):
        ClosedPoint(2, 2, [1, 1, 2])  # not monic after reduction
    with pytest.raises(ValueError):
        ClosedPoint(2, 3, [1, 1, 1])  # degree mismatch
    with pytest.raises(ValueError, match="need prime q, got 4"):
        ClosedPoint(4, 2, [1, 1, 1])  # q must be prime with explicit poly
    with pytest.raises(ValueError):
        ClosedPoint(2, 0)
    # q, d and the coefficients are checked, not converted
    for args in [
        (2, 2, (1.9, 1, 1)),  # not t^2+t+1
        (2, 2.0),  # not a degree-2 point
        (2.0, 2),  # a TypeError, not an AttributeError from fpoly
        (2, 2, (1, True, 1)),
        (True, 1),
        (2, True),
        (2, 2, (1, Fraction(1), 1)),
        (2, 2, "111"),
    ]:
        with pytest.raises(TypeError):
            ClosedPoint(*args)


def test_json_roundtrip():
    """The point's JSON, as oracle census prints it, rebuilds the point."""
    x = ClosedPoint(2, 2, [1, 1, 1])
    assert x.to_json() == {"q": 2, "degree": 2, "poly": [1, 1, 1]}
    y = ClosedPoint(7, 3)
    assert y.to_json() == {"q": 7, "degree": 3}
    for point in (x, y):
        obj = point.to_json()
        assert ClosedPoint(obj["q"], obj["degree"], obj.get("poly")) == point
