"""Splitting types, projective classes, aut orders, closed points."""

import pytest

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
from heckelab.qcalc import ONE, Q, QPoly, QRat


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


def test_proj_class():
    assert proj_class(BundleType([-1, 0])).degrees.degrees == (0, 1)
    assert proj_class(BundleType([0, 1, 3])).degrees.degrees == (0, 1, 3)
    assert proj_class(BundleType([5, 5, 5])).degrees.degrees == (0, 0, 0)
    # invariance under uniform shift
    for shift in (-3, 0, 7):
        assert proj_class(BundleType([1, 4]).twist(shift)) == proj_class(
            BundleType([1, 4])
        )


def test_q_factor():
    assert q_factor(BundleType([1, 3])) == QRat(1)
    assert q_factor(BundleType([0, 0])) == QRat(ONE, Q + 1)
    assert q_factor(BundleType([0, 0, 0])) == QRat(
        ONE, (Q + 1) * QPoly((1, 1, 1))
    )
    # distinct degrees <-> trivial factor
    assert q_factor(BundleType([-2, 0, 5])) == QRat(1)


def test_aut_order():
    assert aut_order(BundleType([0, 0]), 2) == 6 == gl_order(2, 2)
    assert aut_order(BundleType([1]), 3) == 2
    assert aut_order(BundleType([0, 1]), 2) == 4
    # scalars * unipotent for O+O(2): (q-1)^2 * q^(2-0+1)
    assert aut_order(BundleType([0, 2]), 3) == 4 * 27


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
    with pytest.raises(ValueError):
        ClosedPoint(2, 2, [1, 0, 1])  # t^2+1 = (t+1)^2 over F_2
    with pytest.raises(ValueError):
        ClosedPoint(2, 2, [1, 1, 2])  # not monic after reduction
    with pytest.raises(ValueError):
        ClosedPoint(2, 3, [1, 1, 1])  # degree mismatch
    with pytest.raises(ValueError):
        ClosedPoint(4, 2, [1, 1, 1])  # q must be prime with explicit poly
    with pytest.raises(ValueError):
        ClosedPoint(2, 0)


def test_json_roundtrip():
    E = BundleType([0, 0])
    assert BundleType.from_json(E.to_json()) == E
    assert E.to_json() == {"degrees": [0, 0]}
    x = ClosedPoint(2, 2, [1, 1, 1])
    assert ClosedPoint.from_json(x.to_json()) == x
    assert x.to_json() == {"q": 2, "degree": 2, "poly": [1, 1, 1]}
    y = ClosedPoint(7, 3)
    assert ClosedPoint.from_json(y.to_json()) == y
