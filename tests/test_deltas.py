"""Delta-vector combinatorics: enumeration, weight, omega, Schubert count."""

from fractions import Fraction

import pytest

from heckelab.deltas import DeltaVec, enumerate_deltas, omega, schubert_count, weight
from heckelab.qcalc import ONE, Q, gaussian_binomial


def test_enumerate():
    assert [d.bits for d in enumerate_deltas(2, 1)] == [(1, 0), (0, 1)]
    assert [d.bits for d in enumerate_deltas(3, 0)] == [(0, 0, 0)]
    vecs = enumerate_deltas(6, 2)
    assert len(vecs) == 15 == len(set(vecs))
    assert DeltaVec([0, 1, 1, 0, 0, 0]) in vecs
    assert DeltaVec([1, 0, 0, 0, 1, 0]) in vecs
    with pytest.raises(ValueError):
        enumerate_deltas(2, 3)
    with pytest.raises(ValueError):
        DeltaVec([0, 2])


def test_weight_examples():
    assert weight(DeltaVec([0, 1, 1, 0, 0, 0])) == 2
    assert weight(DeltaVec([1, 0, 0, 0, 1, 0])) == 3
    assert weight(DeltaVec([1, 1, 0, 0])) == 0


def test_weight_extremes():
    for n in range(1, 8):
        for r in range(n + 1):
            ws = {d: weight(d) for d in enumerate_deltas(n, r)}
            for d, w in ws.items():
                assert w >= 0
                ones_first = d.bits == (1,) * r + (0,) * (n - r)
                assert (w == 0) == ones_first
            assert max(ws.values()) == r * (n - r)
            assert ws[DeltaVec((0,) * (n - r) + (1,) * r)] == r * (n - r)


def test_omega():
    assert omega(DeltaVec([0, 0, 1, 1])) == 7
    assert omega(DeltaVec([1, 0, 0, 0])) == 1
    assert omega(DeltaVec([0, 1, 1, 0, 0, 0])) == 5


def test_schubert_count():
    assert schubert_count(2, 1) == Q + 1
    for n in range(1, 6):
        assert schubert_count(n, 0) == ONE
    assert schubert_count(4, 2) == gaussian_binomial(2, 4)
    for n in range(9):
        for r in range(n + 1):
            assert schubert_count(n, r) == gaussian_binomial(r, n)


def test_concatenation_law():
    for n1 in range(1, 5):
        for n2 in range(1, 5):
            for d1 in enumerate_deltas(n1, min(2, n1)):
                for d2 in enumerate_deltas(n2, min(1, n2)):
                    r1, r2 = d1.r, d2.r
                    lhs = weight(DeltaVec(d1.bits + d2.bits)) - weight(d1) - weight(d2)
                    assert lhs == r2 * (n1 - r1)


def test_one_based_call():
    d = DeltaVec([0, 1, 1, 0])
    assert d(1) == 0 and d(2) == 1 and d(3) == 1 and d(4) == 0


@pytest.mark.parametrize(
    "bits", ["101", (True, False), (1.0, 0), [Fraction(1)], ("1", "0")], ids=repr
)
def test_delta_vec_rejects_bits_that_are_not_ints(bits):
    with pytest.raises(TypeError):
        DeltaVec(bits)

