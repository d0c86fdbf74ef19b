"""Acceptance suite: one test per headline guarantee, with runtime bounds.

Each criterion runs its check from `heckelab.verify` on the `acceptance`
grid, which contains the `full` grid of `heckelab verify --full`.  Each
test prints a single summary line; the asserted content is exact (integer
and polynomial equality throughout, no tolerances).
"""

import random
import time

from heckelab.verify import CHECKS, GRIDS


def _criterion(number: int, label: str, check: str, bound: float, seed: int = 0) -> None:
    start = time.perf_counter()
    detail = CHECKS[check](random.Random(seed), **GRIDS["acceptance"][check])
    assert detail is None, f"criterion {number}: {detail}"
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s (bound {bound:.0f}s)")
    assert elapsed < bound, f"criterion {number} exceeded {bound}s: {elapsed:.2f}s"


def test_criterion_01_worked_example():
    _criterion(1, "worked example, three ways", "worked-example", 1.0)


def test_criterion_02_rank2_table():
    _criterion(2, "rank-2 five-case table vs hall", "rank2-table", 30.0)


def test_criterion_03_degree_one_classification():
    _criterion(3, "degree-one censuses vs hall", "deg1-classification", 120.0)


def test_criterion_04_oracle_equivalence():
    _criterion(4, "brute-force oracle equals closed forms", "oracle-equivalence", 300.0)


def test_criterion_05_weight_one_criterion():
    _criterion(5, "chain criterion iff nonzero hall number", "weight-one-criterion", 120.0)


def test_criterion_06_spaced_factorization():
    _criterion(6, "gap factorization vs fallback", "spaced-factorization", 60.0)


def test_criterion_07_hall_engine_integrity():
    _criterion(
        7,
        "associativity, closed=recursive, integral coefficients",
        "hall-integrity",
        120.0,
        seed=1729,
    )


def test_criterion_08_smith_normal_form():
    _criterion(8, "SNF invariant factors", "smith-normal-form", 60.0, seed=5)


def test_criterion_09_eigenform_theorem():
    _criterion(
        9, "eigenspace dimension one, random eigenvalue tuples", "eigen-nullity", 180.0,
        seed=271828,
    )


def test_criterion_10_triviality_theorems():
    _criterion(
        10, "toroidal vanishing, no cusp forms, extension mass", "triviality-theorems", 120.0
    )


def _covers(big, small) -> bool:
    """A grid parameter at least as large: a bigger bound or a superset."""
    if isinstance(small, int):
        return big >= small
    return set(small) <= set(big)


def test_acceptance_grids_contain_full_grids():
    full, acceptance = GRIDS["full"], GRIDS["acceptance"]
    assert list(acceptance) == list(full) == list(GRIDS["quick"]) == list(CHECKS)
    for check, params in full.items():
        assert acceptance[check].keys() == params.keys(), check
        for key, value in params.items():
            assert _covers(acceptance[check][key], value), (check, key)
