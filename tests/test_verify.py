"""Fault injection: each cross-check of heckelab.verify reports a wrong answer.

Every case perturbs one answer path with monkeypatch and runs its check on
the quick grid; the check must return a one-line failure, not None.  The
perturbations wrap names that hold no cache, so nothing wrong outlives a
test.
"""

import json
import random

import pytest

from heckelab import cli, fpoly, hecke, oracle, verify
from heckelab.bundles import ClosedPoint
from heckelab.forms import FormVector
from heckelab.oracle import Field, matrix_rank


def _bump_census(brute_multiplicity):
    """A brute census with every count one too high."""

    def wrong(*args, **kwargs):
        return {F: c + 1 for F, c in brute_multiplicity(*args, **kwargs).items()}

    return wrong


def _twisted_splitting_type(splitting_type):
    """Kernel types one degree too low, outside every candidate list."""

    def wrong(*args):
        return splitting_type(*args).twist(-1)

    return wrong


def _plus_one(func):
    def wrong(*args, **kwargs):
        return func(*args, **kwargs) + 1

    return wrong


def _negated(func):
    def wrong(*args, **kwargs):
        return not func(*args, **kwargs)

    return wrong


def _doubled_closed_kx(kx_times):
    def wrong(r, E, d, method="recursive"):
        out = kx_times(r, E, d, method=method)
        return out.scale(2) if method == "closed" else out

    return wrong


def _reversed_diag(smith_normal_form):
    def wrong(M, q):
        diag, L, R = smith_normal_form(M, q)
        return diag[::-1], L, R

    return wrong


def _extra_nullity(eigenform_solve):
    def wrong(*args, **kwargs):
        f = eigenform_solve(*args, **kwargs)
        return FormVector(f.space, f.values, f.nullity + 1)

    return wrong


def _extra_middle(extension_middle_distribution):
    def wrong(F, G, q0):
        dist = dict(extension_middle_distribution(F, G, q0))
        first = min(dist)
        dist[first] += 1
        return dist

    return wrong


#: check name -> (module, attribute, perturbation of the attribute)
FAULTS = {
    "worked-example": (verify, "brute_multiplicity", _bump_census),
    "rank2-table": (hecke, "_rank2_table", _plus_one),
    "deg1-classification": (hecke, "_block_multiplicity", _plus_one),
    "oracle-equivalence": (oracle, "splitting_type", _twisted_splitting_type),
    "weight-one-criterion": (verify, "exists_modification", _negated),
    "spaced-factorization": (verify, "hall_multiplicity", _plus_one),
    "hall-integrity": (verify, "kx_times", _doubled_closed_kx),
    "smith-normal-form": (verify, "smith_normal_form", _reversed_diag),
    "eigen-nullity": (verify, "eigenform_solve", _extra_nullity),
    "triviality-theorems": (verify, "extension_middle_distribution", _extra_middle),
}


def test_every_check_has_a_fault():
    assert set(FAULTS) == set(verify.CHECKS)


@pytest.mark.parametrize("name", list(FAULTS))
def test_a_perturbed_answer_path_fails_its_check(name, monkeypatch):
    check, grid = verify.CHECKS[name], verify.GRIDS["quick"][name]
    assert check(random.Random(7), **grid) is None
    module, attr, perturb = FAULTS[name]
    monkeypatch.setattr(module, attr, perturb(getattr(module, attr)))
    detail = check(random.Random(7), **grid)
    assert isinstance(detail, str) and detail and "\n" not in detail


def test_cli_verify_reports_a_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(verify, "smith_normal_form", _reversed_diag(verify.smith_normal_form))
    code = cli.main(["verify", "--quick"])
    captured = capsys.readouterr()
    assert code == 3
    status = [l.split()[0] for l in captured.out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert status == ["FAIL" if n == "smith-normal-form" else "PASS" for n in verify.CHECKS]
    assert "checks passed" not in captured.out
    doc = json.loads(captured.err)
    assert doc["schema"] == "heckelab/1" and doc["command"] == "verify"
    assert [f["check"] for f in doc["failures"]] == ["smith-normal-form"]
    assert doc["failures"][0]["detail"].startswith("phi matrix SNF")


def reference_random_modification_matrix(rng, field, n, r):
    """The sampler without its rank prefilter: every draw pays a determinant."""
    q0, d = field.q, field.d
    pi = field.poly
    max_deg = r * d + 1
    target = (1,)
    for _ in range(r):
        target = fpoly.mul(target, pi, q0)
    target = fpoly.monic(target, q0)
    for _ in range(verify._MAX_DRAWS):
        M = [
            [
                tuple(rng.randrange(q0) for _ in range(rng.randint(0, max_deg) + 1))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        det = fpoly.det(M, q0)
        if not det or fpoly.monic(det, q0) != target:
            continue
        reduced = [[field.reduce(e) for e in row] for row in M]
        if matrix_rank(field, reduced) == n - r:
            return M
    raise RuntimeError("sampler failed to find a modification matrix")


@pytest.mark.parametrize("case", verify._SNF_CASES + ((3, 2, 2, 1), (3, 1, 3, 2)))
def test_the_rank_prefilter_keeps_every_draw_and_answer(case):
    """Same matrices and the same rng state afterwards, so every later check
    of a seeded run sees the same instances.  Demo 04's (3, 1, 3, 2) takes
    about 3,500 draws a matrix, each a determinant in the reference, so it
    runs three seeds, two of them (1 and 5) refused by a cap of 4,000."""
    q0, d, n, r = case
    field = Field(ClosedPoint(q0, d, fpoly.first_irreducible(q0, d)))
    for seed in (0, 1, 5) if case == (3, 1, 3, 2) else range(40):
        fast, slow = random.Random(seed), random.Random(seed)
        got = verify.random_modification_matrix(fast, field, n, r)
        assert got == reference_random_modification_matrix(slow, field, n, r), (case, seed)
        assert fast.getstate() == slow.getstate(), (case, seed)


def horner_free_value(e, a, q):
    return sum(c * a**i for i, c in enumerate(e)) % q


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_the_prefilter_rank_is_the_rank_of_the_evaluated_matrix(q):
    """verify._rank_at reads M(0) off the constant terms, M(1) off the
    coefficient sums and packs F_2 rows into bit masks; at every a in F_q
    it equals fpoly.rank of M evaluated entry by entry.  Entries are drawn
    untrimmed, from a small alphabet that makes ranks drop, with zero rows
    and repeated rows mixed in."""
    rng = random.Random(f"rank-at:{q}")
    deficient = set()
    for _ in range(150):
        n = rng.randint(2, 4)
        alphabet = rng.choice((2, q))
        M = [
            [tuple(rng.randrange(alphabet) for _ in range(rng.randint(1, 4))) for _ in range(n)]
            for _ in range(n)
        ]
        shape = rng.randrange(4)
        if shape == 1:
            M[rng.randrange(n)] = [rng.choice(((0,), (0, 0), (0, 0, 0))) for _ in range(n)]
        elif shape == 2:
            M[-1] = list(M[0])
        elif shape == 3:
            M[0] = [rng.choice(((1, 0, 0), (0,), (1,), (0, 1))) for _ in range(n)]
        for a in range(q):
            want = fpoly.rank([[horner_free_value(e, a, q) for e in row] for row in M], q)
            assert verify._rank_at(M, a, q) == want, (M, a)
            deficient.add(want < n)
    assert deficient == {True, False}


def test_the_prefilter_makes_no_horner_step_or_int_row_per_draw(monkeypatch):
    """Over F_2 at pi = t the prefilter reads constant terms, coefficient
    sums and bit masks.  11 samples of (2, 1, 3, 2) at seed 7 make 2,498
    draws, yet verify._evaluate runs 22 times (pi at each a, once a
    sample) and fpoly.insert_row 33 times (matrix_rank of the 11 accepted
    reductions).  Horner at every a and int-list rows made 24,592 and
    8,223."""
    calls = {"_evaluate": 0, "insert_row": 0}

    def counted(module, name):
        def call(*args, _call=getattr(module, name)):
            calls[name] += 1
            return _call(*args)

        monkeypatch.setattr(module, name, call)

    counted(verify, "_evaluate")
    counted(fpoly, "insert_row")
    field = Field(ClosedPoint(2, 1, (0, 1)))
    rng = random.Random(7)
    for _ in range(11):
        verify.random_modification_matrix(rng, field, 3, 2)
    assert calls["_evaluate"] <= 100 and calls["insert_row"] <= 100, calls


def test_demo_04s_case_samples_the_seeds_a_cap_of_4000_refused():
    field = Field(ClosedPoint(3, 1, (0, 1)))
    M = verify.random_modification_matrix(random.Random(1), field, 3, 2)
    assert oracle.smith_normal_form(M, 3)[0] == [(1,), (0, 1), (0, 1)]
