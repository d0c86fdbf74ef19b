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
from heckelab.qcalc import gaussian_binomial


def _bump_census(brute_multiplicity):
    """A brute census with every count one too high."""

    def wrong(*args, **kwargs):
        return {F: c + 1 for F, c in brute_multiplicity(*args, **kwargs).items()}

    return wrong


def _twisted_kernel_type(kernel_type):
    """Kernel types one degree too low, outside every candidate list."""

    def wrong(*args):
        return kernel_type(*args).twist(-1)

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
    "oracle-equivalence": (oracle, "_kernel_type", _twisted_kernel_type),
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


@pytest.mark.parametrize("name", ["rank2-table", "deg1-classification", "spaced-factorization"])
def test_a_census_that_misses_a_type_fails_on_its_mass(name, monkeypatch):
    """With the last candidate type dropped every closed answer still equals
    the Hall engine's, so only the census mass shows the gap."""
    candidates = verify.candidates
    monkeypatch.setattr(verify, "candidates", lambda E, d, r: candidates(E, d, r)[:-1])
    detail = verify.CHECKS[name](random.Random(7), **verify.GRIDS["quick"][name])
    assert isinstance(detail, str) and "census mass" in detail and "\n" not in detail


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


def _u_times_diag_t(sample):
    """The sampler with U replaced by diag(t, 1, ..., 1) * U, which is not
    unimodular: det M gains a factor t."""

    def wrong(rng, field, n, r):
        M = sample(rng, field, n, r)
        M[0] = [fpoly.mul((0, 1), e, field.q) for e in M[0]]
        return M

    return wrong


def _pi_r_in_one_slot(sample):
    """U * diag(1, ..., 1, pi^r) * V: det M is still a unit times pi^r, but
    at r >= 2 M mod pi has rank n - 1, not n - r."""

    def wrong(rng, field, n, r):
        q0 = field.q
        U, V = (verify._unimodular(rng, n, q0, 1) for _ in range(2))
        for _ in range(r):
            V[-1] = [fpoly.mul(field.poly, e, q0) for e in V[-1]]
        return fpoly.mat_mul(U, V, q0)

    return wrong


@pytest.mark.parametrize(
    "perturb, failure",
    [(_u_times_diag_t, "random matrix det"), (_pi_r_in_one_slot, "random matrix has rank")],
    ids=["det", "rank"],
)
def test_a_wrong_sampler_fails_the_snf_check(perturb, failure, monkeypatch):
    """The det and rank tests run on every sample, so a construction that
    leaves the weight-r matrices fails the check before its SNF."""
    monkeypatch.setattr(
        verify, "random_modification_matrix", perturb(verify.random_modification_matrix)
    )
    grid = verify.GRIDS["quick"]["smith-normal-form"]
    detail = verify.CHECKS["smith-normal-form"](random.Random(7), **grid)
    assert isinstance(detail, str) and detail.startswith(failure) and "\n" not in detail


def field_of(q, d):
    return Field(ClosedPoint(q, d, fpoly.first_irreducible(q, d)))


@pytest.mark.parametrize(
    "case",
    [(2, 1, 2, 1), (3, 1, 3, 2), (2, 1, 4, 3), (5, 1, 4, 2), (5, 1, 3, 3), (3, 2, 4, 2),
     (2, 2, 4, 1), (2, 1, 5, 3), (2, 3, 5, 3), (5, 3, 3, 2)],
    ids=str,
)
def test_sampled_matrices_are_weight_r_modifications(case):
    """det = unit * pi^r, rank n - r mod pi, SNF diag(1, .., 1, pi, .., pi);
    and a seed fixes the matrix."""
    q, d, n, r = case
    field = field_of(q, d)
    pi_r = (1,)
    for _ in range(r):
        pi_r = fpoly.mul(pi_r, field.poly, q)
    for seed in range(8):
        M = verify.random_modification_matrix(random.Random(seed), field, n, r)
        assert M == verify.random_modification_matrix(random.Random(seed), field, n, r)
        assert fpoly.monic(fpoly.det(M, q), q) == pi_r, seed
        assert matrix_rank(field, [[field.reduce(e) for e in row] for row in M]) == n - r, seed
        assert oracle.smith_normal_form(M, q)[0] == [(1,)] * (n - r) + [field.poly] * r, seed


def row_space_mod_pi(field, M):
    """The row space of M mod pi as its set of vectors in F_q coordinates:
    the F_q-span of the rows times t^k, k < d."""
    q = field.q
    rows = [
        [c for e in row for c in field.expand(field.mul((0,) * k + (1,), field.reduce(e)))]
        for row in M
        for k in range(field.d)
    ]
    span = {(0,) * len(rows[0])}
    for row in rows:
        span |= {tuple((a + c * b) % q for a, b in zip(v, row)) for v in span for c in range(1, q)}
    return frozenset(span)


@pytest.mark.parametrize("case, subspaces", [((2, 1, 3, 1), 7), ((2, 2, 2, 1), 5), ((3, 1, 3, 2), 13)])
def test_sampled_row_spaces_mod_pi_reach_every_subspace(case, subspaces):
    """The rows of M mod pi span every (n - r)-dimensional subspace of
    kappa(x)^n over 600 samples: as many as the Grassmannian has points."""
    q, d, n, r = case
    field = field_of(q, d)
    rng = random.Random(f"coverage:{case}")
    seen = set()
    for _ in range(600):
        W = row_space_mod_pi(field, verify.random_modification_matrix(rng, field, n, r))
        assert len(W) == q ** (d * (n - r))
        seen.add(W)
    assert len(seen) == subspaces
    assert gaussian_binomial(n - r, n).evaluate(q**d) == subspaces
