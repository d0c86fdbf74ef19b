"""End-to-end tests of the command-line surface."""

import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from heckelab import hecke, verify
from heckelab.bundles import BundleType
from heckelab.cli import _coeffs, _degrees, _matrix, _rationals, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema"] == "heckelab/1"
    return doc


def test_parse_helpers():
    assert _degrees("0,0") == (0, 0)
    assert _degrees("-1,2") == (-1, 2)
    assert _coeffs("1,1,1") == (1, 1, 1)
    assert _coeffs("") == () and _coeffs("0") == ()
    assert _matrix("1,1,1|0;0|1") == [[(1, 1, 1), ()], [(), (1,)]]
    assert _rationals("7,11/2") == (7, __import__("fractions").Fraction(11, 2))
    with pytest.raises(Exception):
        _degrees("a,b")


def test_gr_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "gr", "--k", "1", "--n", "2", "--q", "4")
    assert code == 0
    assert "q+1" in out and "at q=4: 5" in out
    doc = run_json(capsys, "gr", "--k", "1", "--n", "2", "--q", "4")
    assert doc["count"] == {"coeffs": [1, 1], "pretty": "q+1"}
    assert doc["at_q"] == 5


#: README's command-line examples with their text output, copied by hand
README_EXAMPLES = [
    ("gr --k 1 --n 2 --q 4", "#Gr(1,2) = q+1\nat q=4: 5\n"),
    (
        "hecke neighbors --bundle 0,0 --point-degree 2 --weight 1 --q 2",
        "O(-2)+O: q+1 = 3   [rank2-table]\n"
        "O(-1)^2: q^2-q = 2   [rank2-table]\n"
        "total q^2+1 = 5\n",
    ),
    (
        "hecke mult --bundle 0,2 --target=-1,1 --point-degree 2 --weight 1",
        "m(O(-1)+O(1) -> O+O(2)) = 0   [nonexistent]\n",
    ),
    (
        "hall mul --f 2 --g 0 --q 3",
        "[O+O(2)]: q^3   (at q=3: 27)\n[O(1)^2]: q^3-q   (at q=3: 24)\n",
    ),
    (
        "hall kx --bundle 0,0 --weight 1 --point-degree 2 --method closed",
        "[O^2+K^1]: q^4\n[O+O(2)]: q^2\n[O(1)^2]: q^2-q\n",
    ),
    (
        "oracle census --bundle 0,0 --q 2 --point 1,1,1 --weight 1",
        "point t^2+t+1 over F_2 (degree 2)\nO(-2)+O: 3\nO(-1)^2: 2\ntotal 5\n",
    ),
    ("oracle snf --matrix 0,1|1,1;1|0,1 --q 2", "diag: 1, t^2+t+1\n"),
    (
        "forms eigen --n 2 --q 2 --lambda 3 --depth 5",
        "nullity 1\nO^2: 1\nO+O(1): 1\nO+O(2): 1\nO+O(3): 1\n"
        "O+O(4): 1\nO+O(5): 1\nO+O(6): 1\n",
    ),
    (
        "forms cusp --n 2 --q 2 --lambda 5 --depth 4",
        "(O, O): 1\n(O, O(1)): 5/3\n(O, O(2)): 19/3\n(O, O(3)): 85/3\n"
        "(O, O(4)): 129\n(O(1), O): 5/3\n(O(2), O): 22/3\n(O(3), O): 100/3\n"
        "(O(4), O): 152\nall zero: False\n",
    ),
    ("forms toroidal --n 2 --q 2 --lambda 5 --depth 4", "toroidal sum 1\n"),
    (
        "delta --n 3 --r 2",
        "bits\tweight\tomega\n(1, 1, 0)\t0\t3\n(1, 0, 1)\t1\t4\n(0, 1, 1)\t2\t5\n"
        "count 3; schubert sum q^2+q+1\n",
    ),
]


@pytest.mark.parametrize("argv, want", README_EXAMPLES)
def test_text_output_of_each_readme_example(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (0, want, "")


def readme_commands():
    """Every `heckelab ...` line of README's shell blocks, comments cut."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = text.split("```sh\n")[1:]
    lines = [line for block in blocks for line in block.split("```")[0].splitlines()]
    return [
        shlex.split(line, comments=True)[1:] for line in lines if line.startswith("heckelab ")
    ]


def test_readme_commands_are_the_copied_examples():
    copied = [argv.split() for argv, _ in README_EXAMPLES]
    assert readme_commands() == [["verify", "--quick"], ["verify", "--full"]] + copied


@pytest.mark.parametrize(
    "argv", [argv for argv in readme_commands() if argv != ["verify", "--full"]], ids=" ".join
)
def test_each_readme_command_runs(capsys, argv):
    """`verify --full` is left out: the acceptance grid contains its grid."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out


def test_delta_listing(capsys):
    doc = run_json(capsys, "delta", "--n", "2", "--r", "1")
    assert doc["vectors"] == [
        {"bits": [1, 0], "weight": 0, "omega": 1},
        {"bits": [0, 1], "weight": 1, "omega": 2},
    ]
    assert doc["schubert_count"]["pretty"] == "q+1"


def test_hall_mul_json(capsys):
    doc = run_json(capsys, "hall", "mul", "--f", "2", "--g", "0", "--q", "2")
    by_degrees = {tuple(t["degrees"]): t for t in doc["terms"]}
    assert by_degrees[(0, 2)]["coeff_num"] == [0, 0, 0, 1]
    assert by_degrees[(0, 2)]["at_q"] == "8"
    assert by_degrees[(1, 1)]["coeff_num"] == [0, -1, 0, 1]
    assert all(t["coeff_den"] == [1] for t in doc["terms"])


def test_hall_kx_closed_equals_recursive_output(capsys):
    a = run_json(capsys, "hall", "kx", "--bundle", "0,0", "--weight", "1",
                 "--point-degree", "2", "--method", "recursive")
    b = run_json(capsys, "hall", "kx", "--bundle", "0,0", "--weight", "1",
                 "--point-degree", "2", "--method", "closed")
    assert a["terms"] == b["terms"]
    torsions = {tuple(t["degrees"]): t["torsion"] for t in a["terms"]}
    assert torsions == {(0, 0): 1, (0, 2): 0, (1, 1): 0}


def _term(degrees, torsion, num, at_q):
    return {"at_q": at_q, "coeff_den": [1], "coeff_num": num, "degrees": degrees,
            "torsion": torsion}


_KX_TERMS = [
    _term([0, 0], 1, [0, 0, 0, 0, 1], "81"),
    _term([0, 2], 0, [0, 0, 1], "9"),
    _term([1, 1], 0, [0, -1, 1], "6"),
]


@pytest.mark.parametrize(
    "argv, want",
    [
        *(
            (
                f"hall kx --bundle 0,0 --weight 1 --point-degree 2 --q 3 --method {method}",
                {"bundle": [0, 0], "command": "hall kx", "method": method,
                 "point_degree": 2, "terms": _KX_TERMS, "weight": 1},
            )
            for method in ("recursive", "closed")
        ),
        (
            "hall mul --f 2 --g 0 --q 3",
            {"command": "hall mul", "f": [2], "g": [0], "terms": [
                _term([0, 2], 0, [0, 0, 0, 1], "27"),
                _term([1, 1], 0, [0, -1, 0, 1], "24"),
            ]},
        ),
    ],
)
def test_exact_json_of_hall_commands(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv.split(), "--format", "json")
    doc = {"schema": "heckelab/1", **want}
    assert (code, err) == (0, "")
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_hecke_neighbors_worked_example(capsys):
    doc = run_json(capsys, "hecke", "neighbors", "--bundle", "0,0",
                   "--point-degree", "2", "--weight", "1", "--q", "2")
    rows = {tuple(r["degrees"]): r for r in doc["neighbors"]}
    assert rows[(-2, 0)]["at_q"] == 3
    assert rows[(-1, -1)]["at_q"] == 2
    assert rows[(-2, 0)]["multiplicity"]["pretty"] == "q+1"
    assert rows[(-1, -1)]["multiplicity"]["pretty"] == "q^2-q"
    assert doc["total_at_q"] == 5
    assert all(r["method"] == "rank2-table" for r in doc["neighbors"])


def test_hecke_mult_single(capsys):
    doc = run_json(capsys, "hecke", "mult", "--bundle", "0,0", "--target=-2,0",
                   "--point-degree", "2", "--weight", "1", "--q", "3")
    assert doc["exists"] is True
    assert doc["at_q"] == 4
    doc = run_json(capsys, "hecke", "mult", "--bundle", "0,2", "--target=-1,1",
                   "--point-degree", "2", "--weight", "1")
    assert doc["exists"] is False
    assert doc["multiplicity"]["coeffs"] == []


def test_oracle_census_explicit_and_auto_point(capsys):
    doc = run_json(capsys, "oracle", "census", "--bundle", "0,0", "--q", "2",
                   "--point", "1,1,1", "--weight", "1")
    assert {tuple(r["degrees"]): r["count"] for r in doc["census"]} == {
        (-2, 0): 3,
        (-1, -1): 2,
    }
    assert doc["total"] == 5
    auto = run_json(capsys, "oracle", "census", "--bundle", "0,0", "--q", "2",
                    "--point-degree", "2", "--weight", "1")
    assert auto["total"] == 5 and auto["point"]["degree"] == 2


def test_oracle_snf_examples(capsys):
    for arg in ("1,1,1|0;0|1", "0,1|1,1;1|0,1", "1,1,1|1;0|1", "1,1,1|0;1,1,1|1"):
        doc = run_json(capsys, "oracle", "snf", "--matrix", arg, "--q", "2")
        assert doc["diag_pretty"] == ["1", "t^2+t+1"], arg


def test_forms_eigen_report(capsys):
    doc = run_json(capsys, "forms", "eigen", "--n", "2", "--q", "2",
                   "--lambda", "5", "--depth", "3")
    assert doc["nullity"] == 1
    vals = {tuple(v["degrees"]): (v["value_num"], v["value_den"]) for v in doc["values"]}
    assert vals[(0, 0)] == (1, 1)
    assert vals[(0, 1)] == (5, 3)


def test_forms_toroidal_and_cusp(capsys):
    doc = run_json(capsys, "forms", "toroidal", "--n", "2", "--q", "2",
                   "--lambda", "5", "--depth", "3")
    assert doc["toroidal_sum"] == "1" and doc["is_zero"] is False
    doc = run_json(capsys, "forms", "cusp", "--n", "2", "--q", "2",
                   "--lambda", "5", "--depth", "3")
    assert doc["all_zero"] is False
    base = next(
        r for r in doc["defects"] if r["quotient"] == [0] and r["sub"] == [0]
    )
    assert base["defect"] == "1"


@pytest.mark.parametrize("command", ["eigen", "toroidal", "cusp"])
def test_forms_take_a_prime_power_q(capsys, command):
    # forms only evaluates polynomials at q, so q need not be prime
    doc = run_json(capsys, "forms", command, "--n", "3", "--q", "4",
                   "--lambda", "3,7", "--depth", "5")
    assert doc["q"] == 4
    with pytest.raises(SystemExit) as exc:
        main(["forms", command, "--n", "3", "--q", "6", "--lambda", "3,7", "--depth", "5"])
    assert exc.value.code == 2
    assert "q must be a prime power, got 6" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, _, err = run_cli(capsys, "hecke", "neighbors", "--bundle", "0,0",
                           "--point-degree", "1", "--weight", "0")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "forms", "eigen", "--n", "3", "--q", "2",
                           "--lambda", "5", "--depth", "3")
    assert code == 2 and "n-1" in err


@pytest.mark.parametrize(
    "argv, option, value",
    [
        ("hecke neighbors --point-degree 1 --weight 1", "--bundle", "-1,2"),  # degrees
        ("hall mul --g 0", "--f", "-1,0"),  # degrees
        ("oracle census --bundle 0,0 --q 2 --weight 1", "--point", "-1,1,1"),  # coefficients
        ("oracle snf --q 2", "--matrix", "-1,1|1;0|1,1"),  # matrix
        ("forms eigen --n 2 --q 2 --depth 3", "--lambda", "-3/2"),  # rationals
    ],
    ids=["bundle", "f", "point", "matrix", "lambda"],
)
def test_a_list_that_starts_with_a_minus_sign_follows_its_option_either_way(
    capsys, argv, option, value
):
    spaced = run_cli(capsys, *argv.split(), option, value)
    assert spaced[0] == 0, spaced[2]
    assert run_cli(capsys, *argv.split(), f"{option}={value}") == spaced


@pytest.mark.parametrize(
    "argv, want",
    [
        ("gr --k 1 --n 2 --q 6", "q must be a prime power, got 6"),
        ("hall mul --f 2 --g 0 --q 6", "q must be a prime power, got 6"),
        ("hall kx --bundle 0,0 --weight 1 --point-degree 2 --q 10", "q must be a prime power"),
        ("hecke neighbors --bundle 0,0 --point-degree 2 --weight 1 --q 6", "prime power, got 6"),
        ("hecke mult --bundle 0,0 --target=-2,0 --point-degree 2 --weight 1 --q 1", "prime power"),
        ("oracle snf --matrix 1 --q 4", "q must be a prime, got 4"),
        ("oracle snf --matrix 2 --q 4", "q must be a prime, got 4"),
        ("gr --k 1 --n 2 --q 3317044064679887385961981", "cannot certify"),
        ("oracle snf --matrix 1 --q 618970019642690137449562111", "cannot certify"),
        ("gr --k 1 --n 2 --q abc", "argument --q: q must be an integer, got 'abc'"),
        ("oracle snf --matrix 1 --q x", "argument --q: q must be an integer, got 'x'"),
    ],
)
def test_q_validated_at_the_boundary(capsys, argv, want):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert want in capsys.readouterr().err


def test_budget_violation_exits_3_with_diagnostic(capsys):
    code, _, err = run_cli(capsys, "oracle", "census", "--bundle", "0,0",
                           "--q", "2", "--point", "1,1,1", "--weight", "1",
                           "--budget", "1")
    assert code == 3
    doc = json.loads(err)
    assert doc["error"] == "BudgetExceeded" and doc["schema"] == "heckelab/1"


def test_large_field_point_search_reaches_the_budget_check():
    # the default point of degree 6 over F_101 is found at once; the
    # 101^6 + 1 lines of its fiber then exceed the subspace budget
    argv = ["oracle", "census", "--bundle", "0,0", "--q", "101",
            "--point-degree", "6", "--weight", "1"]
    out = subprocess.run(
        [sys.executable, "-m", "heckelab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=2,
    )
    assert out.returncode == 3
    doc = json.loads(out.stderr)
    assert doc["error"] == "BudgetExceeded" and doc["schema"] == "heckelab/1"


def test_budget_is_checked_before_the_point_search():
    # no irreducible of degree 400 is searched for: 2^400 + 1 lines of its
    # fiber exceed the subspace budget, which is known from q and d alone
    argv = ["oracle", "census", "--bundle", "0,0", "--q", "2",
            "--point-degree", "400", "--weight", "1"]
    out = subprocess.run(
        [sys.executable, "-m", "heckelab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=2,
    )
    assert out.returncode == 3
    doc = json.loads(out.stderr)
    assert doc["error"] == "BudgetExceeded" and doc["schema"] == "heckelab/1"


def test_oversized_delta_listing_exits_3_before_enumerating():
    # C(60, 30) is about 1.2e17 vectors: refused by the budget, not listed
    out = subprocess.run(
        [sys.executable, "-m", "heckelab.cli", "delta", "--n", "60", "--r", "30"],
        capture_output=True,
        text=True,
        timeout=2,
    )
    assert out.returncode == 3 and out.stdout == ""
    doc = json.loads(out.stderr)
    assert doc["error"] == "BudgetExceeded" and doc["schema"] == "heckelab/1"


def test_delta_listing_obeys_the_budget_variable(capsys, monkeypatch):
    monkeypatch.setenv("HECKELAB_BUDGET", "6")
    assert run_json(capsys, "delta", "--n", "4", "--r", "2")["count"] == 6
    monkeypatch.setenv("HECKELAB_BUDGET", "5")
    code, out, err = run_cli(capsys, "delta", "--n", "4", "--r", "2")
    assert (code, out) == (3, "")
    assert json.loads(err)["detail"] == "6 drop vectors exceed budget 5"


def test_malformed_budget_variable_is_named(capsys, monkeypatch):
    monkeypatch.setenv("HECKELAB_BUDGET", "abc")
    code, out, err = run_cli(capsys, "delta", "--n", "3", "--r", "1")
    assert (code, out) == (2, "")
    assert err == "heckelab: error: HECKELAB_BUDGET must be an integer, got 'abc'\n"


@pytest.mark.parametrize("value", ["-5", "0"])
def test_budget_variable_below_one_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("HECKELAB_BUDGET", value)
    code, out, err = run_cli(capsys, "delta", "--n", "3", "--r", "1")
    assert (code, out) == (2, "")
    assert err == f"heckelab: error: HECKELAB_BUDGET must be at least 1, got {value}\n"
    code, out, err = run_cli(capsys, "oracle", "census", "--bundle", "0,0", "--q", "2",
                             "--point", "1,1,1", "--weight", "1")
    assert (code, out) == (2, "")
    assert err == f"heckelab: error: HECKELAB_BUDGET must be at least 1, got {value}\n"


@pytest.mark.parametrize(
    "value, want",
    [("0", "budget must be at least 1, got 0"), ("-1", "budget must be at least 1, got -1"),
     ("abc", "budget must be an integer, got 'abc'")],
)
def test_budget_flag_below_one_is_a_usage_error(capsys, value, want):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "census", "--bundle", "0,0", "--q", "2", "--point", "1,1,1",
              "--weight", "1", "--budget", value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: argument --budget: {want}\n")


def test_oracle_census_point_and_point_degree_must_agree(capsys):
    code, out, err = run_cli(capsys, "oracle", "census", "--bundle", "0,0", "--q", "2",
                             "--point", "1,1,1", "--point-degree", "3", "--weight", "1")
    assert (code, out) == (2, "")
    assert err == "heckelab: error: --point has degree 2 but --point-degree is 3\n"
    doc = run_json(capsys, "oracle", "census", "--bundle", "0,0", "--q", "2",
                   "--point", "1,1,1", "--point-degree", "2", "--weight", "1")
    assert doc["total"] == 5


def test_hecke_neighbors_dispatches_once_per_candidate(capsys, monkeypatch):
    calls = []
    real = hecke._multiplicity_core

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hecke, "_multiplicity_core", counted)
    code, out, _ = run_cli(capsys, "hecke", "neighbors", "--bundle", "0,1,2,3",
                           "--point-degree", "2", "--weight", "2", "--cross-check", "off")
    assert code == 0 and len(out.splitlines()) == 7  # six neighbours and the total
    assert len(calls) == len(hecke.candidates(BundleType((0, 1, 2, 3)), 2, 2)) == 11


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick", "--seed", "7")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10 and all(l.startswith("PASS") for l in lines)
    assert "all 10 checks passed (quick)" in out


def test_verify_gives_each_check_its_own_rng(capsys, monkeypatch):
    """Each check's rng is seeded by the seed and the check's name, so no
    check's draws move the instances of a check after it."""
    first = {}

    def recorder(name):
        def check(rng, **grid):
            first[name] = rng.random()

        return check

    names = list(verify.CHECKS)
    monkeypatch.setattr(verify, "CHECKS", {name: recorder(name) for name in names})
    code, _, _ = run_cli(capsys, "verify", "--quick", "--seed", "7")
    assert code == 0
    assert first == {name: random.Random(f"7:{name}").random() for name in names}


@pytest.mark.parametrize(
    "argv",
    [
        ["forms", "eigen", "--n", "3", "--q", "4", "--lambda", "3,7", "--depth", "5"],
        ["verify", "--quick"],
    ],
    ids=" ".join,
)
def test_closed_stdout_exits_1_without_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first write
    try:
        out = subprocess.run(
            [sys.executable, "-m", "heckelab.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (1, "")


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "heckelab.cli", "gr", "--k", "2", "--n", "4", "--q", "2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "35" in out.stdout  # #Gr(2,4)(F_2)
