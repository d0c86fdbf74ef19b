"""Tests of the benchmark itself: inputs, tracer and output checks.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from heckelab import cli, forms, hall, hecke, oracle  # noqa: E402
from heckelab.bundles import BundleType, ClosedPoint  # noqa: E402
from tracer import Tracer, read_spans  # noqa: E402

W = workloads.WORKLOADS


@pytest.mark.parametrize("name", sorted(W))
def test_generators_are_deterministic_per_seed(name):
    count = W[name].prefix + 5
    first = workloads.first_ops(W[name], 3, count)
    assert first == workloads.first_ops(W[name], 3, count)
    assert first != workloads.first_ops(W[name], 4, count)


def test_census_queries_are_distinct_and_cover_every_stratum_per_round():
    ops = workloads.first_ops(W["census"], 0, 2000)
    assert len(set(ops)) == len(ops)
    per_round = len(workloads.CENSUS_STRATA)
    for start in range(0, 2000 - per_round, per_round):
        strata = {(len(E), d, r) for E, d, r in ops[start:start + per_round]}
        assert strata == set(workloads.CENSUS_STRATA)
    for degrees, d, r in ops:
        assert all(b - a in (0, 1, 2) for a, b in zip(degrees, degrees[1:]))


def test_grassmannian_count():
    assert workloads.grassmannian_count(1, 2, 4) == 5
    assert workloads.grassmannian_count(2, 4, 2) == 35


def test_snf_inputs_have_the_constructed_invariant_factors():
    ops = [op for op in workloads.first_ops(W["oracle"], 1, 40) if op[0] == "snf"]
    assert ops
    for op in ops[:5]:
        assert workloads.oracle_check(op, workloads.oracle_run(op)) is None


def test_wrapped_functions_return_identical_results(tmp_path):
    E = BundleType((0, 1, 1))
    x = ClosedPoint(2, 2, (1, 1, 1))
    M = [[(1, 1, 1), ()], [(1,), (1,)]]
    calls = [
        lambda: hecke.neighbors(E, 2, 1),
        lambda: hall.kx_times(2, E, 2),
        lambda: hall.bundle_product(BundleType((0,)), BundleType((1,))),
        lambda: oracle.brute_multiplicity(BundleType((0, 1)), x, 1),
        lambda: oracle.smith_normal_form(M, 2),
    ]
    plain = [call() for call in calls]
    workloads.reset_caches()
    tracer = Tracer(run.trace_targets())
    with tracer:
        assert forms.neighbors is hecke.neighbors  # every binding is replaced
        assert hasattr(hecke.neighbors, "__wrapped__")
        traced = [call() for call in calls]
    assert traced == plain
    assert not hasattr(hecke.neighbors, "__wrapped__")
    assert forms.neighbors is hecke.neighbors
    summary = tracer.summary()
    assert summary["hecke.neighbors"]["calls"] == 1
    assert summary["hall.hall_multiplicity"]["calls"] >= 1
    assert summary["qcalc.poly_gcd"]["calls"] > 0
    assert tracer.calls_under("hall.hall_multiplicity", "hecke.neighbors") >= 1
    for stats in summary.values():
        assert stats["self_s"] <= stats["time_s"] + 1e-9 or stats["calls"] == 0
    path = tmp_path / "spans.bin"
    tracer.write(path)
    assert read_spans(path) == tracer.spans()


def test_repeat_ratio_counts_calls_already_seen():
    E = BundleType((0, 2, 3))
    tracer = Tracer(run.trace_targets())
    with tracer:
        hall.kx_times(1, E, 2)
        hall.kx_times(1, E, 2)
        hall.kx_times(2, E, 2)
    kx = tracer.summary()["hall.kx_times"]
    assert kx["calls"] == 3 and kx["repeats"] == 1


def _run_and_check(workload, count):
    records, _, _ = run.run_ops(workload, workload.ops(0), 0, count=count)
    return records, run.check_records(workload, records)


def test_honest_answers_pass_their_checks():
    for name in ("census", "oracle"):
        _, failures = _run_and_check(W[name], 6)
        assert failures == []


def test_wrong_census_from_a_fake_is_a_failed_op(monkeypatch):
    real = hecke.neighbors

    def fake(E, d, r, cross_check=None):
        out = real(E, d, r, cross_check)
        first = next(iter(out))
        out[first] = out[first] + out[first]  # double one multiplicity
        return out

    monkeypatch.setattr(hecke, "neighbors", fake)
    records, failures = _run_and_check(W["census"], 4)
    assert [i for i, _ in failures] == [0, 1, 2, 3]
    assert "census mass" in failures[0][1]


def test_wrong_snf_from_a_fake_is_a_failed_op(monkeypatch):
    monkeypatch.setattr(oracle, "smith_normal_form", lambda M, q: ([(1,)] * len(M), None, None))
    ops = [op for op in workloads.first_ops(W["oracle"], 0, 30) if op[0] == "snf"]
    records = [[op, workloads.oracle_run(op), None, 0.0, True] for op in ops]
    failures = run.check_records(W["oracle"], records)
    assert len(failures) == len(ops)


def test_failing_verify_and_raising_ops_are_failed_ops(monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: 3)
    records, failures = _run_and_check(W["verify"], 1)
    assert failures and "verify exited 3" in failures[0][1]

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(hecke, "neighbors", boom)
    records, failures = _run_and_check(W["census"], 2)
    assert len(failures) == 2 and "injected" in failures[0][1]


def test_check_times_parses_verify_lines():
    text = "PASS  rank2-table  (0.04s)\nFAIL  hall-integrity  (1.50s): boom\nall done\n"
    assert workloads.check_times(text) == {"rank2-table": 0.04, "hall-integrity": 1.5}


def test_benchmark_json_lists_the_workloads_and_metrics_a_run_reports():
    import json

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {n: w.why for n, w in W.items()}

    workload = W["census"]
    records, rss_kb, probes = run.run_ops(workload, workload.ops(0), 0, count=2)
    samples = {"setup": [0.1], "calibration": [0.008]}
    e2e = run.end_to_end(samples, [r[:4] + [True] for r in records], 1024, 1.0)
    tracer, traced = run.traced_prefix(workload, [r[0] for r in records])
    layers = run.per_layer(workload, tracer, records, traced)
    for kind, metrics in (("end_to_end", e2e), ("per_layer", layers)):
        assert {m["name"]: m["unit"] for m in doc[kind]} == {k: u for k, (_, u) in metrics.items()}
