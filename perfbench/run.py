"""heckelab benchmark: seeded workloads timed end to end, traced per layer.

    python3 perfbench/run.py --workload {census,eigen,oracle,verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; heckelab is imported from its src/.  One
run is one fresh process, so heckelab's caches start empty, as they do for
a CLI user.  The run

  1. runs ops from the seeded stream (workloads.py) until their summed
     latency reaches S seconds, and on past that, untimed, until the
     workload's fixed prefix of ops is done.  Peak RSS is read when the
     prefix completes, so it covers the same work on every commit;
  2. times `setup_s` as the median of eleven spawns of setup_probe.py, each
     importing heckelab and generating the workload's leading ops, and
     times a fixed pure-Python calibration loop fifty times.  Both run
     between ops, spread over the window, outside op latency;
  3. checks every output, outside the timed region, and the digest of the
     prefix's answers against digests.json where that seed is recorded;
  4. with --trace 1 only: clears heckelab's caches, wraps the public
     functions of each layer (tracer.py) and runs the prefix again.  Traced
     answers must equal untraced ones.  Spans go to .perfbench/.

Times are reported in reference seconds: wall seconds multiplied by
CALIBRATION_REF_S over the run's median calibration time.  On a shared
2-vCPU virtual machine the speed drifts by up to 1.6x over minutes, in step
for heckelab and the loop; the scaling takes that drift out of the
comparison between runs.  heckelab's own code never runs in the loop, so
a change to it moves the scaled times as it moves the wall ones.  The run
stays on the CPU it starts on, so the loop, the ops and the set-up probes
see one CPU's speed.  The record keeps the wall-clock values too.

The next-to-last stdout line is the run record (git revision, Python,
nproc, seed, samples, digest); the last is the result:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  Exit code 2:
no heckelab source in this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Target, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 11
#: the calibration loop runs CALIBRATIONS times over the window; at the
#: reference machine speed it takes CALIBRATION_REF_S seconds
CALIBRATION_LOOP = 100_000
CALIBRATIONS = 50
CALIBRATION_REF_S = 0.008

VERIFY_CHECKS = [
    "worked-example", "rank2-table", "deg1-classification", "oracle-equivalence",
    "weight-one-criterion", "spaced-factorization", "hall-integrity",
    "smith-normal-form", "eigen-nullity", "triviality-theorems",
]


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning setup_probe.py to its exit."""
    start = time.perf_counter()
    subprocess.run(
        # -S: site-packages hooks belong to the machine, not to heckelab
        [sys.executable, "-S", str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, check=True,  # no timeout: its polling would quantise the time
    )
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Keep this process, and the probes it spawns, on the CPU it runs on.

    The CPUs of a shared host differ in speed from minute to minute; on one
    CPU the calibration loop measures the speed the ops and probes get.
    """
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # no /proc or no affinity control: run unpinned


def calibration() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def run_ops(workload, ops, seconds: float, count=None, samplers=None):
    """Run ops until their latency sums to `seconds` and the prefix is done.

    Returns (records, peak RSS in KiB at the end of the prefix, samples); a
    record is [op, output or None, error or None, latency, timed].  With
    `count`, exactly that many ops run and none is timed against the
    window.  `samplers` maps a name to (function, n): each function runs n
    times between ops, spread evenly over the window, outside op latency,
    and `samples[name]` holds what it returned.
    """
    from workloads import reset_caches

    samplers = samplers or {}
    samples = {name: [] for name in samplers}
    records = []
    total = 0.0
    rss_kb = None
    while True:
        timed = count is None and total < seconds
        for name, (fn, n) in samplers.items():
            got = samples[name]
            while len(got) < n and total >= len(got) * seconds / n:
                got.append(fn())
        if not timed and len(records) >= (count or workload.prefix):
            break
        op = next(ops)
        if workload.cold:
            reset_caches()
        start = time.perf_counter()
        try:
            out, err = workload.run(op), None
        except Exception as exc:  # a failed op is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if timed:
            total += latency
        records.append([op, out, err, latency, timed])
        if len(records) == workload.prefix:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return records, rss_kb, samples


def check_records(workload, records) -> list:
    """(index, reason) for every op that raised or failed its check."""
    failures = []
    for i, (op, out, err, _, _) in enumerate(records):
        if err is None:
            try:
                err = workload.check(op, out)
            except Exception as exc:  # a check that crashes is a failed op
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append((i, err))
    return failures


def canonical_lines(workload, records) -> list:
    return [
        json.dumps([op, None if err else workload.canonical(op, out)],
                   sort_keys=True, separators=(",", ":"))
        for op, out, err, _, _ in records
    ]


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def recorded_digest(workload, seed: int):
    try:
        doc = json.loads((HERE / "digests.json").read_text())
    except FileNotFoundError:
        return None
    entry = doc.get(workload.name, {})
    if entry.get("prefix") != workload.prefix:
        return None
    return entry.get("seeds", {}).get(str(seed))


def p90(values) -> float:
    """90th percentile, interpolated between samples, never beyond them."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(samples, records, rss_kb, scale: float) -> dict:
    """The end-to-end metrics; every time is multiplied by `scale`."""
    lat = [r[3] * scale for r in records if r[4]]
    return {
        "setup_s": (statistics.median(samples["setup"]) * scale, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (p90(lat) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def trace_targets():
    return [
        Target("qcalc", "poly_gcd"),
        Target("hall", "kx_times", key=lambda r, E, d, method="recursive": (r, E, d, method),
               count=len),
        Target("hall", "hall_multiplicity"),
        Target("hall", "bundle_product"),
        Target("hecke", "neighbors", count=len),
        Target("forms", "eigenform_solve", count=lambda f: len(f.values)),
        Target("forms", "hecke_matrix", key=lambda space, r: (space.n, space.D, r)),
        Target("forms", "cusp_defect"),
        Target("oracle", "brute_multiplicity", count=lambda census: sum(census.values())),
        Target("oracle", "splitting_type"),
        Target("oracle", "smith_normal_form"),
        Target("cli", "cmd_verify"),
    ]


def traced_prefix(workload, ops):
    """Rerun the prefix ops from cold caches under the tracer."""
    from workloads import reset_caches

    reset_caches()
    tracer = Tracer(trace_targets())
    records = []
    with tracer:
        for i, op in enumerate(ops):
            if workload.cold:
                reset_caches()
            tracer.op = i
            start = time.perf_counter()
            try:
                out, err = workload.run(op), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            records.append([op, out, err, time.perf_counter() - start, False])
    return tracer, records


def per_layer(workload, tracer, prefix_records, traced_records) -> dict:
    from workloads import check_times

    s = tracer.summary()

    def ratio(a, b):
        return a / b if b else 0.0

    kx, hm, nb = s["hall.kx_times"], s["hall.hall_multiplicity"], s["hecke.neighbors"]
    solve, hmat = s["forms.eigenform_solve"], s["forms.hecke_matrix"]
    brute, snf = s["oracle.brute_multiplicity"], s["oracle.smith_normal_form"]
    m = {
        "hall.kx_times.calls": (kx["calls"], "count"),
        "hall.kx_times.time_s": (kx["time_s"], "s"),
        "hall.kx_times.terms": (kx["count"], "count"),
        "hall.kx_times.repeat_ratio": (ratio(kx["repeats"], kx["calls"]), "ratio"),
        "hall.hall_multiplicity.calls": (hm["calls"], "count"),
        "hall.hall_multiplicity.self_s": (hm["self_s"], "s"),
        "hall.bundle_product.calls": (s["hall.bundle_product"]["calls"], "count"),
        "hall.bundle_product.time_s": (s["hall.bundle_product"]["time_s"], "s"),
        "qcalc.poly_gcd.calls": (s["qcalc.poly_gcd"]["calls"], "count"),
        "qcalc.poly_gcd.time_s": (s["qcalc.poly_gcd"]["time_s"], "s"),
        "hecke.neighbors.calls": (nb["calls"], "count"),
        "hecke.neighbors.self_s": (nb["self_s"], "s"),
        "hecke.neighbors.results": (nb["count"], "count"),
        "hecke.neighbors.hall_calls_per_call": (
            ratio(tracer.calls_under("hall.hall_multiplicity", "hecke.neighbors"), nb["calls"]),
            "ratio",
        ),
        "forms.eigenform_solve.calls": (solve["calls"], "count"),
        "forms.eigenform_solve.self_s": (solve["self_s"], "s"),
        "forms.eigenform_solve.unknowns": (solve["count"], "count"),
        "forms.hecke_matrix.calls": (hmat["calls"], "count"),
        "forms.hecke_matrix.time_s": (hmat["time_s"], "s"),
        "forms.hecke_matrix.repeat_ratio": (ratio(hmat["repeats"], hmat["calls"]), "ratio"),
        "forms.cusp_defect.time_s": (s["forms.cusp_defect"]["time_s"], "s"),
        "oracle.brute_multiplicity.calls": (brute["calls"], "count"),
        "oracle.brute_multiplicity.self_s": (brute["self_s"], "s"),
        "oracle.subspaces": (brute["count"], "count"),
        "oracle.us_per_subspace": (ratio(brute["time_s"] * 1e6, brute["count"]), "us"),
        "oracle.splitting_type.time_s": (s["oracle.splitting_type"]["time_s"], "s"),
        "oracle.smith_normal_form.calls": (snf["calls"], "count"),
        "oracle.smith_normal_form.time_s": (snf["time_s"], "s"),
    }
    # verify's own timings of its checks, from the untraced prefix
    times = []
    if workload.name == "verify":
        times = [check_times(out[1]) for _, out, err, _, _ in prefix_records if err is None]
    for check in VERIFY_CHECKS:
        values = [t[check] for t in times if check in t]
        m[f"cli.verify.{check}_s"] = (statistics.median(values) if values else 0.0, "s")
    untraced = sum(r[3] for r in prefix_records)
    traced = sum(r[3] for r in traced_records)
    m["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
    return m


def git_revision():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "heckelab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("census", "eigen", "oracle", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "heckelab" / "__init__.py").is_file():
        print(f"perfbench: no heckelab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    pin_to_one_cpu()

    workload = workloads.WORKLOADS[args.workload]
    records, rss_kb, samples = run_ops(
        workload, workload.ops(args.seed), args.seconds,
        samplers={
            "setup": (lambda: setup_probe(workload.name, args.seed), SETUP_PROBES),
            "calibration": (calibration, CALIBRATIONS),
        },
    )
    scale = CALIBRATION_REF_S / statistics.median(samples["calibration"])
    failures = check_records(workload, records)
    prefix = records[: workload.prefix]
    lines = canonical_lines(workload, prefix)
    run_digest = digest(lines)
    expected = recorded_digest(workload, args.seed)
    digest_ok = expected is None or expected == run_digest

    if args.trace:
        tracer, traced = traced_prefix(workload, [r[0] for r in prefix])
        failures += [(i, f"traced: {e}") for i, e in check_records(workload, traced)]
        failures += [
            (i, "traced answer differs from untraced")
            for i, (a, b) in enumerate(zip(lines, canonical_lines(workload, traced)))
            if a != b
        ]
        metrics = per_layer(workload, tracer, prefix, traced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.bin")
        attempted = len(records) + len(traced)
    else:
        metrics = end_to_end(samples, records, rss_kb, scale)
        attempted = len(records)

    failed = len({i for i, _ in failures})
    for i, reason in failures[:10]:
        print(f"perfbench: op {i} failed: {reason}", file=sys.stderr)
    if not digest_ok:
        print(f"perfbench: digest {run_digest} != recorded {expected}", file=sys.stderr)

    timed = [r[3] for r in records if r[4]]
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "setup_probe_s": samples["setup"],
        "calibration_s": samples["calibration"],
        "time_scale": scale,
        "wall_clock": {k: v for k, (v, _) in end_to_end(samples, records, rss_kb, 1.0).items()},
        "timed_ops": len(timed),
        "timed_s": sum(timed),
        "prefix_ops": workload.prefix,
        "digest": run_digest,
        "digest_recorded": expected,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(record))
    result = {
        "correct": not failures and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
