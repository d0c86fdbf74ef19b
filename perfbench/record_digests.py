"""Record the digest of each workload's prefix answers for a range of seeds.

    python3 perfbench/record_digests.py [FIRST_SEED [LAST_SEED]]

Writes perfbench/digests.json.  run.py compares every run whose seed is
recorded there with the recorded digest, so re-record only when the op
streams themselves change: the answers must stay bit-identical.
"""

import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs src/ on the path)


def main(argv):
    first = int(argv[0]) if argv else workloads.DEFAULT_SEED
    last = int(argv[1]) if len(argv) > 1 else first + 15
    doc = {}
    for name, workload in workloads.WORKLOADS.items():
        seeds = {}
        for seed in range(first, last + 1):
            workloads.reset_caches()
            records, _, _ = run.run_ops(workload, workload.ops(seed), 0, count=workload.prefix)
            failures = run.check_records(workload, records)
            if failures:
                raise SystemExit(f"{name} seed {seed}: op {failures[0][0]} {failures[0][1]}")
            seeds[str(seed)] = run.digest(run.canonical_lines(workload, records))
            print(name, seed, seeds[str(seed)], flush=True)
        doc[name] = {"prefix": workload.prefix, "seeds": seeds}
    (run.HERE / "digests.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
