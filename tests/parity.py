"""Compare the outputs of this tree with those of a git revision.

The parity set is `heckelab verify --quick` and `--full` at seeds
20260823, 7 and 123, and every demo in `demos/`.  REV is exported with
`git archive` into a temporary directory, and each run of the set is made
in both trees, in a fresh interpreter whose PYTHONPATH is the tree's
`src`.  Stdout, stderr and the exit code are compared with the timings
that `verify` prints, such as `(0.12s)`, masked.  The script prints one
line per run, and for a run that differs its first differing line on
each side; it exits 1 if any run differs or times out, else 0.

Run from anywhere, with the working tree as the second side:

    python tests/parity.py HEAD~1
"""

import argparse
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = ("20260823", "7", "123")
TIMING = re.compile(r"\(\d+\.\d+s\)")
TIMEOUT_S = 600


def parity_set() -> list:
    """(label, interpreter arguments) of every run, demos from this tree."""
    runs = []
    for mode in ("quick", "full"):
        for seed in SEEDS:
            args = ["verify", f"--{mode}", "--seed", seed]
            runs.append((" ".join(args), ["-m", "heckelab.cli", *args]))
    demos = sorted(p.relative_to(ROOT) for p in (ROOT / "demos").glob("*.py"))
    return runs + [(str(demo), [str(demo)]) for demo in demos]


def output(tree: Path, args: list) -> list:
    """The masked stdout, stderr and exit code of one run in tree, as lines."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    text = f"--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}--- exit {proc.returncode}"
    return TIMING.sub("(-s)", text).splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare with, e.g. HEAD~1")
    rev = parser.parse_args(argv).rev
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode().strip(), file=sys.stderr)
        return 2
    runs, differ = parity_set(), 0
    with tempfile.TemporaryDirectory(prefix="heckelab-parity-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp)
        for label, args in runs:
            try:
                want, got = output(Path(tmp), args), output(ROOT, args)
            except subprocess.TimeoutExpired:
                print(f"TIMEOUT {label}: over {TIMEOUT_S} s")
                differ += 1
                continue
            if want == got:
                print(f"same    {label}")
                continue
            differ += 1
            print(f"DIFFERS {label}")
            for i, (a, b) in enumerate(zip_longest(want, got), 1):
                if a != b:
                    print(f"  line {i}\n  {rev}: {a!r}\n  here: {b!r}")
                    break
    print(f"{differ} of {len(runs)} runs differ from {rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
