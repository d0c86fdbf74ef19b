"""Record the answer corpus: the digest of every CLI invocation in CORPUS.

    python3 tests/record_golden.py

Writes tests/golden.json: for each invocation its argv, exit code and the
sha256 of its stdout and of its stderr, run in-process through cli.main.
`verify` prints its timings, so they are masked before hashing.
tests/test_golden.py replays every entry and compares, so re-record only
when an answer is meant to change, and say so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: U*diag(1, 1, 1, pi, pi)*V over F_3[t], deg pi = 2, entries of degree <= 6,
#: built from unitriangular factors as perfbench's oracle SNF ops are
SNF_5X5_Q3 = (
    "2,1,0,1|0,0,0,2|2,2,2,2,1|2,2,1,0,0,2|2,0,2,1;"
    "1,1,0,1,2|0,1,2,0,2|0,1,1,0,0,2|1,1,1,0,2|0,1,1,1,2;"
    "0,0,0,0,1|2,2,1,0,1|2,2,2,0,0,1|1,1,0,1|1;"
    "2,0,1,0,0,2|1,2,1,1,2,2|2,0,0,2,2,2,2|0,0,0,1,2,2|1,1,1,0,0,2;"
    "2,2,2,2|2,2,2|1,2,0,1|1,0,1|0,2,2,1,1"
)

#: U*diag(1, 1, 1, pi, pi, pi)*V over F_5[t], built the same way
SNF_6X6_Q5 = (
    "3,0,3,0,2|1,4,2,4,4|0,4,0,4,0,2|2,3,4,0,1,4|2,2,3,1,0,2|2,4,0,3,1,4;"
    "2,1,4,0,3,4|1,2,3,2,1,3|2,4,1,1,1,4,4|3,2,4,4,3,2,3|3,1,4,1,2,2,4|1,3,3,1,1,0,3;"
    "1,0,4,1,3,2|2,0,1,1,3,1|1,0,1,1,0,2,3|4,4,2,3,1,3,1|4,1,4,1,2,0,4|4,3,0,2,3,0,1;"
    "2,2,3,3,0,1|3,1,2,3,1,2|0,1,0,1,4,0,1|4,0,3,4|4,4,1,4,1,3,4|2,4,1,4,4,3,2;"
    "3,4,4,0,4,2|2,0,1,0,3,4|2,0,4,4,2,2,2|1,2,1,0,1,3,4|4,0,2,3,2,3,2|3,3,3,3,1,0,4;"
    "2,2,3,0,0,4|0,1,2,4,1|1,4,2,0,3|0,4,0,4,1,0,1|0,1,0,4,3,1,2|2,3,3,0,0,2"
)

#: U*diag(1, 1, pi)*V over F_q[t] at the prime q = 4294967311 > 2^32
SNF_3X3_Q_HUGE = (
    "2650914791,1071293451,1053131418,3732543699,143765614,1837824122|"
    "2130696441,4031050302,3150749263,3609827075,2009986402,3944165916,1307798338|"
    "2442332561,3691708071,2156525691,1098160894,3879806447,1101750569,1398602747;"
    "3244277273,486427046,4026329430,1057590587,1203188656|"
    "3940537744,3784482073,1936229178,4196688586,3986857676,1827208524|"
    "2077341270,3432817747,1141950410,2296586191,70052129,306742521;"
    "2835920711,2035213202,2335469901,1868877091,208829118,1610279051|"
    "859434807,3922148531,3044823472,3893015678,872049451,3001434982,1142389169|"
    "2173798868,4098903959,8643910,4048915128,3784279167,269687427,851153150"
)

#: the README examples first, then the grid; "+ json" adds a --format json twin
CORPUS = [
    "gr --k 1 --n 2 --q 4 + json",
    "hecke neighbors --bundle 0,0 --point-degree 2 --weight 1 --q 2 + json",
    "hecke mult --bundle 0,2 --target=-1,1 --point-degree 2 --weight 1 + json",
    "hall mul --f 2 --g 0 --q 3 + json",
    "hall kx --bundle 0,0 --weight 1 --point-degree 2 --method closed + json",
    "oracle census --bundle 0,0 --q 2 --point 1,1,1 --weight 1 + json",
    "oracle snf --matrix '0,1|1,1;1|0,1' --q 2 + json",
    "forms eigen --n 2 --q 2 --lambda 3 --depth 5 + json",
    "forms cusp --n 2 --q 2 --lambda 5 --depth 4 + json",
    "forms toroidal --n 2 --q 2 --lambda 5 --depth 4 + json",
    "delta --n 3 --r 2 + json",
    "verify --quick",
    "verify --full",
    "verify --quick --seed 7",
    "--version",
    "gr --k 3 --n 6 --q 9",
    "delta --n 5 --r 3",
    # Hall products with a repeated degree, where Q(E) != 1
    "hall mul --f 0,0 --g 0 --q 2 + json",
    "hall mul --f 1,1 --g 0,0 --q 3",
    "hall mul --f 0,0,0 --g 2,2 + json",
    "hall mul --f 3 --g 0,0,1 --q 4",
    "hall kx --bundle 0,0,0 --weight 2 --point-degree 1 + json",
    "hall kx --bundle 0,0,0 --weight 2 --point-degree 1 --method closed + json",
    "hall kx --bundle 0,0,1,1 --weight 2 --point-degree 2 --q 4",
    "hall kx --bundle 0,0,1,1 --weight 2 --point-degree 2 --method closed --q 4",
    "hall kx --bundle 1,1,1,1 --weight 3 --point-degree 1 --method closed --q 9",
    # censuses of ranks 4-6 over F_4 and F_9
    "hecke neighbors --bundle 0,1,2,3 --point-degree 2 --weight 2 --q 4 + json",
    "hecke neighbors --bundle 0,0,1,1 --point-degree 1 --weight 2 --q 9",
    "hecke neighbors --bundle 0,0,0,1,2 --point-degree 2 --weight 2 --q 9 + json",
    "hecke neighbors --bundle 0,1,2,3,4 --point-degree 3 --weight 2 --q 4",
    "hecke neighbors --bundle 0,0,1,1,2,2 --point-degree 1 --weight 3 --q 4",
    "hecke neighbors --bundle 0,1,2,3,4,5 --point-degree 2 --weight 3 --q 9",
    "hecke neighbors --bundle 0,1,2,3,4,5,6 --point-degree 2 --weight 3",
    "hecke neighbors --bundle 0,0,1 --point-degree 2 --weight 1 --cross-check on",
    "hecke neighbors --bundle 0,0,1,2 --point-degree 2 --weight 2 --cross-check off",
    "hecke mult --bundle 0,0,0 --target=-1,-1,0 --point-degree 1 --weight 2 --q 4 + json",
    "hecke mult --bundle 0,1,2,3 --target=-1,0,1,3 --point-degree 1 --weight 2 --q 9",
    "hecke mult --bundle 0,0,2 --target=-1,0,1 --point-degree 1 --weight 1 --cross-check on",
    "oracle census --bundle 0,1,2 --q 2 --point-degree 2 --weight 1 + json",
    "oracle census --bundle 0,0,1 --q 3 --point-degree 1 --weight 2",
    "oracle snf --matrix '1,1|1;0|1,0,1' --q 3",
    # eigenforms, with a 0 among the eigenvalues
    "forms eigen --n 2 --q 3 --lambda 0 --depth 6 + json",
    "forms eigen --n 3 --q 2 --lambda 0,3 --depth 6",
    "forms eigen --n 3 --q 4 --lambda 3,0 --depth 5 + json",
    "forms cusp --n 3 --q 2 --lambda 0,0 --depth 4",
    "forms toroidal --n 4 --q 4 --lambda 0,2,0 --depth 3 + json",
    "forms eigen --n 3 --q 9 --lambda 7,11/2 --depth 6",
    "forms eigen --n 3 --q 2 --lambda 3,5 --depth 24",
    "forms eigen --n 4 --q 2 --lambda 3,5,7 --depth 8 + json",
    "forms cusp --n 3 --q 2 --lambda 3,5 --depth 5 --n1 2 + json",
    # larger truncations; cusp at n=3, D=40 alone takes about 4 s
    "forms eigen --n 3 --q 2 --lambda 3,5 --depth 40",
    "forms eigen --n 4 --q 2 --lambda 3,5,7 --depth 12 + json",
    "forms cusp --n 4 --q 2 --lambda 3,5,7 --depth 12",
    # the rank-2 table in every regime of the gap g: g = d and g > d,
    # g = 0 at even and odd d, 0 < g < d with d + g even and odd
    "hecke neighbors --bundle 0,2 --point-degree 2 --weight 1 --q 4 + json",
    "hecke neighbors --bundle 0,5 --point-degree 3 --weight 1",
    "hecke neighbors --bundle 0,0 --point-degree 4 --weight 1 --q 9 + json",
    "hecke neighbors --bundle 1,1 --point-degree 3 --weight 1 --q 4",
    "hecke neighbors --bundle 0,2 --point-degree 4 --weight 1",
    "hecke neighbors --bundle 0,2 --point-degree 5 --weight 1 --q 9",
    "hecke neighbors --bundle 0,1 --point-degree 6 --weight 1 --cross-check on",
    "hecke mult --bundle 0,0 --target=-3,0 --point-degree 3 --weight 1 + json",
    "hecke mult --bundle 0,3 --target=-1,1 --point-degree 3 --weight 1",
    # spaced degrees and balanced bundles at d = 2, 3, and a spaced split
    # with a balanced half
    "hecke neighbors --bundle 0,2,4 --point-degree 2 --weight 1 --q 4 + json",
    "hecke neighbors --bundle 0,3,7 --point-degree 3 --weight 2 --q 9",
    "hecke neighbors --bundle 0,0,0 --point-degree 2 --weight 2 --q 4",
    "hecke neighbors --bundle 1,1,1,1 --point-degree 3 --weight 2 --q 9 + json",
    "hecke neighbors --bundle 0,0,3 --point-degree 2 --weight 1 + json",
    "hecke mult --bundle 0,0,0 --target=-3,-3,0 --point-degree 3 --weight 2 --q 4",
    # SNFs that pin L and R in their JSON twins: 5 x 5, 6 x 6 and a q above 2^32
    f"oracle snf --matrix '{SNF_5X5_Q3}' --q 3 + json",
    f"oracle snf --matrix '{SNF_6X6_Q5}' --q 5 + json",
    f"oracle snf --matrix '{SNF_3X3_Q_HUGE}' --q 4294967311 + json",
    # brute censuses on both sides of the F_2 scan: q = 2 at d = 4, odd q
    # with 400 subspaces at d = 1, odd q at d = 2
    "oracle census --bundle 0,1,1 --q 2 --point-degree 4 --weight 2 + json",
    "oracle census --bundle 0,0,1,1 --q 7 --point-degree 1 --weight 3 + json",
    "oracle census --bundle 0,1,1 --q 3 --point-degree 2 --weight 2 + json",
    # exit 2: usage and domain errors
    "gr --k 1 --n 2 --q 6",
    "oracle census --bundle 0,0 --q 4 --point-degree 1 --weight 1",
    "oracle census --bundle 0,0 --q 2 --weight 1",
    "forms eigen --n 3 --q 2 --lambda 3 --depth 4",
    "forms cusp --n 3 --q 2 --lambda 3,5 --depth 4 --n1 3",
    "hall kx --bundle 0,0 --weight 0 --point-degree 1",
    # exit 3: the budget refuses the work before it starts
    "oracle census --bundle 0,0,0 --q 2 --point-degree 2 --weight 1 --budget 1",
    "delta --n 30 --r 15",
]


def invocations() -> list:
    """CORPUS as argv lists, each "+ json" entry followed by its JSON twin."""
    out = []
    for line in CORPUS:
        text, twin = line.removesuffix(" + json"), line.endswith(" + json")
        argv = shlex.split(text)
        out.append(argv)
        if twin:
            out.append(argv + ["--format", "json"])
    return out


def _mask(text: str) -> str:
    """verify's per-check timings, e.g. (0.12s), become (*s)."""
    return re.sub(r"\(\d+\.\d+s\)", "(*s)", text)


def run(argv: list) -> dict:
    """One in-process invocation as a corpus entry."""
    from heckelab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: --version and usage errors
            code = exc.code
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(_mask(out.getvalue()).encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(_mask(err.getvalue()).encode()).hexdigest(),
    }


def main():
    entries = []
    for argv in invocations():
        entries.append(run(argv))
        print(entries[-1]["exit"], " ".join(argv), flush=True)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
    main()
