"""Set-up probe: import heckelab, generate a workload's leading ops, exit.

    python3 perfbench/setup_probe.py WORKLOAD SEED

run.py times whole runs of this script, from spawn to exit, as `setup_s`:
what a fresh process pays before its first op.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402  (needs src/ on the path)

workload = workloads.WORKLOADS[sys.argv[1]]
workloads.first_ops(workload, int(sys.argv[2]), workload.prefix)
