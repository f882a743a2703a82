"""Time one fresh process's set-up for a workload.

    python3 perfbench/setup_probe.py WORKLOAD SEED SIZE

Prints one JSON line: ``import_s``, the time to import ``grushin_hardy.cli``
(and through it numpy and scipy), and ``build_s``, the time to build the
workload's inputs afterwards.
"""

import json
import sys
import time

import env

env.prepare()
name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]

t0 = time.perf_counter()
import grushin_hardy.cli  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

workloads.build(name, seed, size)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
