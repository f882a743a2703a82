"""Write perfbench/reference.json: seed-0 integral terms of every workload.

    python3 perfbench/capture_reference.py

Run it only on a tree whose results are trusted; the benchmark compares
every later seed-0 pass against this file, term by term, within 10 times
the reported quadrature error.
"""

import json
import pathlib
import sys
import tempfile

import env

env.prepare()

import workloads  # noqa: E402


def main() -> int:
    data = {}
    with tempfile.TemporaryDirectory(dir=env.ROOT) as tmp:
        for name in ("suite_all", "sweep_2d", "sweep_3d"):
            items = workloads.build(name, 0, "full").run(pathlib.Path(tmp))
            bad = [it.label for it in items if not it.ok]
            if bad:
                print(f"error: {name} fails {bad}; not writing a reference", file=sys.stderr)
                return 1
            data[name] = workloads.reference_record(items)
    workloads.REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
