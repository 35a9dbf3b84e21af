"""Self-test of the benchmark's checks: corrupted outputs must count as failed.

    python3 perfbench/selftest.py

For each workload it runs the first ops of the default-seed pass twice,
once as they come and once with one output corrupted, and requires the
failed count to go from 0 to 1.  It also checks that BENCHMARK.json
lists exactly the metrics that run.py prints.  Exits 0 when all pass.
"""
from __future__ import annotations

import dataclasses
import json
import sys

import run

OPS_PER_WORKLOAD = 6
CORRUPT_OP = 2


def _corrupt_scan(result):
    row = result.rows[0]
    if row.kind == "simple":
        bad = dataclasses.replace(row.density, covered_fraction=1.5)
        row = dataclasses.replace(row, density=bad)
    else:
        row = dataclasses.replace(row, kind="left_domain")
    return dataclasses.replace(result, rows=(row,))


def _corrupt_build(out):
    return {**out, "json_again": out["json_again"].replace("]", " ]", 1)}


CORRUPTIONS = {
    "scan-parallel": _corrupt_scan,
    "scan-long": _corrupt_scan,
    "roundtrip": lambda residual: 1e-3,
    "build": _corrupt_build,
}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    workloads, _spans, layers = run.fresh_import()
    problems = []
    for name, corrupt in CORRUPTIONS.items():
        full = workloads.setup(name, workloads.DEFAULT_SEED)
        head = dataclasses.replace(full, ops=full.ops[:OPS_PER_WORKLOAD])
        clean = run.run_timed(head, 0.0)

        def tamper(index, out, corrupt=corrupt):
            return corrupt(out) if index == CORRUPT_OP else out

        dirty = run.run_timed(head, 0.0, tamper=tamper)
        print(f"{name}: fail_frac {clean['failed']}/{clean['attempted']} clean, "
              f"{dirty['failed']}/{dirty['attempted']} with op {CORRUPT_OP} corrupted "
              f"({'; '.join(dirty['errors'])})")
        if clean["failed"] != 0 or dirty["failed"] != 1:
            problems.append(f"{name}: corruption not detected exactly once")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if listed != list(layers.UNITS.items()):
        problems.append("BENCHMARK.json per_layer differs from layers.UNITS")
    res = {"attempted": 1, "failed": 0}
    printed = {(k, v["unit"]) for k, v in run.end_to_end_metrics(res, 1.0, 1.0, 1.0).items()}
    if printed != {(m["name"], m["unit"]) for m in spec["end_to_end"]}:
        problems.append("BENCHMARK.json end_to_end differs from run.end_to_end_metrics")

    for p in problems:
        print(f"FAIL: {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
