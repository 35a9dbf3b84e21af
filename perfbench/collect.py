"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads scan-parallel build --seeds 2 3 4 5 6
    python3 perfbench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 --traced-seeds 1 2 3 \\
        --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), one after another: untraced
for ``--seeds``, traced for ``--traced-seeds``.  For every metric it
prints the median, the quartiles and the quartile spread (the distance
between the first and third quartile over the median, as the bounds in
BENCHMARK.json are checked), and the tracing overhead: untraced
``ops_per_s`` against traced ``bench.traced_ops_per_s``.  ``--out``
writes the environment and all of it as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ENV_PREFIX = "# environment "


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[len(ENV_PREFIX):]) for ln in lines if ln.startswith(ENV_PREFIX))
    return {"seed": seed, "environment": env, **json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "values": values}
    return out


def collect(workload: str, seeds: list[int], seconds: int, trace: int) -> dict:
    runs = [run_one(workload, seed, seconds, trace) for seed in seeds]
    bad = [r["seed"] for r in runs if not r["correct"] or r["failed"]]
    print(f"{workload} trace={trace}: {len(runs)} runs (seeds {seeds}), "
          f"{sum(r['attempted'] for r in runs)} ops attempted, "
          f"{sum(r['failed'] for r in runs)} failed, incorrect at seeds {bad}")
    summary = summarise(runs)
    for name, s in summary.items():
        print(f"  {name:28s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {s['unit']}")
    sys.stdout.flush()
    return {"seeds": seeds, "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs], "correct": [r["correct"] for r in runs],
            "metrics": summary, "environment": runs[0]["environment"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOAD_NAMES),
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", nargs="*", type=int, default=list(range(1, 11)))
    parser.add_argument("--traced-seeds", nargs="*", type=int, default=[])
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        entry = {}
        if args.seeds:
            entry["untraced"] = collect(workload, args.seeds, seconds, 0)
        if args.traced_seeds:
            entry["traced"] = collect(workload, args.traced_seeds, seconds, 1)
        if args.seeds and args.traced_seeds:
            plain = entry["untraced"]["metrics"]["ops_per_s"]["median"]
            traced = entry["traced"]["metrics"]["bench.traced_ops_per_s"]["median"]
            entry["tracing_overhead"] = 1.0 - traced / plain
            print(f"  tracing overhead: {entry['tracing_overhead']:.2%} "
                  f"(median ops_per_s {plain:.4g} untraced, {traced:.4g} traced)")
        for mode in ("untraced", "traced"):
            if mode in entry:
                report["environment"] = entry[mode].pop("environment")
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
