"""Run one flatgeo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan-parallel --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The run sets up the workload, repeats whole passes of its ops in a closed
loop for about ``--seconds`` (it stops after the pass that ends nearest
to it), then sets up four more times.  ``--trace 0`` prints the
end-to-end metrics, with every time scaled to a reference machine speed
(see ``speed.py``); ``--trace 1`` records spans around every layer
boundary and prints the per-layer metrics instead.  Human-readable lines
start with ``#``; the last line of standard output is one JSON object.

``--record-reference`` runs one traced pass at the default seed and
writes the outputs and work counts to ``perfbench/reference/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
# One process, and numpy's BLAS pools kept to one thread, so that the
# whole run uses at most the two cores of the reference box.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("scan-parallel", "scan-long", "roundtrip", "build")
MAX_ERRORS_SHOWN = 5

def say(line: str) -> None:
    print(f"# {line}", flush=True)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "processes": 1,
        "threads": threading.active_count(),  # the workload's and the speed sampler's
    }


def run_timed(workload, seconds: float, recorder=None, tamper=None):
    """Repeat whole passes; stop after the one that ends nearest ``seconds``."""
    ops = workload.ops
    ref_ops = workload.reference["ops"] if workload.reference else None
    attempted = failed = passes = 0
    errors: list[str] = []
    starts: list[float] = []
    latencies: list[float] = []
    pass_counts: list[dict] = []
    digests: list = []
    start = perf_counter()
    while True:
        for i, op in enumerate(ops):
            span = recorder.begin_op(op.tag) if recorder else None
            t0 = perf_counter()
            try:
                out = op.call()
                if tamper is not None:
                    out = tamper(attempted, out)
                digest = op.check(out)
                if ref_ops is not None:
                    workload.compare(digest, ref_ops[i])
                if passes == 0:
                    digests.append(digest)
            except Exception as exc:  # a raised library error or failed check is a failed op
                failed += 1
                if len(errors) < MAX_ERRORS_SHOWN:
                    errors.append(f"op {i} ({op.tag}): {type(exc).__name__}: {exc}")
            starts.append(t0)
            latencies.append(perf_counter() - t0)
            if recorder:
                recorder.close(span)
            attempted += 1
        passes += 1
        if recorder:
            pass_counts.append(recorder.take_counts())
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / passes > seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "wall": perf_counter() - start,
        "errors": errors,
        "starts": starts,
        "latencies": latencies,
        "pass_counts": pass_counts,
        "digests": digests,
    }


def scaled_pass_s(res: dict, ops_per_pass: int, sampler) -> float:
    """Seconds of one pass with each op at the reference speed.

    Each op's time is scaled to the reference speed and then taken at its
    median over the passes, which a burst of load shifts less than a mean.
    """
    scaled = [lat * sampler.factor(t0, t0 + lat) for t0, lat in zip(res["starts"], res["latencies"])]
    return sum(statistics.median(scaled[i::ops_per_pass]) for i in range(ops_per_pass))


def check_counts(pass_counts: list[dict], reference: dict | None) -> list[str]:
    """Work counts must repeat exactly: across passes and against the reference."""
    problems = []
    first = pass_counts[0]
    for k, counts in enumerate(pass_counts[1:], start=2):
        if counts != first:
            problems.append(f"pass {k} counts differ from pass 1")
    if reference is not None and reference["counts"] != first:
        diff = sorted(k for k in set(first) | set(reference["counts"])
                      if first.get(k) != reference["counts"].get(k))
        problems.append(f"counts differ from the reference: {diff}")
    return problems


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(res: dict, rate: float, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(rate, "ops/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ok_frac": metric(1.0 - res["failed"] / res["attempted"], "ratio"),
    }


def timed_setup(name: str, seed: int | None):
    """One set-up: (start, seconds, seed, workload, spans module, layers module)."""
    t0 = perf_counter()
    workloads, spans, layers = fresh_import()
    seed = workloads.DEFAULT_SEED if seed is None else seed
    workload = workloads.setup(name, seed)
    return t0, perf_counter() - t0, seed, workload, spans, layers


def fresh_import():
    """Import flatgeo and the benchmark modules that bind it, from scratch."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("flatgeo", "workloads", "spans", "layers"):
            del sys.modules[name]
    import flatgeo

    if Path(flatgeo.__file__).resolve().parent != SRC / "flatgeo":
        raise SystemExit(f"error: flatgeo imported from {flatgeo.__file__}, not {SRC}")
    import layers
    import spans
    import workloads

    return workloads, spans, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the recorded default)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "flatgeo" / "__init__.py").is_file():
        print(f"error: no flatgeo sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))

    t0 = perf_counter()
    import numpy  # noqa: F401  (the interpreter's environment, like its start-up)

    numpy_s = perf_counter() - t0
    if args.record_reference:
        workloads, spans, _layers = fresh_import()
        return record_reference(args.workload, args.seed, workloads, spans)

    with speed.Sampler() as sampler:
        # Each set-up imports flatgeo afresh, so the median covers the
        # imports too.  Set-ups before and after the timed phase are less
        # likely to share one burst of load from other tenants.
        t0, seconds, seed, workload, spans, layers = timed_setup(args.workload, args.seed)
        setups = [(t0, seconds)]
        recorder = spans.Recorder() if args.trace else None
        if recorder:
            recorder.install()
        try:
            res = run_timed(workload, args.seconds, recorder)
        finally:
            if recorder:
                recorder.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env = environment()  # while the sampler thread still runs
        if not recorder:
            setups += [timed_setup(args.workload, args.seed)[:2] for _ in range(SETUP_REPEATS - 1)]
    setup_times = [s * sampler.factor(t0, t0 + s) for t0, s in setups]
    setup_s = statistics.median(setup_times)
    n_ops = len(workload.ops)
    pass_s = scaled_pass_s(res, n_ops, sampler)
    ok = res["attempted"] - res["failed"]
    rate = ok / res["attempted"] * n_ops / pass_s  # successful ops per second

    say(f"flatgeo benchmark: workload={args.workload} seed={seed} seconds={args.seconds:g} "
        f"trace={args.trace}")
    say("environment " + json.dumps(env))
    say(f"closed loop, one caller: {res['passes']} pass(es) of {n_ops} ops, "
        f"{res['wall']:.3f} s timed")
    say(f"fail_frac = {res['failed'] / res['attempted']:.6g} "
        f"(= {res['failed']} failed / {res['attempted']} attempted)")
    for err in res["errors"]:
        say(f"failed: {err}")
    lat_ms = [x * 1000.0 for x in res["latencies"]]
    pct = spans.tail_percentile(len(lat_ms))
    say(f"op latency: p50 {spans.percentile(lat_ms, 50):.3f} ms, p{pct:g} "
        f"{spans.percentile(lat_ms, pct):.3f} ms (n = {len(lat_ms)})")
    say(f"machine speed {sampler.speed():.3f} x reference (median of {len(sampler.loops)} "
        f"samples of the calibration loop)")
    say(f"setup_s = {setup_s:.4f} (median of {[round(t, 4) for t in setup_times]} s at reference "
        f"speed, each importing flatgeo; numpy import {numpy_s:.4f} s not included)")

    correct = res["failed"] == 0
    if recorder:
        problems = check_counts(res["pass_counts"], workload.reference)
        for p in problems:
            say(f"count check failed: {p}")
        correct = correct and not problems
        values = layers.per_layer(recorder, res, rate)
        for line in layers.describe(values, res):
            say(line)
        metrics = {name: metric(v, unit) for name, (v, unit) in values.items()}
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(OUT_DIR / f"spans-{args.workload}-seed{seed}.jsonl")
    else:
        metrics = end_to_end_metrics(res, rate, setup_s, peak_rss_mb)
        say(f"ops_per_s = {rate:.4f} (= {ok}/{res['attempted']} succeeded x {n_ops} ops per pass / "
            f"{pass_s:.4f} s, each op at reference speed and at its median over "
            f"{res['passes']} passes); unscaled mean rate {ok / res['wall']:.4f} "
            f"(= {ok} ops / {res['wall']:.4f} s wall)")

    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def record_reference(name: str, seed: int | None, workloads, spans) -> int:
    seed = workloads.DEFAULT_SEED if seed is None else seed
    if seed != workloads.DEFAULT_SEED:
        print("error: the reference is recorded at the default seed", file=sys.stderr)
        return 2
    workload = workloads.setup(name, seed, with_reference=False)
    recorder = spans.Recorder()
    recorder.install()
    try:
        res = run_timed(workload, 0.0, recorder)
    finally:
        recorder.uninstall()
    if res["failed"]:
        print("error: " + "; ".join(res["errors"]), file=sys.stderr)
        return 1
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.reference_path(name)
    with open(path, "w") as fh:
        # One op per line keeps the file short and its diffs readable.
        fh.write(f'{{"workload": {json.dumps(name)}, "seed": {seed},\n')
        fh.write(f' "counts": {json.dumps(res["pass_counts"][0], sort_keys=True)},\n')
        fh.write(' "ops": [\n  ' + ",\n  ".join(json.dumps(d) for d in res["digests"]) + "\n ]}\n")
    say(f"wrote {path.relative_to(ROOT)} ({len(res['digests'])} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
