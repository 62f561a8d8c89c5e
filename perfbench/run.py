#!/usr/bin/env python3
"""Layered benchmark for frobval.

Run from the root of a checkout:

    python3 perfbench/run.py --workload series-orders --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Each run measures the set-up time (``import frobval.cli`` in several fresh
interpreters), then starts one fresh worker process for the workload's
closed loop (see ``worker.py``).  With ``--trace 0`` it reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the worker
replays the same scripts with spans around each layer's entry points and
the run reports the per-layer metrics.  The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from calibrate import NOMINAL_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 175
# prints the raw import time and the median calibration kernel time around it
SETUP_CODE = (
    "import statistics, sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import calibrate\n"
    "refs = [calibrate.kernel_seconds() for _ in range(5)]\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import frobval.cli\n"
    "t = time.perf_counter() - t0\n"
    "refs += [calibrate.kernel_seconds() for _ in range(5)]\n"
    "print(repr(t), repr(statistics.median(refs)))\n"
)


class BenchError(Exception):
    pass


def _python(args, timeout):
    """Run the current interpreter on `args`; stdout, or BenchError."""
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE,
            timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not finish within {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with code {proc.returncode}")
    return proc.stdout


def setup_seconds():
    """Median time of `import frobval.cli` in fresh interpreters, raw and
    rescaled to the calibration kernel's nominal speed.  One untimed import
    first, so bytecode caching is not part of the figure."""
    _python(["-c", SETUP_CODE, SRC, HERE], 60)
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        t, ref = map(float, _python(["-c", SETUP_CODE, SRC, HERE], 60).split())
        raw.append(t)
        scaled.append(t * NOMINAL_S / ref)
    return statistics.median(scaled), statistics.median(raw)


def environment():
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": sha,
    }


def run_workload(spec, workload, seed, seconds, trace):
    setup_s, setup_raw_s = setup_seconds()
    spans = os.path.join(OUT_DIR, f"spans-{workload}.bin")
    args = [os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--src", SRC]
    if trace:
        args += ["--spans-out", spans]
    out = _python(args, WORKER_TIMEOUT_S)
    result = json.loads(out.strip().splitlines()[-1])
    result["metrics"]["setup_s"] = setup_s
    result["raw"]["setup_s"] = setup_raw_s
    if trace:
        result["spans_file"] = os.path.relpath(spans, ROOT)
    key = "per_layer" if trace else "end_to_end"
    source = result["layers"] if trace else result["metrics"]
    reported = {}
    for m in spec[key]:
        reported[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    result["reported"] = reported
    return result


def print_block(workload, seed, trace, result, spec):
    m, raw = result["metrics"], result["raw"]
    print(f"== {workload} (seed {seed}, trace {trace}) ==")
    print(f"  {result['scripts']} scripts, {result['attempted']} commands, "
          f"{result['failed']} failed, {raw['busy_s']:.2f} s in run_script")
    print(f"  {'metric':<52} {'rescaled':>14} {'raw':>14}")
    units = {x["name"]: x["unit"] for x in spec["end_to_end"]}
    for name in ("script_p50_ms", "script_p95_ms", "cmds_per_s", "setup_s"):
        print(f"  {name:<52} {m[name]:>14.6g} {raw[name]:>14.6g} {units.get(name, '')}")
    for name, unit in (("peak_rss_mb", units.get("peak_rss_mb", "")), ("failed_ratio", "ratio")):
        print(f"  {name:<52} {m[name]:>14.6g} {'':>14} {unit}")
    if trace:
        print(f"  per layer, over {result['traced_scripts']} replayed scripts "
              f"(counts and self times are means per script):")
        for name, entry in result["reported"].items():
            print(f"  {name:<52} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  spans written to {result['spans_file']}")
    for probe in result["probe"]:
        first = probe["script"].strip().splitlines()[-1]
        state = f"fails: {probe['error']}" if probe["failed"] else "passes"
        print(f"  known-defect probe `{first}` {state}")
    for entry in result["problems"]:
        print("  FAILED script:")
        for line in entry["script"].splitlines():
            print(f"    | {line}")
        for why in entry["problems"]:
            print(f"    -> {why}")
    for why in result["trace_mismatch"]:
        print(f"  TRACE MISMATCH: {why}")
    print(f"  correct: {'yes' if result['correct'] else 'NO'}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", help="also write the full record as JSON here")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "frobval", "cli.py")):
        print(f"perfbench: no frobval sources under {SRC}", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)

    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for wl in names:
            results[wl] = run_workload(spec, wl, args.seed, args.seconds, args.trace)
            print_block(wl, args.seed, args.trace, results[wl], spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "workloads": results},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    if len(names) == 1:
        metrics = results[names[0]]["reported"]
    else:
        metrics = {f"{wl}.{k}": v for wl in names for k, v in results[wl]["reported"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
