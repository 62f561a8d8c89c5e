"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line.
A closed loop with a single client: each script goes through
``frobval.cli.run_script`` in its own fresh session, and the next script
starts only when the previous one has returned, as with ``frobval run``.
The loop runs whole rounds of the workload's mix until ``--seconds`` have
passed, so every run has the same mix.  Each script's wall time is also
rescaled to a fixed host speed (see ``calibrate.py``); the reported times
are the rescaled ones.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import check  # noqa: E402
import workloads  # noqa: E402

# the 95th percentile needs ten scripts beyond it
MIN_SCRIPTS = 200
# a run stops mid-round past these limits so the process ends in time
LOOP_LIMIT_S = 100
WORKER_LIMIT_S = 165
SHOWN_PROBLEMS = 5


class Outcome:
    """Result of one script: its span, raw and rescaled time, commands
    attempted and failed."""

    __slots__ = ("start", "seconds", "scaled", "attempted", "failed", "error")

    def __init__(self, start, seconds, attempted, failed, error):
        self.start = start
        self.seconds = seconds
        self.scaled = seconds
        self.attempted = attempted
        self.failed = failed
        self.error = error


def run_one(cli, script, problems):
    """Run one script through run_script and check its output."""
    start = time.perf_counter()
    try:
        code, out = cli.run_script(script.text, fmt="json")
        error = None
    except Exception as exc:  # a crash counts as a failure; the loop goes on
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    seconds = time.perf_counter() - start
    if error is not None:
        failed, why = len(script.expect), [f"raised {error}"]
    else:
        failed, why = check.check_script(script, code, out)
    if why and len(problems) < SHOWN_PROBLEMS:
        problems.append({"script": script.text, "problems": why})
    return Outcome(start, seconds, len(script.expect), failed, error)


def run_scripts(cli, scripts, deadline, problems):
    """Run scripts one after another; stop early past `deadline`."""
    outcomes = []
    for script in scripts:
        outcomes.append(run_one(cli, script, problems))
        if time.perf_counter() > deadline:
            break
    return outcomes


def rescale(outcomes, sampler):
    spans = [(o.start, o.start + o.seconds) for o in outcomes]
    for o, factor in zip(outcomes, sampler.scale_factors(spans)):
        o.scaled = o.seconds * factor


def whole_rounds(gen, seconds):
    """Scripts of whole rounds until `seconds` have passed and at least
    MIN_SCRIPTS were handed out."""
    start = time.perf_counter()
    count = 0
    for rnd in gen:
        yield from rnd
        count += len(rnd)
        if time.perf_counter() - start >= seconds and count >= MIN_SCRIPTS:
            return


def rank_quantile(times, q):
    """Nearest-rank quantile of (failed, seconds) pairs: a failed script
    ranks as slower than every successful one."""
    ranked = sorted(times)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)][1]


def end_to_end(outcomes, attr):
    """Timing metrics from the raw ("seconds") or rescaled ("scaled") times."""
    times = [(o.failed > 0, getattr(o, attr)) for o in outcomes]
    busy = sum(t for _, t in times)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "script_p50_ms": rank_quantile(times, 0.50) * 1e3,
        "script_p95_ms": rank_quantile(times, 0.95) * 1e3,
        "cmds_per_s": (attempted - failed) / busy,
        "busy_s": busy,
    }


def per_layer(tracer, n_scripts, untraced_s, traced_s):
    """Per-layer metrics from the traced pass; counts and self times are
    means per script, so runs of different length compare."""
    totals = tracer.layer_totals()
    out = {}

    def calls(name):
        return totals[name][0]

    for name, (n_calls, self_ns) in totals.items():
        out[f"{name}.calls"] = n_calls / n_scripts
        out[f"{name}.self_s"] = self_ns / 1e9 / n_scripts
    classify_calls = calls("classifier.classify")
    out["valuations.Valuation.residue_invariants.per_classify"] = (
        calls("valuations.Valuation.residue_invariants") / classify_calls
        if classify_calls else 0.0
    )
    series_calls = calls("function_field.eval_poly_as_series")
    out["valuations.series_evals_per_value"] = (
        series_calls / tracer.series_values if tracer.series_values else 0.0
    )
    out["valuations.series_precision_max"] = tracer.series_precision_max
    divides = calls("function_field.exact_divide")
    out["function_field.exact_divide.hit_ratio"] = (
        tracer.exact_divide_hits / divides if divides else 0.0
    )
    out["trace_overhead"] = traced_s / untraced_s
    out["trace_overhead.untraced_s"] = untraced_s
    out["trace_overhead.traced_s"] = traced_s
    return out


def failing(outcomes):
    return {i for i, o in enumerate(outcomes) if o.failed}


def measure(cli, args, worker_start, sampler):
    """The untraced closed loop, the probes and, with --trace 1, the traced
    replay; returns the result record and any trace mismatches."""
    # warm-up on scripts of another seed, outside the measured loop
    warm = [s for s in next(workloads.rounds(args.workload, -1 - args.seed))
            if s.cls not in ("heavy", "giant")][:10]
    run_scripts(cli, warm, math.inf, [])
    gc.collect()

    problems = []
    deadline = time.perf_counter() + min(3 * args.seconds + 30, LOOP_LIMIT_S)
    scripts = whole_rounds(workloads.rounds(args.workload, args.seed), args.seconds)
    outcomes = run_scripts(cli, scripts, deadline, problems)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes = workloads.probe_scripts(args.workload)
    probe_out = run_scripts(cli, probes, math.inf, [])
    rescale(outcomes, sampler)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    result = {
        "scripts": len(outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": dict(end_to_end(outcomes, "scaled"), peak_rss_mb=peak_rss_mb,
                        failed_ratio=failed / attempted),
        "raw": end_to_end(outcomes, "seconds"),
        "probe": [{"script": s.text, "failed": o.failed > 0, "error": o.error}
                  for s, o in zip(probes, probe_out)],
        "problems": problems,
    }
    mismatch = []
    if not args.trace:
        return result, mismatch
    from tracing import Tracer

    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        # regenerate the scripts of the untraced loop and replay them
        same = itertools.chain.from_iterable(workloads.rounds(args.workload, args.seed))
        scripts = itertools.islice(same, len(outcomes))
        traced = run_scripts(cli, scripts, worker_start + WORKER_LIMIT_S, problems)
        traced_probe = run_scripts(cli, probes, math.inf, [])
    finally:
        tracer.uninstall()
    rescale(traced, sampler)
    n = len(traced)
    untraced_s = sum(o.scaled for o in outcomes[:n])
    traced_s = sum(o.scaled for o in traced)
    result["traced_scripts"] = n
    result["layers"] = per_layer(tracer, n, untraced_s, traced_s)
    # tracing must not change which scripts fail, probes included
    if failing(traced) != failing(outcomes[:n]):
        mismatch.append("traced and untraced runs fail on different scripts")
    if failing(traced_probe) != failing(probe_out):
        mismatch.append("traced and untraced probes fail differently")
    if args.spans_out:
        tracer.write(args.spans_out)
    return result, mismatch


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--spans-out", help="file to write the traced run's spans to")
    args = ap.parse_args(argv)
    worker_start = time.perf_counter()

    sys.path.insert(0, args.src)
    import frobval.cli as cli

    with calibrate.Sampler() as sampler:
        result, mismatch = measure(cli, args, worker_start, sampler)
    result["trace_mismatch"] = mismatch
    result["correct"] = result["failed"] == 0 and not mismatch
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
