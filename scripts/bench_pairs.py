"""Compare two source trees with alternating pairs of benchmark runs.

    python3 scripts/bench_pairs.py --parent OLD_TREE --change NEW_TREE \
        --workload divisorial-mult [--pairs 10] [--seed 0] [--seconds 30] \
        [--out runs.json]

A tree is a checkout of this repository.  In each pair, each tree runs its
``perfbench/worker.py`` once on its own ``src/``, and then the
``setup_seconds()`` of its own ``perfbench/run.py``, imported by path in a
fresh interpreter, for ``setup_s``.  The parent goes first in even pairs and
the change in odd ones, so drift in the host's speed falls on both sides
alike.

For every end-to-end metric of the change tree's ``BENCHMARK.json`` that
the runs report, and for the share of failed commands, it prints each side's
median and quartiles over the pairs, the change's median relative to the
parent's, how many pairs the change won (ties count for neither side) and
the bound of that metric (none for failures: any rise is flagged).  A gain
holds when the change wins at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile distance; a
metric whose median is worse than the parent's by more than its bound is
flagged.  A metric whose parent runs spread wider than its bound (their
interquartile distance over their median) is unresolved, not unchanged,
unless every change run is better than every parent run.  The script edits
neither tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# the worker ends itself within 165 s; allow for interpreter start-up
WORKER_TIMEOUT_S = 240


def run_worker(tree, workload, seed, seconds):
    """One untraced worker run of `tree` on its own sources; its record."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "worker.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--src", os.path.join(tree, "src")],
        cwd=tree, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_setup(tree):
    """`setup_s` of `tree`: the rescaled figure of ``setup_seconds()`` in its
    own ``perfbench/run.py``, imported in a fresh interpreter."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import run; print(run.setup_seconds()[0])"
    proc = subprocess.run(
        [sys.executable, "-c", code, os.path.join(tree, "perfbench")],
        cwd=tree, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(name, parent, change, better, bound):
    """Print one table row for the metric `name`; return its verdict:
    "gain", "WORSE than bound", "unresolved" or ""."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    rel = (c_med - p_med) / p_med if p_med else float(c_med != p_med)
    spread = (p_q3 - p_q1) / p_med if p_med else float(p_q3 != p_q1)
    dominates = all(sign * (c - p) > 0 for c in change for p in parent)
    gain = wins >= 0.9 * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1
    worse = bound is not None and -sign * rel > bound
    unresolved = bound is not None and spread > bound and not dominates
    verdict = ("gain" if gain else "WORSE than bound" if worse
               else "unresolved" if unresolved else "")
    bound_text = "-" if bound is None else f"{bound:g}"
    print(f"{name:<16} {p_med:>10.5g} [{p_q1:.5g}, {p_q3:.5g}]"
          f"  {c_med:>10.5g} [{c_q1:.5g}, {c_q3:.5g}]"
          f"  {rel:>+8.1%}  {wins:>3}/{len(parent):<3} {bound_text:>6}  {verdict}")
    return verdict


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--out", help="also write every run's record as JSON here")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    # each worker runs with its tree as the working directory
    args.parent, args.change = os.path.abspath(args.parent), os.path.abspath(args.change)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = args.parent if side == "parent" else args.change
            record = run_worker(tree, args.workload, args.seed, args.seconds)
            record["metrics"]["setup_s"] = run_setup(tree)
            runs[side].append(record)
            print(f"pair {i + 1}/{args.pairs} {side}: {record['scripts']} scripts, "
                  f"p95 {record['metrics']['script_p95_ms']:.3f} ms, "
                  f"setup {record['metrics']['setup_s']:.4f} s, "
                  f"correct {record['correct']}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"args": vars(args), "runs": runs}, fh, indent=1)

    print(f"\n{args.workload}, seed {args.seed}, {args.seconds:g} s runs, {args.pairs} pairs")
    print(f"{'metric':<16} {'parent median [q1, q3]':>26}  {'change median [q1, q3]':>26}"
          f"  {'change':>8}  {'wins':>7} {'bound':>6}")
    worse = False
    spec["failed_ratio"] = {"better": "lower", "bound": 0}
    for name, m in spec.items():
        if name not in runs["parent"][0]["metrics"]:
            continue
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        worse |= summarize(name, parent, change, m["better"], m["bound"]) == "WORSE than bound"
    summarize("scripts", [r["scripts"] for r in runs["parent"]],
              [r["scripts"] for r in runs["change"]], "higher", None)
    incorrect = sum(not r["correct"] for side in runs.values() for r in side)
    if incorrect:
        print(f"{incorrect} runs reported wrong answers")
    return 1 if worse or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
