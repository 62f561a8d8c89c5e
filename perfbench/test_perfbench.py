"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from frobval import cli  # noqa: E402


def first_round(workload, seed):
    return next(workloads.rounds(workload, seed))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_scripts(workload):
    a = workloads.rounds(workload, 7)
    b = workloads.rounds(workload, 7)
    for _ in range(2):
        ra, rb = next(a), next(b)
        assert [s.text.encode() for s in ra] == [s.text.encode() for s in rb]
        assert [s.expect for s in ra] == [s.expect for s in rb]
    assert [s.text for s in first_round(workload, 8)] != [s.text for s in first_round(workload, 7)]


def cheap_scripts(workload, seed=3, count=12):
    return [s for s in first_round(workload, seed) if s.cls not in ("heavy", "giant")][:count]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_answers_match_frobval(workload):
    for script in cheap_scripts(workload):
        code, out = cli.run_script(script.text, fmt="json")
        assert check.check_script(script, code, out) == (0, []), script.text


def _corrupt(script, idx):
    """The script with one expected field of command `idx` changed."""
    op, fields = script.expect[idx]
    key = next(iter(fields))
    want = fields[key]
    if isinstance(want, bool):
        bad = not want
    elif isinstance(want, int):
        bad = want + 1
    elif want is None:
        bad = 1
    else:
        bad = want + "0"
    expect = list(script.expect)
    expect[idx] = (op, dict(fields, **{key: bad}))
    return workloads.Script(script.text, tuple(expect), script.cls)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_counts_a_wrong_expected_value(workload):
    script = cheap_scripts(workload)[0]
    code, out = cli.run_script(script.text, fmt="json")
    for idx in range(len(script.expect)):
        failed, problems = check.check_script(_corrupt(script, idx), code, out)
        assert failed == 1
        assert problems and problems[0].startswith(f"command {idx + 1} ")


def test_checker_counts_unanswered_commands_after_an_error():
    script = cheap_scripts("classify-mix")[0]
    code, out = cli.run_script(script.text, fmt="json")
    failed, _ = check.check_script(script, 1, out[:2] + ['{"error": "X"}'])
    assert failed == len(script.expect) - 2


def test_quadratic_sign_and_format():
    from fractions import Fraction as F
    assert workloads.qsign(F(3), F(-2), 2) == 1      # 3 > 2*sqrt(2)
    assert workloads.qsign(F(2), F(-2), 2) == -1     # 2 < 2*sqrt(2)
    assert workloads.qsign(F(-7, 5), F(1), 2) == 1   # sqrt(2) > 7/5
    assert workloads.qformat(F(1, 2), F(-1), 3) == "1/2 - sqrt(3)"
    assert workloads.qformat(F(0), F(-3, 2), 5) == "-3/2*sqrt(5)"


def test_tracer_records_layers_and_restores_entry_points():
    from frobval import classifier
    import tracing
    import worker

    original = classifier.classify
    scripts = cheap_scripts("classify-mix", count=4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.classify is not original and classifier.classify is cli.classify
        for script in scripts:
            cli.run_script(script.text, fmt="json")
    finally:
        tracer.uninstall()
    assert cli.classify is original and classifier.classify is original
    totals = tracer.layer_totals()
    assert totals["cli.run_script"][0] == len(scripts)
    # run_script encloses everything, so self times add up to its duration
    top = [i for i in range(len(tracer.kind)) if tracer.parent[i] < 0]
    wall = sum(tracer.end[i] - tracer.start[i] for i in top)
    assert sum(ns for _, ns in totals.values()) == wall
    layers = worker.per_layer(tracer, len(scripts), 1.0, 1.0)
    assert layers["valuations.Valuation.residue_invariants.per_classify"] == 5
    for metric in spec()["per_layer"]:
        assert metric["name"] in layers


def test_tracing_does_not_move_the_failing_scripts():
    import tracing
    import worker

    scripts = workloads.probe_scripts("series-orders") + cheap_scripts("series-orders", count=4)
    plain = worker.run_scripts(cli, scripts, float("inf"), [])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = worker.run_scripts(cli, scripts, float("inf"), [])
    finally:
        tracer.uninstall()
    assert worker.failing(plain) == worker.failing(traced)


def test_a_run_leaves_ten_scripts_beyond_the_95th_percentile():
    import worker

    for workload in workloads.WORKLOADS:
        n = sum(1 for _ in worker.whole_rounds(workloads.rounds(workload, 0), 0))
        assert n >= worker.MIN_SCRIPTS
        assert n - math.ceil(0.95 * n) >= 10


def test_failed_scripts_rank_above_successful_ones():
    import worker

    fast_fail = worker.Outcome(0.0, 0.001, 3, 1, "RecursionError")
    ok = [worker.Outcome(0.0, 0.01 * (i + 1), 3, 0, None) for i in range(19)]
    metrics = worker.end_to_end(ok + [fast_fail], "seconds")
    assert metrics["script_p95_ms"] == pytest.approx(190.0)
    metrics = worker.end_to_end(ok[:18] + [fast_fail, fast_fail], "seconds")
    assert metrics["script_p95_ms"] == pytest.approx(1.0)


def test_rescaling_follows_the_kernel_times_near_each_script():
    import calibrate

    nominal = calibrate.NOMINAL_S
    sampler = calibrate.Sampler()
    # kernel twice as slow for the first 10 s, then nominal; 10 samples a second
    for i in range(300):
        sampler.times.append(i / 10)
        sampler.kernel_s.append(nominal * (2 if i < 100 else 1))
    spans = [(3.2, 3.3), (20.2, 20.3), (9.5, 10.5), (0.0, 30.0)]
    factors = sampler.scale_factors(spans)
    assert factors[0] == pytest.approx(0.5)
    assert factors[1] == pytest.approx(1.0)
    assert 0.5 < factors[2] < 1.0
    assert factors[3] == pytest.approx(1 / 1.25, rel=0.1)


def test_sampler_times_the_kernel_during_a_long_script():
    import calibrate

    scripts = [s for s in first_round("series-orders", 3) if s.cls == "heavy"][:3]
    with calibrate.Sampler() as sampler:
        for script in scripts:
            cli.run_script(script.text, fmt="json")
    assert len(sampler.kernel_s) >= 2


def test_predictions_cover_every_per_layer_metric():
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)["predictions"]
    named = [name for entry in predictions for name in entry["layer"]]
    assert sorted(named) == sorted(m["name"] for m in spec()["per_layer"])
    workload_names = {w["name"] for w in spec()["workloads"]}
    e2e = {m["name"] for m in spec()["end_to_end"]}
    for entry in predictions:
        for wl, metrics in entry["moves"].items():
            assert wl in workload_names and set(metrics) <= e2e


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
