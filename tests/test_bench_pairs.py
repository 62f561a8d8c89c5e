"""The verdicts of ``scripts/bench_pairs.py`` on synthetic runs; no worker
is started."""

import importlib.util
import json
import os
import pathlib
import re
import shutil
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def summarize(bench_pairs):
    return bench_pairs.summarize


# a parent whose quartiles are 9.875 and 10.125 around a median of 10: a
# spread of 2.5%
STEADY = [9.5, 9.8, 9.9, 10.0, 10.0, 10.0, 10.0, 10.1, 10.2, 10.5]
# the same median with quartiles 6.75 and 13.25: a spread of 65%
NOISY = [4.0, 6.0, 7.0, 9.0, 10.0, 10.0, 11.0, 13.0, 14.0, 16.0]


def test_gain(summarize):
    change = [x - 2 for x in STEADY]
    assert summarize("script_p50_ms", STEADY, change, "lower", 0.25) == "gain"
    assert summarize("cmds_per_s", STEADY, [x + 2 for x in STEADY], "higher", 0.25) == "gain"


def test_worse_than_bound(summarize):
    change = [x * 1.3 for x in STEADY]
    assert summarize("script_p50_ms", STEADY, change, "lower", 0.25) == "WORSE than bound"
    assert summarize("cmds_per_s", STEADY, [x * 0.7 for x in STEADY], "higher", 0.25) \
        == "WORSE than bound"


def test_within_bound_and_resolved(summarize):
    assert summarize("script_p50_ms", STEADY, list(STEADY), "lower", 0.25) == ""


def test_spread_wider_than_bound_is_unresolved(summarize):
    change = list(reversed(NOISY))
    assert summarize("script_p50_ms", NOISY, change, "lower", 0.25) == "unresolved"
    # no bound: the spread is not judged
    assert summarize("scripts", NOISY, change, "higher", None) == ""


def test_full_dominance_resolves_a_wide_spread(summarize):
    # every change run beats every parent run, but by less than the
    # parent's interquartile distance, so it is neither a gain nor unresolved
    lower = [3.6 + i / 100 for i in range(10)]
    assert summarize("script_p50_ms", NOISY, lower, "lower", 0.25) == ""
    higher = [16.1 + i / 100 for i in range(10)]
    assert summarize("cmds_per_s", NOISY, higher, "higher", 0.25) == ""


def test_paired_column_resists_one_slow_run_on_a_drifting_host(summarize, capsys):
    # the host slows by half after five pairs; the change is 5% faster in
    # every pair but the fourth, where one slow run lands
    parent = [1.0] * 5 + [1.5] * 5
    change = [0.95 * p for p in parent]
    change[3] = 1.6
    assert summarize("script_p50_ms", parent, change, "lower", 0.25) == "unresolved"
    row = capsys.readouterr().out
    # the ratio of the medians (1.425 / 1.25), then the median ratio
    assert re.findall(r"[+-]\d+\.\d%", row) == ["+14.0%", "-5.0%"] and "9/10" in row


WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def stubbed(bench_pairs, tmp_path, monkeypatch):
    """Two empty trees, the change holding this repository's BENCHMARK.json,
    and a stub worker that logs each run and reports fixed metrics, with
    `slower[workload]` times the parent's latencies on the change side."""
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        tree.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", trees["change"])
    started, slower = [], {}

    def run_worker(tree, workload, seed, seconds):
        side = pathlib.Path(tree).name
        started.append((side, workload))
        factor = slower.get(workload, 1.0) if side == "change" else 1.0
        metrics = {"script_p50_ms": factor, "script_p95_ms": 2 * factor,
                   "cmds_per_s": 1000 / factor, "peak_rss_mb": 20.0, "failed_ratio": 0.0}
        return {"scripts": 500, "correct": True, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_worker", run_worker)
    monkeypatch.setattr(bench_pairs, "run_setup", lambda tree: 0.03)
    args = ["--parent", str(trees["parent"]), "--change", str(trees["change"]),
            "--pairs", "2", "--seconds", "1", "--out", str(tmp_path / "runs.json")]
    return args, started, slower, tmp_path / "runs.json"


def test_all_runs_every_workload_into_one_record(bench_pairs, stubbed):
    args, started, _, out = stubbed
    assert bench_pairs.main(args + ["--workload", "all"]) == 0
    # alternating pairs, one workload after another
    assert started == [(side, w) for w in WORKLOADS
                       for side in ("parent", "change", "change", "parent")]
    runs = json.loads(out.read_text())["runs"]
    assert list(runs) == WORKLOADS
    for record in runs.values():
        assert [len(record[side]) for side in ("parent", "change")] == [2, 2]
        assert record["change"][0]["metrics"]["setup_s"] == 0.03


def test_one_exit_status_for_all_workloads(bench_pairs, stubbed):
    args, _, slower, out = stubbed
    slower[WORKLOADS[1]] = 1.5
    assert bench_pairs.main(args + ["--workload", "all"]) == 1
    # the workloads after the failing one still run and are recorded
    assert list(json.loads(out.read_text())["runs"]) == WORKLOADS
    assert bench_pairs.main(args + ["--workload", WORKLOADS[0]]) == 0
    assert list(json.loads(out.read_text())["runs"]) == [WORKLOADS[0]]


def test_record_names_the_environment(bench_pairs, stubbed, monkeypatch):
    # with bytecode caching off, setup_s times compilation, not import
    args, _, _, out = stubbed
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_pairs.main(args + ["--workload", WORKLOADS[0]]) == 0
    assert json.loads(out.read_text())["env"] == {
        "python": sys.version, "cpu_count": os.cpu_count(), "PYTHONDONTWRITEBYTECODE": "1"}


def test_unknown_workload_is_refused(bench_pairs, stubbed):
    args, started, _, _ = stubbed
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(args + ["--workload", "no-such-workload"])
    assert exc.value.code == 2 and started == []


def synthetic_runs(latencies):
    """One workload's runs by side: the change at the given factors of the
    parent's latencies, pair by pair."""
    def record(factor):
        metrics = {"script_p50_ms": factor, "script_p95_ms": 2 * factor,
                   "cmds_per_s": 1000 / factor, "setup_s": 0.03, "peak_rss_mb": 20.0,
                   "failed_ratio": 0.0}
        return {"scripts": 500, "correct": True, "metrics": metrics}

    return {"parent": [record(1.0) for _ in latencies], "change": [record(f) for f in latencies]}


def test_summary_reads_both_record_layouts_and_starts_no_worker(
        bench_pairs, tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("--summary started a run")

    monkeypatch.setattr(bench_pairs, "run_worker", refuse)
    monkeypatch.setattr(bench_pairs, "run_setup", refuse)
    # a file written by --out, and a root record holding such files as tables
    out = tmp_path / "runs.json"
    out.write_text(json.dumps({"args": {"seed": 0, "seconds": 30}, "env": {},
                               "runs": {"classify-mix": synthetic_runs([0.9] * 9 + [1.1])}}))
    root = tmp_path / "BENCH_X.json"
    root.write_text(json.dumps({"what": "synthetic", "runs": {
        "seed 1": {"args": {"seed": 1, "seconds": 30},
                   "runs": {"series-orders": synthetic_runs([1.0, 1.0, 1.0])}}}}))
    assert bench_pairs.main(["--summary", str(out), str(root)]) == 0
    text = capsys.readouterr().out
    assert f"{out}: classify-mix, seed 0, 30 s runs, 10 pairs" in text
    assert f"{root} seed 1: series-orders, seed 1, 30 s runs, 3 pairs" in text
    # the parent's median, the change's, the relative change and the pairs won
    p95 = [line for line in text.splitlines() if line.startswith("script_p95_ms")]
    assert p95[0].split()[:2] == ["script_p95_ms", "2"]
    assert " 1.8 " in p95[0] and "-10.0%" in p95[0] and "9/10" in p95[0] and p95[0].endswith("gain")
    assert "+0.0%" in p95[1] and "0/3" in p95[1]


def test_summary_exit_status_flags_a_metric_worse_than_its_bound(bench_pairs, tmp_path, capsys):
    out = tmp_path / "runs.json"
    out.write_text(json.dumps({"args": {}, "runs": {"divisorial-mult": synthetic_runs([1.5] * 4)}}))
    assert bench_pairs.main(["--summary", str(out)]) == 1
    assert "WORSE than bound" in capsys.readouterr().out


def test_runs_need_both_trees_without_summary(bench_pairs):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--workload", "all"])
    assert exc.value.code == 2
