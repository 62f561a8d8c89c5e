"""The verdicts of ``scripts/bench_pairs.py`` on synthetic runs; no worker
is started."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def summarize():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarize


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
