"""The paired benchmark runner's arithmetic: wins, gaps and bounds."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(**values):
    return {"line": {"metrics": {k: {"value": v} for k, v in values.items()}}}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("3-5,9") == [3, 4, 5, 9]
    for bad in ("-1", "a-b", "5-3", "5-3,7", "3,3", "1-4,3-6", ""):
        with pytest.raises(SystemExit):
            bench_pairs.parse_seeds(bad)


@pytest.mark.parametrize("better,wins,gap", [("higher", 3, 1.0), ("lower", 1, -1.0)])
def test_wins_and_gap_follow_the_better_direction(better, wins, gap):
    metric = {"name": "m", "unit": "u", "better": better, "bound": 0.25}
    pairs = [(_run(m=p), _run(m=c)) for p, c in
             [(10.0, 12.0), (11.0, 13.0), (12.0, 12.0), (9.0, 10.0), (14.0, 13.0)]]
    out = bench_pairs.summarize(metric, pairs)
    assert out["pairs"] == 5
    assert out["change_wins"] == wins          # the tie counts for neither side
    assert out["parent"]["median"] == 11.0 and out["change"]["median"] == 12.0
    assert out["median_gap"] == gap
    assert out["parent_iqr"] == out["parent"]["q3"] - out["parent"]["q1"]
    assert out["within_bound"]


def test_bound_and_missing_runs():
    metric = {"name": "m", "unit": "u", "better": "lower", "bound": 0.25}
    pairs = [(_run(m=1.0), _run(m=1.3)), (_run(m=1.0), _run()), (_run(m=1.0), _run(m=1.3))]
    out = bench_pairs.summarize(metric, pairs)
    assert out["pairs"] == 3                   # a failed run keeps its pair
    assert out["change"]["runs"] == [1.3, 1.3]
    assert not out["within_bound"]             # 30% worse against a 25% bound


def test_wins_count_out_of_every_pair_run():
    metric = {"name": "m", "unit": "u", "better": "higher", "bound": 0.25}
    pairs = [(_run(m=1.0), _run(m=2.0))] * 8 + [
        (_run(m=1.0), _run()),                 # the change failed: a loss
        (_run(), _run()),                      # both failed: neither side
        (_run(), _run(m=2.0)),                 # the parent alone failed: no win
    ]
    out = bench_pairs.summarize(metric, pairs)
    assert (out["pairs"], out["change_wins"]) == (11, 8)


def _line(attempted, failed, error=False):
    run = {"line": {"attempted": attempted, "failed": failed, "metrics": {}}}
    if error:
        run["error"] = "timed out"
    return run


def test_failures_flag_a_change_that_fails_more():
    even = [(_line(10, 0), _line(12, 0)), (_line(10, 1), _line(12, 1))]
    out = bench_pairs.failures(even)
    assert out["failed_total"] == {"parent": 1, "change": 1}
    assert not out["change_fails_more"]
    out = bench_pairs.failures(even + [(_line(10, 0), _line(12, 2))])
    assert out["failed_total"] == {"parent": 1, "change": 3}
    assert out["change_fails_more"]
    out = bench_pairs.failures(even + [(_line(10, 0), _line(0, None, error=True))])
    assert out["runs_lost"] == {"parent": 0, "change": 1}
    assert out["errors"] == ["timed out"]
    assert out["change_fails_more"]
