"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run emits every metric of BENCHMARK.json with its unit,
that the traced run removes its wrappers again, and that a non-finite
input is counted as a failed operation rather than crashing the harness.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import workloads as wl  # noqa: E402

sys.path.insert(0, wl.SRC)

import numpy as np  # noqa: E402

from tracing import FUNCTION_TARGETS, OP_KINDS  # noqa: E402

TINY = {"probes": 1, "min_steps": 1, "min_chains": 1, "max_chains": 2, "generate_calls": 2,
        "evaluate_calls": 3, "traced_evaluate_calls": 2, "traced_epochs": 2}

with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _units(line):
    return {name: m["unit"] for name, m in line["metrics"].items()}


def _wrapped_targets():
    """(owner, attribute) -> current object, for everything the tracer wraps."""
    import marketgan
    import marketgan.cli  # noqa: F401
    out = {}
    for fn in (f for fns in OP_KINDS.values() for f in fns):
        out[("autodiff", fn)] = getattr(marketgan.autodiff, fn)
    for module, path in FUNCTION_TARGETS:
        owner = getattr(marketgan, module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out[(module, path)] = getattr(owner, attr)
    return out


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    record = run.run(workload, seed=1, seconds=0.2, trace=False, sizes=TINY)
    line = record["line"]
    assert line["correct"] and line["failed"] == 0, record["problems"]
    assert line["attempted"] >= 1
    assert _units(line) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric_and_unwraps(workload):
    before = _wrapped_targets()
    record = run.run(workload, seed=1, seconds=0.2, trace=True, sizes=TINY)
    line = record["line"]
    assert line["correct"] and line["failed"] == 0, record["problems"]
    assert _units(line) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    after = _wrapped_targets()
    assert after == before
    assert not [k for k, v in after.items() if getattr(v, "__perfbench_wrapper__", False)]


def test_non_finite_input_counts_as_a_failure():
    from marketgan import market_data
    ledger = wl.Ledger()
    candidate = np.random.default_rng(0).normal(0.0, 0.01, 600)
    candidate[17] = np.nan
    times = wl.measure_evaluate(candidate, np.ones(600), ledger, calls=3)
    assert times == [] and (ledger.attempted, ledger.failed) == (3, 3)

    w = wl.WORKLOADS["toy-mlp"]
    values = np.random.default_rng(1).normal(0.0, 1.0, 400)
    values[5] = np.inf
    dataset = market_data.normalize_and_window(values, w.seq_len, w.stride)
    ledger = wl.Ledger()
    trainer = wl.Trainer(w, 1, dataset, ledger)
    assert trainer.run_epoch() is False and trainer.state is None
    assert ledger.failed == 1 and "train" in ledger.problems[0]


def test_benchmark_json_matches_the_harness():
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCH["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)
    assert [w["why"] for w in BENCH["workloads"]] == [w.why for w in wl.WORKLOADS.values()]
