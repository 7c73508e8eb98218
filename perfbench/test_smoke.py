"""Smoke test of the benchmark on a tiny site (about a minute):

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json

import pytest

import run
import tracing

TINY = run.Budget(train_size=24, map_size=32, max_train_per_class=20, rnn_epochs=2,
                  ffn_epochs=2, quality_floors=False)
SPEC = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_named_metric_is_emitted(workload, trace, tmp_path):
    result = run.measure(workload, 3, 0.0, trace, TINY, tmp_path)
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["run"]["failures"]
    assert result["run"]["missing_targets"] == []


def test_forced_check_failure_raises_failed_ratio(monkeypatch, tmp_path):
    cli = run.load_cli()
    real_main = cli.main

    def assess_fails(argv):
        return 3 if argv[0] == "assess" else real_main(argv)

    monkeypatch.setattr(cli, "main", assess_fails)
    result = run.measure("classify-map", 3, 0.0, False, TINY, tmp_path)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_missing_target_is_reported_not_raised(monkeypatch):
    run.load_cli()
    from pbrnn import optimizer, recurrent_nets

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("optimizer.gone", "optimizer", "no_such_function", None),
        ("nowhere.gone", "no_such_module", "anything", None)))
    original = vars(recurrent_nets.LstmParams)["from_flat"]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert optimizer.adam_update is not tracer  # installed without raising
    assert tracer.missing == ["pbrnn.optimizer.no_such_function",
                              "pbrnn.no_such_module.anything"]
    assert vars(recurrent_nets.LstmParams)["from_flat"] is original


def test_wrappers_reach_classmethods_and_imported_bindings():
    run.load_cli()
    import numpy as np
    from pbrnn import core_math, recurrent_nets

    params = recurrent_nets.init_lstm_params(3, 2, 2, core_math.make_rng(0))
    tracer = tracing.Tracer()
    with tracer.installed():
        flat = params.to_flat()
        recurrent_nets.LstmParams.from_flat(flat, 3, 2, 2)
        recurrent_nets.forward_batch(params, np.zeros((4, 5, 3)))
    assert recurrent_nets.sigmoid is core_math.sigmoid
    summary = tracer.summary()
    assert summary["optimizer.param_flatten"]["calls"] == 2
    assert summary["recurrent_nets._step_kernel"]["calls"] == 5
    assert summary["core_math.sigmoid"]["calls"] == 5
    assert tracer.counts["sigmoid_elements"] == 5 * 4 * 3 * 2
    forward = summary["recurrent_nets.forward_batch"]
    assert 0 < forward["self_s"] < forward["s"]
