"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted, that the tracer
puts back every attribute it patched and the speedometer the alarm signal
it used, that the seed commit runs each workload without a failed cell, and
that a broken output is counted as a failure instead of crashing the run.
"""
import json
import signal
import sys
import time
import types
from dataclasses import replace

import pytest

import run
import workloads
from speed import Speedometer
from tracer import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "desk": {
        "methods": ["gradient", "occlusion"],
        "estimators": ["sparseness", "pointing_game", "adversarial_deterministic"],
        "k": 1,
    },
    # N=256 stays: run_sanity grows a smaller synthetic dataset to 256 samples
    "sanity": {},
    "wide": {
        "methods": ["gradient", "saliency"],
        "estimators": ["sparseness", "relevance_mass_accuracy"],
        "k": 1,
    },
}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    for name, overrides in TINY.items():
        workload = workloads.WORKLOADS[name]
        sanity = (1, workload.sanity[1]) if workload.sanity else None
        monkeypatch.setitem(
            workloads.WORKLOADS, name, replace(workload, overrides=overrides, sanity=sanity)
        )


def bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def xaimeta_functions():
    return {
        (module_name, name): value
        for module_name, module in sys.modules.items()
        if module_name == "xaimeta" or module_name.startswith("xaimeta.")
        for name, value in vars(module).items()
        if isinstance(value, types.FunctionType)
    }


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_emitted_and_no_cell_fails(workload, capsys):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0
        named = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    # layers that ran show up in the traced figures
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("net.calls", "explain.calls", "seeding.calls", "perturb.mpt_sample.calls"):
        assert metrics[name] > 0, name
    assert metrics["perturb.ipt_sample.calls"] > 0 or workload == "wide"


def test_tracer_restores_patched_attributes():
    run.load_program()
    from xaimeta import consistency, runner

    before = xaimeta_functions()
    tracer = Tracer(run_id="restore")
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert runner.build_setup is not before[("xaimeta.runner", "build_setup")]
            assert consistency.collect is not before[("xaimeta.consistency", "collect")]
            raise RuntimeError("leave the block early")
    after = xaimeta_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_speedometer_samples_and_restores_the_alarm():
    run.load_program()
    handler = signal.getsignal(signal.SIGALRM)
    with Speedometer().sampling() as samples:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(samples) >= 3 and all(s > 0 for s in samples)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_broken_outputs_count_as_failures(capsys, monkeypatch):
    run.load_program()
    from xaimeta import consistency
    from xaimeta.errors import MetaEvaluationError

    # a criterion that lies breaks the perturbation-blind adversary's [1, 0, 1, 0]
    monkeypatch.setattr(consistency, "iec_minor", lambda *args: 0.5)
    result = bench(capsys, "desk", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 3

    def infeasible(*args, **kwargs):
        raise MetaEvaluationError("no compliant payloads")

    monkeypatch.setattr(consistency, "collect", infeasible)
    result = bench(capsys, "desk", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}

