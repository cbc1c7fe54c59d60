"""The names that bench/tracer.py meters or reads must exist in the library.

The tracer reads a name it does not find as an empty aggregate, so a renamed
function would silently drop out of a per-layer metric instead of failing.
"""
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from xaimeta import consistency, estimators, explain, net, perturb, report, runner, stats
from xaimeta.runconfig import config_from_tables, parse_tables

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer_contract", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def function_of(module, name):
    value = getattr(module, name, None)
    assert inspect.isfunction(value) and value.__module__ == module.__name__, (
        f"{module.__name__}.{name} is not one of its functions"
    )
    return value


def test_the_metered_names_are_library_functions(tracer):
    for module, names in (
        (consistency, tracer.CRITERIA),
        (stats, tracer.STATS),
        (net, tracer.ROW_FUNCTIONS),
    ):
        for name in names:
            function_of(module, name)


def test_the_metered_ids_are_registered(tracer):
    assert set(tracer.ESTIMATORS) <= set(estimators.ESTIMATORS)
    assert set(tracer.EXPLAIN_METHODS) <= set(explain.ALL_METHODS)


@pytest.mark.parametrize(
    "module, name",
    [
        (perturb, "ipt_sample"),
        (perturb, "mpt_sample"),
        (perturb, "collect"),
        (consistency, "evaluate_cell"),
        (runner, "build_setup"),
        (runner, "build_dataset"),
        (runner, "build_net"),
        (estimators, "make_scorer"),
        (report, "write_report"),
    ],
)
def test_the_hooked_functions_exist(module, name):
    function_of(module, name)


def test_collect_takes_scorer_and_spec_by_keyword():
    parameters = inspect.signature(perturb.collect).parameters
    for name in ("scorer", "spec"):
        assert parameters[name].kind is inspect.Parameter.KEYWORD_ONLY


def test_the_positions_the_hooks_read():
    # the tracer reads evaluate_cell's estimator_id and test, and
    # mpt_sample's spec, by position when they are passed positionally
    cell = list(inspect.signature(consistency.evaluate_cell).parameters)
    assert cell[1] == "estimator_id" and cell[3] == "test"
    assert list(inspect.signature(perturb.mpt_sample).parameters)[2] == "spec"


def test_the_tracer_reads_both_sampler_results(tracer):
    # _count_ipt reads a case's .attempts and .compliant, _count_mpt unpacks
    # (net, compliance mask, attempts)
    model, X = net.make_net([net.dense(10.0 * np.eye(3), np.zeros(3))]), np.eye(3)
    counting = tracer.Tracer("contract")
    spec = perturb.perturb_spec("ipt", "minor")
    case = perturb.ipt_sample(model, X[0], spec, 1, (0.0, 1.0), 0)
    assert counting._count_ipt((model, X[0], spec), {}, case) is case
    spec = perturb.perturb_spec("mpt", "minor")
    result = perturb.mpt_sample(model, X, spec, 1, np.arange(3))
    assert counting._count_mpt((model, X, spec), {}, result) is result
    assert dict(counting.counts) == {
        "perturb.payloads": 2,
        "perturb.attempts": case.attempts + result.attempts,
        "perturb.compliant": 2,
    }


SMALL_RUN = """
[dataset]
kind = blobs
samples = 12
features = 4
classes = 3
spread = 0.05

[model]
hidden = [6]
epochs = 20

[run]
tests = [ipt, mpt]
k = 2
iterations = 1

[methods]
use = [gradient, saliency]

[estimators]
use = [sparseness]

[perturb.ipt.disruptive]
alpha = -1.0
beta = 1.0
"""


def test_a_run_explains_through_the_methods_swapped_in_after_build_setup(monkeypatch):
    # the tracer swaps a setup's methods for counting wrappers once
    # build_setup returns, so every explanation, column 0's included, must
    # come after that and through the swapped methods
    made = Counter()  # calls of the explainers build_setup built

    def counting(method_id, explainer):
        def wrapper(net, X, labels):
            made[method_id] += 1
            return explainer(net, X, labels)

        return wrapper

    build = runner.build_explainer
    monkeypatch.setattr(runner, "build_explainer", lambda m, cfg: counting(m, build(m, cfg)))
    setup = runner.build_setup(config_from_tables(parse_tables(SMALL_RUN)))
    assert not made
    swapped = []  # (method_id, X) per call through the swapped methods

    def recording(method_id, explainer):
        def wrapper(net, X, labels):
            swapped.append((method_id, X))
            return explainer(net, X, labels)

        return wrapper

    setup.methods = [(m, recording(m, explainer)) for m, explainer in setup.methods]
    consistency.run_meta_evaluation(setup)
    assert Counter(m for m, _ in swapped) == made
    for method_id, _ in setup.methods:
        assert any(m == method_id and X is setup.inputs for m, X in swapped)
