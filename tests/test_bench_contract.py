"""The names that bench/tracer.py meters or reads must exist in the library.

The tracer reads a name it does not find as an empty aggregate, so a renamed
function would silently drop out of a per-layer metric instead of failing.
"""
import importlib.util
import inspect
from pathlib import Path

import pytest

from xaimeta import consistency, estimators, explain, net, perturb, report, runner, stats

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
