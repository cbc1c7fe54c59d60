"""Run configuration: a small key/value format with nested tables.

A config file is a sequence of `[table]` / `[table.subtable]` headers with
`key = value` lines; values are integers, floats, booleans, bare or quoted
strings, or flat `[a, b, c]` lists.  `#` outside double quotes starts a
comment.  Parsing is strict: keys set twice in one table, unknown keys and
repeated names or values in a listing are named, and all missing required
keys are reported at once; `--set` overrides replace values from the file.
"""
import math
import re
from dataclasses import dataclass, field, fields
from types import UnionType
from typing import get_args, get_origin

from .dataio import MASK_POLICIES
from .errors import ConfigError
from .estimators import ESTIMATORS, EstimatorConfig
from .explain import ALL_METHODS, ExplainerConfig
from .perturb import DISRUPTIVE, IPT, MINOR, MPT, PerturbSpec, perturb_spec

# --- generic table text format ---------------------------------------------


def _parse_scalar(token: str):
    token = token.strip()
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _parse_value(text: str):
    """A value: a flat `[a, b, c]` list of scalars or one scalar."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return [_parse_scalar(t) for t in inner.split(",")] if inner else []
    return _parse_scalar(text)


def parse_tables(text: str) -> dict:
    """Parse config text into nested dicts keyed by table path."""
    tables: dict = {}
    current = tables
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # the line up to its first `#` outside double quotes
        line = re.match(r'(?:[^"#]|"[^"]*")*', raw).group()
        if raw[len(line) :].startswith('"'):
            raise ConfigError(f"line {lineno}: unclosed quote in {raw.strip()!r}")
        line = line.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = tables
            for part in line[1:-1].strip().split("."):
                if not part:
                    raise ConfigError(f"line {lineno}: empty table name in {raw.strip()!r}")
                current = current.setdefault(part, {})
                if not isinstance(current, dict):
                    raise ConfigError(f"line {lineno}: {part!r} is both key and table")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in current:
            raise ConfigError(f"line {lineno}: {key!r} is set twice in its table")
        current[key] = _parse_value(value)
    return tables


def apply_overrides(tables: dict, assignments) -> dict:
    """Apply repeatable `a.b.key=value` overrides onto parsed tables."""
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r} is not key=value")
        path, _, value = assignment.partition("=")
        parts = [p for p in path.strip().split(".") if p]
        if not parts:
            raise ConfigError(f"override {assignment!r} has an empty key")
        node = tables
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {assignment!r}: {part!r} is not a table")
        node[parts[-1]] = _parse_value(value)
    return tables


# --- the benchmark schema ---------------------------------------------------


def _kind(annotation):
    """The config kind of a dataclass field: `X | None` reads as X, a tuple as a list of numbers."""
    if isinstance(annotation, UnionType):
        annotation = get_args(annotation)[0]
    return list[float] if annotation is tuple else annotation


def _field_kinds(cls, *internal) -> dict:
    return {f.name: _kind(f.type) for f in fields(cls) if f.name not in internal}


EXPLAINER_KEYS = _field_kinds(ExplainerConfig, "seed")
ESTIMATOR_KEYS = _field_kinds(EstimatorConfig)
PERTURB_KEYS = _field_kinds(PerturbSpec, "test", "strength", "seed")
HPO_AXES = {**ESTIMATOR_KEYS, "estimator": str}


def at_least(kind, least):
    """The rule that values of `kind` are >= least (NaN is not)."""
    return (kind, f">= {least}", lambda v: v >= least)


# table -> {key: entry}; an entry is a kind, a (kind, wanted, test) rule whose
# test a value (every entry of a list) passes and NaN fails, or the map of a
# sub-table; a kind is a type (a number takes integers too), `X | Y` or `list[X]`
SCHEMA = {
    "dataset": {
        "kind": str,
        "samples": at_least(int, 2),
        "features": at_least(int, 1),
        "classes": at_least(int, 2),
        "spread": at_least(float, 0),
        "seed": at_least(int, 0),
        "images": str,
        "labels": str,
        "mask": (str, f"one of {', '.join(MASK_POLICIES)}", lambda v: v in MASK_POLICIES),
        "mask_fraction": (float, "in (0, 1]", lambda v: 0 < v <= 1),
        "mask_quantile": (float, "in [0, 1]", lambda v: 0 <= v <= 1),
    },
    "model": {
        "path": str,
        "hidden": at_least(int | list[int], 1),
        "epochs": at_least(int, 0),
        "learning_rate": (float, "finite and > 0", lambda v: 0 < v < math.inf),
        "momentum": (float, "finite in [0, 1)", lambda v: 0 <= v < 1),
        "batch_size": at_least(int, 1),
    },
    "run": {
        "tests": str | list[str],
        "k": at_least(int, 1),
        "iterations": at_least(int, 1),
        "sample_count": at_least(int, 2),
        "master_seed": int,
        "output": str,
    },
    "methods": {"use": list[str], **dict.fromkeys(ALL_METHODS, EXPLAINER_KEYS)},
    "estimators": {"use": list[str], **dict.fromkeys(ESTIMATORS, ESTIMATOR_KEYS)},
    "perturb": dict.fromkeys((IPT, MPT), dict.fromkeys((MINOR, DISRUPTIVE), PERTURB_KEYS)),
    "hpo": {"estimator": str, "axes": dict},
}
TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    dict: "a table",
    list[str]: "a list of strings",
    list[float]: "a list of numbers",
    int | list[int]: "an integer or a list of integers",
    str | list[str]: "a string or a list of strings",
}
REQUIRED = [("dataset", "kind"), ("methods", "use"), ("estimators", "use")]


@dataclass
class RunConfig:
    """A checked run configuration; its defaults are the only [run] defaults."""

    dataset: dict
    model: dict
    methods: list
    method_overrides: dict
    estimators: list
    estimator_overrides: dict
    perturb: dict  # (test, strength) -> dict of overrides
    tests: list = field(default_factory=lambda: [IPT, MPT])
    k: int = 5
    iterations: int = 3
    sample_count: int | None = None
    master_seed: int = 0
    output: str = "out"
    hpo: dict = field(default_factory=dict)

    def estimator_config(self, estimator_id: str) -> EstimatorConfig:
        return EstimatorConfig(**self.estimator_overrides.get(estimator_id, {}))

    def explainer_config(self, method_id: str, seed: int) -> ExplainerConfig:
        kwargs = dict(self.method_overrides.get(method_id, {}))
        if "shap_bounds" in kwargs:
            kwargs["shap_bounds"] = tuple(kwargs["shap_bounds"])
        return ExplainerConfig(seed=seed, **kwargs)

    def hpo_trials(self) -> list:
        """The [hpo] grid as (cell, estimator_id, settings) triples.

        A cell maps each [hpo.axes] axis to one of its values, plus the
        estimator; its settings, the keywords of its EstimatorConfig, are
        that estimator's [estimators.*] table with the cell's axes merged in.
        """
        axes = dict(self.hpo["axes"])
        estimators = axes.pop("estimator", [self.hpo.get("estimator")])
        cells = [{}]
        for axis, values in axes.items():
            cells = [dict(cell, **{axis: value}) for cell in cells for value in values]
        return [
            (dict(cell, estimator=e), e, {**self.estimator_overrides.get(e, {}), **cell})
            for e in estimators
            for cell in cells
        ]


def _reads_as(kind, value) -> bool:
    if isinstance(kind, UnionType):
        return any(_reads_as(k, value) for k in get_args(kind))
    if get_origin(kind) is list:
        return isinstance(value, list) and all(_reads_as(get_args(kind)[0], v) for v in value)
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _check_keys(table: dict, schema: dict, path: str, errors: list):
    """Name the unknown keys of `table`, its values of another kind and those
    that fail their rule (a list with any entry that fails it), descending
    into the sub-tables of `schema`."""
    for key, value in table.items():
        name = f"{path}.{key}" if path else key
        kind = schema.get(key)
        kind, wanted, valid = kind if isinstance(kind, tuple) else (kind, None, None)
        if kind is None and isinstance(value, dict):
            errors.append(f"unknown table [{name}]")
        elif kind is None:
            errors.append(f"unknown key {name}")
        elif isinstance(kind, dict):
            if isinstance(value, dict):
                _check_keys(value, kind, name, errors)
            else:
                errors.append(f"{name} must be a table")
        elif not _reads_as(kind, value):
            errors.append(f"[{path}] {key} must be {TYPE_NAMES[kind]}, got {value!r}")
        elif valid is not None and not all(
            map(valid, value if isinstance(value, list) else [value])
        ):
            entries = " entries" if isinstance(value, list) else ""
            errors.append(f"[{path}] {key}{entries} must be {wanted}, got {value!r}")


def _validate_listing(names, known, where, errors):
    for name in dict.fromkeys(names):
        if name not in known:
            errors.append(f"unknown name {name!r} in {where}")
        if names.count(name) > 1:
            errors.append(f"repeated name {name!r} in {where}")


def _raise_if(errors):
    if errors:
        raise ConfigError("; ".join(errors))


def config_from_tables(tables: dict) -> RunConfig:
    """Validate parsed tables against the schema and build a RunConfig."""
    errors = []
    _check_keys(tables, SCHEMA, "", errors)
    _raise_if(errors)
    missing = [f"[{s}] {k}" for s, k in REQUIRED if k not in tables.get(s, {})]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    methods = dict(tables["methods"])
    estimators = dict(tables["estimators"])
    _validate_listing(methods["use"], ALL_METHODS, "[methods] use", errors)
    _validate_listing(estimators["use"], ESTIMATORS, "[estimators] use", errors)

    run = dict(tables.get("run", {}))
    if "tests" in run:
        tests = [run["tests"]] if isinstance(run["tests"], str) else list(run["tests"])
        run["tests"] = [IPT, MPT] if tests == ["both"] else tests
        if not tests:
            errors.append("[run] tests must name at least one test")
        _validate_listing(run["tests"], (IPT, MPT), "[run] tests", errors)

    hpo = dict(tables.get("hpo", {}))
    axes = hpo.get("axes", {})
    for axis, values in axes.items():
        if axis not in HPO_AXES:
            errors.append(f"[hpo.axes] {axis!r} is not an estimator setting")
        elif not isinstance(values, list) or not values:
            errors.append(f"[hpo.axes] {axis} must be a non-empty list")
        else:
            for value in values:
                _check_keys({axis: value}, HPO_AXES, "hpo.axes", errors)
            # a repeated estimator is named by the [hpo] listing check below
            for value in dict.fromkeys(values) if axis != "estimator" else ():
                if values.count(value) > 1:
                    errors.append(f"repeated value {value!r} in [hpo.axes] {axis}")
    if axes:
        searched = axes.get("estimator", [hpo["estimator"]] if "estimator" in hpo else None)
        if searched is None:
            errors.append("[hpo] estimator is required unless [hpo.axes] has one")
        elif isinstance(searched, list):
            _validate_listing(searched, ESTIMATORS, "[hpo]", errors)
    _raise_if(errors)

    config = RunConfig(
        dataset=dict(tables["dataset"]),
        model=dict(tables.get("model", {})),
        methods=list(methods.pop("use")),
        method_overrides=methods,
        estimators=list(estimators.pop("use")),
        estimator_overrides=estimators,
        perturb={
            (test, strength): sub
            for test, strengths in tables.get("perturb", {}).items()
            for strength, sub in strengths.items()
        },
        hpo=hpo,
        **run,
    )
    if len(config.methods) < 2:
        raise ConfigError("[methods] use must list at least two methods")
    if not config.estimators:
        raise ConfigError("[estimators] use must list at least one estimator")
    # constructing the per-method/estimator configs (of every id listed or
    # given a table) and the perturbation specs surfaces bad values as
    # configuration errors, before any work
    try:
        for method_id in dict.fromkeys([*config.methods, *config.method_overrides]):
            where = f"[methods.{method_id}]"
            config.explainer_config(method_id, seed=0)
        for estimator_id in dict.fromkeys([*config.estimators, *config.estimator_overrides]):
            where = f"[estimators.{estimator_id}]"
            config.estimator_config(estimator_id)
        for (test, strength), sub in config.perturb.items():
            where = f"[perturb.{test}.{strength}]"
            perturb_spec(test, strength, **sub)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return config


def config_to_tables(config: RunConfig) -> dict:
    tables: dict = {"dataset": dict(config.dataset)}
    if config.model:
        tables["model"] = dict(config.model)
    run: dict = {
        "tests": list(config.tests),
        "k": config.k,
        "iterations": config.iterations,
        "master_seed": config.master_seed,
        "output": config.output,
    }
    if config.sample_count is not None:
        run["sample_count"] = config.sample_count
    tables["run"] = run
    tables["methods"] = {"use": list(config.methods), **config.method_overrides}
    tables["estimators"] = {"use": list(config.estimators), **config.estimator_overrides}
    if config.perturb:
        perturb: dict = {}
        for (test, strength), sub in config.perturb.items():
            perturb.setdefault(test, {})[strength] = dict(sub)
        tables["perturb"] = perturb
    if config.hpo:
        tables["hpo"] = dict(config.hpo)
    return tables


def load_config(path, overrides=()) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        tables = parse_tables(handle.read())
    if overrides:
        apply_overrides(tables, overrides)
    return config_from_tables(tables)
