"""Run configuration: a small key/value format with nested tables.

A config file is a sequence of `[table]` / `[table.subtable]` headers with
`key = value` lines; values are integers, floats, booleans, bare or quoted
strings, or flat `[a, b, c]` lists.  `#` starts a comment.  Parsing is
strict: unknown keys are named, all missing required keys are reported at
once, and load -> serialize -> load is the identity.
"""
from dataclasses import dataclass, field, fields, replace
from types import UnionType
from typing import get_args, get_origin

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


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value)
    quoted = " " in text or "," in text or text == "" or _parse_scalar(text) != text
    return f'"{text}"' if quoted else text


def parse_tables(text: str) -> dict:
    """Parse config text into nested dicts keyed by table path."""
    tables: dict = {}
    current = tables
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
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
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if value.startswith("[") and value.endswith("]"):
            inner = value[1:-1].strip()
            current[key] = [_parse_scalar(t) for t in inner.split(",")] if inner else []
        else:
            current[key] = _parse_scalar(value)
    return tables


def serialize_tables(tables: dict) -> str:
    lines = []

    def emit(table, path):
        scalars = {k: v for k, v in table.items() if not isinstance(v, dict)}
        children = {k: v for k, v in table.items() if isinstance(v, dict)}
        if path:
            lines.append(f"[{'.'.join(path)}]")
        for key, value in scalars.items():
            if isinstance(value, list):
                lines.append(f"{key} = [{', '.join(_format_scalar(v) for v in value)}]")
            else:
                lines.append(f"{key} = {_format_scalar(value)}")
        if scalars or not path:
            lines.append("")
        for key, child in children.items():
            emit(child, path + [key])

    emit(tables, [])
    return "\n".join(lines).rstrip("\n") + "\n"


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
        value = value.strip()
        if value.startswith("[") and value.endswith("]"):
            inner = value[1:-1].strip()
            node[parts[-1]] = [_parse_scalar(t) for t in inner.split(",")] if inner else []
        else:
            node[parts[-1]] = _parse_scalar(value)
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

# table -> {key: kind}; a kind is a type (a number takes integers too),
# `X | Y`, `list[X]`, a (kind, least value) pair, or the map of a sub-table
SCHEMA = {
    "dataset": {
        "kind": str,
        "samples": (int, 2),
        "features": (int, 1),
        "classes": (int, 2),
        "spread": float,
        "seed": int,
        "images": str,
        "labels": str,
        "mask": str,
        "mask_fraction": float,
        "mask_quantile": float,
    },
    "model": {
        "path": str,
        "hidden": int | list[int],
        "epochs": int,
        "learning_rate": float,
        "momentum": float,
        "batch_size": int,
    },
    "run": {
        "tests": str | list[str],
        "k": (int, 1),
        "iterations": (int, 1),
        "sample_count": (int, 2),
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
        """The [hpo] grid as (cell, RunConfig of that cell's one estimator) pairs.

        A cell maps each [hpo.axes] axis to one of its values, plus the
        estimator; the trial merges the cell into that estimator's settings.
        """
        axes = dict(self.hpo["axes"])
        estimators = axes.pop("estimator", [self.hpo.get("estimator")])
        cells = [{}]
        for axis, values in axes.items():
            cells = [dict(cell, **{axis: value}) for cell in cells for value in values]
        trials = []
        for estimator in estimators:
            settings = self.estimator_overrides.get(estimator, {})
            for cell in cells:
                trial = replace(
                    self,
                    estimators=[estimator],
                    estimator_overrides={estimator: {**settings, **cell}},
                )
                trials.append((dict(cell, estimator=estimator), trial))
        return trials


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
    below their least value, descending into the sub-tables of `schema`."""
    for key, value in table.items():
        name = f"{path}.{key}" if path else key
        kind = schema.get(key)
        kind, least = kind if isinstance(kind, tuple) else (kind, None)
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
        elif least is not None and value < least:
            errors.append(f"[{path}] {key} must be >= {least}, got {value!r}")


def _validate_listing(names, known, where, errors):
    for name in names:
        if name not in known:
            errors.append(f"unknown name {name!r} in {where}")


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
    # constructing the per-method/estimator configs and the perturbation
    # specs surfaces bad values as configuration errors, before any work
    try:
        for method_id in config.methods:
            where = f"[methods.{method_id}]"
            config.explainer_config(method_id, seed=0)
        for estimator_id in config.estimators:
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
