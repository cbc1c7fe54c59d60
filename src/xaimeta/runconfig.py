"""Run configuration: a small key/value format with nested tables.

A config file is a sequence of `[table]` / `[table.subtable]` headers with
`key = value` lines; values are integers, floats, booleans, bare or quoted
strings, or flat `[a, b, c]` lists.  `#` starts a comment.  Parsing is
strict: unknown keys are named, all missing required keys are reported at
once, and load -> serialize -> load is the identity.
"""
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .estimators import ESTIMATORS, EstimatorConfig
from .explain import ALL_METHODS, ExplainerConfig
from .perturb import DEFAULT_WINDOWS, PerturbSpec, perturb_spec

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
    return f'"{text}"' if (" " in text or "," in text or text == "") else text


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

# key -> type of its value; a float key takes integers too, and (int,) is
# one integer or a list of them
DATASET_KEYS = {
    "kind": str,
    "samples": int,
    "features": int,
    "classes": int,
    "spread": float,
    "seed": int,
    "images": str,
    "labels": str,
    "mask": str,
    "mask_fraction": float,
    "mask_quantile": float,
}
MODEL_KEYS = {
    "path": str,
    "hidden": (int,),
    "epochs": int,
    "learning_rate": float,
    "momentum": float,
    "batch_size": int,
}
# the least value a synthetic dataset can be built and meta-evaluated with
DATASET_MINIMUMS = {"samples": 2, "features": 1, "classes": 2}
TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    (int,): "an integer or a list of integers",
}

RUN_KEYS = {"tests", "k", "iterations", "sample_count", "master_seed", "output"}
PERTURB_KEYS = set(PerturbSpec.__dataclass_fields__) - {"test", "strength", "seed"}
HPO_KEYS = {"estimator", "axes"}

EXPLAINER_FIELDS = set(ExplainerConfig.__dataclass_fields__) - {"seed"}
ESTIMATOR_FIELDS = set(EstimatorConfig.__dataclass_fields__)

REQUIRED = [("dataset", "kind"), ("methods", "use"), ("estimators", "use")]


@dataclass
class RunConfig:
    dataset: dict
    model: dict
    methods: list
    method_overrides: dict
    estimators: list
    estimator_overrides: dict
    tests: list
    perturb: dict  # (test, strength) -> dict of overrides
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
    if isinstance(kind, tuple):
        values = value if isinstance(value, list) else [value]
        return all(_reads_as(kind[0], v) for v in values)
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _check_keys(table: dict, allowed, where: str, errors: list):
    """Name unknown keys and, where `allowed` maps keys to types, values of another type."""
    for key, value in table.items():
        if key not in allowed:
            errors.append(f"unknown key {where}.{key}")
        elif isinstance(allowed, dict) and not _reads_as(allowed[key], value):
            errors.append(f"[{where}] {key} must be {TYPE_NAMES[allowed[key]]}, got {value!r}")


def _validate_listing(names, known, where, errors):
    for name in names:
        if name not in known:
            errors.append(f"unknown name {name!r} in {where}")


def config_from_tables(tables: dict) -> RunConfig:
    """Validate parsed tables against the schema and build a RunConfig."""
    errors = []
    known_sections = {
        "dataset",
        "model",
        "run",
        "methods",
        "estimators",
        "perturb",
        "hpo",
        "convergence",
    }
    for section in tables:
        if section not in known_sections:
            errors.append(f"unknown table [{section}]")

    missing = [f"[{s}] {k}" for s, k in REQUIRED if k not in tables.get(s, {})]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    dataset = dict(tables.get("dataset", {}))
    _check_keys(dataset, DATASET_KEYS, "dataset", errors)
    for key, least in DATASET_MINIMUMS.items():
        value = dataset.get(key)
        if _reads_as(int, value) and value < least:
            errors.append(f"[dataset] {key} must be >= {least}, got {value!r}")

    model = dict(tables.get("model", {}))
    _check_keys(model, MODEL_KEYS, "model", errors)

    methods_table = dict(tables.get("methods", {}))
    methods = list(methods_table.pop("use", []))
    method_overrides = {}
    for name, sub in list(methods_table.items()):
        if not isinstance(sub, dict):
            errors.append(f"unknown key methods.{name}")
            continue
        _check_keys(sub, EXPLAINER_FIELDS, f"methods.{name}", errors)
        method_overrides[name] = sub
    _validate_listing(methods, ALL_METHODS, "[methods] use", errors)
    _validate_listing(method_overrides, ALL_METHODS, "[methods.*]", errors)

    estimators_table = dict(tables.get("estimators", {}))
    estimators = list(estimators_table.pop("use", []))
    estimator_overrides = {}
    for name, sub in list(estimators_table.items()):
        if not isinstance(sub, dict):
            errors.append(f"unknown key estimators.{name}")
            continue
        _check_keys(sub, ESTIMATOR_FIELDS, f"estimators.{name}", errors)
        estimator_overrides[name] = sub
    _validate_listing(estimators, ESTIMATORS, "[estimators] use", errors)
    _validate_listing(estimator_overrides, ESTIMATORS, "[estimators.*]", errors)

    run = dict(tables.get("run", {}))
    _check_keys(run, RUN_KEYS, "run", errors)
    for key in ("k", "iterations", "sample_count", "master_seed"):
        if key in run and (not isinstance(run[key], int) or isinstance(run[key], bool)):
            errors.append(f"[run] {key} must be an integer, got {run[key]!r}")
    tests = run.get("tests", ["ipt", "mpt"])
    if isinstance(tests, str):
        tests = [tests]
    if tests == ["both"]:
        tests = ["ipt", "mpt"]
    if not tests:
        errors.append("[run] tests must name at least one test")
    for test in tests:
        if test not in ("ipt", "mpt"):
            errors.append(f"unknown test {test!r} in [run] tests")

    perturb = {}
    for test_name, strengths in tables.get("perturb", {}).items():
        if not isinstance(strengths, dict):
            errors.append(f"unknown key perturb.{test_name}")
            continue
        for strength, sub in strengths.items():
            if (test_name, strength) not in DEFAULT_WINDOWS or not isinstance(sub, dict):
                errors.append(f"unknown table [perturb.{test_name}.{strength}]")
                continue
            _check_keys(sub, PERTURB_KEYS, f"perturb.{test_name}.{strength}", errors)
            perturb[(test_name, strength)] = sub

    _check_keys(tables.get("convergence", {}), set(), "convergence", errors)

    hpo = dict(tables.get("hpo", {}))
    _check_keys(hpo, HPO_KEYS, "hpo", errors)
    axes = hpo.get("axes", {})
    if not isinstance(axes, dict):
        errors.append("hpo.axes must be a table")
    elif axes:
        for axis, values in axes.items():
            if axis not in ESTIMATOR_FIELDS | {"estimator"}:
                errors.append(f"[hpo.axes] {axis!r} is not an estimator setting")
            elif not isinstance(values, list) or not values:
                errors.append(f"[hpo.axes] {axis} must be a non-empty list")
        searched = axes.get("estimator", [hpo["estimator"]] if "estimator" in hpo else None)
        if searched is None:
            errors.append("[hpo] estimator is required unless [hpo.axes] has one")
        elif isinstance(searched, list):
            _validate_listing(searched, ESTIMATORS, "[hpo]", errors)

    if errors:
        raise ConfigError("; ".join(errors))

    config = RunConfig(
        dataset=dataset,
        model=model,
        methods=methods,
        method_overrides=method_overrides,
        estimators=estimators,
        estimator_overrides=estimator_overrides,
        tests=list(tests),
        perturb=perturb,
        k=run.get("k", 5),
        iterations=run.get("iterations", 3),
        sample_count=run.get("sample_count"),
        master_seed=run.get("master_seed", 0),
        output=str(run.get("output", "out")),
        hpo=hpo,
    )
    if config.k < 1 or config.iterations < 1:
        raise ConfigError("[run] k and iterations must be >= 1")
    if config.sample_count is not None and config.sample_count < 2:
        raise ConfigError("[run] sample_count must be >= 2")
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
