"""High-level procedures behind the command-line verbs.

Materializes a RunConfig into datasets, models and a BenchmarkSetup, and
implements the benchmark, sanity-check, hyperparameter-search, category-
convergence and training procedures on top of the consistency engine.
"""
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import stats
from .consistency import BenchmarkSetup, evaluate_cell, run_meta_evaluation
from .dataio import Dataset, load_idx, make_masks, save_model, synth_blobs
from .dataio import load_model as load_model_file
from .errors import ConfigError
from .estimators import ESTIMATORS, EstimatorConfig
from .explain import build_explainer
from .net import accuracy, train_tiny
from .perturb import perturb_spec
from .report import mc_bar, write_report
from .runconfig import RunConfig, config_to_tables
from .seeding import derive_rng, derive_seed

SANITY_MIN_SAMPLES = 256  # the dataset size the tolerance windows are calibrated for
SANITY_METHODS = ("synthetic_flat", "synthetic_input", "synthetic_negative", "synthetic_noise")
SANITY_EXPECTATIONS = {
    # documented tolerances for the adversarial sanity rows
    "adversarial_deterministic": {
        "iac_nr": (1.0, 1.0),
        "iac_ar": (0.0, 0.0),
        "iec_nr": (1.0, 1.0),
        "iec_ar": (0.0, 0.0),
    },
    "adversarial_distribution_shift": {
        "iac_nr": (0.0, 0.05),
        "iac_ar": (0.95, 1.0),
        "iec_nr": (0.23, 0.27),
        "iec_ar": (0.0, 0.0),
    },
}


def log(message):
    print(message, file=sys.stderr)


def _given(table: dict, **keys) -> dict:
    """{argument: table[key]} for each of `keys` that the table sets, so an
    unset key keeps the callee's default."""
    return {argument: table[key] for argument, key in keys.items() if key in table}


def build_dataset(config: RunConfig) -> Dataset:
    spec = config.dataset
    kind = spec["kind"]
    if kind == "blobs":
        dataset = synth_blobs(
            n=int(spec.get("samples", 256)),
            d=int(spec.get("features", 8)),
            classes=int(spec.get("classes", 6)),
            seed=int(spec.get("seed", derive_seed(config.master_seed, "dataset"))),
            **_given(spec, spread="spread"),
        )
    elif kind == "idx":
        if "images" not in spec or "labels" not in spec:
            raise ConfigError("[dataset] kind=idx needs images and labels paths")
        dataset = load_idx(spec["images"], spec["labels"])
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")

    n = dataset.inputs.shape[0]
    if config.sample_count is not None and config.sample_count > n:
        raise ConfigError(f"[run] sample_count {config.sample_count} exceeds the dataset's {n} samples")
    if config.sample_count is not None and config.sample_count < n:
        rng = derive_rng(config.master_seed, "subsample")
        keep = np.sort(rng.choice(n, config.sample_count, replace=False))
        dataset = Dataset(dataset.inputs[keep], dataset.labels[keep], dataset.bounds)
    return dataset


def build_net(config: RunConfig, dataset: Dataset):
    spec = config.model
    if "path" in spec:
        net = load_model_file(spec["path"])
        features = dataset.inputs.shape[1]
        if net.input_dim != features:
            raise ConfigError(
                f"[model] path {spec['path']!r} holds a net that takes {net.input_dim} "
                f"features, but the dataset has {features}"
            )
        return net
    hidden = spec.get("hidden", [16])
    if isinstance(hidden, int):
        hidden = [hidden]
    return train_tiny(
        tuple(int(h) for h in hidden),
        dataset.inputs,
        dataset.labels,
        epochs=int(spec.get("epochs", 20)),
        seed=derive_seed(config.master_seed, "train"),
        **_given(spec, learning_rate="learning_rate", momentum="momentum", batch_size="batch_size"),
    )


def _checked_estimators(estimators: list, config: RunConfig, dataset: Dataset) -> list:
    """The [(estimator_id, EstimatorConfig)] pairs, checked against the mask
    policy and the dataset's feature count; callers run this before any
    training."""
    needing = sorted({e for e, _ in estimators if ESTIMATORS[e].needs_mask})
    if config.dataset.get("mask", "none") == "none" and needing:
        raise ConfigError(f"estimators {needing} need [dataset] mask != none")
    for estimator_id, cfg in estimators:
        try:
            cfg.check_features(dataset.inputs.shape[1])
        except ValueError as exc:
            raise ConfigError(f"[estimators.{estimator_id}]: {exc}") from exc
    return estimators


def build_setup(config: RunConfig, dataset: Dataset = None) -> BenchmarkSetup:
    dataset = dataset if dataset is not None else build_dataset(config)
    estimators = _checked_estimators(
        [(e, config.estimator_config(e)) for e in config.estimators], config, dataset
    )
    spec = config.dataset
    policy = spec.get("mask", "none")
    masks = None if policy == "none" else make_masks(
        dataset, policy, **_given(spec, fraction="mask_fraction", quantile="mask_quantile")
    )
    net = build_net(config, dataset)
    methods = []
    for method_id in config.methods:
        explainer_cfg = config.explainer_config(
            method_id, seed=derive_seed(config.master_seed, "explain", method_id)
        )
        if "shap_bounds" not in config.method_overrides.get(method_id, {}):
            explainer_cfg = replace(explainer_cfg, shap_bounds=tuple(dataset.bounds))
        methods.append((method_id, build_explainer(method_id, explainer_cfg)))
    return BenchmarkSetup(
        net=net,
        inputs=dataset.inputs,
        bounds=dataset.bounds,
        methods=methods,
        estimators=estimators,
        tests=list(config.tests),
        K=config.k,
        iterations=config.iterations,
        master_seed=config.master_seed,
        masks=masks,
        perturb_templates={key: perturb_spec(*key, **sub) for key, sub in config.perturb.items()},
    )


def run_benchmark(config: RunConfig, jobs: int = 1, out_dir=None):
    """Full meta-evaluation over the configured estimators; writes reports."""
    if jobs != 1:  # the keyword stays only for bench/run.py, which passes jobs=1
        raise ValueError(f"cells run serially; jobs must be 1, got {jobs}")
    setup = build_setup(config)
    log(
        f"benchmark: {len(setup.estimators)} estimators x {setup.tests} "
        f"on N={setup.inputs.shape[0]}, K={setup.K}, iterations={setup.iterations}"
    )
    results = run_meta_evaluation(setup)
    paths = write_report(
        results,
        config_echo=config_to_tables(config),
        master_seed=config.master_seed,
        out_dir=out_dir or config.output,
    )
    log(f"reports written to {out_dir or config.output}")
    return results, paths


@dataclass
class SanityOutcome:
    rows: list  # per (test, estimator): criteria, bounds, ok
    results: dict
    passed: bool


def run_sanity(config: RunConfig, jobs: int = 1, k: int = 10, iterations: int = 5) -> SanityOutcome:
    """Adversarial-estimator reproduction: the perturbation-blind estimator
    must score exactly [1, 0, 1, 0] and the distribution-shifting one must
    land inside the documented tolerance windows on both tests.

    The tolerance windows are calibrated for SANITY_MIN_SAMPLES evaluation
    samples; synthetic datasets are grown to that size, real ones only
    trigger a warning when smaller.
    """
    if jobs != 1:  # the keyword stays only for bench/run.py, which passes jobs=1
        raise ValueError(f"cells run serially; jobs must be 1, got {jobs}")
    dataset_spec = dict(config.dataset)
    if dataset_spec.get("kind", "blobs") == "blobs":
        dataset_spec["samples"] = max(int(dataset_spec.get("samples", 0)), SANITY_MIN_SAMPLES)
    sanity_config = replace(
        config,
        dataset=dataset_spec,
        sample_count=None,
        methods=list(SANITY_METHODS),
        method_overrides={},
        estimators=list(SANITY_EXPECTATIONS),
        estimator_overrides={},
        tests=["ipt", "mpt"],
        k=k,
        iterations=iterations,
    )
    setup = build_setup(sanity_config)
    if setup.inputs.shape[0] < SANITY_MIN_SAMPLES:
        log(
            f"sanity: only {setup.inputs.shape[0]} samples; the documented "
            f"tolerances presume at least {SANITY_MIN_SAMPLES}"
        )
    log(f"sanity: N={setup.inputs.shape[0]}, K={k}, iterations={iterations}, both tests")
    results = run_meta_evaluation(setup)
    rows = []
    passed = True
    for (estimator_id, test), cell in sorted(results.items()):
        for criterion, (lo, hi) in SANITY_EXPECTATIONS[estimator_id].items():
            value = getattr(cell.mean, criterion)
            ok = lo <= value <= hi
            passed &= ok
            rows.append(
                {
                    "test": test,
                    "estimator": estimator_id,
                    "criterion": criterion,
                    "value": value,
                    "std": cell.std[criterion],
                    "expected": (lo, hi),
                    "ok": ok,
                }
            )
    return SanityOutcome(rows=rows, results=results, passed=passed)


def run_hpo(config: RunConfig):
    """Grid search over estimator-config axes ranked by meta-consistency.

    [hpo] names the estimator and [hpo.axes] the value lists; an `estimator`
    axis may replace the fixed estimator id.  Every cell is scored against
    one setup, which draws and explains each space once for the whole grid,
    so the cells' scores are paired.
    Returns the ranked cells, best first.
    """
    if not config.hpo.get("axes"):
        raise ConfigError("[hpo.axes] must declare at least one axis")
    trials = config.hpo_trials()
    dataset = build_dataset(config)
    checked = []
    for cell, estimator_id, settings in trials:
        try:
            checked += _checked_estimators(
                [(estimator_id, EstimatorConfig(**settings))], config, dataset
            )
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"[hpo] cell {cell}: {exc}") from exc
    setup = build_setup(replace(config, estimators=[]), dataset=dataset)
    ranked = []
    for index, ((cell, _, _), (estimator_id, cfg)) in enumerate(zip(trials, checked)):
        results = {
            (estimator_id, test): evaluate_cell(setup, estimator_id, cfg, test)
            for test in setup.tests
        }
        score = mc_bar(results, estimator_id)
        vectors = {test: results[(estimator_id, test)].mean for test in setup.tests}
        ranked.append({"cell": cell, "mc": score, "vectors": vectors})
        log(f"hpo cell {index + 1}/{len(trials)}: {cell} -> MC {score:.4f}")
    ranked.sort(key=lambda row: (-row["mc"], repr(sorted(row["cell"].items()))))
    return ranked


def run_convergence(config: RunConfig):
    """Correlate the meta-evaluation vectors of every estimator pair and
    compare within-category against cross-category agreement."""
    setup = build_setup(config)
    results = run_meta_evaluation(setup)
    pairs = []
    estimators = list(config.estimators)
    for i, first in enumerate(estimators):
        for second in estimators[i + 1 :]:
            correlations = []
            for test in config.tests:
                v1 = results[(first, test)].mean.entries()
                v2 = results[(second, test)].mean.entries()
                rho = stats.spearman(v1, v2)
                if not np.isnan(rho):
                    correlations.append(rho)
            if not correlations:
                continue
            pairs.append(
                {
                    "pair": (first, second),
                    "correlation": float(np.mean(correlations)),
                    "within_category": ESTIMATORS[first].category == ESTIMATORS[second].category,
                }
            )
    within = [p["correlation"] for p in pairs if p["within_category"]]
    cross = [p["correlation"] for p in pairs if not p["within_category"]]
    return {
        "pairs": pairs,
        "mean_within": float(np.mean(within)) if within else float("nan"),
        "mean_cross": float(np.mean(cross)) if cross else float("nan"),
        "results": results,
    }


def run_train(config: RunConfig):
    """Train the configured model and save it under [run] output; returns
    (path, accuracy)."""
    dataset = build_dataset(config)
    net = build_net(config, dataset)
    os.makedirs(config.output, exist_ok=True)
    path = os.path.join(config.output, "model.txt")
    save_model(net, path, provenance=f"seed={config.master_seed}")
    return path, accuracy(net, dataset.inputs, dataset.labels)
