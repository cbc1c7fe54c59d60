"""Consistency criteria and the meta-evaluation orchestrator.

Intra-consistency (IAC) is the mean Wilcoxon signed-rank p-value between
unperturbed and perturbed score sets: high under minor noise means the
estimator is resilient, low under disruption means it reacts.  Inter-
consistency (IEC) checks ranking behaviour across explanation methods:
under minor noise the method ranking should be preserved, under disruption
the unperturbed score should strictly beat the perturbed one (with the
comparison inverted for lower-is-better estimators).  The four criteria,
with the adversarial-reactivity IAC reverse-scored so that higher is always
better, average into one meta-consistency (MC) score.
"""
from dataclasses import dataclass, field, replace

import numpy as np

from . import stats
from .errors import MetaEvaluationError
from .estimators import LOWER_BETTER, EstimatorConfig, make_scorer
from .net import Net
from .perturb import (
    DEFAULT_WINDOWS,
    DISRUPTIVE,
    IPT,
    MINOR,
    MPT,
    CollectResult,
    PerturbedSpaces,
    collect,
    perturb_spec,
)
from .seeding import derive_seed

CRITERIA = ("iac_nr", "iac_ar", "iec_nr", "iec_ar")


@dataclass(frozen=True)
class MetaVector:
    """One meta-evaluation outcome; iac_ar is stored reverse-scored."""

    iac_nr: float
    iac_ar: float
    iec_nr: float
    iec_ar: float
    mc: float

    def entries(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in CRITERIA])


def meta_vector(iac_nr, iac_ar_raw, iec_nr, iec_ar) -> MetaVector:
    """Assemble the 4-entry record; the AR p-value enters as 1 - p."""
    entries = [float(iac_nr), 1.0 - float(iac_ar_raw), float(iec_nr), float(iec_ar)]
    for value in entries:
        if not -1e-12 <= value <= 1 + 1e-12:
            raise MetaEvaluationError(f"criterion outside [0, 1]: {entries}")
    return MetaVector(*entries, mc=float(np.mean(entries)))


def iac(unperturbed, perturbed) -> float:
    """Mean two-sided Wilcoxon p-value between the unperturbed scores and
    each perturbed column, over the pairs where both scores are finite.

    Columns with fewer than two usable pairs are skipped; if every column is
    degenerate the criterion is undefined and the run errors out.
    """
    unperturbed = np.asarray(unperturbed, dtype=np.float64)
    perturbed = np.asarray(perturbed, dtype=np.float64)
    usable = np.isfinite(perturbed) & np.isfinite(unperturbed)[:, None]
    ps = []
    for k in range(perturbed.shape[1]):
        pairs = usable[:, k]
        if pairs.sum() < 2:
            continue
        ps.append(stats.wilcoxon_signed_rank(unperturbed[pairs], perturbed[pairs, k]))
    if not ps:
        raise MetaEvaluationError("every perturbed column is degenerate; IAC undefined")
    return float(np.mean(ps))


def iec_minor(qbar, qbar_m) -> float:
    """Fraction of method ranks preserved between the unperturbed and
    minor-perturbed score matrices, row by row."""
    qbar = np.asarray(qbar, dtype=np.float64)
    qbar_m = np.asarray(qbar_m, dtype=np.float64)
    if qbar.shape != qbar_m.shape or qbar.ndim != 2 or qbar.shape[1] < 2:
        raise ValueError("IEC needs matching (N, L) matrices with L >= 2")
    agree = int(np.sum(stats.rank_descending(qbar) == stats.rank_descending(qbar_m)))
    return agree / qbar.size


def iec_disruptive(qbar, qbar_d, lower_better: bool = False) -> float:
    """Fraction of entries where the unperturbed score strictly beats the
    disruptively perturbed one; ties score zero.  For lower-is-better
    estimators the comparison is inverted."""
    qbar = np.asarray(qbar, dtype=np.float64)
    qbar_d = np.asarray(qbar_d, dtype=np.float64)
    if qbar.shape != qbar_d.shape or qbar.ndim != 2:
        raise ValueError("IEC needs matching (N, L) matrices")
    wins = (qbar_d > qbar) if lower_better else (qbar_d < qbar)
    return float(wins.mean())


def ranking_matrices(result: CollectResult):
    """Per-sample method-score matrices (Qbar, Qbar') from a collect run.

    Perturbed scores are averaged over retained draws; samples without a
    full row across methods (dropped) are excluded from both matrices.
    """
    matrices = list(result.per_method.values())
    dropped = set(result.dropped)
    keep = [i for i in range(matrices[0].unperturbed.size) if i not in dropped]
    qbar = np.empty((len(keep), len(matrices)))
    qbar_prime = np.empty_like(qbar)
    for j, matrix in enumerate(matrices):
        qbar[:, j] = matrix.unperturbed[keep]
        draws = matrix.perturbed[keep]
        retained = np.isfinite(draws)
        means = stats.masked_row_sums(draws, retained) / retained.sum(axis=1)
        # the mean of identical draws is that value exactly; bypassing
        # the float division keeps strict tie comparisons honest
        first = draws[np.arange(len(keep)), np.argmax(retained, axis=1)]
        identical = ((draws == first[:, None]) | ~retained).all(axis=1)
        qbar_prime[:, j] = np.where(identical, first, means)
    return qbar, qbar_prime


def iac_over_methods(result: CollectResult) -> float:
    return float(np.mean([iac(m.unperturbed, m.perturbed) for m in result.per_method.values()]))


@dataclass
class BenchmarkSetup:
    """Materialized inputs of a meta-evaluation run."""

    net: Net
    inputs: np.ndarray
    bounds: tuple
    methods: list  # [(method_id, explainer), ...]
    estimators: list  # [(estimator_id, EstimatorConfig), ...]
    tests: list  # subset of {"ipt", "mpt"}
    K: int = 5
    iterations: int = 3
    master_seed: int = 0
    dataset_mean: float | None = None
    masks: np.ndarray | None = None
    # (test, strength) -> PerturbSpec; missing keys get perturb_spec's defaults
    perturb_templates: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.methods) < 2:
            raise MetaEvaluationError("the ranking criterion needs at least two methods")
        if self.K < 1 or self.iterations < 1:
            raise MetaEvaluationError("K and iterations must be >= 1")
        for test in self.tests:
            if test not in (IPT, MPT):
                raise MetaEvaluationError(f"unknown test type {test!r}")
        self.perturb_templates = {
            **{key: perturb_spec(*key) for key in DEFAULT_WINDOWS},
            **self.perturb_templates,
        }

    def perturbed_spaces(self) -> PerturbedSpaces:
        """Fresh perturbed spaces over these inputs; one serves one run."""
        return PerturbedSpaces(
            self.net,
            self.inputs,
            self.methods,
            self.K,
            self.bounds,
            dataset_mean=self.dataset_mean,
            masks=self.masks,
        )


@dataclass
class CellResult:
    """Aggregated outcome of one estimator x test cell."""

    estimator_id: str
    test: str
    mean: MetaVector
    std: dict  # per criterion and mc
    per_iteration: list
    diagnostics: dict


def evaluate_cell(
    setup: BenchmarkSetup, estimator_id: str, cfg, test: str, spaces: PerturbedSpaces | None = None
) -> CellResult:
    """Run `iterations` independent repetitions of one estimator x test.

    The payloads of iteration i at one strength come from the seed
    (master_seed, test, i, strength) alone, and `spaces` (the run's, or a
    fresh `setup.perturbed_spaces()`) draws and explains them once for every
    cell that scores them.
    """
    if spaces is None:
        spaces = setup.perturbed_spaces()
    vectors = []
    diagnostics = {"dropped": [], "undefined": [], "total": [], "mean_attempts": []}
    for iteration in range(setup.iterations):
        scorer = make_scorer(estimator_id, cfg)
        collects = {}
        for strength in (MINOR, DISRUPTIVE):
            spec = replace(
                setup.perturb_templates[(test, strength)],
                seed=derive_seed(setup.master_seed, test, iteration, strength),
            )
            collects[strength] = collect(spaces, scorer=scorer, spec=spec)
        iac_nr = iac_over_methods(collects[MINOR])
        iac_ar_raw = iac_over_methods(collects[DISRUPTIVE])
        qbar_nr, qbar_m = ranking_matrices(collects[MINOR])
        qbar_ar, qbar_d = ranking_matrices(collects[DISRUPTIVE])
        vectors.append(
            meta_vector(
                iac_nr,
                iac_ar_raw,
                iec_minor(qbar_nr, qbar_m),
                iec_disruptive(qbar_ar, qbar_d, scorer.direction == LOWER_BETTER),
            )
        )
        for strength in (MINOR, DISRUPTIVE):
            r = collects[strength]
            diagnostics["dropped"].append(len(r.dropped))
            diagnostics["undefined"].append(r.undefined_count)
            diagnostics["total"].append(r.total_count)
            diagnostics["mean_attempts"].append(r.mean_attempts)
    return CellResult(
        estimator_id=estimator_id,
        test=test,
        mean=_mean_vector(vectors),
        std=_std_entries(vectors),
        per_iteration=vectors,
        diagnostics=diagnostics,
    )


def _mean_vector(vectors) -> MetaVector:
    entries = np.array([v.entries() for v in vectors])
    means = entries.mean(axis=0)
    return MetaVector(
        *(float(v) for v in means),
        mc=float(np.mean([v.mc for v in vectors])),
    )


def _std_entries(vectors) -> dict:
    """Per-criterion and MC standard deviation over iterations (0.0 for one)."""
    ddof = 1 if len(vectors) > 1 else 0
    stds = np.array([v.entries() for v in vectors]).std(axis=0, ddof=ddof)
    mc = np.std([v.mc for v in vectors], ddof=ddof)
    return {**dict(zip(CRITERIA, map(float, stds))), "mc": float(mc)}


def run_meta_evaluation(setup: BenchmarkSetup) -> dict:
    """Evaluate every estimator x test cell, keyed (estimator_id, test).

    Payloads come from (master_seed, test, iteration, strength) only, and
    every cell scores the same perturbed spaces, drawn and explained once
    per run: these are common random numbers, so a cell does not depend on
    which other estimators run or in which order cells run.
    """
    spaces = setup.perturbed_spaces()
    return {
        (estimator_id, test): evaluate_cell(setup, estimator_id, cfg, test, spaces)
        for estimator_id, cfg in setup.estimators
        for test in setup.tests
    }
