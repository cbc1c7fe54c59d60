"""Consistency criteria and the meta-evaluation orchestrator.

Intra-consistency (IAC) is the mean Wilcoxon signed-rank p-value between
unperturbed and perturbed score sets: high under minor noise means the
estimator is resilient, low under disruption means it reacts.  Inter-
consistency (IEC) checks ranking behaviour across explanation methods:
under minor noise the method ranking should be preserved, under disruption
the unperturbed score should strictly beat the perturbed one (with the
comparison inverted for lower-is-better estimators).  The four criteria,
with the adversarial-reactivity IAC reverse-scored so that higher is always
better, average into one meta-consistency (MC) score.  A `BenchmarkSetup`
holds a run's inputs and the perturbed spaces drawn over them, which every
estimator x test cell scored against it shares.  A cell alone decides
whether the scores `perturb.collect` gives leave enough usable samples.
"""
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import stats
from .errors import MetaEvaluationError
from .estimators import LOWER_BETTER, EstimatorConfig, _read_only, make_scorer
from .net import Net, predict_labels
from .perturb import (
    DEFAULT_WINDOWS,
    DISRUPTIVE,
    IPT,
    MINOR,
    MPT,
    PerturbedSpace,
    PerturbSpec,
    collect,
    draw_space,
    perturb_spec,
)
from .seeding import derive_seed

CRITERIA = ("iac_nr", "iac_ar", "iec_nr", "iec_ar")
# a cell aborts when more than this share of a space's samples ends up
# without a single retained draw, or of its estimates is undefined
MAX_DROPPED_FRACTION = 0.2
MAX_UNDEFINED_FRACTION = 0.1


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


def iac(unperturbed, perturbed):
    """Mean two-sided Wilcoxon p-value between the (N,) unperturbed scores
    and each column of the (N, K) perturbed ones, over the pairs where both
    scores are finite.  With a method axis, (N, L) and (N, L, K) scores give
    the (L,) IAC of each method, every column's test made in one call.

    Columns with fewer than two usable pairs are skipped; if every column of
    a method is degenerate the criterion is undefined and the run errors out.
    """
    unperturbed = np.asarray(unperturbed, dtype=np.float64)
    perturbed = np.asarray(perturbed, dtype=np.float64)
    one_method = unperturbed.ndim == 1
    if one_method:
        unperturbed, perturbed = unperturbed[:, None], perturbed[:, None]
    usable = np.isfinite(perturbed) & np.isfinite(unperturbed)[:, :, None]
    tested = usable.sum(axis=0) >= 2  # (L, K)
    if not tested.any(axis=1).all():
        raise MetaEvaluationError("every perturbed column is degenerate; IAC undefined")

    def tested_rows(scores):
        # one row per tested (method, column), NaN where a pair is unusable
        return np.where(usable, scores, np.nan).transpose(1, 2, 0)[tested]

    ps = np.zeros(tested.shape)
    ps[tested] = stats.wilcoxon_signed_rank(
        tested_rows(unperturbed[:, :, None]), tested_rows(perturbed)
    )
    iacs = stats.masked_row_sums(ps, tested) / tested.sum(axis=1)
    return float(iacs[0]) if one_method else iacs


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


def ranking_matrices(scores, dropped):
    """Per-sample method-score matrices (Qbar, Qbar') from collect's scores.

    Perturbed scores are averaged over retained draws; the `dropped` samples
    (no full row across methods) are excluded from both matrices.
    """
    qbar = np.delete(scores[:, :, 0], dropped, axis=0)
    draws = np.delete(scores[:, :, 1:], dropped, axis=0)
    retained = np.isfinite(draws)
    means = stats.masked_row_sums(draws, retained) / retained.sum(axis=-1)
    # the mean of identical draws is that value exactly; bypassing the
    # float division keeps strict tie comparisons honest
    first = np.take_along_axis(draws, np.argmax(retained, axis=-1)[..., None], axis=-1)
    identical = ((draws == first) | ~retained).all(axis=-1)
    return qbar, np.where(identical, first[..., 0], means)


def iac_over_methods(scores) -> float:
    """The mean over methods of each method's IAC, from one Wilcoxon call."""
    return float(np.mean(iac(scores[:, :, 0], scores[:, :, 1:])))


def _usable_rows(setup, spec: PerturbSpec, scores, estimator_id: str):
    """(dropped samples, undefined estimates, estimates made) of one
    estimator's `collect` scores of the space `spec` names in `setup`.  A
    sample is dropped when a method lacks its unperturbed estimate or every
    perturbed one; aborts past MAX_DROPPED_FRACTION or MAX_UNDEFINED_FRACTION.
    """
    space = setup.space(spec)
    n = len(scores)
    defined = np.isfinite(scores)
    compliant = space.compliant
    total = len(setup.methods) * int(space.held.sum())
    undefined = total - int(defined.sum())
    usable = (defined[:, :, 0] & defined[:, :, 1:].any(axis=2)).all(axis=1)
    dropped = np.flatnonzero(~usable).tolist()
    if len(dropped) > MAX_DROPPED_FRACTION * n:
        # a dropped sample with a compliant payload lost it to undefined estimates
        no_payload = int((~compliant[dropped].any(axis=1)).sum())
        raise MetaEvaluationError(
            f"{len(dropped)}/{n} samples without usable estimates for {estimator_id} "
            f"under {spec.test}/{spec.strength} (cap {MAX_DROPPED_FRACTION:.0%}): "
            f"{no_payload} with no compliant payload, {len(dropped) - no_payload} with "
            f"undefined estimates; mean compliance {compliant.mean():.3f}"
        )
    if total and undefined > MAX_UNDEFINED_FRACTION * total:
        raise MetaEvaluationError(
            f"{undefined}/{total} estimates undefined for {estimator_id} "
            f"(cap {MAX_UNDEFINED_FRACTION:.0%})"
        )
    return dropped, undefined, total


@dataclass
class BenchmarkSetup:
    """A meta-evaluation run: its inputs, and the perturbed spaces that every
    cell scored against it shares, so one setup serves a whole hpo grid.

    The net's labels of the inputs and each method's read-only explanations
    of them are made on first use, so explainers swapped into `methods`
    after construction make them too.  `space(spec)` draws and explains a
    space on first use and keeps it in `drawn`; `dataclasses.replace` gives
    a setup with none.

    `inputs` is kept as a read-only float64 copy, and `masks`, when given, as
    a read-only (N, D) bool array whose every row marks at least one
    feature; the labels are read-only too.  `dataset_mean` is the mean of
    the inputs.
    """

    net: Net
    inputs: np.ndarray
    bounds: tuple
    methods: list  # [(method_id, explainer), ...]
    estimators: list  # [(estimator_id, EstimatorConfig), ...]
    tests: list  # subset of {"ipt", "mpt"}
    K: int = 5
    iterations: int = 3
    master_seed: int = 0
    masks: np.ndarray | None = None
    # (test, strength) -> PerturbSpec; missing keys get perturb_spec's defaults
    perturb_templates: dict = field(default_factory=dict)
    dataset_mean: float = field(init=False)  # the "mean" baseline's fill
    # PerturbSpec -> PerturbedSpace
    drawn: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if len(self.methods) < 2:
            raise MetaEvaluationError("the ranking criterion needs at least two methods")
        method_ids = [method_id for method_id, _ in self.methods]
        if len(set(method_ids)) < len(method_ids):
            raise MetaEvaluationError(f"repeated method ids in {method_ids}")
        if self.K < 1 or self.iterations < 1:
            raise MetaEvaluationError("K and iterations must be >= 1")
        for test in self.tests:
            if test not in (IPT, MPT):
                raise MetaEvaluationError(f"unknown test type {test!r}")
        self.inputs = _read_only(np.array(self.inputs, dtype=np.float64))
        if self.inputs.shape[0] < 2:
            raise ValueError("perturbed spaces need at least two samples")
        self.dataset_mean = float(self.inputs.mean())
        if self.masks is not None:
            self.masks = _read_only(np.asarray(self.masks).astype(bool))
            if self.masks.shape != self.inputs.shape or not self.masks.any(axis=1).all():
                raise ValueError("masks must be (N, D) and mark at least one feature per row")
        self.perturb_templates = {
            **{key: perturb_spec(*key) for key in DEFAULT_WINDOWS},
            **self.perturb_templates,
        }

    @cached_property
    def labels(self) -> np.ndarray:
        return _read_only(predict_labels(self.net, self.inputs))

    @cached_property
    def attributions(self) -> dict:
        return {
            method_id: _read_only(explainer(self.net, self.inputs, self.labels))
            for method_id, explainer in self.methods
        }

    def space(self, spec: PerturbSpec) -> PerturbedSpace:
        if spec not in self.drawn:
            self.drawn[spec] = draw_space(self, spec)
        return self.drawn[spec]


@dataclass
class CellResult:
    """Aggregated outcome of one estimator x test cell."""

    estimator_id: str
    test: str
    mean: MetaVector
    std: dict  # per criterion and mc
    per_iteration: list
    diagnostics: dict


def evaluate_cell(setup: BenchmarkSetup, estimator_id: str, cfg, test: str) -> CellResult:
    """Run `iterations` independent repetitions of one estimator x test.

    The payloads of iteration i at one strength come from the seed
    (master_seed, test, i, strength) of `setup` alone, and `setup` draws and
    explains them once for every cell that scores them.  The cell aborts at
    the first space whose scores `_usable_rows` rejects.
    """
    vectors = []
    diagnostics = {"dropped": [], "undefined": [], "total": [], "mean_attempts": []}
    for iteration in range(setup.iterations):
        scorer = make_scorer(estimator_id, cfg)
        scores, dropped = {}, {}
        for strength in (MINOR, DISRUPTIVE):
            spec = replace(
                setup.perturb_templates[(test, strength)],
                seed=derive_seed(setup.master_seed, test, iteration, strength),
            )
            scores[strength] = collect(setup, scorer=scorer, spec=spec)
            dropped[strength], undefined, total = _usable_rows(
                setup, spec, scores[strength], estimator_id
            )
            diagnostics["dropped"].append(len(dropped[strength]))
            diagnostics["undefined"].append(undefined)
            diagnostics["total"].append(total)
            diagnostics["mean_attempts"].append(float(setup.space(spec).attempts.mean()))
        iac_nr = iac_over_methods(scores[MINOR])
        iac_ar_raw = iac_over_methods(scores[DISRUPTIVE])
        qbar_nr, qbar_m = ranking_matrices(scores[MINOR], dropped[MINOR])
        qbar_ar, qbar_d = ranking_matrices(scores[DISRUPTIVE], dropped[DISRUPTIVE])
        vectors.append(
            meta_vector(
                iac_nr,
                iac_ar_raw,
                iec_minor(qbar_nr, qbar_m),
                iec_disruptive(qbar_ar, qbar_d, scorer.direction == LOWER_BETTER),
            )
        )
    # one iteration has standard deviation 0.0, not the NaN of ddof 1
    table = np.array([v.entries() for v in vectors])
    mcs = np.array([v.mc for v in vectors])
    ddof = 1 if len(vectors) > 1 else 0
    return CellResult(
        estimator_id=estimator_id,
        test=test,
        mean=MetaVector(*map(float, table.mean(axis=0)), mc=float(mcs.mean())),
        std={
            **dict(zip(CRITERIA, map(float, table.std(axis=0, ddof=ddof)))),
            "mc": float(mcs.std(ddof=ddof)),
        },
        per_iteration=vectors,
        diagnostics=diagnostics,
    )


def run_meta_evaluation(setup: BenchmarkSetup) -> dict:
    """Evaluate every estimator x test cell, keyed (estimator_id, test).

    Payloads come from (master_seed, test, iteration, strength) only, and
    every cell scores the same perturbed spaces, drawn and explained once
    per setup: these are common random numbers, so a cell does not depend on
    which other estimators run or in which order cells run.
    """
    return {
        (estimator_id, test): evaluate_cell(setup, estimator_id, cfg, test)
        for estimator_id, cfg in setup.estimators
        for test in setup.tests
    }
