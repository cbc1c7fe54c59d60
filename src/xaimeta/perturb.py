"""Validity-checked perturbations and perturbed-estimate collection.

Two tests are supported: IPT, additive uniform noise on inputs (clipped to
the dataset bounds), and MPT, multiplicative Gaussian noise on all model
parameters.  A perturbation is *minor* when the predicted label
survives it and *disruptive* when the label changes; payloads are resampled
until they comply or a cap is reached.  An IPT payload's attempts are drawn
and labelled in doubling blocks (1, 2, 4, ...), one forward call per block,
and the block's first compliant row is the payload, exactly as if the
attempts were drawn one at a time.  `draw_space` draws one (test,
strength, iteration) of payloads over the rows of a
`consistency.BenchmarkSetup`, which keeps it, one column at a time: it
draws the column, explains it once per method and builds that column's
`EvalContext` of each method.  `collect` only scores such a space with one
estimator, giving the (N, L, 1 + K) block of unperturbed and perturbed
quality estimates over the L explanation methods that the consistency
criteria consume.
"""
import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import PerturbationInfeasibleError
from .estimators import EvalContext, _read_only
from .net import Net, _class_indices, get_weights, predict_labels, set_weights
from .seeding import derive_seed

IPT = "ipt"
MPT = "mpt"
MINOR = "minor"
DISRUPTIVE = "disruptive"

# the default settings of each test at each strength: IPT's U(alpha, beta)
# input noise; MPT's N(mu, sigma^2) weight noise and the fraction of samples
# a drawn model must keep compliant
DEFAULT_WINDOWS = {
    (IPT, MINOR): {"alpha": -0.001, "beta": 0.001},
    (IPT, DISRUPTIVE): {"alpha": 0.0, "beta": 1.0},
    (MPT, MINOR): {"sigma": 0.001, "mu": 1.0, "min_retained_fraction": 0.8},
    (MPT, DISRUPTIVE): {"sigma": 2.0, "mu": 1.0, "min_retained_fraction": 0.8},
}
WINDOW_KEYS = {key for window in DEFAULT_WINDOWS.values() for key in window}


@dataclass(frozen=True)
class PerturbSpec:
    """One test at one strength; build it with `perturb_spec`.

    The window keys of the other test are None: they have no effect.
    """

    test: str
    strength: str
    alpha: float | None = None
    beta: float | None = None
    sigma: float | None = None
    mu: float | None = None
    max_resamples: int = 100
    min_retained_fraction: float | None = None
    seed: int = 0

    def __post_init__(self):
        window = DEFAULT_WINDOWS.get((self.test, self.strength))
        if window is None:
            raise ValueError(f"unknown perturbation {self.test!r}/{self.strength!r}")
        for key in sorted(WINDOW_KEYS - set(window)):
            if getattr(self, key) is not None:
                raise ValueError(f"{key} has no effect on {self.test} perturbations")
        unset = [key for key in window if getattr(self, key) is None]
        if unset:
            raise ValueError(f"{self.test}/{self.strength} needs {', '.join(unset)}")
        for key in ("alpha", "beta", "sigma", "mu"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        n = self.max_resamples
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise ValueError(f"max_resamples must be an integer >= 1, got {n!r}")
        if self.test == IPT:
            if self.alpha > self.beta:
                raise ValueError("alpha must not exceed beta")
        else:
            if self.sigma < 0:
                raise ValueError("sigma must be nonnegative")
            if not 0 < self.min_retained_fraction <= 1:
                raise ValueError("min_retained_fraction must lie in (0, 1]")


def perturb_spec(test: str, strength: str, **overrides) -> PerturbSpec:
    """The DEFAULT_WINDOWS settings of (test, strength), then `overrides`."""
    window = DEFAULT_WINDOWS.get((test, strength), {})
    return PerturbSpec(test, strength, **{**window, **overrides})


class PerturbedCase(NamedTuple):
    """What both samplers return: `ipt_sample` a perturbed input row and
    whether it complies, `mpt_sample` a perturbed Net and its (N,) per-sample
    compliance mask; with the attempts drawn.  It unpacks as that triple."""

    payload: object
    compliant: bool | np.ndarray
    attempts: int


def _complies(strength: str, original, new):
    """Whether the new labels (a label or an array of them) satisfy `strength`."""
    if strength == MINOR:
        return new == original
    return new != original


def ipt_sample(net: Net, x, spec: PerturbSpec, draw_seed: int, bounds, label) -> PerturbedCase:
    """Draw additive uniform noise until the strength definition holds
    against `label`, the net's label of x.

    The perturbed input is clipped to the dataset bounds elementwise.
    Attempts are drawn and labelled in blocks of 1, 2, 4, ... (the last one
    cut to what is left of spec.max_resamples), one noise draw and one
    `predict_labels` call per block; the block's first compliant row wins,
    so payload and attempt count are those of drawing one attempt at a time
    from the same generator.  After spec.max_resamples failed attempts the
    last draw is returned with compliant=False; non-compliance is data, not
    an error.  The payload is a row of its own, not a view of the block.
    """
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(draw_seed)
    lo, hi = bounds
    original = int(label)
    used = 0
    while used < spec.max_resamples:
        # after blocks of 1, 2, ..., 2^(j-1) attempts, used + 1 is 2^j
        block = min(used + 1, spec.max_resamples - used)
        x_hat = np.clip(x + rng.uniform(spec.alpha, spec.beta, size=(block, x.size)), lo, hi)
        (hits,) = np.nonzero(_complies(spec.strength, original, predict_labels(net, x_hat)))
        if hits.size:
            return PerturbedCase(x_hat[hits[0]].copy(), True, used + int(hits[0]) + 1)
        used += block
    return PerturbedCase(x_hat[-1].copy(), False, used)


def mpt_draw(net: Net, spec: PerturbSpec, draw_seed: int) -> Net:
    """One multiplicative Gaussian draw over every dense parameter."""
    w = get_weights(net)
    nu = np.random.default_rng(draw_seed).normal(spec.mu, spec.sigma, size=w.size)
    return set_weights(net, w * nu)


def mpt_sample(net: Net, X, spec: PerturbSpec, draw_seed: int, labels) -> PerturbedCase:
    """Draw a perturbed model and evaluate per-sample compliance against it;
    `labels` are the net's labels of X, read by `net._class_indices`.

    One model draw serves all samples; samples whose label does not behave
    as the strength demands are simply marked non-compliant.  The model is
    redrawn (up to spec.max_resamples times) while fewer than
    min_retained_fraction of samples comply.  When the cap is exhausted,
    minor strength raises PerturbationInfeasibleError; disruptive strength
    falls back to the best draw seen and errors only if no sample ever
    complied with any draw.

    Returns the PerturbedCase (perturbed net, per-sample compliance mask,
    attempts used).
    """
    X = np.asarray(X, dtype=np.float64)
    labels = _class_indices(net, labels, len(X))
    best = None
    for attempt in range(1, spec.max_resamples + 1):
        net_hat = mpt_draw(net, spec, derive_seed(draw_seed, "redraw", attempt))
        new_labels = predict_labels(net_hat, X)
        compliant = _complies(spec.strength, labels, new_labels)
        fraction = float(compliant.mean())
        if best is None or fraction > best[2]:
            best = (net_hat, compliant, fraction)
        if fraction >= spec.min_retained_fraction:
            return PerturbedCase(net_hat, compliant, attempt)
    if spec.strength == DISRUPTIVE and best[2] > 0.0:
        return PerturbedCase(best[0], best[1], spec.max_resamples)
    raise PerturbationInfeasibleError(
        f"{spec.strength} model perturbation (sigma={spec.sigma}) reached "
        f"compliance {best[2]:.3f} after {spec.max_resamples} redraws"
    )


@dataclass
class PerturbedSpace:
    """One (test, strength, iteration) of payloads, explained once per
    method and scored by every estimator.  Column 0 holds the unperturbed
    rows (the setup's own net, inputs and explanations), columns 1..K the
    payloads.  The contexts' arrays are read-only."""

    contexts: dict  # method_id -> 1 + K EvalContexts, None for an empty column
    held: np.ndarray  # (N, 1 + K) bool: the rows each column holds
    attempts: np.ndarray  # (N, K) draws used per payload

    @property
    def compliant(self) -> np.ndarray:
        """(N, K) payload compliance, shared across methods."""
        return self.held[:, 1:]


def draw_space(setup, spec: PerturbSpec) -> PerturbedSpace:
    """Draw the K payload columns of `spec` over the rows of `setup`, a
    `consistency.BenchmarkSetup`, and give each (method, column) its
    `EvalContext`, one column at a time; column 0 holds the setup's
    unperturbed rows and explanations, and each non-empty payload column is
    explained once per method as soon as it is drawn.  Every method's
    context of a column shares its row indices, labels and masks.

    Under IPT payload column k holds the unperturbed net and the k-th
    perturbed rows, under MPT the k-th drawn net and X; every stochastic
    choice derives from spec.seed, so the space is independent of execution
    schedule.  A method's 1 + K contexts share its estimator seed.
    """
    labels, unperturbed = setup.labels, setup.attributions
    net, X, K = setup.net, setup.inputs, setup.K
    n, d = X.shape
    attempts = np.zeros((n, K))
    held = np.ones((n, 1 + K), dtype=bool)
    seeds = {method_id: derive_seed(spec.seed, "est", method_id) for method_id, _ in setup.methods}
    contexts = {method_id: [] for method_id in seeds}
    for c in range(1 + K):
        net_c, inputs, k = net, X, c - 1
        if c and spec.test == IPT:
            cases = [
                ipt_sample(
                    net, X[i], spec, derive_seed(spec.seed, "ipt", k, i), setup.bounds, labels[i]
                )
                for i in range(n)
            ]
            held[:, c] = [case.compliant for case in cases]
            attempts[:, k] = [case.attempts for case in cases]
            inputs = np.array([case.payload for case in cases if case.compliant]).reshape(-1, d)
        elif c:
            draw_seed = derive_seed(spec.seed, "mpt", k)
            net_c, held[:, c], attempts[:, k] = mpt_sample(net, X, spec, draw_seed, labels)
            inputs = X[held[:, c]]
        on = held[:, c]
        inputs, labels_c, rows = map(_read_only, (inputs, labels[on], np.flatnonzero(on)))
        masks = None if setup.masks is None else _read_only(setup.masks[on])
        for method_id, explainer in setup.methods:
            contexts[method_id].append(
                EvalContext(
                    net=net_c,
                    X=inputs,
                    labels=labels_c,
                    attributions=unperturbed[method_id]
                    if c == 0
                    else _read_only(explainer(net_c, inputs, labels_c)),
                    explainer=explainer,
                    dataset_bounds=setup.bounds,
                    rows=rows,
                    seed=seeds[method_id],
                    masks=masks,
                    dataset_mean=setup.dataset_mean,
                    is_perturbed=c > 0,
                    space_seed=spec.seed,
                    kept={},
                )
                if on.any()
                else None
            )
    return PerturbedSpace(contexts, _read_only(held), _read_only(attempts))


def collect(setup, *, scorer, spec: PerturbSpec) -> np.ndarray:
    """Score the space `spec` names in `setup`, which draws it on first use,
    with `scorer`, an estimators.Scorer: the (N, L, 1 + K) estimates of
    method j of `setup.methods` at index j, column 0 unperturbed and column
    1 + k of payload k.  NaN marks an estimate that is missing (the column
    does not hold the row) or undefined (not finite); `consistency` decides
    whether enough are usable.  The calls of one method share one `draws`
    dict, so each of the estimator's tables is drawn once, by column 0,
    which holds every row.  `scorer` and `spec` are keyword-only because
    bench/tracer.py reads them by name.
    """
    space = setup.space(spec)
    n, columns = space.held.shape
    scores = np.full((n, len(setup.methods), columns), np.nan)
    for j, (method_id, _) in enumerate(setup.methods):
        draws = {}  # the estimator's tables, drawn once for the 1 + K columns
        for c, ctx in enumerate(space.contexts[method_id]):
            if ctx is not None:
                scores[ctx.rows, j, c] = scorer(replace(ctx, draws=draws))
    scores[~np.isfinite(scores)] = np.nan
    return scores
