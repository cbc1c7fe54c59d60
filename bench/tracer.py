"""Outside-in tracer for one traced meta-evaluation.

The library knows nothing of it.  `Tracer.installed()` rebinds every
module attribute that holds a public function of a metered module, in
every `xaimeta` module, because callers resolve an imported name in their
own namespace; leaving the block puts the originals back.  Explainers and
estimators are reached through registries rather than module attributes,
so they are metered where they are handed out: the explainer callables in
the `BenchmarkSetup.methods` that `runner.build_setup` returns, and the
`Scorer` that `consistency.make_scorer` returns.

Each wrapper pushes a frame on one stack, so a function's self time is its
duration minus the time spent in the wrapped calls it makes.  Per-call
figures are kept as in-memory aggregates; spans are recorded only for
cells and for the per-strength `collect` inside them.
"""
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

# module -> layer; cli, runconfig and errors are too thin to meter
LAYERS = {
    "xaimeta.net": "net",
    "xaimeta.explain": "explain",
    "xaimeta.estimators": "estimators",
    "xaimeta.perturb": "perturb",
    "xaimeta.stats": "stats",
    "xaimeta.seeding": "seeding",
    "xaimeta.consistency": "consistency",
    "xaimeta.runner": "setup",
    "xaimeta.dataio": "setup",
    "xaimeta.report": "report",
}
LAYER_NAMES = tuple(dict.fromkeys(LAYERS.values()))
# estimators are metered per Scorer, so of that module only the factory is wrapped
ONLY = {"xaimeta.estimators": {"make_scorer"}}
ROW_FUNCTIONS = ("logits_batch", "predict_labels", "input_gradient_batch")
CRITERIA = ("iac_over_methods", "ranking_matrices", "iec_minor", "iec_disruptive", "meta_vector")
STATS = (
    "wilcoxon_signed_rank", "spearman", "pearson", "rank_descending", "trapezoid_auc",
    "average_ranks",  # the Python rank loop under spearman and wilcoxon
)
EXPLAIN_METHODS = (
    "gradient", "saliency", "input_x_gradient", "integrated_gradients", "occlusion",
    "gradient_shap", "synthetic_flat", "synthetic_input", "synthetic_negative", "synthetic_noise",
)
ESTIMATORS = (
    "faithfulness_correlation", "pixel_flipping", "max_sensitivity", "local_lipschitz",
    "model_parameter_randomisation", "random_logit", "sparseness", "complexity",
    "pointing_game", "relevance_mass_accuracy", "adversarial_deterministic",
    "adversarial_distribution_shift",
)


@contextmanager
def patched(module, name, value):
    """Bind `module.name` to `value` for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield original
    finally:
        setattr(module, name, original)


class Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Aggregates per-call timings; one instance serves every traced unit of a run."""

    def __init__(self, run_id):
        self.run_id = run_id
        # (layer, kind, name); kind is "fn", "method" (an explainer) or "scorer"
        self.stats = defaultdict(Stat)
        self.counts = defaultdict(float)
        self.spans = []
        self._stack = []  # per open frame: seconds spent in wrapped children
        self._open_spans = []
        self._iteration = 0

    # --- wrapping ---------------------------------------------------------

    def wrap(self, key, fn, after=None):
        """Meter `fn` under `key`; `after(args, kwargs, result)` may inspect or replace the result."""
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - child
                stat.total_s += elapsed
                if stack:
                    stack[-1] += elapsed
            return result if after is None else after(args, kwargs, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def spanned(self, name, fn, attrs):
        """Record one span per call of `fn`, parented to the enclosing span."""
        spans, open_spans, clock = self.spans, self._open_spans, time.perf_counter

        def wrapper(*args, **kwargs):
            span = {
                "run": self.run_id,
                "id": len(spans) + 1,
                "parent": open_spans[-1]["id"] if open_spans else None,
                "name": name,
                **attrs(args, kwargs),
            }
            spans.append(span)
            open_spans.append(span)
            span["start"] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                open_spans.pop()

        return wrapper

    def _targets(self):
        """Original function -> wrapper, for every public function of a metered module."""
        targets = {}
        for module_name, layer in LAYERS.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            only = ONLY.get(module_name)
            for name, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == module_name
                    and not name.startswith("_")
                    and (only is None or name in only)
                ):
                    targets[value] = self._meter(layer, name, value)
        return targets

    def _meter(self, layer, name, fn):
        key = (layer, "fn", name)
        if name in ROW_FUNCTIONS:
            return self.wrap(key, fn, self._count_rows)
        if name == "build_setup":
            return self.wrap(key, fn, self._wrap_explainers)
        if name == "make_scorer":
            return self.wrap(key, fn, self._wrap_scorer)
        if name == "ipt_sample":
            return self.wrap(key, fn, self._count_ipt)
        if name == "mpt_sample":
            return self.wrap(key, fn, self._count_mpt)
        if name == "evaluate_cell":
            return self.spanned("cell", self.wrap(key, fn), self._cell_attrs)
        if name == "collect":
            return self.spanned("collect", self.wrap(key, fn), self._collect_attrs)
        return self.wrap(key, fn)

    @contextmanager
    def installed(self):
        """Wrap every metered function in every loaded xaimeta module; restore on exit."""
        targets = self._targets()
        originals = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "xaimeta" or module_name.startswith("xaimeta.")):
                continue
            for name, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in targets:
                    originals.append((module, name, value))
                    setattr(module, name, targets[value])
        try:
            yield self
        finally:
            for module, name, value in reversed(originals):
                setattr(module, name, value)

    # --- hooks --------------------------------------------------------------

    def _count_rows(self, args, kwargs, result):
        X = args[1] if len(args) > 1 else kwargs["X"]
        self.counts["net.rows"] += len(X)
        self.counts["net.row_calls"] += 1
        return result

    def _wrap_explainers(self, args, kwargs, setup):
        setup.methods = [
            (method_id, self.wrap(("explain", "method", method_id), explainer))
            for method_id, explainer in setup.methods
        ]
        return setup

    def _wrap_scorer(self, args, kwargs, scorer):
        self._iteration += 1
        # a Scorer whose call is the metered original keeps id and direction intact
        return type(scorer)(
            scorer.estimator_id,
            scorer.direction,
            self.wrap(("estimators", "scorer", scorer.estimator_id), scorer),
        )

    def _count_ipt(self, args, kwargs, case):
        self.counts["perturb.payloads"] += 1
        self.counts["perturb.attempts"] += case.attempts
        self.counts["perturb.compliant"] += bool(case.compliant)
        return case

    def _count_mpt(self, args, kwargs, result):
        spec = args[2] if len(args) > 2 else kwargs["spec"]
        _, compliant, attempts = result
        self.counts["perturb.payloads"] += 1
        self.counts["perturb.attempts"] += attempts
        self.counts["perturb.compliant"] += bool(compliant.mean() >= spec.min_retained_fraction)
        return result

    def _cell_attrs(self, args, kwargs):
        self._iteration = 0
        estimator_id = args[1] if len(args) > 1 else kwargs["estimator_id"]
        test = args[3] if len(args) > 3 else kwargs["test"]
        return {"estimator": estimator_id, "test": test}

    def _collect_attrs(self, args, kwargs):
        scorer = args[3] if len(args) > 3 else kwargs["scorer"]
        spec = args[4] if len(args) > 4 else kwargs["spec"]
        return {
            "estimator": scorer.estimator_id,
            "iteration": self._iteration - 1,
            "strength": spec.strength,
        }

    # --- results ------------------------------------------------------------

    def layer_table(self):
        """Per-function aggregates, for the trace file."""
        return [
            {"key": ".".join(key), "calls": s.calls, "self_s": s.self_s, "total_s": s.total_s}
            for key, s in sorted(self.stats.items())
        ]

    def metrics(self, units):
        """The per-layer metrics, per meta-evaluation (averaged over `units` traced units)."""
        def stat(layer, kind, name):
            return self.stats.get((layer, kind, name), Stat())

        def fn(layer, name):
            return stat(layer, "fn", name)

        def total(attr, layer, kind=None):
            return sum(
                getattr(s, attr)
                for key, s in self.stats.items()
                if key[0] == layer and kind in (None, key[1])
            )

        explainer_calls = total("calls", "explain", "method")
        estimates = total("calls", "estimators", "scorer")
        payloads = self.counts["perturb.payloads"]
        attempts = self.counts["perturb.attempts"]
        out = {}
        for layer in LAYER_NAMES:
            out[f"{layer}.self_s"] = (total("self_s", layer) / units, "s")
        out["net.calls"] = (total("calls", "net") / units, "count")
        out["net.gradient_calls"] = (fn("net", "input_gradient_batch").calls / units, "count")
        out["net.rows_per_call"] = (_ratio(self.counts["net.rows"], self.counts["net.row_calls"]), "rows")
        out["explain.calls"] = (explainer_calls / units, "count")
        out["explain.calls_per_estimate"] = (_ratio(explainer_calls, estimates), "ratio")
        for method_id in EXPLAIN_METHODS:
            out[f"explain.{method_id}.self_s"] = (stat("explain", "method", method_id).self_s / units, "s")
        for estimator_id in ESTIMATORS:
            s = stat("estimators", "scorer", estimator_id)
            out[f"estimators.{estimator_id}.self_s"] = (s.self_s / units, "s")
            out[f"estimators.{estimator_id}.calls"] = (s.calls / units, "count")
        out["perturb.collect.self_s"] = (fn("perturb", "collect").self_s / units, "s")
        payload_s = fn("perturb", "ipt_sample").total_s + fn("perturb", "mpt_sample").total_s
        out["perturb.payload_s"] = (payload_s / units, "s")
        out["perturb.ipt_sample.calls"] = (fn("perturb", "ipt_sample").calls / units, "count")
        out["perturb.mpt_sample.calls"] = (fn("perturb", "mpt_sample").calls / units, "count")
        out["perturb.attempts_per_payload"] = (_ratio(attempts, payloads), "ratio")
        out["perturb.compliance_frac"] = (_ratio(self.counts["perturb.compliant"], attempts), "ratio")
        out["seeding.calls"] = (total("calls", "seeding") / units, "count")
        for name in STATS:
            out[f"stats.{name}.self_s"] = (fn("stats", name).self_s / units, "s")
            out[f"stats.{name}.calls"] = (fn("stats", name).calls / units, "count")
        out["consistency.criteria_s"] = (
            sum(fn("consistency", name).total_s for name in CRITERIA) / units,
            "s",
        )
        out["setup.dataset_s"] = (fn("setup", "build_dataset").total_s / units, "s")
        out["setup.train_s"] = (fn("setup", "build_net").total_s / units, "s")
        out["report.write_s"] = (fn("report", "write_report").total_s / units, "s")
        return out


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0
