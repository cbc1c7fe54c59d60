import re
from dataclasses import replace

import numpy as np
import pytest

from xaimeta import perturb
from xaimeta.consistency import BenchmarkSetup, _usable_rows, evaluate_cell
from xaimeta.errors import MetaEvaluationError, PerturbationInfeasibleError
from xaimeta.estimators import (
    EstimatorConfig,
    EvalContext,
    Scorer,
    _sample_draws,
    make_scorer,
)
from xaimeta.explain import ExplainerConfig, build_explainer
from xaimeta.net import dense, get_weights, make_net, predict_labels, train_tiny
from xaimeta.perturb import (
    DEFAULT_WINDOWS,
    PerturbSpec,
    collect,
    ipt_sample,
    mpt_draw,
    mpt_sample,
    perturb_spec,
)
from xaimeta.seeding import derive_seed


def threshold_net():
    # label 1 iff x > 0.5 (1-D input, 2 classes)
    return make_net([dense([[0.0], [10.0]], [0.0, -5.0])])


def own_label(net, x):
    return predict_labels(net, np.asarray(x)[None, :])[0]


def blobs(n=40, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal((0.25, 0.3), 0.05, size=(half, 2))
    b = rng.normal((0.75, 0.7), 0.05, size=(n - half, 2))
    X = np.clip(np.vstack([a, b]), 0.0, 1.0)
    y = np.array([0] * half + [1] * (n - half))
    return X, y


@pytest.fixture(scope="module")
def trained():
    X, y = blobs(60, seed=3)
    net = train_tiny((8,), X, y, epochs=10, seed=5)
    return net, X


class TestPerturbSpec:
    def test_default_windows(self):
        for strength, window in (("minor", (-0.001, 0.001)), ("disruptive", (0.0, 1.0))):
            spec = perturb_spec("ipt", strength)
            assert spec == PerturbSpec("ipt", strength, alpha=window[0], beta=window[1])
            assert spec.sigma is None and spec.mu is None and spec.min_retained_fraction is None
        for strength, sigma in (("minor", 0.001), ("disruptive", 2.0)):
            spec = perturb_spec("mpt", strength)
            assert (spec.sigma, spec.mu, spec.min_retained_fraction) == (sigma, 1.0, 0.8)
            assert spec.alpha is None and spec.beta is None
        for key in DEFAULT_WINDOWS:
            spec = perturb_spec(*key)
            assert (spec.test, spec.strength, spec.max_resamples, spec.seed) == (*key, 100, 0)

    def test_overrides_replace_defaults(self):
        spec = perturb_spec("ipt", "disruptive", alpha=-1.0, max_resamples=7, seed=3)
        assert (spec.alpha, spec.beta, spec.max_resamples, spec.seed) == (-1.0, 1.0, 7, 3)
        spec = perturb_spec("mpt", "minor", sigma=0.0, mu=2.0, min_retained_fraction=0.5)
        assert (spec.sigma, spec.mu, spec.min_retained_fraction) == (0.0, 2.0, 0.5)

    @pytest.mark.parametrize(
        "test, strength, overrides, message",
        [
            ("mpt", "minor", {"alpha": 5}, "alpha has no effect on mpt"),
            ("mpt", "disruptive", {"beta": 5}, "beta has no effect on mpt"),
            ("ipt", "minor", {"sigma": 5}, "sigma has no effect on ipt"),
            ("ipt", "minor", {"min_retained_fraction": 0.5}, "min_retained_fraction has no effect"),
            ("ipt", "minor", {"max_resamples": 2.5}, "max_resamples must be an integer"),
            ("ipt", "minor", {"max_resamples": True}, "max_resamples must be an integer"),
            ("ipt", "minor", {"alpha": 1.0, "beta": 0.0}, "alpha must not exceed beta"),
            ("mpt", "minor", {"sigma": -1.0}, "sigma must be nonnegative"),
            ("mpt", "minor", {"min_retained_fraction": 0.0}, "min_retained_fraction"),
            ("ipt", "minor", {"alpha": np.nan}, "alpha must be finite"),
            ("ipt", "disruptive", {"beta": np.inf}, "beta must be finite"),
            ("ipt", "minor", {"alpha": -np.inf}, "alpha must be finite"),
            ("mpt", "minor", {"sigma": np.nan}, "sigma must be finite"),
            ("mpt", "disruptive", {"sigma": np.inf}, "sigma must be finite"),
            ("mpt", "disruptive", {"mu": np.inf}, "mu must be finite"),
            ("ipt", "moderate", {}, "unknown perturbation"),
            ("input", "minor", {}, "unknown perturbation"),
        ],
    )
    def test_bad_settings_rejected(self, test, strength, overrides, message):
        with pytest.raises(ValueError, match=message):
            perturb_spec(test, strength, **overrides)

    def test_numpy_integer_resamples_accepted(self):
        assert perturb_spec("mpt", "minor", max_resamples=np.int64(3)).max_resamples == 3

    def test_direct_construction_names_the_unset_window(self):
        with pytest.raises(ValueError, match="ipt/minor needs alpha, beta"):
            PerturbSpec("ipt", "minor")
        with pytest.raises(ValueError, match="mpt/disruptive needs min_retained_fraction"):
            PerturbSpec("mpt", "disruptive", sigma=2.0, mu=1.0)


class TestIptSample:
    def test_zero_window_minor_complies_immediately(self, trained):
        net, X = trained
        spec = perturb_spec("ipt", "minor", alpha=0.0, beta=0.0)
        label = own_label(net, X[0])
        case = ipt_sample(net, X[0], spec, draw_seed=1, bounds=(0.0, 1.0), label=label)
        assert case.compliant and case.attempts == 1
        assert np.array_equal(case.payload, X[0])

    def test_disruptive_threshold_crossing(self):
        net = threshold_net()
        spec = perturb_spec("ipt", "disruptive", alpha=0.0, beta=1.0)
        case = ipt_sample(net, np.array([0.1]), spec, draw_seed=2, bounds=(0.0, 1.0), label=0)
        assert case.compliant
        assert case.payload[0] > 0.5

    def test_clipping_to_bounds(self):
        net = threshold_net()
        spec = perturb_spec("ipt", "minor", alpha=0.2, beta=0.2)
        case = ipt_sample(net, np.array([0.9]), spec, draw_seed=3, bounds=(0.0, 1.0), label=1)
        assert case.payload[0] == 1.0

    def test_noncompliance_is_data_not_error(self):
        net = threshold_net()
        # zero noise can never flip the label
        spec = perturb_spec("ipt", "disruptive", alpha=0.0, beta=0.0, max_resamples=5)
        case = ipt_sample(net, np.array([0.1]), spec, draw_seed=4, bounds=(0.0, 1.0), label=0)
        assert not case.compliant
        assert case.attempts == 5

    def test_minor_payloads_keep_label(self, trained):
        net, X = trained
        spec = perturb_spec("ipt", "minor")
        for i in range(10):
            label = own_label(net, X[i])
            case = ipt_sample(net, X[i], spec, draw_seed=i, bounds=(0.0, 1.0), label=label)
            if case.compliant:
                assert (
                    predict_labels(net, case.payload[None, :])[0]
                    == predict_labels(net, X[i][None, :])[0]
                )

    def test_compliant_payloads_satisfy_their_definition(self, trained):
        # per-case assertion of the two strength definitions
        net, X = trained
        original = predict_labels(net, X)
        for i in range(12):
            spec = perturb_spec("ipt", "minor")
            minor = ipt_sample(net, X[i], spec, draw_seed=i, bounds=(0.0, 1.0), label=original[i])
            if minor.compliant:
                assert predict_labels(net, minor.payload[None, :])[0] == original[i]
            spec = perturb_spec("ipt", "disruptive", alpha=-1.0, beta=1.0)
            disruptive = ipt_sample(
                net, X[i], spec, draw_seed=i, bounds=(0.0, 1.0), label=original[i]
            )
            if disruptive.compliant:
                assert predict_labels(net, disruptive.payload[None, :])[0] != original[i]

    def test_compliance_monotone_in_max_resamples(self, trained):
        net, X = trained
        for i in range(8):
            small = perturb_spec("ipt", "disruptive", max_resamples=3)
            large = perturb_spec("ipt", "disruptive", max_resamples=30)
            label = own_label(net, X[i])
            a = ipt_sample(net, X[i], small, draw_seed=i, bounds=(0.0, 1.0), label=label)
            b = ipt_sample(net, X[i], large, draw_seed=i, bounds=(0.0, 1.0), label=label)
            if a.compliant:
                assert b.compliant
                assert np.array_equal(a.payload, b.payload)


class TestMptSample:
    def test_sigma_zero_minor_keeps_model(self, trained):
        net, X = trained
        spec = perturb_spec("mpt", "minor", sigma=0.0)
        labels = predict_labels(net, X)
        net_hat, compliant, attempts = mpt_sample(net, X, spec, draw_seed=1, labels=labels)
        assert compliant.all() and attempts == 1
        assert np.array_equal(get_weights(net_hat), get_weights(net))

    def test_sigma_zero_disruptive_infeasible(self, trained):
        net, X = trained
        spec = perturb_spec("mpt", "disruptive", sigma=0.0, max_resamples=4)
        with pytest.raises(PerturbationInfeasibleError):
            mpt_sample(net, X, spec, draw_seed=2, labels=predict_labels(net, X))

    def test_disruptive_falls_back_to_the_best_draw(self, trained):
        # every sample flipping is out of reach, so after the cap the best
        # draw seen comes back, with its own compliance
        net, X = trained
        labels = predict_labels(net, X)
        spec = perturb_spec("mpt", "disruptive", sigma=1.0, min_retained_fraction=1.0, max_resamples=5)
        redraws = [mpt_draw(net, spec, derive_seed(4, "redraw", a)) for a in range(1, 6)]
        flipped = [predict_labels(r, X) != labels for r in redraws]
        fractions = [f.mean() for f in flipped]
        assert 0.0 < max(fractions) < 1.0 and len(set(fractions)) > 1
        best = int(np.argmax(fractions))
        net_hat, compliant, attempts = mpt_sample(net, X, spec, draw_seed=4, labels=labels)
        assert attempts == spec.max_resamples
        assert np.array_equal(get_weights(net_hat), get_weights(redraws[best]))
        assert np.array_equal(compliant, flipped[best])

    def test_huge_sigma_disrupts_most_samples(self):
        # needs several classes: a wildly randomised net collapses to one
        # favoured class, so the flipped fraction approaches 1 - 1/C
        rng = np.random.default_rng(21)
        centers = rng.uniform(0.15, 0.85, size=(6, 8))
        X = np.clip(
            np.repeat(centers, 20, axis=0) + rng.normal(0, 0.04, size=(120, 8)), 0.0, 1.0
        )
        y = np.repeat(np.arange(6), 20)
        net = train_tiny((16,), X, y, epochs=8, seed=2)
        spec = perturb_spec("mpt", "disruptive", sigma=100.0)
        _, compliant, _ = mpt_sample(net, X, spec, draw_seed=3, labels=predict_labels(net, X))
        assert compliant.mean() >= 0.8

    def test_draw_is_multiplicative(self, trained):
        net, _ = trained
        spec = perturb_spec("mpt", "minor", sigma=0.5)
        net_hat = mpt_draw(net, spec, draw_seed=7)
        w, w_hat = get_weights(net), get_weights(net_hat)
        nu = np.random.default_rng(7).normal(1.0, 0.5, size=w.size)
        assert np.allclose(w_hat, w * nu, atol=1e-15)


def simple_methods():
    cfg = ExplainerConfig(seed=11)
    return [
        ("gradient", build_explainer("gradient", cfg)),
        ("saliency", build_explainer("saliency", cfg)),
    ]


def setup_of(net, X, K, methods=None, masks=None):
    """A setup of X in [0, 1], by default under the two simple methods."""
    return BenchmarkSetup(
        net, X, (0.0, 1.0), methods or simple_methods(), estimators=[], tests=[], K=K, masks=masks
    )


def method_columns(scores):
    """Each method's (unperturbed (N,), perturbed (N, K)) scores: index j of
    collect's (N, L, 1 + K) scores."""
    return [(scores[:, j, 0], scores[:, j, 1:]) for j in range(scores.shape[1])]


class TestCollect:
    def test_sigma_zero_mpt_equals_unperturbed_column(self, trained):
        net, X = trained
        spec = perturb_spec("mpt", "minor", sigma=0.0, seed=1)
        scorer = make_scorer("sparseness", EstimatorConfig())
        scores = collect(setup_of(net, X[:8], K=1), scorer=scorer, spec=spec)
        for unperturbed, perturbed in method_columns(scores):
            assert np.isfinite(perturbed).all()
            assert np.allclose(perturbed[:, 0], unperturbed, atol=1e-15)

    @pytest.mark.parametrize("test", ["ipt", "mpt"])
    def test_deterministic_adversary_blind_to_perturbation(self, trained, test):
        net, X = trained
        spec = perturb_spec(test, "minor", seed=2)
        scorer = make_scorer("adversarial_deterministic", EstimatorConfig())
        setup = setup_of(net, X[:8], K=3)
        scores = collect(setup, scorer=scorer, spec=spec)
        compliant = setup.space(spec).compliant
        assert compliant.any()
        for unperturbed, perturbed in method_columns(scores):
            for k in range(3):
                retained = np.isfinite(perturbed[:, k])
                assert np.array_equal(retained, compliant[:, k])
                assert np.array_equal(perturbed[retained, k], unperturbed[retained])

    def test_matches_scratch_loop(self, trained):
        # brute-force oracle: recompute every cell with direct calls
        net, X = trained
        X4 = X[:4]
        spec = perturb_spec("ipt", "minor", seed=5)
        cfg = EstimatorConfig(fc_runs=10, fc_subset_size=1)
        scorer = make_scorer("faithfulness_correlation", cfg)
        methods = simple_methods()
        setup = setup_of(net, X4, K=2, methods=methods)
        scores = collect(setup, scorer=scorer, spec=spec)
        compliant = setup.space(spec).compliant

        from xaimeta.estimators import evaluate_faithfulness_correlation

        labels = predict_labels(net, X4)
        for (method_id, explainer), (unperturbed, perturbed) in zip(methods, method_columns(scores)):
            # the setup explains the unperturbed rows in one call, then each
            # payload column's compliant rows in one call; replay those calls
            base = explainer(net, X4, labels)
            cases = [
                [
                    ipt_sample(
                        net, X4[i], spec, derive_seed(spec.seed, "ipt", k, i), (0.0, 1.0), labels[i]
                    )
                    for i in range(4)
                ]
                for k in range(2)
            ]
            columns = []
            for k in range(2):
                rows = [i for i in range(4) if cases[k][i].compliant]
                payloads = np.array([cases[k][i].payload for i in rows])
                columns.append(dict(zip(rows, explainer(net, payloads, labels[rows]) if rows else [])))
            seed = derive_seed(spec.seed, "est", method_id)
            for i in range(4):
                ctx = EvalContext(
                    net=net,
                    X=X4[i : i + 1],
                    labels=labels[i : i + 1],
                    attributions=base[i : i + 1],
                    explainer=explainer,
                    dataset_bounds=(0.0, 1.0),
                    rows=np.array([i]),
                    seed=seed,
                )
                (expected,) = evaluate_faithfulness_correlation(ctx, cfg)
                assert unperturbed[i] == expected
                for k in range(2):
                    case = cases[k][i]
                    assert case.compliant == compliant[i, k]
                    if not case.compliant:
                        continue
                    ctx = EvalContext(
                        net=net,
                        X=case.payload[None, :],
                        labels=labels[i : i + 1],
                        attributions=columns[k][i][None, :],
                        explainer=explainer,
                        dataset_bounds=(0.0, 1.0),
                        rows=np.array([i]),
                        seed=seed,
                        is_perturbed=True,
                    )
                    (expected,) = evaluate_faithfulness_correlation(ctx, cfg)
                    assert perturbed[i, k] == expected

    @staticmethod
    def counted_collect(net, X, estimator_id, spec, K):
        """collect with counters: per scorer call, the rows it scored and the
        explainer calls made inside it.  Returns (calls, the setup, a run of
        collect on it)."""
        scorer = make_scorer(estimator_id, EstimatorConfig(robustness_runs=2))
        calls = []  # [rows, explainer calls] per scorer call
        inside = []

        def count(explainer):
            def counted(net, X, labels):
                if inside:
                    calls[-1][1] += 1
                return explainer(net, X, labels)

            return counted

        def scoring(ctx):
            calls.append([len(ctx.rows), 0])
            inside.append(True)
            try:
                return scorer(ctx)
            finally:
                inside.pop()

        methods = [(method_id, count(explainer)) for method_id, explainer in simple_methods()]
        counted = Scorer(scorer.estimator_id, scorer.direction, scoring)
        setup = setup_of(net, X, K=K, methods=methods)
        return calls, setup, lambda: collect(setup, scorer=counted, spec=spec)

    @pytest.mark.parametrize("test", ["ipt", "mpt"])
    @pytest.mark.parametrize("estimator_id", ["max_sensitivity", "local_lipschitz", "random_logit"])
    def test_one_scorer_call_per_column_one_explainer_call_per_scorer_call(
        self, trained, test, estimator_id
    ):
        net, X = trained
        spec = perturb_spec(test, "minor", seed=7)
        calls, setup, run = self.counted_collect(net, X[:8], estimator_id, spec, K=3)
        scores = run()
        columns = setup.space(spec).compliant.sum(axis=0)
        expected_rows = [8, *columns[columns > 0].tolist()]
        assert [rows for rows, _ in calls] == expected_rows * len(method_columns(scores))
        assert [explained for _, explained in calls] == [1] * len(calls)

    def test_empty_columns_are_not_scored(self, trained):
        # zero input noise never changes a label, so no disruptive payload
        # complies and only the unperturbed rows are scored
        net, X = trained
        spec = perturb_spec("ipt", "disruptive", alpha=0.0, beta=0.0, max_resamples=1, seed=8)
        calls, setup, run = self.counted_collect(net, X[:8], "max_sensitivity", spec, K=3)
        scores = run()
        cause = "without usable estimates for max_sensitivity .*: 8 with no compliant payload, 0 "
        with pytest.raises(MetaEvaluationError, match=cause):
            _usable_rows(setup, spec, scores, "max_sensitivity")
        assert calls == [[8, 1]] * len(simple_methods())

    def test_dropped_samples_name_the_estimator_and_the_cause(self, trained):
        # every minor weight payload complies, so the undefined estimates of
        # the odd rows alone drop half the samples
        net, X = trained
        spec = perturb_spec("mpt", "minor", seed=3)

        def odd_rows_undefined(ctx):
            return np.where(ctx.rows % 2 == 1, np.nan, 0.0)

        scorer = Scorer("odd_rows_undefined", "higher_better", odd_rows_undefined)
        cause = (
            "12/24 samples without usable estimates for odd_rows_undefined under mpt/minor "
            r"\(cap 20%\): 0 with no compliant payload, 12 with undefined estimates"
        )
        setup = setup_of(net, X[:24], K=3)
        scores = collect(setup, scorer=scorer, spec=spec)
        with pytest.raises(MetaEvaluationError, match=cause):
            _usable_rows(setup, spec, scores, scorer.estimator_id)

    def test_too_many_undefined_estimates_name_the_estimator(self, trained):
        # each sample keeps its unperturbed and first payload estimate, so no
        # sample is dropped, but half of all estimates are undefined
        net, X = trained
        spec = perturb_spec("mpt", "minor", sigma=0.0, seed=14)
        seen = set()

        def first_payload_only(ctx):
            values = np.zeros(len(ctx.rows))
            if ctx.is_perturbed:
                for b, row in enumerate(ctx.rows):
                    key = (ctx.seed, int(row))
                    values[b] = np.nan if key in seen else 0.0
                    seen.add(key)
            return values

        scorer = Scorer("half_undefined", "higher_better", first_payload_only)
        setup = setup_of(net, X[:8], K=3)
        scores = collect(setup, scorer=scorer, spec=spec)
        with pytest.raises(MetaEvaluationError, match="estimates undefined for half_undefined"):
            _usable_rows(setup, spec, scores, scorer.estimator_id)
        assert len(seen) == 8 * len(simple_methods())

    def test_collect_returns_the_scores_the_cell_rejects(self, trained):
        # no disruptive payload complies, so the cell aborts on the
        # disruptive space; collect itself only scores it
        net, X = trained
        disruptive = perturb_spec("ipt", "disruptive", alpha=0.0, beta=0.0, max_resamples=1)
        templates = {("ipt", "disruptive"): disruptive}
        setup = replace(setup_of(net, X[:8], K=3), perturb_templates=templates)
        cfg = EstimatorConfig(robustness_runs=2)
        spec = replace(disruptive, seed=derive_seed(setup.master_seed, "ipt", 0, "disruptive"))
        scores = collect(setup, scorer=make_scorer("max_sensitivity", cfg), spec=spec)
        assert scores.shape == (8, len(simple_methods()), 1 + 3)
        assert np.isfinite(scores[:, :, 0]).all() and np.isnan(scores[:, :, 1:]).all()
        message = (
            "8/8 samples without usable estimates for max_sensitivity under ipt/disruptive "
            "(cap 20%): 8 with no compliant payload, 0 with undefined estimates; "
            "mean compliance 0.000"
        )
        with pytest.raises(MetaEvaluationError, match=re.escape(message)):
            evaluate_cell(setup, "max_sensitivity", cfg, "ipt")

    @pytest.mark.parametrize("test", ["ipt", "mpt"])
    def test_every_context_carries_the_space_seed(self, trained, test):
        net, X = trained
        spec = perturb_spec(test, "minor", seed=12)
        scorer = make_scorer("sparseness", EstimatorConfig())
        space_seeds = []

        def recording(ctx):
            space_seeds.append(ctx.space_seed)
            return scorer(ctx)

        recorder = Scorer(scorer.estimator_id, scorer.direction, recording)
        collect(setup_of(net, X[:8], K=2), scorer=recorder, spec=spec)
        # the unperturbed call and at least one payload column per method
        assert len(space_seeds) > len(simple_methods())
        assert set(space_seeds) == {spec.seed}

    @pytest.mark.parametrize("test", ["ipt", "mpt"])
    def test_a_samples_rows_get_the_same_draws(self, trained, test):
        # the unperturbed and perturbed rows of a sample read the same
        # entries of their method's estimator streams
        net, X = trained
        spec = perturb_spec(test, "minor", seed=13)
        scorer = make_scorer("sparseness", EstimatorConfig())
        draws = {}  # (method seed, sample) -> the draws of each call

        def recording(ctx):
            table = _sample_draws(ctx, "fc", lambda rng, m: rng.random((m, 3)))
            for row, drawn in zip(ctx.rows, table):
                draws.setdefault((ctx.seed, int(row)), []).append(drawn.tobytes())
            return scorer(ctx)

        recorder = Scorer(scorer.estimator_id, scorer.direction, recording)
        setup = setup_of(net, X[:8], K=3)
        collect(setup, scorer=recorder, spec=spec)
        compliant = setup.space(spec).compliant
        assert len(draws) == 8 * len(simple_methods())
        for (_, row), per_call in draws.items():
            assert len(per_call) == 1 + compliant[row].sum()
            assert len(set(per_call)) == 1

    def test_each_method_gets_its_own_estimator_seed(self, trained):
        # one seed per (space, method): the distribution-shift adversary's
        # iec_nr of about 1/L needs the methods' draws to differ
        net, X = trained
        spec = perturb_spec("ipt", "minor", seed=14)
        scorer = make_scorer("sparseness", EstimatorConfig())
        seeds = []

        def recording(ctx):
            seeds.append(ctx.seed)
            return scorer(ctx)

        recorder = Scorer(scorer.estimator_id, scorer.direction, recording)
        collect(setup_of(net, X[:8], K=2), scorer=recorder, spec=spec)
        per_method = list(dict.fromkeys(seeds))
        assert per_method == [derive_seed(spec.seed, "est", m) for m, _ in simple_methods()]

    @pytest.mark.parametrize("test", ["ipt", "mpt"])
    def test_column_zero_holds_the_unperturbed_rows(self, trained, test):
        # the setup's own net, inputs and explanations, not copies of them
        net, X = trained
        shared = setup_of(net, X[:8], K=2)
        space = shared.space(perturb_spec(test, "minor", seed=15))
        rows = space.held[:, 0]
        assert rows.shape == (8,) and rows.all()
        assert space.held.shape == (8, 1 + 2)
        payload_rows = [np.flatnonzero(space.compliant[:, k]) for k in range(2)]
        for method_id, _ in simple_methods():
            contexts = space.contexts[method_id]
            assert len(contexts) == 1 + 2
            assert contexts[0].net is shared.net and contexts[0].X is shared.inputs
            assert np.array_equal(contexts[0].rows, np.arange(8))
            assert contexts[0].attributions is shared.attributions[method_id]
            for ctx, held in zip(contexts[1:], payload_rows, strict=True):
                assert np.array_equal(ctx.rows, held) if held.size else ctx is None

    @pytest.mark.parametrize(
        "test, strength, window",
        [
            ("ipt", "minor", {}),
            # zero input noise never changes a label: every payload column is empty
            ("ipt", "disruptive", {"alpha": 0.0, "beta": 0.0, "max_resamples": 1}),
            ("mpt", "minor", {}),
            ("mpt", "disruptive", {}),
        ],
        ids=["ipt-minor", "ipt-empty", "mpt-minor", "mpt-disruptive"],
    )
    def test_a_space_does_not_depend_on_method_order(self, trained, test, strength, window):
        net, X = trained
        cfg = ExplainerConfig(seed=11)
        methods = [(m, build_explainer(m, cfg)) for m in ("gradient", "saliency", "input_x_gradient")]
        masks = np.arange(X.shape[1])[None, :] == (np.arange(8) % X.shape[1])[:, None]
        forward = setup_of(net, X[:8], K=3, methods=methods, masks=masks)
        backward = setup_of(net, X[:8], K=3, methods=methods[::-1], masks=masks)
        spec = perturb_spec(test, strength, seed=17, **window)
        a, b = forward.space(spec), backward.space(spec)
        assert a.held.tobytes() == b.held.tobytes()
        assert a.attempts.tobytes() == b.attempts.tobytes()
        if strength == "disruptive" and test == "ipt":
            assert not a.compliant.any()

        def same(x, y):
            return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

        for method_id, _ in methods:
            for ctx_a, ctx_b in zip(a.contexts[method_id], b.contexts[method_id], strict=True):
                assert (ctx_a is None) == (ctx_b is None)
                if ctx_a is None:
                    continue
                assert ctx_a.seed == ctx_b.seed and ctx_a.is_perturbed == ctx_b.is_perturbed
                for name in ("X", "labels", "rows", "masks", "attributions"):
                    assert same(getattr(ctx_a, name), getattr(ctx_b, name)), name
                assert same(get_weights(ctx_a.net), get_weights(ctx_b.net))
        for estimator_id in ("faithfulness_correlation", "relevance_mass_accuracy"):
            scorer = make_scorer(estimator_id, EstimatorConfig(fc_runs=5, fc_subset_size=1))
            scores = collect(forward, scorer=scorer, spec=spec)
            reversed_scores = collect(backward, scorer=scorer, spec=spec)
            assert same(scores, reversed_scores[:, ::-1].copy()), estimator_id

    @pytest.mark.parametrize("test", ["ipt", "mpt"])
    def test_estimators_share_the_spaces_read_only_contexts(self, trained, test, monkeypatch):
        net, X = trained
        inputs, masks = X[:8].copy(), np.ones((8, X.shape[1]), dtype=bool)
        shared = setup_of(net, inputs, K=2, masks=masks)
        spec = perturb_spec(test, "minor", seed=16)
        space = shared.space(spec)
        # once the space is drawn, collect derives no seed: the space holds
        # each method's estimator seed in its contexts
        seeds = []
        monkeypatch.setattr(perturb, "derive_seed", lambda *parts: seeds.append(parts))
        seen = []
        for estimator_id in ("sparseness", "pointing_game"):
            scorer = make_scorer(estimator_id, EstimatorConfig())
            calls = []

            def record(ctx, scorer=scorer, calls=calls):
                calls.append(ctx)
                return scorer(ctx)

            collect(shared, scorer=Scorer(estimator_id, scorer.direction, record), spec=spec)
            seen.append(calls)
        assert seeds == []
        a, b = seen
        assert len(a) == len(b) > len(simple_methods())
        fields = ("rows", "labels", "masks", "attributions")
        for ctx_a, ctx_b in zip(a, b, strict=True):
            for name in fields:
                assert getattr(ctx_a, name) is getattr(ctx_b, name), name
        # every method reads one set of rows, labels and masks per column
        for contexts in zip(*space.contexts.values(), strict=True):
            if contexts[0] is not None:
                for name in fields[:3]:
                    assert len({id(getattr(ctx, name)) for ctx in contexts}) == 1, name
        # column 0's inputs are the setup's own; the payload inputs are the space's
        arrays = [getattr(ctx, name) for ctx in a for name in (*fields, "X")]
        arrays += [shared.inputs, shared.labels, shared.masks]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        # the setup keeps copies, so the caller's arrays stay writable and unchanged
        assert inputs.flags.writeable and masks.flags.writeable
        assert np.array_equal(inputs, X[:8]) and masks.all()
        assert not np.shares_memory(inputs, shared.inputs)

    def test_collect_deterministic(self, trained):
        net, X = trained
        spec = perturb_spec("mpt", "minor", seed=3)
        scorer = make_scorer("complexity", EstimatorConfig())
        a = collect(setup_of(net, X[:6], K=2), scorer=scorer, spec=spec)
        b = collect(setup_of(net, X[:6], K=2), scorer=scorer, spec=spec)
        pairs = zip(method_columns(a), method_columns(b), strict=True)
        for (_, perturbed_a), (_, perturbed_b) in pairs:
            assert np.array_equal(perturbed_a, perturbed_b, equal_nan=True)

    def test_retained_never_enters_with_nan(self, trained):
        net, X = trained
        spec = perturb_spec("ipt", "disruptive", seed=4, max_resamples=10)
        scorer = make_scorer("sparseness", EstimatorConfig())
        setup = setup_of(net, X[:10], K=2)
        scores = collect(setup, scorer=scorer, spec=spec)
        compliant = setup.space(spec).compliant
        for _, perturbed in method_columns(scores):
            assert np.isnan(perturbed[~compliant]).all()
            assert np.isfinite(perturbed[compliant]).all()

    @pytest.mark.parametrize(
        "bad",
        [
            lambda masks: masks[:, :1],  # wrong width
            lambda masks: masks[:-1],  # fewer rows than samples
            lambda masks: np.vstack([masks[:-1], np.zeros((1, masks.shape[1]), dtype=bool)]),
        ],
        ids=["wrong_width", "wrong_rows", "all_false_row"],
    )
    def test_bad_masks_rejected_before_scoring(self, trained, bad):
        net, X = trained
        calls = []
        counted = Scorer("pointing_game", "higher_better", calls.append)
        masks = bad(np.ones((6, X.shape[1]), dtype=bool))
        with pytest.raises(ValueError, match="masks"):
            collect(
                setup_of(net, X[:6], K=1, masks=masks),
                scorer=counted,
                spec=perturb_spec("ipt", "minor", seed=6),
            )
        assert calls == []

    def test_masks_cast_to_bool_rows(self, trained):
        net, X = trained
        seen = []
        scorer = make_scorer("pointing_game", EstimatorConfig())

        def record(ctx):
            seen.extend(ctx.masks)
            return scorer(ctx)

        masks = [[1, 0]] * 6  # int lists, not a bool array
        counted = Scorer(scorer.estimator_id, scorer.direction, record)
        collect(
            setup_of(net, X[:6], K=1, masks=masks),
            scorer=counted,
            spec=perturb_spec("ipt", "minor", seed=6),
        )
        assert seen and all(m.dtype == bool and m.tolist() == [True, False] for m in seen)


# the estimators that draw from their estimator seed, at small sizes
SEEDED_ESTIMATORS = {
    "faithfulness_correlation": EstimatorConfig(fc_runs=10, fc_subset_size=1),
    "pixel_flipping": EstimatorConfig(pf_step_size=1),
    "max_sensitivity": EstimatorConfig(robustness_runs=3),
    "local_lipschitz": EstimatorConfig(robustness_runs=3),
    "random_logit": EstimatorConfig(),
    "adversarial_deterministic": EstimatorConfig(),
    "adversarial_distribution_shift": EstimatorConfig(),
}


@pytest.fixture(scope="module")
def three_classes():
    # D=4 and three classes, so random logit has two other classes to draw
    # from; every third sample, so that all three classes are scored
    rng = np.random.default_rng(8)
    y = np.repeat(np.arange(3), 10)
    X = np.clip(rng.uniform(0.2, 0.8, size=(3, 4))[y] + rng.normal(0, 0.05, size=(30, 4)), 0, 1)
    return train_tiny((8,), X, y, epochs=200, seed=5), X[::3]


class TestSharedDraws:
    @pytest.mark.parametrize(
        "test, strength, window",
        [
            ("ipt", "minor", {}),
            # two draws of a symmetric window leave some payload columns
            # without some samples
            ("ipt", "disruptive", {"alpha": -1.0, "beta": 1.0, "max_resamples": 2}),
            ("mpt", "minor", {}),
            ("mpt", "disruptive", {}),
        ],
        ids=["ipt-minor", "ipt-disruptive", "mpt-minor", "mpt-disruptive"],
    )
    @pytest.mark.parametrize("estimator_id", list(SEEDED_ESTIMATORS))
    def test_collect_scores_as_contexts_that_draw_alone(
        self, three_classes, estimator_id, test, strength, window
    ):
        # the 1 + K contexts of a method share one dict of tables; scoring
        # each with draws=None and kept=None, so that it draws and explains
        # its own, gives the same bits
        net, X = three_classes
        scorer = make_scorer(estimator_id, SEEDED_ESTIMATORS[estimator_id])
        dicts = []

        def sharing(ctx):
            dicts.append(ctx.draws)
            return scorer(ctx)

        def alone(ctx):
            return scorer(replace(ctx, draws=None, kept=None))

        shared = setup_of(net, X, K=3)
        spec = perturb_spec(test, strength, seed=21, **window)
        scores = collect(shared, scorer=Scorer(estimator_id, scorer.direction, sharing), spec=spec)
        oracle = collect(shared, scorer=Scorer(estimator_id, scorer.direction, alone), spec=spec)
        assert np.array_equal(scores[:, :, 0], oracle[:, :, 0], equal_nan=True)
        assert np.array_equal(scores[:, :, 1:], oracle[:, :, 1:], equal_nan=True)
        # one dict per method, holding only that method's seed's tables
        per_method = list({id(d): d for d in dicts}.values())
        seeds = [derive_seed(spec.seed, "est", m) for m, _ in simple_methods()]
        assert [{seed for _, seed in d} for d in per_method] == [{seed} for seed in seeds]

    @pytest.mark.parametrize("estimator_id", list(SEEDED_ESTIMATORS))
    def test_a_dict_reused_under_a_new_seed_draws_that_seeds_tables(
        self, three_classes, estimator_id
    ):
        net, X = three_classes
        scorer = make_scorer(estimator_id, SEEDED_ESTIMATORS[estimator_id])
        shared = setup_of(net, X, K=1)
        method_id, explainer = simple_methods()[0]
        draws = {}
        scores = {}
        for seed in (1, 2, 1):
            ctx = EvalContext(
                net=net,
                X=shared.inputs,
                labels=shared.labels,
                attributions=shared.attributions[method_id],
                explainer=explainer,
                dataset_bounds=(0.0, 1.0),
                rows=np.arange(len(X)),
                seed=seed,
                draws=draws,
            )
            scores[seed] = scorer(ctx)
            assert np.array_equal(scores[seed], scorer(replace(ctx, draws=None)), equal_nan=True)
        assert not np.array_equal(scores[1], scores[2], equal_nan=True)

    def test_a_table_too_short_for_the_rows_is_drawn_again(self):
        draws = {}
        ctx = EvalContext(None, None, None, None, None, (0.0, 1.0), rows=None, seed=4, draws=draws)

        def draw(rng, m):
            return rng.random((m, 2))

        for rows in ([0, 2], [5, 1], [3]):
            ctx.rows = np.array(rows)
            alone = _sample_draws(replace(ctx, draws=None), "t", draw)
            assert np.array_equal(_sample_draws(ctx, "t", draw), alone)
        assert list(draws) == [("t", 4)] and len(draws["t", 4]) == 6
