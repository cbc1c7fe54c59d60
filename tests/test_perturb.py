import numpy as np
import pytest

from xaimeta.errors import MetaEvaluationError, PerturbationInfeasibleError
from xaimeta.estimators import (
    EstimatorConfig,
    EvalContext,
    Scorer,
    make_scorer,
)
from xaimeta.explain import ExplainerConfig, build_explainer
from xaimeta.net import dense, make_net, predict_labels, train_tiny
from xaimeta.perturb import (
    DEFAULT_WINDOWS,
    PerturbSpec,
    PerturbedSpaces,
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
        from xaimeta.net import get_weights

        assert np.array_equal(get_weights(net_hat), get_weights(net))

    def test_sigma_zero_disruptive_infeasible(self, trained):
        net, X = trained
        spec = perturb_spec("mpt", "disruptive", sigma=0.0, max_resamples=4)
        with pytest.raises(PerturbationInfeasibleError):
            mpt_sample(net, X, spec, draw_seed=2, labels=predict_labels(net, X))

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
        from xaimeta.net import get_weights

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


def spaces(net, X, K, methods=None, masks=None):
    """Perturbed spaces of X in [0, 1], by default under the two simple methods."""
    return PerturbedSpaces(
        net, X, methods or simple_methods(), K=K, bounds=(0.0, 1.0), masks=masks
    )


class TestCollect:
    def test_sigma_zero_mpt_equals_unperturbed_column(self, trained):
        net, X = trained
        spec = perturb_spec("mpt", "minor", sigma=0.0, seed=1)
        scorer = make_scorer("sparseness", EstimatorConfig())
        result = collect(spaces(net, X[:8], K=1), scorer=scorer, spec=spec)
        for matrix in result.per_method.values():
            assert np.isfinite(matrix.perturbed).all()
            assert np.allclose(matrix.perturbed[:, 0], matrix.unperturbed, atol=1e-15)

    @pytest.mark.parametrize("test", ["ipt", "mpt"])
    def test_deterministic_adversary_blind_to_perturbation(self, trained, test):
        net, X = trained
        spec = perturb_spec(test, "minor", seed=2)
        scorer = make_scorer("adversarial_deterministic", EstimatorConfig())
        result = collect(spaces(net, X[:8], K=3), scorer=scorer, spec=spec)
        assert result.compliant.any()
        for matrix in result.per_method.values():
            for k in range(3):
                retained = np.isfinite(matrix.perturbed[:, k])
                assert np.array_equal(retained, result.compliant[:, k])
                assert np.array_equal(
                    matrix.perturbed[retained, k], matrix.unperturbed[retained]
                )

    def test_matches_scratch_loop(self, trained):
        # brute-force oracle: recompute every cell with direct calls
        net, X = trained
        X4 = X[:4]
        spec = perturb_spec("ipt", "minor", seed=5)
        cfg = EstimatorConfig(fc_runs=10, fc_subset_size=1)
        scorer = make_scorer("faithfulness_correlation", cfg)
        methods = simple_methods()
        result = collect(spaces(net, X4, K=2, methods=methods), scorer=scorer, spec=spec)

        from xaimeta.estimators import evaluate_faithfulness_correlation

        labels = predict_labels(net, X4)
        for method_id, explainer in methods:
            matrix = result.per_method[method_id]
            # the spaces explain the unperturbed rows in one call, then each
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
            for i in range(4):
                seed_ij = derive_seed(spec.seed, "est", i, method_id)
                ctx = EvalContext(
                    net=net,
                    X=X4[i : i + 1],
                    labels=labels[i : i + 1],
                    attributions=base[i : i + 1],
                    explainer=explainer,
                    dataset_bounds=(0.0, 1.0),
                    seeds=[seed_ij],
                )
                (expected,) = evaluate_faithfulness_correlation(ctx, cfg)
                assert matrix.unperturbed[i] == expected
                for k in range(2):
                    case = cases[k][i]
                    assert case.compliant == result.compliant[i, k]
                    if not case.compliant:
                        continue
                    ctx = EvalContext(
                        net=net,
                        X=case.payload[None, :],
                        labels=labels[i : i + 1],
                        attributions=columns[k][i][None, :],
                        explainer=explainer,
                        dataset_bounds=(0.0, 1.0),
                        seeds=[seed_ij],
                        is_perturbed=True,
                    )
                    (expected,) = evaluate_faithfulness_correlation(ctx, cfg)
                    assert matrix.perturbed[i, k] == expected

    @staticmethod
    def counted_collect(net, X, estimator_id, spec, K):
        """collect with counters: per scorer call, the rows it scored and the
        explainer calls made inside it."""
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
            calls.append([len(ctx.seeds), 0])
            inside.append(True)
            try:
                return scorer(ctx)
            finally:
                inside.pop()

        methods = [(method_id, count(explainer)) for method_id, explainer in simple_methods()]
        counted = Scorer(scorer.estimator_id, scorer.direction, scoring)
        return calls, lambda: collect(spaces(net, X, K=K, methods=methods), scorer=counted, spec=spec)

    @pytest.mark.parametrize("test", ["ipt", "mpt"])
    @pytest.mark.parametrize("estimator_id", ["max_sensitivity", "local_lipschitz", "random_logit"])
    def test_one_scorer_call_per_column_one_explainer_call_per_scorer_call(
        self, trained, test, estimator_id
    ):
        net, X = trained
        spec = perturb_spec(test, "minor", seed=7)
        calls, run = self.counted_collect(net, X[:8], estimator_id, spec, K=3)
        result = run()
        columns = result.compliant.sum(axis=0)
        expected_rows = [8, *columns[columns > 0].tolist()]
        assert [rows for rows, _ in calls] == expected_rows * len(result.per_method)
        assert [explained for _, explained in calls] == [1] * len(calls)

    def test_empty_columns_are_not_scored(self, trained):
        # zero input noise never changes a label, so no disruptive payload
        # complies and only the unperturbed rows are scored
        net, X = trained
        spec = perturb_spec("ipt", "disruptive", alpha=0.0, beta=0.0, max_resamples=1, seed=8)
        calls, run = self.counted_collect(net, X[:8], "max_sensitivity", spec, K=3)
        with pytest.raises(MetaEvaluationError, match="without usable estimates"):
            run()
        assert calls == [[8, 1]] * len(simple_methods())

    def test_collect_deterministic(self, trained):
        net, X = trained
        spec = perturb_spec("mpt", "minor", seed=3)
        scorer = make_scorer("complexity", EstimatorConfig())
        a = collect(spaces(net, X[:6], K=2), scorer=scorer, spec=spec)
        b = collect(spaces(net, X[:6], K=2), scorer=scorer, spec=spec)
        for method_id in a.per_method:
            assert np.array_equal(
                a.per_method[method_id].perturbed, b.per_method[method_id].perturbed, equal_nan=True
            )

    def test_retained_never_enters_with_nan(self, trained):
        net, X = trained
        spec = perturb_spec("ipt", "disruptive", seed=4, max_resamples=10)
        scorer = make_scorer("sparseness", EstimatorConfig())
        result = collect(spaces(net, X[:10], K=2), scorer=scorer, spec=spec)
        for matrix in result.per_method.values():
            assert np.isnan(matrix.perturbed[~result.compliant]).all()
            assert np.isfinite(matrix.perturbed[result.compliant]).all()

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
                spaces(net, X[:6], K=1, masks=masks),
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
            spaces(net, X[:6], K=1, masks=masks),
            scorer=counted,
            spec=perturb_spec("ipt", "minor", seed=6),
        )
        assert seen and all(m.dtype == bool and m.tolist() == [True, False] for m in seen)
