import numpy as np
import pytest

from xaimeta.errors import PerturbationInfeasibleError
from xaimeta.estimators import (
    EstimatorConfig,
    EvalContext,
    make_scorer,
)
from xaimeta.explain import Attribution, ExplainerConfig, build_explainer
from xaimeta.net import dense, make_net, predict_labels, train_tiny
from xaimeta.perturb import (
    PerturbSpec,
    collect,
    input_spec,
    ipt_sample,
    model_spec,
    mpt_draw,
    mpt_sample,
)
from xaimeta.seeding import derive_seed


def threshold_net():
    # label 1 iff x > 0.5 (1-D input, 2 classes)
    return make_net([dense([[0.0], [10.0]], [0.0, -5.0])])


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


class TestIptSample:
    def test_zero_window_minor_complies_immediately(self, trained):
        net, X = trained
        spec = input_spec("minor", alpha=0.0, beta=0.0)
        case = ipt_sample(net, X[0], spec, draw_seed=1, bounds=(0.0, 1.0))
        assert case.compliant and case.attempts == 1
        assert np.array_equal(case.payload, X[0])

    def test_disruptive_threshold_crossing(self):
        net = threshold_net()
        spec = input_spec("disruptive", alpha=0.0, beta=1.0)
        case = ipt_sample(net, np.array([0.1]), spec, draw_seed=2, bounds=(0.0, 1.0))
        assert case.compliant
        assert case.payload[0] > 0.5

    def test_clipping_to_bounds(self):
        net = threshold_net()
        spec = input_spec("minor", alpha=0.2, beta=0.2)
        case = ipt_sample(net, np.array([0.9]), spec, draw_seed=3, bounds=(0.0, 1.0))
        assert case.payload[0] == 1.0

    def test_noncompliance_is_data_not_error(self):
        net = threshold_net()
        # zero noise can never flip the label
        spec = input_spec("disruptive", alpha=0.0, beta=0.0, max_resamples=5)
        case = ipt_sample(net, np.array([0.1]), spec, draw_seed=4, bounds=(0.0, 1.0))
        assert not case.compliant
        assert case.attempts == 5

    def test_minor_payloads_keep_label(self, trained):
        net, X = trained
        spec = input_spec("minor")
        for i in range(10):
            case = ipt_sample(net, X[i], spec, draw_seed=i, bounds=(0.0, 1.0))
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
            minor = ipt_sample(net, X[i], input_spec("minor"), draw_seed=i, bounds=(0.0, 1.0))
            if minor.compliant:
                assert predict_labels(net, minor.payload[None, :])[0] == original[i]
            spec = input_spec("disruptive", alpha=-1.0, beta=1.0)
            disruptive = ipt_sample(net, X[i], spec, draw_seed=i, bounds=(0.0, 1.0))
            if disruptive.compliant:
                assert predict_labels(net, disruptive.payload[None, :])[0] != original[i]

    def test_compliance_monotone_in_max_resamples(self, trained):
        net, X = trained
        for i in range(8):
            small = input_spec("disruptive", max_resamples=3)
            large = input_spec("disruptive", max_resamples=30)
            a = ipt_sample(net, X[i], small, draw_seed=i, bounds=(0.0, 1.0))
            b = ipt_sample(net, X[i], large, draw_seed=i, bounds=(0.0, 1.0))
            if a.compliant:
                assert b.compliant
                assert np.array_equal(a.payload, b.payload)


class TestMptSample:
    def test_sigma_zero_minor_keeps_model(self, trained):
        net, X = trained
        spec = model_spec("minor", sigma=0.0)
        net_hat, compliant, attempts = mpt_sample(net, X, spec, draw_seed=1)
        assert compliant.all() and attempts == 1
        from xaimeta.net import get_weights

        assert np.array_equal(get_weights(net_hat), get_weights(net))

    def test_sigma_zero_disruptive_infeasible(self, trained):
        net, X = trained
        spec = model_spec("disruptive", sigma=0.0, max_resamples=4)
        with pytest.raises(PerturbationInfeasibleError):
            mpt_sample(net, X, spec, draw_seed=2)

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
        spec = model_spec("disruptive", sigma=100.0)
        _, compliant, _ = mpt_sample(net, X, spec, draw_seed=3)
        assert compliant.mean() >= 0.8

    def test_draw_is_multiplicative(self, trained):
        net, _ = trained
        from xaimeta.net import get_weights

        spec = model_spec("minor", sigma=0.5)
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


class TestCollect:
    def test_sigma_zero_mpt_equals_unperturbed_column(self, trained):
        net, X = trained
        spec = model_spec("minor", sigma=0.0, seed=1)
        scorer = make_scorer("sparseness", EstimatorConfig())
        result = collect(net, X[:8], simple_methods(), scorer, spec, K=1, bounds=(0.0, 1.0))
        for matrix in result.per_method.values():
            assert matrix.retained.all()
            assert np.allclose(matrix.perturbed[:, 0], matrix.unperturbed, atol=1e-15)

    def test_deterministic_adversary_blind_to_perturbation(self, trained):
        net, X = trained
        spec = input_spec("minor", seed=2)
        scorer = make_scorer("adversarial_deterministic", EstimatorConfig(), n_samples=8, state_seed=9)
        result = collect(net, X[:8], simple_methods(), scorer, spec, K=3, bounds=(0.0, 1.0))
        for matrix in result.per_method.values():
            for k in range(3):
                retained = matrix.retained[:, k]
                assert np.array_equal(
                    matrix.perturbed[retained, k], matrix.unperturbed[retained]
                )

    def test_matches_scratch_loop(self, trained):
        # brute-force oracle: recompute every cell with direct calls
        net, X = trained
        X4 = X[:4]
        spec = input_spec("minor", seed=5)
        cfg = EstimatorConfig(fc_runs=10, fc_subset_size=1)
        scorer = make_scorer("faithfulness_correlation", cfg)
        methods = simple_methods()
        result = collect(net, X4, methods, scorer, spec, K=2, bounds=(0.0, 1.0))

        from xaimeta.estimators import evaluate_faithfulness_correlation

        labels = predict_labels(net, X4)
        for method_id, explainer in methods:
            matrix = result.per_method[method_id]
            # collect explains the unperturbed rows in one call, then each
            # payload column's compliant rows in one call; replay those calls
            base = explainer(net, X4, labels)
            cases = [
                [
                    ipt_sample(net, X4[i], spec, derive_seed(spec.seed, "ipt", k, i), (0.0, 1.0))
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
                    x=X4[i],
                    label=int(labels[i]),
                    attribution=Attribution(base[i], method_id),
                    explainer=explainer,
                    dataset_bounds=(0.0, 1.0),
                    seed=seed_ij,
                    sample_index=i,
                )
                expected = evaluate_faithfulness_correlation(ctx, cfg)
                assert matrix.unperturbed[i] == expected.value
                for k in range(2):
                    case = cases[k][i]
                    assert case.compliant == result.compliant[i, k]
                    if not case.compliant:
                        continue
                    ctx = EvalContext(
                        net=net,
                        x=case.payload,
                        label=int(labels[i]),
                        attribution=Attribution(columns[k][i], method_id),
                        explainer=explainer,
                        dataset_bounds=(0.0, 1.0),
                        seed=seed_ij,
                        sample_index=i,
                    )
                    expected = evaluate_faithfulness_correlation(ctx, cfg)
                    assert matrix.perturbed[i, k] == expected.value

    def test_collect_deterministic(self, trained):
        net, X = trained
        spec = model_spec("minor", seed=3)
        scorer = make_scorer("complexity", EstimatorConfig())
        a = collect(net, X[:6], simple_methods(), scorer, spec, K=2, bounds=(0.0, 1.0))
        b = collect(net, X[:6], simple_methods(), scorer, spec, K=2, bounds=(0.0, 1.0))
        for method_id in a.per_method:
            assert np.array_equal(
                a.per_method[method_id].perturbed, b.per_method[method_id].perturbed, equal_nan=True
            )

    def test_retained_never_enters_with_nan(self, trained):
        net, X = trained
        spec = input_spec("disruptive", seed=4, max_resamples=10)
        scorer = make_scorer("sparseness", EstimatorConfig())
        result = collect(net, X[:10], simple_methods(), scorer, spec, K=2, bounds=(0.0, 1.0))
        for matrix in result.per_method.values():
            assert np.isfinite(matrix.perturbed[matrix.retained]).all()
            assert np.isnan(matrix.perturbed[~matrix.retained]).all()
