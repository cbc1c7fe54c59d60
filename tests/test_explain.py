import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xaimeta import explain
from xaimeta.explain import (
    ALL_METHODS,
    ExplainerConfig,
    build_explainer,
    explain_gradient,
    explain_gradient_shap,
    explain_input_x_gradient,
    explain_integrated_gradients,
    explain_occlusion,
    explain_saliency,
    normalize,
)
from xaimeta.net import dense, input_gradient_batch, logits_batch, make_net


def random_net(rng, input_dim=4, hidden=6, num_classes=3):
    return make_net(
        [
            dense(rng.normal(size=(hidden, input_dim)), rng.normal(size=hidden)),
            dense(rng.normal(size=(num_classes, hidden)), rng.normal(size=num_classes)),
        ]
    )


def linear_net(W):
    W = np.asarray(W, dtype=float)
    return make_net([dense(W, np.zeros(W.shape[0]))])


CFG = ExplainerConfig()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"ig_baseline": math.nan}, "ig_baseline must be finite"),
        ({"occlusion_baseline": math.inf}, "occlusion_baseline must be finite"),
        ({"shap_noise_std": math.nan}, "shap_noise_std must be finite"),
        ({"shap_noise_std": math.inf}, "shap_noise_std must be finite"),
        ({"shap_noise_std": -1.0}, "shap_noise_std must be >= 0"),
    ],
)
def test_config_rejects_non_finite_settings(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ExplainerConfig(**kwargs)


def test_config_accepts_zero_shap_noise():
    assert ExplainerConfig(shap_noise_std=0.0).shap_noise_std == 0.0


class TestGradientFamily:
    def test_gradient_on_linear_model_is_weight_row(self):
        W = [[1.0, 2.0, -3.0], [0.5, 0.0, 1.0]]
        a = explain_gradient(linear_net(W), [[0.1, 0.2, 0.3]], 1)[0]
        assert a.tolist() == [0.5, 0.0, 1.0]

    def test_gradient_zero_net_is_zero_map(self):
        net = linear_net(np.zeros((2, 3)))
        a = explain_gradient(net, [[1.0, 1.0, 1.0]], 0)[0]
        assert not a.any()

    def test_saliency_is_absolute_gradient(self):
        W = [[-1.0, 2.0], [0.0, 0.0]]
        a = explain_saliency(linear_net(W), [[0.5, 0.5]], 0)[0]
        assert a.tolist() == [1.0, 2.0]

    def test_saliency_nonnegative_on_random_nets(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            net = random_net(rng)
            x = rng.normal(size=4)
            assert (explain_saliency(net, x[None, :], 0) >= 0).all()

    def test_input_x_gradient_composition(self):
        rng = np.random.default_rng(1)
        net = random_net(rng)
        x = rng.normal(size=4)
        a = explain_input_x_gradient(net, x[None, :], 2)[0]
        assert np.allclose(a, x * input_gradient_batch(net, x[None, :], 2)[0], atol=1e-15)

    def test_input_x_gradient_zero_input(self):
        rng = np.random.default_rng(2)
        net = random_net(rng)
        assert not explain_input_x_gradient(net, np.zeros((1, 4)), 0).any()


class TestIntegratedGradients:
    def test_exact_on_linear_model_any_steps(self):
        W = [[2.0, -1.0, 0.5], [0.0, 1.0, 0.0]]
        x = np.array([0.2, 0.4, 0.8])
        for steps in (1, 3, 16):
            cfg = ExplainerConfig(ig_steps=steps)
            a = explain_integrated_gradients(linear_net(W), x[None, :], 0, cfg)[0]
            assert np.allclose(a, np.array(W[0]) * x, atol=1e-12)

    def test_x_equals_baseline_gives_zero(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        a = explain_integrated_gradients(net, np.zeros((1, 4)), 1, ExplainerConfig(ig_baseline=0.0))
        assert not a.any()

    def test_completeness_at_128_steps(self):
        # zero hidden bias keeps the path from the zero baseline kink-free
        # (pre-activations scale linearly along it), mirroring the
        # away-from-kinks condition of the finite-difference check
        rng = np.random.default_rng(4)
        cfg = ExplainerConfig(ig_steps=128)
        checked = 0
        while checked < 20:
            net = make_net(
                [
                    dense(rng.normal(size=(6, 4)), np.zeros(6)),
                    dense(rng.normal(size=(3, 6)), rng.normal(size=3)),
                ]
            )
            x = rng.normal(size=4)
            a = explain_integrated_gradients(net, x[None, :], 0, cfg)[0]
            gap = logits_batch(net, x[None, :])[0, 0] - logits_batch(net, np.zeros((1, 4)))[0, 0]
            if abs(gap) < 1e-3:
                continue
            assert abs(a.sum() - gap) / abs(gap) <= 1e-3
            checked += 1

    def test_completeness_error_shrinks_with_steps_on_biased_nets(self):
        # with biases, relu kinks sit inside the path and the midpoint rule
        # converges at O(1/steps); check the error actually contracts
        rng = np.random.default_rng(14)
        worse = better = 0.0
        for _ in range(30):
            net = random_net(rng)
            x = rng.normal(size=4)
            gap = logits_batch(net, x[None, :])[0, 0] - logits_batch(net, np.zeros((1, 4)))[0, 0]
            e_lo = abs(
                explain_integrated_gradients(net, x[None, :], 0, ExplainerConfig(ig_steps=8)).sum()
                - gap
            )
            e_hi = abs(
                explain_integrated_gradients(net, x[None, :], 0, ExplainerConfig(ig_steps=512)).sum()
                - gap
            )
            worse += e_lo
            better += e_hi
        assert better < worse / 10


class TestOcclusion:
    def test_sum_model_two_feature_patch(self):
        # f = x1 + x2 + x3 + x4; patch {x1, x2} drop = x1 + x2 for both
        net = linear_net([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        x = np.array([0.5, 0.25, 0.75, 1.0])
        a = explain_occlusion(net, x[None, :], 0, ExplainerConfig(occlusion_patch=2))[0]
        assert a[0] == a[1] == pytest.approx(0.75, abs=1e-12)
        assert a[2] == a[3] == pytest.approx(1.75, abs=1e-12)

    def test_constant_model_zero_map(self):
        net = linear_net(np.zeros((2, 4)))
        a = explain_occlusion(net, np.ones((1, 4)), 0, ExplainerConfig(occlusion_patch=2))[0]
        assert not a.any()

    def test_single_feature_patches_on_linear_model(self):
        W = [[1.5, -2.0, 0.25], [0.0, 0.0, 0.0]]
        x = np.array([0.4, 0.6, 0.8])
        a = explain_occlusion(linear_net(W), x[None, :], 0, ExplainerConfig(occlusion_patch=1))[0]
        assert np.allclose(a, np.array(W[0]) * x, atol=1e-12)

    def test_ragged_final_patch(self):
        net = linear_net([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        x = np.array([1.0, 1.0, 1.0])
        a = explain_occlusion(net, x[None, :], 0, ExplainerConfig(occlusion_patch=2))[0]
        assert a[:2].tolist() == [2.0, 2.0]
        assert a[2] == 1.0


class TestGradientShap:
    def test_linear_model_mean_baseline_identity(self):
        W = [[1.0, -1.0], [2.0, 0.5]]
        x = np.array([0.3, 0.9])
        cfg = ExplainerConfig(shap_samples=200, shap_noise_std=0.05, seed=5)
        a = explain_gradient_shap(linear_net(W), x[None, :], 0, cfg)[0]
        # grad is constant w, so the map is w * (x - mean of baselines)
        from xaimeta.seeding import derive_rng

        rng = derive_rng("gradient_shap", cfg.seed)
        baselines = rng.uniform(0.0, 1.0, size=(cfg.shap_samples, 2))
        baselines = baselines + rng.normal(0.0, cfg.shap_noise_std, size=baselines.shape)
        expected = np.array(W[0]) * (x - baselines.mean(axis=0))
        assert np.allclose(a, expected, atol=1e-12)

    def test_converges_with_zero_mean_baselines(self):
        # symmetric bounds make the baseline mean zero, so the map -> w * x
        W = [[1.0, -0.5, 2.0], [0.0, 0.0, 0.0]]
        x = np.array([0.25, 0.5, -0.75])
        cfg = ExplainerConfig(
            shap_samples=4000, shap_noise_std=0.1, shap_bounds=(-1.0, 1.0), seed=6
        )
        a = explain_gradient_shap(linear_net(W), x[None, :], 0, cfg)[0]
        assert np.allclose(a, np.array(W[0]) * x, atol=0.05)

    def test_same_seed_identical_map(self):
        rng = np.random.default_rng(7)
        net = random_net(rng)
        x = rng.normal(size=4)
        cfg = ExplainerConfig(seed=99)
        a = explain_gradient_shap(net, x[None, :], 0, cfg)
        b = explain_gradient_shap(net, x[None, :], 0, cfg)
        assert np.array_equal(a, b)


class TestNormalize:
    def test_hand_example(self):
        a = normalize(np.array([[3.0, 4.0]]))[0]
        denom = math.sqrt(12.5)
        assert a[0] == pytest.approx(3.0 / denom, abs=1e-12)
        assert a[1] == pytest.approx(4.0 / denom, abs=1e-12)
        assert a[0] == pytest.approx(0.84853, abs=1e-5)
        assert a[1] == pytest.approx(1.13137, abs=1e-5)
        assert np.mean(a**2) == pytest.approx(1.0, abs=1e-12)

    def test_constant_map_becomes_ones(self):
        a = normalize(np.full((1, 5), 7.0))[0]
        assert np.allclose(a, np.ones(5), atol=1e-15)

    def test_zero_map_unchanged(self):
        a = normalize(np.zeros((1, 4)))
        assert a.shape == (1, 4)
        assert not a.any()

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = normalize(rng.normal(size=(1, 6)))
            b = normalize(a)
            assert np.allclose(a, b, atol=1e-12)

    def test_preserves_sign_and_argmax(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = rng.normal(size=6)
            a = normalize(v[None, :])[0]
            assert np.array_equal(np.sign(a), np.sign(v))
            assert np.argmax(np.abs(a)) == np.argmax(np.abs(v))

    def test_mean_square_is_one(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = normalize(rng.normal(size=(1, 8)))[0]
            assert np.mean(a**2) == pytest.approx(1.0, abs=1e-9)


class TestBuildExplainer:
    def test_wraps_and_normalizes(self):
        rng = np.random.default_rng(11)
        net = random_net(rng)
        x = rng.normal(size=4)
        fn = build_explainer("gradient", CFG)
        a = fn(net, x[None, :], 0)[0]
        raw = explain_gradient(net, x[None, :], 0)[0]
        if raw.any():
            assert np.array_equal(a, raw / np.sqrt(np.mean(raw**2)))
            assert np.mean(a**2) == pytest.approx(1.0, abs=1e-9)

    def test_unknown_method_rejected(self):
        with pytest.raises(KeyError):
            build_explainer("lime", CFG)

    def test_determinism_across_methods(self):
        rng = np.random.default_rng(12)
        net = random_net(rng)
        x = rng.normal(size=4)
        for method in (
            "gradient",
            "saliency",
            "input_x_gradient",
            "integrated_gradients",
            "occlusion",
            "gradient_shap",
        ):
            fn = build_explainer(method, ExplainerConfig(seed=4))
            assert np.array_equal(fn(net, x[None, :], 1), fn(net, x[None, :], 1))


@st.composite
def batches(draw):
    """A random relu net and a (B, D) batch in [0, 1] with mixed per-row labels."""
    d = draw(st.integers(1, 9))
    classes = draw(st.integers(2, 4))
    b = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = random_net(rng, input_dim=d, hidden=draw(st.integers(1, 8)), num_classes=classes)
    X = rng.uniform(0.0, 1.0, size=(b, d))
    labels = np.array(draw(st.lists(st.integers(0, classes - 1), min_size=b, max_size=b)))
    return net, X, labels


BATCH_CFG = ExplainerConfig(ig_steps=7, occlusion_patch=2, shap_samples=3, seed=3)


class TestBatchContract:
    @settings(max_examples=40, deadline=None)
    @given(batches())
    def test_batched_rows_equal_single_row_calls(self, batch):
        net, X, labels = batch
        for method_id in ALL_METHODS:
            fn = build_explainer(method_id, BATCH_CFG)
            maps = fn(net, X, labels)
            assert maps.shape == X.shape
            for i in range(X.shape[0]):
                single = fn(net, X[i : i + 1], labels[i])
                np.testing.assert_allclose(maps[i], single[0], rtol=0, atol=1e-12, err_msg=method_id)

    @settings(max_examples=40, deadline=None)
    @given(batches())
    def test_gradient_and_saliency_share_magnitudes(self, batch):
        net, X, labels = batch
        gradient = build_explainer("gradient", BATCH_CFG)(net, X, labels)
        saliency = build_explainer("saliency", BATCH_CFG)(net, X, labels)
        assert np.array_equal(np.abs(gradient), saliency)

    @given(st.integers(1, 6), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_zero_rows_pass_through_normalization(self, b, d, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(b, d))
        zero = rng.uniform(size=b) < 0.5
        values[zero] = 0.0
        out = normalize(values)
        assert np.array_equal(out[zero], values[zero])
        for row, raw in zip(out[~zero], values[~zero]):
            assert np.array_equal(row, raw / np.sqrt(np.mean(raw**2)))

    def test_row_chunks_match_one_chunk(self, monkeypatch):
        rng = np.random.default_rng(21)
        net = random_net(rng)
        X = rng.uniform(size=(7, 4))
        labels = rng.integers(0, 3, size=7)
        whole = {m: build_explainer(m, BATCH_CFG)(net, X, labels) for m in ALL_METHODS}
        monkeypatch.setattr(explain, "_CHUNK_ELEMENTS", 8)  # one or two rows per chunk
        for method_id, expected in whole.items():
            chunked = build_explainer(method_id, BATCH_CFG)(net, X, labels)
            np.testing.assert_allclose(chunked, expected, rtol=0, atol=1e-12, err_msg=method_id)

    @pytest.mark.parametrize("label", [-1, 3])
    @pytest.mark.parametrize("method_id", list(ALL_METHODS))
    def test_a_label_outside_the_classes_is_an_index_error(self, method_id, label):
        # a three-class net; the synthetic methods check the labels they never read
        rng = np.random.default_rng(22)
        net = random_net(rng)
        X = rng.uniform(size=(4, 4))
        fn = build_explainer(method_id, BATCH_CFG)
        for labels in (label, np.array([0, 1, label, 2])):
            with pytest.raises(IndexError, match=r"outside \[0, 3\)"):
                fn(net, X, labels)

    @pytest.mark.parametrize("method_id", list(ALL_METHODS))
    def test_a_batch_of_the_wrong_width_or_not_finite_is_a_value_error(self, method_id):
        rng = np.random.default_rng(23)
        net = random_net(rng)  # four input features
        fn = build_explainer(method_id, BATCH_CFG)
        for width in (3, 5):
            with pytest.raises(ValueError, match="does not match input_dim 4"):
                fn(net, rng.uniform(size=(2, width)), 0)
        with pytest.raises(ValueError, match="inputs must be finite"):
            fn(net, np.array([[0.5, np.nan, 0.5, 0.5]]), 0)

    def test_scalar_label_is_shared_by_every_row(self):
        rng = np.random.default_rng(19)
        net = random_net(rng)
        X = rng.uniform(size=(5, 4))
        fn = build_explainer("integrated_gradients", BATCH_CFG)
        assert np.array_equal(fn(net, X, 2), fn(net, X, np.full(5, 2)))

    def test_rejects_a_single_vector(self):
        rng = np.random.default_rng(20)
        net = random_net(rng)
        for method_id in ALL_METHODS:
            with pytest.raises(ValueError):
                build_explainer(method_id, BATCH_CFG)(net, np.zeros(4), 0)
