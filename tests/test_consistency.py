import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from xaimeta.consistency import (
    BenchmarkSetup,
    evaluate_cell,
    iac,
    iec_disruptive,
    iec_minor,
    meta_vector,
    run_meta_evaluation,
)
from xaimeta.errors import MetaEvaluationError
from xaimeta.estimators import EstimatorConfig
from xaimeta.explain import ExplainerConfig, build_explainer
from xaimeta.net import train_tiny
from xaimeta.perturb import model_spec


class TestIac:
    def test_identical_columns_give_one(self):
        u = np.array([0.1, 0.5, 0.9, 0.3])
        p = np.column_stack([u, u])
        assert iac(u, p, np.ones((4, 2), dtype=bool)) == 1.0

    def test_large_shift_small_p(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=30)
        p = (u + 1000.0)[:, None]
        assert iac(u, p, np.ones((30, 1), dtype=bool)) < 1e-3

    def test_mean_of_column_p_values(self):
        # column 1 identical (p = 1.0); column 2 leaves differences [1, 2]
        # whose exact two-sided p is 0.5 -> IAC = 0.75
        u = np.array([1.0, 1.0])
        p = np.column_stack([u, np.array([0.0, -1.0])])
        assert iac(u, p, np.ones((2, 2), dtype=bool)) == pytest.approx(0.75, abs=1e-12)

    def test_unretained_pairs_excluded(self):
        u = np.array([1.0, 2.0, 3.0, 100.0])
        p = np.column_stack([np.array([1.0, 2.0, 3.0, -50.0])])
        retained = np.array([[True], [True], [True], [False]])
        assert iac(u, p, retained) == 1.0

    def test_all_columns_degenerate_errors(self):
        u = np.array([1.0, 2.0])
        p = np.ones((2, 1))
        retained = np.zeros((2, 1), dtype=bool)
        with pytest.raises(MetaEvaluationError):
            iac(u, p, retained)


class TestIecMinor:
    def test_identical_matrices_give_one(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(6, 4))
        assert iec_minor(q, q.copy()) == 1.0

    def test_reversed_rows_keep_middle_rank(self):
        q = np.array([[3.0, 2.0, 1.0]])
        assert iec_minor(q, q[:, ::-1]) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_invariant_under_shared_monotone_transform(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = rng.normal(size=(5, 3))
            qm = rng.normal(size=(5, 3))
            base = iec_minor(q, qm)
            assert iec_minor(np.exp(q), np.exp(qm)) == pytest.approx(base, abs=1e-12)
            assert iec_minor(3 * q + 1, 3 * qm + 1) == pytest.approx(base, abs=1e-12)

    def test_needs_two_methods(self):
        with pytest.raises(ValueError):
            iec_minor(np.ones((3, 1)), np.ones((3, 1)))


class TestIecDisruptive:
    def test_all_strictly_lower_higher_better(self):
        q = np.full((4, 3), 0.8)
        qd = np.full((4, 3), 0.2)
        assert iec_disruptive(q, qd, lower_better=False) == 1.0

    def test_all_strictly_higher_lower_better(self):
        q = np.full((4, 3), 0.2)
        qd = np.full((4, 3), 0.9)
        assert iec_disruptive(q, qd, lower_better=True) == 1.0

    def test_exact_ties_score_zero(self):
        q = np.full((4, 3), 0.5)
        assert iec_disruptive(q, q.copy(), lower_better=False) == 0.0
        assert iec_disruptive(q, q.copy(), lower_better=True) == 0.0

    def test_invariant_under_shared_positive_affine(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = rng.normal(size=(5, 3))
            qd = rng.normal(size=(5, 3))
            base = iec_disruptive(q, qd)
            assert iec_disruptive(2.5 * q + 7, 2.5 * qd + 7) == base


class TestMetaVector:
    def test_optimal_vector(self):
        v = meta_vector(1.0, 0.0, 1.0, 1.0)
        assert v.entries().tolist() == [1.0, 1.0, 1.0, 1.0]
        assert v.mc == 1.0

    def test_worst_vector(self):
        v = meta_vector(0.0, 1.0, 0.0, 0.0)
        assert v.mc == 0.0

    def test_halves(self):
        assert meta_vector(0.5, 0.5, 0.5, 0.5).mc == 0.5

    def test_mc_is_mean_of_stored_entries(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            e = rng.uniform(size=4)
            v = meta_vector(e[0], e[1], e[2], e[3])
            assert v.mc == pytest.approx(float(np.mean(v.entries())), abs=1e-12)


@st.composite
def score_matrices(draw):
    """Unperturbed, minor-perturbed and disruptive (N, L) score matrices."""
    shape = (draw(st.integers(2, 8)), draw(st.integers(2, 4)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return tuple(draw(arrays(np.float64, shape, elements=finite)) for _ in range(3))


def _monotone_examples():
    # the inputs of the IEC invariance tests above, transformed as they are there
    rng = np.random.default_rng(2)
    q, qm = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    rng = np.random.default_rng(3)
    qd = rng.normal(size=(5, 3))
    return [(np.exp(q), np.exp(qm), np.exp(qd)), (2.5 * q + 7, 2.5 * qm + 7, 2.5 * qd + 7)]


class TestCriteriaProperties:
    @settings(max_examples=200, deadline=None)
    @given(score_matrices(), st.booleans())
    @example(_monotone_examples()[0], False)
    @example(_monotone_examples()[1], True)
    @example((np.full((4, 3), 0.5),) * 3, False)
    def test_entries_and_mc_in_unit_interval(self, matrices, lower_better):
        # method 0's unperturbed scores against the L columns as K draws
        q, qm, qd = matrices
        retained = np.ones(qm.shape, dtype=bool)
        v = meta_vector(
            iac(q[:, 0], qm, retained),
            iac(q[:, 0], qd, retained),
            iec_minor(q, qm),
            iec_disruptive(q, qd, lower_better),
        )
        assert all(0.0 <= e <= 1.0 for e in v.entries()), v
        assert 0.0 <= v.mc <= 1.0


def multiclass_blobs(n=48, d=8, classes=6, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.15, 0.85, size=(classes, d))
    per = n // classes
    X = np.clip(
        np.repeat(centers, per, axis=0) + rng.normal(0, 0.04, size=(per * classes, d)),
        0.0,
        1.0,
    )
    y = np.repeat(np.arange(classes), per)
    return X, y


def synthetic_method_set():
    cfg = ExplainerConfig(seed=1)
    return [
        (name, build_explainer(name, cfg))
        for name in (
            "synthetic_flat",
            "synthetic_input",
            "synthetic_negative",
            "synthetic_noise",
        )
    ]


@pytest.fixture(scope="module")
def small_setup():
    X, y = multiclass_blobs()
    net = train_tiny((16,), X, y, epochs=20, seed=3)
    return BenchmarkSetup(
        net=net,
        inputs=X,
        bounds=(0.0, 1.0),
        methods=synthetic_method_set(),
        estimators=[],
        tests=["ipt", "mpt"],
        K=3,
        iterations=2,
        master_seed=11,
        dataset_mean=float(X.mean()),
    )


class TestEndToEnd:
    def test_deterministic_adversary_exact_vector(self, small_setup):
        for test in ("ipt", "mpt"):
            cell = evaluate_cell(
                small_setup, "adversarial_deterministic", EstimatorConfig(), test
            )
            assert cell.mean.iac_nr == 1.0
            assert cell.mean.iac_ar == 0.0
            assert cell.mean.iec_nr == 1.0
            assert cell.mean.iec_ar == 0.0
            assert cell.mean.mc == 0.5
            assert all(s == 0.0 for s in cell.std.values())

    def test_distribution_shift_adversary(self, small_setup):
        cell = evaluate_cell(
            small_setup, "adversarial_distribution_shift", EstimatorConfig(), "ipt"
        )
        assert cell.mean.iac_nr <= 0.05
        assert cell.mean.iac_ar >= 0.95
        assert abs(cell.mean.iec_nr - 0.25) <= 0.05
        assert cell.mean.iec_ar == 0.0

    def test_real_estimator_identity_perturbation_gives_iac_one(self, small_setup):
        setup = BenchmarkSetup(
            net=small_setup.net,
            inputs=small_setup.inputs,
            bounds=small_setup.bounds,
            methods=small_setup.methods,
            estimators=[],
            tests=["mpt"],
            K=1,
            iterations=1,
            master_seed=5,
            dataset_mean=small_setup.dataset_mean,
            perturb_templates={("mpt", "minor"): model_spec("minor", sigma=0.0)},
        )
        cell = evaluate_cell(setup, "sparseness", EstimatorConfig(), "mpt")
        assert cell.mean.iac_nr == 1.0

    def test_run_meta_evaluation_shape_and_determinism(self, small_setup):
        setup = BenchmarkSetup(
            net=small_setup.net,
            inputs=small_setup.inputs,
            bounds=small_setup.bounds,
            methods=small_setup.methods,
            estimators=[
                ("adversarial_deterministic", EstimatorConfig()),
                ("sparseness", EstimatorConfig()),
            ],
            tests=["ipt"],
            K=2,
            iterations=1,
            master_seed=21,
            dataset_mean=small_setup.dataset_mean,
        )
        a = run_meta_evaluation(setup)
        b = run_meta_evaluation(setup)
        assert set(a) == {("adversarial_deterministic", "ipt"), ("sparseness", "ipt")}
        for key in a:
            assert a[key].mean == b[key].mean
            for va, vb in zip(a[key].per_iteration, b[key].per_iteration):
                assert va == vb
            assert 0.0 <= a[key].mean.mc <= 1.0

    def test_rejects_single_method(self, small_setup):
        with pytest.raises(MetaEvaluationError):
            BenchmarkSetup(
                net=small_setup.net,
                inputs=small_setup.inputs,
                bounds=small_setup.bounds,
                methods=small_setup.methods[:1],
                estimators=[],
                tests=["ipt"],
            )
