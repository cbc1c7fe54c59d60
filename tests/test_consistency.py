from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from test_golden import CONFIG as GOLDEN_CONFIG
from xaimeta import consistency, perturb
from xaimeta.consistency import (
    CRITERIA,
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
from xaimeta.perturb import DEFAULT_WINDOWS, collect, perturb_spec
from xaimeta.runconfig import config_from_tables, parse_tables
from xaimeta.runner import build_setup
from xaimeta.stats import wilcoxon_signed_rank


class TestIac:
    def test_identical_columns_give_one(self):
        u = np.array([0.1, 0.5, 0.9, 0.3])
        p = np.column_stack([u, u])
        assert iac(u, p) == 1.0

    def test_large_shift_small_p(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=30)
        p = (u + 1000.0)[:, None]
        assert iac(u, p) < 1e-3

    def test_mean_of_column_p_values(self):
        # column 1 identical (p = 1.0); column 2 leaves differences [1, 2]
        # whose exact two-sided p is 0.5 -> IAC = 0.75
        u = np.array([1.0, 1.0])
        p = np.column_stack([u, np.array([0.0, -1.0])])
        assert iac(u, p) == pytest.approx(0.75, abs=1e-12)

    def test_unretained_pairs_excluded(self):
        # the excluded pair's perturbed score is marked NaN
        u = np.array([1.0, 2.0, 3.0, 100.0])
        p = np.column_stack([np.array([1.0, 2.0, 3.0, np.nan])])
        assert iac(u, p) == 1.0

    def test_undefined_unperturbed_score_excludes_its_row(self):
        u = np.array([1.0, 2.0, 3.0, np.nan])
        p = np.column_stack([np.array([1.0, 2.0, 3.0, -50.0])])
        assert iac(u, p) == 1.0

    def test_all_columns_degenerate_errors(self):
        u = np.array([1.0, 2.0])
        p = np.full((2, 1), np.nan)
        with pytest.raises(MetaEvaluationError):
            iac(u, p)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_nan_marked_tables_equal_finite_pairs(self, data):
        # oracle: one Wilcoxon p per column over the pairs left finite,
        # columns with fewer than two such pairs skipped
        n, k = data.draw(st.integers(2, 10)), data.draw(st.integers(1, 4))
        finite = st.floats(-1e6, 1e6)
        u = data.draw(arrays(np.float64, n, elements=finite))
        p = data.draw(arrays(np.float64, (n, k), elements=st.one_of(finite, st.just(np.nan))))
        u[data.draw(arrays(bool, n))] = np.nan
        ps = []
        for column in p.T:
            pairs = [(a, b) for a, b in zip(u, column) if np.isfinite(a) and np.isfinite(b)]
            if len(pairs) >= 2:
                ps.append(wilcoxon_signed_rank(*map(np.array, zip(*pairs))))
        if not ps:
            with pytest.raises(MetaEvaluationError):
                iac(u, p)
        else:
            assert iac(u, p) == float(np.mean(ps))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_a_method_axis_gives_each_method_its_1d_iac(self, data):
        # column 0 of method 0 is degenerate; methods whose every column is
        # degenerate make both forms raise
        n, methods = data.draw(st.integers(2, 10)), data.draw(st.integers(1, 3))
        k = data.draw(st.integers(2, 4))
        finite = st.floats(-1e6, 1e6)
        u = data.draw(arrays(np.float64, (n, methods), elements=finite))
        p = data.draw(
            arrays(np.float64, (n, methods, k), elements=st.one_of(finite, st.just(np.nan)))
        )
        u[data.draw(arrays(bool, (n, methods)))] = np.nan
        p[:, 0, 0] = np.nan
        try:
            expected = np.array([iac(u[:, j], p[:, j]) for j in range(methods)])
        except MetaEvaluationError:
            with pytest.raises(MetaEvaluationError):
                iac(u, p)
            return
        got = iac(u, p)
        assert got.shape == (methods,) and got.tobytes() == expected.tobytes()


@st.composite
def monotone_images(draw):
    """(A, B, f(A), f(B)) for two (N, L) score matrices and one strictly
    increasing map f, drawn over the distinct values of both matrices."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(2, 4)))
    # a few shared values next to arbitrary ones, so rows carry exact ties
    values = st.one_of(st.sampled_from([-1.0, 0.0, 0.5]), st.floats(-1e6, 1e6))
    a, b = (draw(arrays(np.float64, shape, elements=values)) for _ in range(2))
    distinct = np.unique(np.concatenate([a.ravel(), b.ravel()]))
    steps = draw(arrays(np.float64, distinct.size, elements=st.floats(1e-3, 1e3)))
    image = draw(st.floats(-1e6, 1e6)) + np.cumsum(steps)

    def f(m):
        return image[np.searchsorted(distinct, m)]

    return a, b, f(a), f(b)


def _mapped_draws(seed, f):
    # two fixed (5, 3) normal matrices and their images under f
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    return a, b, f(a), f(b)


class TestIecMinor:
    def test_identical_matrices_give_one(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(6, 4))
        assert iec_minor(q, q.copy()) == 1.0

    def test_reversed_rows_keep_middle_rank(self):
        q = np.array([[3.0, 2.0, 1.0]])
        assert iec_minor(q, q[:, ::-1]) == pytest.approx(1.0 / 3.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(monotone_images())
    @example(_mapped_draws(2, np.exp))
    @example(_mapped_draws(2, lambda a: 3 * a + 1))
    def test_invariant_under_shared_monotone_transform(self, case):
        q, qm, fq, fqm = case
        assert iec_minor(fq, fqm) == iec_minor(q, qm)

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

    @settings(max_examples=200, deadline=None)
    @given(monotone_images(), st.booleans())
    @example(_mapped_draws(3, lambda a: 2.5 * a + 7), False)
    @example(_mapped_draws(3, lambda a: 2.5 * a + 7), True)
    def test_invariant_under_shared_monotone_transform(self, case, lower_better):
        q, qd, fq, fqd = case
        assert iec_disruptive(fq, fqd, lower_better) == iec_disruptive(q, qd, lower_better)


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
        v = meta_vector(
            iac(q[:, 0], qm),
            iac(q[:, 0], qd),
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
    )


class TestEndToEnd:
    def test_deterministic_adversary_exact_vector(self, small_setup):
        for test in ("ipt", "mpt"):
            cell = evaluate_cell(small_setup, "adversarial_deterministic", EstimatorConfig(), test)
            assert cell.mean.iac_nr == 1.0
            assert cell.mean.iac_ar == 0.0
            assert cell.mean.iec_nr == 1.0
            assert cell.mean.iec_ar == 0.0
            assert cell.mean.mc == 0.5
            assert all(s == 0.0 for s in cell.std.values())

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_mean_and_std_are_those_of_the_iteration_table(self, small_setup, iterations):
        setup = replace(small_setup, iterations=iterations)
        cell = evaluate_cell(setup, "sparseness", EstimatorConfig(), "ipt")
        table = np.array([v.entries() for v in cell.per_iteration])
        mcs = [v.mc for v in cell.per_iteration]
        assert table.shape == (iterations, len(CRITERIA))
        assert cell.mean.entries().tolist() == table.mean(axis=0).tolist()
        assert cell.mean.mc == np.mean(mcs)
        if iterations == 1:
            assert all(s == 0.0 for s in cell.std.values())
        else:
            stds = dict(zip(CRITERIA, table.std(axis=0, ddof=1).tolist()))
            assert cell.std == {**stds, "mc": np.std(mcs, ddof=1)}

    def test_distribution_shift_adversary(self, small_setup):
        cell = evaluate_cell(small_setup, "adversarial_distribution_shift", EstimatorConfig(), "ipt")
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
            perturb_templates={("mpt", "minor"): perturb_spec("mpt", "minor", sigma=0.0)},
        )
        cell = evaluate_cell(setup, "sparseness", EstimatorConfig(), "mpt")
        assert cell.mean.iac_nr == 1.0

    def test_one_template_fills_in_the_other_three(self, small_setup):
        custom = perturb_spec("mpt", "minor", sigma=0.0)
        setup = BenchmarkSetup(
            net=small_setup.net,
            inputs=small_setup.inputs,
            bounds=small_setup.bounds,
            methods=small_setup.methods,
            estimators=[],
            tests=["mpt"],
            perturb_templates={("mpt", "minor"): custom},
        )
        assert set(setup.perturb_templates) == set(DEFAULT_WINDOWS)
        for key, spec in setup.perturb_templates.items():
            assert spec == (custom if key == ("mpt", "minor") else perturb_spec(*key))

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

    def test_rejects_repeated_method_ids(self, small_setup):
        # two identical columns always rank [1, 2], so IEC would read 1.0
        first = small_setup.methods[0]
        with pytest.raises(MetaEvaluationError, match=f"repeated method ids.*{first[0]}"):
            replace(small_setup, methods=[first, *small_setup.methods])

    def test_rejects_a_single_sample(self, small_setup):
        with pytest.raises(ValueError, match="at least two samples"):
            BenchmarkSetup(
                net=small_setup.net,
                inputs=small_setup.inputs[:1],
                bounds=small_setup.bounds,
                methods=small_setup.methods,
                estimators=[],
                tests=["ipt"],
            )

    def test_dataset_mean_is_the_mean_of_the_inputs(self, small_setup):
        # the "mean" baseline's fill, derived and not passed in
        assert small_setup.dataset_mean == float(small_setup.inputs.mean())
        with pytest.raises(TypeError, match="dataset_mean"):
            BenchmarkSetup(
                net=small_setup.net,
                inputs=small_setup.inputs,
                bounds=small_setup.bounds,
                methods=small_setup.methods,
                estimators=[],
                tests=["ipt"],
                dataset_mean=0.5,
            )


@pytest.fixture(scope="module")
def golden_setup():
    """The small two-test config of tests/test_golden.py: 6 estimators, K=2, 2 iterations."""
    return build_setup(config_from_tables(parse_tables(GOLDEN_CONFIG)))


@pytest.fixture(scope="module")
def robust_setup(golden_setup):
    """The golden setup, with local Lipschitz under max sensitivity's config."""
    configs = dict(golden_setup.estimators)
    robust = [("local_lipschitz", configs["max_sensitivity"])]
    return replace(golden_setup, estimators=golden_setup.estimators + robust)


def with_estimators(setup, estimator_ids):
    """`setup` scoring these estimators, under their configs in `setup` or the defaults."""
    configs = dict(setup.estimators)
    return replace(setup, estimators=[(e, configs.get(e, EstimatorConfig())) for e in estimator_ids])


def cell_state(cell):
    """Everything a cell reports, compared with == so floats must match bit for bit."""
    return cell.per_iteration, cell.mean, cell.std, cell.diagnostics


class TestSharedSpaces:
    """Payloads belong to (test, strength, iteration), not to the estimator."""

    @pytest.mark.parametrize("c", ["max_sensitivity", "local_lipschitz"])
    def test_cell_independent_of_the_other_estimators(self, robust_setup, c):
        # the other robustness estimator reads the same in-ball table, so
        # whichever of the two runs first explains it for both
        a, b = "faithfulness_correlation", "model_parameter_randomisation"
        (other,) = {"max_sensitivity", "local_lipschitz"} - {c}
        runs = [[a, b, c], [c], [other, c], [c, other]]
        cells = [run_meta_evaluation(with_estimators(robust_setup, ids)) for ids in runs]
        cfg = dict(robust_setup.estimators)[c]
        for test in robust_setup.tests:
            # a replaced setup has drawn no space, unlike the shared fixture
            standalone = evaluate_cell(replace(robust_setup), c, cfg, test)
            for run, ids in zip(cells, runs):
                assert cell_state(run[(c, test)]) == cell_state(standalone), (ids, test)

    def test_every_cell_of_a_test_sees_the_same_compliance(self, golden_setup):
        results = run_meta_evaluation(golden_setup)
        for test in golden_setup.tests:
            cells = [cell for (_, t), cell in results.items() if t == test]
            assert len(cells) == len(golden_setup.estimators)
            for key in ("mean_attempts", "dropped"):
                assert len({tuple(cell.diagnostics[key]) for cell in cells}) == 1, (test, key)

    def test_estimator_order_changes_no_cell(self, golden_setup):
        ids = [e for e, _ in golden_setup.estimators]
        forward = run_meta_evaluation(golden_setup)
        backward = run_meta_evaluation(with_estimators(golden_setup, ids[::-1]))
        assert set(forward) == set(backward)
        for key in forward:
            assert cell_state(forward[key]) == cell_state(backward[key]), key

    @staticmethod
    def counted_run(setup, estimator_ids, monkeypatch):
        """Run the estimators with every explainer call and payload draw counted.

        Returns (explainer calls per method, ipt_sample calls, mpt_sample
        calls, the run's setup)."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("ipt_sample", "mpt_sample"):
            monkeypatch.setattr(perturb, name, counted(name, getattr(perturb, name)))
        seen = {}  # id -> setup, because a BenchmarkSetup is unhashable

        def recording(setup, **kwargs):
            seen[id(setup)] = setup
            return collect(setup, **kwargs)

        monkeypatch.setattr(consistency, "collect", recording)
        methods = [(m, counted(m, explainer)) for m, explainer in setup.methods]
        run_meta_evaluation(replace(with_estimators(setup, estimator_ids), methods=methods))
        monkeypatch.undo()
        (run_setup,) = seen.values()
        explained = {m: calls[m] for m, _ in methods}
        return explained, calls["ipt_sample"], calls["mpt_sample"], run_setup

    def test_estimators_add_no_explainer_call_and_no_payload_draw(
        self, golden_setup, monkeypatch
    ):
        # none of these three re-explains inside its scorer
        one = self.counted_run(golden_setup, ["sparseness"], monkeypatch)
        three = self.counted_run(
            golden_setup, ["sparseness", "pointing_game", "adversarial_deterministic"], monkeypatch
        )
        assert one[:3] == three[:3]
        explained, ipt_draws, mpt_draws, run_setup = three
        n, k = golden_setup.inputs.shape[0], golden_setup.K
        # one space per (test, strength, iteration); ipt_sample draws one row
        assert len(run_setup.drawn) == len(golden_setup.tests) * 2 * golden_setup.iterations
        assert ipt_draws == 2 * golden_setup.iterations * k * n
        assert mpt_draws == 2 * golden_setup.iterations * k
        # the unperturbed rows once per run, then each non-empty payload column once
        columns = sum(int(space.compliant.any(axis=0).sum()) for space in run_setup.drawn.values())
        assert explained == {m: 1 + columns for m, _ in golden_setup.methods}

    def test_robustness_estimators_explain_their_in_ball_draws_once(
        self, robust_setup, monkeypatch
    ):
        ms, ll = "max_sensitivity", "local_lipschitz"
        both = self.counted_run(robust_setup, [ms, ll], monkeypatch)
        backward = self.counted_run(robust_setup, [ll, ms], monkeypatch)
        for alone in (
            self.counted_run(robust_setup, [ms], monkeypatch),
            self.counted_run(robust_setup, [ll], monkeypatch),
        ):
            assert both[:3] == backward[:3] == alone[:3]
        nothing = self.counted_run(robust_setup, ["sparseness"], monkeypatch)
        # one in-ball call per (space, method, non-empty column), column 0
        # included; sparseness makes only the calls that explain the spaces
        explained, run_setup = both[0], both[3]
        spaces = run_setup.drawn.values()
        columns = sum(1 + int(space.compliant.any(axis=0).sum()) for space in spaces)
        assert explained == {m: nothing[0][m] + columns for m, _ in robust_setup.methods}

    def test_hpo_cells_match_a_fresh_setup(self, golden_setup):
        # the cells of both robustness estimators at two radii and two run
        # counts share one setup; the radius and the run count key the
        # in-ball table, so a cell reads only the table of its own settings
        tables = parse_tables(
            GOLDEN_CONFIG
            + "\n[hpo.axes]\nestimator = [max_sensitivity, local_lipschitz]\n"
            + "robustness_radius = [0.05, 0.2]\nrobustness_runs = [2, 3]\n"
        )
        trials = config_from_tables(tables).hpo_trials()
        shared = replace(golden_setup)
        for cell, estimator_id, settings in trials:
            cfg = EstimatorConfig(**settings)
            for test in shared.tests:
                scored = evaluate_cell(shared, estimator_id, cfg, test)
                fresh = evaluate_cell(replace(golden_setup), estimator_id, cfg, test)
                assert cell_state(scored) == cell_state(fresh), (cell, test)
        contexts = [
            ctx
            for space in shared.drawn.values()
            for columns in space.contexts.values()
            for ctx in columns
            if ctx is not None
        ]
        kept = {key[2:] for ctx in contexts for key in ctx.kept}
        assert len(trials) == 8 and kept == {(0.05, 2), (0.05, 3), (0.2, 2), (0.2, 3)}

    def test_a_setup_draws_each_space_once_across_runs(self, golden_setup, monkeypatch):
        draws = Counter()

        def counting(setup, spec):
            draws[spec] += 1
            return perturb.draw_space(setup, spec)

        monkeypatch.setattr(consistency, "draw_space", counting)
        setup = with_estimators(golden_setup, ["sparseness", "max_sensitivity"])
        assert setup.drawn == {}
        first = run_meta_evaluation(setup)
        second = run_meta_evaluation(setup)
        assert len(draws) == len(setup.tests) * 2 * setup.iterations
        assert set(draws.values()) == {1} and set(setup.drawn) == set(draws)
        assert set(first) == set(second)
        for key in first:
            assert cell_state(first[key]) == cell_state(second[key]), key
        assert replace(setup).drawn == {}
