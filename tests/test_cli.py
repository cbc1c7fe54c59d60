import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from xaimeta import consistency, perturb, runner
from xaimeta.cli import main
from xaimeta.consistency import run_meta_evaluation
from xaimeta.dataio import make_masks
from xaimeta.errors import ConfigError
from xaimeta.report import mc_bar
from xaimeta.runconfig import load_config
from xaimeta.runner import run_benchmark, run_convergence, run_hpo, run_sanity
from xaimeta.seeding import derive_rng
from xaimeta.stats import spearman
from test_dataio import write_idx_pair

QUICK_BENCH = """
[dataset]
kind = blobs
samples = 24
features = 16
classes = 4
spread = 0.05
mask = threshold

[model]
hidden = [12]
epochs = 12

[run]
tests = [ipt]
k = 2
iterations = 1
master_seed = 9
output = {out}

[methods]
use = [gradient, saliency]

[estimators]
use = [sparseness, complexity]

[perturb.ipt.disruptive]
alpha = -1.0
beta = 1.0
"""


def write_config(tmp_path, text, **fmt):
    path = tmp_path / "run.cfg"
    path.write_text(text.format(**fmt))
    return str(path)


class TestBenchmarkCommand:
    def test_contract_smoke_run(self, tmp_path):
        # blobs + 2-layer net + {SP, CO} + IPT at N=64, K=2, one iteration:
        # finishes well under a minute with every MC inside [0, 1]
        import time

        text = (
            QUICK_BENCH.replace("samples = 24", "samples = 64")
            .replace("k = 2", "k = 2")
            .replace("iterations = 1", "iterations = 1")
        )
        out = tmp_path / "out"
        config = write_config(tmp_path, text, out=out)
        started = time.monotonic()
        assert main(["benchmark", "--config", config]) == 0
        assert time.monotonic() - started < 60.0
        for line in (out / "summary.csv").read_text().splitlines()[1:]:
            assert 0.0 <= float(line.split(",")[3]) <= 1.0

    def test_smoke_run_writes_reports(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path, QUICK_BENCH, out=out)
        assert main(["benchmark", "--config", config]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("estimator,test")
        assert len(summary) == 3  # header + 2 estimators x 1 test
        for line in summary[1:]:
            mc = float(line.split(",")[3])
            assert 0.0 <= mc <= 1.0

    def test_an_empty_estimator_listing_exits_one_before_any_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, QUICK_BENCH, out=out)
        assert main(["benchmark", "--config", config, "--set", "estimators.use=[]"]) == 1
        err = capsys.readouterr().err
        assert "configuration error: [estimators] use must list at least one estimator" in err
        assert not out.exists()

    def test_same_seed_identical_summary(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        config = write_config(tmp_path, QUICK_BENCH, out=out_a)
        assert main(["benchmark", "--config", config]) == 0
        assert main(["benchmark", "--config", config, "--out", str(out_b)]) == 0
        for name in ("summary.csv", "results.json", "areagraph.csv"):
            a = (out_a / name).read_bytes()
            b = (out_b / name).read_bytes()
            if name == "results.json":
                # config echo records the output dir, which differs by design
                a = a.replace(str(out_a).encode(), b"OUT")
                b = b.replace(str(out_b).encode(), b"OUT")
            assert a == b

    def test_single_method_is_config_error(self, tmp_path):
        broken = QUICK_BENCH.replace("use = [gradient, saliency]", "use = [gradient]")
        config = write_config(tmp_path, broken, out=tmp_path / "out")
        assert main(["benchmark", "--config", config]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["benchmark", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_set_override_changes_behaviour(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path, QUICK_BENCH, out=out)
        code = main(["benchmark", "--config", config, "--set", "run.k=3"])
        assert code == 0

    def test_bad_override_is_config_error(self, tmp_path):
        config = write_config(tmp_path, QUICK_BENCH, out=tmp_path / "out")
        assert main(["benchmark", "--config", config, "--set", "run.warp=9"]) == 1

    @pytest.mark.parametrize(
        "table",
        ["[perturb.mpt.minor]\nmax_resamples = 0", "[methods.integrated_gradients]\nig_steps = 0"],
        ids=["max_resamples", "ig_steps"],
    )
    def test_bad_hyperparameter_is_config_error(self, tmp_path, capsys, table):
        text = QUICK_BENCH.replace("use = [gradient, saliency]", "use = [gradient, integrated_gradients]")
        config = write_config(tmp_path, text + "\n" + table + "\n", out=tmp_path / "out")
        assert main(["benchmark", "--config", config]) == 1
        assert "configuration error: [" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "estimator, key",
        [
            ("faithfulness_correlation", "fc_subset_size"),
            ("pixel_flipping", "pf_step_size"),
            ("top_k_intersection", "topk_k"),
        ],
    )
    def test_size_beyond_feature_count_is_config_error_before_training(
        self, tmp_path, capsys, monkeypatch, estimator, key
    ):
        # QUICK_BENCH has 16 features; the check must not wait for a trained net
        def no_training(*args, **kwargs):
            raise AssertionError("the net was trained before the config was checked")

        monkeypatch.setattr(runner, "build_net", no_training)
        text = QUICK_BENCH.replace("use = [sparseness, complexity]", f"use = [sparseness, {estimator}]")
        text += f"\n[estimators.{estimator}]\n{key} = 100\n"
        config = write_config(tmp_path, text, out=tmp_path / "out")
        assert main(["benchmark", "--config", config]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: [estimators.{estimator}]" in err
        assert f"{key} 100 outside [1, 16]" in err

    @pytest.mark.parametrize(
        "estimator, setting",
        [
            ("faithfulness_correlation", "fc_runs = 1"),
            ("max_sensitivity", "robustness_radius = 0.0"),
            ("max_sensitivity", "robustness_radius = -0.1"),
        ],
        ids=["fc_runs_1", "radius_zero", "radius_negative"],
    )
    def test_degenerate_estimator_setting_is_config_error_before_training(
        self, tmp_path, capsys, monkeypatch, estimator, setting
    ):
        # each of these used to train the net and then exit 2 mid-run
        def no_training(*args, **kwargs):
            raise AssertionError("the net was trained before the config was checked")

        monkeypatch.setattr(runner, "build_net", no_training)
        text = QUICK_BENCH.replace("use = [sparseness, complexity]", f"use = [sparseness, {estimator}]")
        text += f"\n[estimators.{estimator}]\n{setting}\n"
        config = write_config(tmp_path, text, out=tmp_path / "out")
        assert main(["benchmark", "--config", config]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: [estimators.{estimator}]" in err
        assert setting.split(" = ")[0] in err

    def test_parallel_jobs_rejected(self, tmp_path):
        config = load_config(write_config(tmp_path, QUICK_BENCH, out=tmp_path / "out"))
        with pytest.raises(ValueError, match="jobs"):
            run_benchmark(config, jobs=2)


HPO_BENCH = QUICK_BENCH + "\n[hpo]\nestimator = sparseness\n"


class TestConfigErrorsBeforeTraining:
    # each of these used to exit 0 with the setting ignored or truncated, or
    # to exit 2, most of them after training
    @pytest.mark.parametrize(
        "verb, assignment, named",
        [
            ("benchmark", "perturb.mpt.minor.alpha=5", "[perturb.mpt.minor]: alpha has no effect"),
            ("benchmark", "perturb.ipt.minor.sigma=5", "[perturb.ipt.minor]: sigma has no effect"),
            (
                "benchmark",
                "perturb.ipt.disruptive.min_retained_fraction=0.5",
                "[perturb.ipt.disruptive]: min_retained_fraction has no effect",
            ),
            (
                "benchmark",
                "perturb.mpt.minor.max_resamples=2.5",
                "[perturb.mpt.minor] max_resamples must be an integer, got 2.5",
            ),
            (
                "benchmark",
                "perturb.mpt.minor.max_resamples=true",
                "[perturb.mpt.minor] max_resamples must be an integer, got True",
            ),
            ("hpo", "hpo.axes.fc_runs=[]", "[hpo.axes] fc_runs must be a non-empty list"),
            ("hpo", "hpo.axes.fc_runz=[3]", "[hpo.axes] 'fc_runz' is not an estimator setting"),
            ("hpo", "hpo.axes.fc_runs=[1, 10]", "fc_runs must be >= 2"),
            ("hpo", "hpo.axes.estimator=[sparseness, nonsense]", "unknown name 'nonsense' in [hpo]"),
            ("hpo", "hpo.axes.fc_subset_size=[4, 100]", "fc_subset_size 100 outside [1, 16]"),
            ("benchmark", "run.sample_count=1", "[run] sample_count must be >= 2"),
            ("benchmark", "run.sample_count=abc", "[run] sample_count must be an integer"),
            ("benchmark", "run.k=2.5", "[run] k must be an integer"),
            ("benchmark", "run.k=true", "[run] k must be an integer"),
            ("benchmark", "run.iterations=1.5", "[run] iterations must be an integer"),
            ("convergence", "convergence.foo=1", "unknown table [convergence]"),
            ("benchmark", "run.tests=[]", "[run] tests must name at least one test"),
            ("benchmark", "dataset.samples=abc", "[dataset] samples must be an integer, got 'abc'"),
            ("sanity", "dataset.spread=wide", "[dataset] spread must be a number, got 'wide'"),
            ("benchmark", "model.epochs=abc", "[model] epochs must be an integer, got 'abc'"),
            ("train", "model.hidden=[a]", "[model] hidden must be an integer or a list of integers"),
            ("benchmark", "dataset.samples=1", "[dataset] samples must be >= 2, got 1"),
            ("benchmark", "dataset.features=0", "[dataset] features must be >= 1, got 0"),
            ("benchmark", "dataset.classes=1", "[dataset] classes must be >= 2, got 1"),
            ("benchmark", "dataset.seed=-1", "[dataset] seed must be >= 0, got -1"),
            (
                "benchmark",
                "run.sample_count=500",
                "[run] sample_count 500 exceeds the dataset's 24 samples",
            ),
            (
                "benchmark",
                "estimators.faithfulness_correlation.fc_runs=2.5",
                "[estimators.faithfulness_correlation] fc_runs must be an integer, got 2.5",
            ),
            (
                "benchmark",
                "estimators.max_sensitivity.robustness_runs=true",
                "[estimators.max_sensitivity] robustness_runs must be an integer, got True",
            ),
            (
                "benchmark",
                "methods.integrated_gradients.ig_steps=2.5",
                "[methods.integrated_gradients] ig_steps must be an integer, got 2.5",
            ),
            (
                "benchmark",
                "methods.occlusion.occlusion_patch=1.5",
                "[methods.occlusion] occlusion_patch must be an integer, got 1.5",
            ),
            (
                "benchmark",
                "estimators.pixel_flipping.pf_step_size=true",
                "[estimators.pixel_flipping] pf_step_size must be an integer, got True",
            ),
            (
                "benchmark",
                "estimators.sparseness.direction=sideways",
                "unknown key estimators.sparseness.direction",
            ),
            ("hpo", "hpo.axes.fc_runs=[2.5]", "[hpo.axes] fc_runs must be an integer, got 2.5"),
            ("benchmark", "run.k=0", "[run] k must be >= 1, got 0"),
            (
                "benchmark",
                "dataset.mask=bogus",
                "[dataset] mask must be one of none, center_box, threshold, got 'bogus'",
            ),
            ("benchmark", "dataset.mask_quantile=1.5", "[dataset] mask_quantile must be in [0, 1]"),
            (
                "benchmark",
                "dataset.mask_fraction=-0.5",
                "[dataset] mask_fraction must be in (0, 1]",
            ),
            ("benchmark", "dataset.mask_fraction=1.5", "[dataset] mask_fraction must be in (0, 1]"),
            ("benchmark", "dataset.mask_fraction=0", "[dataset] mask_fraction must be in (0, 1]"),
            ("sanity", "dataset.spread=-0.1", "[dataset] spread must be >= 0, got -0.1"),
            ("sanity", "dataset.spread=nan", "[dataset] spread must be >= 0, got nan"),
            ("benchmark", "model.batch_size=-1", "[model] batch_size must be >= 1, got -1"),
            ("benchmark", "model.epochs=-1", "[model] epochs must be >= 0, got -1"),
            ("benchmark", "model.batch_size=0", "[model] batch_size must be >= 1, got 0"),
            ("train", "model.hidden=[0]", "[model] hidden entries must be >= 1, got [0]"),
            ("benchmark", "model.hidden=[-3]", "[model] hidden entries must be >= 1, got [-3]"),
            ("benchmark", "perturb.ipt.minor.alpha=nan", "[perturb.ipt.minor]: alpha must be finite"),
            (
                "benchmark",
                "perturb.ipt.disruptive.beta=inf",
                "[perturb.ipt.disruptive]: beta must be finite",
            ),
            ("benchmark", "perturb.mpt.minor.sigma=nan", "[perturb.mpt.minor]: sigma must be finite"),
            (
                "benchmark",
                "perturb.mpt.disruptive.mu=inf",
                "[perturb.mpt.disruptive]: mu must be finite",
            ),
            (
                "benchmark",
                "methods.gradient_shap.shap_noise_std=-1",
                "[methods.gradient_shap]: shap_noise_std must be >= 0",
            ),
            (
                "benchmark",
                "methods.gradient_shap.shap_noise_std=nan",
                "[methods.gradient_shap]: shap_noise_std must be finite",
            ),
            (
                "benchmark",
                "methods.integrated_gradients.ig_baseline=nan",
                "[methods.integrated_gradients]: ig_baseline must be finite",
            ),
            (
                "benchmark",
                "methods.occlusion.occlusion_baseline=inf",
                "[methods.occlusion]: occlusion_baseline must be finite",
            ),
            (
                "benchmark",
                "model.learning_rate=nan",
                "[model] learning_rate must be finite and > 0, got nan",
            ),
            (
                "benchmark",
                "model.learning_rate=-1",
                "[model] learning_rate must be finite and > 0, got -1",
            ),
            (
                "benchmark",
                "model.learning_rate=inf",
                "[model] learning_rate must be finite and > 0, got inf",
            ),
            ("benchmark", "model.momentum=inf", "[model] momentum must be finite in [0, 1), got inf"),
            ("benchmark", "model.momentum=1.5", "[model] momentum must be finite in [0, 1), got 1.5"),
            (
                "benchmark",
                "model.momentum=-0.1",
                "[model] momentum must be finite in [0, 1), got -0.1",
            ),
        ],
        ids=[
            "mpt_alpha",
            "ipt_sigma",
            "ipt_min_retained_fraction",
            "fractional_max_resamples",
            "boolean_max_resamples",
            "empty_hpo_axis",
            "unknown_hpo_axis",
            "invalid_hpo_value",
            "unknown_hpo_estimator",
            "hpo_size_beyond_feature_count",
            "one_sample",
            "non_numeric_sample_count",
            "fractional_k",
            "boolean_k",
            "fractional_iterations",
            "convergence_key",
            "empty_tests",
            "non_numeric_samples",
            "non_numeric_spread",
            "non_numeric_epochs",
            "non_numeric_hidden",
            "one_dataset_sample",
            "no_features",
            "one_class",
            "negative_dataset_seed",
            "sample_count_above_dataset_size",
            "fractional_fc_runs",
            "boolean_robustness_runs",
            "fractional_ig_steps",
            "fractional_occlusion_patch",
            "boolean_pf_step_size",
            "estimator_direction",
            "fractional_hpo_axis_value",
            "zero_k",
            "unknown_mask_policy",
            "mask_quantile_above_one",
            "negative_mask_fraction",
            "mask_fraction_above_one",
            "zero_mask_fraction",
            "negative_spread",
            "nan_spread",
            "negative_batch_size",
            "negative_epochs",
            "zero_batch_size",
            "zero_hidden_width",
            "negative_hidden_width",
            "nan_ipt_alpha",
            "infinite_ipt_beta",
            "nan_mpt_sigma",
            "infinite_mpt_mu",
            "negative_shap_noise_std",
            "nan_shap_noise_std",
            "nan_ig_baseline",
            "infinite_occlusion_baseline",
            "nan_learning_rate",
            "negative_learning_rate",
            "infinite_learning_rate",
            "infinite_momentum",
            "momentum_above_one",
            "negative_momentum",
        ],
    )
    def test_exits_one_naming_the_setting(self, tmp_path, capsys, monkeypatch, verb, assignment, named):
        def no_training(*args, **kwargs):
            raise AssertionError("the net was trained before the config was checked")

        monkeypatch.setattr(runner, "build_net", no_training)
        config = write_config(tmp_path, HPO_BENCH, out=tmp_path / "out")
        assert main([verb, "--config", config, "--set", assignment]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: " in err
        assert named in err

    @pytest.mark.parametrize(
        "verb, assignment",
        [
            ("benchmark", "estimators.use=[sparseness, pointing_game]"),
            ("hpo", "hpo.axes.estimator=[pointing_game]"),
        ],
    )
    def test_mask_needing_estimator_without_a_mask(self, tmp_path, capsys, monkeypatch, verb, assignment):
        def no_training(*args, **kwargs):
            raise AssertionError("the net was trained before the config was checked")

        monkeypatch.setattr(runner, "build_net", no_training)
        config = write_config(tmp_path, HPO_BENCH, out=tmp_path / "out")
        assert main([verb, "--config", config, "--set", "dataset.mask=none", "--set", assignment]) == 1
        err = capsys.readouterr().err
        assert "configuration error: " in err
        assert "estimators ['pointing_game'] need [dataset] mask != none" in err


class TestSanityCommand:
    def test_quick_sanity_blind_adversary_exact(self, tmp_path, monkeypatch):
        # the tight distribution-shift windows need the full sanity scale;
        # at desk size only the perturbation-blind invariant is exact
        monkeypatch.setattr(runner, "SANITY_MIN_SAMPLES", 24)
        config = load_config(write_config(tmp_path, QUICK_BENCH, out=tmp_path / "out"))
        outcome = run_sanity(config, k=3, iterations=2)
        psi_eq = {
            (r["test"], r["criterion"]): r["value"]
            for r in outcome.rows
            if r["estimator"] == "adversarial_deterministic"
        }
        for test in ("ipt", "mpt"):
            assert psi_eq[(test, "iac_nr")] == 1.0
            assert psi_eq[(test, "iac_ar")] == 0.0
            assert psi_eq[(test, "iec_nr")] == 1.0
            assert psi_eq[(test, "iec_ar")] == 0.0
        psi_neq = {
            (r["test"], r["criterion"]): r["value"]
            for r in outcome.rows
            if r["estimator"] == "adversarial_distribution_shift"
        }
        for test in ("ipt", "mpt"):
            assert psi_neq[(test, "iac_nr")] <= 0.05
            assert psi_neq[(test, "iac_ar")] >= 0.95
            assert abs(psi_neq[(test, "iec_nr")] - 0.25) <= 0.1
            assert psi_neq[(test, "iec_ar")] == 0.0

    def test_cli_sanity_exit_code_and_table(self, tmp_path, capsys):
        # the command grows synthetic data to the calibrated sanity scale
        config = write_config(tmp_path, QUICK_BENCH, out=tmp_path / "out")
        assert main(["sanity", "--config", config]) == 0
        printed = capsys.readouterr().out
        assert "sanity check: PASS" in printed
        assert "adversarial_deterministic" in printed


class TestHpoCommand:
    def test_rigged_grid_picks_the_blind_adversary(self, tmp_path):
        # the perturbation-blind estimator scores MC = 0.5; the
        # distribution-shifting one lands near 0.31, so it must lose
        text = QUICK_BENCH + "\n[hpo]\nestimator = sparseness\n[hpo.axes]\nestimator = [adversarial_deterministic, adversarial_distribution_shift]\n"
        config = load_config(write_config(tmp_path, text, out=tmp_path / "out"))
        ranked = run_hpo(config)
        assert ranked[0]["cell"]["estimator"] == "adversarial_deterministic"
        assert ranked[0]["mc"] == 0.5
        assert ranked[1]["mc"] < 0.5

    def test_twelve_cell_grid_over_baselines_and_subset_sizes(self, tmp_path):
        # three baseline strategies x four subset sizes (scaled to D=16)
        text = QUICK_BENCH.replace(
            "use = [sparseness, complexity]", "use = [faithfulness_correlation]"
        )
        text += (
            "\n[estimators.faithfulness_correlation]\nfc_runs = 10\n"
            "\n[hpo]\nestimator = faithfulness_correlation\n"
            "[hpo.axes]\nfc_baseline = [black, uniform, mean]\nfc_subset_size = [2, 4, 8, 12]\n"
        )
        config = load_config(write_config(tmp_path, text, out=tmp_path / "out"))
        ranked = run_hpo(config)
        assert len(ranked) == 12
        assert all(ranked[i]["mc"] >= ranked[i + 1]["mc"] for i in range(11))
        best = ranked[0]["cell"]
        assert best["fc_baseline"] in ("black", "uniform", "mean")
        assert best["fc_subset_size"] in (2, 4, 8, 12)

    def test_single_cell_grid_returns_it(self, tmp_path):
        text = QUICK_BENCH + "\n[hpo]\nestimator = sparseness\n[hpo.axes]\nfc_baseline = [black]\n"
        config = load_config(write_config(tmp_path, text, out=tmp_path / "out"))
        ranked = run_hpo(config)
        assert len(ranked) == 1
        assert ranked[0]["cell"] == {"fc_baseline": "black", "estimator": "sparseness"}

    def test_grid_draws_each_space_once_and_pairs_its_cells(self, tmp_path, monkeypatch):
        # one setup and the perturbed spaces it draws serve the whole grid,
        # so three cells draw no more than one, and each cell scores exactly
        # as a meta-evaluation of its one estimator config alone
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(consistency, "draw_space")  # BenchmarkSetup.space calls it
        counted(perturb, "ipt_sample")
        grid = "\n[hpo]\nestimator = sparseness\n[hpo.axes]\nestimator = [{}]\n"
        counts = []
        for estimators in ("sparseness", "sparseness, complexity, pointing_game"):
            text = QUICK_BENCH + grid.format(estimators)
            config = load_config(write_config(tmp_path, text, out=tmp_path / "out"))
            calls.clear()
            ranked = run_hpo(config)
            counts.append(dict(calls))
        n, k = config.dataset["samples"], config.k
        assert counts == [{"draw_space": 2, "ipt_sample": 2 * k * n}] * 2
        assert 2 * k * n == 96
        for row in ranked:
            estimator_id = row["cell"]["estimator"]
            setup = runner.build_setup(replace(config, estimators=[estimator_id]))
            alone = run_meta_evaluation(setup)
            assert row["mc"] == mc_bar(alone, estimator_id)
            assert row["vectors"] == {t: alone[(estimator_id, t)].mean for t in config.tests}

    def test_fc_runs_cells_score_as_standalone_runs(self, tmp_path):
        # cells whose faithfulness keys differ in shape never share a table:
        # each scores as a run of its own fc_runs alone
        text = QUICK_BENCH.replace(
            "use = [sparseness, complexity]", "use = [faithfulness_correlation]"
        ).replace("tests = [ipt]", "tests = [ipt, mpt]")
        text += (
            "\n[estimators.faithfulness_correlation]\nfc_subset_size = 4\n"
            "\n[hpo]\nestimator = faithfulness_correlation\n[hpo.axes]\nfc_runs = [10, 20]\n"
        )
        config = load_config(write_config(tmp_path, text, out=tmp_path / "out"))
        ranked = run_hpo(config)
        assert sorted(row["cell"]["fc_runs"] for row in ranked) == [10, 20]
        for row in ranked:
            settings = {"fc_subset_size": 4, "fc_runs": row["cell"]["fc_runs"]}
            alone = replace(config, estimator_overrides={"faithfulness_correlation": settings})
            results, _ = run_benchmark(alone, out_dir=tmp_path / f"runs{settings['fc_runs']}")
            assert row["mc"] == mc_bar(results, "faithfulness_correlation")

    def test_axes_required(self, tmp_path):
        text = QUICK_BENCH + "\n[hpo]\nestimator = sparseness\n"
        config = write_config(tmp_path, text, out=tmp_path / "out")
        assert main(["hpo", "--config", config]) == 1

    def test_cli_prints_ranked_table(self, tmp_path, capsys):
        text = QUICK_BENCH + "\n[hpo]\nestimator = complexity\n[hpo.axes]\nfc_baseline = [black, mean]\n"
        config = write_config(tmp_path, text, out=tmp_path / "out")
        assert main(["hpo", "--config", config]) == 0
        printed = capsys.readouterr().out
        assert "best cell:" in printed


class TestConvergenceCommand:
    def test_pair_correlations_match_spearman_oracle(self, tmp_path):
        config = load_config(write_config(tmp_path, QUICK_BENCH, out=tmp_path / "out"))
        summary = run_convergence(config)
        for row in summary["pairs"]:
            first, second = row["pair"]
            expected = spearman(
                summary["results"][(first, "ipt")].mean.entries(),
                summary["results"][(second, "ipt")].mean.entries(),
            )
            assert row["correlation"] == pytest.approx(expected, abs=1e-12)

    def test_identical_vectors_correlate_to_one(self):
        from xaimeta.stats import spearman as rho

        assert rho(np.array([1.0, 0.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0, 0.0])) == 1.0
        assert rho(np.array([1.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0, 1.0])) == -1.0

    def test_cli_prints_within_and_cross(self, tmp_path, capsys):
        config = write_config(tmp_path, QUICK_BENCH, out=tmp_path / "out")
        assert main(["convergence", "--config", config]) == 0
        printed = capsys.readouterr().out
        assert "mean within-category correlation" in printed


class TestSetupPaths:
    def test_sample_count_keeps_the_sorted_subsample_draw(self, tmp_path):
        path = write_config(tmp_path, QUICK_BENCH, out=tmp_path / "out")
        config = load_config(path, overrides=["run.sample_count=10"])
        full = runner.build_dataset(replace(config, sample_count=None))
        keep = np.sort(derive_rng(config.master_seed, "subsample").choice(24, 10, replace=False))
        dataset = runner.build_dataset(config)
        assert np.array_equal(dataset.inputs, full.inputs[keep])
        assert np.array_equal(dataset.labels, full.labels[keep])
        setup = runner.build_setup(config)
        assert np.array_equal(setup.inputs, full.inputs[keep])
        assert np.array_equal(setup.masks, make_masks(full, "threshold")[keep])

    def test_sample_count_above_the_dataset_size_is_config_error(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, np.zeros((5, 2, 2)), [0, 1, 0, 1, 0])
        idx = QUICK_BENCH.replace("kind = blobs", f'kind = idx\nimages = "{images}"\nlabels = "{labels}"')
        for text, n in ((QUICK_BENCH, 24), (idx, 5)):
            path = write_config(tmp_path, text, out=tmp_path / "out")
            config = load_config(path, overrides=["run.sample_count=500"])
            with pytest.raises(ConfigError, match=f"sample_count 500 exceeds the dataset's {n} samples"):
                runner.build_dataset(config)
            assert len(runner.build_dataset(replace(config, sample_count=n)).inputs) == n

    def test_a_saved_model_scores_as_the_net_trained_inline(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, QUICK_BENCH, out=tmp_path / "inline")
        assert main(["benchmark", "--config", config]) == 0
        assert main(["train", "--config", config, "--out", str(tmp_path / "model")]) == 0

        def no_training(*args, **kwargs):
            raise AssertionError("a run with [model] path trained a net")

        monkeypatch.setattr(runner, "train_tiny", no_training)
        model = tmp_path / "model" / "model.txt"
        loaded = ["--out", str(tmp_path / "loaded"), "--set", f'model.path="{model}"']
        assert main(["benchmark", "--config", config, *loaded]) == 0
        for name in ("summary.csv", "areagraph.csv"):
            assert (tmp_path / "loaded" / name).read_bytes() == (tmp_path / "inline" / name).read_bytes()

    def test_a_model_file_of_another_input_size_is_config_error(self, tmp_path, monkeypatch):
        # a net that takes 6 features, on a dataset of 8
        narrow = QUICK_BENCH.replace("features = 16", "features = 6")
        assert main(["train", "--config", write_config(tmp_path, narrow, out=tmp_path / "out")]) == 0
        model = tmp_path / "out" / "model.txt"
        wide = write_config(tmp_path, QUICK_BENCH.replace("features = 16", "features = 8"), out=tmp_path)
        loaded = load_config(wide, overrides=[f'model.path="{model}"'])
        message = f"[model] path '{model}' holds a net that takes 6 features, but the dataset has 8"
        with pytest.raises(ConfigError, match=re.escape(message)):
            runner.build_setup(loaded)

        def no_explainer(*args, **kwargs):
            raise AssertionError("an explainer was built")

        monkeypatch.setattr(runner, "build_explainer", no_explainer)
        assert main(["benchmark", "--config", wide, "--set", f'model.path="{model}"']) == 1


class TestTrainCommand:
    def test_train_prints_accuracy_and_saves(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, QUICK_BENCH, out=out)
        assert main(["train", "--config", config]) == 0
        printed = capsys.readouterr().out
        assert "training accuracy" in printed
        assert (out / "model.txt").exists()

    def test_same_seed_identical_model_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        config = write_config(tmp_path, QUICK_BENCH, out=out_a)
        assert main(["train", "--config", config]) == 0
        assert main(["train", "--config", config, "--out", str(out_b)]) == 0
        assert (out_a / "model.txt").read_bytes() == (out_b / "model.txt").read_bytes()

    def test_missing_idx_paths_is_config_error(self, tmp_path):
        text = QUICK_BENCH.replace("kind = blobs", "kind = idx")
        config = write_config(tmp_path, text, out=tmp_path / "out")
        assert main(["train", "--config", config]) == 1


class TestExitCodes:
    def test_data_error_exits_two(self, tmp_path):
        bad = tmp_path / "images.idx"
        bad.write_bytes(b"\x00\x00\x00\x00 garbage")
        text = QUICK_BENCH.replace(
            "kind = blobs",
            f'kind = idx\nimages = "{bad}"\nlabels = "{bad}"',
        )
        config = write_config(tmp_path, text, out=tmp_path / "out")
        assert main(["train", "--config", config]) == 2

    def test_sanity_failure_exits_three(self, tmp_path, monkeypatch):
        import xaimeta.cli as cli
        from xaimeta.runner import SanityOutcome

        failed = SanityOutcome(rows=[], results={}, passed=False)
        monkeypatch.setattr(cli, "run_sanity", lambda config: failed)
        config = write_config(tmp_path, QUICK_BENCH, out=tmp_path / "out")
        assert main(["sanity", "--config", config]) == 3
