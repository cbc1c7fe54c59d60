import pytest

from xaimeta.errors import ConfigError
from xaimeta.runconfig import (
    apply_overrides,
    config_from_tables,
    config_to_tables,
    load_config,
    parse_tables,
    serialize_tables,
)

BASE = """
# desk-scale benchmark
[dataset]
kind = blobs
samples = 48
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
output = out

[methods]
use = [gradient, saliency]

[methods.integrated_gradients]
ig_steps = 16

[estimators]
use = [sparseness, complexity]

[estimators.faithfulness_correlation]
fc_runs = 25
fc_baseline = mean

[perturb.ipt.minor]
alpha = -0.002
beta = 0.002
"""


class TestParser:
    def test_scalars_and_lists(self):
        tables = parse_tables('a = 3\nb = 1.5\nc = true\nd = hello\ne = "x y"\nf = [1, 2]\n')
        assert tables == {"a": 3, "b": 1.5, "c": True, "d": "hello", "e": "x y", "f": [1, 2]}

    def test_nested_tables(self):
        tables = parse_tables("[x.y]\nk = 1\n[x.z]\nk = 2\n")
        assert tables == {"x": {"y": {"k": 1}, "z": {"k": 2}}}

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_tables("not a key value line")

    def test_serialize_parse_identity(self):
        tables = parse_tables(BASE)
        assert parse_tables(serialize_tables(tables)) == tables


class TestConfig:
    def test_full_round_trip(self):
        config = config_from_tables(parse_tables(BASE))
        text = serialize_tables(config_to_tables(config))
        again = config_from_tables(parse_tables(text))
        assert again == config

    def test_numeric_output_must_be_quoted_and_round_trips(self):
        with pytest.raises(ConfigError, match=r"\[run\] output must be a string, got 2024"):
            config_from_tables(parse_tables(BASE.replace("output = out", "output = 2024")))
        config = config_from_tables(parse_tables(BASE.replace("output = out", 'output = "2024"')))
        text = serialize_tables(config_to_tables(config))
        assert config.output == "2024"
        assert config_from_tables(parse_tables(text)) == config

    def test_defaults(self):
        config = config_from_tables(parse_tables(BASE))
        assert config.k == 2 and config.iterations == 1
        assert config.tests == ["ipt"]
        assert config.master_seed == 9

    def test_tests_accepts_both(self):
        text = BASE.replace("tests = [ipt]", "tests = both")
        config = config_from_tables(parse_tables(text))
        assert config.tests == ["ipt", "mpt"]
        est_cfg = config.estimator_config("faithfulness_correlation")
        assert est_cfg.fc_runs == 25 and est_cfg.fc_baseline == "mean"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="dataset.flavour"):
            config_from_tables(parse_tables(BASE + "\n[dataset]\nflavour = vanilla\n"))

    def test_unknown_estimator_named(self):
        broken = BASE.replace("use = [sparseness, complexity]", "use = [sparseness, banana]")
        with pytest.raises(ConfigError, match="banana"):
            config_from_tables(parse_tables(broken))

    def test_missing_required_listed_together(self):
        with pytest.raises(ConfigError) as err:
            config_from_tables(parse_tables("[run]\nk = 2\n"))
        message = str(err.value)
        assert "[dataset] kind" in message
        assert "[methods] use" in message
        assert "[estimators] use" in message

    def test_single_method_rejected(self):
        broken = BASE.replace("use = [gradient, saliency]", "use = [gradient]")
        with pytest.raises(ConfigError, match="two methods"):
            config_from_tables(parse_tables(broken))

    def test_overrides(self):
        tables = apply_overrides(parse_tables(BASE), ["run.k=7", "dataset.samples=10"])
        config = config_from_tables(tables)
        assert config.k == 7 and config.dataset["samples"] == 10

    def test_override_unknown_key_rejected(self):
        tables = apply_overrides(parse_tables(BASE), ["run.turbo=yes"])
        with pytest.raises(ConfigError, match="run.turbo"):
            config_from_tables(tables)

    def test_hpo_grid_leaves_the_estimator_listing_alone(self):
        text = BASE + "\n[hpo]\nestimator = complexity\n[hpo.axes]\nfc_baseline = [black, mean]\n"
        config = config_from_tables(parse_tables(text))
        assert config.estimators == ["sparseness", "complexity"]
        trials = config.hpo_trials()
        assert [cell for cell, _ in trials] == [
            {"fc_baseline": "black", "estimator": "complexity"},
            {"fc_baseline": "mean", "estimator": "complexity"},
        ]
        assert [trial.estimator_config("complexity").fc_baseline for _, trial in trials] == [
            "black",
            "mean",
        ]

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(BASE)
        config = load_config(path, overrides=["run.master_seed=77"])
        assert config.master_seed == 77
