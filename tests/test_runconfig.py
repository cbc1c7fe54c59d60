import pytest
from test_acceptance import BENCH_CONFIG as ACCEPTANCE_DESK

from xaimeta.errors import ConfigError
from xaimeta.estimators import EstimatorConfig
from xaimeta.runconfig import (
    SCHEMA,
    _check_keys,
    apply_overrides,
    config_from_tables,
    config_to_tables,
    load_config,
    parse_tables,
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

    def test_hash_inside_quotes_is_not_a_comment(self):
        text = '[run] # the run\noutput = "out#1"  # where "reports" go\nk = 2#\n'
        assert parse_tables(text) == {"run": {"output": "out#1", "k": 2}}

    @pytest.mark.parametrize("line", ['output = "out#1', 'output = "out" "#1', 'output = my"dir'])
    def test_unclosed_quote_is_named(self, line):
        # a stray `"` in a bare value opens a quote too
        with pytest.raises(ConfigError, match="line 2: unclosed quote"):
            parse_tables(f"[run]\n{line}\n")

    @pytest.mark.parametrize(
        "text, line, key",
        [
            ("[run]\nk = 3\nk = 5\n", 3, "k"),
            ("[run]\nk = 3\n[model]\nepochs = 1\n[run]\nk = 5\n", 6, "k"),
            ("seed = 1\n# again\nseed = 1\n", 3, "seed"),
            ("[a.b]\nk = 1\n[a]\nb = 2\n", 4, "b"),
        ],
        ids=["one_header", "repeated_header", "top_level", "key_over_table"],
    )
    def test_a_key_set_twice_in_one_table_is_named(self, text, line, key):
        # before, the last value silently won
        with pytest.raises(ConfigError, match=f"^line {line}: '{key}' is set twice in its table$"):
            parse_tables(text)

    def test_a_repeated_header_adds_new_keys(self):
        tables = parse_tables("[run]\nk = 3\n[model]\nepochs = 1\n[run]\niterations = 2\n")
        assert tables == {"run": {"k": 3, "iterations": 2}, "model": {"epochs": 1}}

    def test_an_override_replaces_a_value_from_the_file(self):
        tables = apply_overrides(parse_tables(BASE), ["run.k=5", "run.k=6"])
        assert config_from_tables(tables).k == 6

    @pytest.mark.parametrize("text", [BASE, ACCEPTANCE_DESK], ids=["base", "acceptance_desk"])
    def test_configs_without_quoted_hashes_parse_as_before(self, text):
        # before, every line was cut at its first `#`
        cut = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
        assert parse_tables(text) == parse_tables(cut)


class TestConfig:
    def test_full_round_trip(self):
        # the results.json config echo relies on this round trip
        config = config_from_tables(parse_tables(BASE))
        assert config_from_tables(config_to_tables(config)) == config

    def test_numeric_output_must_be_quoted(self):
        with pytest.raises(ConfigError, match=r"\[run\] output must be a string, got 2024"):
            config_from_tables(parse_tables(BASE.replace("output = out", "output = 2024")))
        config = config_from_tables(parse_tables(BASE.replace("output = out", 'output = "2024"')))
        assert config.output == "2024"

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

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("use = [gradient, saliency]", "use = [gradient, gradient]", r"\[methods\] use"),
            ("use = [sparseness, complexity]", "use = [sparseness, sparseness]", r"\[estimators\] use"),
            ("tests = [ipt]", "tests = [ipt, mpt, ipt]", r"\[run\] tests"),
            ("[estimators]", "[hpo.axes]\nestimator = [complexity, complexity]\n[estimators]", r"\[hpo\]"),
        ],
    )
    def test_repeated_name_rejected(self, old, new, where):
        broken = BASE.replace(old, new)
        assert broken != BASE
        with pytest.raises(ConfigError, match=f"repeated name '\\w+' in {where}"):
            config_from_tables(parse_tables(broken))

    @pytest.mark.parametrize(
        "axis, values, repeated",
        [
            ("fc_runs", "[10, 10]", "10"),
            ("fc_baseline", "[black, mean, black]", "'black'"),
            ("robustness_radius", "[0.1, 0.2, 0.1]", r"0\.1"),
        ],
    )
    def test_repeated_hpo_axis_value_rejected(self, axis, values, repeated):
        # a repeated value would score two identical grid cells and rank them as a tie
        text = BASE + f"\n[hpo]\nestimator = complexity\n[hpo.axes]\n{axis} = {values}\n"
        message = rf"repeated value {repeated} in \[hpo.axes\] {axis}$"
        with pytest.raises(ConfigError, match=message):
            config_from_tables(parse_tables(text))

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
        assert [cell for cell, _, _ in trials] == [
            {"fc_baseline": "black", "estimator": "complexity"},
            {"fc_baseline": "mean", "estimator": "complexity"},
        ]
        assert [EstimatorConfig(**settings).fc_baseline for _, _, settings in trials] == [
            "black",
            "mean",
        ]

    @pytest.mark.parametrize(
        "bounds", ["[0.5]", "[]", "[0.0, 0.5, 1.0]", "[1.0, 0.0]", "[0.0, inf]", "[nan, 1.0]"]
    )
    @pytest.mark.parametrize("use", ["[gradient, gradient_shap]", "[gradient, saliency]"])
    def test_bad_shap_bounds_rejected_before_training(self, bounds, use):
        text = BASE.replace("use = [gradient, saliency]", f"use = {use}")
        text += f"\n[methods.gradient_shap]\nshap_bounds = {bounds}\n"
        with pytest.raises(ConfigError, match=r"\[methods.gradient_shap\]: shap_bounds"):
            config_from_tables(parse_tables(text))

    def test_equal_shap_bounds_accepted(self):
        text = BASE + "\n[methods.gradient_shap]\nshap_bounds = [0.5, 0.5]\n"
        config = config_from_tables(parse_tables(text))
        assert config.explainer_config("gradient_shap", seed=0).shap_bounds == (0.5, 0.5)

    @pytest.mark.parametrize(
        "old,new,table",
        [
            ("ig_steps = 16", "ig_steps = 0", "[methods.integrated_gradients]"),
            ("fc_runs = 25", "fc_runs = 1", "[estimators.faithfulness_correlation]"),
        ],
    )
    def test_tables_outside_use_are_checked(self, old, new, table):
        # BASE lists neither integrated_gradients nor faithfulness_correlation in use
        config = config_from_tables(parse_tables(BASE))
        assert "integrated_gradients" not in config.methods
        assert "faithfulness_correlation" not in config.estimators
        with pytest.raises(ConfigError, match=table.replace("[", r"\[").replace("]", r"\]")):
            config_from_tables(parse_tables(BASE.replace(old, new)))

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(BASE)
        config = load_config(path, overrides=["run.master_seed=77"])
        assert config.master_seed == 77


class TestRules:
    def test_a_rule_fails_on_one_entry_of_a_list(self):
        errors = []
        _check_keys({"hidden": [4, 0, 8]}, SCHEMA["model"], "model", errors)
        assert errors == ["[model] hidden entries must be >= 1, got [4, 0, 8]"]

    @pytest.mark.parametrize(
        "value, expected",
        [
            ([2, 4], []),
            (6, []),
            ([2, 3, 4], ["[t] widths entries must be even, got [2, 3, 4]"]),
            (5, ["[t] widths must be even, got 5"]),
            ("a", ["[t] widths must be an integer or a list of integers, got 'a'"]),
        ],
    )
    def test_a_rule_tests_a_value_or_every_entry(self, value, expected):
        schema = {"widths": (int | list[int], "even", lambda v: v % 2 == 0)}
        errors = []
        _check_keys({"widths": value}, schema, "t", errors)
        assert errors == expected

    def test_nan_fails_every_number_rule(self):
        rules = [
            (table, key, entry[1])
            for table, keys in SCHEMA.items()
            for key, entry in keys.items()
            if isinstance(entry, tuple) and entry[0] is float
        ]
        assert len(rules) == 5  # spread, mask_fraction, mask_quantile, learning_rate, momentum
        for table, key, wanted in rules:
            errors = []
            _check_keys({key: float("nan")}, SCHEMA[table], table, errors)
            assert errors == [f"[{table}] {key} must be {wanted}, got nan"]
