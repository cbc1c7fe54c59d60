"""Golden numbers of a small two-test meta-evaluation and of a small sanity run.

Rerunning with the same seed and getting the same bytes shows determinism,
not correctness: a change that shifted every score would pass it.  This test
pins the trained weights and every per-iteration MetaVector of a small
config with both perturbation tests to 1e-12, so numeric drift fails here.
It also pins the per-iteration MetaVectors of `run_sanity` at N=256, K=2
and two iterations; its synthetic explainers never touch the net, so
batching the explain stage must leave them unchanged.  Last, it pins every
cell of the desk benchmark config (N=16, D=64, K=3, one iteration, all
eleven estimators) at one master seed, and the sha256 of the three report
files that config and a one-iteration K=1 sanity run write at three master
seeds each.  The two experiment readouts are pinned the same way: the sha256
of `run_hpo`'s ranked cells and of `run_convergence`'s pairs and means.
A change that alters the numbers on purpose (batching ulp drift, a new seed
path) regenerates the values below and says so in CHANGES.md; the
perturbation-blind adversary's [1, 0, 1, 0] is exact and never regenerated.

To regenerate, print `get_weights(setup.net).tolist()` and, per cell,
`[v.entries().tolist() for v in cell.per_iteration]` for the runs below
(print floats with `repr`, so the exactly pinned desk cells round-trip).
"""
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from xaimeta.consistency import run_meta_evaluation
from xaimeta.net import get_weights
from xaimeta.report import write_report
from xaimeta.runconfig import config_from_tables, config_to_tables, parse_tables
from xaimeta.runner import build_setup, run_benchmark, run_convergence, run_hpo, run_sanity

CONFIG = """
[dataset]
kind = blobs
samples = 16
features = 16
classes = 4
spread = 0.05
mask = threshold

[model]
hidden = [8]
epochs = 10

[run]
tests = [ipt, mpt]
k = 2
iterations = 2
master_seed = 1234

[methods]
use = [gradient, integrated_gradients, occlusion]

[methods.integrated_gradients]
ig_steps = 8

[estimators]
use = [faithfulness_correlation, pixel_flipping, max_sensitivity, model_parameter_randomisation, pointing_game, adversarial_deterministic]

[estimators.faithfulness_correlation]
fc_runs = 10

[estimators.max_sensitivity]
robustness_runs = 3

[perturb.ipt.disruptive]
alpha = -1.0
beta = 1.0
"""

# dense parameters of the trained net, layer by layer, weights then bias
WEIGHTS = [
    0.154130253066758, 0.19909289525447343, -0.09112613767703316, -0.19943880750277757,
    -0.07544115779514138, 0.22442418560127683, 0.2201135392778769, -0.012448677567554233,
    -0.2496953949876786, 0.10998835031637542, 0.0027860731015979497, -0.016119994101838786,
    -0.15983641545255958, 0.20381898361600712, -0.166260753751693, -0.24190727437464993,
    -0.2011560743924185, -0.21930362622022503, 0.07215862248515964, -0.23434741610677012,
    -0.23172097063642622, 0.08682454765438691, -0.22032008521843743, -0.24922386033425248,
    0.1560445628458899, 0.12182344960806762, -0.0761202840211897, 0.0205874136352025,
    0.07004882790403694, -0.20098630905773723, -0.1442637231212225, -0.11270791337855485,
    -0.13893191188136664, 0.05970267555435704, -0.01613153246292619, -0.11830839855215532,
    0.28210820116208696, 0.0769518313778028, 0.027173370270091035, 0.10745863556773944,
    0.06995883351868175, -0.05711776874930477, -0.21873659139798554, -0.22047908803811064,
    0.10783088662705027, 0.16155555851509437, -0.11465205370328618, 0.10728875815740208,
    -0.04303843045603595, 0.01617087820323848, -0.05544585496411525, 0.1584079003955513,
    -0.13055935303704674, -0.20859434347847444, -0.05801480899140987, -0.1581796100851175,
    -0.05303566739265081, 0.15490467950538805, -0.23322351520364937, -0.05908702491050699,
    -0.1515250873595298, -0.10722935984858034, 0.04363945582334999, 0.10211316617637911,
    0.2092152320554799, -0.16477336846523194, -0.08781075129059948, -0.12416338367642328,
    -0.005074648347111451, 0.1617788306839447, -0.1651593447025393, 0.13902123448800158,
    -0.193169967575435, -0.024176821658771126, 0.04634640556359981, -0.09757280020961291,
    0.045800788150982034, 0.0852140161603528, -0.2523616136915409, 0.21781479158260053,
    0.1909546430036927, 0.14005230177076497, 0.18328988973911262, -0.0015417003241492617,
    0.23238717605587458, -0.22571380993529216, -0.08737625932901161, 0.13266170498606625,
    -0.1489503814933917, 0.13647758210162445, 0.07573857716602075, -0.05131591114765889,
    0.006324811351956373, 0.099401841037824, -0.046154959680898375, -0.20214338717080127,
    0.008058456971384466, -0.2369310879467119, -0.1426367447612202, 0.1781265579528409,
    0.06426379840805196, -0.16930530722374235, 0.1795490393675306, 0.03465876845839581,
    -0.1518009636332148, 0.17099655298163557, 0.13531112396165568, -0.012768769981186437,
    0.06910960301260062, 0.2035868544399787, 0.030926308543388938, 0.17594560718779714,
    0.07877406955658423, -0.15544573133369285, -0.18451835858520046, -0.1539503100300242,
    0.08861508624002297, 0.15049035740860328, 0.17257790889623045, 0.10202016858820895,
    -0.21347787526791134, 0.16918831377342278, 0.2799869679192574, 0.07550985410834958,
    0.03816948646106046, -0.23370441306554865, 0.24353992117397238, 0.22549434264895504,
    -0.0021923263908607154, 0.0, 0.027163521374258988, 0.0,
    -0.02792441314380155, -0.007447516493438552, -0.006368081830773937, 0.004257082005571889,
    -0.2382275339593993, -0.002856724248643139, -0.1494230897031737, 0.10159847944747141,
    -0.006987417368718164, -0.256778950891998, 0.0911197797729181, -0.006915725701299172,
    -0.3292420733919348, -0.19536713484378385, -0.09878205642294773, -0.030559991431947653,
    0.0871935731523562, 0.0386104078957157, -0.21697607941290947, 0.19376283676749034,
    -0.024613650876554562, -0.03417165299691316, 0.031148335666732703, 0.35069111365883227,
    -0.28035767012855467, -0.1299467221603097, 0.1590276081609483, -0.20324561651987902,
    0.10212738054032998, 0.14207791586550123, 0.3013356246112595, 0.03595686378011698,
    -0.31724738601556884, 0.09242409684365904, 0.3022080646709106, -0.29365579196285985,
    0.012993211835943758, 0.0020956404125353685, 0.009869116101974537, -0.02495796835045367,
]

# (estimator, test) -> per iteration [iac_nr, iac_ar (reverse-scored), iec_nr, iec_ar]
CELLS = {('adversarial_deterministic', 'ipt'): [
        [1.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 1.0, 0.0],
    ],
    ('adversarial_deterministic', 'mpt'): [
        [1.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 1.0, 0.0],
    ],
    ('faithfulness_correlation', 'ipt'): [
        [0.3430989583333333, 0.6308085123697917, 1.0, 0.3958333333333333],
        [0.4996287027994792, 0.787994384765625, 1.0, 0.3958333333333333],
    ],
    ('faithfulness_correlation', 'mpt'): [
        [0.5853118896484375, 0.49241129557291663, 1.0, 0.4166666666666667],
        [0.592803955078125, 0.4352874755859375, 1.0, 0.5208333333333334],
    ],
    ('max_sensitivity', 'ipt'): [
        [0.4340413411458333, 0.7698516845703125, 1.0, 0.3125],
        [0.4649149576822917, 0.6671346028645833, 1.0, 0.375],
    ],
    ('max_sensitivity', 'mpt'): [
        [0.17828877766927084, 0.7041829427083333, 1.0, 0.5625],
        [0.4366861979166667, 0.5630747477213542, 0.9166666666666666, 0.4791666666666667],
    ],
    ('model_parameter_randomisation', 'ipt'): [
        [1.0, 0.7711029052734375, 1.0, 0.3333333333333333],
        [1.0, 0.44354756673177087, 1.0, 0.6041666666666666],
    ],
    ('model_parameter_randomisation', 'mpt'): [
        [0.9166666666666666, 0.8943074544270834, 1.0, 0.7708333333333334],
        [0.8333333333333334, 0.9556884765625, 1.0, 0.08333333333333333],
    ],
    ('pixel_flipping', 'ipt'): [
        [0.8000030517578125, 0.9908599853515625, 0.9583333333333334, 0.08333333333333333],
        [0.4491628011067708, 0.9990183512369791, 0.9583333333333334, 0.020833333333333332],
    ],
    ('pixel_flipping', 'mpt'): [
        [0.2682545979817708, 0.6066691080729167, 0.9583333333333334, 0.3333333333333333],
        [0.006235758463541667, 0.9993743896484375, 0.9583333333333334, 0.041666666666666664],
    ],
    ('pointing_game', 'ipt'): [
        [1.0, 0.10416666666666663, 1.0, 0.08333333333333333],
        [1.0, 0.23958333333333337, 1.0, 0.10416666666666667],
    ],
    ('pointing_game', 'mpt'): [
        [1.0, 0.36458333333333337, 1.0, 0.0625],
        [1.0, 0.6298828125, 1.0, 0.08333333333333333],
    ],
}


@pytest.fixture(scope="module")
def golden_run():
    setup = build_setup(config_from_tables(parse_tables(CONFIG)))
    return setup, run_meta_evaluation(setup)


def test_trained_weights(golden_run):
    setup, _ = golden_run
    np.testing.assert_allclose(get_weights(setup.net), WEIGHTS, rtol=0, atol=1e-12)


def test_per_cell_meta_vectors(golden_run):
    _, results = golden_run
    assert set(results) == set(CELLS)
    for key, expected in CELLS.items():
        vectors = results[key].per_iteration
        got = np.array([v.entries() for v in vectors])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12, err_msg=str(key))
        mcs = [v.mc for v in vectors]
        np.testing.assert_allclose(mcs, np.mean(expected, axis=1), rtol=0, atol=1e-12)


def test_blind_adversary_is_exact(golden_run):
    _, results = golden_run
    for test in ("ipt", "mpt"):
        cell = results[("adversarial_deterministic", test)]
        for vector in (*cell.per_iteration, cell.mean):
            assert vector.entries().tolist() == [1.0, 0.0, 1.0, 0.0]
            assert vector.mc == 0.5


SANITY_CONFIG = """
[dataset]
kind = blobs
samples = 256
features = 8
classes = 6
spread = 0.04

[model]
hidden = [16]
epochs = 20

[run]
tests = [ipt, mpt]
master_seed = 42

[methods]
use = [synthetic_flat, synthetic_input, synthetic_negative, synthetic_noise]

[estimators]
use = [adversarial_deterministic, adversarial_distribution_shift]
"""

# run_sanity(k=2, iterations=2): (estimator, test) -> per iteration
# [iac_nr, iac_ar (reverse-scored), iec_nr, iec_ar]
SANITY_CELLS = {
    ("adversarial_deterministic", "ipt"): [
        [1.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 1.0, 0.0],
    ],
    ("adversarial_deterministic", "mpt"): [
        [1.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 1.0, 0.0],
    ],
    ("adversarial_distribution_shift", "ipt"): [
        [9.697251331543774e-44, 1.0, 0.2568359375, 0.0],
        [9.697251331543774e-44, 1.0, 0.2568359375, 0.0],
    ],
    ("adversarial_distribution_shift", "mpt"): [
        [9.697251331543774e-44, 1.0, 0.251953125, 0.0],
        [9.697251331543774e-44, 1.0, 0.2333984375, 0.0],
    ],
}


def test_sanity_meta_vectors():
    outcome = run_sanity(config_from_tables(parse_tables(SANITY_CONFIG)), k=2, iterations=2)
    assert set(outcome.results) == set(SANITY_CELLS)
    for key, expected in SANITY_CELLS.items():
        vectors = outcome.results[key].per_iteration
        got = np.array([v.entries() for v in vectors])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12, err_msg=str(key))
        mcs = [v.mc for v in vectors]
        np.testing.assert_allclose(mcs, np.mean(expected, axis=1), rtol=0, atol=1e-12)


DESK_CONFIG = """
[dataset]
kind = blobs
samples = 16
features = 64
classes = 6
spread = 0.06
mask = threshold
mask_quantile = 0.75

[model]
hidden = [24]
epochs = 20

[run]
tests = [ipt, mpt]
k = 3
iterations = 1
master_seed = 7000

[methods]
use = [gradient, saliency, input_x_gradient, integrated_gradients, occlusion, gradient_shap]

[methods.integrated_gradients]
ig_steps = 32

[methods.gradient_shap]
shap_samples = 5

[estimators]
use = [faithfulness_correlation, pixel_flipping, max_sensitivity, local_lipschitz, model_parameter_randomisation, random_logit, sparseness, complexity, pointing_game, relevance_mass_accuracy, adversarial_deterministic]

[estimators.faithfulness_correlation]
fc_runs = 50

[perturb.ipt.disruptive]
alpha = -1.0
beta = 1.0
"""

# The desk benchmark config (N=16, D=64, K=3, one iteration) at master seed
# 7000: (estimator, test) -> [iac_nr, iac_ar (reverse-scored), iec_nr, iec_ar].
# Estimators that draw no random numbers of their own are pinned exactly;
# the rest to 1e-12.
DESK_CELLS = {
    ("adversarial_deterministic", "ipt"): [1.0, 0.0, 1.0, 0.0],
    ("adversarial_deterministic", "mpt"): [1.0, 0.0, 1.0, 0.0],
    ("complexity", "ipt"): [0.7789662679036459, 0.7850121392144097, 1.0, 0.3854166666666667],
    ("complexity", "mpt"): [0.5835147433810765, 0.8344472249348959, 1.0, 0.2604166666666667],
    ("faithfulness_correlation", "ipt"): [0.4453481038411458, 0.8898688422309028, 1.0, 0.2916666666666667],
    ("faithfulness_correlation", "mpt"): [0.4116024441189236, 0.6459248860677083, 1.0, 0.5833333333333334],
    ("local_lipschitz", "ipt"): [0.44338141547309023, 0.6844533284505208, 0.96875, 0.4166666666666667],
    ("local_lipschitz", "mpt"): [0.3929867214626736, 0.9528893364800347, 1.0, 0.875],
    ("max_sensitivity", "ipt"): [0.6091257731119792, 0.8478766547309028, 0.9791666666666666, 0.22916666666666666],
    ("max_sensitivity", "mpt"): [0.5179290771484375, 0.9529639350043403, 1.0, 0.8645833333333334],
    ("model_parameter_randomisation", "ipt"): [0.7120446099175347, 0.5042622884114583, 0.9791666666666666, 0.5],
    ("model_parameter_randomisation", "mpt"): [0.32463751898871523, 0.9218800862630209, 0.9583333333333334, 0.6458333333333334],
    ("pixel_flipping", "ipt"): [0.5352749294704862, 0.9965938991970487, 0.9375, 0.020833333333333332],
    ("pixel_flipping", "mpt"): [0.4990726047092014, 0.8982086181640625, 0.9375, 0.09375],
    ("pointing_game", "ipt"): [1.0, 0.5568576388888888, 1.0, 0.5729166666666666],
    ("pointing_game", "mpt"): [1.0, 0.7625596788194444, 1.0, 0.5208333333333334],
    ("random_logit", "ipt"): [0.7721388075086807, 0.5023261176215277, 1.0, 0.4479166666666667],
    ("random_logit", "mpt"): [0.5518985324435765, 0.7540673149956597, 0.9583333333333334, 0.75],
    ("relevance_mass_accuracy", "ipt"): [0.6441429985894097, 0.7818688286675347, 0.9791666666666666, 0.8020833333333334],
    ("relevance_mass_accuracy", "mpt"): [0.40290154351128477, 0.9536421034071181, 1.0, 0.8020833333333334],
    ("sparseness", "ipt"): [0.7568155924479166, 0.7759382459852431, 0.9791666666666666, 0.3854166666666667],
    ("sparseness", "mpt"): [0.420835706922743, 0.8692033555772569, 0.9791666666666666, 0.2708333333333333],
}
DESK_EXACT = {"sparseness", "complexity", "pointing_game", "relevance_mass_accuracy", "adversarial_deterministic"}


def test_desk_meta_vectors():
    setup = build_setup(config_from_tables(parse_tables(DESK_CONFIG)))
    results = run_meta_evaluation(setup)
    assert set(results) == set(DESK_CELLS)
    for key, expected in DESK_CELLS.items():
        (vector,) = results[key].per_iteration
        if key[0] in DESK_EXACT:
            assert vector.entries().tolist() == expected, key
        else:
            np.testing.assert_allclose(vector.entries(), expected, rtol=0, atol=1e-12, err_msg=str(key))


# sha256 of results.json, summary.csv and areagraph.csv: for DESK_CONFIG as
# `run_benchmark` writes them, and for `run_sanity(k=1, iterations=1)` of
# SANITY_CONFIG as bench/run.py writes them, at each master seed
REPORT_SHA256 = {
    ("desk", 7000): {
        "results": "2afa9f57ba5cf4666f582c9b5940afdcb6e5ebd2d86095a7e52caacd4373246a",
        "summary": "995b1f371f63a600cc461da8023764ea33c02b31c3a6183b9d1c6a51a655af73",
        "areagraph": "3bd5ea8e389f7a1339287d47f40e741b17c92ecf15856edcace3c9f6b5c9f0e8",
    },
    ("desk", 7001): {
        "results": "bcb1fbfcca2e9e745a1f88e021e0c13570c1f84756961314473b36f2a865cd12",
        "summary": "59731cd872460c306c797be5b9f73f2e29fa094fe4a9df95aa0b6cbca44e1f5e",
        "areagraph": "1c1e9434d605458dc3128c8a3947946b032a4c9b32927f82e49bc3ef603f64a2",
    },
    ("desk", 7002): {
        "results": "051c217eeadc35de62c0ac5576fdaf4db85670dab13b2e3100d1159a1538082c",
        "summary": "6fa3299572c3672e237929508202b089856e25a4baa5393fe9d24c5a4cc8493e",
        "areagraph": "b5d4d870e6e5c7928289e817a3065d634d7d376072d23f02852321166cfed305",
    },
    ("sanity", 9000): {
        "results": "95e9cc4c4af700190d9ef136a51117894ba0b9ea1c959bef3a1edffa94db3d1d",
        "summary": "34da1fc9dd899483964dd714411089712fc49be7bac5bb131c27496b834bf223",
        "areagraph": "2628c1fe22a522304089d45bfec07771a29f04b42570112e4dda514a56288eb0",
    },
    ("sanity", 9001): {
        "results": "bb6339d71e74b997894356a69621d13bc25521efbe5f09f05f2adeadb42da29d",
        "summary": "fd137e863ffc83f3656857c3cbace960a818639ab2b17b526f128648a4d1e7e1",
        "areagraph": "c169fa22534fbed180ca7df0c6b095fcc917728e10d2cd1b96204d7f3b3489bf",
    },
    ("sanity", 9002): {
        "results": "22f9a8e83caccfd5d7f2d92bb5c229b77198639860be6fbd552693ab6e8a17a5",
        "summary": "8d12a3932671f2bca617b038882148cf6bcd5c12d8f8805e27f3b69b126456af",
        "areagraph": "26e566d14cd49cb20a0a24f360ca241e3e3ca277d8ccbee08bd4c2fdec067595",
    },
}


@pytest.mark.parametrize("kind, master_seed", sorted(REPORT_SHA256))
def test_report_bytes(kind, master_seed, tmp_path):
    text = DESK_CONFIG if kind == "desk" else SANITY_CONFIG
    config = replace(config_from_tables(parse_tables(text)), master_seed=master_seed)
    if kind == "desk":
        _, paths = run_benchmark(config, out_dir=tmp_path)
    else:
        outcome = run_sanity(config, k=1, iterations=1)
        paths = write_report(
            outcome.results,
            config_echo=config_to_tables(config),
            master_seed=master_seed,
            out_dir=tmp_path,
        )
    got = {name: hashlib.sha256(Path(path).read_bytes()).hexdigest() for name, path in paths.items()}
    assert got == REPORT_SHA256[kind, master_seed]


# the config of demos/06_search_and_convergence.py, copied so that editing
# the demo cannot silently change what is pinned
DEMO06_CONFIG = """
[dataset]
kind = blobs
samples = 24
features = 16
classes = 4
mask = threshold

[model]
hidden = [12]
epochs = 12

[run]
tests = [ipt]
k = 2
iterations = 1
master_seed = 31

[methods]
use = [gradient, saliency, input_x_gradient]

[estimators]
use = [sparseness, complexity, pointing_game, relevance_mass_accuracy]

[estimators.faithfulness_correlation]
fc_runs = 20

[perturb.ipt.disruptive]
alpha = -1.0
beta = 1.0

[hpo]
estimator = faithfulness_correlation

[hpo.axes]
fc_baseline = [black, uniform, mean]
fc_subset_size = [2, 6, 10]
"""

# sha256 of the JSON of `run_hpo`'s ranked [cell, mc, {test: vector entries}]
# rows, and of `run_convergence`'s [[first, second, correlation,
# within_category] per pair, mean_within, mean_cross], at each master seed
EXPERIMENT_SHA256 = {
    ("hpo", "demo06", 31): "66dab6c52f67e8c2abc620aa31a2b8dae70317018c64e021653b0735cf52a699",
    ("hpo", "demo06", 32): "cc20baab78113136807e554b08524300f30bb356ddff500a1d9c6e5d77416fb1",
    ("hpo", "demo06", 33): "291a757f76542512ccdd012cad551c4d9d33188a5c34bf1a3d4e2af015f6ed10",
    ("convergence", "demo06", 31): "c86f675f16fe9c0e3cd59aec0c76d60f162cb0e277e33b3a063eebd5fd66ba3c",
    ("convergence", "demo06", 32): "62bb0377b04925d5713d790798a66d0176a63aa25f9ce35729cc0a91b253972d",
    ("convergence", "demo06", 33): "5b1b016493ce6b73e6a276ab29cef5698c5a17f121d9b7868d1824e9201d8217",
    ("convergence", "desk", 7000): "fe99448390a5fb4d0411a72baed864893c2d58d3439f77fc783b79f06689ffaa",
    ("convergence", "desk", 7001): "6c86959cdaa967a0ea72a1320426a29c5e1d1c4671816d2c622df24082204be8",
    ("convergence", "desk", 7002): "132936d37b469a2afb878148929d0d92515bb8cc99e977bf72248617ae6b3b10",
}


@pytest.mark.parametrize("experiment, kind, master_seed", sorted(EXPERIMENT_SHA256))
def test_experiment_readouts(experiment, kind, master_seed):
    text = DEMO06_CONFIG if kind == "demo06" else DESK_CONFIG
    config = replace(config_from_tables(parse_tables(text)), master_seed=master_seed)
    if experiment == "hpo":
        readout = [
            [row["cell"], row["mc"], {test: v.entries().tolist() for test, v in row["vectors"].items()}]
            for row in run_hpo(config)
        ]
    else:
        summary = run_convergence(config)
        pairs = [[*p["pair"], p["correlation"], p["within_category"]] for p in summary["pairs"]]
        readout = [pairs, summary["mean_within"], summary["mean_cross"]]
    got = hashlib.sha256(json.dumps(readout, sort_keys=True).encode()).hexdigest()
    assert got == EXPERIMENT_SHA256[experiment, kind, master_seed]
