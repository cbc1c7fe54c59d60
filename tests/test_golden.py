"""Golden numbers of a small two-test meta-evaluation and of a small sanity run.

Rerunning with the same seed and getting the same bytes shows determinism,
not correctness: a change that shifted every score would pass it.  This test
pins the trained weights and every per-iteration MetaVector of a small
config with both perturbation tests to 1e-12, so numeric drift fails here.
It also pins the per-iteration MetaVectors of `run_sanity` at N=256, K=2
and two iterations; its synthetic explainers never touch the net, so
batching the explain stage must leave them unchanged.  Last, it pins every
cell of the desk benchmark config (N=16, D=64, K=3, one iteration, all
eleven estimators) at one master seed.
A change that alters the numbers on purpose (batching ulp drift, a new seed
path) regenerates the values below and says so in CHANGES.md; the
perturbation-blind adversary's [1, 0, 1, 0] is exact and never regenerated.

To regenerate, print `get_weights(setup.net).tolist()` and, per cell,
`[v.entries().tolist() for v in cell.per_iteration]` for the runs below
(print floats with `repr`, so the exactly pinned desk cells round-trip).
"""
import numpy as np
import pytest

from xaimeta.consistency import run_meta_evaluation
from xaimeta.net import get_weights
from xaimeta.runconfig import config_from_tables, parse_tables
from xaimeta.runner import build_setup, run_sanity

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
        [0.6235249837239584, 0.890289306640625, 1.0, 0.20833333333333334],
        [0.4299723307291667, 0.7122446695963542, 1.0, 0.3125],
    ],
    ('faithfulness_correlation', 'mpt'): [
        [0.4204864501953125, 0.7123006184895833, 1.0, 0.6041666666666666],
        [0.5075480143229166, 0.36036173502604163, 1.0, 0.4791666666666667],
    ],
    ('max_sensitivity', 'ipt'): [
        [0.6322580973307291, 0.8137715657552084, 1.0, 0.3333333333333333],
        [0.2867431640625, 0.5557708740234375, 1.0, 0.2916666666666667],
    ],
    ('max_sensitivity', 'mpt'): [
        [0.24289957682291666, 0.8279215494791666, 0.9166666666666666, 0.5833333333333334],
        [0.3759256998697917, 0.5039011637369792, 0.9583333333333334, 0.625],
    ],
    ('model_parameter_randomisation', 'ipt'): [
        [0.9166666666666666, 0.4357147216796875, 1.0, 0.5],
        [1.0, 0.6598002115885417, 1.0, 0.625],
    ],
    ('model_parameter_randomisation', 'mpt'): [
        [0.8958333333333334, 0.6991373697916667, 1.0, 0.5833333333333334],
        [0.8333333333333334, 0.5141855875651042, 0.9583333333333334, 0.6041666666666666],
    ],
    ('pixel_flipping', 'ipt'): [
        [0.743896484375, 0.9983978271484375, 0.9375, 0.0625],
        [0.5140838623046875, 0.9977773030598959, 1.0, 0.10416666666666667],
    ],
    ('pixel_flipping', 'mpt'): [
        [0.16338602701822916, 0.6779378255208333, 1.0, 0.3333333333333333],
        [0.0104217529296875, 0.9989064534505209, 1.0, 0.041666666666666664],
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
        [9.697251331543774e-44, 1.0, 0.2333984375, 0.0],
        [9.697251331543774e-44, 1.0, 0.265625, 0.0],
    ],
    ("adversarial_distribution_shift", "mpt"): [
        [9.697251331543774e-44, 1.0, 0.2841796875, 0.0],
        [9.697251331543774e-44, 1.0, 0.2529296875, 0.0],
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
    ("faithfulness_correlation", "ipt"): [0.5653025309244791, 0.8957265218098959, 1.0, 0.2916666666666667],
    ("faithfulness_correlation", "mpt"): [0.523713853624132, 0.5899437798394098, 1.0, 0.5104166666666666],
    ("local_lipschitz", "ipt"): [0.4968617757161458, 0.5909288194444444, 1.0, 0.4791666666666667],
    ("local_lipschitz", "mpt"): [0.43868679470486116, 0.9432305230034722, 0.9583333333333334, 0.8958333333333334],
    ("max_sensitivity", "ipt"): [0.5471615261501735, 0.904083251953125, 0.9791666666666666, 0.17708333333333334],
    ("max_sensitivity", "mpt"): [0.4719424777560764, 0.9511430528428819, 0.9791666666666666, 0.8854166666666666],
    ("model_parameter_randomisation", "ipt"): [0.6749216715494791, 0.4487694634331597, 0.9791666666666666, 0.4270833333333333],
    ("model_parameter_randomisation", "mpt"): [0.5478803846571181, 0.6805267333984375, 0.96875, 0.3541666666666667],
    ("pixel_flipping", "ipt"): [0.4839952256944444, 0.9982757568359375, 0.9791666666666666, 0.020833333333333332],
    ("pixel_flipping", "mpt"): [0.46379937065972227, 0.8763359917534722, 0.9791666666666666, 0.125],
    ("pointing_game", "ipt"): [1.0, 0.5568576388888888, 1.0, 0.5729166666666666],
    ("pointing_game", "mpt"): [1.0, 0.7625596788194444, 1.0, 0.5208333333333334],
    ("random_logit", "ipt"): [0.794709947374132, 0.5772281222873263, 1.0, 0.5104166666666666],
    ("random_logit", "mpt"): [0.6667734781901041, 0.6561533610026042, 1.0, 0.6770833333333334],
    ("relevance_mass_accuracy", "ipt"): [0.6441429985894097, 0.7818688286675347, 0.9791666666666666, 0.8020833333333334],
    ("relevance_mass_accuracy", "mpt"): [0.40290154351128477, 0.9536421034071181, 1.0, 0.8020833333333334],
    ("sparseness", "ipt"): [0.7568155924479166, 0.7759382459852431, 1.0, 0.3854166666666667],
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
