"""Acceptance gate.

One test per top-level promise of the package; each prints a single
CRITERION line so the suite output doubles as the acceptance report.
Criteria 3 and 4 share one benchmark run with the default protocol
(two sparse budgets, five trials each; takes a few minutes).  All
tolerances are stated inline next to the assertions.
"""

import json
import time

import numpy as np
import pytest

from tvseg.cli import main
from tvseg.data import SynthConfig, merge_sparse, sample_sparse_labels, \
    synth_dataset
from tvseg.evaluate import ExperimentConfig, run_experiment
from tvseg.gradcheck import run_all
from tvseg.mrf import MrfConfig, argmax_labels, icm_smooth, potts_energy
from tvseg.network import LayerSpec
from tvseg.trainer import TrainConfig, train
from tvseg.tv_loss import tv_theta_coeffs

_CACHE = {}


def _benchmark():
    """Default protocol: 20+20 synthetic 64x64 images, K=2, noise 0.1,
    budgets {10, 50}, 5 trials, alpha swept over {0.01, 0.1, 1}."""
    if "bench" not in _CACHE:
        cfg = ExperimentConfig(labels_per_image=(10, 50), trials=5)
        _CACHE["bench"] = run_experiment(cfg)
    return _CACHE["bench"]


def _report(num: int, ok: bool, detail: str):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_gradient_suites():
    # every finite-difference/scatter suite passes within its own
    # tolerance (1e-6 window coeffs, 1e-12 scatter, 1e-5 directional,
    # 1e-4 relative whole-network), under two minutes
    t0 = time.time()
    results = run_all(seed=0)
    elapsed = time.time() - t0
    for r in results:
        print(" ", r.line())
    ok = all(r.passed for r in results) and elapsed < 120.0
    _report(1, ok, f"{sum(r.passed for r in results)}/{len(results)} suites, "
                   f"{elapsed:.1f}s")


def test_criterion_2_coefficient_identity():
    # bottom-row-1 window must yield exactly the row-major x-derivative
    # kernel; constant windows must yield exactly zero
    bottom = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1.0])
    coeffs = tv_theta_coeffs(bottom)
    expect = np.array([-1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0])
    flat = tv_theta_coeffs(np.full(9, 0.3))
    ok = np.array_equal(coeffs, expect) and np.array_equal(flat, np.zeros(9))
    _report(2, ok, f"coeffs={coeffs.tolist()}")


def test_criterion_3_mode_ordering_at_ten_labels():
    # semi < mrf < supervised mean error, and the semi-supervised mean
    # beats supervised by at least 15% relative
    res = _benchmark()
    sup = res.row(10, "supervised").mean_error
    mrf = res.row(10, "mrf_post").mean_error
    semi = res.row(10, "semi_supervised").mean_error
    rel = (sup - semi) / sup
    ok = (semi < mrf < sup) and rel >= 0.15
    _report(3, ok, f"semi={semi:.4f} < mrf={mrf:.4f} < sup={sup:.4f}, "
                   f"relative gain {100 * rel:.1f}% (need >= 15%)")


def test_criterion_4_gap_shrinks_with_more_labels():
    res = _benchmark()
    sup10 = res.row(10, "supervised").mean_error
    sup50 = res.row(50, "supervised").mean_error
    gap10 = sup10 - res.row(10, "semi_supervised").mean_error
    gap50 = sup50 - res.row(50, "semi_supervised").mean_error
    ok = (sup50 < sup10) and (gap10 > gap50)
    _report(4, ok, f"sup50={sup50:.4f} < sup10={sup10:.4f}, "
                   f"gap {gap10:.4f} @10 vs {gap50:.4f} @50")


def test_criterion_5_degenerate_contracts():
    # (a) alpha=0 training is bitwise identical to the purely
    #     supervised path (unsupervised sampling disabled)
    tiny = (LayerSpec("conv3x3", 2), LayerSpec("relu"),
            LayerSpec("maxpool2x2"), LayerSpec("dense", 8),
            LayerSpec("relu"), LayerSpec("dense", 2), LayerSpec("softmax"))
    imgs = synth_dataset(SynthConfig(height=24, width=24, num_shapes=3,
                                     seed=8), 2, "img")
    sparse = merge_sparse([
        sample_sparse_labels(li.labels, 6, seed=i, image_id=n)
        for i, (n, li) in enumerate(imgs.items())])
    cfg = TrainConfig(alpha=0.0, iterations=40, patch_size=9, seed=12,
                      architecture=tiny)
    net_a, _ = train(imgs, sparse, cfg)
    from dataclasses import replace
    net_b, _ = train(imgs, sparse, replace(cfg, unsup_batch=0))
    bitwise = np.array_equal(net_a.params, net_b.params)

    # (b) beta=0 ICM equals argmax, (c) energy non-increasing per sweep
    rng = np.random.default_rng(20)
    beta0_ok = True
    energy_ok = True
    for i in range(100):
        p = rng.uniform(0.1, 1.0, size=(16, 16, 2))
        p /= p.sum(axis=2, keepdims=True)
        if i < 20:
            beta0_ok &= np.array_equal(icm_smooth(p, MrfConfig(beta=0.0)),
                                       argmax_labels(p))
        unary = -np.log(np.maximum(p, 1e-12))
        prev = potts_energy(argmax_labels(p), unary, 1.0)
        for iters in (1, 2, 3):
            e = potts_energy(icm_smooth(p, MrfConfig(1.0, iters)), unary, 1.0)
            energy_ok &= e <= prev + 1e-9
            prev = e
    ok = bitwise and beta0_ok and energy_ok
    _report(5, ok, f"alpha0 bitwise={bitwise}, beta0=argmax={beta0_ok}, "
                   f"energy monotone={energy_ok}")


def test_criterion_6_experiment_reruns_byte_identical(tmp_path):
    cfg = {
        "labels_per_image": [5],
        "trials": 2,
        "train": {"iterations": 20, "patch_size": 9, "architecture":
                  [["conv3x3", 2], ["relu", 0], ["maxpool2x2", 0],
                   ["dense", 8], ["relu", 0], ["dense", 2], ["softmax", 0]]},
        "alphas": [0.1],
        "mrf_betas": [0.5, 2.0],
        "synth": {"height": 24, "width": 24, "num_shapes": 3, "seed": 4},
        "num_train": 2,
        "num_test": 2,
        "master_seed": 11,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert main(["experiment", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        outs.append(out)
    csv_a = (outs[0] / "results.csv").read_bytes()
    csv_b = (outs[1] / "results.csv").read_bytes()
    man_a = json.loads((outs[0] / "manifest.json").read_text())
    man_b = json.loads((outs[1] / "manifest.json").read_text())
    man_a.pop("timestamp")
    man_b.pop("timestamp")
    ok = csv_a == csv_b and man_a == man_b
    _report(6, ok, f"results.csv {len(csv_a)} bytes, identical={csv_a == csv_b}")


def test_criterion_7_external_dataset_ordering():
    # needs a user-supplied converted dataset; not gating
    print("CRITERION 7: SKIP  optional external-data run; no converted "
          "dataset in this environment")
    pytest.skip("CRITERION 7: SKIP  optional external-data run; requires a "
                "user-supplied dataset")
