"""Pixel error and the experiment protocol on a tiny configuration."""

import numpy as np
import pytest

from tvseg.data import SynthConfig, UNLABELED
from tvseg.evaluate import (ExperimentConfig, ExperimentResult, ExperimentRow,
                            emit_table, parse_table, pixel_error,
                            run_experiment)
from tvseg.network import LayerSpec
from tvseg.trainer import TrainConfig

TINY = (LayerSpec("conv3x3", 2), LayerSpec("relu"), LayerSpec("maxpool2x2"),
        LayerSpec("dense", 8), LayerSpec("relu"), LayerSpec("dense", 2),
        LayerSpec("softmax"))


def _tiny_experiment(**kw):
    base = dict(
        labels_per_image=(5,),
        trials=2,
        train=TrainConfig(iterations=30, patch_size=9, architecture=TINY),
        alphas=(0.1,),
        mrf_betas=(0.5, 2.0),
        synth=SynthConfig(height=24, width=24, num_shapes=3, seed=1),
        num_train=2,
        num_test=2,
        master_seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# -- pixel error --------------------------------------------------------------


def test_pixel_error_trivial_cases():
    a = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    assert pixel_error(a, a) == 0.0
    assert pixel_error(1 - a, a) == 1.0
    b = a.copy()
    b[0, 0] = 1
    assert pixel_error(b, a) == 0.25


def test_pixel_error_excludes_unlabeled():
    truth = np.array([[0, UNLABELED], [1, UNLABELED]], dtype=np.uint8)
    pred = np.array([[0, 0], [0, 0]], dtype=np.uint8)
    assert pixel_error(pred, truth) == 0.5


def test_pixel_error_errors():
    with pytest.raises(ValueError):
        pixel_error(np.zeros((2, 2)), np.zeros((2, 3)))
    truth = np.full((2, 2), UNLABELED, dtype=np.uint8)
    with pytest.raises(ValueError):
        pixel_error(np.zeros((2, 2), dtype=np.uint8), truth)


def test_pixel_error_relabel_symmetry():
    rng = np.random.default_rng(0)
    pred = rng.integers(0, 3, size=(8, 8))
    truth = rng.integers(0, 3, size=(8, 8))
    perm = np.array([2, 0, 1])
    assert pixel_error(pred, truth) == pixel_error(perm[pred], perm[truth])


# -- config validation --------------------------------------------------------


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        _tiny_experiment(trials=0)
    with pytest.raises(ValueError):
        _tiny_experiment(labels_per_image=())
    with pytest.raises(ValueError):
        _tiny_experiment(modes=("supervised", "oracle"))
    with pytest.raises(ValueError):
        _tiny_experiment(alphas=(0.0,))
    with pytest.raises(ValueError):
        _tiny_experiment(train=TrainConfig(num_classes=3, architecture=None))


@pytest.mark.parametrize("modes", [("semi_supervised",), ("supervised",)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_experiment_config_rejects_non_finite_alphas(modes, bad):
    # also where no semi-supervised run reads them: they reach the manifest
    with pytest.raises(ValueError, match="alphas must be finite"):
        _tiny_experiment(modes=modes, alphas=(0.1, bad))


# -- the protocol -------------------------------------------------------------


def test_single_trial_supervised_reports_zero_std():
    cfg = _tiny_experiment(trials=1, modes=("supervised",))
    res = run_experiment(cfg)
    assert len(res.rows) == 1
    row = res.rows[0]
    assert row.mode == "supervised"
    assert row.std_error == 0.0
    assert len(row.trial_errors) == 1
    assert 0.0 <= row.mean_error <= 1.0


def test_experiment_deterministic():
    cfg = _tiny_experiment(trials=1)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.rows == b.rows


def test_experiment_row_layout():
    cfg = _tiny_experiment(trials=2, alphas=(0.05, 0.2))
    res = run_experiment(cfg)
    modes = [r.mode for r in res.rows]
    assert modes == ["supervised", "mrf_post",
                     "semi_supervised(alpha=0.05)",
                     "semi_supervised(alpha=0.2)",
                     "semi_supervised"]
    summary = res.row(5, "semi_supervised")
    details = [res.row(5, f"semi_supervised(alpha={a:g})") for a in (0.05, 0.2)]
    assert summary.mean_error == min(d.mean_error for d in details)
    for r in res.rows:
        arr = np.asarray(r.trial_errors)
        assert r.mean_error == pytest.approx(arr.mean())
        assert r.std_error == pytest.approx(arr.std(ddof=1))
    with pytest.raises(KeyError):
        res.row(5, "nope")


def test_stats_recomputable_from_trials():
    row = ExperimentRow(10, "supervised", (0.125, 0.25), 0.1875,
                        0.08838834764831845)
    arr = np.asarray(row.trial_errors)
    assert float(arr.mean()) == row.mean_error
    assert float(arr.std(ddof=1)) == row.std_error


# -- CSV emission -------------------------------------------------------------


def test_emit_empty_result_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_table(ExperimentResult([], trials=5), path)
    assert path.read_text() == "labels_per_image,mode,mean_error,std_error\n"


def test_emit_table_fixture(tmp_path):
    # trial errors 0.125 and 0.25: mean 0.1875, sample std sqrt(0.0078125)
    res = ExperimentResult(
        [ExperimentRow(10, "supervised", (0.125, 0.25), 0.1875,
                       0.08838834764831845)], trials=2)
    path = tmp_path / "one.csv"
    emit_table(res, path)
    expect = ("labels_per_image,mode,mean_error,std_error,trial_0,trial_1\n"
              "10,supervised,0.1875,0.08838834764831845,0.125,0.25\n")
    assert path.read_text() == expect


def test_emit_parse_roundtrip(tmp_path):
    cfg = _tiny_experiment(trials=1)
    res = run_experiment(cfg)
    path = tmp_path / "t.csv"
    emit_table(res, path)
    back = parse_table(path)
    assert back == res.rows


def test_parse_rejects_foreign_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError):
        parse_table(path)
