"""End-to-end command-line workflows and exit codes."""

import json

import numpy as np
import pytest

from tvseg.cli import main
from tvseg.data import load_labels
from tvseg.evaluate import parse_table
from tvseg.network import LayerSpec, Network, save_checkpoint
from tvseg.pnm import read_pnm

TINY_JSON = [["conv3x3", 2], ["relu", 0], ["maxpool2x2", 0],
             ["dense", 8], ["relu", 0], ["dense", 2], ["softmax", 0]]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> sample -> train once; later tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--height", "20", "--width", "20",
                 "--num-shapes", "3", "--seed", "1",
                 "--num-train", "2", "--num-test", "1"]) == 0
    sparse = root / "sparse.csv"
    assert main(["sample", "--labels", str(data / "train" / "labels"),
                 "--n", "6", "--seed", "0", "--out", str(sparse)]) == 0
    cfg = root / "train.json"
    cfg.write_text(json.dumps({"architecture": TINY_JSON, "iterations": 25,
                               "patch_size": 9, "seed": 5, "alpha": 0.1}))
    ckpt = root / "model.npz"
    assert main(["train", "--config", str(cfg), "--data", str(data / "train"),
                 "--sparse", str(sparse), "--out", str(ckpt)]) == 0
    return root


def test_version_flag_exits_zero():
    assert main(["--version"]) == 0


def test_gradcheck_passes():
    assert main(["gradcheck", "--seed", "0"]) == 0


def test_synth_writes_dataset_and_manifest(workspace):
    data = workspace / "data"
    assert sorted(p.name for p in (data / "train" / "images").iterdir()) == \
        ["train_000.pgm", "train_001.pgm"]
    assert (data / "test" / "labels" / "test_000.pgm").exists()
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["master_seed"] == 1
    assert manifest["resolved_config"]["height"] == 20
    assert "timestamp" in manifest


def test_sample_respects_count(workspace):
    sparse = (workspace / "sparse.csv").read_text().splitlines()
    assert sparse[0] == "image_id,row,col,class"
    assert len(sparse) == 1 + 2 * 6  # two images, six labels each


def test_train_artifacts(workspace):
    assert (workspace / "model.npz").exists()
    report = (workspace / "model.report.csv").read_text().splitlines()
    assert report[0] == "iteration,sup_loss,unsup_loss,total_loss"
    assert len(report) == 26
    manifest = json.loads((workspace / "model.npz.manifest.json").read_text())
    assert manifest["resolved_config"]["iterations"] == 25
    assert manifest["resolved_config"]["alpha"] == 0.1
    assert manifest["input_digests"]  # dataset and sparse csv hashed


def test_predict_mrf_eval_pipeline(workspace):
    data = workspace / "data"
    pred = workspace / "pred"
    image = data / "test" / "images" / "test_000.pgm"
    assert main(["predict", "--checkpoint", str(workspace / "model.npz"),
                 "--image", str(image),
                 "--out-prefix", str(pred / "test_000")]) == 0
    assert (pred / "test_000_class0.pgm").exists()
    assert (pred / "test_000_class1.pgm").exists()
    assert (pred / "test_000_labels.pgm").exists()

    smoothed = workspace / "mrf"
    assert main(["mrf", "--probs", str(pred), "--beta", "1.0",
                 "--out", str(smoothed)]) == 0
    labels = load_labels(smoothed / "test_000_labels.pgm")
    assert labels.shape == (20, 20)

    out = workspace / "err.csv"
    assert main(["eval", "--pred", str(smoothed),
                 "--truth", str(data / "test" / "labels"),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "image_id,pixel_error"
    assert lines[-1].startswith("OVERALL,")
    err = float(lines[1].split(",")[1])
    assert 0.0 <= err <= 1.0


def test_predict_idempotent(workspace):
    image = workspace / "data" / "test" / "images" / "test_000.pgm"
    a_dir, b_dir = workspace / "rerun_a", workspace / "rerun_b"
    for d in (a_dir, b_dir):
        assert main(["predict", "--checkpoint", str(workspace / "model.npz"),
                     "--image", str(image), "--out-prefix", str(d / "x")]) == 0
    for name in ("x_class0.pgm", "x_class1.pgm", "x_labels.pgm"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_predict_uniform_checkpoint(tmp_path):
    specs = tuple(LayerSpec(k, s) for k, s in TINY_JSON)
    net = Network(specs, 9, 2)  # all-zero parameters
    ckpt = tmp_path / "zero.npz"
    save_checkpoint(net, ckpt)
    img = tmp_path / "img.pgm"
    img.write_bytes(b"P5\n4 3\n255\n" + bytes(range(12)))
    assert main(["predict", "--checkpoint", str(ckpt), "--image", str(img),
                 "--out-prefix", str(tmp_path / "u")]) == 0
    for k in (0, 1):
        samples, maxval = read_pnm(tmp_path / f"u_class{k}.pgm")
        assert maxval == 65535
        assert np.all(samples == round(0.5 * 65535))
    labels = load_labels(tmp_path / "u_labels.pgm")
    assert np.all(labels == 0)  # uniform ties resolve to class 0


@pytest.mark.parametrize("value", [np.nan, 1e300])
def test_predict_bad_checkpoint_writes_nothing(tmp_path, value):
    # NaN params are rejected on load; huge finite ones overflow to a
    # non-finite map, which is rejected before any class map is written
    specs = tuple(LayerSpec(k, s) for k, s in TINY_JSON)
    net = Network(specs, 9, 2)
    net.params[:] = value
    ckpt = tmp_path / "bad.npz"
    save_checkpoint(net, ckpt)
    img = tmp_path / "img.pgm"
    img.write_bytes(b"P5\n4 3\n255\n" + bytes(range(12)))
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["predict", "--checkpoint", str(ckpt), "--image", str(img),
                     "--out-prefix", str(out / "p")]) == 1
    assert not out.exists() or not any(out.iterdir())


def test_experiment_command(tmp_path):
    cfg = {
        "labels_per_image": [5],
        "trials": 1,
        "train": {"iterations": 15, "patch_size": 9, "architecture": TINY_JSON},
        "alphas": [0.1],
        "mrf_betas": [1.0],
        "synth": {"height": 20, "width": 20, "num_shapes": 3, "seed": 2},
        "num_train": 2,
        "num_test": 2,
        "master_seed": 3,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = parse_table(out / "results.csv")
    assert [r.mode for r in rows] == ["supervised", "mrf_post",
                                      "semi_supervised(alpha=0.1)",
                                      "semi_supervised"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["trials"] == 1
    assert manifest["resolved_config"]["train"]["patch_size"] == 9


def test_validation_errors_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_key": 1}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
    assert main(["experiment", "--config", str(bad),
                 "--out", str(tmp_path / "e")]) == 1
    # sampling more labels than pixels exist
    data = tmp_path / "tiny"
    assert main(["synth", "--out", str(data), "--height", "4", "--width", "4",
                 "--num-shapes", "1", "--num-train", "1", "--num-test", "1"]) == 0
    assert main(["sample", "--labels", str(data / "train" / "labels"),
                 "--n", "99", "--out", str(tmp_path / "s.csv")]) == 1


def test_io_errors_exit_three(workspace, tmp_path):
    assert main(["predict", "--checkpoint", str(tmp_path / "missing.npz"),
                 "--image", str(workspace / "data" / "test" / "images" / "test_000.pgm"),
                 "--out-prefix", str(tmp_path / "p")]) == 3
    corrupt = tmp_path / "pred"
    corrupt.mkdir()
    (corrupt / "a.pgm").write_bytes(b"P5\n2 2\n255\n\x00")  # truncated
    (tmp_path / "truth").mkdir()
    (tmp_path / "truth" / "a.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    assert main(["eval", "--pred", str(corrupt), "--truth", str(tmp_path / "truth"),
                 "--out", str(tmp_path / "e.csv")]) == 3


def test_numerical_failure_exits_two(workspace, tmp_path):
    cfg = tmp_path / "hot.json"
    cfg.write_text(json.dumps({"architecture": TINY_JSON, "patch_size": 9,
                               "iterations": 120, "lr": 1e6, "alpha": 0.0}))
    assert main(["train", "--config", str(cfg),
                 "--data", str(workspace / "data" / "train"),
                 "--sparse", str(workspace / "sparse.csv"),
                 "--out", str(tmp_path / "m.npz")]) == 2


def test_unknown_command_exits_one():
    assert main(["frobnicate"]) == 1
