"""End-to-end command-line workflows and exit codes."""

import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tvseg
from tvseg.cli import _config, _config_json, _load_config, build_parser, main
from tvseg.data import UNLABELED, SynthConfig, load_labels, save_labels
from tvseg.evaluate import ExperimentConfig, parse_table
from tvseg.network import LAYER_KINDS, LayerSpec, Network, save_checkpoint
from tvseg.pnm import read_pnm
from tvseg.trainer import TrainConfig

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


def test_predict_channel_mismatch_exits_one(tmp_path, capsys):
    # a grey checkpoint on an RGB image fails before any work, naming
    # both channel counts
    specs = tuple(LayerSpec(k, s) for k, s in TINY_JSON)
    ckpt = tmp_path / "grey.npz"
    save_checkpoint(Network(specs, 9, 2), ckpt)
    img = tmp_path / "img.ppm"
    img.write_bytes(b"P6\n4 3\n255\n" + bytes(range(36)))
    out = tmp_path / "out"
    assert main(["predict", "--checkpoint", str(ckpt), "--image", str(img),
                 "--out-prefix", str(out / "p")]) == 1
    assert "3 channels, network expects 1" in capsys.readouterr().err
    assert not out.exists()


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


def _npz_bytes(meta: bytes) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, meta=np.frombuffer(meta, dtype=np.uint8), params=np.zeros(3))
    return buf.getvalue()


@pytest.mark.parametrize("content, code", [
    (b"PK\x03\x04" + bytes(range(256)), 3),
    (_npz_bytes(b"{}")[:300], 3),
    (b"", 3),
    (b"not a checkpoint\n", 3),
    (_npz_bytes(b"[1, 2]"), 1),
], ids=["garbage_zip", "truncated_zip", "empty", "not_npz", "meta_not_object"])
def test_predict_unreadable_checkpoint_exits_with_code(tmp_path, content, code):
    # a file that is no readable npz archive is an IO error; an archive
    # whose metadata is not a JSON object is invalid input
    ckpt = tmp_path / "bad.npz"
    ckpt.write_bytes(content)
    img = tmp_path / "img.pgm"
    img.write_bytes(b"P5\n4 3\n255\n" + bytes(range(12)))
    assert main(["predict", "--checkpoint", str(ckpt), "--image", str(img),
                 "--out-prefix", str(tmp_path / "out" / "p")]) == code
    assert not list(tmp_path.rglob("*_class*.pgm"))


def test_train_config_json_round_trip():
    specs = tuple(LayerSpec(k, s) for k, s in TINY_JSON)
    train = TrainConfig(alpha=0.3, patch_size=9, supervised_loss="mse", architecture=specs)
    synth = SynthConfig(height=9, width=11, noise_std=0.2, num_classes=3, channels=3)
    experiment = ExperimentConfig(labels_per_image=(3, 7), trials=2,
                                  modes=("supervised", "semi_supervised"),
                                  train=TrainConfig(num_classes=3, architecture=specs),
                                  alphas=(0.5,), mrf_betas=(1.0, 3.0), synth=synth,
                                  num_train=4, data_dir="somewhere")
    for cfg in (train, TrainConfig(), synth, experiment, ExperimentConfig()):
        assert _config(type(cfg), _config_json(cfg)) == cfg
        assert _config(type(cfg), json.loads(json.dumps(_config_json(cfg)))) == cfg
    obj = _config_json(experiment)
    assert obj["train"]["architecture"] == [list(e) for e in TINY_JSON]
    assert obj["labels_per_image"] == [3, 7] and obj["synth"]["channels"] == 3


# flag, its value, and the field value it must give; every value differs
# from the field's default
OVERRIDES = {
    "synth": [("--height", "7", 7), ("--width", "9", 9), ("--num-shapes", "2", 2),
              ("--noise-std", "0.25", 0.25), ("--num-classes", "3", 3),
              ("--seed", "11", 11), ("--shade-split", "0.5", 0.5),
              ("--shade-split-prob", "0.2", 0.2), ("--shade-jitter", "0.05", 0.05)],
    "train": [("--alpha", "0.7", 0.7), ("--lr", "0.01", 0.01),
              ("--weight-decay", "0.002", 0.002), ("--sup-batch", "3", 3),
              ("--unsup-batch", "4", 4), ("--iterations", "9", 9),
              ("--supervised-loss", "mse", "mse"), ("--seed", "13", 13),
              ("--patch-size", "7", 7), ("--num-classes", "3", 3)],
    "experiment": [("--master-seed", "4", 4), ("--trials", "2", 2),
                   ("--labels-per-image", "3,40", (3, 40)),
                   ("--modes", "supervised,mrf_post", ("supervised", "mrf_post")),
                   ("--alphas", "0.5,2", (0.5, 2.0)), ("--data-dir", "d", "d")],
}
REQUIRED = {"synth": ["--out", "o"],
            "train": ["--data", "d", "--sparse", "s", "--out", "o"],
            "experiment": ["--out", "o"]}
CONFIGS = {"synth": SynthConfig, "train": TrainConfig, "experiment": ExperimentConfig}


@pytest.mark.parametrize("command", sorted(OVERRIDES))
def test_override_flags_reach_their_fields(command):
    cls, parser = CONFIGS[command], build_parser()
    names = {f.name for f in fields(cls)}
    bare = vars(parser.parse_args([command] + REQUIRED[command]))
    overridable = {dest for dest in bare if dest in names}
    cases = OVERRIDES[command]
    assert overridable == {flag[2:].replace("-", "_") for flag, _, _ in cases}
    default = cls()
    for flag, text, expected in cases:
        name = flag[2:].replace("-", "_")
        assert getattr(default, name) != expected
        args = parser.parse_args([command] + REQUIRED[command] + [flag, text])
        # the flag wins over the config file's value of the same field
        cfg = _config(cls, _config_json(default), args)
        assert getattr(cfg, name) == expected
        changed = {k for k, v in _config_json(cfg).items() if v != _config_json(default)[k]}
        assert changed == {name}


_OVERFLOW = "<1e400>"  # replaced by the bare literal 1e400 in the config text
_numbers = st.one_of(st.integers(-3, 40), st.integers(), st.floats(-2, 50),
                     st.floats(), st.just(_OVERFLOW))
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), _numbers, st.text(max_size=6)),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids,
                                                              max_size=3),
    max_leaves=6)
_kinds = st.sampled_from(LAYER_KINDS + ("bogus",))
_architectures = st.lists(st.one_of(_kinds, st.lists(st.one_of(_kinds, _numbers), max_size=3),
                                    _json), max_size=5)


def _config_objects(cls):
    """JSON objects built from the fields of ``cls``, an unknown key, and
    values that are mostly plausible and sometimes of any JSON type."""
    default = _config_json(cls())

    def value(name):
        if name in ("train", "synth"):
            return st.one_of(_config_objects(CONFIGS[name]), _json)
        if name == "architecture":
            plausible = _architectures
        elif isinstance(default.get(name), list):
            plausible = st.lists(st.sampled_from(default[name]) | _numbers, max_size=3)
        else:
            plausible = st.one_of(_numbers, _json)
        return st.one_of(st.just(default.get(name)), plausible)

    keys = st.lists(st.sampled_from(sorted(default) + ["bogus_key"]), unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries({k: value(k) for k in ks}))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_fuzz_builds_or_rejects(tmp_path, data):
    cls = data.draw(st.sampled_from([SynthConfig, TrainConfig, ExperimentConfig]))
    obj = data.draw(_config_objects(cls))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj).replace(json.dumps(_OVERFLOW), "1e400"))
    try:
        cfg = _config(cls, _load_config(path))
    except (ValueError, KeyError, TypeError):  # what main() reports with exit 1
        return
    assert _config(cls, json.loads(json.dumps(_config_json(cfg), allow_nan=False))) == cfg


@pytest.mark.parametrize("command, config", [
    (["train", "--data", "d", "--sparse", "s.csv", "--out", "m.npz"],
     '{"architecture": [["dense", 1e400]]}'),
    (["train", "--data", "d", "--sparse", "s.csv", "--out", "m.npz"], '{"alpha": NaN}'),
    (["synth", "--out", "d"], '{"num_train": 1e400}'),
    (["synth", "--out", "d"], '{"height": 1%s}' % ("0" * 400)),
    (["experiment", "--out", "e"],
     '{"train": {"architecture": [["conv3x3", Infinity], ["softmax", 0]]}}'),
    (["experiment", "--out", "e"], "[" * 100000 + "]" * 100000),
], ids=["train_1e400", "train_nan", "synth_1e400", "synth_huge_int",
        "experiment_infinity", "experiment_deep_nesting"])
def test_nonfinite_config_numbers_exit_one(tmp_path, monkeypatch, command, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(config)
    assert main(command + ["--config", "bad.json"]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize("flags, config", [
    (["--num-train", "-1"], None),
    (["--num-test", "0"], None),
    ([], '{"num_train": 0}'),
    ([], '{"num_test": -3}'),
], ids=["flag_train", "flag_test", "config_train", "config_test"])
def test_synth_counts_below_one_exit_one(tmp_path, monkeypatch, flags, config):
    monkeypatch.chdir(tmp_path)
    if config:
        (tmp_path / "bad.json").write_text(config)
        flags = flags + ["--config", "bad.json"]
    assert main(["synth", "--out", "d"] + flags) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == (["bad.json"] if config else [])


@pytest.mark.parametrize("command, config, field", [
    ("synth", '{"num_train": 1.7}', "num_train"),
    ("synth", '{"num_test": true}', "num_test"),
    ("synth", '{"height": 20.0}', "height"),
    ("train", '{"seed": 1.5}', "seed"),
    ("train", '{"unsup_batch": false}', "unsup_batch"),
    ("experiment", '{"labels_per_image": [2.5]}', "labels_per_image"),
    ("experiment", '{"labels_per_image": 3}', "labels_per_image"),
    ("experiment", '{"train": {"iterations": true}}', "iterations"),
    ("experiment", '{"synth": {"num_shapes": 2.0}}', "num_shapes"),
], ids=["synth_float_count", "synth_bool_count", "synth_float_field", "train_float",
        "train_bool", "experiment_float_entry", "experiment_bare_int",
        "experiment_train_bool", "experiment_synth_float"])
def test_non_integer_config_fields_exit_one(workspace, tmp_path, monkeypatch, capsys,
                                            command, config, field):
    # integer fields take JSON integers only; the field is named, and
    # nothing is written or trained
    def no_training(*args, **kwargs):
        raise AssertionError("trained on a non-integer config field")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("tvseg.evaluate.train", no_training)
    if command == "train":  # valid but for the field, so only the check stops it
        config = json.dumps(dict(json.loads(config), architecture=TINY_JSON,
                                 patch_size=9, iterations=2))
    (tmp_path / "bad.json").write_text(config)
    extra = {"synth": ["--out", "d"], "experiment": ["--out", "e"],
             "train": ["--data", str(workspace / "data" / "train"),
                       "--sparse", str(workspace / "sparse.csv"), "--out", "m.npz"]}
    assert main([command, "--config", "bad.json"] + extra[command]) == 1
    assert f"field {field} " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize("flags", [["--lr", "inf"], ["--lr", "nan"], ["--weight-decay", "nan"],
                                   ["--alpha", "nan"], ["--alpha", "inf"]],
                         ids=["lr_inf", "lr_nan", "weight_decay_nan", "alpha_nan", "alpha_inf"])
def test_non_finite_train_flags_exit_one(workspace, tmp_path, monkeypatch, capsys, flags):
    # argparse reads these as floats; the config rejects them before any
    # training, so no checkpoint or manifest holding NaN is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"architecture": TINY_JSON,
                                                   "patch_size": 9}))
    assert main(["train", "--config", "cfg.json", "--iterations", "1",
                 "--data", str(workspace / "data" / "train"),
                 "--sparse", str(workspace / "sparse.csv"), "--out", "m.npz"] + flags) == 1
    assert "must be finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_non_finite_experiment_alphas_exit_one(tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained with a non-finite alpha")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("tvseg.evaluate.train", no_training)
    assert main(["experiment", "--out", "e", "--alphas", "0.1,nan"]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("at, entry", [(0, ["conv3x3", 8.7]), (3, ["dense", True]),
                                       (3, ["dense", "8"])], ids=["float", "bool", "string"])
def test_non_integer_architecture_sizes_exit_one(workspace, tmp_path, monkeypatch, capsys,
                                                 at, entry):
    # a layer size is a JSON integer: nothing is rounded, cast or trained
    arch = TINY_JSON[:at] + [entry] + TINY_JSON[at + 1:]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps({"architecture": arch, "patch_size": 9,
                                                   "iterations": 2}))
    assert main(["train", "--config", "bad.json",
                 "--data", str(workspace / "data" / "train"),
                 "--sparse", str(workspace / "sparse.csv"), "--out", "m.npz"]) == 1
    assert f"{entry[0]} layer size must be an integer" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def test_checkpoint_float_layer_size_exits_one(tmp_path, capsys):
    specs = tuple(LayerSpec(k, s) for k, s in TINY_JSON)
    good = tmp_path / "good.npz"
    save_checkpoint(Network(specs, 9, 2), good)
    with np.load(good) as data:
        meta, params = json.loads(bytes(data["meta"])), data["params"]
    assert meta["specs"][5] == ["dense", 2]
    meta["specs"][5] = ["dense", 2.0]
    ckpt = tmp_path / "bad.npz"
    np.savez(ckpt, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             params=params)
    img = tmp_path / "img.pgm"
    img.write_bytes(b"P5\n4 3\n255\n" + bytes(range(12)))
    assert main(["predict", "--checkpoint", str(ckpt), "--image", str(img),
                 "--out-prefix", str(tmp_path / "out" / "p")]) == 1
    assert "dense layer size must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", ['{"mrf_betas": [-1]}', '{"mrf_betas": [1.0, -0.5]}',
                                    '{"mrf_max_iters": 0}'],
                         ids=["negative_beta", "one_bad_beta", "zero_iters"])
def test_experiment_rejects_mrf_settings_before_training(tmp_path, monkeypatch, config):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the MRF settings were checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("tvseg.evaluate.train", no_training)
    (tmp_path / "bad.json").write_text(config)
    assert main(["experiment", "--out", "e", "--config", "bad.json"]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize("field", ["version", "specs", "patch_size", "num_classes",
                                   "in_channels", "seed"])
def test_checkpoint_missing_metadata_field_exits_one(tmp_path, capsys, field):
    specs = tuple(LayerSpec(k, s) for k, s in TINY_JSON)
    good = tmp_path / "good.npz"
    save_checkpoint(Network(specs, 9, 2), good)
    with np.load(good) as data:
        meta, params = json.loads(bytes(data["meta"])), data["params"]
    assert field in meta
    del meta[field]
    ckpt = tmp_path / "bad.npz"
    np.savez(ckpt, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             params=params)
    img = tmp_path / "img.pgm"
    img.write_bytes(b"P5\n4 3\n255\n" + bytes(range(12)))
    assert main(["predict", "--checkpoint", str(ckpt), "--image", str(img),
                 "--out-prefix", str(tmp_path / "out" / "p")]) == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and field in err
    assert not list(tmp_path.rglob("*_class*.pgm"))


def test_eval_overall_is_pixel_pooled(tmp_path):
    # 2x2 image all wrong (4 pixels) and 4x4 image all right with 6 of its
    # 16 pixels unlabeled: pooled 4/14, while the per-image mean is 0.5
    pred, truth = tmp_path / "pred", tmp_path / "truth"
    pred.mkdir()
    truth.mkdir()
    small = np.zeros((2, 2), dtype=np.uint8)
    large = np.ones((4, 4), dtype=np.uint8)
    save_labels(pred / "a_labels.pgm", small + 1)
    save_labels(truth / "a.pgm", small)
    save_labels(pred / "b_labels.pgm", large)
    large.flat[:6] = UNLABELED
    save_labels(truth / "b.pgm", large)
    out = tmp_path / "errors.csv"
    assert main(["eval", "--pred", str(pred), "--truth", str(truth), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "image_id,pixel_error", "a,1.0", "b,0.0", f"OVERALL,{4 / 14!r}"]


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


@pytest.mark.parametrize("n", ["0", "-2"])
def test_sample_count_below_one_exits_one(workspace, tmp_path, capsys, n):
    out = tmp_path / "s.csv"
    assert main(["sample", "--labels", str(workspace / "data" / "train" / "labels"),
                 "--n", n, "--out", str(out)]) == 1
    assert "--n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_validation_errors_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_key": 1}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
    assert main(["experiment", "--config", str(bad),
                 "--out", str(tmp_path / "e")]) == 1
    # the train config is checked before the (missing) data is read
    assert main(["train", "--config", str(bad), "--data", str(tmp_path / "none"),
                 "--sparse", str(tmp_path / "none.csv"),
                 "--out", str(tmp_path / "m.npz")]) == 1
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


# 225 inputs x 10**15 units: 1.8e18 float64 parameters (1.58 EiB), more
# than any address space holds, so the allocation fails at once
_UNALLOCATABLE = [["dense", 10 ** 15], ["dense", 2], ["softmax", 0]]


def test_unallocatable_sizes_exit_one(workspace, tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"architecture": _UNALLOCATABLE}))
    ckpt = tmp_path / "m.npz"
    assert main(["train", "--config", str(cfg),
                 "--data", str(workspace / "data" / "train"),
                 "--sparse", str(workspace / "sparse.csv"),
                 "--out", str(ckpt)]) == 1
    assert not ckpt.exists()
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({
        "labels_per_image": [2], "trials": 1, "alphas": [0.1], "mrf_betas": [1.0],
        "train": {"iterations": 1, "architecture": _UNALLOCATABLE},
        "synth": {"height": 8, "width": 8, "num_shapes": 1},
        "num_train": 1, "num_test": 1}))
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(exp), "--out", str(out)]) == 1
    assert not (out / "results.csv").exists()
    err = capsys.readouterr().err
    assert err.count("invalid input") == 2 and "Traceback" not in err


def test_experiment_identical_across_blas_threads(tmp_path):
    # criterion 6's experiment in two child processes, one with one
    # OpenBLAS thread and one with two; this process's environment is
    # left as it is
    cfg = {
        "labels_per_image": [5],
        "trials": 2,
        "train": {"iterations": 20, "patch_size": 9, "architecture": TINY_JSON},
        "alphas": [0.1],
        "mrf_betas": [0.5, 2.0],
        "synth": {"height": 24, "width": 24, "num_shapes": 3, "seed": 4},
        "num_train": 2,
        "num_test": 2,
        "master_seed": 11,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(tvseg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        subprocess.run([sys.executable, "-m", "tvseg.cli", "experiment",
                        "--config", str(cfg_path), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=600)
        tables.append((out / "results.csv").read_bytes())
    assert tables[0] == tables[1]


def test_unknown_command_exits_one():
    assert main(["frobnicate"]) == 1
