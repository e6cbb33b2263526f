"""End-to-end command-line workflows and exit codes."""

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tvseg
from tvseg import trainer
from tvseg.cli import _config, _config_json, _load_config, build_parser, main
from tvseg.data import UNLABELED, SynthConfig, load_dataset, load_labels, save_labels
from tvseg.evaluate import ExperimentConfig, emit_table, parse_table, run_experiment
from tvseg.gradcheck import CheckResult
from tvseg.mrf import MrfConfig
from tvseg.network import LAYER_KINDS, LayerSpec, Network, save_checkpoint
from tvseg.pnm import read_pnm, write_pnm
from tvseg.trainer import SUPERVISED_LOSSES, TrainConfig

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


def test_gradcheck_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr("tvseg.cli.run_all", lambda seed: [CheckResult("a", True, 1e-9),
                                                           CheckResult("b", False, 0.5)])
    assert main(["gradcheck"]) == 2
    out, err = capsys.readouterr()
    assert "b: FAIL" in out and err == "1 of 2 checks FAILED\n"


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
    # one parser serves every main() call of the process; a parse that
    # fails or exits between the two runs leaves it usable
    assert build_parser() is build_parser()
    image = workspace / "data" / "test" / "images" / "test_000.pgm"
    a_dir, b_dir = workspace / "rerun_a", workspace / "rerun_b"
    for d in (a_dir, b_dir):
        assert main(["predict", "--checkpoint", str(workspace / "model.npz"),
                     "--image", str(image), "--out-prefix", str(d / "x")]) == 0
        if d == a_dir:
            assert main(["predict"]) == 1
            assert main(["--version"]) == 0
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


def _npz_bytes(meta: bytes | None, params=np.zeros(3)) -> bytes:
    """An npz archive of ``meta`` as bytes, left out if None, and ``params``."""
    arrays = {"params": params}
    if meta is not None:
        arrays["meta"] = np.frombuffer(meta, dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


# the metadata save_checkpoint writes for the tiny grey network, and its
# parameter count
_TINY_META = json.dumps({"version": 1, "specs": TINY_JSON, "patch_size": 9, "num_classes": 2,
                         "in_channels": 1, "seed": None}).encode()
_TINY_PARAMS = Network(tuple(LayerSpec(k, s) for k, s in TINY_JSON), 9, 2).params.size


def _central_entry(raw: bytes, offset: int, value: bytes) -> bytes:
    """``raw`` with ``value`` written at ``offset`` into its first zip
    central directory entry."""
    at = raw.index(b"PK\x01\x02") + offset
    return raw[:at] + value + raw[at + len(value):]


@pytest.mark.parametrize("content, code", [
    (b"PK\x03\x04" + bytes(range(256)), 3),
    (_npz_bytes(b"{}")[:300], 3),
    (b"", 3),
    (b"not a checkpoint\n", 3),
    (_central_entry(_npz_bytes(b"{}"), 10, b"\x63\x00"), 3),
    (_central_entry(_npz_bytes(b"{}"), 8, b"\x01\x00"), 3),
    (_central_entry(_npz_bytes(b"{}"), 6, b"\x40\x00"), 3),
    (_central_entry(_npz_bytes(b"{}"), 10, b"\x0c\x00"), 3),
    (_npz_bytes(b"[1, 2]"), 1),
    (_npz_bytes(None), 1),
    (_npz_bytes(_TINY_META, np.zeros(_TINY_PARAMS, complex)), 1),
    (_npz_bytes(_TINY_META, np.full(_TINY_PARAMS, "1")), 1),
    (_npz_bytes(_TINY_META, np.ones(_TINY_PARAMS, bool)), 1),
], ids=["garbage_zip", "truncated_zip", "empty", "not_npz", "compression_method",
        "encrypted", "zip_version", "bzip2_stream", "meta_not_object", "no_meta",
        "complex_params", "string_params", "bool_params"])
def test_predict_unreadable_checkpoint_exits_with_code(tmp_path, capsys, content, code):
    # a file that is no readable npz archive is an IO error, also one
    # whose zip entry needs a method or version zipfile lacks, is
    # encrypted, or fails to decompress; an archive without metadata,
    # whose metadata is not a JSON object, or whose params are not the
    # float64 vector save_checkpoint writes is invalid input.  Each
    # message names the file
    ckpt = tmp_path / "bad.npz"
    ckpt.write_bytes(content)
    img = tmp_path / "img.pgm"
    img.write_bytes(b"P5\n4 3\n255\n" + bytes(range(12)))
    assert main(["predict", "--checkpoint", str(ckpt), "--image", str(img),
                 "--out-prefix", str(tmp_path / "out" / "p")]) == code
    assert str(ckpt) in capsys.readouterr().err
    assert not list(tmp_path.rglob("*_class*.pgm"))


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Valid inputs of predict, mrf and eval: a grey PGM and an RGB PPM,
    each with a checkpoint that reads it, a 16-bit class map and a label
    map of the same size."""
    root = tmp_path_factory.mktemp("fuzz")
    specs = tuple(LayerSpec(k, s) for k, s in TINY_JSON)
    for channels, name in ((1, "grey.npz"), (3, "rgb.npz")):
        save_checkpoint(Network.init(specs, 9, 2, seed=channels, in_channels=channels),
                        root / name)
    rng = np.random.default_rng(0)
    (root / "img.pgm").write_bytes(b"P5\n# grey\n6 5\n255\n" + rng.bytes(30))
    (root / "img.ppm").write_bytes(b"P6\n6 5\n255\n" + rng.bytes(90))
    write_pnm(root / "class1.pgm", rng.integers(0, 65536, (5, 6)), 65535)
    (root / "truth").mkdir()
    save_labels(root / "truth" / "a.pgm", rng.integers(0, 2, (5, 6)))
    return root


@st.composite
def _mutated(draw, data: bytes, header: int) -> bytes:
    """``data`` with one to three flipped bytes, truncations, or digits,
    ``#`` or signs inserted into its first ``header`` bytes."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "insert"]))
        if not data or kind == "insert":
            i = draw(st.integers(0, min(header, len(data))))
            junk = draw(st.text("0123456789#+- \n", min_size=1, max_size=4))
            data = data[:i] + junk.encode() + data[i:]
        elif kind == "flip":
            i = draw(st.integers(0, len(data) - 1))
            data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
        else:
            data = data[:draw(st.integers(0, len(data) - 1))]
    return data


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_with_a_code(fuzz_inputs, data):
    # a damaged image, checkpoint or map makes predict, mrf and eval end
    # with an exit code and a message, never with a traceback
    root = fuzz_inputs
    name = data.draw(st.sampled_from(["img.pgm", "img.ppm", "grey.npz"]))
    valid = (root / name).read_bytes()
    # a checkpoint's header: its zip entry header and the meta array's npy header
    header = valid.index(b"}") + 1 if name.endswith(".npz") else valid.index(b"255\n") + 4
    mutated = data.draw(_mutated(valid, header))
    ckpt = root / ("rgb.npz" if name == "img.ppm" else "grey.npz")
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        tmp = Path(tmp)
        for d in ("probs", "pred"):
            (tmp / d).mkdir()
        bad = tmp / name
        bad.write_bytes(mutated)
        (tmp / "probs" / "a_class0.pgm").write_bytes(mutated)
        (tmp / "probs" / "a_class1.pgm").write_bytes((root / "class1.pgm").read_bytes())
        (tmp / "pred" / "a_labels.pgm").write_bytes(mutated)
        predict = ["predict", "--checkpoint", str(bad if name == "grey.npz" else ckpt),
                   "--image", str(root / "img.pgm" if name == "grey.npz" else bad),
                   "--out-prefix", str(tmp / "out" / "p")]
        mrf = ["mrf", "--probs", str(tmp / "probs"), "--beta", "1", "--out", str(tmp / "mrf")]
        eval_ = ["eval", "--pred", str(tmp / "pred"), "--truth", str(root / "truth"),
                 "--out", str(tmp / "eval.csv")]
        for argv in (predict, mrf, eval_):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue(), \
                (argv, err.getvalue())


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


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_synth_non_finite_noise_exits_one(tmp_path, monkeypatch, capsys, noise):
    # NaN noise would leave the images clean and infinite noise would
    # saturate every pixel; both are rejected before anything is written
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "d", "--noise-std", noise]) == 1
    assert "noise_std must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    ("train", '{"architecture": 5}', "architecture"),
    ("train", '{"architecture": [["dense", 2, 9]]}', "architecture"),
    ("train", '{"architecture": [null]}', "architecture"),
    ("train", '{"architecture": "relu"}', "architecture"),
    ("train", '{"architecture": {"a": 1}}', "architecture"),
], ids=["synth_float_count", "synth_bool_count", "synth_float_field", "train_float",
        "train_bool", "experiment_float_entry", "experiment_bare_int",
        "experiment_train_bool", "experiment_synth_float", "train_architecture_int",
        "train_architecture_triple", "train_architecture_null", "train_architecture_string",
        "train_architecture_object"])
def test_non_integer_config_fields_exit_one(workspace, tmp_path, monkeypatch, capsys,
                                            command, config, field):
    # integer fields take JSON integers only, and an architecture only a
    # list of kinds and [kind, size] pairs; the field is named, and
    # nothing is written or trained
    def no_training(*args, **kwargs):
        raise AssertionError("trained on a non-integer config field")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("tvseg.evaluate.train", no_training)
    if command == "train":  # valid but for the field, so only the check stops it
        config = json.dumps({"architecture": TINY_JSON, "patch_size": 9, "iterations": 2,
                             **json.loads(config)})
    (tmp_path / "bad.json").write_text(config)
    extra = {"synth": ["--out", "d"], "experiment": ["--out", "e"],
             "train": ["--data", str(workspace / "data" / "train"),
                       "--sparse", str(workspace / "sparse.csv"), "--out", "m.npz"]}
    assert main([command, "--config", "bad.json"] + extra[command]) == 1
    assert f"field {field} " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize("cls, field, value", [
    (MrfConfig, "max_iters", 1.5), (MrfConfig, "max_iters", True),
    (TrainConfig, "iterations", 2.5), (TrainConfig, "sup_batch", True),
    (TrainConfig, "unsup_batch", 1.5), (ExperimentConfig, "trials", 1.5),
    (ExperimentConfig, "labels_per_image", (2.5,)), (SynthConfig, "height", 20.0),
], ids=["mrf_float", "mrf_bool", "train_float", "train_bool", "train_float_batch",
        "experiment_float", "experiment_float_entry", "synth_float"])
def test_configs_built_in_python_take_integers_only(cls, field, value):
    # the rule the CLI applies to JSON configs holds for the constructors
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        cls(**{field: value})


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


def test_experiment_rejects_repeated_alphas_before_training(tmp_path, monkeypatch, capsys):
    # a repeated alpha would put two arms under one (budget, trial, alpha)
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the alphas were checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("tvseg.evaluate.train", no_training)
    assert main(["experiment", "--out", "e", "--trials", "1", "--alphas", "0.1,0.1"]) == 1
    assert "alphas must not repeat a value" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_experiment_rejects_alphas_sharing_a_row_label(tmp_path, monkeypatch, capsys):
    # 0.1 and 0.1000001 are two arms but both rows would read alpha=0.1
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the alphas were checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("tvseg.evaluate.train", no_training)
    assert main(["experiment", "--out", "e", "--trials", "1", "--alphas", "0.1,0.1000001"]) == 1
    assert "alphas 0.1 and 0.1000001 share the row label" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_MISSING = object()
_BAD_META = [(field, _MISSING) for field in ("version", "specs", "patch_size", "num_classes",
                                             "in_channels", "seed")]
_BAD_META += [("version", True), ("version", 2), ("patch_size", 9.0), ("num_classes", 2.0),
              ("in_channels", True), ("seed", "x"), ("seed", 1.5)]
_BAD_META += [("specs", 5), ("specs", [["dense", 2, 9]]), ("specs", [None]), ("specs", "relu"),
              ("specs", {"a": 1})]


@pytest.mark.parametrize("field, value", _BAD_META, ids=[
    f if v is _MISSING else f"{f}={v!r}" for f, v in _BAD_META])
def test_checkpoint_missing_metadata_field_exits_one(tmp_path, capsys, field, value):
    # a missing field, one that is not a JSON integer, malformed specs or
    # an unknown version is named with the file and nothing is written;
    # true, 9.0 and 2.0 equal the values they replace, so only the type
    # stops them
    specs = tuple(LayerSpec(k, s) for k, s in TINY_JSON)
    good = tmp_path / "good.npz"
    save_checkpoint(Network(specs, 9, 2), good)
    with np.load(good) as data:
        meta, params = json.loads(bytes(data["meta"])), data["params"]
    assert field in meta
    if value is _MISSING:
        del meta[field]
    else:
        meta[field] = value
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


def test_experiment_data_dir(tmp_path):
    # the protocol on a dataset read from disk equals the protocol on the
    # same images passed in memory, and the manifest digests every file
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--height", "20", "--width", "20",
                 "--num-shapes", "3", "--seed", "6",
                 "--num-train", "2", "--num-test", "2"]) == 0
    cfg = {"labels_per_image": [4], "trials": 1, "alphas": [0.1], "mrf_betas": [1.0],
           "train": {"iterations": 10, "patch_size": 9, "architecture": TINY_JSON}}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out),
                 "--data-dir", str(data)]) == 0
    expected = tmp_path / "expected.csv"
    emit_table(run_experiment(_config(ExperimentConfig, dict(cfg, data_dir=str(data))),
                              load_dataset(data / "train"), load_dataset(data / "test")),
               expected)
    assert (out / "results.csv").read_bytes() == expected.read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["data_dir"] == str(data)
    files = {str(f) for f in data.rglob("*") if f.is_file()}
    assert len(files) == 9  # 4 images, 4 label maps and the synth manifest
    assert set(manifest["input_digests"]) == files | {str(cfg_path)}


def _probs_dir(root, classes_by_stem):
    root.mkdir()
    probs = np.full((4, 5, 3), 1 / 3)
    for stem, classes in classes_by_stem.items():
        for k in classes:
            write_pnm(root / f"{stem}_class{k}.pgm",
                      np.rint(probs[:, :, k] * 65535).astype(np.uint16), 65535)


def _labels_dir(root, stems):
    root.mkdir()
    for stem in stems:
        save_labels(root / f"{stem}.pgm", np.zeros((4, 5), dtype=np.uint8))


# each command's input holds nothing it can work on; the message names
# the problem and no output is made
_EMPTY_INPUTS = {
    "sample_no_pgm": (lambda d: (d / "in").mkdir(),
                      ["sample", "--labels", "in", "--n", "1", "--out", "out/s.csv"],
                      "no label images"),
    "mrf_no_class_maps": (lambda d: _labels_dir(d / "in", ["a"]),
                          ["mrf", "--probs", "in", "--beta", "1", "--out", "out"],
                          "no probability maps"),
    "mrf_class_gap": (lambda d: _probs_dir(d / "in", {"a": [0, 1], "b": [0, 2]}),
                      ["mrf", "--probs", "in", "--beta", "1", "--out", "out"],
                      "b: class maps must cover 0..K-1, got [0, 2]"),
    "mrf_class_named_twice": (lambda d: (_probs_dir(d / "in", {"a": [0, 1]}),
                                         (d / "in" / "a_class01.pgm").write_bytes(
                                             (d / "in" / "a_class1.pgm").read_bytes())),
                              ["mrf", "--probs", "in", "--beta", "1", "--out", "out"],
                              "a_class01.pgm and a_class1.pgm both name class 1"),
    "eval_no_common_stems": (lambda d: (_labels_dir(d / "in", ["a_labels"]),
                                        _labels_dir(d / "truth", ["b"])),
                             ["eval", "--pred", "in", "--truth", "truth", "--out", "out/e.csv"],
                             "no matching label images"),
    "config_array": (lambda d: (d / "in").write_text("[1, 2]"),
                     ["synth", "--config", "in", "--out", "out"], "must hold a JSON object"),
}


def test_mrf_unreadable_map_writes_nothing(tmp_path):
    # a map that fails to read after another stem was smoothed leaves no
    # output directory behind
    _probs_dir(tmp_path / "in", {"a": [0, 1], "b": [0, 1]})
    bad = tmp_path / "in" / "b_class1.pgm"
    bad.write_bytes(bad.read_bytes()[:-3])
    assert main(["mrf", "--probs", str(tmp_path / "in"), "--beta", "1",
                 "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_over_255_classes_write_nothing(tmp_path, capsys):
    # a label image holds classes 0..254 (255 marks unlabeled pixels), so
    # 256 class maps, or a model with 256 classes, are refused before
    # anything is written
    (tmp_path / "in").mkdir()
    for k in range(256):
        write_pnm(tmp_path / "in" / f"a_class{k}.pgm", np.full((2, 3), 256, np.uint16), 65535)
    assert main(["mrf", "--probs", str(tmp_path / "in"), "--beta", "1",
                 "--out", str(tmp_path / "out")]) == 1
    assert "at most 255 classes" in capsys.readouterr().err
    specs = (LayerSpec("dense", 256), LayerSpec("softmax"))
    save_checkpoint(Network.init(specs, 3, 256, seed=0), tmp_path / "m.npz")
    write_pnm(tmp_path / "img.pgm", np.zeros((2, 3), np.uint8), 255)
    assert main(["predict", "--checkpoint", str(tmp_path / "m.npz"), "--image",
                 str(tmp_path / "img.pgm"), "--out-prefix", str(tmp_path / "out" / "p")]) == 1
    assert "at most 255 classes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", sorted(_EMPTY_INPUTS))
def test_inputs_without_work_exit_one(tmp_path, monkeypatch, capsys, case):
    setup, argv, message = _EMPTY_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    setup(tmp_path)
    made = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == made


def _option(action) -> str:
    text = action.option_strings[0]
    if action.required:
        text += "!"
    if action.default is not None:
        text += f"={action.default}"
    return text


# every option of every subcommand: "!" marks a required one and "=v" a
# default; each config field's default lives in its config class alone
CLI_SURFACE = {
    "synth": "--config --out! --height --width --num-shapes --noise-std --num-classes "
             "--seed --shade-split --shade-split-prob --shade-jitter --num-train --num-test",
    "sample": "--labels! --n! --seed=0 --out!",
    "train": "--config --data! --sparse! --out! --report --alpha --lr --weight-decay "
             "--sup-batch --unsup-batch --iterations --supervised-loss --seed "
             "--patch-size --num-classes",
    "predict": "--checkpoint! --image! --out-prefix!",
    "mrf": "--probs! --beta! --max-iters --out!",
    "eval": "--pred! --truth! --out!",
    "experiment": "--config --out! --master-seed --trials --labels-per-image --modes "
                  "--alphas --data-dir",
    "gradcheck": "--seed=0",
}


def test_cli_surface(tmp_path):
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(commands) == sorted(CLI_SURFACE)
    choices = {}
    for name, sub in commands.items():
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        assert " ".join(_option(a) for a in actions) == CLI_SURFACE[name], name
        choices.update({f"{name} {a.dest}": a.choices for a in actions if a.choices})
    assert choices == {"train supervised_loss": SUPERVISED_LOSSES}
    assert MrfConfig().max_iters == 10
    # mrf without --max-iters records the config class's default
    _probs_dir(tmp_path / "probs", {"a": [0, 1, 2]})
    assert main(["mrf", "--probs", str(tmp_path / "probs"), "--beta", "0.5",
                 "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["resolved_config"] == {"beta": 0.5, "max_iters": 10}


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


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
def test_numerical_failure_exits_two(workspace, tmp_path):
    cfg = tmp_path / "hot.json"
    cfg.write_text(json.dumps({"architecture": TINY_JSON, "patch_size": 9,
                               "iterations": 120, "lr": 1e6, "alpha": 0.0}))
    assert main(["train", "--config", str(cfg),
                 "--data", str(workspace / "data" / "train"),
                 "--sparse", str(workspace / "sparse.csv"),
                 "--out", str(tmp_path / "m.npz")]) == 2


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
def test_experiment_numerical_failure_exits_two(tmp_path, capsys):
    # the NumericalError is raised in a worker process; it reaches the
    # command as itself, nothing is written and no worker is left running
    cfg = tmp_path / "hot.json"
    cfg.write_text(json.dumps({
        "labels_per_image": [5], "trials": 1, "alphas": [0.1], "mrf_betas": [1.0],
        "train": {"iterations": 120, "lr": 1e6, "patch_size": 9,
                  "architecture": TINY_JSON},
        "synth": {"height": 20, "width": 20, "num_shapes": 3, "seed": 2},
        "num_train": 2, "num_test": 2}))
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err
    assert not out.exists()
    assert multiprocessing.active_children() == []


def _children(pid: int) -> Path:
    return Path(f"/proc/{pid}/task/{pid}/children")


def _alive(pid: str) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def _cli_env() -> dict:
    """This environment, with the tvseg sources under test first on the path."""
    src = str(Path(tvseg.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _default_sigint():
    """Give the command the default SIGINT action, which Python turns into
    KeyboardInterrupt: a background job of a non-interactive shell starts
    with SIGINT ignored, and its children inherit that."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _start_long_experiment(tmp_path, iterations: int):
    """A two-job experiment with the tiny architecture in a child process,
    returned with its workers' pids once all of them run.  If they do not
    within 60 s, the command is killed and the test fails."""
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({
        "labels_per_image": [5], "trials": 1, "alphas": [0.1], "mrf_betas": [1.0],
        "train": {"iterations": iterations, "patch_size": 9, "architecture": TINY_JSON},
        "synth": {"height": 20, "width": 20, "num_shapes": 3, "seed": 2},
        "num_train": 2, "num_test": 2}))
    proc = subprocess.Popen([sys.executable, "-m", "tvseg.cli", "experiment",
                             "--config", str(cfg), "--out", str(tmp_path / "exp")],
                            env=_cli_env(), preexec_fn=_default_sigint,
                            stderr=subprocess.PIPE, text=True)
    expected = min(2, len(os.sched_getaffinity(0)))  # two jobs
    workers: list[str] = []
    deadline = time.monotonic() + 60
    try:
        while len(workers) < expected and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = _children(proc.pid).read_text().split()
    finally:
        if len(workers) < expected:
            proc.kill()
    assert len(workers) == expected
    return proc, workers


def _workers_left(workers: list[str]) -> list[str]:
    """The workers still alive after up to 30 s; they are killed, so that a
    failed run does not leave them training."""
    deadline = time.monotonic() + 30
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if _alive(pid)]
    for pid in left:
        os.kill(int(pid), signal.SIGKILL)
    return left


_needs_proc_children = pytest.mark.skipif(
    not _children(os.getpid()).exists(),
    reason="the kernel lists no child processes under /proc")


@_needs_proc_children
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["term", "kill"])
def test_killed_experiment_leaves_no_worker(tmp_path, sig):
    # the workers end with the command even when a signal kills it in
    # the middle of a training
    proc, workers = _start_long_experiment(tmp_path, 10 ** 6)
    proc.send_signal(sig)
    proc.communicate(timeout=60)
    assert _workers_left(workers) == []


@_needs_proc_children
def test_interrupted_experiment_ends_at_once(tmp_path):
    # a SIGINT to the command alone, not to its workers: the command kills
    # them instead of waiting for their trainings, then exits 130
    proc, workers = _start_long_experiment(tmp_path, 200_000)
    try:
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
        left = _workers_left(workers)
    assert proc.returncode == 130 and err == "interrupted\n"
    assert left == [] and not (tmp_path / "exp").exists()


@_needs_proc_children
def test_lost_worker_exits_one(tmp_path):
    # a worker killed as the out-of-memory killer would: one line of
    # message, no traceback, nothing written
    proc, workers = _start_long_experiment(tmp_path, 200_000)
    try:
        os.kill(int(workers[0]), signal.SIGKILL)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        left = _workers_left(workers)
    assert proc.returncode == 1
    assert err.startswith("worker failure: a worker process died") and err.count("\n") == 1
    assert left == [] and not (tmp_path / "exp").exists()


_needs_helper = pytest.mark.skipif(not trainer._helper_fits(),
                                   reason="tvseg train runs no TV helper process here")


def _train_argv(workspace, cfg: Path, out: Path) -> list[str]:
    return [sys.executable, "-m", "tvseg.cli", "train", "--config", str(cfg),
            "--data", str(workspace / "data" / "train"),
            "--sparse", str(workspace / "sparse.csv"), "--out", str(out)]


def _train_config(tmp_path, iterations: int) -> Path:
    cfg = tmp_path / "alpha.json"
    cfg.write_text(json.dumps({"architecture": TINY_JSON, "iterations": iterations,
                               "patch_size": 9, "seed": 5, "alpha": 0.1}))
    return cfg


def _trained(out: Path) -> tuple:
    """The members of a checkpoint (the zip archive's own timestamps
    aside) and its loss CSV."""
    with zipfile.ZipFile(out) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    return members, out.with_suffix(".report.csv").read_bytes()


def _start_long_train(workspace, tmp_path, iterations: int):
    """``tvseg train`` at alpha 0.1 with the tiny architecture in a child
    process, returned with its one child, the TV helper, once that runs.
    The command must have exactly that child, also a moment later, and
    the helper's CPU mask must be the command's less one CPU; if not, the
    command is killed and the test fails."""
    proc = subprocess.Popen(_train_argv(workspace, _train_config(tmp_path, iterations),
                                        tmp_path / "m.npz"),
                            env=_cli_env(), preexec_fn=_default_sigint,
                            stderr=subprocess.PIPE, text=True)
    children, later, masks = [], [], None
    deadline = time.monotonic() + 60
    try:
        while not children and time.monotonic() < deadline:
            time.sleep(0.01)
            children = _children(proc.pid).read_text().split()
        time.sleep(0.2)
        later = _children(proc.pid).read_text().split()
        masks = os.sched_getaffinity(proc.pid), os.sched_getaffinity(int(later[0]))
    finally:
        ok = (len(children) == 1 and later == children and masks is not None
              and masks[1] < masks[0] and len(masks[0] - masks[1]) == 1)
        if not ok:
            proc.kill()
    assert ok, (children, later, masks)
    return proc, children[0]


@_needs_proc_children
@_needs_helper
def test_interrupted_train_reaps_its_helper(workspace, tmp_path):
    # a SIGINT to the command alone: the helper ignores it, and the
    # command kills and reaps it, then exits 130
    proc, helper = _start_long_train(workspace, tmp_path, 10 ** 7)
    try:
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=10)
        reaped = not _alive(helper)
    finally:
        proc.kill()
        _workers_left([helper])
    assert proc.returncode == 130 and err == "interrupted\n"
    assert reaped and not (tmp_path / "m.npz").exists()


@_needs_proc_children
@_needs_helper
def test_killed_train_leaves_no_helper(workspace, tmp_path):
    proc, helper = _start_long_train(workspace, tmp_path, 10 ** 7)
    proc.kill()
    proc.communicate(timeout=60)
    assert _workers_left([helper]) == []


@_needs_proc_children
@_needs_helper
def test_train_finishes_inline_when_its_helper_dies(workspace, tmp_path):
    # the command reruns the lost step itself and trains on, to the bytes
    # of an undisturbed run
    proc, helper = _start_long_train(workspace, tmp_path, 3000)
    try:
        os.kill(int(helper), signal.SIGKILL)
        _, err = proc.communicate(timeout=300)
    finally:
        proc.kill()
    assert proc.returncode == 0, err
    undisturbed = tmp_path / "undisturbed.npz"
    subprocess.run(_train_argv(workspace, tmp_path / "alpha.json", undisturbed),
                   env=_cli_env(), check=True, capture_output=True, timeout=300)
    assert _trained(tmp_path / "m.npz") == _trained(undisturbed)


@_needs_helper
def test_train_identical_on_one_and_two_cpus(workspace, tmp_path):
    # the TV step in a helper process (two CPUs) or inline (one CPU),
    # each CPU mask set in the child only
    cfg = _train_config(tmp_path, 200)
    first, second = sorted(os.sched_getaffinity(0))[:2]
    trained = []
    for cpus in ({first}, {first, second}):
        out = tmp_path / f"cpus_{len(cpus)}.npz"
        subprocess.run(_train_argv(workspace, cfg, out), env=_cli_env(), check=True,
                       capture_output=True, timeout=300,
                       preexec_fn=lambda cpus=cpus: os.sched_setaffinity(0, cpus))
        trained.append(_trained(out))
    assert trained[0] == trained[1]


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


@_needs_helper
def test_unmappable_unsup_batch_exits_one(workspace, tmp_path, capsys):
    # 2**60 draws do not fit the TV helper's shared mapping: the training
    # goes inline, where drawing them is refused
    ckpt = tmp_path / "m.npz"
    assert main(["train", "--config", str(_train_config(tmp_path, 25)),
                 "--data", str(workspace / "data" / "train"),
                 "--sparse", str(workspace / "sparse.csv"),
                 "--out", str(ckpt), "--unsup-batch", str(2 ** 60)]) == 1
    err = capsys.readouterr().err
    assert "invalid input" in err and "Traceback" not in err
    assert not ckpt.exists()


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
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(_cli_env(), OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "tvseg.cli", "experiment",
                        "--config", str(cfg_path), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=600)
        tables.append((out / "results.csv").read_bytes())
    assert tables[0] == tables[1]


def test_unknown_command_exits_one():
    assert main(["frobnicate"]) == 1
