"""Command-line front end.

Every command reads an optional JSON config, applies flag overrides,
validates, runs, and writes a run manifest next to its outputs (the
resolved config, tool version, seed, and sha256 digests of the
inputs).  Exit codes: 0 success, 1 validation error or a lost
experiment worker, 2 numerical failure, 3 IO error, 130 interrupted
(SIGINT or Ctrl-C).
"""

import argparse
import functools
import hashlib
import json
import math
import re
import sys
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import (SynthConfig, check_split_sizes, load_dataset, load_image,
                   load_labels, load_prob_map, load_sparse, merge_sparse,
                   sample_sparse_labels, save_dataset, save_labels,
                   save_prob_map, save_sparse, synth_dataset)
from .errors import NumericalError, WorkerLostError, check_int, check_int_fields
from .evaluate import (MODES, ExperimentConfig, emit_table, pixel_error, pooled_error,
                       run_experiment)
from .gradcheck import run_all
from .mrf import MrfConfig, argmax_labels, icm_smooth
from .network import load_checkpoint, save_checkpoint, specs_from_json, specs_to_json
from .pnm import PnmError
from .rng import ROLE_SPARSE, mix_seed
from .trainer import SUPERVISED_LOSSES, TrainConfig, predict_image, train


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _digest_inputs(paths) -> dict:
    out = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.is_file():
                    out[str(f)] = _sha256(f)
        elif p.is_file():
            out[str(p)] = _sha256(p)
    return out


def _write_manifest(path: Path, command: str, config: dict, seed, inputs) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "master_seed": seed,
        "resolved_config": config,
        "input_digests": _digest_inputs(inputs),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finite(parse):
    """A JSON number hook that rejects NaN, infinities and literals that
    overflow to infinity."""
    def number(text: str):
        if not math.isfinite(float(text)):
            raise ValueError(f"config number {text[:24]} is not finite")
        return parse(text)
    return number


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        try:
            obj = json.load(fh, parse_constant=_finite(float),
                            parse_float=_finite(float), parse_int=_finite(int))
        except RecursionError as exc:
            raise ValueError(f"config {path} is nested too deeply") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return obj


def _config(cls, raw, args=None):
    """Build the config dataclass ``cls`` from a JSON object.

    Every non-None attribute of ``args`` named like a field overrides the
    JSON value.  Fields of type ``int`` and ``tuple[int, ...]`` take JSON
    integers only.  Nested config sections are built by the same call, an
    ``architecture`` goes through ``specs_from_json`` and other lists
    become tuples.
    """
    section = cls.__name__.removesuffix("Config").lower()
    if not isinstance(raw, dict):
        raise ValueError(f"{section} config must be a JSON object")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(raw) - set(types)
    if unknown:
        raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")
    values = dict(raw)
    for name in types:
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    check_int_fields(cls, values, section)
    for name, value in values.items():
        if is_dataclass(types[name]):
            values[name] = _config(types[name], value)
        elif name == "architecture" and value is not None:
            values[name] = specs_from_json(value, f"{section} config field {name}")
        elif isinstance(value, list):
            values[name] = tuple(value)
    return cls(**values)


def _config_json(cfg) -> dict:
    """The JSON object that ``_config`` builds ``cfg`` from."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            value = _config_json(value)
        elif f.name == "architecture" and value is not None:
            value = specs_to_json(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _str_list(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    raw = _load_config(args.config)
    num_train = raw.pop("num_train", 20)
    num_test = raw.pop("num_test", 20)
    if args.num_train is not None:
        num_train = args.num_train
    if args.num_test is not None:
        num_test = args.num_test
    check_int("synth config field num_train", num_train)
    check_int("synth config field num_test", num_test)
    check_split_sizes(num_train, num_test)
    cfg = _config(SynthConfig, raw, args)
    out = Path(args.out)
    save_dataset(out / "train", synth_dataset(cfg, num_train, "train", seed_offset=0))
    save_dataset(out / "test", synth_dataset(cfg, num_test, "test", seed_offset=1))
    resolved = dict(_config_json(cfg), num_train=num_train, num_test=num_test)
    _write_manifest(out / "manifest.json", "synth", resolved, cfg.seed,
                    [args.config] if args.config else [])
    print(f"wrote {num_train} train and {num_test} test images under {out}")
    return 0


def cmd_sample(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    labels_dir = Path(args.labels)
    files = sorted(labels_dir.glob("*.pgm"))
    if not files:
        raise ValueError(f"no label images (*.pgm) found in {labels_dir}")
    sets = []
    for i, f in enumerate(files):
        dense = load_labels(f)
        sets.append(sample_sparse_labels(dense, args.n,
                                         seed=mix_seed(args.seed, ROLE_SPARSE, i),
                                         image_id=f.stem))
    sparse = merge_sparse(sets)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_sparse(sparse, out)
    resolved = {"labels": str(labels_dir), "n": args.n, "seed": args.seed}
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"),
                    "sample", resolved, args.seed, [labels_dir])
    print(f"sampled {len(sparse)} labels from {len(files)} images into {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _config(TrainConfig, _load_config(args.config), args)
    images = load_dataset(Path(args.data))
    sparse = load_sparse(Path(args.sparse))
    net, report = train(images, sparse, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(net, out)
    report_path = Path(args.report) if args.report else out.with_suffix(".report.csv")
    report.save(report_path)
    inputs = [Path(args.data), Path(args.sparse)]
    if args.config:
        inputs.append(Path(args.config))
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "train",
                    _config_json(cfg), cfg.seed, inputs)
    print(f"trained {cfg.iterations} iterations; checkpoint {out}, report {report_path}")
    return 0


def cmd_predict(args) -> int:
    net = load_checkpoint(Path(args.checkpoint))
    image = load_image(Path(args.image))
    probs = predict_image(net, image)
    labels = argmax_labels(probs)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    save_prob_map(prefix, probs)
    save_labels(Path(f"{prefix}_labels.pgm"), labels)
    resolved = {"checkpoint": str(args.checkpoint), "image": str(args.image)}
    _write_manifest(Path(f"{prefix}_manifest.json"), "predict", resolved,
                    net.seed, [args.checkpoint, args.image])
    print(f"wrote {probs.shape[2]} class maps and labels with prefix {prefix}")
    return 0


def cmd_mrf(args) -> int:
    cfg = _config(MrfConfig, {}, args)
    probs_dir = Path(args.probs)
    groups: dict[str, dict[int, Path]] = {}
    for f in sorted(probs_dir.glob("*.pgm")):
        m = re.fullmatch(r"(.+)_class(\d+)\.pgm", f.name)
        if m:
            k = int(m.group(2))
            other = groups.setdefault(m.group(1), {}).setdefault(k, f)
            if other != f:
                raise ValueError(f"{other.name} and {f.name} both name class {k}")
    if not groups:
        raise ValueError(f"no probability maps (*_class<k>.pgm) found in {probs_dir}")
    for stem, by_class in sorted(groups.items()):  # all checked before any is written
        if sorted(by_class) != list(range(len(by_class))):
            raise ValueError(f"{stem}: class maps must cover 0..K-1, got {sorted(by_class)}")
    labels = {stem: icm_smooth(load_prob_map([by_class[k] for k in sorted(by_class)]), cfg)
              for stem, by_class in sorted(groups.items())}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for stem, label_map in labels.items():
        save_labels(out / f"{stem}_labels.pgm", label_map)
    _write_manifest(out / "manifest.json", "mrf", _config_json(cfg), None, [probs_dir])
    print(f"smoothed {len(groups)} probability maps into {out}")
    return 0


def _eval_stem(name: str) -> str:
    return name[:-len("_labels")] if name.endswith("_labels") else name


def cmd_eval(args) -> int:
    pred_dir, truth_dir = Path(args.pred), Path(args.truth)
    preds = {_eval_stem(f.stem): f for f in sorted(pred_dir.glob("*.pgm"))}
    truths = {_eval_stem(f.stem): f for f in sorted(truth_dir.glob("*.pgm"))}
    common = sorted(set(preds) & set(truths))
    if not common:
        raise ValueError(f"no matching label images between {pred_dir} and {truth_dir}")
    pred_labels = {stem: load_labels(preds[stem]) for stem in common}
    truth_labels = {stem: load_labels(truths[stem]) for stem in common}
    errors = {stem: pixel_error(pred_labels[stem], truth_labels[stem]) for stem in common}
    overall = pooled_error(pred_labels, truth_labels)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        fh.write("image_id,pixel_error\n")
        for stem, err in errors.items():
            fh.write(f"{stem},{err!r}\n")
        fh.write(f"OVERALL,{overall!r}\n")
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "eval",
                    {"pred": str(pred_dir), "truth": str(truth_dir)}, None,
                    [pred_dir, truth_dir])
    print(f"evaluated {len(common)} images; overall error {overall:.4f}")
    return 0


def cmd_experiment(args) -> int:
    cfg = _config(ExperimentConfig, _load_config(args.config), args)
    result = run_experiment(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emit_table(result, out / "results.csv")
    inputs = [args.config] if args.config else []
    if cfg.data_dir:
        inputs.append(cfg.data_dir)
    _write_manifest(out / "manifest.json", "experiment",
                    _config_json(cfg), cfg.master_seed, inputs)
    print(f"wrote {len(result.rows)} result rows to {out / 'results.csv'}")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_all(args.seed)
    for r in results:
        print(r.line())
    if all(r.passed for r in results):
        print(f"all {len(results)} checks passed")
        return 0
    print(f"{sum(not r.passed for r in results)} of {len(results)} checks FAILED",
          file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call of the process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tvseg",
        description="patch-classifier training with a spatial smoothness loss")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic train/test dataset")
    p.add_argument("--config", help="JSON config for the generator")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--height", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--num-shapes", dest="num_shapes", type=int)
    p.add_argument("--noise-std", dest="noise_std", type=float)
    p.add_argument("--num-classes", dest="num_classes", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--shade-split", dest="shade_split", type=float)
    p.add_argument("--shade-split-prob", dest="shade_split_prob", type=float)
    p.add_argument("--shade-jitter", dest="shade_jitter", type=float)
    p.add_argument("--num-train", dest="num_train", type=int)
    p.add_argument("--num-test", dest="num_test", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sample", help="sample sparse labels from dense label images")
    p.add_argument("--labels", required=True, help="directory of dense label PGMs")
    p.add_argument("--n", type=int, required=True, help="labels per image")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output sparse CSV")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--config", help="JSON training config")
    p.add_argument("--data", required=True, help="dataset directory (images/ and labels/)")
    p.add_argument("--sparse", required=True, help="sparse label CSV")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--report", help="training report CSV (default <out>.report.csv)")
    p.add_argument("--alpha", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--sup-batch", dest="sup_batch", type=int)
    p.add_argument("--unsup-batch", dest="unsup_batch", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--supervised-loss", dest="supervised_loss", choices=SUPERVISED_LOSSES)
    p.add_argument("--seed", type=int)
    p.add_argument("--patch-size", dest="patch_size", type=int)
    p.add_argument("--num-classes", dest="num_classes", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify every pixel of an image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="input PGM/PPM image")
    p.add_argument("--out-prefix", dest="out_prefix", required=True,
                   help="prefix for per-class PGMs and the label PGM")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("mrf", help="smooth probability maps with ICM")
    p.add_argument("--probs", required=True, help="directory of *_class<k>.pgm maps")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--out", required=True, help="output directory for label PGMs")
    p.set_defaults(func=cmd_mrf)

    p = sub.add_parser("eval", help="pixel error of predicted labels")
    p.add_argument("--pred", required=True, help="directory of predicted label PGMs")
    p.add_argument("--truth", required=True, help="directory of ground-truth label PGMs")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="multi-trial benchmark protocol")
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--master-seed", dest="master_seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--labels-per-image", dest="labels_per_image", type=_int_list,
                   help="comma-separated sizes, e.g. 10,50")
    p.add_argument("--modes", type=_str_list,
                   help="comma-separated subset of " + ",".join(MODES))
    p.add_argument("--alphas", type=_float_list,
                   help="comma-separated smoothness weights")
    p.add_argument("--data-dir", dest="data_dir",
                   help="dataset directory (overrides synthetic data)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("gradcheck", help="run the gradient verification suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (PnmError, OSError) as exc:
        print(f"IO error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, MemoryError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except WorkerLostError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
