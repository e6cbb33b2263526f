"""Pixel-error metrics and the multi-trial experiment protocol.

An experiment fixes a dataset (synthetic or from disk), then for every
sparse-label budget and trial draws a fresh sparse label set, trains
each requested mode, and scores pooled test pixel error.  Modes:

* ``supervised``       the trainer with alpha = 0
* ``mrf_post``         the supervised model's probability maps smoothed
                       by ICM, with beta picked per trial by sweeping a
                       small grid on training-set error
* ``semi_supervised``  the trainer with alpha > 0; every alpha in the
                       sweep gets its own detail row and the best mean
                       per budget is reported as the mode's summary row

Trial seeds mix (master_seed, size, trial) so adding budgets or trials
never perturbs existing ones, and the supervised and semi-supervised
arms of one trial share their init and supervised-draw streams.
"""

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (LabeledImage, SynthConfig, UNLABELED, load_dataset,
                   merge_sparse, sample_sparse_labels, synth_dataset)
from .mrf import MrfConfig, argmax_labels, icm_smooth
from .rng import ROLE_SPARSE, ROLE_TRAIN, mix_seed
from .trainer import TrainConfig, predict_image, train

MODES = ("supervised", "mrf_post", "semi_supervised")


def _wrong_and_evaluated(pred: np.ndarray, truth: np.ndarray) -> tuple[int, int]:
    """Wrong and evaluated pixel counts; UNLABELED truth is not evaluated."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 2:
        raise ValueError(f"label shapes differ: {pred.shape} vs {truth.shape}")
    mask = truth != UNLABELED
    return int((pred[mask] != truth[mask]).sum()), int(mask.sum())


def pixel_error(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of evaluated pixels where pred differs from truth.

    Pixels whose truth is the UNLABELED sentinel are excluded.
    """
    wrong, n = _wrong_and_evaluated(pred, truth)
    if n == 0:
        raise ValueError("no evaluated pixels: truth is entirely unlabeled")
    return wrong / n


def pooled_error(preds: dict[str, np.ndarray], truths: dict[str, np.ndarray]) -> float:
    """Pixel error pooled over the evaluated pixels of every image in ``truths``.

    Each pixel weighs the same, so this is not the mean of the per-image
    errors when the images differ in size.
    """
    wrong = total = 0
    for name, truth in truths.items():
        w, n = _wrong_and_evaluated(preds[name], truth)
        wrong += w
        total += n
    if total == 0:
        raise ValueError("no evaluated pixels in any image")
    return wrong / total


@dataclass(frozen=True)
class ExperimentConfig:
    labels_per_image: tuple[int, ...] = (10,)
    trials: int = 5
    modes: tuple[str, ...] = MODES
    train: TrainConfig = field(default_factory=TrainConfig)
    alphas: tuple[float, ...] = (0.01, 0.1, 1.0)
    mrf_betas: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    mrf_max_iters: int = 10
    master_seed: int = 0
    synth: SynthConfig = field(default_factory=SynthConfig)
    num_train: int = 20
    num_test: int = 20
    data_dir: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.labels_per_image or any(n < 1 for n in self.labels_per_image):
            raise ValueError("labels_per_image entries must be at least 1")
        bad = set(self.modes) - set(MODES)
        if bad or not self.modes:
            raise ValueError(f"modes must be a non-empty subset of {MODES}")
        if not np.isfinite(self.alphas).all():
            raise ValueError("alphas must be finite")
        if "semi_supervised" in self.modes:
            if not self.alphas or any(a <= 0 for a in self.alphas):
                raise ValueError("alphas must be positive for semi_supervised mode")
        if not self.mrf_betas:
            raise ValueError("mrf_betas must be non-empty")
        for beta in self.mrf_betas:
            MrfConfig(beta, self.mrf_max_iters)
        if self.data_dir is None:
            if self.num_train < 1 or self.num_test < 1:
                raise ValueError("num_train and num_test must be at least 1")
            if self.train.num_classes != self.synth.num_classes:
                raise ValueError("train.num_classes must match synth.num_classes")


@dataclass(frozen=True)
class ExperimentRow:
    labels_per_image: int
    mode: str
    trial_errors: tuple[float, ...]
    mean_error: float
    std_error: float


@dataclass
class ExperimentResult:
    rows: list[ExperimentRow]
    trials: int

    def row(self, size: int, mode: str) -> ExperimentRow:
        for r in self.rows:
            if r.labels_per_image == size and r.mode == mode:
                return r
        raise KeyError(f"no row for size={size} mode={mode!r}")


def _make_row(size: int, mode: str, errors: list[float]) -> ExperimentRow:
    arr = np.asarray(errors, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return ExperimentRow(size, mode, tuple(float(e) for e in errors),
                         float(arr.mean()), std)


def _predict_all(net, images: dict[str, LabeledImage]) -> dict[str, np.ndarray]:
    return {name: predict_image(net, li) for name, li in images.items()}


def _argmax_all(probs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: argmax_labels(p) for name, p in probs.items()}


def _check_labels(images: dict[str, LabeledImage], k: int, what: str) -> None:
    for name, li in images.items():
        classes = li.labels[li.labels != UNLABELED]
        if classes.size and int(classes.max()) >= k:
            raise ValueError(f"{what} image {name!r} has class {int(classes.max())} "
                             f"but the model has {k} classes")


def run_experiment(cfg: ExperimentConfig,
                   train_images: dict[str, LabeledImage] | None = None,
                   test_images: dict[str, LabeledImage] | None = None) -> ExperimentResult:
    """Run the full protocol and return one result row per (size, mode).

    The dataset is fixed for the whole experiment; only the sparse label
    draw, the network init and the SGD streams vary per (size, trial).
    Pass ``train_images``/``test_images`` to skip dataset loading.
    """
    if train_images is None or test_images is None:
        if cfg.data_dir is not None:
            root = Path(cfg.data_dir)
            train_images = load_dataset(root / "train")
            test_images = load_dataset(root / "test")
        else:
            train_images = synth_dataset(cfg.synth, cfg.num_train, "train", seed_offset=0)
            test_images = synth_dataset(cfg.synth, cfg.num_test, "test", seed_offset=1)
    k = cfg.train.num_classes
    _check_labels(train_images, k, "train")
    _check_labels(test_images, k, "test")
    train_truth = {name: li.labels for name, li in train_images.items()}
    test_truth = {name: li.labels for name, li in test_images.items()}

    need_sup = "supervised" in cfg.modes or "mrf_post" in cfg.modes
    rows: list[ExperimentRow] = []
    for size in cfg.labels_per_image:
        sup_errs: list[float] = []
        mrf_errs: list[float] = []
        semi_errs: dict[float, list[float]] = {a: [] for a in cfg.alphas}
        for t in range(cfg.trials):
            trial_seed = mix_seed(cfg.master_seed, size, t)
            sparse = merge_sparse([
                sample_sparse_labels(li.labels, size,
                                     seed=mix_seed(trial_seed, ROLE_SPARSE, i),
                                     image_id=name)
                for i, (name, li) in enumerate(train_images.items())])
            base = replace(cfg.train, seed=mix_seed(trial_seed, ROLE_TRAIN))

            if need_sup:
                net0, _ = train(train_images, sparse, replace(base, alpha=0.0))
                test_probs = _predict_all(net0, test_images)
                sup_errs.append(pooled_error(_argmax_all(test_probs), test_truth))
                if "mrf_post" in cfg.modes:
                    train_probs = _predict_all(net0, train_images)
                    best_beta, best_err = cfg.mrf_betas[0], np.inf
                    for beta in cfg.mrf_betas:
                        mc = MrfConfig(beta, cfg.mrf_max_iters)
                        smoothed = {n: icm_smooth(p, mc) for n, p in train_probs.items()}
                        err = pooled_error(smoothed, train_truth)
                        if err < best_err:
                            best_beta, best_err = beta, err
                    mc = MrfConfig(best_beta, cfg.mrf_max_iters)
                    smoothed = {n: icm_smooth(p, mc) for n, p in test_probs.items()}
                    mrf_errs.append(pooled_error(smoothed, test_truth))

            if "semi_supervised" in cfg.modes:
                for a in cfg.alphas:
                    net, _ = train(train_images, sparse, replace(base, alpha=a))
                    preds = _argmax_all(_predict_all(net, test_images))
                    semi_errs[a].append(pooled_error(preds, test_truth))

        if "supervised" in cfg.modes:
            rows.append(_make_row(size, "supervised", sup_errs))
        if "mrf_post" in cfg.modes:
            rows.append(_make_row(size, "mrf_post", mrf_errs))
        if "semi_supervised" in cfg.modes:
            detail = [_make_row(size, f"semi_supervised(alpha={a:g})", semi_errs[a])
                      for a in cfg.alphas]
            rows.extend(detail)
            best = min(detail, key=lambda r: r.mean_error)
            rows.append(ExperimentRow(size, "semi_supervised", best.trial_errors,
                                      best.mean_error, best.std_error))
    return ExperimentResult(rows, cfg.trials)


def emit_table(res: ExperimentResult, path) -> None:
    """Write the result as CSV, one row per (size, mode)."""
    cols = "labels_per_image,mode,mean_error,std_error"
    if res.rows:
        cols += "".join(f",trial_{i}" for i in range(res.trials))
    with open(path, "w") as fh:
        fh.write(cols + "\n")
        for r in res.rows:
            cells = [str(r.labels_per_image), r.mode,
                     repr(r.mean_error), repr(r.std_error)]
            cells += [repr(e) for e in r.trial_errors]
            fh.write(",".join(cells) + "\n")


def parse_table(path) -> list[ExperimentRow]:
    """Read back a CSV written by emit_table."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[:4] != ["labels_per_image", "mode", "mean_error", "std_error"]:
            raise ValueError(f"unexpected table header in {path}")
        for line in fh:
            cells = line.rstrip("\n").split(",")
            rows.append(ExperimentRow(int(cells[0]), cells[1],
                                      tuple(float(c) for c in cells[4:]),
                                      float(cells[2]), float(cells[3])))
    return rows
