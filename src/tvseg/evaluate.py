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

The trainings share no state, so each (size, trial) is split into jobs,
one per arm: the supervised network with MRF-post on top of it, and one
network per alpha.  The jobs run in worker processes started with the
``fork`` start method (Linux; the images reach the workers with the
forked memory, not by pickling), one per CPU in the affinity mask.  This
process keeps every sparse draw and seed and keys each job's errors by
(budget, trial, alpha), alpha 0 for the supervised arm; every row reads
its trial columns by key, so ``results.csv`` is byte-identical at any
worker count and BLAS thread count.  The workers end with this process,
also when a signal kills it; an exception here, a SIGINT included, kills
them first.  They train without the trainer's TV helper process: the
pool already keeps every CPU busy.
"""

import os
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import trainer
from .data import (LabeledImage, SparseLabelSet, SynthConfig, UNLABELED,
                   check_split_sizes, load_dataset, merge_sparse, sample_sparse_labels,
                   synth_dataset)
from .errors import WorkerLostError, check_int_fields
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


def _pooled(counts: list[tuple[int, int]]) -> float:
    """Error of per-image (wrong, evaluated) counts, pooled."""
    wrong = sum(w for w, _ in counts)
    total = sum(n for _, n in counts)
    if total == 0:
        raise ValueError("no evaluated pixels in any image")
    return wrong / total


def pooled_error(preds: dict[str, np.ndarray], truths: dict[str, np.ndarray]) -> float:
    """Pixel error pooled over the evaluated pixels of every image in ``truths``.

    Each pixel weighs the same, so this is not the mean of the per-image
    errors when the images differ in size.
    """
    return _pooled([_wrong_and_evaluated(preds[name], truth) for name, truth in truths.items()])


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
        check_int_fields(ExperimentConfig, vars(self))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.labels_per_image or any(n < 1 for n in self.labels_per_image):
            raise ValueError("labels_per_image entries must be at least 1")
        for name in ("labels_per_image", "alphas"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value, got {list(values)}")
        bad = set(self.modes) - set(MODES)
        if bad or not self.modes:
            raise ValueError(f"modes must be a non-empty subset of {MODES}")
        if not np.isfinite(self.alphas).all():
            raise ValueError("alphas must be finite")
        labels = {}  # each alpha's row is told apart by its label alone
        for a in self.alphas:
            other = labels.setdefault(f"{a:g}", a)
            if other != a:
                raise ValueError(f"alphas {other!r} and {a!r} share the row label "
                                 f"semi_supervised(alpha={a:g})")
        if "semi_supervised" in self.modes:
            if not self.alphas or any(a <= 0 for a in self.alphas):
                raise ValueError("alphas must be positive for semi_supervised mode")
        if not self.mrf_betas:
            raise ValueError("mrf_betas must be non-empty")
        for beta in self.mrf_betas:
            MrfConfig(beta, self.mrf_max_iters)
        if self.data_dir is None:
            check_split_sizes(self.num_train, self.num_test)
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


def _check_labels(images: dict[str, LabeledImage], k: int, what: str) -> None:
    for name, li in images.items():
        classes = li.labels[li.labels != UNLABELED]
        if classes.size and int(classes.max()) >= k:
            raise ValueError(f"{what} image {name!r} has class {int(classes.max())} "
                             f"but the model has {k} classes")


# The experiment and its images, set in each worker by ``_share``.  Under
# the fork start method they reach the workers with the forked memory.
_shared = None


def _share(parent: int, cfg: ExperimentConfig, train_images: dict[str, LabeledImage],
           test_images: dict[str, LabeledImage]) -> None:
    """Worker set-up: keep the experiment, die with ``parent``, and train
    without a TV helper process, since the pool already fills every CPU."""
    global _shared
    trainer._die_with(parent)
    trainer._overlap = False
    _shared = cfg, train_images, test_images


def _scored(net, images: dict[str, LabeledImage], scorers) -> list[float]:
    """Pooled error of each of ``scorers`` (probability map to label map)
    over ``images``.  Each image is predicted, scored and dropped in turn,
    so one probability map is held at a time."""
    counts = [[] for _ in scorers]
    for li in images.values():
        probs = predict_image(net, li)
        for c, score in zip(counts, scorers):
            c.append(_wrong_and_evaluated(score(probs), li.labels))
    return [_pooled(c) for c in counts]


def _run_arm(sparse: SparseLabelSet, tcfg: TrainConfig) -> tuple[float, ...]:
    """Test errors of one trained arm of one (size, trial).

    At alpha = 0 the supervised error, then the MRF-post error at the first
    beta of least train error if that mode runs; at alpha > 0 the
    semi-supervised error.
    """
    cfg, train_images, test_images = _shared
    net, _ = train(train_images, sparse, tcfg)
    scorers = [argmax_labels]
    if tcfg.alpha == 0 and "mrf_post" in cfg.modes:
        smooth = [partial(icm_smooth, cfg=MrfConfig(beta, cfg.mrf_max_iters))
                  for beta in cfg.mrf_betas]
        train_errors = _scored(net, train_images, smooth)
        scorers.append(smooth[train_errors.index(min(train_errors))])
    return tuple(_scored(net, test_images, scorers))


def run_experiment(cfg: ExperimentConfig,
                   train_images: dict[str, LabeledImage] | None = None,
                   test_images: dict[str, LabeledImage] | None = None) -> ExperimentResult:
    """Run the full protocol and return one result row per (size, mode).

    The dataset is fixed for the whole experiment; only the sparse label
    draw, the network init and the SGD streams vary per (size, trial).
    Pass ``train_images``/``test_images`` to skip dataset loading.
    The jobs run in forked workers (see the module docstring); the first
    failing job's exception is raised here once the pool has shut down.
    """
    # imported here: at module level they would slow down every ``import tvseg``
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

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

    alphas = cfg.alphas if "semi_supervised" in cfg.modes else ()
    arms = ((0.0,) if {"supervised", "mrf_post"} & set(cfg.modes) else ()) + alphas
    keys, jobs = [], []
    for size in cfg.labels_per_image:
        for t in range(cfg.trials):
            trial_seed = mix_seed(cfg.master_seed, size, t)
            sparse = merge_sparse([
                sample_sparse_labels(li.labels, size,
                                     seed=mix_seed(trial_seed, ROLE_SPARSE, i),
                                     image_id=name)
                for i, (name, li) in enumerate(train_images.items())])
            base = replace(cfg.train, seed=mix_seed(trial_seed, ROLE_TRAIN))
            for alpha in arms:
                keys.append((size, t, alpha))
                jobs.append((sparse, replace(base, alpha=alpha)))

    pool = ProcessPoolExecutor(min(len(jobs), len(os.sched_getaffinity(0))),
                               mp_context=get_context("fork"), initializer=_share,
                               initargs=(os.getpid(), cfg, train_images, test_images))
    try:
        errors = dict(zip(keys, pool.map(_run_arm, *zip(*jobs))))
    except BrokenProcessPool:
        raise WorkerLostError("a worker process died before its job ended (killed "
                              "by a signal, such as the out-of-memory killer)") from None
    except BaseException:
        # shutdown would wait for the running trainings: end them first
        for worker in list(pool._processes.values()):
            worker.kill()
        raise
    finally:
        pool.shutdown(cancel_futures=True)

    def trial_errors(size, alpha, arm_error=0):
        return [errors[size, t, alpha][arm_error] for t in range(cfg.trials)]

    rows: list[ExperimentRow] = []
    for size in cfg.labels_per_image:
        if "supervised" in cfg.modes:
            rows.append(_make_row(size, "supervised", trial_errors(size, 0.0)))
        if "mrf_post" in cfg.modes:
            rows.append(_make_row(size, "mrf_post", trial_errors(size, 0.0, 1)))
        if alphas:
            detail = [_make_row(size, f"semi_supervised(alpha={a:g})", trial_errors(size, a))
                      for a in alphas]
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
