"""One benchmark process: set up a workload, time it, check its outputs.

``run.py`` starts this script several times per benchmark run.  Each
start performs the workload's full set-up and reports how long the
process took from launch to ready (``setup_s``); the last start then
repeats the workload's unit until ``--seconds`` have passed and writes
timings, checks and, with ``--trace 1``, per-layer metrics to ``--out``.

The workloads (see BENCHMARK.json for why each exists):

* ``protocol``    one trial of ``evaluate.run_experiment`` at 10 labels
                  per image with all three modes
* ``train_semi``  one ``train()`` at alpha = 0.1
* ``cli_large``   ``tvseg.cli.main`` predict on larger RGB images with a
                  K = 3 checkpoint, then mrf, then eval

Run ``python3 perfbench/run.py --help`` rather than this file.
"""

import argparse
import hashlib
import json
import math
import platform
import re
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tvseg.cli
import tvseg.evaluate
import tvseg.trainer
from tvseg.data import (LabeledImage, SynthConfig, merge_sparse,
                        sample_sparse_labels, save_image, save_labels,
                        synth_dataset, synth_generate)
from tvseg.evaluate import ExperimentConfig
from tvseg.mrf import MrfConfig, icm_smooth
from tvseg.network import load_checkpoint, save_checkpoint
from tvseg.trainer import TrainConfig, predict_image

import spans

HERE = Path(__file__).resolve().parent
LABELS_PER_IMAGE = 10
# At most two ICM sweeps per map.  Run to convergence, the number of
# sweeps a map needs depends on the scene and the trained network: ICM
# throughput swung by a factor of two between seeds and made up most of
# the seed-to-seed spread of wall_s.  Capped, ICM time is the per-sweep
# cost that a faster ICM would cut.
ICM_SWEEPS = 2


@dataclass(frozen=True)
class Sizes:
    """How much work one unit of each workload does."""
    protocol_images: int = 2        # train and test images each, of the default set
    protocol_iters: int = 180
    semi_images: int = 20
    semi_iters: int = 300
    cli_shapes: tuple = ((128, 128), (96, 80), (80, 96))
    cli_train_iters: int = 150


TINY = Sizes(protocol_images=1, protocol_iters=4, semi_images=2, semi_iters=40,
             cli_shapes=((20, 24),), cli_train_iters=4)


def sub_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def sparse_labels(images: dict, seed: int):
    return merge_sparse([
        sample_sparse_labels(li, LABELS_PER_IMAGE, seed=sub_seed(seed, i), image_id=name)
        for i, (name, li) in enumerate(images.items())])


def warm_up(li: LabeledImage, num_classes: int) -> None:
    """One small pass through training, prediction and ICM."""
    crop = LabeledImage(li.image[:20, :20], li.labels[:20, :20])
    cfg = TrainConfig(alpha=0.1, iterations=3, num_classes=num_classes)
    net, _ = tvseg.trainer.train({"warm": crop}, sparse_labels({"warm": crop}, 0), cfg)
    icm_smooth(predict_image(net, crop), MrfConfig(1.0))


def sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


# -- workloads ----------------------------------------------------------------


def protocol_sizes(sizes: Sizes) -> dict:
    return {"images": sizes.protocol_images, "iterations": sizes.protocol_iters,
            "icm_sweeps": ICM_SWEEPS}


def protocol_inputs(variant: int, sizes: Sizes):
    """Experiment config for one trial seed, and the first images of the
    default synthetic train and test sets."""
    synth = SynthConfig()
    n = sizes.protocol_images
    cfg = ExperimentConfig(labels_per_image=(LABELS_PER_IMAGE,), trials=1,
                           train=TrainConfig(iterations=sizes.protocol_iters),
                           mrf_max_iters=ICM_SWEEPS, num_train=n, num_test=n,
                           master_seed=variant, synth=synth)
    return (cfg, synth_dataset(synth, n, "train", seed_offset=0),
            synth_dataset(synth, n, "test", seed_offset=1))


class Protocol:
    """The paper's experiment: supervised, MRF-post and TV semi-supervised."""

    ops = 1
    variants = 16  # trial seeds repeat with this period; see protocol_ref.json

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        variant = seed % self.variants
        t = time.perf_counter()
        self.cfg, self.train_images, self.test_images = protocol_inputs(variant, sizes)
        self.synth_s = time.perf_counter() - t
        ref = json.loads((HERE / "protocol_ref.json").read_text())
        if ref["sizes"] != protocol_sizes(Sizes()):
            raise RuntimeError("protocol_ref.json was made for other sizes; "
                               "regenerate it on the reference commit")
        self.ref = ref["errors"][str(variant)] if sizes == Sizes() else None
        self.tolerance = ref["tolerance"]
        warm_up(next(iter(self.train_images.values())), 2)

    def prepare(self) -> None:
        pass

    def run(self):
        res = tvseg.evaluate.run_experiment(self.cfg, self.train_images, self.test_images)
        return tuple((r.mode, r.trial_errors) for r in res.rows)

    def digest(self, out) -> str:
        return sha256(repr(out).encode())

    def check(self, out) -> list[tuple[str, bool]]:
        errors = [e for _, errs in out for e in errs]
        checks = [("errors finite and in [0, 1]",
                   bool(errors) and all(math.isfinite(e) and 0.0 <= e <= 1.0 for e in errors))]
        if self.ref is not None:
            got = {mode: errs[0] for mode, errs in out}
            near = (got.keys() == self.ref.keys()
                    and all(abs(got[m] - self.ref[m]) <= self.tolerance for m in got))
            checks.append((f"errors within {self.tolerance} of the reference", near))
        return checks


class TrainSemi:
    """One TV-regularised training run: network at N = 8 and N = 72, TV loss."""

    ops = 1

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        t = time.perf_counter()
        self.images = synth_dataset(SynthConfig(), sizes.semi_images, "train", seed_offset=0)
        self.synth_s = time.perf_counter() - t
        self.sparse = sparse_labels(self.images, seed)
        self.cfg = TrainConfig(alpha=0.1, iterations=sizes.semi_iters, seed=seed)
        warm_up(next(iter(self.images.values())), 2)

    def prepare(self) -> None:
        pass

    def run(self):
        net, report = tvseg.trainer.train(self.images, self.sparse, self.cfg)
        return net.params.copy(), report.sup_loss.copy(), report.total_loss.copy()

    def digest(self, out) -> str:
        return sha256(*(a.tobytes() for a in out))

    def check(self, out) -> list[tuple[str, bool]]:
        params, sup, total = out
        tenth = max(1, sup.size // 10)
        return [
            ("parameters and losses finite",
             bool(np.isfinite(params).all() and np.isfinite(total).all())),
            ("supervised loss falls",
             bool(sup[-tenth:].mean() < sup[:tenth].mean())),
        ]


class CliLarge:
    """predict, mrf and eval through the CLI on RGB K = 3 images above 64x64."""

    num_classes = 3
    beta = 1.0
    samples_per_image = 16

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.work = work
        inputs = work / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        (inputs / "images").mkdir(parents=True)
        (inputs / "truth").mkdir()

        def scene(scene_seed, h, w):
            return synth_generate(SynthConfig(height=h, width=w, num_classes=3,
                                              channels=3, seed=scene_seed))

        # One model applied to new images: the checkpoint's training scenes
        # are the same for every seed, the images it classifies are not.
        t = time.perf_counter()
        train_images = {f"train_{i}": scene(sub_seed(i), h, w)
                        for i, (h, w) in enumerate(sizes.cli_shapes)}
        test_images = {f"test_{i}": scene(sub_seed(seed, 1, i), h, w)
                       for i, (h, w) in enumerate(sizes.cli_shapes)}
        self.synth_s = time.perf_counter() - t

        self.images = {}  # stem -> (path, image as the CLI reads it back, truth)
        for stem, li in test_images.items():
            path = inputs / "images" / f"{stem}.ppm"
            save_image(path, li.image)
            save_labels(inputs / "truth" / f"{stem}.pgm", li.labels)
            self.images[stem] = (path, np.rint(li.image * 255) / 255, li.labels)
        self.truth = inputs / "truth"

        cfg = TrainConfig(alpha=0.0, iterations=sizes.cli_train_iters,
                          num_classes=self.num_classes)
        net, _ = tvseg.trainer.train(train_images, sparse_labels(train_images, 0), cfg)
        self.checkpoint = inputs / "model.npz"
        save_checkpoint(net, self.checkpoint)
        self.net = load_checkpoint(self.checkpoint)

        rng = np.random.default_rng(sub_seed(seed, 2))
        self.pixels = {stem: (rng.integers(0, img.shape[0], self.samples_per_image),
                              rng.integers(0, img.shape[1], self.samples_per_image))
                       for stem, (_, img, _) in self.images.items()}

        # warm-up: the whole command sequence on a small crop
        warm = work / "warm"
        (warm / "images").mkdir(parents=True, exist_ok=True)
        (warm / "truth").mkdir(exist_ok=True)
        li = next(iter(test_images.values()))
        save_image(warm / "images" / "w.ppm", li.image[:24, :24])
        save_labels(warm / "truth" / "w.pgm", li.labels[:24, :24])
        self.ops = len(self.images) + 2
        codes = self._commands({"w": warm / "images" / "w.ppm"}, warm / "truth", warm / "out")
        if any(codes):
            raise RuntimeError(f"CLI warm-up failed with exit codes {codes}")

    def _commands(self, images: dict, truth: Path, out: Path) -> list[int]:
        main = tvseg.cli.main
        codes = [main(["predict", "--checkpoint", str(self.checkpoint), "--image", str(path),
                       "--out-prefix", str(out / "pred" / stem)])
                 for stem, path in images.items()]
        codes.append(main(["mrf", "--probs", str(out / "pred"), "--beta", str(self.beta),
                           "--max-iters", str(ICM_SWEEPS), "--out", str(out / "smoothed")]))
        codes.append(main(["eval", "--pred", str(out / "smoothed"), "--truth", str(truth),
                           "--out", str(out / "errors.csv")]))
        return codes

    def prepare(self) -> None:
        shutil.rmtree(self.work / "out", ignore_errors=True)

    def run(self):
        images = {stem: path for stem, (path, _, _) in self.images.items()}
        return self._commands(images, self.truth, self.work / "out")

    def digest(self, out) -> str:
        root = self.work / "out"
        files = sorted(p for p in root.rglob("*")
                       if p.is_file() and not p.name.endswith("manifest.json"))
        return sha256(repr(out).encode(),
                      *(str(p.relative_to(root)).encode() + p.read_bytes() for p in files))

    def check(self, out) -> list[tuple[str, bool]]:
        if any(out):
            return [("outputs present", False)]
        out_dir = self.work / "out"
        half = self.net.patch_size // 2
        p = self.net.patch_size
        probs_ok = energy_ok = True
        wrong = total = 0
        for stem, (_, img, truth) in self.images.items():
            q = np.stack([read_pgm(out_dir / "pred" / f"{stem}_class{k}.pgm")
                          for k in range(self.num_classes)], axis=2).astype(np.float64)
            rows, cols = self.pixels[stem]
            padded = np.pad(img, ((half, half), (half, half), (0, 0)), mode="symmetric")
            patches = np.stack([padded[r:r + p, c:c + p] for r, c in zip(rows, cols)])
            expect, _ = self.net.batch_forward(patches)
            probs_ok &= bool(np.abs(q[rows, cols] - expect * 65535).max() <= 0.5 + 1e-6)

            probs = q / np.maximum(q.sum(axis=2, keepdims=True), 1e-12)
            unary = -np.log(np.maximum(probs, 1e-12))
            labels = read_pgm(out_dir / "smoothed" / f"{stem}_labels.pgm")
            argmax = probs.argmax(axis=2)
            e_icm = potts_energy(labels, unary, self.beta)
            e_argmax = potts_energy(argmax, unary, self.beta)
            # every ICM move lowers the energy, and there is a move to make
            # unless the argmax labelling is already a local minimum
            energy_ok &= e_icm <= e_argmax + 1e-9 * abs(e_argmax)
            if not is_local_minimum(argmax, unary, self.beta):
                energy_ok &= e_icm < e_argmax

            wrong += int((labels != truth).sum())
            total += truth.size
        overall = (out_dir / "errors.csv").read_text().splitlines()[-1]
        return [
            ("probabilities match the network on mirror-padded patches", probs_ok),
            ("ICM lowers the Potts energy of the argmax labels", bool(energy_ok)),
            ("eval reports the pooled error of the label maps",
             overall == f"OVERALL,{wrong / total!r}"),
        ]


def read_pgm(path) -> np.ndarray:
    """Binary PGM as written by tvseg (no header comments)."""
    data = Path(path).read_bytes()
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    w, h, maxval = (int(g) for g in m.groups())
    dtype = ">u2" if maxval > 255 else "u1"
    return np.frombuffer(data, dtype=dtype, count=w * h, offset=m.end()).reshape(h, w)


def potts_energy(labels, unary, beta) -> float:
    rr, cc = np.indices(labels.shape)
    e = unary[rr, cc, labels].sum()
    e += beta * (labels[1:, :] != labels[:-1, :]).sum()
    e += beta * (labels[:, 1:] != labels[:, :-1]).sum()
    return float(e)


def is_local_minimum(labels, unary, beta) -> bool:
    """No single-pixel relabel lowers the Potts energy (ICM's fixed point)."""
    k = unary.shape[2]
    padded = np.pad(labels.astype(np.int64), 1, constant_values=-1)
    cost = unary.copy()
    for nb in (padded[:-2, 1:-1], padded[2:, 1:-1], padded[1:-1, :-2], padded[1:-1, 2:]):
        nb = nb[..., None]
        cost += beta * ((nb != np.arange(k)) & (nb >= 0))
    own = np.take_along_axis(cost, labels[..., None].astype(np.int64), axis=2)[..., 0]
    return bool((own <= cost.min(axis=2) + 1e-9).all())


WORKLOADS = {"protocol": Protocol, "train_semi": TrainSemi, "cli_large": CliLarge}


# -- measurement ----------------------------------------------------------------


class Run:
    """Repeats one workload's unit, tallies operations, checks and timings."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_digest = None
        self.walls = {False: [], True: []}   # keyed by "fully traced"
        self.stage_calls = {"trainer.train": [], "trainer.predict": [], "mrf.icm": []}
        self.stage_work = {name: [] for name in self.stage_calls}
        self.layers: list[dict] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def unit(self, traced: bool) -> None:
        wl = self.wl
        wl.prepare()
        tracer = spans.Tracer()
        tracer.install(spans.ALL_TARGETS if traced else spans.STAGE_TARGETS)
        try:
            t = time.perf_counter()
            out = wl.run()
            wall = time.perf_counter() - t
        except Exception as exc:  # counted as a failed operation, run continues
            self.attempted += wl.ops
            self.fail(f"{type(exc).__name__}: {exc}")
            return
        finally:
            tracer.uninstall()
        self.attempted += wl.ops
        if isinstance(out, list):  # CLI exit codes
            for code in out:
                if code:
                    self.fail(f"CLI exit code {code}")
        self.walls[traced].append(wall)
        if traced:
            self.layers.append(spans.layer_metrics(tracer.spans))
        else:
            for s in tracer.spans:
                self.stage_calls[s.name].append(s.end - s.start)
                self.stage_work[s.name].append(spans.work_done(s))

        try:
            checks = wl.check(out)
            digest = wl.digest(out)
        except Exception as exc:  # a check that cannot run has failed
            self.attempted += 1
            self.fail(f"check raised {type(exc).__name__}: {exc}")
            return
        if self.first_digest is None:
            self.first_digest = digest
        checks.append(("outputs bitwise equal to the first unit's", digest == self.first_digest))
        for name, ok in checks:
            self.attempted += 1
            if not ok:
                self.fail(f"check failed: {name}")


def measure(workload, seconds: float, trace: bool) -> Run:
    """Repeat units for about ``seconds``: at least once, and no further
    round once the last one says the next would end past the deadline.
    With ``trace`` each round is a stage-timed unit and a traced one."""
    run = Run(workload)
    deadline = time.monotonic() + seconds
    while True:
        start = time.monotonic()
        run.unit(traced=False)
        if trace:
            run.unit(traced=True)
        now = time.monotonic()
        if now + (now - start) > deadline:
            return run


def tail(samples) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    out = {"median": statistics.median(samples) if n else None, "n": n}
    if n > 10:
        k = n - 10
        out[f"p{100 * k // n}"] = sorted(samples)[k - 1]
    return out


def result(run: Run, trace: bool) -> dict:
    if not run.walls[False] or (trace and not run.layers):
        raise RuntimeError(f"no unit completed: {run.failures}")
    rates = {}
    for key, name in (("train_iters_per_s", "trainer.train"),
                      ("predict_px_per_s", "trainer.predict"),
                      ("icm_px_per_s", "mrf.icm")):
        calls, work = run.stage_calls[name], run.stage_work[name]
        if calls:
            rates[key] = {"per_call_s": tail(calls), "rate": sum(work) / sum(calls)}
    out = {
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "wall_s": tail(run.walls[False]),
        "stages": rates,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        layers = {k: statistics.median(u[k] for u in run.layers) for k in run.layers[0]}
        for key in ("train_iters_per_s", "predict_px_per_s", "icm_px_per_s"):
            layers[key] = rates[key]["rate"] if key in rates else 0.0
        plain, traced = run.walls[False], run.walls[True]
        layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        out["layers"] = layers
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the launching process just before launch")
    ap.add_argument("--work", required=True, help="scratch directory inside the checkout")
    ap.add_argument("--out", required=True, help="result JSON path")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, Sizes(), work)
    res = {"setup_s": time.monotonic() - args.t0, "synth_s": wl.synth_s}
    if not args.setup_only:
        res.update(result(measure(wl, args.seconds, bool(args.trace)), bool(args.trace)))
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        res["env"] = {"numpy": np.__version__, "python": platform.python_version(),
                      "blas": f"{blas.get('name')} {blas.get('version')}"}
    Path(args.out).write_text(json.dumps(res))


if __name__ == "__main__":
    main()
