"""Trainer: loss values, gradient plumbing, SGD loop contracts."""

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tvseg
from oracles import extract_patch, predict_patchwise, tv_step_patchwise
from tvseg import trainer
from tvseg.data import LabeledImage, SparseLabelSet, SynthConfig, merge_sparse, \
    sample_sparse_labels, synth_dataset
from tvseg.errors import NumericalError
from tvseg.gradcheck import _NB_COLS, _NB_ROWS
from tvseg.network import LayerSpec, Network, default_specs, sgd_step
from tvseg.trainer import (SUPERVISED_LOSSES, TrainConfig, predict_image, supervised_grad, train,
                           unsupervised_grad, _PREDICT_CHUNK, _cut,
                           _loss_and_grad_out, _windows)
from tvseg.tv_loss import TotalVariation, _sobel, tv_grad_image, tv_value_image

TINY = (LayerSpec("conv3x3", 2), LayerSpec("relu"), LayerSpec("maxpool2x2"),
        LayerSpec("dense", 8), LayerSpec("relu"), LayerSpec("dense", 2),
        LayerSpec("softmax"))


def _toy_data(seed=4, n=2, size=24, labels=8):
    synth = SynthConfig(height=size, width=size, num_shapes=3, seed=seed)
    imgs = synth_dataset(synth, n, "img")
    sparse = merge_sparse([
        sample_sparse_labels(li.labels, labels, seed=i, image_id=name)
        for i, (name, li) in enumerate(imgs.items())])
    return imgs, sparse


def _toy_cfg(**kw):
    base = dict(alpha=0.1, iterations=60, patch_size=9, seed=3,
                architecture=TINY)
    base.update(kw)
    return TrainConfig(**base)


# -- config -------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(sup_batch=0)
    with pytest.raises(ValueError):
        TrainConfig(supervised_loss="hinge")
    # unsup_batch 0 is allowed: degrades to purely supervised
    TrainConfig(unsup_batch=0)


@pytest.mark.parametrize("field", ["alpha", "lr", "weight_decay"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_config_rejects_non_finite_floats(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainConfig(**{field: value})
    if field == "alpha":
        return
    # sgd_step applies the same rule before it touches a parameter
    net = Network.init(TINY, 9, 2, seed=1)
    before = net.params.tobytes()
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        sgd_step(net, np.ones_like(net.params), **{"lr": 0.1, field: value})
    assert net.params.tobytes() == before


# -- supervised loss ----------------------------------------------------------


def test_mse_loss_at_uniform_output():
    # zero-weight net outputs (0.5, 0.5); label 0 gives 0.25 + 0.25 = 0.5
    net = Network(TINY, 9, 2)
    loss, _ = supervised_grad(net, np.zeros((9, 9, 1)), 0, "mse")
    assert loss == 0.5


def test_cross_entropy_at_uniform_output():
    net = Network(TINY, 9, 2)
    loss, _ = supervised_grad(net, np.zeros((9, 9, 1)), 0, "cross_entropy")
    assert abs(loss - np.log(2.0)) < 1e-15


def test_mse_perfect_prediction_zero_loss():
    probs = np.array([[0.0, 1.0]])
    losses, grad = _loss_and_grad_out(probs, np.array([1]), "mse")
    assert losses[0] == 0.0
    assert np.all(grad == 0.0)


def test_label_out_of_range():
    net = Network(TINY, 9, 2)
    with pytest.raises(ValueError):
        supervised_grad(net, np.zeros((9, 9, 1)), 2)


# -- unsupervised loss --------------------------------------------------------


def test_unsupervised_zero_net_zero_gradient():
    # constant output map everywhere, sign(0) = 0
    net = Network(TINY, 9, 2)
    img = np.random.default_rng(1).uniform(size=(10, 10, 1))
    value, grads = unsupervised_grad(net, img, (4, 4))
    assert value == 0.0
    assert np.all(grads == 0.0)


def test_unsupervised_center_near_border_rejected():
    net = Network.init(TINY, 9, 2, seed=2)
    img = np.zeros((8, 8, 1))
    with pytest.raises(ValueError):
        unsupervised_grad(net, img, (0, 4))
    with pytest.raises(ValueError):
        unsupervised_grad(net, img, (4, 7))


def test_unsupervised_matches_whole_image_gradient():
    # summing the neighborhood gradients over every valid center must
    # equal backpropagating tv_grad_image of the sliding-window map
    rng = np.random.default_rng(5)
    net = Network.init(TINY, 9, 2, seed=3)
    img = rng.uniform(size=(8, 8, 1))
    total = np.zeros(net.num_params)
    for r in range(1, 7):
        for c in range(1, 7):
            _, g = unsupervised_grad(net, img, (r, c))
            total += g
    probs = predict_image(net, img)
    field = tv_grad_image(probs)
    ref = np.zeros(net.num_params)
    for r in range(8):
        for c in range(8):
            _, cache = net.batch_forward(extract_patch(img, (r, c), 9)[None])
            ref += net.batch_backward(cache, field[r, c][None])
    scale = max(np.abs(ref).max(), 1e-12)
    assert np.abs(total - ref).max() / scale < 1e-8


# -- the training loop --------------------------------------------------------


def test_alpha_zero_matches_pure_supervised():
    imgs, sparse = _toy_data()
    net_a, _ = train(imgs, sparse, _toy_cfg(alpha=0.0))
    net_b, _ = train(imgs, sparse, _toy_cfg(alpha=0.0, unsup_batch=0))
    assert np.array_equal(net_a.params, net_b.params)


def test_alpha_changes_trajectory():
    imgs, sparse = _toy_data()
    net_a, _ = train(imgs, sparse, _toy_cfg(alpha=0.0))
    net_b, _ = train(imgs, sparse, _toy_cfg(alpha=0.5))
    assert not np.array_equal(net_a.params, net_b.params)


def test_train_deterministic():
    imgs, sparse = _toy_data()
    net_a, rep_a = train(imgs, sparse, _toy_cfg())
    net_b, rep_b = train(imgs, sparse, _toy_cfg())
    assert np.array_equal(net_a.params, net_b.params)
    assert np.array_equal(rep_a.total_loss, rep_b.total_loss)


def test_report_finite_and_supervised_loss_decreases():
    imgs, sparse = _toy_data()
    cfg = _toy_cfg(alpha=0.0, iterations=150)
    _, report = train(imgs, sparse, cfg)
    assert report.sup_loss.shape == (150,)
    assert np.isfinite(report.total_loss).all()
    assert report.sup_loss[-30:].mean() < report.sup_loss[:30].mean()


def test_large_alpha_flattens_predictions():
    imgs, sparse = _toy_data()
    net0, _ = train(imgs, sparse, _toy_cfg(alpha=0.0, iterations=150))
    netA, _ = train(imgs, sparse, _toy_cfg(alpha=1000.0, iterations=150))
    tv0 = sum(tv_value_image(predict_image(net0, li)) for li in imgs.values())
    tvA = sum(tv_value_image(predict_image(netA, li)) for li in imgs.values())
    assert tvA < tv0


def test_report_csv_format(tmp_path):
    imgs, sparse = _toy_data()
    _, report = train(imgs, sparse, _toy_cfg(iterations=5))
    path = tmp_path / "report.csv"
    report.save(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,sup_loss,unsup_loss,total_loss"
    assert len(lines) == 6
    cells = lines[3].split(",")
    assert cells[0] == "2"
    assert float(cells[1]) + 0.1 * float(cells[2]) == pytest.approx(float(cells[3]))


def test_train_input_validation():
    imgs, sparse = _toy_data()
    with pytest.raises(ValueError):
        train({}, sparse, _toy_cfg())
    with pytest.raises(ValueError):
        train(imgs, merge_sparse([]), _toy_cfg())
    bad = merge_sparse([sample_sparse_labels(
        list(imgs.values())[0].labels, 2, seed=0, image_id="missing")])
    with pytest.raises(ValueError):
        train(imgs, bad, _toy_cfg())


def _no_interior(h, w, value):
    return LabeledImage(np.full((h, w, 1), value), np.zeros((h, w), dtype=np.uint8))


def test_images_without_interior_leave_training_unchanged():
    # a 2x9 and a 1x1 image have no interior pixel and no sparse entry:
    # placed before and between the others they change no draw and no patch
    imgs, sparse = _toy_data()
    first, second = imgs
    padded = {"flat_a": _no_interior(2, 9, 0.3), first: imgs[first],
              "flat_b": _no_interior(1, 1, 0.7), second: imgs[second]}
    cfg = _toy_cfg(alpha=0.1)
    ref, ref_report = train(imgs, sparse, cfg)
    net, report = train(padded, sparse, cfg)
    assert np.array_equal(net.params, ref.params)
    for name in ("sup_loss", "unsup_loss", "total_loss"):
        assert np.array_equal(getattr(report, name), getattr(ref_report, name))


def test_unsupervised_loss_needs_an_interior():
    imgs = {"a": _no_interior(2, 9, 0.3), "b": _no_interior(1, 1, 0.7)}
    sparse = SparseLabelSet([("a", 0, 0, 0), ("b", 0, 0, 1)])
    with pytest.raises(ValueError, match="interior"):
        train(imgs, sparse, _toy_cfg(alpha=0.1, iterations=1))
    train(imgs, sparse, _toy_cfg(alpha=0.0, iterations=1))


def test_train_continues_existing_network():
    imgs, sparse = _toy_data()
    net, _ = train(imgs, sparse, _toy_cfg(iterations=10))
    before = net.params.copy()
    net2, _ = train(imgs, sparse, _toy_cfg(iterations=10), net=net)
    assert net2 is net
    assert not np.array_equal(net.params, before)


# -- prediction ---------------------------------------------------------------


def test_predict_uniform_for_zero_net():
    net = Network(TINY, 9, 2)
    img = np.random.default_rng(2).uniform(size=(6, 7, 1))
    probs = predict_image(net, img)
    assert probs.shape == (6, 7, 2)
    assert np.all(probs == 0.5)


def test_predict_pixel_equals_patch_forward():
    rng = np.random.default_rng(9)
    net = Network.init(TINY, 9, 2, seed=11)
    img = rng.uniform(size=(10, 12, 1))
    probs = predict_image(net, img)
    for r, c in [(0, 0), (0, 11), (9, 0), (5, 6), (9, 11)]:
        direct, _ = net.batch_forward(extract_patch(img, (r, c), 9)[None])
        assert np.abs(probs[r, c] - direct[0]).max() < 1e-12


def test_predict_crosses_chunk_boundary():
    # 46x50 pixels take two forward passes; the last pixel of the first
    # chunk, the first of the second and the four corners match the oracle
    rng = np.random.default_rng(10)
    net = Network.init(TINY, 9, 2, seed=5)
    h, w = 46, 50
    assert _PREDICT_CHUNK < h * w
    img = rng.uniform(size=(h, w, 1))
    probs = predict_image(net, img)
    for flat in (_PREDICT_CHUNK - 1, _PREDICT_CHUNK, 0, w - 1, (h - 1) * w, h * w - 1):
        r, c = divmod(flat, w)
        direct, _ = net.batch_forward(extract_patch(img, (r, c), 9)[None])
        assert np.abs(probs[r, c] - direct[0]).max() < 1e-12


@st.composite
def _architectures(draw):
    """(specs, patch_size, num_classes): zero to two pools, each stage an
    optional conv of 1..8 maps (so no conv reads more than 8 channels) and
    an optional ReLU, then a dense head; P = 15 makes a pool drop a
    trailing row."""
    patch_size = draw(st.sampled_from([5, 7, 9, 11, 13, 15]))
    pools = draw(st.integers(0, 2))
    num_classes = draw(st.integers(2, 4))
    specs, size = [], patch_size
    for stage in range(pools + 1):
        # the pools still to come need 2 ** (pools - stage) rows
        if size - 2 >= 2 ** (pools - stage) and draw(st.booleans()):
            specs.append(LayerSpec("conv3x3", draw(st.integers(1, 8))))
            size -= 2
            if draw(st.booleans()):
                specs.append(LayerSpec("relu"))
        if stage < pools:
            specs.append(LayerSpec("maxpool2x2"))
            size //= 2
    if draw(st.booleans()):
        specs += [LayerSpec("dense", draw(st.integers(1, 8))), LayerSpec("relu")]
    specs += [LayerSpec("dense", num_classes), LayerSpec("softmax")]
    return tuple(specs), patch_size, num_classes


# a 1x1 image under a conv with a 1x1 output: one patch, one product row
_ONE_ROW = ((LayerSpec("conv3x3", 8), LayerSpec("relu"), LayerSpec("maxpool2x2"),
             LayerSpec("conv3x3", 8), LayerSpec("dense", 2), LayerSpec("softmax")), 9, 2)


# a pool straight on the image, which ties +0 and -0 pixels
_POOL_FIRST = ((LayerSpec("maxpool2x2"), LayerSpec("conv3x3", 2), LayerSpec("maxpool2x2"),
                LayerSpec("dense", 2), LayerSpec("softmax")), 11, 2)


@settings(max_examples=120, deadline=None)
@given(arch=_architectures(), h=st.integers(1, 40), w=st.integers(1, 40),
       channels=st.sampled_from([1, 3]), seed=st.integers(0, 2 ** 16), ties=st.booleans())
@example(arch=_ONE_ROW, h=1, w=1, channels=3, seed=0, ties=False)
@example(arch=(default_specs(2), 15, 2), h=40, w=39, channels=1, seed=1, ties=False)
@example(arch=_POOL_FIRST, h=13, w=12, channels=1, seed=2, ties=True)
def test_predict_matches_patchwise_oracle(arch, h, w, channels, seed, ties):
    # with ties the pixels are -0, +0, 0.5 and 1, so pool windows hold
    # equal maxima, signed zeros among them
    specs, patch_size, num_classes = arch
    rng = np.random.default_rng(seed)
    net = Network.init(specs, patch_size, num_classes, seed=seed, in_channels=channels)
    if ties:
        img = rng.choice(np.array([-0.0, 0.0, 0.5, 1.0]), size=(h, w, channels))
    else:
        img = rng.uniform(size=(h, w, channels))
    assert np.array_equal(predict_image(net, img), predict_patchwise(net, img))


@pytest.mark.parametrize("band_pixels", [1, 2 * trainer._PREDICT_CHUNK, trainer._BAND_PIXELS])
@pytest.mark.parametrize("arch, shape", [
    (_ONE_ROW, (3, 683, 3)),  # 2049 pixels: the last chunk holds one
    ((TINY, 9, 2), (45, 46, 1)),
    ((default_specs(3), 15, 3), (47, 50, 3)),
    ((TINY, 9, 2), (5, 1001, 1)),  # a band of two chunks ends mid-row
])
def test_predict_bands_and_chunks_match_oracle(monkeypatch, band_pixels, arch, shape):
    # band_pixels 1 cuts the trunk into bands of one head chunk, which
    # start and end mid-row
    monkeypatch.setattr(trainer, "_BAND_PIXELS", band_pixels)
    specs, patch_size, num_classes = arch
    net = Network.init(specs, patch_size, num_classes, seed=4, in_channels=shape[2])
    img = np.random.default_rng(6).uniform(size=shape)
    assert np.array_equal(predict_image(net, img), predict_patchwise(net, img))


def test_predict_rejects_channel_mismatch():
    net = Network.init(TINY, 9, 2, seed=1)
    with pytest.raises(ValueError, match="3 channels, network expects 1"):
        predict_image(net, np.zeros((4, 5, 3)))


_LARGE_PREDICT = """
import json, resource, sys
import numpy as np
from tvseg.network import Network, default_specs
from tvseg.trainer import predict_image
img = np.random.default_rng(0).uniform(size=(2048, 2048))
probs = predict_image(Network.init(default_specs(2), 15, 2, seed=1), img)
rows, cols = json.loads(sys.argv[1])
print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "probs": probs[rows, cols].tolist()}))
"""


def test_predict_large_image_memory_bound():
    # a 2048x2048 grey predict in a fresh process peaks under 400 MB
    # (a copy of every patch would need 7.5 GB), and 16 random pixels
    # match the classifier on their extracted patches
    rng = np.random.default_rng(2)
    rows, cols = rng.integers(0, 2048, size=(2, 16)).tolist()
    src = str(Path(tvseg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", _LARGE_PREDICT, json.dumps([rows, cols])],
                         env=env, check=True, capture_output=True, text=True, timeout=600)
    res = json.loads(run.stdout)
    assert res["maxrss_kb"] < 400 * 1024
    img = np.random.default_rng(0).uniform(size=(2048, 2048))
    net = Network.init(default_specs(2), 15, 2, seed=1)
    patches = np.stack([extract_patch(img, (r, c), 15) for r, c in zip(rows, cols)])
    direct, _ = net.batch_forward(patches)
    assert np.abs(np.array(res["probs"]) - direct).max() < 1e-12


# -- the TV step ---------------------------------------------------------------


@st.composite
def _centers(draw, h, w):
    """1..8 neighborhood centers, often on the first or last interior row
    or column, where the crops reach into the mirrored border."""
    def coord(n):
        return draw(st.one_of(st.sampled_from([1, n - 2]), st.integers(1, n - 2)))
    return [(coord(h), coord(w)) for _ in range(draw(st.integers(1, 8)))]


@settings(max_examples=150, deadline=None)
@given(arch=_architectures(), channels=st.sampled_from([1, 3]), h=st.integers(3, 20),
       w=st.integers(3, 20), seed=st.integers(0, 2 ** 16), data=st.data())
def test_tv_step_matches_patchwise_oracle(arch, channels, h, w, seed, data):
    # the dense step on (P + 2)-square crops against nine extracted
    # patches per neighborhood and a per-window Sobel loop
    specs, patch_size, num_classes = arch
    centers = data.draw(_centers(h, w))
    rng = np.random.default_rng(seed)
    net = Network.init(specs, patch_size, num_classes, seed=seed, in_channels=channels)
    img = rng.uniform(size=(h, w, channels))
    crops = np.stack([extract_patch(img, center, patch_size + 2) for center in centers])
    value, grads = trainer._tv_step(net, crops, 1.0)
    ref_value, ref_grads = tv_step_patchwise(net, img, centers)
    assert abs(value - ref_value) <= 1e-12
    assert np.abs(grads - ref_grads).max() <= 1e-12 * np.abs(ref_grads).max()


def _read_side(specs, patch_size):
    """Rows (and columns) of a (P + 2)-square crop that the nine patches
    of its neighbourhood read: the side of one patch's trunk output, then
    back through the trunk, where a conv reads two more rows and a pool
    twice as many, and the nine patches span two more rows than one."""
    trunk = [s.kind for s in specs[:[s.kind for s in specs].index("dense")]]
    side = patch_size
    for kind in trunk:
        side = {"conv3x3": side - 2, "maxpool2x2": side // 2}.get(kind, side)
    for kind in reversed(trunk):
        side = {"conv3x3": side + 2, "maxpool2x2": 2 * side}.get(kind, side)
    return side + 2


@settings(max_examples=80, deadline=None)
@given(arch=_architectures(), channels=st.sampled_from([1, 3]), batch=st.integers(1, 6),
       seed=st.integers(0, 2 ** 16))
@example(arch=(default_specs(2), 15, 2), channels=1, batch=6, seed=0)
def test_tv_step_reads_only_the_crop_side(arch, channels, batch, seed):
    # the rows and columns of each crop beyond the side that its nine
    # patches read are never computed: NaN there leaves the value and the
    # gradient bytes as they are on the clean crops
    specs, patch_size, num_classes = arch
    rng = np.random.default_rng(seed)
    net = Network.init(specs, patch_size, num_classes, seed=seed, in_channels=channels)
    crops = rng.uniform(size=(batch, patch_size + 2, patch_size + 2, channels))
    value, grads = trainer._tv_step(net, crops, 1.0)
    side = _read_side(specs, patch_size)
    crops[:, side:] = np.nan
    crops[:, :, side:] = np.nan
    got_value, got_grads = trainer._tv_step(net, crops, 1.0)
    assert np.float64(got_value).tobytes() == np.float64(value).tobytes()
    assert got_grads.tobytes() == grads.tobytes()


@contextmanager
def _one_cpu():
    """This process's affinity narrowed to one CPU, so that ``train`` runs
    the TV step inline; the mask is restored afterwards."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def test_train_makes_one_tv_call_per_iteration(monkeypatch):
    # one batched Sobel call per iteration, whatever the batch size and K;
    # the per-window TotalVariation methods are never called.  The count
    # is taken inline: a TV helper process would make the calls itself
    def refuse(*args):
        raise AssertionError("per-window TV call in training")

    monkeypatch.setattr(TotalVariation, "theta", refuse)
    monkeypatch.setattr(TotalVariation, "theta_coeffs", refuse)
    calls = []

    def counting_sobel(windows):
        calls.append(windows.shape)
        return _sobel(windows)

    monkeypatch.setattr(trainer, "_sobel", counting_sobel)
    imgs, sparse = _toy_data()
    for unsup_batch, num_classes in ((1, 2), (8, 2), (5, 3)):
        calls.clear()
        specs = TINY[:-2] + (LayerSpec("dense", num_classes), LayerSpec("softmax"))
        with _one_cpu():
            train(imgs, sparse, _toy_cfg(iterations=3, unsup_batch=unsup_batch,
                                         num_classes=num_classes, architecture=specs))
        assert calls == 3 * [(unsup_batch, num_classes, 9)]


# -- the TV helper process ------------------------------------------------------


_needs_helper = pytest.mark.skipif(not trainer._helper_fits(),
                                   reason="train() runs no TV helper process here")


def _spy_helpers(mp) -> list:
    """Through the MonkeyPatch ``mp``, the list of the pids of the TV
    helpers that ``train`` starts from now on."""
    started = []

    class Spy(trainer._TvHelper):
        def __init__(self, *args):
            super().__init__(*args)  # returns in this process only
            started.append(self.pid)

    mp.setattr(trainer, "_TvHelper", Spy)
    return started


_CHILDREN = Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children")
_needs_proc_children = pytest.mark.skipif(not _CHILDREN.exists(),
                                          reason="the kernel lists no child processes under /proc")


def _children() -> list[str]:
    return _CHILDREN.read_text().split()


def _trained_bytes(net, report) -> tuple[bytes, ...]:
    return (net.params.tobytes(), report.sup_loss.tobytes(),
            report.unsup_loss.tobytes(), report.total_loss.tobytes())


@_needs_helper
@settings(max_examples=25, deadline=None)
@given(arch=_architectures(), k=st.sampled_from([2, 3]), channels=st.sampled_from([1, 3]),
       unsup_batch=st.sampled_from([1, 5, 8]), loss=st.sampled_from(SUPERVISED_LOSSES),
       seed=st.integers(0, 2 ** 16))
@example(arch=(default_specs(2), 15, 2), k=2, channels=1, unsup_batch=8,
         loss="cross_entropy", seed=0)
def test_helper_matches_inline_training(arch, k, channels, unsup_batch, loss, seed):
    # the TV step in the helper process and inline give the same bytes
    specs, patch_size, _ = arch
    specs = specs[:-2] + (LayerSpec("dense", k), LayerSpec("softmax"))
    synth = SynthConfig(height=20, width=18, num_shapes=3, num_classes=k,
                        channels=channels, seed=seed)
    imgs = synth_dataset(synth, 2, "img")
    sparse = merge_sparse([sample_sparse_labels(li.labels, 6, seed=i, image_id=name)
                           for i, (name, li) in enumerate(imgs.items())])
    cfg = TrainConfig(alpha=0.5, iterations=trainer._HELPER_MIN_ITERATIONS,
                      unsup_batch=unsup_batch, supervised_loss=loss, patch_size=patch_size,
                      num_classes=k, seed=seed, architecture=specs)
    with pytest.MonkeyPatch.context() as mp:
        started = _spy_helpers(mp)
        helper = _trained_bytes(*train(imgs, sparse, cfg))
        with _one_cpu():
            inline = _trained_bytes(*train(imgs, sparse, cfg))
    assert len(started) == 1
    assert helper == inline


@_needs_helper
@_needs_proc_children
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_leaves_no_child_process(monkeypatch):
    # the helper is reaped when train() returns, and when it raises; a
    # training too short to pay for it runs none
    imgs, sparse = _toy_data()
    before = _children()
    started = _spy_helpers(monkeypatch)
    train(imgs, sparse, _toy_cfg(iterations=trainer._HELPER_MIN_ITERATIONS - 1))
    assert started == []
    train(imgs, sparse, _toy_cfg(iterations=20))
    assert len(started) == 1 and _children() == before
    with pytest.raises(NumericalError):
        train(imgs, sparse, _toy_cfg(iterations=120, lr=1e6))
    assert len(started) == 2 and _children() == before

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(trainer, "_supervised_step", interrupt)
    with pytest.raises(KeyboardInterrupt):
        train(imgs, sparse, _toy_cfg(iterations=20))
    assert len(started) == 3 and _children() == before


@_needs_helper
@_needs_proc_children
def test_lost_helper_hands_over_to_inline(monkeypatch):
    # a helper that dies at its fifth step: this process reruns that step
    # from the same draws and trains on inline, to the same bytes; an
    # error that kills every helper is raised here as itself
    imgs, sparse = _toy_data()
    cfg = _toy_cfg(iterations=20)
    before = _children()
    with _one_cpu():
        inline = _trained_bytes(*train(imgs, sparse, cfg))
    parent, tv_step, steps = os.getpid(), trainer._tv_step, []

    def dying_in_helper(*args):
        steps.append(None)
        if os.getpid() != parent and len(steps) == 5:
            os._exit(1)
        return tv_step(*args)

    monkeypatch.setattr(trainer, "_tv_step", dying_in_helper)
    started = _spy_helpers(monkeypatch)
    assert _trained_bytes(*train(imgs, sparse, cfg)) == inline
    assert len(started) == 1 and len(steps) == cfg.iterations - 4

    def failing(*args):
        raise FloatingPointError("from the TV step")

    monkeypatch.setattr(trainer, "_tv_step", failing)
    with pytest.raises(FloatingPointError, match="from the TV step"):
        train(imgs, sparse, cfg)
    assert len(started) == 2 and _children() == before


# -- patch gather -------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=3),
       channels=st.sampled_from([1, 3]),
       patch_size=st.integers(0, 7).map(lambda k: 2 * k + 1), seed=st.integers(0, 2 ** 16))
def test_gather_matches_extract_patch_oracle(sizes, channels, patch_size, seed):
    # every pixel of several images of different sizes, cut in shuffled
    # order: each window comes from the image ``which`` names
    rng = np.random.default_rng(seed)
    imgs = [rng.uniform(size=(h, w, channels)) for h, w in sizes]
    # a single-channel image also goes in as a 2-D array
    windows = [_windows(img if channels == 3 else img[:, :, 0], patch_size) for img in imgs]
    entries = rng.permutation([(k, r, c) for k, (h, w) in enumerate(sizes)
                               for r in range(h) for c in range(w)])
    patches = _cut(windows, *entries.T)
    assert patches.shape == (len(entries), patch_size, patch_size, channels)
    for patch, (k, r, c) in zip(patches, entries):
        assert np.array_equal(patch, extract_patch(imgs[k], (r, c), patch_size))
    # interior neighborhoods: the nine centers in row-major order
    for k, (h, w) in enumerate(sizes):
        for r in range(1, h - 1):
            for c in range(1, w - 1):
                oracle = [extract_patch(imgs[k], (r + dr, c + dc), patch_size)
                          for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
                assert np.array_equal(_cut(windows, [k] * 9, r + _NB_ROWS, c + _NB_COLS),
                                      np.stack(oracle))
