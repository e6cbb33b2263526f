"""Trainer: loss values, gradient plumbing, SGD loop contracts."""

import numpy as np
import pytest

from oracles import extract_patch
from tvseg.data import SynthConfig, merge_sparse, sample_sparse_labels, \
    synth_dataset
from tvseg.network import LayerSpec, Network
from tvseg.trainer import (TrainConfig, predict_image, supervised_grad, train,
                           unsupervised_grad, _loss_and_grad_out)
from tvseg.tv_loss import tv_grad_image, tv_value_image

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


def test_predict_chunking_consistent():
    rng = np.random.default_rng(10)
    net = Network.init(TINY, 9, 2, seed=5)
    img = rng.uniform(size=(9, 9, 1))
    a = predict_image(net, img, chunk=7)
    b = predict_image(net, img, chunk=4096)
    assert np.array_equal(a, b)
