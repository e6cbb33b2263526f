"""Network forward/backward, init statistics, SGD, checkpoints."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (conv3x3, conv3x3_backward, conv3x3_param_grads, dilated_maxpool_argmax,
                     dilated_maxpool_argmax_backward, maxpool_argmax, maxpool_argmax_backward)
from tvseg.errors import NumericalError
from tvseg.network import (LAYER_KINDS, LayerSpec, Network, _Conv3x3, _MaxPool2x2, _ReLU,
                           _Trainable, default_specs, load_checkpoint, save_checkpoint, sgd_step,
                           specs_from_json, specs_to_json)

TINY = (LayerSpec("conv3x3", 2), LayerSpec("relu"), LayerSpec("maxpool2x2"),
        LayerSpec("dense", 8), LayerSpec("relu"), LayerSpec("dense", 2),
        LayerSpec("softmax"))


def _rand_patch(rng, patch=9, channels=1):
    return rng.uniform(0.0, 1.0, size=(patch, patch, channels))


def test_forward_is_a_distribution():
    rng = np.random.default_rng(0)
    net = Network.init(TINY, 9, 2, seed=1)
    for _ in range(10):
        p, _ = net.batch_forward(_rand_patch(rng)[None])
        assert p.shape == (1, 2)
        assert abs(p.sum() - 1.0) < 1e-6
        assert (p > 0).all()


def test_zero_weights_give_uniform_output():
    net = Network(TINY, 9, 2)  # params default to zeros
    p, _ = net.batch_forward(np.random.default_rng(2).uniform(size=(1, 9, 9, 1)))
    assert np.array_equal(p, np.array([[0.5, 0.5]]))


def test_forward_deterministic():
    rng = np.random.default_rng(3)
    x = _rand_patch(rng)
    net = Network.init(TINY, 9, 2, seed=7)
    p1, _ = net.batch_forward(x[None])
    p2, _ = net.batch_forward(x[None])
    assert np.array_equal(p1, p2)


def test_init_seed_determinism():
    a = Network.init(TINY, 9, 2, seed=5)
    b = Network.init(TINY, 9, 2, seed=5)
    c = Network.init(TINY, 9, 2, seed=6)
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, c.params)


def test_he_init_weight_scale():
    # dense layer with fan-in 512 gives 512*32 > 1e4 weight samples
    specs = (LayerSpec("dense", 32), LayerSpec("relu"),
             LayerSpec("dense", 2), LayerSpec("softmax"))
    net = Network.init(specs, 23, 2, seed=9)  # 23*23 = 529 inputs
    n_w = 529 * 32
    w = net.params[:n_w]
    expect = np.sqrt(2.0 / 529)
    assert abs(w.std() - expect) / expect < 0.2
    # biases start at zero
    assert np.all(net.params[n_w:n_w + 32] == 0.0)


@pytest.mark.parametrize("specs, patch, channels, w_shapes", [
    (default_specs(3), 15, 3, [(3, 3, 3, 8), (3, 3, 8, 8), (128, 32), (32, 3)]),
    ((LayerSpec("dense", 16), LayerSpec("relu"), LayerSpec("dense", 3),
      LayerSpec("softmax")), 9, 1, [(81, 16), (16, 3)]),
])
def test_init_matches_layout_oracle(specs, patch, channels, w_shapes):
    # per trainable layer in spec order: He-normal weights drawn in their
    # own shape, fan-in the product of all but the last axis, then zero
    # biases, one per output unit
    rng = np.random.default_rng(23)
    expect = []
    for shape in w_shapes:
        fan_in = int(np.prod(shape[:-1]))
        expect += [rng.normal(0.0, np.sqrt(2.0 / fan_in), shape).ravel(),
                   np.zeros(shape[-1])]
    net = Network.init(specs, patch, 3, seed=23, in_channels=channels)
    assert np.array_equal(net.params, np.concatenate(expect))


def test_backward_zero_grad_out():
    net = Network.init(TINY, 9, 2, seed=4)
    _, cache = net.batch_forward(_rand_patch(np.random.default_rng(4))[None])
    g = net.batch_backward(cache, np.zeros((1, 2)))
    assert np.all(g == 0.0)


def test_backward_linear_in_grad_out():
    rng = np.random.default_rng(8)
    net = Network.init(TINY, 9, 2, seed=8)
    _, cache = net.batch_forward(_rand_patch(rng)[None])
    g1 = rng.standard_normal((1, 2))
    g2 = rng.standard_normal((1, 2))
    lhs = net.batch_backward(cache, 2.0 * g1 - 0.5 * g2)
    rhs = 2.0 * net.batch_backward(cache, g1) - 0.5 * net.batch_backward(cache, g2)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_batch_backward_matches_single_sum():
    rng = np.random.default_rng(12)
    net = Network.init(TINY, 9, 2, seed=12)
    xs = np.stack([_rand_patch(rng) for _ in range(4)])
    gout = rng.standard_normal((4, 2))
    _, cache = net.batch_forward(xs)
    batched = net.batch_backward(cache, gout)
    single = np.zeros_like(net.params)
    for i in range(4):
        _, c1 = net.batch_forward(xs[i][None])
        single += net.batch_backward(c1, gout[i][None])
    assert np.abs(batched - single).max() < 1e-9


@pytest.mark.parametrize("specs, patch", [
    (default_specs(2), 15),
    ((LayerSpec("dense", 6), LayerSpec("relu"), LayerSpec("dense", 2),
      LayerSpec("softmax")), 7),
])
def test_backward_skips_only_unread_layer0_input_grad(specs, patch):
    # batch_backward leaves out layer 0's input gradient; calling every
    # trainable layer's param_grads and every layer's backward, that one
    # included, gives the same bits
    rng = np.random.default_rng(14)
    net = Network.init(specs, patch, 2, seed=14)
    _, cache = net.batch_forward(rng.uniform(size=(5, patch, patch, 1)))
    gout = rng.standard_normal((5, 2))
    expect = np.zeros_like(net.params)
    carry = gout
    for layer, lc in zip(reversed(net._layers), reversed(cache.layer_caches)):
        if isinstance(layer, _Trainable):
            layer.param_grads(carry, lc, *layer.split(expect))
        carry = layer.backward(carry, lc)
    assert carry.shape == (5, patch, patch, 1)
    assert net.batch_backward(cache, gout).tobytes() == expect.tobytes()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 9), h=st.integers(3, 12), w=st.integers(3, 12),
       c=st.sampled_from([1, 3, 8]), maps=st.integers(1, 8), d=st.sampled_from([1, 2, 4]),
       sliced=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_conv_matches_tensordot_oracle(n, h, w, c, maps, d, sliced, seed):
    # forward, weight, bias and input gradients byte for byte against the
    # tensordot form, with taps d apart (1 on patches, the dilation of the
    # dense mode on whole maps), on a contiguous input and on a strided
    # slice of one; the input grows with d so the output stays (h - 2) x (w - 2)
    rng = np.random.default_rng(seed)
    hi, wi = h + 2 * (d - 1), w + 2 * (d - 1)
    x = rng.standard_normal((n, hi + 2, 2 * wi, c))
    x = x[:, 1:hi + 1, ::2] if sliced else np.ascontiguousarray(x[:, :hi, :wi])
    assert x.flags.c_contiguous != sliced
    wt, b = rng.standard_normal((3, 3, c, maps)), rng.standard_normal(maps)
    conv = _Conv3x3((h, w, c), maps)
    conv.w, conv.b = wt, b

    y, cache = conv.forward(x, d)
    assert y.shape == (n, h - 2, w - 2, maps)
    assert y.tobytes() == conv3x3(x, wt, b, d).tobytes()
    dout = rng.standard_normal(y.shape)
    gw, gb = np.full(wt.shape, np.nan), np.full(maps, np.nan)
    conv.param_grads(dout, cache, gw, gb)
    dx = conv.backward(dout, cache)
    expect_gw, expect_gb = conv3x3_param_grads(dout, x, d)
    assert gw.tobytes() == expect_gw.tobytes()
    assert gb.tobytes() == expect_gb.tobytes()
    assert dx.tobytes() == conv3x3_backward(dout, x, wt, d).tobytes()


_TIES = np.array([-1.0, -0.0, 0.0, 0.5])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), d=st.sampled_from([1, 2, 4]), h=st.integers(3, 10),
       w=st.integers(3, 10), c=st.integers(1, 8), tie_share=st.sampled_from([0.5, 0.9, 1.0]),
       seed=st.integers(0, 2 ** 16))
def test_pool_matches_argmax_oracle(n, d, h, w, c, tie_share, seed):
    # forward and backward, on patches and in the dense mode with taps d
    # apart, byte for byte against the argmax pools: on ties of equal
    # values and of +0 and -0 the first maximum wins, sign bit included,
    # and the gradient goes back to where the maximum came from; a dense
    # position, the maximum of up to four windows, sums their gradients
    # in tap order
    rng = np.random.default_rng(seed)

    def tied(shape):
        return np.where(rng.uniform(size=shape) < tie_share, rng.choice(_TIES, size=shape),
                        rng.uniform(-1.0, 1.0, shape))

    x = tied((n, h, w, c))
    pool = _MaxPool2x2((h, w, c), 0)
    y, cache = pool.forward(x)
    expect, idx = maxpool_argmax(x)
    assert y.tobytes() == expect.tobytes()
    dout = rng.choice(np.array([-2.0, -0.0, 0.0, 1.5]), size=y.shape)
    assert (pool.backward(dout, cache).tobytes()
            == maxpool_argmax_backward(dout, idx, x.shape).tobytes())

    # the dense input grows with d so the output stays (h - 1) x (w - 1)
    x = tied((n, h + d - 1, w + d - 1, c))
    out, cache = pool.forward(x, d)
    expect, idx = dilated_maxpool_argmax(x, d)
    assert out.shape == (n, h - 1, w - 1, c)
    assert out.tobytes() == expect.tobytes()
    dout = np.where(rng.uniform(size=out.shape) < 0.5, rng.choice(_TIES[1:3], size=out.shape),
                    rng.standard_normal(out.shape))
    assert (pool.backward(dout, cache).tobytes()
            == dilated_maxpool_argmax_backward(dout, idx, x.shape, d).tobytes())


@pytest.mark.parametrize("shape", [(1, 9, 8, 1), (2, 12, 13, 3), (4, 7, 7, 8)])
def test_pool_fragments_max_matches_argmax(shape):
    # the dense pool takes the maxima directly; on maps of nothing but
    # ties of equal values and of +0 and -0, at each dilation a trunk of
    # up to three pools uses, every output keeps argmax's first maximum,
    # sign bits included, and its gradient goes where that maximum came from
    rng = np.random.default_rng(sum(shape))
    x = rng.choice(_TIES, size=shape)
    pool = _MaxPool2x2(shape[1:], 0)
    for d in (1, 2, 4):
        out, cache = pool.forward(x, d)
        expect, idx = dilated_maxpool_argmax(x, d)
        assert out.tobytes() == expect.tobytes()
        assert np.signbit(out).any() and not np.signbit(out).all()
        dout = rng.choice(_TIES, size=out.shape)
        assert (pool.backward(dout, cache).tobytes()
                == dilated_maxpool_argmax_backward(dout, idx, x.shape, d).tobytes())


def test_relu_backward_masks_by_positive_input():
    x = np.array([-1.0, -0.0, 0.0, 2.0]).reshape(1, 2, 2, 1)
    relu = _ReLU(x.shape[1:], 0)
    _, cache = relu.forward(x)
    for dout in (np.full_like(x, 3.0), np.full_like(x, -3.0), np.array([
            [[[np.inf], [-np.inf]], [[np.nan], [-0.0]]]])):
        with np.errstate(invalid="ignore"):  # inf * 0
            got = relu.backward(dout, cache)
            assert got.tobytes() == (dout * (x > 0)).tobytes()


def test_stale_cache_rejected():
    net = Network.init(TINY, 9, 2, seed=3)
    _, cache = net.batch_forward(np.zeros((1, 9, 9, 1)))
    sgd_step(net, np.zeros_like(net.params), lr=0.1)
    with pytest.raises(ValueError):
        net.batch_backward(cache, np.ones((1, 2)))


def test_sgd_step_identities():
    net = Network.init(TINY, 9, 2, seed=10)
    before = net.params.copy()
    sgd_step(net, np.zeros_like(net.params), lr=0.5, weight_decay=0.0)
    assert np.array_equal(net.params, before)
    sgd_step(net, net.params.copy(), lr=1.0, weight_decay=0.0)
    assert np.all(net.params == 0.0)


def test_params_cannot_be_rebound():
    # the layers' weights are views into params, so a new array would
    # leave them behind
    net = Network.init(TINY, 9, 2, seed=10)
    with pytest.raises(AttributeError):
        net.params = np.zeros_like(net.params)


@pytest.mark.parametrize("twin", [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
                         ids=["deepcopy", "pickle"])
def test_copied_network_layers_view_its_params(twin):
    # a copy's weights are views into its own params: an sgd_step on the
    # copy moves its outputs and leaves the original's alone
    rng = np.random.default_rng(12)
    net = Network.init(TINY, 9, 2, seed=12)
    x = rng.uniform(size=(3, 9, 9, 1))
    before = net.batch_forward(x)[0].tobytes()
    copied = twin(net)
    sgd_step(copied, rng.standard_normal(net.num_params), lr=0.1)
    fresh = Network(TINY, 9, 2, params=copied.params.copy())
    assert copied.batch_forward(x)[0].tobytes() == fresh.batch_forward(x)[0].tobytes()
    assert net.batch_forward(x)[0].tobytes() == before != fresh.batch_forward(x)[0].tobytes()


def test_strided_params_match_contiguous_copy():
    # a network built on a strided view of its parameters computes what
    # one built on a contiguous copy does, before and after an sgd_step
    rng = np.random.default_rng(11)
    base = Network.init(TINY, 9, 2, seed=11)
    wide = np.zeros(2 * base.num_params)
    wide[::2] = base.params
    strided = Network(TINY, 9, 2, params=wide[::2])
    dense = Network(TINY, 9, 2, params=base.params.copy())
    x = rng.uniform(size=(4, 9, 9, 1))
    grads = rng.standard_normal(base.num_params)
    for _ in range(2):
        assert strided.batch_forward(x)[0].tobytes() == dense.batch_forward(x)[0].tobytes()
        for net in (strided, dense):
            sgd_step(net, grads, lr=0.1, weight_decay=1e-3)
    assert strided.params.tobytes() == dense.params.tobytes()


def test_sgd_step_rejects_nonfinite():
    net = Network.init(TINY, 9, 2, seed=10)
    bad = np.zeros_like(net.params)
    bad[0] = np.inf
    with pytest.raises(NumericalError):
        sgd_step(net, bad, lr=0.1)


def test_sgd_training_decreases_loss():
    # ten plain gradient steps on one labeled sample
    from tvseg.trainer import supervised_grad
    rng = np.random.default_rng(6)
    net = Network.init(TINY, 9, 2, seed=6)
    patch = _rand_patch(rng)
    losses = []
    for _ in range(10):
        value, grads = supervised_grad(net, patch, 1, "mse")
        losses.append(value)
        sgd_step(net, grads, lr=1e-2)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    net = Network.init(default_specs(3), 15, 3, seed=42)
    path = tmp_path / "model.npz"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    assert np.array_equal(back.params, net.params)
    assert back.specs == net.specs
    assert back.patch_size == net.patch_size
    assert back.num_classes == net.num_classes
    assert back.seed == net.seed
    net.params[5] = np.inf
    save_checkpoint(net, path)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_specs_json_roundtrip():
    specs = default_specs(4)
    assert specs_from_json(specs_to_json(specs)) == specs


def test_architecture_validation():
    with pytest.raises(ValueError):
        Network((LayerSpec("dense", 2),), 9, 2)  # no softmax
    with pytest.raises(ValueError):
        Network((LayerSpec("softmax"), LayerSpec("dense", 2),
                 LayerSpec("softmax")), 9, 2)
    with pytest.raises(ValueError):
        Network((LayerSpec("dense", 3), LayerSpec("softmax")), 9, 2)  # 3 != K
    with pytest.raises(ValueError):
        Network(TINY, 8, 2)  # even patch
    with pytest.raises(ValueError):
        LayerSpec("conv3x3", 0)
    with pytest.raises(ValueError):
        LayerSpec("conv5x5", 1)


@pytest.mark.parametrize("kind", LAYER_KINDS)
def test_spec_size_follows_the_layer_table(kind):
    # the kinds with weights need a positive size; the fixed kinds take none
    if kind in ("conv3x3", "dense"):
        assert LayerSpec(kind, 5).size == 5
        for size in (0, -1):
            with pytest.raises(ValueError, match="positive size"):
                LayerSpec(kind, size)
    else:
        assert LayerSpec(kind).size == 0
        with pytest.raises(ValueError, match="takes no size"):
            LayerSpec(kind, 5)


def test_wide_specs_need_large_patches():
    # four 64-map conv/pool blocks leave no spatial extent below 47x47
    block = (LayerSpec("conv3x3", 64), LayerSpec("relu"), LayerSpec("maxpool2x2"))
    wide = 4 * block + (LayerSpec("dense", 512), LayerSpec("relu"),
                        LayerSpec("dense", 2), LayerSpec("softmax"))
    with pytest.raises(ValueError):
        Network(wide, 15, 2)
    net = Network(wide, 47, 2)
    assert net.num_params > 100000


def test_batch_shape_checked():
    net = Network.init(TINY, 9, 2, seed=1)
    with pytest.raises(ValueError):
        net.batch_forward(np.zeros((2, 7, 7, 1)))
