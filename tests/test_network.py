"""Network forward/backward, init statistics, SGD, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (conv3x3, conv3x3_backward, conv3x3_param_grads, maxpool_argmax,
                     maxpool_argmax_backward)
from tvseg.errors import NumericalError
from tvseg.network import (LAYER_KINDS, LayerSpec, Network, _Conv3x3, _MaxPool2x2, _ReLU,
                           default_specs, load_checkpoint, save_checkpoint, sgd_step,
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
    for layer, lc, (w, _), (gw, gb) in zip(
            reversed(net._layers), reversed(cache.layer_caches),
            reversed(net._views(net.params)), reversed(net._views(expect))):
        if layer.w_shape is not None:
            layer.param_grads(carry, lc, gw, gb)
        carry = layer.backward(carry, lc, w)
    assert carry.shape == (5, patch, patch, 1)
    assert net.batch_backward(cache, gout).tobytes() == expect.tobytes()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 9), h=st.integers(3, 12), w=st.integers(3, 12),
       c=st.sampled_from([1, 3, 8]), maps=st.integers(1, 8), sliced=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_conv_matches_tensordot_oracle(n, h, w, c, maps, sliced, seed):
    # forward, weight, bias and input gradients byte for byte against the
    # tensordot form, on a contiguous input and on a strided slice of one
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, h + 2, 2 * w, c))
    x = x[:, 1:h + 1, ::2] if sliced else np.ascontiguousarray(x[:, :h, :w])
    assert x.flags.c_contiguous != sliced
    wt, b = rng.standard_normal((3, 3, c, maps)), rng.standard_normal(maps)
    conv = _Conv3x3((h, w, c), maps)

    y, cache = conv.forward(x, wt, b)
    assert y.tobytes() == conv3x3(x, wt, b).tobytes()
    dout = rng.standard_normal(y.shape)
    gw, gb = np.full(wt.shape, np.nan), np.full(maps, np.nan)
    conv.param_grads(dout, cache, gw, gb)
    dx = conv.backward(dout, cache, wt)
    expect_gw, expect_gb = conv3x3_param_grads(dout, x)
    assert gw.tobytes() == expect_gw.tobytes()
    assert gb.tobytes() == expect_gb.tobytes()
    assert dx.tobytes() == conv3x3_backward(dout, x, wt).tobytes()


_TIES = np.array([-1.0, -0.0, 0.0, 0.5])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), one_image=st.booleans(), h=st.integers(3, 10),
       w=st.integers(3, 10), c=st.integers(1, 8), tie_share=st.sampled_from([0.5, 0.9, 1.0]),
       seed=st.integers(0, 2 ** 16))
def test_pool_matches_argmax_oracle(n, one_image, h, w, c, tie_share, seed):
    # forward and backward, on patches and on every phase of the R x R
    # fragments of ``images`` maps (four maps may be the 2 x 2 fragments
    # of one), byte for byte against the argmax pool: on ties of equal
    # values and of +0 and -0 the first maximum wins, sign bit included,
    # and the gradient goes back to where the maximum came from; of the
    # phases' gradients the first is assigned and the others added
    images, r = (1, 2) if n == 4 and one_image else (n, 1)
    rng = np.random.default_rng(seed)
    x = np.where(rng.uniform(size=(n, h, w, c)) < tie_share,
                 rng.choice(_TIES, size=(n, h, w, c)), rng.uniform(-1.0, 1.0, (n, h, w, c)))
    pool = _MaxPool2x2((h, w, c), 0)

    y, cache = pool.forward(x, None, None)
    expect, idx = maxpool_argmax(x)
    assert y.tobytes() == expect.tobytes()
    dout = rng.choice(np.array([-2.0, -0.0, 0.0, 1.5]), size=y.shape)
    assert (pool.backward(dout, cache, None).tobytes()
            == maxpool_argmax_backward(dout, idx, x.shape).tobytes())

    out, cache = pool.forward(x, None, None, images)
    ho, wo = (h - 1) // 2, (w - 1) // 2
    dout = np.where(rng.uniform(size=out.shape) < 0.5, rng.choice(_TIES[1:3], size=out.shape),
                    rng.standard_normal(out.shape))
    phases = out.reshape(images, 2, r, 2, r, ho, wo, c)
    douts = dout.reshape(phases.shape)
    dx = np.zeros_like(x)
    for pr, pc in ((0, 0), (0, 1), (1, 0), (1, 1)):
        xs = x[:, pr:pr + 2 * ho, pc:pc + 2 * wo]
        expect, idx = maxpool_argmax(xs)
        assert (phases[:, pr, :, pc].tobytes()
                == expect.reshape(images, r, r, ho, wo, c).tobytes())
        part = maxpool_argmax_backward(douts[:, pr, :, pc].reshape(n, ho, wo, c), idx, xs.shape)
        if pr or pc:
            dx[:, pr:pr + 2 * ho, pc:pc + 2 * wo] += part
        else:
            dx[:, pr:pr + 2 * ho, pc:pc + 2 * wo] = part
    assert pool.backward(dout, cache, None).tobytes() == dx.tobytes()


@pytest.mark.parametrize("shape", [(1, 9, 8, 1), (2, 12, 13, 3), (4, 7, 7, 8)])
def test_pool_fragments_max_matches_argmax(shape):
    # the pool takes the maxima directly; on ties of equal values and of
    # +0 and -0 every phase keeps argmax's first maximum, sign bits included
    rng = np.random.default_rng(sum(shape))
    x = rng.choice(_TIES, size=shape)
    n, h, w, c = shape
    ho, wo = (h - 1) // 2, (w - 1) // 2
    out, _ = _MaxPool2x2(shape[1:], 0).forward(x, None, None, n)
    phases = out.reshape(n, 2, 1, 2, 1, ho, wo, c)
    for pr, pc in ((0, 0), (0, 1), (1, 0), (1, 1)):
        expect, _ = maxpool_argmax(x[:, pr:pr + 2 * ho, pc:pc + 2 * wo])
        assert phases[:, pr, 0, pc].tobytes() == expect.tobytes()
    assert np.signbit(out).any() and not np.signbit(out).all()


def test_relu_backward_masks_by_positive_input():
    x = np.array([-1.0, -0.0, 0.0, 2.0]).reshape(1, 2, 2, 1)
    relu = _ReLU(x.shape[1:], 0)
    _, cache = relu.forward(x, None, None)
    for dout in (np.full_like(x, 3.0), np.full_like(x, -3.0), np.array([
            [[[np.inf], [-np.inf]], [[np.nan], [-0.0]]]])):
        with np.errstate(invalid="ignore"):  # inf * 0
            got = relu.backward(dout, cache, None)
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
