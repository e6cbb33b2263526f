"""Patch-based neural pixel classifier with explicit forward/backward passes.

The network maps a (patch, patch, channels) image window to a length-K
probability vector.  Parameters live in one flat float64 vector; each
trainable layer holds reshaped views into it, so in-place SGD updates
are visible everywhere.  All math is float64 and deterministic.

Layer kinds: ``conv3x3`` (valid padding, stride 1), ``relu``,
``maxpool2x2`` (stride 2, trailing odd row/column dropped), ``dense``,
and a final ``softmax``.  The softmax layer is pure normalization, so
the layer feeding it must output exactly K units.

``batch_forward`` classifies an (N, patch, patch, channels) stack.
``batch_backward`` takes the gradient of a scalar loss with respect to
the softmax *output probabilities*, applies the softmax Jacobian
internally, and returns the parameter gradient summed over the batch
with a fixed reduction order, so results are reproducible run to run.
This is what spatial losses on probability maps produce; supervised
losses use the same entry point.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

CHECKPOINT_VERSION = 1

LAYER_KINDS = ("conv3x3", "relu", "maxpool2x2", "dense", "softmax")


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    size: int = 0  # maps for conv3x3, units for dense; ignored otherwise

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind in ("conv3x3", "dense") and self.size < 1:
            raise ValueError(f"{self.kind} layer needs a positive size")


def default_specs(num_classes: int) -> tuple[LayerSpec, ...]:
    """Small architecture used by the tests and desk-scale experiments."""
    return (
        LayerSpec("conv3x3", 8),
        LayerSpec("relu"),
        LayerSpec("maxpool2x2"),
        LayerSpec("conv3x3", 8),
        LayerSpec("relu"),
        LayerSpec("dense", 32),
        LayerSpec("relu"),
        LayerSpec("dense", num_classes),
        LayerSpec("softmax"),
    )


def specs_to_json(specs) -> list:
    return [[s.kind, s.size] for s in specs]


def specs_from_json(obj) -> tuple[LayerSpec, ...]:
    out = []
    for entry in obj:
        if isinstance(entry, str):
            out.append(LayerSpec(entry))
        else:
            kind, size = entry
            out.append(LayerSpec(str(kind), int(size)))
    return tuple(out)


# ---------------------------------------------------------------------------
# layer implementations; x is always a batch (N, ...) float64 array


class _Conv3x3:
    def __init__(self, in_shape, maps):
        h, w, c = in_shape
        if h < 3 or w < 3:
            raise ValueError(f"conv3x3 input {h}x{w} smaller than kernel")
        self.in_shape = in_shape
        self.out_shape = (h - 2, w - 2, maps)
        self.w_shape = (3, 3, c, maps)
        self.b_size = maps
        self.n_params = 9 * c * maps + maps
        self.fan_in = 9 * c

    def forward(self, x, w, b):
        ho, wo, _ = self.out_shape
        y = np.broadcast_to(b, (x.shape[0], ho, wo, self.b_size)).copy()
        for i in range(3):
            for j in range(3):
                y += np.tensordot(x[:, i:i + ho, j:j + wo, :], w[i, j], axes=([3], [0]))
        return y, x

    def backward(self, dout, cache, w, gw, gb):
        x = cache
        ho, wo, _ = self.out_shape
        gb[:] = dout.sum(axis=(0, 1, 2))
        dx = np.zeros_like(x)
        for i in range(3):
            for j in range(3):
                xs = x[:, i:i + ho, j:j + wo, :]
                gw[i, j] = np.tensordot(xs, dout, axes=([0, 1, 2], [0, 1, 2]))
                dx[:, i:i + ho, j:j + wo, :] += np.tensordot(dout, w[i, j], axes=([3], [1]))
        return dx


class _ReLU:
    def __init__(self, in_shape):
        self.in_shape = in_shape
        self.out_shape = in_shape
        self.n_params = 0

    def forward(self, x, w, b):
        return np.maximum(x, 0.0), x > 0.0

    def backward(self, dout, cache, w, gw, gb):
        return dout * cache


class _MaxPool2x2:
    def __init__(self, in_shape):
        h, w, c = in_shape
        if h < 2 or w < 2:
            raise ValueError(f"maxpool2x2 input {h}x{w} smaller than window")
        self.in_shape = in_shape
        self.out_shape = (h // 2, w // 2, c)
        self.n_params = 0

    def forward(self, x, w, b):
        n = x.shape[0]
        h2, w2, c = self.out_shape
        win = (x[:, :2 * h2, :2 * w2, :]
               .reshape(n, h2, 2, w2, 2, c)
               .transpose(0, 1, 3, 5, 2, 4)
               .reshape(n, h2, w2, c, 4))
        idx = win.argmax(axis=4)  # first max wins on ties
        y = np.take_along_axis(win, idx[..., None], axis=4)[..., 0]
        return y, idx

    def backward(self, dout, cache, w, gw, gb):
        idx = cache
        n = dout.shape[0]
        h2, w2, c = self.out_shape
        dx = np.zeros((n,) + self.in_shape)
        nn = np.arange(n)[:, None, None, None]
        ii = np.arange(h2)[None, :, None, None]
        jj = np.arange(w2)[None, None, :, None]
        cc = np.arange(c)[None, None, None, :]
        dx[nn, 2 * ii + idx // 2, 2 * jj + idx % 2, cc] = dout
        return dx


class _Dense:
    def __init__(self, in_shape, units):
        self.in_shape = in_shape
        n_in = int(np.prod(in_shape))
        self.out_shape = (units,)
        self.w_shape = (n_in, units)
        self.b_size = units
        self.n_params = n_in * units + units
        self.fan_in = n_in

    def forward(self, x, w, b):
        xf = x.reshape(x.shape[0], -1)
        return xf @ w + b, xf

    def backward(self, dout, cache, w, gw, gb):
        xf = cache
        gw[:] = xf.T @ dout
        gb[:] = dout.sum(axis=0)
        return (dout @ w.T).reshape((dout.shape[0],) + self.in_shape)


class _Softmax:
    def __init__(self, in_shape):
        if len(in_shape) != 1:
            raise ValueError("softmax input must be a flat vector; add a dense layer first")
        self.in_shape = in_shape
        self.out_shape = in_shape
        self.n_params = 0

    def forward(self, x, w, b):
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        return p, p

    def backward(self, dout, cache, w, gw, gb):
        p = cache
        return p * (dout - (dout * p).sum(axis=1, keepdims=True))


_LAYER_BUILDERS = {
    "conv3x3": lambda shape, spec: _Conv3x3(shape, spec.size),
    "relu": lambda shape, spec: _ReLU(shape),
    "maxpool2x2": lambda shape, spec: _MaxPool2x2(shape),
    "dense": lambda shape, spec: _Dense(shape, spec.size),
    "softmax": lambda shape, spec: _Softmax(shape),
}


@dataclass
class ForwardCache:
    """Opaque activations from one forward call, consumed by backward."""
    version: int
    batch: int
    layer_caches: list


class Network:
    """Layered patch classifier over a flat parameter vector."""

    def __init__(self, specs, patch_size: int, num_classes: int,
                 in_channels: int = 1, params: np.ndarray | None = None,
                 seed: int | None = None):
        specs = tuple(specs)
        if not specs or specs[-1].kind != "softmax":
            raise ValueError("final layer must be softmax")
        if any(s.kind == "softmax" for s in specs[:-1]):
            raise ValueError("softmax may only appear as the final layer")
        if patch_size < 1 or patch_size % 2 == 0:
            raise ValueError(f"patch_size must be odd and positive, got {patch_size}")
        if num_classes < 2:
            raise ValueError("need at least two classes")
        if in_channels not in (1, 3):
            raise ValueError("in_channels must be 1 or 3")

        self.specs = specs
        self.patch_size = patch_size
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.seed = seed

        shape = (patch_size, patch_size, in_channels)
        self._layers = []
        offsets = []
        total = 0
        trainable = 0
        for spec in specs:
            layer = _LAYER_BUILDERS[spec.kind](shape, spec)
            self._layers.append(layer)
            offsets.append(total)
            total += layer.n_params
            trainable += layer.n_params > 0
            shape = layer.out_shape
        if shape != (num_classes,):
            raise ValueError(
                f"network outputs {shape}, expected ({num_classes},); "
                "the layer before softmax must emit one unit per class")
        if trainable == 0:
            raise ValueError("network has no trainable layers")

        if params is None:
            params = np.zeros(total)
        else:
            params = np.asarray(params, dtype=np.float64)
            if params.shape != (total,):
                raise ValueError(f"expected {total} parameters, got {params.shape}")
        self.params = params
        self._offsets = offsets
        self._version = 0

    @property
    def num_params(self) -> int:
        return self.params.size

    def _views(self, vec):
        """Per-layer (w, b) views into a flat vector; None for fixed layers."""
        views = []
        for layer, off in zip(self._layers, self._offsets):
            if layer.n_params == 0:
                views.append((None, None))
            else:
                n_w = int(np.prod(layer.w_shape))
                w = vec[off:off + n_w].reshape(layer.w_shape)
                b = vec[off + n_w:off + layer.n_params]
                views.append((w, b))
        return views

    @classmethod
    def init(cls, specs, patch_size: int, num_classes: int, seed: int,
             in_channels: int = 1) -> "Network":
        """He fan-in initialization: w ~ N(0, sqrt(2/fan_in)), zero biases."""
        net = cls(specs, patch_size, num_classes, in_channels, seed=seed)
        rng = np.random.default_rng(seed)
        for layer, (w, b) in zip(net._layers, net._views(net.params)):
            if w is None:
                continue
            w[:] = rng.normal(0.0, np.sqrt(2.0 / layer.fan_in), size=layer.w_shape)
            b[:] = 0.0
        return net

    # -- forward / backward -------------------------------------------------

    def _check_batch(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        expect = (self.patch_size, self.patch_size, self.in_channels)
        if x.ndim != 4 or x.shape[1:] != expect:
            raise ValueError(f"expected patches of shape (N,) + {expect}, got {x.shape}")
        return x

    def batch_forward(self, patches) -> tuple[np.ndarray, ForwardCache]:
        x = self._check_batch(patches)
        caches = []
        for layer, (w, b) in zip(self._layers, self._views(self.params)):
            x, cache = layer.forward(x, w, b)
            caches.append(cache)
        return x, ForwardCache(self._version, x.shape[0], caches)

    def batch_backward(self, cache: ForwardCache, grad_out) -> np.ndarray:
        """Parameter gradient of <grad_out, probs> summed over the batch.

        ``grad_out`` has shape (N, K) and holds d(loss)/d(probabilities).
        """
        if cache.version != self._version:
            raise ValueError("stale forward cache: parameters changed since forward")
        g = np.asarray(grad_out, dtype=np.float64)
        if g.shape != (cache.batch, self.num_classes):
            raise ValueError(f"grad_out shape {g.shape} does not match "
                             f"({cache.batch}, {self.num_classes})")
        grads = np.zeros_like(self.params)
        p_views = self._views(self.params)
        g_views = self._views(grads)
        carry = g
        for layer, lc, (w, _), (gw, gb) in zip(
                reversed(self._layers), reversed(cache.layer_caches),
                reversed(p_views), reversed(g_views)):
            carry = layer.backward(carry, lc, w, gw, gb)
        return grads


def sgd_step(net: Network, grads: np.ndarray, lr: float, weight_decay: float = 0.0) -> Network:
    """In-place update w <- w - lr * (grads + weight_decay * w)."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    if weight_decay < 0:
        raise ValueError("weight_decay must be non-negative")
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != net.params.shape:
        raise ValueError(f"gradient shape {grads.shape} does not match parameters")
    if not np.isfinite(grads).all():
        raise NumericalError("non-finite gradients in sgd_step")
    if weight_decay:
        net.params -= lr * (grads + weight_decay * net.params)
    else:
        net.params -= lr * grads
    net._version += 1
    return net


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(net: Network, path) -> None:
    """Write a versioned checkpoint; round-trips bit-exactly."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "specs": specs_to_json(net.specs),
        "patch_size": net.patch_size,
        "num_classes": net.num_classes,
        "in_channels": net.in_channels,
        "seed": net.seed,
    }
    raw = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, meta=raw, params=net.params)


def load_checkpoint(path) -> Network:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        params = np.array(data["params"], dtype=np.float64)
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
    if not np.isfinite(params).all():
        raise ValueError(f"{path}: checkpoint holds non-finite parameters")
    return Network(
        specs_from_json(meta["specs"]),
        patch_size=meta["patch_size"],
        num_classes=meta["num_classes"],
        in_channels=meta["in_channels"],
        params=params,
        seed=meta["seed"],
    )
