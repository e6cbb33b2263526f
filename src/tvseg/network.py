"""Patch-based neural pixel classifier with explicit forward/backward passes.

The network maps a (patch, patch, channels) image window to a length-K
probability vector.  Parameters live in one flat float64 vector; each
trainable layer holds views into its own slice of it, so ``params`` is
updated in place and cannot be rebound.  All math is float64 and
deterministic.

Layer kinds: ``conv3x3`` (valid padding, stride 1), ``relu``,
``maxpool2x2`` (stride 2, trailing odd row/column dropped), ``dense``,
and a final ``softmax``.  The softmax layer is pure normalization, so
the layer feeding it must output exactly K units.

``batch_forward`` classifies an (N, patch, patch, channels) stack.
``batch_backward`` takes the gradient of a scalar loss with respect to
the softmax *output probabilities*, applies the softmax Jacobian
internally, and returns the parameter gradient summed over the batch
with a fixed reduction order, so results are reproducible run to run.
The input gradient of the first layer is never computed: nothing reads
it.

The layers split into a *trunk*, the leading conv, relu and pool layers,
which take feature maps of any size, and a *head*, the first dense layer
onward.  The trunk also runs in a *dense mode* on whole maps (Li et al.
2014, *Highly efficient forward and backward propagation of
convolutional neural networks for pixelwise classification*): with a
dilation d that starts at 1, a conv reads its nine taps d apart, and a
pool takes the stride-1 max over the four taps d apart and doubles d.
The trunk output of the patch at (r, c) is then the trunk map at
(r + S * i, c + S * j), S the final d, bitwise equal to the trunk output
of that patch alone.  ``forward_trunk`` runs the dense trunk once over
a whole image, ``trunk_windows`` cuts the patches' windows from its map,
and ``forward_head`` classifies a stack of them; both passes keep no
layer caches.  ``batch_forward`` runs the same layer code on patches,
where a pool takes the 2x2 windows with stride 2.  A layer's
``backward`` returns only its input gradient; a trainable layer's
``param_grads`` writes its weight and bias gradients.  A layer caches
only arrays it read or wrote: a relu masks its backward by its output,
and a pool sends each window's gradient to the first position,
row-major, that equals the window's max.

``forward_neighbourhoods`` classifies the nine patches of a 3x3 pixel
neighbourhood from one (P + 2)-square crop: the dense trunk runs once
per crop with its caches kept, on only the rows and columns the nine
patches read, and the head on the nine windows.
``backward_neighbourhoods`` goes back the same way: the head's input
gradient is scatter-added into the trunk map at the positions
``trunk_windows`` reads, and each pool position sums the gradients of
the windows it is the maximum of.  The result is the patch-wise
gradient up to the order of summation, not bitwise.
"""

import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, check_finite, check_int, check_num_classes

CHECKPOINT_VERSION = 1

@dataclass(frozen=True)
class LayerSpec:
    kind: str
    size: int = 0  # maps for conv3x3, units for dense; 0 for a fixed layer

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        check_int(f"{self.kind} layer size", self.size)
        if issubclass(_LAYERS[self.kind], _Trainable):
            if self.size < 1:
                raise ValueError(f"{self.kind} layer needs a positive size")
        elif self.size != 0:
            raise ValueError(f"{self.kind} layer takes no size, got {self.size}")


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


def specs_from_json(obj, where: str = "specs") -> tuple[LayerSpec, ...]:
    """Specs from a JSON list of kinds and [kind, size] pairs; anything
    else raises ValueError naming ``where``."""
    if not (isinstance(obj, list) and all(
            isinstance(e, str) or isinstance(e, list) and len(e) == 2 for e in obj)):
        raise ValueError(f"{where} must be a list of kinds and [kind, size] pairs, got {obj!r}")
    try:
        return tuple(LayerSpec(e) if isinstance(e, str) else LayerSpec(*e) for e in obj)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# layer implementations; x is always a batch (N, ...) float64 array.  Each
# layer is built from (in_shape, size), the shape it sees on one patch; a
# trainable layer sets ``w_shape`` with its output units last, and Network
# derives its bias length, parameter count and He fan-in from that shape
# alone.  The spatial layers read their output size from x, so they run on
# patches and on whole feature maps alike.


class _Trainable:
    """Base of the layers with parameters (the others' specs carry no size);
    Network sets ``at``, their flat-vector slice, and ``w, b = split(params)``."""

    def split(self, vec):
        """The layer's (weights, biases) views into a flat vector."""
        part, units = vec[self.at], self.w_shape[-1]
        return part[:-units].reshape(self.w_shape), part[-units:]


class _Conv3x3(_Trainable):
    """Valid 3x3 convolution as nine 2-D products, one per kernel tap.

    The taps are ``d`` apart: 1 on patches, the dilation of the dense
    mode on whole maps; the backward passes read ``d`` back from the
    input and output sizes.  Each ``np.dot`` gets the operands
    ``np.tensordot`` would build for that tap (same shapes, same memory
    order), so BLAS runs the same call and the results are bitwise those
    of the tensordot form in ``tests/oracles.py``.  The taps stay
    separate and in (i, j) order: one GEMM over all nine sums in another
    order and is not bitwise.
    """

    reach = 2  # rows and columns the output loses, in units of d

    def __init__(self, in_shape, maps):
        h, w, c = in_shape
        if h < 3 or w < 3:
            raise ValueError(f"conv3x3 input {h}x{w} smaller than kernel")
        self.out_shape = (h - 2, w - 2, maps)
        self.w_shape = (3, 3, c, maps)

    def forward(self, x, d=1):
        n, ho, wo, c = x.shape[0], x.shape[1] - 2 * d, x.shape[2] - 2 * d, x.shape[3]
        y = np.broadcast_to(self.b, (n, ho, wo, self.b.size)).copy()
        rows = y.reshape(-1, self.b.size)
        for i, j, at in _conv_taps(d, ho, wo):
            rows += np.dot(x[at].reshape(-1, c), self.w[i, j])
        return y, x

    def param_grads(self, dout, cache, gw, gb):
        x = cache
        _, ho, wo, maps = dout.shape
        c, d = x.shape[3], (x.shape[1] - ho) // 2
        rows = dout.reshape(-1, maps)
        gb[:] = dout.sum(axis=(0, 1, 2))
        for i, j, at in _conv_taps(d, ho, wo):
            gw[i, j] = np.dot(x[at].transpose(3, 0, 1, 2).reshape(c, -1), rows)

    def backward(self, dout, cache):
        n, ho, wo, maps = dout.shape
        d = (cache.shape[1] - ho) // 2
        rows = dout.reshape(-1, maps)
        dx = np.zeros_like(cache)
        for i, j, at in _conv_taps(d, ho, wo):
            dx[at] += np.dot(rows, self.w[i, j].T).reshape(n, ho, wo, -1)
        return dx


def _conv_taps(d, ho, wo):
    """(i, j, index) of the nine taps, in row-major order, of a conv with
    taps ``d`` apart and an ho x wo output: the index cuts the input
    positions that tap reads."""
    return [(i, j, np.s_[:, i * d:i * d + ho, j * d:j * d + wo])
            for i in range(3) for j in range(3)]


class _ReLU:
    reach = 0

    def __init__(self, in_shape, size):
        self.out_shape = in_shape

    def forward(self, x, d=0):  # elementwise: the dilation d changes nothing
        y = np.maximum(x, 0.0)
        return y, y

    def backward(self, dout, cache):
        return dout * (cache > 0.0)


class _MaxPool2x2:
    reach = 1

    def __init__(self, in_shape, size):
        h, w, c = in_shape
        if h < 2 or w < 2:
            raise ValueError(f"maxpool2x2 input {h}x{w} smaller than window")
        self.out_shape = (h // 2, w // 2, c)

    def forward(self, x, d=0):
        """Max over the 2x2 windows of a patch batch (``d`` = 0: stride 2, a
        trailing odd row or column dropped), or, in the dense mode, over
        the four taps ``d`` apart at every position of whole maps.

        Of equal values (+0 and -0) np.maximum returns the second
        argument, so the running max goes second and the first maximum in
        tap order wins, sign bit included.
        """
        m, *rest = (x[at] for at in _pool_taps(x.shape, d))
        for v in rest:
            m = np.maximum(v, m)
        return m, (x, m, d)

    def backward(self, dout, cache):
        """Input gradient: each output's gradient goes to the first tap
        that equals its max; the last tap takes the rest.  The windows of
        a patch batch are disjoint, and each tap's share is assigned, so
        signed zeros stay; dense windows overlap, and each position adds
        its shares to zero in tap order."""
        x, y, d = cache
        dx = np.zeros_like(x)
        free = np.ones(y.shape, dtype=bool)
        for k, at in enumerate(_pool_taps(x.shape, d)):
            hit = free & (x[at] == y) if k < 3 else free
            part = np.where(hit, dout, 0.0)
            if d:
                dx[at] += part
            else:
                dx[at] = part
            free ^= hit
        return dx


def _pool_taps(shape, d):
    """Indices of the four taps of a pool over an (N, H, W, C) map, in
    row-major order, the order its maximum is looked for.  Tap (a, b)
    cuts the input positions at offset (a, b) of each 2x2 window of a
    patch (``d`` = 0), or at offset (a * d, b * d) from each output
    position of a dense map."""
    h, w = shape[1:3]
    if d:
        return [np.s_[:, a * d:a * d + h - d, b * d:b * d + w - d] for a, b in _WINDOW]
    return [np.s_[:, a:h - h % 2:2, b:w - w % 2:2] for a, b in _WINDOW]


_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))  # a pool window's positions, row-major


class _Dense(_Trainable):
    def __init__(self, in_shape, units):
        self.in_shape = in_shape
        self.out_shape = (units,)
        self.w_shape = (math.prod(in_shape), units)

    def forward(self, x):
        xf = x.reshape(x.shape[0], -1)
        return xf @ self.w + self.b, xf

    def param_grads(self, dout, cache, gw, gb):
        gw[:] = cache.T @ dout
        gb[:] = dout.sum(axis=0)

    def backward(self, dout, cache):
        return (dout @ self.w.T).reshape((dout.shape[0],) + self.in_shape)


class _Softmax:
    def __init__(self, in_shape, size):
        if len(in_shape) != 1:
            raise ValueError("softmax input must be a flat vector; add a dense layer first")
        self.out_shape = in_shape

    def forward(self, x):
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        return p, p

    def backward(self, dout, cache):
        p = cache
        return p * (dout - (dout * p).sum(axis=1, keepdims=True))


_LAYERS = {"conv3x3": _Conv3x3, "relu": _ReLU, "maxpool2x2": _MaxPool2x2,
           "dense": _Dense, "softmax": _Softmax}

LAYER_KINDS = tuple(_LAYERS)


# top-left corners (rows, cols) of the nine patches of a (P + 2)-square
# crop, in row-major order
_NEIGHBOURS = tuple(divmod(t, 3) for t in range(9))


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
        check_num_classes(num_classes)
        if in_channels not in (1, 3):
            raise ValueError("in_channels must be 1 or 3")

        self.specs = specs
        self.patch_size = patch_size
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.seed = seed

        # the flat vector holds the trainable layers' slices in spec order
        shape = (patch_size, patch_size, in_channels)
        self._layers = []
        total = 0
        for spec in specs:
            layer = _LAYERS[spec.kind](shape, spec.size)
            if isinstance(layer, _Trainable):
                size = math.prod(layer.w_shape) + layer.w_shape[-1]
                layer.at = slice(total, total + size)
                total += size
            self._layers.append(layer)
            shape = layer.out_shape
        if shape != (num_classes,):
            raise ValueError(
                f"network outputs {shape}, expected ({num_classes},); "
                "the layer before softmax must emit one unit per class")

        # the trunk is the leading run of layers with a spatial output; on
        # one patch it emits a trunk_shape map.  In the dense mode layer i
        # runs at dilation _dilations[i], which each pool doubles; a patch's
        # window of the dense trunk map spans _span positions with stride
        # trunk_stride
        self._trunk = next(i for i, layer in enumerate(self._layers)
                           if len(layer.out_shape) != 3)
        self.trunk_shape = (self._layers[self._trunk - 1].out_shape if self._trunk
                            else (patch_size, patch_size, in_channels))
        self._dilations, d = [], 1
        for layer in self._layers[:self._trunk]:
            self._dilations.append(d)
            d *= 2 if isinstance(layer, _MaxPool2x2) else 1
        self.trunk_stride = d
        self._span = d * (self.trunk_shape[0] - 1) + 1
        # the side of a crop's leading rows and columns that the nine
        # patches of a neighbourhood read: back from their trunk map, each
        # layer adds its reach at its dilation
        self._crop_side = self._span + 2 + sum(
            layer.reach * d for layer, d in zip(self._layers, self._dilations))

        if params is None:
            params = np.zeros(total)
        else:
            params = np.ascontiguousarray(params, dtype=np.float64)
            if params.shape != (total,):
                raise ValueError(f"expected {total} parameters, got {params.shape}")
        self._params = params
        for layer in self._layers:
            if isinstance(layer, _Trainable):
                layer.w, layer.b = layer.split(params)
        self._version = 0

    def __reduce__(self):
        # copies and pickles are rebuilt here, so their layers view their own params
        return type(self), (self.specs, self.patch_size, self.num_classes,
                            self.in_channels, self.params, self.seed)

    @property
    def params(self) -> np.ndarray:
        """The flat parameter vector, updated in place and never rebound."""
        return self._params

    @property
    def num_params(self) -> int:
        return self.params.size

    @classmethod
    def init(cls, specs, patch_size: int, num_classes: int, seed: int,
             in_channels: int = 1) -> "Network":
        """He fan-in initialization: w ~ N(0, sqrt(2/fan_in)), zero biases."""
        net = cls(specs, patch_size, num_classes, in_channels, seed=seed)
        rng = np.random.default_rng(seed)
        for layer in net._layers:
            if isinstance(layer, _Trainable):
                fan_in = math.prod(layer.w_shape[:-1])
                layer.w[:] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=layer.w_shape)
        return net

    # -- forward / backward -------------------------------------------------

    def _check_batch(self, x, size) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        expect = (size, size, self.in_channels)
        if x.ndim != 4 or x.shape[1:] != expect:
            raise ValueError(f"expected maps of shape (N,) + {expect}, got {x.shape}")
        return x

    def _forward(self, x, layers: range, caches=None, dense=False):
        """Run the ``layers`` (a range of indices) on the batch ``x``.

        With ``dense``, ``x`` holds whole maps and the layers, all of the
        trunk, run in the dense mode.  Each layer's cache is appended to
        ``caches`` unless it is None.
        """
        for i in layers:
            layer = self._layers[i]
            x, cache = layer.forward(x, self._dilations[i]) if dense else layer.forward(x)
            if caches is not None:
                caches.append(cache)
            del cache  # a pool's cache holds its input; a cache-free pass drops it here
        return x

    def _backward(self, layers: range, caches, carry, grads):
        """Backpropagate ``carry`` through the ``layers`` (a range of
        indices) in reverse, writing their parameter gradients into
        ``grads``, and return the gradient at the input of the first.

        Nothing reads the input gradient of layer 0, so there only the
        parameter gradients are computed, and None is returned.
        """
        for i in reversed(layers):
            layer, lc = self._layers[i], caches[i]
            if isinstance(layer, _Trainable):
                layer.param_grads(carry, lc, *layer.split(grads))
            carry = layer.backward(carry, lc) if i else None
        return carry

    def _check_grad_out(self, cache: ForwardCache, grad_out) -> np.ndarray:
        if cache.version != self._version:
            raise ValueError("stale forward cache: parameters changed since forward")
        g = np.asarray(grad_out, dtype=np.float64)
        if g.shape != (cache.batch, self.num_classes):
            raise ValueError(f"grad_out shape {g.shape} does not match "
                             f"({cache.batch}, {self.num_classes})")
        return g

    def batch_forward(self, patches) -> tuple[np.ndarray, ForwardCache]:
        caches = []
        x = self._forward(self._check_batch(patches, self.patch_size),
                          range(len(self._layers)), caches)
        return x, ForwardCache(self._version, x.shape[0], caches)

    def batch_backward(self, cache: ForwardCache, grad_out) -> np.ndarray:
        """Parameter gradient of <grad_out, probs> summed over the batch.

        ``grad_out`` has shape (N, K) and holds d(loss)/d(probabilities).
        """
        grads = np.zeros_like(self.params)
        self._backward(range(len(self._layers)), cache.layer_caches,
                       self._check_grad_out(cache, grad_out), grads)
        return grads

    def forward_trunk(self, image) -> np.ndarray:
        """Dense trunk map of an (H, W, C) image, from which
        ``trunk_windows`` cuts the trunk outputs of the patches with
        top-left corners r <= H - P and c <= W - P.  Keeps no layer
        caches, so its working set is a few feature maps.
        """
        return self._forward(image[None], range(self._trunk), dense=True)[0]

    def trunk_windows(self, maps, rows, cols) -> np.ndarray:
        """Trunk outputs of the patches with top-left corners (rows, cols),
        cut from the (..., H, W, c) dense trunk ``maps`` of their images:
        the patch at (r, c) reads positions (r + S * i, c + S * j), with
        S = ``trunk_stride`` and i, j below the side of ``trunk_shape``.

        Integer arrays give an (..., N) + ``trunk_shape`` copy; Python
        integers give a view into ``maps``, through which a gradient can
        be added back, cut by a plain slice: the neighbourhood passes take
        nine per step, and a sliding-window view per window costs more
        than the step's pool.
        """
        s, span = self.trunk_stride, self._span
        if isinstance(rows, int):
            return maps[..., rows:rows + span:s, cols:cols + span:s, :]
        view = np.lib.stride_tricks.sliding_window_view(maps, (span, span), axis=(-3, -2))
        return np.moveaxis(view[..., ::s, ::s], -3, -1)[..., rows, cols, :, :, :]

    def forward_head(self, windows) -> np.ndarray:
        """(N, K) class probabilities of (N,) + ``trunk_shape`` trunk outputs."""
        return self._forward(windows, range(self._trunk, len(self._layers)))

    def forward_neighbourhoods(self, crops) -> tuple[np.ndarray, ForwardCache]:
        """Class probabilities of the 3x3 neighbourhood of patches in each
        of B (P + 2)-square crops, for ``backward_neighbourhoods``.

        Returns (9B, K), the nine patches of each crop in row-major order.
        The dense trunk runs once per crop, keeping its layer caches, on
        the leading rows and columns that the nine patches read; the head
        runs on the nine windows gathered from its map.
        """
        x = self._check_batch(crops, self.patch_size + 2)
        side, caches = self._crop_side, []
        maps = self._forward(x[:, :side, :side], range(self._trunk), caches, dense=True)
        windows = np.empty((len(x), 9) + self.trunk_shape)
        for t, corner in enumerate(_NEIGHBOURS):
            windows[:, t] = self.trunk_windows(maps, *corner)
        probs = self._forward(windows.reshape((-1,) + self.trunk_shape),
                              range(self._trunk, len(self._layers)), caches)
        return probs, ForwardCache(self._version, probs.shape[0], caches)

    def backward_neighbourhoods(self, cache: ForwardCache, grad_out) -> np.ndarray:
        """Parameter gradient of <grad_out, probs> for the output of
        ``forward_neighbourhoods``.

        The head's input gradient is scatter-added from the nine windows
        into the trunk map they were gathered from, then backpropagated
        through the dense trunk.
        """
        g = self._check_grad_out(cache, grad_out)
        grads = np.zeros_like(self.params)
        caches = cache.layer_caches
        windows = self._backward(range(self._trunk, len(self._layers)), caches, g, grads)
        if windows is not None:
            windows = windows.reshape((-1, 9) + self.trunk_shape)
            side = self._span + 2
            maps = np.zeros((len(windows), side, side, self.trunk_shape[2]))
            for t, corner in enumerate(_NEIGHBOURS):
                window = self.trunk_windows(maps, *corner)
                window += windows[:, t]
            self._backward(range(self._trunk), caches, maps, grads)
        return grads


def sgd_step(net: Network, grads: np.ndarray, lr: float, weight_decay: float = 0.0) -> Network:
    """In-place update w <- w - lr * (grads + weight_decay * w)."""
    check_finite("lr", lr, positive=True)
    check_finite("weight_decay", weight_decay)
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != net.params.shape:
        raise ValueError(f"gradient shape {grads.shape} does not match parameters")
    if not np.isfinite(grads).all():
        raise NumericalError("non-finite gradients in sgd_step")
    params = net.params
    params -= lr * (grads + weight_decay * params)
    net._version += 1
    return net


# -- checkpoints -------------------------------------------------------------


# The fields of a checkpoint's JSON metadata.  All but version and specs
# are Network attributes, stored as they are.
_CHECKPOINT_META = ("version", "specs", "patch_size", "num_classes", "in_channels", "seed")


def save_checkpoint(net: Network, path) -> None:
    """Write a versioned checkpoint; round-trips bit-exactly."""
    meta = {"version": CHECKPOINT_VERSION, "specs": specs_to_json(net.specs)}
    meta.update((name, getattr(net, name)) for name in _CHECKPOINT_META if name not in meta)
    raw = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, meta=raw, params=net.params)


def load_checkpoint(path) -> Network:
    """Read a checkpoint written by ``save_checkpoint``.

    A file that is not a readable npz archive raises OSError; an archive
    whose metadata or parameters are invalid raises ValueError.
    """
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            raw_meta, raw_params = bytes(data["meta"]), data["params"]
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise OSError(f"{path}: unreadable checkpoint: {exc}") from exc
    meta = json.loads(raw_meta.decode("utf-8"))
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint metadata must be a JSON object")
    missing = [name for name in _CHECKPOINT_META if name not in meta]
    if missing:
        raise ValueError(f"{path}: checkpoint metadata lacks {', '.join(missing)}")
    # every field but specs is a JSON integer; a network may have no seed
    for name in _CHECKPOINT_META:
        if name != "specs" and (name != "seed" or meta[name] is not None):
            check_int(f"{path}: checkpoint metadata field {name}", meta[name])
    if meta["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {meta['version']!r}")
    params = np.array(raw_params, dtype=np.float64)
    if not np.isfinite(params).all():
        raise ValueError(f"{path}: checkpoint holds non-finite parameters")
    attrs = {name: meta[name] for name in _CHECKPOINT_META if name not in ("version", "specs")}
    specs = specs_from_json(meta["specs"], f"{path}: checkpoint metadata field specs")
    return Network(specs, params=params, **attrs)
