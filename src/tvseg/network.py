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
The input gradient of the first layer is never computed: nothing reads
it.

The layers split into a *trunk*, the leading conv, relu and pool layers,
which take feature maps of any size, and a *head*, the first dense layer
onward.  ``forward_trunk`` runs the trunk once over a whole image: every
pool splits each map into its four 2x2 phase fragments (Giusti et al.
2013, *Fast image scanning with deep max-pooling CNNs*), so the trunk
output of every patch is a window of one fragment, bitwise equal to the
trunk output of that patch alone.  ``forward_head`` classifies a stack
of such windows.  Both keep no layer caches.  ``batch_forward`` runs the
same layer code on patches, which the pool pools as the one-phase case
of fragments.  A layer's ``backward`` returns only its input gradient; a
trainable layer's ``param_grads`` writes its weight and bias gradients.
A layer caches only arrays it read or wrote: a relu masks its backward
by its output, and a pool sends each window's gradient to the first
position, row-major, that equals the window's max.

``forward_neighbourhoods`` classifies the nine patches of a 3x3 pixel
neighbourhood from one (P + 2)-square crop: the trunk runs once per crop
on fragments with its caches kept, and the head on the nine windows.
``backward_neighbourhoods`` goes back the same way (Li et al. 2014): the
head's input gradient is scatter-added into the fragments at the offsets
``trunk_windows`` reads, and each pool sums the gradients of its four
phases.  The result is the patch-wise gradient up to the order of
summation, not bitwise.
"""

import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, check_finite, check_int

CHECKPOINT_VERSION = 1

@dataclass(frozen=True)
class LayerSpec:
    kind: str
    size: int = 0  # maps for conv3x3, units for dense; 0 for a fixed layer

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        check_int(f"{self.kind} layer size", self.size)
        if issubclass(_LAYERS[self.kind], _Fixed):
            if self.size != 0:
                raise ValueError(f"{self.kind} layer takes no size, got {self.size}")
        elif self.size < 1:
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
        kind, size = (entry, 0) if isinstance(entry, str) else entry
        out.append(LayerSpec(kind, size))
    return tuple(out)


# ---------------------------------------------------------------------------
# layer implementations; x is always a batch (N, ...) float64 array.  Each
# layer is built from (in_shape, size), the shape it sees on one patch; a
# trainable layer sets ``w_shape`` with its output units last, and Network
# derives its bias length, parameter count and He fan-in from that shape
# alone.  The spatial layers read their output size from x, so they run on
# patches and on whole feature maps alike.


class _Fixed:
    """Base of the layers without parameters; their specs carry no size."""
    w_shape = None


class _Conv3x3:
    """Valid 3x3 convolution as nine 2-D products, one per kernel tap.

    Each ``np.dot`` gets the operands ``np.tensordot`` would build for
    that tap (same shapes, same memory order), so BLAS runs the same
    call and the results are bitwise those of the tensordot form in
    ``tests/oracles.py``.  The taps stay separate and in (i, j) order:
    one GEMM over all nine sums in another order and is not bitwise.
    """

    def __init__(self, in_shape, maps):
        h, w, c = in_shape
        if h < 3 or w < 3:
            raise ValueError(f"conv3x3 input {h}x{w} smaller than kernel")
        self.out_shape = (h - 2, w - 2, maps)
        self.w_shape = (3, 3, c, maps)

    def forward(self, x, w, b, images=0):
        n, ho, wo, c = x.shape[0], x.shape[1] - 2, x.shape[2] - 2, x.shape[3]
        y = np.broadcast_to(b, (n, ho, wo, b.size)).copy()
        rows = y.reshape(-1, b.size)
        for i in range(3):
            for j in range(3):
                rows += np.dot(x[:, i:i + ho, j:j + wo, :].reshape(-1, c), w[i, j])
        return y, x

    def param_grads(self, dout, cache, gw, gb):
        x = cache
        _, ho, wo, maps = dout.shape
        c = x.shape[3]
        d = dout.reshape(-1, maps)
        gb[:] = dout.sum(axis=(0, 1, 2))
        for i in range(3):
            for j in range(3):
                taps = x[:, i:i + ho, j:j + wo, :].transpose(3, 0, 1, 2)
                gw[i, j] = np.dot(taps.reshape(c, -1), d)

    def backward(self, dout, cache, w):
        n, ho, wo, maps = dout.shape
        d = dout.reshape(-1, maps)
        dx = np.zeros_like(cache)
        for i in range(3):
            for j in range(3):
                dx[:, i:i + ho, j:j + wo, :] += np.dot(d, w[i, j].T).reshape(n, ho, wo, -1)
        return dx


class _ReLU(_Fixed):
    def __init__(self, in_shape, size):
        self.out_shape = in_shape

    def forward(self, x, w, b, images=0):
        y = np.maximum(x, 0.0)
        return y, y

    def backward(self, dout, cache, w):
        return dout * (cache > 0.0)


# the 2x2 offsets in row-major order: the four pool phases, and the
# positions of a pool window in the order its maximum is looked for
_PHASES = ((0, 0), (0, 1), (1, 0), (1, 1))


class _MaxPool2x2(_Fixed):
    def __init__(self, in_shape, size):
        h, w, c = in_shape
        if h < 2 or w < 2:
            raise ValueError(f"maxpool2x2 input {h}x{w} smaller than window")
        self.out_shape = (h // 2, w // 2, c)

    def forward(self, x, w, b, images=0):
        """Max over the 2x2 windows of a patch batch, or of every phase of
        the R x R phase fragments of ``images`` maps.

        With ``images`` > 0, ``x`` holds each map's fragments in a run of
        R * R, fragment (fr, fc) at fr * R + fc of its run.  Phase (pr, pc)
        of it becomes fragment (fr + R * pr, fc + R * pc) of the map's
        2R x 2R output, and every phase is cut to the (h - 1) // 2 rows
        and (w - 1) // 2 columns that all four have.  A patch batch is the
        one-phase case of N maps with R = 1: windows at 2 * (i, j), cut to
        h // 2 rows and w // 2 columns.
        """
        n, h, wd, c = x.shape
        s = 2 if images else 1  # phases per axis
        images = images or n
        r = math.isqrt(n // images)
        ho, wo = (h - s + 1) // 2, (wd - s + 1) // 2
        y = np.empty((images, s, r, s, r, ho, wo, c))
        for pr, pc in _PHASES[:s * s]:
            m = _max2x2(x[:, pr:pr + 2 * ho, pc:pc + 2 * wo])
            y[:, pr, :, pc] = m.reshape(images, r, r, ho, wo, c)
        return y.reshape(-1, ho, wo, c), (x, y)

    def backward(self, dout, cache, w):
        """Input gradient: each phase's gradient unpooled into the
        positions it read.  The first phase is assigned and the others
        added, so the one phase of a patch batch keeps its signed zeros."""
        x, y = cache
        n, s, (ho, wo, c) = len(x), y.shape[1], y.shape[5:]
        d = dout.reshape(y.shape)
        dx = np.zeros_like(x)
        for pr, pc in _PHASES[:s * s]:
            at = np.s_[:, pr:pr + 2 * ho, pc:pc + 2 * wo]
            part = _unpool(d[:, pr, :, pc].reshape(n, ho, wo, c), x[at],
                           y[:, pr, :, pc].reshape(n, ho, wo, c))
            if pr or pc:
                dx[at] += part
            else:
                dx[at] = part
        return dx


def _max2x2(x):
    """Max of each 2x2 window of an (N, 2h, 2w, C) map.

    Of equal values (+0 and -0) np.maximum returns the second argument,
    so the running max goes second and the first maximum in row-major
    order wins, sign bit included.
    """
    m, *rest = (x[:, a::2, b::2] for a, b in _PHASES)
    for v in rest:
        m = np.maximum(v, m)
    return m


def _unpool(dout, x, y):
    """(N, 2h, 2w, C) map holding each (N, h, w, C) ``dout`` value at the
    first position, row-major, of its 2x2 window of ``x`` that equals the
    window's max ``y``, zero elsewhere; the last position takes the rest."""
    n, h2, w2, c = dout.shape
    dx = np.empty((n, 2 * h2, 2 * w2, c))
    free = np.ones(dout.shape, dtype=bool)
    for a, b in _PHASES[:-1]:
        hit = free & (x[:, a::2, b::2] == y)
        dx[:, a::2, b::2] = np.where(hit, dout, 0.0)
        free ^= hit
    dx[:, 1::2, 1::2] = np.where(free, dout, 0.0)
    return dx


class _Dense:
    def __init__(self, in_shape, units):
        self.in_shape = in_shape
        self.out_shape = (units,)
        self.w_shape = (math.prod(in_shape), units)

    def forward(self, x, w, b, images=0):
        xf = x.reshape(x.shape[0], -1)
        return xf @ w + b, xf

    def param_grads(self, dout, cache, gw, gb):
        gw[:] = cache.T @ dout
        gb[:] = dout.sum(axis=0)

    def backward(self, dout, cache, w):
        return (dout @ w.T).reshape((dout.shape[0],) + self.in_shape)


class _Softmax(_Fixed):
    def __init__(self, in_shape, size):
        if len(in_shape) != 1:
            raise ValueError("softmax input must be a flat vector; add a dense layer first")
        self.out_shape = in_shape

    def forward(self, x, w, b, images=0):
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        return p, p

    def backward(self, dout, cache, w):
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
    fragments: tuple = ()  # (B, S * S, h, w, c) trunk output of forward_neighbourhoods


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

        # the flat vector holds, per trainable layer, its weights then its
        # biases; _slots keeps each layer's (weight slice, bias slice,
        # He fan-in), or None for a fixed layer
        shape = (patch_size, patch_size, in_channels)
        self._layers = []
        self._slots = []
        total = 0
        for spec in specs:
            layer = _LAYERS[spec.kind](shape, spec.size)
            slot = None
            if layer.w_shape is not None:
                fan_in, units = math.prod(layer.w_shape[:-1]), layer.w_shape[-1]
                w_end = total + fan_in * units
                slot = (slice(total, w_end), slice(w_end, w_end + units), fan_in)
                total = w_end + units
            self._layers.append(layer)
            self._slots.append(slot)
            shape = layer.out_shape
        if shape != (num_classes,):
            raise ValueError(
                f"network outputs {shape}, expected ({num_classes},); "
                "the layer before softmax must emit one unit per class")

        # the trunk is the leading run of layers with a spatial output; on
        # one patch it emits a trunk_shape map, and each of its pools
        # doubles the pixel stride between the patches one fragment serves
        self._trunk = next(i for i, layer in enumerate(self._layers)
                           if len(layer.out_shape) != 3)
        self.trunk_shape = (self._layers[self._trunk - 1].out_shape if self._trunk
                            else (patch_size, patch_size, in_channels))
        self.trunk_stride = 2 ** sum(isinstance(layer, _MaxPool2x2)
                                     for layer in self._layers[:self._trunk])

        if params is None:
            params = np.zeros(total)
        else:
            params = np.asarray(params, dtype=np.float64)
            if params.shape != (total,):
                raise ValueError(f"expected {total} parameters, got {params.shape}")
        self.params = params
        self._version = 0

    @property
    def num_params(self) -> int:
        return self.params.size

    def _views(self, vec):
        """Per-layer (w, b) views into a flat vector; None for fixed layers."""
        return [(None, None) if slot is None else
                (vec[slot[0]].reshape(layer.w_shape), vec[slot[1]])
                for layer, slot in zip(self._layers, self._slots)]

    @classmethod
    def init(cls, specs, patch_size: int, num_classes: int, seed: int,
             in_channels: int = 1) -> "Network":
        """He fan-in initialization: w ~ N(0, sqrt(2/fan_in)), zero biases."""
        net = cls(specs, patch_size, num_classes, in_channels, seed=seed)
        rng = np.random.default_rng(seed)
        for layer, slot, (w, _) in zip(net._layers, net._slots, net._views(net.params)):
            if slot is not None:
                w[:] = rng.normal(0.0, np.sqrt(2.0 / slot[2]), size=layer.w_shape)
        return net

    # -- forward / backward -------------------------------------------------

    def _check_batch(self, x, size) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        expect = (size, size, self.in_channels)
        if x.ndim != 4 or x.shape[1:] != expect:
            raise ValueError(f"expected maps of shape (N,) + {expect}, got {x.shape}")
        return x

    def _forward(self, x, layers: range, caches=None, images=0):
        """Run the ``layers`` (a range of indices) on the batch ``x``.

        With ``images`` > 0, ``x`` holds the phase fragments of that many
        maps and every pool splits them further.  Each layer's cache is
        appended to ``caches`` unless it is None.
        """
        views = self._views(self.params)
        for i in layers:
            x, cache = self._layers[i].forward(x, *views[i], images)
            if caches is not None:
                caches.append(cache)
            del cache  # a pool's cache holds its input; a cache-free pass drops it here
        return x

    def _pad_slack(self, maps):
        """(N, H, W, C) maps with S - 1 zero rows and columns appended: the
        pools cut their phases to a common size, and the slack keeps every
        position a patch reads.  No patch reads the outputs the zeros reach."""
        s = self.trunk_stride - 1
        return np.pad(maps, ((0, 0), (0, s), (0, s), (0, 0)))

    def _backward(self, layers: range, caches, carry, grads):
        """Backpropagate ``carry`` through the ``layers`` (a range of
        indices) in reverse, writing their parameter gradients into
        ``grads``, and return the gradient at the input of the first.

        Nothing reads the input gradient of layer 0, so there only the
        parameter gradients are computed, and None is returned.
        """
        p_views, g_views = self._views(self.params), self._views(grads)
        for i in reversed(layers):
            layer, lc = self._layers[i], caches[i]
            if layer.w_shape is not None:
                layer.param_grads(carry, lc, *g_views[i])
            carry = layer.backward(carry, lc, p_views[i][0]) if i else None
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
        """Trunk outputs of every patch of an (H, W, C) map, as phase
        fragments for ``trunk_windows``, which reads the patches with
        top-left corners r <= H - P and c <= W - P.  Keeps no layer
        caches, so its working set is a few feature maps.
        """
        return self._forward(self._pad_slack(image[None]), range(self._trunk), images=1)

    def trunk_windows(self, fragments, rows, cols) -> np.ndarray:
        """Trunk outputs of the patches with top-left corners (rows, cols)
        of the map whose (..., S * S, h, w, c) phase fragments these are.

        With S = ``trunk_stride``, the patch at (r, c) reads the
        ``trunk_shape`` window at (r // S, c // S) of fragment
        (r % S) * S + c % S.  Integer arrays give an (..., N) +
        ``trunk_shape`` copy; Python integers give a view into
        ``fragments``, through which a gradient can be added back, cut by
        a plain slice: the neighbourhood passes take nine per step, and a
        sliding-window view per window costs more than the step's pool.
        """
        s, k = self.trunk_stride, self.trunk_shape[0]
        f, r, c = rows % s * s + cols % s, rows // s, cols // s
        if isinstance(rows, int):
            return fragments[..., f, r:r + k, c:c + k, :]
        view = np.lib.stride_tricks.sliding_window_view(fragments, (k, k), axis=(-3, -2))
        return np.moveaxis(view, -3, -1)[..., f, r, c, :, :, :]

    def forward_head(self, windows) -> np.ndarray:
        """(N, K) class probabilities of (N,) + ``trunk_shape`` trunk outputs."""
        return self._forward(windows, range(self._trunk, len(self._layers)))

    def forward_neighbourhoods(self, crops) -> tuple[np.ndarray, ForwardCache]:
        """Class probabilities of the 3x3 neighbourhood of patches in each
        of B (P + 2)-square crops, for ``backward_neighbourhoods``.

        Returns (9B, K), the nine patches of each crop in row-major order.
        The trunk runs once per crop on phase fragments, keeping its layer
        caches; the head runs on the nine windows gathered from them.
        """
        x = self._check_batch(crops, self.patch_size + 2)
        caches = []
        fragments = self._forward(self._pad_slack(x), range(self._trunk), caches, len(x))
        fragments = fragments.reshape((len(x), -1) + fragments.shape[1:])
        windows = np.empty((len(x), 9) + self.trunk_shape)
        for t, corner in enumerate(_NEIGHBOURS):
            windows[:, t] = self.trunk_windows(fragments, *corner)
        probs = self._forward(windows.reshape((-1,) + self.trunk_shape),
                              range(self._trunk, len(self._layers)), caches)
        return probs, ForwardCache(self._version, probs.shape[0], caches, fragments.shape)

    def backward_neighbourhoods(self, cache: ForwardCache, grad_out) -> np.ndarray:
        """Parameter gradient of <grad_out, probs> for the output of
        ``forward_neighbourhoods``.

        The head's input gradient is scatter-added from the nine windows
        into the fragments it was gathered from, then backpropagated
        through the trunk, whose pools sum the gradients of their four
        phases (Li et al. 2014, *Highly efficient forward and backward
        propagation of convolutional neural networks for pixelwise
        classification*).
        """
        g = self._check_grad_out(cache, grad_out)
        grads = np.zeros_like(self.params)
        caches = cache.layer_caches
        windows = self._backward(range(self._trunk, len(self._layers)), caches, g, grads)
        if windows is not None:
            windows = windows.reshape((-1, 9) + self.trunk_shape)
            fragments = np.zeros(cache.fragments)
            for t, corner in enumerate(_NEIGHBOURS):
                window = self.trunk_windows(fragments, *corner)
                window += windows[:, t]
            self._backward(range(self._trunk), caches,
                           fragments.reshape((-1,) + cache.fragments[2:]), grads)
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
    if weight_decay:
        net.params -= lr * (grads + weight_decay * net.params)
    else:
        net.params -= lr * grads
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
        with np.load(path, allow_pickle=False) as data:
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
    return Network(specs_from_json(meta["specs"]), params=params, **attrs)
