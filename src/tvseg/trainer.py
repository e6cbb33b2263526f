"""Semi-supervised SGD: supervised loss on sparse pixels plus a weighted
spatial smoothness loss on sampled unsupervised neighborhoods.

Each iteration draws a supervised minibatch from the sparse label set
and, when the smoothness weight alpha is positive, a batch of interior
pixels from all images; every unsupervised pixel contributes the
penalty of its 3x3 output neighborhood.  The nine classifications of a
neighborhood come from one (P + 2)-square crop around the pixel, whose
trunk runs once on pool-phase fragments
(``Network.forward_neighbourhoods``); the penalty's coefficients are
backpropagated through the head and those fragments.  Supervised and
unsupervised gradients are averaged within their own batches before
combining, so alpha means the same thing at any batch size.

Supervised and unsupervised draws use independent RNG streams derived
from the config seed, so an alpha=0 run follows the exact parameter
trajectory of a purely supervised run with the same seed.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import LabeledImage, SparseLabelSet, pad_mirror
from .errors import NumericalError
from .network import LayerSpec, Network, default_specs, sgd_step
from .rng import ROLE_INIT, ROLE_SUP_DRAW, ROLE_UNSUP_DRAW, make_rng, mix_seed
from .tv_loss import _sobel, _subgradient

SUPERVISED_LOSSES = ("mse", "cross_entropy")

_PROB_FLOOR = 1e-12  # clamp for log/reciprocal of tiny probabilities

_PREDICT_CHUNK = 2048  # pixels per head forward pass in predict_image
_BAND_PIXELS = 1 << 17  # padded pixels per trunk row band in predict_image


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.1
    lr: float = 0.05
    weight_decay: float = 1e-3
    sup_batch: int = 8
    unsup_batch: int = 8
    iterations: int = 1200
    supervised_loss: str = "cross_entropy"
    seed: int = 0
    patch_size: int = 15
    num_classes: int = 2
    architecture: tuple[LayerSpec, ...] | None = None

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError("alpha must be finite and non-negative")
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise ValueError("lr must be finite and positive")
        if not np.isfinite(self.weight_decay) or self.weight_decay < 0:
            raise ValueError("weight_decay must be finite and non-negative")
        if self.sup_batch < 1:
            raise ValueError("sup_batch must be at least 1")
        if self.unsup_batch < 0:
            raise ValueError("unsup_batch must be non-negative")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.supervised_loss not in SUPERVISED_LOSSES:
            raise ValueError(f"supervised_loss must be one of {SUPERVISED_LOSSES}")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")

    def specs(self) -> tuple[LayerSpec, ...]:
        return self.architecture or default_specs(self.num_classes)


@dataclass
class TrainReport:
    sup_loss: np.ndarray
    unsup_loss: np.ndarray
    total_loss: np.ndarray

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iteration,sup_loss,unsup_loss,total_loss\n")
            for i in range(self.sup_loss.size):
                fh.write(f"{i},{float(self.sup_loss[i])!r},"
                         f"{float(self.unsup_loss[i])!r},"
                         f"{float(self.total_loss[i])!r}\n")


def _loss_and_grad_out(probs: np.ndarray, labels: np.ndarray, kind: str):
    """Per-sample loss values and d(loss)/d(probabilities), both (B, ...)."""
    b, k = probs.shape
    onehot = np.zeros((b, k))
    onehot[np.arange(b), labels] = 1.0
    if kind == "mse":
        diff = probs - onehot
        return (diff ** 2).sum(axis=1), 2.0 * diff
    p_true = np.maximum(probs[np.arange(b), labels], _PROB_FLOOR)
    grad = np.zeros((b, k))
    grad[np.arange(b), labels] = -1.0 / p_true
    return -np.log(p_true), grad


def _image_array(image) -> np.ndarray:
    """The (H, W, C) float64 array of a LabeledImage or an (H, W) or
    (H, W, C) array."""
    img = image.image if isinstance(image, LabeledImage) else np.asarray(image, dtype=np.float64)
    return img[:, :, None] if img.ndim == 2 else img


def _windows(image, size: int) -> np.ndarray:
    """Sliding-window view of ``image`` mirror-padded by ``size // 2``.

    ``image`` is a LabeledImage or an (H, W) or (H, W, C) array, and
    ``size`` is odd.  The view's first two axes are the H x W pixels; its
    window at (r, c) is the ``size``-square window centered on pixel
    (r, c): a patch for ``size`` P, the crop of the neighborhood of (r, c)
    for P + 2.  Cut them with ``_gather``.
    """
    padded = pad_mirror(_image_array(image), size // 2)
    return np.lib.stride_tricks.sliding_window_view(padded, (size, size), axis=(0, 1))


def _gather(windows: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(N, size, size, C) windows centered at the pixels (rows[i], cols[i])."""
    return windows.transpose(0, 1, 3, 4, 2)[rows, cols]


def _cut(windows: list, which: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(N, size, size, C) windows centered at (rows[i], cols[i]) of image
    ``which[i]``, with one ``_gather`` per image present."""
    _, _, c, size, _ = windows[0].shape
    out = np.empty((len(which), size, size, c))
    for k in dict.fromkeys(which.tolist()):
        at = which == k
        out[at] = _gather(windows[k], rows[at], cols[at])
    return out


def _supervised_step(net: Network, patches: np.ndarray, labels: np.ndarray,
                     kind: str) -> tuple[float, np.ndarray]:
    """Mean supervised loss over a labeled batch and its parameter gradient."""
    probs, cache = net.batch_forward(patches)
    losses, grad_out = _loss_and_grad_out(probs, labels, kind)
    return float(losses.mean()), net.batch_backward(cache, grad_out / len(labels))


def _tv_step(net: Network, crops: np.ndarray,
             scale: float) -> tuple[float, np.ndarray]:
    """Summed TV penalty of B output neighborhoods and the parameter
    gradient of ``scale`` times it.

    ``crops`` holds B (P + 2)-square crops, each centered on the center
    of its neighborhood.  The penalty applies per window and class
    channel; one batched Sobel call gives every value and coefficient,
    with sign(0) = 0.
    """
    probs, cache = net.forward_neighbourhoods(crops)
    gx, gy = _sobel(probs.reshape(-1, 9, net.num_classes).transpose(0, 2, 1))
    coeffs = _subgradient(gx, gy).transpose(0, 2, 1).reshape(probs.shape)
    value = float((np.abs(gx) + np.abs(gy)).sum())
    return value, net.backward_neighbourhoods(cache, coeffs * scale)


def supervised_grad(net: Network, patch, label: int,
                    loss_kind: str = "cross_entropy") -> tuple[float, np.ndarray]:
    """Loss and exact parameter gradient for one labeled patch."""
    if loss_kind not in SUPERVISED_LOSSES:
        raise ValueError(f"loss_kind must be one of {SUPERVISED_LOSSES}")
    if not 0 <= label < net.num_classes:
        raise ValueError(f"label {label} out of range for K={net.num_classes}")
    return _supervised_step(net, np.asarray(patch, dtype=np.float64)[None],
                            np.array([label]), loss_kind)


def unsupervised_grad(net: Network, image, center: tuple[int, int]) -> tuple[float, np.ndarray]:
    """TV penalty of the output neighborhood at ``center`` and its
    parameter gradient.

    Classifies the nine patches centered on the 3x3 neighborhood of
    ``center`` from the mirror-padded (P + 2)-square crop around it,
    applies the per-window penalty to each class channel, and
    backpropagates the per-neighbor coefficients (see ``_tv_step``).
    """
    windows = _windows(image, net.patch_size + 2)
    h, w = windows.shape[:2]
    r, c = center
    if not (1 <= r < h - 1 and 1 <= c < w - 1):
        raise ValueError(f"center {center} must be at least 1 pixel inside a {h}x{w} image")
    return _tv_step(net, _gather(windows, np.array([r]), np.array([c])), 1.0)


def _check_sparse(images: dict[str, LabeledImage], sparse: SparseLabelSet,
                  num_classes: int) -> None:
    for image_id, row, col, cls in sparse.entries:
        if image_id not in images:
            raise ValueError(f"sparse entry references unknown image {image_id!r}")
        li = images[image_id]
        if row >= li.height or col >= li.width:
            raise ValueError(f"sparse entry ({image_id}, {row}, {col}) out of bounds")
        if cls >= num_classes:
            raise ValueError(f"sparse class {cls} out of range for K={num_classes}")


def train(images: dict[str, LabeledImage], sparse: SparseLabelSet,
          cfg: TrainConfig, net: Network | None = None) -> tuple[Network, TrainReport]:
    """Run semi-supervised SGD and return the trained network and report.

    ``images`` maps image ids to LabeledImages; ``sparse`` entries
    reference those ids.  Pass ``net`` to continue training an existing
    network instead of initializing a fresh one.
    """
    if not images:
        raise ValueError("need at least one image")
    if len(sparse) == 0:
        raise ValueError("sparse label set is empty")
    channels = {li.channels for li in images.values()}
    if len(channels) != 1:
        raise ValueError("all images must share one channel count")
    _check_sparse(images, sparse, cfg.num_classes)

    if net is None:
        net = Network.init(cfg.specs(), cfg.patch_size, cfg.num_classes,
                           seed=mix_seed(cfg.seed, ROLE_INIT),
                           in_channels=channels.pop())

    # supervised samples are a fixed small set: cut their patches once
    index = {name: k for k, name in enumerate(images)}
    names, rows, cols, classes = zip(*sparse.entries)
    sup_patches = _cut([_windows(li, net.patch_size) for li in images.values()],
                       np.array([index[n] for n in names]), np.array(rows), np.array(cols))
    sup_labels = np.array(classes, dtype=np.int64)

    # flat index space over the interior pixels of every image, for unsup
    # draws; an image without interior has count zero and is never drawn
    use_unsup = cfg.alpha > 0 and cfg.unsup_batch > 0
    if use_unsup:
        heights = np.array([max(li.height - 2, 0) for li in images.values()])
        widths = np.array([max(li.width - 2, 0) for li in images.values()])
        counts = heights * widths
        bounds = np.cumsum(counts)
        if bounds[-1] == 0:
            raise ValueError("no interior pixels available for the unsupervised loss")
        starts = bounds - counts
        crop_windows = [_windows(li, net.patch_size + 2) for li in images.values()]

    rng_sup = make_rng(cfg.seed, ROLE_SUP_DRAW)
    rng_unsup = make_rng(cfg.seed, ROLE_UNSUP_DRAW)

    sup_hist = np.zeros(cfg.iterations)
    unsup_hist = np.zeros(cfg.iterations)
    total_hist = np.zeros(cfg.iterations)

    for it in range(cfg.iterations):
        pick = rng_sup.integers(0, len(sparse), size=cfg.sup_batch)
        sup_value, grads = _supervised_step(net, sup_patches[pick], sup_labels[pick],
                                            cfg.supervised_loss)

        unsup_value = 0.0
        if use_unsup:
            flat = rng_unsup.integers(0, bounds[-1], size=cfg.unsup_batch)
            which = np.searchsorted(bounds, flat, side="right")
            rows, cols = np.divmod(flat - starts[which], widths[which])
            # the crop around interior pixel (1 + row, 1 + col)
            crops = _cut(crop_windows, which, rows + 1, cols + 1)
            unsup_value, unsup_grads = _tv_step(net, crops, cfg.alpha / cfg.unsup_batch)
            unsup_value /= cfg.unsup_batch
            grads += unsup_grads

        total = sup_value + cfg.alpha * unsup_value
        if not np.isfinite(total):
            raise NumericalError(
                f"non-finite loss at iteration {it}: "
                f"sup={sup_value} unsup={unsup_value} (lr too large?)")
        sup_hist[it] = sup_value
        unsup_hist[it] = unsup_value
        total_hist[it] = total
        sgd_step(net, grads, cfg.lr, cfg.weight_decay)

    return net, TrainReport(sup_hist, unsup_hist, total_hist)


def predict_image(net: Network, image) -> np.ndarray:
    """Classify every pixel from the mirror-padded patch around it.

    Returns an (H, W, K) probability map; prediction at (r, c) equals
    ``batch_forward`` on the patch ``pad_mirror(image, P // 2)[r:r+P, c:c+P]``.

    The trunk (``Network.forward_trunk``) runs once over the padded
    image, in row bands of about ``_BAND_PIXELS`` padded pixels plus a
    P - 1 row halo, so its working set does not grow with the image
    height.  The head (``Network.forward_head``) classifies the trunk
    windows ``_PREDICT_CHUNK`` pixels at a time in raster order, a block
    carrying over band boundaries.  These are the row blocks of a
    patch-wise pass in chunks of ``_PREDICT_CHUNK``, and BLAS sums a row
    of a product differently for some row counts, so the head's results
    are that pass's bit for bit.  The trunk's products have other row
    counts; that is exact as long as every conv reads at most 8 channels
    (measured with OpenBLAS on 1 and 2 threads).
    """
    img = _image_array(image)
    if img.shape[2] != net.in_channels:
        raise ValueError(f"image has {img.shape[2]} channels, "
                         f"network expects {net.in_channels}")
    h, w = img.shape[:2]
    p = net.patch_size
    padded = pad_mirror(img, p // 2)
    band = max(1, _BAND_PIXELS // padded.shape[1])
    out = np.empty((h * w, net.num_classes))
    block = np.empty((_PREDICT_CHUNK,) + net.trunk_shape)
    filled = 0  # trunk windows in block, of the pixels just before flat
    for r0 in range(0, h, band):
        r1 = min(r0 + band, h)
        fragments = net.forward_trunk(padded[r0:r1 + p - 1])
        flat = r0 * w
        while flat < r1 * w:
            take = min(_PREDICT_CHUNK - filled, r1 * w - flat)
            rows, cols = np.divmod(np.arange(flat, flat + take) - r0 * w, w)
            block[filled:filled + take] = net.trunk_windows(fragments, rows, cols)
            filled += take
            flat += take
            if filled == _PREDICT_CHUNK or flat == h * w:
                out[flat - filled:flat] = net.forward_head(block[:filled])
                filled = 0
    if h * w % _PREDICT_CHUNK == 1:
        # on a one-patch chunk a trunk product can have a single row, which
        # BLAS sums as a matrix-vector product; classify that patch as such
        r, c = divmod(h * w - 1, w)
        out[-1], _ = net.batch_forward(padded[None, r:r + p, c:c + p])
    return out.reshape(h, w, net.num_classes)
