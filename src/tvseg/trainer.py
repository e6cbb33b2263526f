"""Semi-supervised SGD: supervised loss on sparse pixels plus a weighted
spatial smoothness loss on sampled unsupervised neighborhoods.

Each iteration draws a supervised minibatch from the sparse label set
and, when the smoothness weight alpha is positive, a batch of interior
pixels from all images; every unsupervised pixel contributes the
penalty of its 3x3 output neighborhood, backpropagated through the nine
patch classifications that produce it.  Supervised and unsupervised
gradients are averaged within their own batches before combining, so
alpha means the same thing at any batch size.

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
from .tv_loss import TotalVariation

SUPERVISED_LOSSES = ("mse", "cross_entropy")

_PROB_FLOOR = 1e-12  # clamp for log/reciprocal of tiny probabilities

_TV = TotalVariation()


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
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
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


def supervised_grad(net: Network, patch, label: int,
                    loss_kind: str = "cross_entropy") -> tuple[float, np.ndarray]:
    """Loss and exact parameter gradient for one labeled patch."""
    if loss_kind not in SUPERVISED_LOSSES:
        raise ValueError(f"loss_kind must be one of {SUPERVISED_LOSSES}")
    if not 0 <= label < net.num_classes:
        raise ValueError(f"label {label} out of range for K={net.num_classes}")
    probs, cache = net.batch_forward(np.asarray(patch, dtype=np.float64)[None])
    losses, grad_out = _loss_and_grad_out(probs, np.array([label]), loss_kind)
    return float(losses[0]), net.batch_backward(cache, grad_out)


def _neighbor_patches(padded: np.ndarray, row: int, col: int, patch_size: int) -> np.ndarray:
    """Nine patches centered on the 3x3 neighborhood of (row, col), row-major.

    ``padded`` is the image mirror-padded by patch_size // 2, so the
    patch centered at original pixel (r, c) is padded[r:r+P, c:c+P].
    """
    out = np.empty((9, patch_size, patch_size, padded.shape[2]))
    i = 0
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            r, c = row + dr, col + dc
            out[i] = padded[r:r + patch_size, c:c + patch_size]
            i += 1
    return out


def unsupervised_grad(net: Network, image, center: tuple[int, int]) -> tuple[float, np.ndarray]:
    """TV penalty of the output neighborhood at ``center`` and its
    parameter gradient.

    Runs the classifier on the nine patches centered on the 3x3
    neighborhood of ``center`` (row-major), applies the per-window
    penalty to each class channel, and backpropagates the per-neighbor
    coefficients through the nine forward passes.
    """
    img = image.image if isinstance(image, LabeledImage) else np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w = img.shape[:2]
    r, c = center
    if not (1 <= r < h - 1 and 1 <= c < w - 1):
        raise ValueError(f"center {center} must be at least 1 pixel inside a {h}x{w} image")
    padded = pad_mirror(img, net.patch_size // 2)
    patches = _neighbor_patches(padded, r, c, net.patch_size)
    probs, cache = net.batch_forward(patches)  # (9, K) neighborhood outputs
    value = 0.0
    grad_out = np.empty_like(probs)
    for ch in range(net.num_classes):
        value += _TV.theta(probs[:, ch])
        grad_out[:, ch] = _TV.theta_coeffs(probs[:, ch])
    return float(value), net.batch_backward(cache, grad_out)


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

    ids = list(images.keys())
    half = net.patch_size // 2
    padded = {name: pad_mirror(images[name].image, half) for name in ids}

    # supervised samples are a fixed small set: extract their patches once
    p = net.patch_size
    sup_patches = np.empty((len(sparse), p, p, net.in_channels))
    sup_labels = np.empty(len(sparse), dtype=np.int64)
    for i, (image_id, row, col, cls) in enumerate(sparse.entries):
        sup_patches[i] = padded[image_id][row:row + p, col:col + p]
        sup_labels[i] = cls

    # flat index space over interior pixels of every image, for unsup draws
    use_unsup = cfg.alpha > 0 and cfg.unsup_batch > 0
    if use_unsup:
        interiors = []
        for name in ids:
            li = images[name]
            ih, iw = li.height - 2, li.width - 2
            if ih > 0 and iw > 0:
                interiors.append((name, ih, iw))
        counts = np.array([ih * iw for _, ih, iw in interiors], dtype=np.int64)
        if counts.sum() == 0:
            raise ValueError("no interior pixels available for the unsupervised loss")
        bounds = np.cumsum(counts)

    rng_sup = make_rng(cfg.seed, ROLE_SUP_DRAW)
    rng_unsup = make_rng(cfg.seed, ROLE_UNSUP_DRAW)

    sup_hist = np.zeros(cfg.iterations)
    unsup_hist = np.zeros(cfg.iterations)
    total_hist = np.zeros(cfg.iterations)

    for it in range(cfg.iterations):
        pick = rng_sup.integers(0, len(sparse), size=cfg.sup_batch)
        probs, cache = net.batch_forward(sup_patches[pick])
        losses, grad_out = _loss_and_grad_out(probs, sup_labels[pick], cfg.supervised_loss)
        sup_value = float(losses.mean())
        grads = net.batch_backward(cache, grad_out / cfg.sup_batch)

        unsup_value = 0.0
        if use_unsup:
            flat = rng_unsup.integers(0, bounds[-1], size=cfg.unsup_batch)
            batch = np.empty((9 * cfg.unsup_batch, p, p, net.in_channels))
            for bi, f in enumerate(flat):
                which = int(np.searchsorted(bounds, f, side="right"))
                name, ih, iw = interiors[which]
                local = int(f) - (int(bounds[which - 1]) if which else 0)
                row, col = 1 + local // iw, 1 + local % iw
                batch[9 * bi:9 * bi + 9] = _neighbor_patches(padded[name], row, col, p)
            nb_probs, nb_cache = net.batch_forward(batch)
            nb = nb_probs.reshape(cfg.unsup_batch, 9, net.num_classes)
            coeffs = np.empty_like(nb)
            for bi in range(cfg.unsup_batch):
                for ch in range(net.num_classes):
                    unsup_value += _TV.theta(nb[bi, :, ch])
                    coeffs[bi, :, ch] = _TV.theta_coeffs(nb[bi, :, ch])
            unsup_value /= cfg.unsup_batch
            scale = cfg.alpha / cfg.unsup_batch
            grads += net.batch_backward(
                nb_cache, coeffs.reshape(9 * cfg.unsup_batch, net.num_classes) * scale)

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


def predict_image(net: Network, image, chunk: int = 2048) -> np.ndarray:
    """Classify every pixel by sliding the patch window over the image.

    Returns an (H, W, K) probability map; borders use mirror padding,
    so prediction at (r, c) equals ``batch_forward`` on the patch
    ``pad_mirror(image, P // 2)[r:r+P, c:c+P]``.
    """
    img = image.image if isinstance(image, LabeledImage) else np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w = img.shape[:2]
    p = net.patch_size
    padded = pad_mirror(img, p // 2)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (p, p), axis=(0, 1))
    patches = windows.transpose(0, 1, 3, 4, 2).reshape(h * w, p, p, net.in_channels)
    out = np.empty((h * w, net.num_classes))
    for start in range(0, h * w, chunk):
        stop = min(start + chunk, h * w)
        out[start:stop], _ = net.batch_forward(patches[start:stop])
    return out.reshape(h, w, net.num_classes)
