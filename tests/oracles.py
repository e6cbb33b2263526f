"""Reference implementations that the tests compare fast paths against.

Each one is coded from the raw definition, sharing no code with the
package, so agreement is evidence that both are right.
"""

import numpy as np


def mirror_index(i: int, n: int) -> int:
    """Reflect an index about the borders of an axis of length n, with the
    edge value repeated (the ``symmetric`` mode of ``np.pad``)."""
    while i < 0 or i >= n:
        i = -i - 1 if i < 0 else 2 * n - 1 - i
    return i


def extract_patch(image, center: tuple[int, int], patch_size: int) -> np.ndarray:
    """The (P, P, C) window centered at ``center``, mirrored at the borders.

    ``image`` is (H, W) or (H, W, C).
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w = img.shape[:2]
    r, c = center
    half = patch_size // 2
    rows = [mirror_index(r - half + t, h) for t in range(patch_size)]
    cols = [mirror_index(c - half + t, w) for t in range(patch_size)]
    return img[np.ix_(rows, cols)]


def predict_patchwise(net, image, chunk: int = 2048) -> np.ndarray:
    """(H, W, K) map of ``net.batch_forward`` on every pixel's extracted
    patch, ``chunk`` pixels per call in raster order."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w = img.shape[:2]
    out = np.empty((h * w, net.num_classes))
    for start in range(0, h * w, chunk):
        stop = min(start + chunk, h * w)
        patches = np.stack([extract_patch(img, divmod(i, w), net.patch_size)
                            for i in range(start, stop)])
        out[start:stop], _ = net.batch_forward(patches)
    return out.reshape(h, w, net.num_classes)


# row-major 3x3 Sobel taps across rows and across columns
_SOBEL_ROWS = np.array([-1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0])
_SOBEL_COLS = np.array([-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0])


def tv_step_patchwise(net, image, centers) -> tuple[float, np.ndarray]:
    """Summed TV penalty of the 3x3 output neighborhoods at ``centers``
    and its parameter gradient, from the nine extracted patches of each.

    The patches of all neighborhoods, row-major within each, go through
    one ``net.batch_forward``; a loop over windows and class channels
    takes each window's Sobel responses after subtracting its first
    value, so a constant window has exactly zero response, and sums
    |Gx| + |Gy|.  The coefficients sign(Gx) * rows + sign(Gy) * cols go
    back through ``net.batch_backward``.
    """
    patches = np.stack([extract_patch(image, (r + dr, c + dc), net.patch_size)
                        for r, c in centers for dr in (-1, 0, 1) for dc in (-1, 0, 1)])
    probs, cache = net.batch_forward(patches)
    value = 0.0
    coeffs = np.empty_like(probs)
    for start in range(0, len(probs), 9):
        for ch in range(net.num_classes):
            v = probs[start:start + 9, ch] - probs[start, ch]
            gx, gy = v @ _SOBEL_ROWS, v @ _SOBEL_COLS
            value += abs(gx) + abs(gy)
            coeffs[start:start + 9, ch] = np.sign(gx) * _SOBEL_ROWS + np.sign(gy) * _SOBEL_COLS
    return value, net.batch_backward(cache, coeffs)


def icm_labels(probs: np.ndarray, beta: float, max_iters: int) -> np.ndarray:
    """ICM under the Potts prior in whole-vector float64 arithmetic.

    Raster-order sweeps from the argmax; a pixel takes the first class of
    least unary + beta * (number of disagreeing 4-neighbors), and only if
    that strictly beats its current cost.  Stops after a sweep without a
    change or after ``max_iters`` sweeps.
    """
    h, w, k = probs.shape
    unary = -np.log(np.maximum(probs, 1e-12))
    labels = probs.argmax(axis=2)
    classes = np.arange(k)
    for _ in range(max_iters):
        changed = False
        for r in range(h):
            for c in range(w):
                cost = unary[r, c].copy()
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= rr < h and 0 <= cc < w:
                        cost += beta * (classes != labels[rr, cc])
                best = int(cost.argmin())
                if cost[best] < cost[labels[r, c]]:
                    labels[r, c] = best
                    changed = True
        if not changed:
            break
    return labels.astype(np.uint8)
