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


def conv3x3(x, w, b) -> np.ndarray:
    """Valid 3x3 convolution of an (N, H, W, C) map with (3, 3, C, M)
    weights and (M,) biases: the bias plus the nine taps' ``tensordot``
    products over the channel axis, added in row-major tap order."""
    n, ho, wo = x.shape[0], x.shape[1] - 2, x.shape[2] - 2
    y = np.broadcast_to(b, (n, ho, wo, b.size)).copy()
    for i in range(3):
        for j in range(3):
            y += np.tensordot(x[:, i:i + ho, j:j + wo, :], w[i, j], axes=([3], [0]))
    return y


def conv3x3_param_grads(dout, x) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias gradients of ``conv3x3`` for the output gradient
    ``dout``: each tap's ``tensordot`` of its input window with ``dout``
    over the batch and spatial axes, and ``dout`` summed over them."""
    _, ho, wo, maps = dout.shape
    gw = np.empty((3, 3, x.shape[3], maps))
    for i in range(3):
        for j in range(3):
            gw[i, j] = np.tensordot(x[:, i:i + ho, j:j + wo, :], dout,
                                    axes=([0, 1, 2], [0, 1, 2]))
    return gw, dout.sum(axis=(0, 1, 2))


def conv3x3_backward(dout, x, w) -> np.ndarray:
    """Input gradient of ``conv3x3``: each tap's ``tensordot`` of ``dout``
    with its weights over the map axis, added into the window it read."""
    _, ho, wo, _ = dout.shape
    dx = np.zeros_like(x)
    for i in range(3):
        for j in range(3):
            dx[:, i:i + ho, j:j + wo, :] += np.tensordot(dout, w[i, j], axes=([3], [1]))
    return dx


def maxpool_argmax(x) -> tuple[np.ndarray, np.ndarray]:
    """2x2 max pool, stride 2, of an (N, H, W, C) map, a trailing odd row
    or column dropped, and the argmax index k = 2 * row + col of each
    window: the window's values are laid out along a last axis in
    row-major order, argmax takes the first maximum and
    ``take_along_axis`` reads it."""
    n, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    win = (x[:, :2 * h2, :2 * w2].reshape(n, h2, 2, w2, 2, c)
           .transpose(0, 1, 3, 5, 2, 4).reshape(n, h2, w2, c, 4))
    idx = win.argmax(axis=4)
    return np.take_along_axis(win, idx[..., None], axis=4)[..., 0], idx


def maxpool_argmax_backward(dout, idx, in_shape) -> np.ndarray:
    """Input gradient of ``maxpool_argmax``: each ``dout`` value scattered
    to the window position its index names, zero everywhere else."""
    n, h2, w2, c = dout.shape
    win = np.zeros((n, h2, w2, c, 4))
    np.put_along_axis(win, idx[..., None], dout[..., None], axis=4)
    dx = np.zeros(in_shape)
    dx[:, :2 * h2, :2 * w2] = (win.reshape(n, h2, w2, c, 2, 2)
                               .transpose(0, 1, 4, 2, 5, 3).reshape(n, 2 * h2, 2 * w2, c))
    return dx


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


def icm_loop(probs: np.ndarray, beta: float, max_iters: int) -> tuple[np.ndarray, int]:
    """ICM under the Potts prior as one Python-float loop over every pixel
    of every sweep, and the number of sweeps it ran.

    Raster-order sweeps from the argmax; each visit copies the pixel's
    unary costs, adds beta to every class but the neighbor's for each
    neighbor in the order above, below, left, right, takes the first
    least cost and relabels only on strict improvement.  Stops after a
    sweep without a change or after ``max_iters`` sweeps.
    """
    labels = probs.argmax(axis=2).astype(np.uint8)
    if beta == 0:
        return labels, 0
    unary = -np.log(np.maximum(np.asarray(probs, dtype=np.float64), 1e-12))
    h, w, k = unary.shape

    beta = float(beta)
    costs = unary.tolist()
    field = labels.tolist()
    classes = range(k)
    sweeps = 0
    for _ in range(max_iters):
        sweeps += 1
        changed = False
        for r in range(h):
            row, unary_row = field[r], costs[r]
            above = field[r - 1] if r > 0 else None
            below = field[r + 1] if r < h - 1 else None
            for c in range(w):
                neighbors = []
                if above is not None:
                    neighbors.append(above[c])
                if below is not None:
                    neighbors.append(below[c])
                if c > 0:
                    neighbors.append(row[c - 1])
                if c < w - 1:
                    neighbors.append(row[c + 1])
                cost = unary_row[c][:]
                for other in neighbors:
                    for j in classes:
                        if j != other:
                            cost[j] += beta
                best = min(classes, key=cost.__getitem__)  # first min wins
                # relabel only on strict improvement so ties cannot oscillate
                if cost[best] < cost[row[c]]:
                    row[c] = best
                    changed = True
        if not changed:
            break
    return np.array(field, dtype=np.uint8).reshape(h, w), sweeps
