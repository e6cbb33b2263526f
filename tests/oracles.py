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
