"""Total-variation smoothness loss on classifier probability maps.

The penalty of one pixel is the L1 norm of the Sobel gradient of each
class channel over its 3x3 output neighborhood; its per-neighbor
subgradient coefficients backpropagate the penalty through the
classifier and push training toward piecewise constant maps.

Neighborhood convention: the nine values of a window are ordered
row-major, top-left to bottom-right, matching the vectorized Sobel
kernels ``SOBEL_X_VEC`` and ``SOBEL_Y_VEC``.  ``SOBEL_X`` responds to
variation along rows (vertical image gradients), ``SOBEL_Y`` along
columns.

Probability maps are (H, W, K) float64 arrays.  The whole-image
functions treat channels independently and sum over them; they accept
any finite channel stack, normalized or not.
"""

import numpy as np

SOBEL_X = np.array([[-1.0, -2.0, -1.0],
                    [0.0, 0.0, 0.0],
                    [1.0, 2.0, 1.0]])
SOBEL_Y = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]])

SOBEL_X_VEC = SOBEL_X.ravel().copy()
SOBEL_Y_VEC = SOBEL_Y.ravel().copy()

PROB_FLOOR = 1e-12  # the least probability whose log or reciprocal is taken


def _sobel(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gx and Gy of row-major (..., 9) windows."""
    # The Sobel taps sum to zero, so shifting each window by its first
    # value leaves the dot products unchanged up to rounding and makes
    # constant windows hit exact zero instead of accumulated roundoff.
    v = windows - windows[..., :1]
    return v @ SOBEL_X_VEC, v @ SOBEL_Y_VEC


def _subgradient(gx, gy) -> np.ndarray:
    """Per-neighbor coefficients (..., 9) of |Gx| + |Gy|, sign(0) = 0."""
    return np.sign(gx)[..., None] * SOBEL_X_VEC + np.sign(gy)[..., None] * SOBEL_Y_VEC


class TotalVariation:
    """|Gx| + |Gy| with Sobel gradients; subgradient uses sign(0) = 0.

    Training does not call it: it applies ``_sobel`` and ``_subgradient``
    to all of a batch's windows and channels at once.  The class stays as
    the one-window form with input checks behind the public ``tv_theta``
    and ``tv_theta_coeffs``.
    """

    def theta(self, values: np.ndarray) -> float:
        """Penalty of one window; ``values`` has shape (9,)."""
        gx, gy = _sobel(_window_vector(values))
        return abs(gx) + abs(gy)

    def theta_coeffs(self, values: np.ndarray) -> np.ndarray:
        """d(theta)/d(values), shape (9,); a subgradient at kinks."""
        return _subgradient(*_sobel(_window_vector(values)))


def _window_vector(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (9,):
        raise ValueError(f"window must hold 9 values, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("window contains non-finite values")
    return v


def _channel_window(nb, channel: int) -> np.ndarray:
    a = np.asarray(nb, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] != 9:
        raise ValueError(f"neighborhood must be (9,) or (9, K), got {a.shape}")
    if not 0 <= channel < a.shape[1]:
        raise ValueError(f"channel {channel} out of range for K={a.shape[1]}")
    return a[:, channel]


def tv_theta(nb, channel: int = 0) -> float:
    """Total variation of one class channel over a 3x3 window.

    ``nb`` is the row-major neighborhood, shape (9,) or (9, K).
    """
    return TotalVariation().theta(_channel_window(nb, channel))


def tv_theta_coeffs(nb, channel: int = 0) -> np.ndarray:
    """Per-neighbor subgradient of ``tv_theta``: sign(Gx)*Xvec + sign(Gy)*Yvec."""
    return TotalVariation().theta_coeffs(_channel_window(nb, channel))


def validate_prob_map(p, tol: float = 1e-6) -> np.ndarray:
    """Check (H, W, K) probability-map invariants and return the array."""
    a = np.asarray(p, dtype=np.float64)
    if a.ndim != 3:
        raise ValueError(f"probability map must be (H, W, K), got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("probability map contains non-finite values")
    if a.min() < -tol or a.max() > 1.0 + tol:
        raise ValueError("probability values outside [0, 1]")
    sums = a.sum(axis=2)
    if np.abs(sums - 1.0).max() > tol:
        raise ValueError("per-pixel class probabilities do not sum to 1")
    return a


def _channel_stack(p) -> np.ndarray:
    a = np.asarray(p, dtype=np.float64)
    if a.ndim == 2:
        a = a[:, :, None]
    if a.ndim != 3:
        raise ValueError(f"expected (H, W) or (H, W, K) field, got {a.shape}")
    if a.shape[0] < 3 or a.shape[1] < 3:
        raise ValueError(f"field too small for a 3x3 window: {a.shape[:2]}")
    if not np.isfinite(a).all():
        raise ValueError("field contains non-finite values")
    return a


def _image_sobel(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gx and Gy of every valid window of every channel, (H-2, W-2, K)."""
    windows = np.lib.stride_tricks.sliding_window_view(a, (3, 3), axis=(0, 1))
    return _sobel(windows.reshape(windows.shape[:3] + (9,)))


def tv_value_image(p) -> float:
    """Total variation of a channel stack: sum over channels and valid pixels."""
    gx, gy = _image_sobel(_channel_stack(p))
    return float(np.abs(gx).sum() + np.abs(gy).sum())


def tv_grad_image(p) -> np.ndarray:
    """Subgradient of ``tv_value_image`` with respect to every map value.

    Accumulates the per-window coefficients of every valid 3x3 window
    onto the pixels it covers; returned shape matches the input stack.
    """
    a = _channel_stack(p)
    h, w = a.shape[:2]
    coeffs = _subgradient(*_image_sobel(a))
    grad = np.zeros_like(a)
    for t in range(9):
        i, j = divmod(t, 3)
        grad[i:i + h - 2, j:j + w - 2] += coeffs[..., t]
    if np.asarray(p).ndim == 2:
        return grad[:, :, 0]
    return grad
