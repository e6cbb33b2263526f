"""Sobel responses over a whole grid and their scatter back onto it.

``tv_value_image`` correlates every valid 3x3 window of a map with the
Sobel kernels, and ``tv_grad_image`` scatters each window's sign
coefficients back through the same kernels: hand values, the scatter
against a loop-by-loop oracle, and the error paths for bad grids.
"""

import numpy as np
import pytest

from tvseg.tv_loss import (SOBEL_X, SOBEL_Y, _image_sobel, tv_grad_image,
                           tv_value_image)


def _responses(g):
    """(Gx, Gy) of a 2-D grid, each (H-2, W-2)."""
    gx, gy = _image_sobel(np.asarray(g, dtype=np.float64)[:, :, None])
    return gx[:, :, 0], gy[:, :, 0]


def test_zero_sum_kernel_annihilates_constants():
    g = np.full((6, 5), 3.7)
    gx, gy = _responses(g)
    assert gx.shape == gy.shape == (4, 3)
    assert np.all(gx == 0.0)
    assert np.all(gy == 0.0)
    assert tv_value_image(g) == 0.0
    assert np.all(tv_grad_image(g) == 0.0)


def test_sobel_x_on_row_ramp():
    # f(r, c) = r: each valid pixel sees (1 + 2 + 1) * (r+1 - (r-1)) = 8
    g = np.tile(np.arange(4.0)[:, None], (1, 4))
    gx, gy = _responses(g)
    assert gx.shape == (2, 2)
    assert np.all(gx == 8.0)
    assert np.all(gy == 0.0)
    assert tv_value_image(g) == 32.0


def test_sobel_y_on_col_ramp():
    g = np.tile(np.arange(4.0)[None, :], (4, 1))
    gx, gy = _responses(g)
    assert np.all(gy == 8.0)
    assert np.all(gx == 0.0)
    assert tv_value_image(g) == 32.0
    # on the diagonal ramp r + c both respond, so TV is 16 per valid pixel
    assert tv_value_image(g + g.T) == 64.0


def test_adjoint_scatter_zero_coeff():
    # the Sobel kernels are blind to a checkerboard and to alternating
    # stripes: every window has Gx = Gy = 0, so all scattered
    # coefficients are zero although the map is not constant
    rows, cols = np.mgrid[0:4, 0:5]
    for g in ((rows + cols) % 2, rows % 2, cols % 2):
        g = g.astype(np.float64)
        gx, gy = _responses(g)
        assert np.all(gx == 0.0) and np.all(gy == 0.0)
        assert np.all(tv_grad_image(g) == 0.0)


def test_adjoint_scatter_single_coeff_reproduces_kernel():
    # a 3x3 map has one window; a pure row ramp gives sign(Gx) = 1 and
    # Gy = 0, so the scattered gradient is the kernel itself
    ramp = np.tile(np.arange(3.0)[:, None], (1, 3))
    assert np.array_equal(tv_grad_image(ramp), SOBEL_X)
    assert np.array_equal(tv_grad_image(ramp.T), SOBEL_Y)
    assert np.array_equal(tv_grad_image(-ramp), -SOBEL_X)


def test_adjoint_scatter_matches_bruteforce():
    rng = np.random.default_rng(3)
    h, w = 4, 6
    g = rng.standard_normal((h, w))
    ref = np.zeros((h, w))
    for qr in range(h - 2):
        for qc in range(w - 2):
            for k in (SOBEL_X, SOBEL_Y):
                resp = sum(k[i, j] * g[qr + i, qc + j]
                           for i in range(3) for j in range(3))
                for i in range(3):
                    for j in range(3):
                        ref[qr + i, qc + j] += k[i, j] * np.sign(resp)
    assert np.abs(tv_grad_image(g) - ref).max() < 1e-12


def test_grid_too_small_raises():
    for shape in ((2, 5), (5, 2), (2, 2, 3)):
        for check in (tv_value_image, tv_grad_image):
            with pytest.raises(ValueError):
                check(np.zeros(shape))


def test_nonfinite_grid_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        g = np.zeros((4, 4))
        g[1, 1] = bad
        for check in (tv_value_image, tv_grad_image):
            with pytest.raises(ValueError):
                check(g)
