"""Total variation penalty: window values, coefficients, image forms."""

import numpy as np
import pytest

from tvseg.tv_loss import (SOBEL_X, SOBEL_Y, _image_sobel, tv_grad_image,
                           tv_theta, tv_theta_coeffs, tv_value_image,
                           validate_prob_map)

XBAR = np.array([-1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0])
YBAR = np.array([-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0])


def test_theta_constant_window_is_zero():
    assert tv_theta(np.full(9, 0.37)) == 0.0


def test_theta_bottom_row_one():
    v = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1.0])
    assert tv_theta(v) == 4.0
    # a ramp along rows has a Sobel response of exactly 8 and none across
    assert tv_theta(np.array([0, 0, 0, 1, 1, 1, 2, 2, 2.0])) == 8.0


def test_theta_right_column_one():
    v = np.array([0, 0, 1, 0, 0, 1, 0, 0, 1.0])
    assert tv_theta(v) == 4.0
    assert tv_theta(np.array([0, 1, 2, 0, 1, 2, 0, 1, 2.0])) == 8.0


def test_coeffs_constant_window_all_zero():
    # sign(0) = 0 convention
    c = tv_theta_coeffs(np.full(9, 0.5))
    assert np.array_equal(c, np.zeros(9))


def test_coeffs_bottom_row_one_equals_xbar():
    v = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1.0])
    assert np.array_equal(tv_theta_coeffs(v), XBAR)
    assert np.array_equal(tv_theta_coeffs(np.array([0, 0, 0, 1, 1, 1, 2, 2, 2.0])), XBAR)


def test_coeffs_match_central_differences():
    rng = np.random.default_rng(21)
    h = 1e-7
    done = 0
    while done < 50:
        v = rng.uniform(0.0, 1.0, size=9)
        if abs(v @ XBAR) < 1e-3 or abs(v @ YBAR) < 1e-3:
            continue
        done += 1
        coeffs = tv_theta_coeffs(v)
        for i in range(9):
            vp, vm = v.copy(), v.copy()
            vp[i] += h
            vm[i] -= h
            fd = (tv_theta(vp) - tv_theta(vm)) / (2 * h)
            assert abs(fd - coeffs[i]) < 1e-6


def test_multichannel_window_selects_channel():
    nb = np.zeros((9, 2))
    nb[6:, 1] = 1.0  # bottom row on channel 1 only
    assert tv_theta(nb, channel=0) == 0.0
    assert tv_theta(nb, channel=1) == 4.0
    with pytest.raises(ValueError):
        tv_theta(nb, channel=2)


def test_value_image_constant_is_zero():
    p = np.full((5, 5, 3), 1.0 / 3.0)
    assert tv_value_image(p) == 0.0


def test_value_image_vertical_step():
    # 4x4 binary map, channel 1 steps at the column middle.  Each of the
    # four valid pixels has |Gy| = 4 per channel, so 16 + 16 = 32.
    ch1 = np.zeros((4, 4))
    ch1[:, 2:] = 1.0
    p = np.stack([1.0 - ch1, ch1], axis=2)
    assert tv_value_image(p) == 32.0


def test_value_image_matches_window_sum():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.0, 1.0, size=(6, 7, 2))
    total = 0.0
    for r in range(1, 5):
        for c in range(1, 6):
            nb = p[r - 1:r + 2, c - 1:c + 2].reshape(9, 2)  # row-major
            for k in range(2):
                total += tv_theta(nb, k)
    assert abs(tv_value_image(p) - total) < 1e-10 * max(1.0, total)


def test_value_image_nonnegative_and_homogeneous():
    rng = np.random.default_rng(9)
    raw = rng.uniform(0.0, 1.0, size=(5, 5))
    v = tv_value_image(raw)
    assert v >= 0.0
    assert abs(tv_value_image(3.0 * raw) - 3.0 * v) < 1e-9


def test_grad_image_constant_is_zero():
    assert np.all(tv_grad_image(np.full((4, 6), 0.2)) == 0.0)


def test_grad_image_matches_bruteforce_scatter():
    rng = np.random.default_rng(13)
    p = rng.uniform(0.0, 1.0, size=(5, 5, 2))
    grad = tv_grad_image(p)
    ref = np.zeros_like(p)
    for k in range(2):
        for r in range(3):
            for c in range(3):
                w9 = p[r:r + 3, c:c + 3, k].ravel()
                coeffs = (np.sign(w9 @ XBAR) * XBAR + np.sign(w9 @ YBAR) * YBAR)
                ref[r:r + 3, c:c + 3, k] += coeffs.reshape(3, 3)
    assert np.abs(grad - ref).max() <= 1e-12


def test_grad_image_directional_derivative():
    rng = np.random.default_rng(17)
    h = 1e-6
    done = 0
    while done < 3:
        p = rng.uniform(0.0, 1.0, size=(6, 6))
        # resample until all windows are clear of the |.| kinks
        clear = True
        for r in range(4):
            for c in range(4):
                w9 = p[r:r + 3, c:c + 3].ravel()
                if abs(w9 @ XBAR) < 1e-3 or abs(w9 @ YBAR) < 1e-3:
                    clear = False
        if not clear:
            continue
        done += 1
        grad = tv_grad_image(p)
        for _ in range(4):
            d = rng.standard_normal(p.shape)
            fd = (tv_value_image(p + h * d) - tv_value_image(p - h * d)) / (2 * h)
            an = float((grad * d).sum())
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))


def test_grad_image_preserves_2d_shape():
    p = np.random.default_rng(1).uniform(size=(4, 4))
    assert tv_grad_image(p).shape == (4, 4)


def test_validate_prob_map():
    good = np.full((3, 3, 2), 0.5)
    validate_prob_map(good)
    with pytest.raises(ValueError):
        validate_prob_map(np.full((3, 3, 2), 0.6))  # sums to 1.2
    with pytest.raises(ValueError):
        validate_prob_map(np.full((3, 3), 1.0))  # not 3-d
    bad = np.full((3, 3, 2), 0.5)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        validate_prob_map(bad)


def test_window_must_hold_nine_values():
    with pytest.raises(ValueError):
        tv_theta(np.zeros(8))


# -- Sobel responses over a whole grid and their scatter back onto it ---------
# ``tv_value_image`` correlates every valid 3x3 window of a map with the
# Sobel kernels, and ``tv_grad_image`` scatters each window's sign
# coefficients back through the same kernels: hand values, the scatter
# against a loop-by-loop oracle, and the error paths for bad grids.


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
