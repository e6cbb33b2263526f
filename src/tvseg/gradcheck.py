"""Finite-difference and scatter verification suites.

Every suite checks a fast analytic path against an oracle coded from
the raw formulas in this file (literal kernel vectors, per-window
loops, central differences), so the two sides share no code.  Checks
near subgradient kinks are excluded by construction: neighborhoods are
resampled until every window's |Gx| and |Gy| clear a margin that the
finite-difference step cannot cross.

``run_all`` returns one result per suite; the CLI turns any failure
into a nonzero exit.
"""

from dataclasses import dataclass

import numpy as np

from .network import LayerSpec, Network
from .rng import make_rng
from .trainer import SUPERVISED_LOSSES, _cut, _windows, supervised_grad, unsupervised_grad
from .tv_loss import tv_grad_image, tv_theta, tv_theta_coeffs, tv_value_image

# row-major forms of the two 3x3 derivative kernels, written out so the
# oracles here do not depend on the tv_loss module's constants
_XBAR = np.array([-1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0])
_YBAR = np.array([-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0])

# offsets of the 3x3 neighborhood of a pixel, row-major
_NB_ROWS = np.array([-1, -1, -1, 0, 0, 0, 1, 1, 1])
_NB_COLS = np.array([-1, 0, 1, -1, 0, 1, -1, 0, 1])

_KINK_MARGIN = 1e-3


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_err: float
    detail: str = ""

    def line(self) -> str:
        state = "ok" if self.passed else "FAIL"
        msg = f"{self.name}: {state} (max err {self.max_err:.3e})"
        return msg + (f" {self.detail}" if self.detail else "")


def _window_margins(p: np.ndarray) -> float:
    """Smallest |Gx| or |Gy| over all 3x3 windows and channels of a map."""
    if p.ndim == 2:
        p = p[:, :, None]
    worst = np.inf
    for ch in range(p.shape[2]):
        for r in range(p.shape[0] - 2):
            for c in range(p.shape[1] - 2):
                w9 = p[r:r + 3, c:c + 3, ch].ravel()
                worst = min(worst, abs(w9 @ _XBAR), abs(w9 @ _YBAR))
    return worst


def check_theta_coeffs(seed: int = 0, count: int = 1000) -> CheckResult:
    """Per-window coefficients vs central differences of the penalty."""
    rng = make_rng(seed, 101)
    h = 1e-7
    worst = 0.0
    done = 0
    while done < count:
        v = rng.uniform(0.0, 1.0, size=9)
        if _window_margins(v.reshape(3, 3)) < _KINK_MARGIN:
            continue
        coeffs = tv_theta_coeffs(v)
        for i in range(9):
            vp, vm = v.copy(), v.copy()
            vp[i] += h
            vm[i] -= h
            fd = (tv_theta(vp) - tv_theta(vm)) / (2 * h)
            worst = max(worst, abs(fd - coeffs[i]))
        done += 1
    return CheckResult("theta_coeffs_vs_central_diff", worst <= 1e-6, worst)


def _scatter_oracle(p: np.ndarray) -> np.ndarray:
    """Gradient image assembled window by window from the raw formula."""
    arr = p if p.ndim == 3 else p[:, :, None]
    out = np.zeros_like(arr)
    for ch in range(arr.shape[2]):
        for r in range(arr.shape[0] - 2):
            for c in range(arr.shape[1] - 2):
                w9 = arr[r:r + 3, c:c + 3, ch].ravel()
                coeffs = np.sign(w9 @ _XBAR) * _XBAR + np.sign(w9 @ _YBAR) * _YBAR
                out[r:r + 3, c:c + 3, ch] += coeffs.reshape(3, 3)
    return out if p.ndim == 3 else out[:, :, 0]


def check_tv_grad_scatter(seed: int = 0, maps: int = 20) -> CheckResult:
    """Image-level gradient vs the brute-force window scatter."""
    rng = make_rng(seed, 102)
    worst = 0.0
    for i in range(maps):
        shape = (8, 8) if i % 2 == 0 else (7, 9, 2)
        p = rng.uniform(0.0, 1.0, size=shape)
        worst = max(worst, float(np.abs(tv_grad_image(p) - _scatter_oracle(p)).max()))
    return CheckResult("tv_grad_image_vs_window_scatter", worst <= 1e-12, worst)


def check_tv_grad_directional(seed: int = 0, maps: int = 10) -> CheckResult:
    """Image-level gradient vs directional finite differences."""
    rng = make_rng(seed, 103)
    h = 1e-6
    worst = 0.0
    done = tries = 0
    while done < maps:
        tries += 1
        if tries > 100 * maps:
            return CheckResult("tv_grad_image_vs_directional_fd", False, np.inf,
                               "could not sample maps clear of kinks")
        p = rng.uniform(0.0, 1.0, size=(8, 8) if done % 2 == 0 else (8, 8, 2))
        if _window_margins(p) < _KINK_MARGIN:
            continue
        done += 1
        grad = tv_grad_image(p)
        for _ in range(5):
            d = rng.standard_normal(p.shape)
            d /= np.abs(d).max()
            fd = (tv_value_image(p + h * d) - tv_value_image(p - h * d)) / (2 * h)
            an = float((grad * d).sum())
            worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    return CheckResult("tv_grad_image_vs_directional_fd", worst <= 1e-5, worst)


def _tiny_net(seed: int, patch: int = 9, k: int = 2) -> Network:
    specs = (LayerSpec("conv3x3", 2), LayerSpec("relu"), LayerSpec("maxpool2x2"),
             LayerSpec("dense", 8), LayerSpec("relu"), LayerSpec("dense", k),
             LayerSpec("softmax"))
    net = Network.init(specs, patch, k, seed=seed)
    assert net.num_params <= 2000
    return net


def _fd_param_grad(net: Network, value_fn, h: float = 1e-5) -> np.ndarray:
    fd = np.empty(net.num_params)
    for i in range(net.num_params):
        orig = net.params[i]
        net.params[i] = orig + h
        vp = value_fn()
        net.params[i] = orig - h
        vm = value_fn()
        net.params[i] = orig
        fd[i] = (vp - vm) / (2 * h)
    return fd


def _grad_mismatch(analytic: np.ndarray, fd: np.ndarray) -> tuple[bool, float]:
    diff = np.abs(analytic - fd)
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    ok = diff <= np.maximum(1e-4 * scale, 1e-7)
    rel = diff / np.maximum(scale, 1e-7)
    return bool(ok.all()), float(rel.max())


def check_supervised_grads(seed: int = 0) -> list[CheckResult]:
    """Whole-network supervised gradients vs central differences."""
    results = []
    for kind in SUPERVISED_LOSSES:
        rng = make_rng(seed, 105, 0 if kind == "mse" else 1)
        net = _tiny_net(int(rng.integers(0, 2 ** 31)))
        patch = rng.uniform(0.0, 1.0, size=(9, 9, 1))
        label = int(rng.integers(0, 2))
        _, grads = supervised_grad(net, patch, label, kind)

        def value() -> float:
            probs, _ = net.batch_forward(patch[None])
            if kind == "mse":
                onehot = np.zeros(2)
                onehot[label] = 1.0
                return float(((probs[0] - onehot) ** 2).sum())
            return float(-np.log(max(probs[0, label], 1e-12)))

        ok, worst = _grad_mismatch(grads, _fd_param_grad(net, value))
        results.append(CheckResult(f"net_supervised_{kind}_vs_fd", ok, worst))
    return results


def check_unsupervised_grad(seed: int = 0) -> CheckResult:
    """Whole-network neighborhood-penalty gradient vs central differences.

    Resamples the net and image until the base point's output
    neighborhood clears the kink margin on every channel.
    """
    rng = make_rng(seed, 106)
    for _ in range(50):
        net = _tiny_net(int(rng.integers(0, 2 ** 31)))
        img = rng.uniform(0.0, 1.0, size=(12, 12, 1))
        center = (int(rng.integers(1, 11)), int(rng.integers(1, 11)))
        patches = _cut([_windows(img, net.patch_size)], [0] * 9,
                       center[0] + _NB_ROWS, center[1] + _NB_COLS)
        probs, _ = net.batch_forward(patches)
        if _window_margins(probs.reshape(3, 3, -1)) < _KINK_MARGIN:
            continue
        _, grads = unsupervised_grad(net, img, center)

        def value() -> float:
            p, _ = net.batch_forward(patches)
            return float(sum(tv_theta(p[:, ch]) for ch in range(2)))

        ok, worst = _grad_mismatch(grads, _fd_param_grad(net, value))
        return CheckResult("net_unsupervised_vs_fd", ok, worst)
    return CheckResult("net_unsupervised_vs_fd", False, np.inf,
                       "could not sample a base point clear of kinks")


def run_all(seed: int = 0) -> list[CheckResult]:
    results = [
        check_theta_coeffs(seed),
        check_tv_grad_scatter(seed),
        check_tv_grad_directional(seed),
    ]
    results.extend(check_supervised_grads(seed))
    results.append(check_unsupervised_grad(seed))
    return results
