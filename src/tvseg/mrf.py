"""Markov random field smoothing of probability maps by iterated
conditional modes.

The label field minimizes a Potts energy: per-pixel unary cost is the
negative log probability of the assigned class, and each 4-connected
pair of unequal labels pays beta.  Starting from the per-pixel argmax,
raster-order sweeps greedily relabel single pixels while any strict
improvement exists.  Every accepted move lowers the energy, so the
sweep count is finite even without the iteration cap.
"""

from dataclasses import dataclass

import numpy as np

from .errors import check_finite
from .tv_loss import validate_prob_map

_PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class MrfConfig:
    beta: float = 1.0
    max_iters: int = 10

    def __post_init__(self):
        check_finite("beta", self.beta)
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


def argmax_labels(probs: np.ndarray) -> np.ndarray:
    """Most probable class per pixel; ties pick the smallest class index."""
    probs = validate_prob_map(probs)
    return probs.argmax(axis=2).astype(np.uint8)


def potts_energy(labels: np.ndarray, unary: np.ndarray, beta: float) -> float:
    """Total energy of a label field: sum of assigned unary costs plus
    beta per 4-connected pair of unequal labels."""
    h, w = labels.shape
    rr, cc = np.mgrid[0:h, 0:w]
    e = unary[rr, cc, labels].sum()
    e += beta * (labels[1:, :] != labels[:-1, :]).sum()
    e += beta * (labels[:, 1:] != labels[:, :-1]).sum()
    return float(e)


def icm_smooth(probs: np.ndarray, cfg: MrfConfig) -> np.ndarray:
    """Smooth a probability map into a label image by ICM under a Potts
    prior.  Returns a (H, W) uint8 label array."""
    labels = argmax_labels(probs)
    if cfg.beta == 0:
        return labels
    unary = -np.log(np.maximum(np.asarray(probs, dtype=np.float64), _PROB_FLOOR))
    h, w, k = unary.shape

    # scalar Python floats are IEEE doubles: each cost is the unary plus
    # beta added once per disagreeing neighbor, exactly as a float64
    # vector sum would give, without numpy's per-call overhead per pixel
    beta = float(cfg.beta)
    costs = unary.tolist()
    field = labels.tolist()
    classes = range(k)
    for _ in range(cfg.max_iters):
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
    return np.array(field, dtype=np.uint8).reshape(h, w)
