"""Markov random field smoothing of probability maps by iterated
conditional modes.

The label field minimizes a Potts energy: per-pixel unary cost is the
negative log probability of the assigned class, and each 4-connected
pair of unequal labels pays beta.  Starting from the per-pixel argmax,
raster-order sweeps greedily relabel single pixels while any strict
improvement exists.  Every accepted move lowers the energy, so the
sweep count is finite even without the iteration cap.

A visit of a pixel costs each class its unary plus beta once per
disagreeing neighbor, added in the order above, below, left, right, and
moves the pixel to the first cheapest class only if that strictly beats
its current cost.  A visit decides from the pixel's unary, its label and
its neighbors' labels only.  Two rules skip visits that could not change
a label, so the labels and the sweep count are those of visiting every
pixel in every sweep:

- **Dirty flags.**  After a visit the pixel holds the first cheapest
  class or was left alone, so until a neighbor relabels, another visit
  would leave it alone too.  A sweep visits only pixels flagged because
  a neighbor relabelled since their last visit.  A relabel flags its
  neighbors: the right and lower ones come later in this sweep's raster
  order, so they go into this sweep's flags; the left and upper ones
  were passed already and go into the next sweep's.
- **The start.**  The first sweep flags only the pixels that a visit
  with the starting labels around them would relabel, found for all
  pixels at once by the visit's own additions.  The others are left
  alone by that visit, so like a visited pixel they wait for a neighbor
  to relabel.
"""

from dataclasses import dataclass

import numpy as np

from .data import check_max_classes
from .errors import check_finite, check_int_fields
from .tv_loss import PROB_FLOOR, validate_prob_map


@dataclass(frozen=True)
class MrfConfig:
    beta: float = 1.0
    max_iters: int = 10

    def __post_init__(self):
        check_int_fields(MrfConfig, vars(self))
        check_finite("beta", self.beta)
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


def argmax_labels(probs: np.ndarray) -> np.ndarray:
    """Most probable class per pixel; ties pick the smallest class index."""
    probs = validate_prob_map(probs)
    check_max_classes(probs.shape[2])
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
    return _icm(probs, cfg)[0]


def _start(unary: np.ndarray, labels: np.ndarray, beta: float) -> np.ndarray:
    """The pixels that a visit with the starting ``labels`` around them
    would relabel.  Each class's cost is its unary plus beta added once per
    disagreeing neighbor, one addition at a time in the visit's order."""
    cost = np.moveaxis(unary, 2, 0).copy()
    # costs that overflow to inf compare as a visit's Python floats do
    with np.errstate(over="ignore"):
        for j in range(len(cost)):
            cost[j][1:] += beta * (labels[:-1] != j)
            cost[j][:-1] += beta * (labels[1:] != j)
            cost[j][:, 1:] += beta * (labels[:, :-1] != j)
            cost[j][:, :-1] += beta * (labels[:, 1:] != j)
    return cost.min(axis=0) < np.take_along_axis(cost, labels[None], axis=0)[0]


def _icm(probs: np.ndarray, cfg: MrfConfig) -> tuple[np.ndarray, int]:
    """The labels of ``icm_smooth`` and the number of sweeps it ran, the
    last one without a change unless ``cfg.max_iters`` cut it short."""
    labels = argmax_labels(probs)
    if cfg.beta == 0:
        return labels, 0
    beta = float(cfg.beta)

    # All state lives in the raster index space of the map with a
    # one-pixel border.  The border's label is class k, which disagrees
    # with no class, so a missing neighbor adds nothing; the border is
    # never live, so its costs are never read.  Pixel p's k unary costs
    # are costs[p * k:p * k + k].  Scalar Python floats are IEEE doubles,
    # so a visit's cost is the unary plus beta added once per disagreeing
    # neighbor, exactly as in the start set.
    bordered = np.pad(np.asarray(probs, dtype=np.float64), ((1, 1), (1, 1), (0, 0)))
    bordered = -np.log(np.maximum(bordered, PROB_FLOOR))
    unary = bordered[1:-1, 1:-1]
    h, w, k = unary.shape

    stride = w + 2
    field = bytearray(np.pad(labels, 1, constant_values=k).tobytes())
    live = bytearray(np.pad(np.ones((h, w), bool), 1).tobytes())
    dirty = bytearray(np.pad(_start(unary, labels, beta), 1).tobytes())
    costs = memoryview(bordered.reshape(-1))
    others = [[j for j in range(k) if j != a] for a in range(k)] + [[]]
    sweeps = 0
    while sweeps < cfg.max_iters:
        sweeps += 1
        later = bytearray(len(live))
        changed = False
        p = dirty.find(1)
        while p >= 0:
            cost = costs[p * k:p * k + k].tolist()
            for j in others[field[p - stride]]:
                cost[j] += beta
            for j in others[field[p + stride]]:
                cost[j] += beta
            for j in others[field[p - 1]]:
                cost[j] += beta
            for j in others[field[p + 1]]:
                cost[j] += beta
            least = min(cost)
            # relabel only on strict improvement so ties cannot oscillate
            if least < cost[field[p]]:
                field[p] = cost.index(least)  # first min wins
                changed = True
                # flags only ever go to live pixels, so copying the live
                # byte sets an interior neighbor's flag and leaves the border's
                later[p - stride] = live[p - stride]
                dirty[p + stride] = live[p + stride]
                later[p - 1] = live[p - 1]
                dirty[p + 1] = live[p + 1]
            p = dirty.find(1, p + 1)
        if not changed:
            break
        dirty = later
    out = np.frombuffer(field, dtype=np.uint8).reshape(h + 2, stride)
    return out[1:-1, 1:-1].copy(), sweeps
