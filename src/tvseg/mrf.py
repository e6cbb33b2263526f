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
its neighbors' labels only.  Three rules skip visits that could not
change a label, so the labels and the sweep count are those of visiting
every pixel in every sweep:

- **Frozen pixels.**  A pixel with argmax a and d neighbors is frozen
  if u_j > fl(u_a + beta + ... + beta), with d additions, for every
  class j != a.  Rounded addition of beta >= 0 is monotone, so a visit
  can never cost a more than that bound nor any j less than u_j; a
  never loses, the pixel keeps its argmax for good, and it is never
  visited.
- **Dirty flags.**  After a visit the pixel holds the first cheapest
  class or was left alone, so until a neighbor relabels, another visit
  would leave it alone too.  A sweep visits only pixels flagged because
  a neighbor relabelled since their last visit.  A relabel flags its
  unfrozen neighbors: the right and lower ones come later in this
  sweep's raster order, so they go into this sweep's flags; the left
  and upper ones were passed already and go into the next sweep's.
- **The start.**  While every neighbor holds a pixel's argmax a, a visit
  adds beta to every class but a, so if u_a is also least, it keeps a.
  The first sweep flags only the unfrozen pixels where that fails; the
  others wait, as after a visit, for a neighbor to relabel.
"""

from dataclasses import dataclass

import numpy as np

from .errors import check_finite, check_int_fields
from .tv_loss import validate_prob_map

_PROB_FLOOR = 1e-12
_MAX_CLASSES = 255  # labels are uint8, and 255 is data.UNLABELED


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
    if probs.shape[2] > _MAX_CLASSES:
        raise ValueError(f"at most {_MAX_CLASSES} classes fit a label image, "
                         f"got {probs.shape[2]}")
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


def _icm(probs: np.ndarray, cfg: MrfConfig) -> tuple[np.ndarray, int]:
    """The labels of ``icm_smooth`` and the number of sweeps it ran, the
    last one without a change unless ``cfg.max_iters`` cut it short."""
    labels = argmax_labels(probs)
    if cfg.beta == 0:
        return labels, 0
    unary = -np.log(np.maximum(np.asarray(probs, dtype=np.float64), _PROB_FLOOR))
    h, w, k = unary.shape
    beta = float(cfg.beta)

    # the frozen test, in the float64 additions a visit makes
    degree = np.full((h, w), 4)
    degree[0] -= 1
    degree[-1] -= 1
    degree[:, 0] -= 1
    degree[:, -1] -= 1
    own = np.take_along_axis(unary, labels[:, :, None], axis=2)[:, :, 0]
    bound = own
    for d in range(4):
        bound = np.where(degree > d, bound + beta, bound)
    rival = np.full((h, w), np.inf)
    for j in range(k):
        rival = np.minimum(rival, np.where(labels == j, np.inf, unary[:, :, j]))
    frozen = rival > bound

    # The map gets a one-pixel border of class k, which disagrees with no
    # class, so a missing neighbor adds nothing; the border is never live.
    # Settled pixels are those the start rule lets wait.
    padded = np.pad(labels, 1, constant_values=k)
    settled = rival >= own
    for near in (padded[:-2, 1:-1], padded[2:, 1:-1], padded[1:-1, :-2], padded[1:-1, 2:]):
        settled &= (near == labels) | (near == k)

    # Flat raster indices into the bordered map.  The unary costs of the
    # live pixels lie in one flat list, k per pixel from start[p].  Scalar
    # Python floats are IEEE doubles, so each cost is the unary plus beta
    # added once per disagreeing neighbor, exactly as in the frozen test.
    stride = w + 2
    field = bytearray(padded.tobytes())
    live_map = np.pad(~frozen, 1)
    live = bytearray(live_map.tobytes())
    dirty = bytearray(np.pad(~(frozen | settled), 1).tobytes())
    costs = unary[~frozen].ravel().tolist()
    start = ((np.cumsum(live_map) - 1) * k).tolist()
    others = [[j for j in range(k) if j != a] for a in range(k)] + [[]]
    sweeps = 0
    while sweeps < cfg.max_iters:
        sweeps += 1
        later = bytearray(len(live))
        changed = False
        p = dirty.find(1)
        while p >= 0:
            cost = costs[start[p]:start[p] + k]
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
                # byte sets a live neighbor's flag and leaves a frozen one's
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
