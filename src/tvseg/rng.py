"""Deterministic seed derivation.

Every random draw in the package flows from one master seed through
``mix_seed``, so reruns with the same seed reproduce results exactly.
The mixer is a fixed splitmix64 chain, independent of Python's
process-randomized ``hash()``.
"""

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF

# Role codes keep derived streams for different purposes disjoint.
ROLE_SPARSE = 1
ROLE_TRAIN = 2
ROLE_SUP_DRAW = 3
ROLE_UNSUP_DRAW = 4
ROLE_INIT = 5


def mix_seed(*parts: int) -> int:
    """Fold integer parts into a 64-bit seed with splitmix64 steps."""
    x = 0x243F6A8885A308D3
    for p in parts:
        x ^= int(p) & _MASK
        x = (x + 0x9E3779B97F4A7C15) & _MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        x = z ^ (z >> 31)
    return x


def make_rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(mix_seed(*parts))
