"""ICM smoothing under the Potts energy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tvseg
from oracles import icm_labels, icm_loop
from tvseg.mrf import MrfConfig, _icm, argmax_labels, icm_smooth, potts_energy


def _random_map(rng, h=16, w=16, k=2):
    p = rng.uniform(0.1, 1.0, size=(h, w, k))
    return p / p.sum(axis=2, keepdims=True)


def test_config_validation():
    with pytest.raises(ValueError):
        MrfConfig(beta=-1.0)
    with pytest.raises(ValueError):
        MrfConfig(beta=np.inf)
    with pytest.raises(ValueError):
        MrfConfig(max_iters=0)
    for iters in (1.5, True):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            MrfConfig(1.0, iters)


def test_argmax_one_hot():
    p = np.zeros((2, 2, 3))
    p[0, 0, 1] = p[0, 1, 2] = p[1, 0, 0] = p[1, 1, 1] = 1.0
    assert np.array_equal(argmax_labels(p), np.array([[1, 2], [0, 1]]))


def test_argmax_tie_picks_smallest():
    p = np.full((1, 1, 2), 0.5)
    assert argmax_labels(p)[0, 0] == 0


def test_argmax_takes_at_most_255_classes():
    # labels are uint8 and 255 marks unlabeled pixels, so class 254 is the last
    p = np.full((1, 2, 255), 1 / 255)
    p[0, 1] = 0.5 / 254
    p[0, 1, 254] = 0.5
    assert argmax_labels(p)[0, 1] == 254
    with pytest.raises(ValueError, match="at most 255 classes"):
        argmax_labels(np.full((1, 1, 256), 1 / 256))


def test_argmax_matches_bruteforce():
    rng = np.random.default_rng(2)
    p = _random_map(rng, 8, 8, 4)
    got = argmax_labels(p)
    for r in range(8):
        for c in range(8):
            assert p[r, c, got[r, c]] == p[r, c].max()


def test_beta_zero_equals_argmax():
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = _random_map(rng)
        assert np.array_equal(icm_smooth(p, MrfConfig(beta=0.0)),
                              argmax_labels(p))


def test_isolated_pixel_flips():
    # confident 0.6/0.4 region of class 1 with one dissenting pixel;
    # beta=2 saves 4*2 in pairwise cost against a log(0.6/0.4) unary hit
    p = np.full((8, 8, 2), (0.4, 0.6))
    p[4, 4] = (0.6, 0.4)
    labels = icm_smooth(p, MrfConfig(beta=2.0))
    assert labels[4, 4] == 1
    assert np.all(labels == 1)


def test_tiny_beta_keeps_isolated_pixel():
    p = np.full((8, 8, 2), (0.4, 0.6))
    p[4, 4] = (0.6, 0.4)
    labels = icm_smooth(p, MrfConfig(beta=0.05))
    assert labels[4, 4] == 0


def test_potts_energy_hand_value():
    labels = np.array([[0, 1], [0, 0]])
    unary = np.zeros((2, 2, 2))
    unary[0, 1, 1] = 0.25
    # one vertical disagreement (0,1)-(1,1) and one horizontal (0,0)-(0,1)
    assert potts_energy(labels, unary, beta=1.5) == 0.25 + 2 * 1.5


def test_energy_nonincreasing_in_sweeps():
    rng = np.random.default_rng(11)
    beta = 1.0
    for _ in range(20):
        p = _random_map(rng)
        unary = -np.log(np.maximum(p, 1e-12))
        start = potts_energy(argmax_labels(p), unary, beta)
        prev = start
        for iters in (1, 2, 3):
            lab = icm_smooth(p, MrfConfig(beta=beta, max_iters=iters))
            e = potts_energy(lab, unary, beta)
            assert e <= prev + 1e-9
            prev = e
        assert prev <= start + 1e-9


def test_icm_deterministic():
    rng = np.random.default_rng(3)
    p = _random_map(rng)
    a = icm_smooth(p, MrfConfig(beta=2.0))
    b = icm_smooth(p, MrfConfig(beta=2.0))
    assert np.array_equal(a, b)


def test_icm_output_dtype_and_range():
    rng = np.random.default_rng(7)
    p = _random_map(rng, 6, 5, 3)
    lab = icm_smooth(p, MrfConfig(beta=1.0))
    assert lab.dtype == np.uint8
    assert lab.shape == (6, 5)
    assert lab.max() < 3


def test_icm_matches_array_oracle():
    # exact labels, against both oracles, and sweep counts on random,
    # tie-heavy and peaked maps of every shape, including single rows and
    # columns, with the cap reached and not
    rng = np.random.default_rng(13)
    capped = uncapped = 0
    for trial in range(60):
        h, w, k = (int(v) for v in rng.integers((1, 1, 2), (12, 12, 5)))
        if trial % 3 == 0:
            p = _random_map(rng, h, w, k)
        elif trial % 3 == 1:
            # few distinct levels, so equal costs are common
            p = rng.integers(1, 3, (h, w, k)).astype(np.float64)
            p /= p.sum(axis=2, keepdims=True)
        else:
            p = rng.dirichlet(np.full(k, 0.3), (h, w))
        for beta in (0.05, 0.5, 1, 4.0):
            iters = int(rng.integers(1, 11))
            got, sweeps = _icm(p, MrfConfig(beta=beta, max_iters=iters))
            want, want_sweeps = icm_loop(p, beta, iters)
            assert np.array_equal(got, want), (trial, beta)
            assert np.array_equal(got, icm_labels(p, beta, iters)), (trial, beta)
            assert sweeps == want_sweeps, (trial, beta)
            assert np.array_equal(icm_smooth(p, MrfConfig(beta=beta, max_iters=iters)), got)
            capped += sweeps == iters
            uncapped += sweeps < iters
    assert capped and uncapped


def _added(cost, beta, n):
    """``cost`` plus beta added ``n`` times, one rounding each, as a visit adds."""
    for _ in range(n):
        cost = cost + beta
    return cost


def _prob_for_cost(target, beta, n):
    """The probability whose negative log, taken as ``icm_smooth`` takes it,
    plus beta added ``n`` times comes closest to ``target``; within a few
    ulps of the first guess one usually hits it exactly."""
    guess = np.exp(-(target - n * beta))
    candidates = guess + np.arange(-8, 9) * np.spacing(guess)
    return candidates[np.abs(_added(-np.log(candidates), beta, n) - target).argmin()]


# where a pixel's argmax a and a rival class j sit under the starting
# labels: j's cost (its unary plus one beta per neighbor whose label is
# not j) one ulp below, at or one ulp above a's cost, an exact unary tie,
# or anywhere
_KINDS = ("below", "at", "above", "tie", "free")


def _margin_map(rng, h, w, k, beta, kinds):
    p = rng.dirichlet(np.ones(k), (h, w))
    kinds = dict(zip(np.ndindex(h, w), kinds))
    # first pass: fix the argmax field, moving a margin pixel's largest
    # probability to a class a of its own
    for (r, c), kind in kinds.items():
        if kind != "free":
            a, top = rng.integers(k), p[r, c].argmax()
            p[r, c, [a, top]] = p[r, c, [top, a]]
    labels = p.argmax(axis=2)
    # second pass: a rival j whose cost from those labels can meet a's
    # while its unary stays above a's (or ties it from a larger index),
    # so the argmax field stays as it is
    for (r, c), kind in kinds.items():
        if kind == "free":
            continue
        a = labels[r, c]
        near = [labels[r + dr, c + dc] for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
                if 0 <= r + dr < h and 0 <= c + dc < w]
        n = [sum(x != j for x in near) for j in range(k)]
        rivals = [j for j in range(k) if (j > a if kind == "tie" else n[j] < n[a])]
        if not rivals:
            continue
        j = rng.choice(rivals)
        rest = rng.uniform(0.0, 0.2) if k > 2 else 0.0
        q = np.full(k, rest / max(k - 2, 1))
        if kind == "tie":
            q[a] = q[j] = (1 - rest) / 2
        else:
            q[j] = (1 - rest) / (1 + np.exp((n[a] - n[j]) * beta))
            q[a] = 1 - rest - q[j]
            target = _added(-np.log(q[a:a + 1])[0], beta, n[a])  # an array's log
            if kind != "at":
                target = np.nextafter(target, np.inf if kind == "above" else -np.inf)
            q[j] = _prob_for_cost(target, beta, n[j])
        p[r, c] = q
    return p


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 19), st.integers(1, 19), st.integers(2, 4),
       st.one_of(st.just(0.0), st.floats(0.05, 4.0)), st.integers(1, 10),
       st.integers(0, 2**32 - 1))
def test_icm_at_the_start_margin_matches_both_oracles(data, h, w, k, beta, iters, seed):
    # a pixel whose rival class costs one ulp less than its argmax under
    # the starting labels must be visited first, and one that costs the
    # same or one ulp more need not be; a start set that misses the one,
    # or a missed relabel of a neighbor later, changes labels or sweeps
    kinds = data.draw(st.lists(st.sampled_from(_KINDS), min_size=h * w,
                               max_size=h * w))
    p = _margin_map(np.random.default_rng(seed), h, w, k, beta, kinds)
    got, sweeps = _icm(p, MrfConfig(beta=beta, max_iters=iters))
    want, want_sweeps = icm_loop(p, beta, iters)
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == icm_labels(p, beta, iters).tobytes()
    assert sweeps == want_sweeps


@pytest.mark.parametrize("beta", [1e308, 1.7e308])
def test_icm_at_overflowing_beta_matches_the_loop(beta):
    # two or more betas overflow to inf, silently in a visit's Python
    # floats and without a warning in the start set, and inf costs compare
    # alike in both
    p = _random_map(np.random.default_rng(8), 5, 6, 3)
    got, sweeps = _icm(p, MrfConfig(beta=beta, max_iters=3))
    want, want_sweeps = icm_loop(p, beta, 3)
    assert got.tobytes() == want.tobytes() and sweeps == want_sweeps


_LARGE_ICM = """
import json, resource
import numpy as np
from tvseg.mrf import MrfConfig, icm_smooth
probs = np.random.default_rng(1).dirichlet(np.ones(2), size=(2048, 2048))
labels = icm_smooth(probs, MrfConfig(1.0, 1))
print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "shape": labels.shape, "changed": int((labels != probs.argmax(2)).sum())}))
"""


def test_icm_large_map_memory_bound():
    # one sweep over a 2048x2048 noisy two-class map in a fresh process
    # peaks under 400 MB, the bound a predict of that size keeps
    src = str(Path(tvseg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", _LARGE_ICM], env=env, check=True,
                         capture_output=True, text=True, timeout=600)
    res = json.loads(run.stdout)
    assert res["maxrss_kb"] < 400 * 1024
    assert res["shape"] == [2048, 2048] and res["changed"] > 0
