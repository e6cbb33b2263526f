"""Smoke tests for the benchmark itself, kept out of the tier-1 suite:

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _patchable_state():
    """Identity of every attribute the tracer may replace."""
    import tvseg.network
    import tvseg.tv_loss
    state = {}
    for name, mod in sys.modules.items():
        if name == "tvseg" or name.startswith("tvseg."):
            state.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (tvseg.network.Network, tvseg.tv_loss.TotalVariation):
        state.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return state


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_workload_runs_tiny_and_trace_is_passive(name, tmp_path):
    wl = worker.WORKLOADS[name](3, worker.TINY, tmp_path)
    before = _patchable_state()
    run = worker.measure(wl, seconds=0, trace=True)
    after = _patchable_state()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items()), "tracer left a wrapper behind"

    # one stage-timed and one traced unit, both checked against the first digest
    assert len(run.walls[False]) == len(run.walls[True]) == 1
    assert run.failed == 0, run.failures
    assert run.attempted > 0
    res = worker.result(run, trace=True)
    expected = set(spans.PER_LAYER) - {"data.synth_s"}
    assert set(res["layers"]) == expected
    assert all(NAME.fullmatch(k) for k in res["layers"])


def test_tracer_sees_each_layer_of_the_protocol(tmp_path):
    wl = worker.Protocol(0, worker.TINY, tmp_path)
    layers = worker.result(worker.measure(wl, seconds=0, trace=True), trace=True)["layers"]
    for key in ("network.fwd_sup_s", "network.fwd_unsup_s", "network.bwd_unsup_s",
                "network.fwd_predict_s", "tv_loss.s", "mrf.icm_s", "evaluate.self_s"):
        assert layers[key] > 0, key
    assert layers["trainer.iterations"] == 4 * worker.TINY.protocol_iters
    assert layers["pnm.read_s"] == 0


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(worker.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "protocol",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
