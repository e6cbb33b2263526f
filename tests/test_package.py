"""The package surface: what ``import tvseg`` promises, and the entry
points the benchmark in ``perfbench/`` hooks."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import tvseg
import tvseg.network


def test_all_exports_resolve_once():
    missing = [name for name in tvseg.__all__ if not hasattr(tvseg, name)]
    assert missing == []
    assert len(set(tvseg.__all__)) == len(tvseg.__all__)


def test_cli_import_leaves_the_pool_and_mmap_out():
    # run_experiment imports its pool when it runs, and the TV helper its
    # mmap; at module level they would add to the start-up of every command
    src = str(Path(tvseg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, tvseg.cli; print(sorted("
            "{'multiprocessing', 'concurrent.futures', 'mmap'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         check=True, capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def _benchmark_spans():
    """perfbench/spans.py as a module namespace, compiled from its source
    so that nothing is imported from or written into perfbench/."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    namespace = {"__name__": "perfbench_spans", "__file__": str(path)}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


def test_benchmark_hook_targets_exist():
    # the benchmark's tracer wraps each target through the defining
    # class's __dict__ (so an inherited method does not count) or a module
    # attribute; a renamed or deleted target breaks every traced run
    spans = _benchmark_spans()
    unresolved = []
    for mod_name, cls_name, attr, _ in spans["ALL_TARGETS"]:
        owner = importlib.import_module(mod_name)
        if cls_name is not None:
            owner = vars(getattr(owner, cls_name, object))
            target = owner.get(attr)
        else:
            target = getattr(owner, attr, None)
        if not callable(target):
            unresolved.append((mod_name, cls_name, attr))
    assert unresolved == []
    # the benchmark's cli_large check classifies patches with batch_forward;
    # the dense predict and TV passes are what its tracer is to wrap for
    # the predict and unsup roles
    names = ("batch_forward", "forward_trunk", "forward_head", "forward_neighbourhoods",
             "backward_neighbourhoods")
    assert [n for n in names if not callable(vars(tvseg.network.Network).get(n))] == []
