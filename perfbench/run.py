"""tvseg benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload protocol --seed 0 --seconds 20 --trace 0

Runs against the tvseg sources in ``src/`` of the checkout this file
sits in.  Each run starts ``worker.py`` SETUP_REPS times in fresh
processes: every start does the workload's whole set-up (imports, input
synthesis, files, checkpoint, warm-up) and ``setup_s`` is the median of
their launch-to-ready times.  The last start then repeats the
workload's unit for ``--seconds`` in a closed loop (one caller, next
unit after the previous one ends) and checks every unit's outputs.

With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer metrics, from units
run under span tracing that alternate with stage-timed ones.  Lines
before the final JSON line give sample counts, tail percentiles, stage
throughputs, failures and the environment.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("protocol", "train_semi", "cli_large")
SETUP_REPS = 5
TIME_LIMIT_S = 170
# One BLAS thread per workload process: the batches are small (8 to
# 2048 patches), and on a shared two-core box a second thread mostly
# adds run-to-run noise.  Set only in the environment of the workers.
BLAS_THREADS = 1


def environment(worker_env: dict, threads: int) -> dict:
    """What a result depends on besides the code: cores, BLAS, versions, sha."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return dict(worker_env, nproc=os.cpu_count(), blas_threads=threads, git_sha=sha)


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_workers(args, work: Path, threads: int, deadline: float) -> list[dict]:
    env = worker_env(threads)
    results = []
    for i in range(SETUP_REPS):
        out = work / f"result{i}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work), "--out", str(out)]
        if i < SETUP_REPS - 1:
            cmd.append("--setup-only")
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, timeout=deadline - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        results.append(json.loads(out.read_text()))
    return results


def report(args, results: list[dict], env: dict) -> dict:
    """Print the human-readable summary and return the final JSON object."""
    final = results[-1]
    setup = [r["setup_s"] for r in results]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} closed loop, 1 caller")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"setup_s median={statistics.median(setup):.4f} n={len(setup)}")
    print(f"wall_s {json.dumps(final['wall_s'])}  (stage-timed units)")
    for key, stage in final["stages"].items():
        print(f"{key} {stage['rate']:.6g}  per call {json.dumps(stage['per_call_s'])}")
    print(f"peak_rss_mb {final['peak_rss_mb']:.1f}")
    print(f"fail_frac {final['failed']}/{final['attempted']} = "
          f"{final['failed'] / final['attempted']:.4g}")
    for what in final["failures"]:
        print(f"FAILED {what}")

    if args.trace:
        metrics = dict(final["layers"])
        metrics["data.synth_s"] = statistics.median(r["synth_s"] for r in results)
        units = units_of(per_layer=True)
    else:
        metrics = {"setup_s": statistics.median(setup),
                   "wall_s": final["wall_s"]["median"],
                   "peak_rss_mb": final["peak_rss_mb"]}
        units = units_of(per_layer=False)
    return {"correct": final["failed"] == 0, "attempted": final["attempted"],
            "failed": final["failed"],
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def units_of(per_layer: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if per_layer else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "tvseg" / "__init__.py").is_file():
        print(f"no tvseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        results = run_workers(args, work, threads, deadline)
        final = report(args, results, environment(results[-1]["env"], threads))
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
