"""End-to-end and per-layer benchmark of the ``nehari`` command workloads.

Run from the repository root:

    python3 perfbench/run.py --workload box1d-ground --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --self-test

Each workload runs in processes of its own (``worker.py``) that call
``nehari.cli.run`` in-process on generated configs, with ``PYTHONPATH``
set to ``src`` and BLAS/OpenMP threads capped at the number of usable
cores.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402  (stdlib-only modules of the benchmark)
from workloads import SEED_STRIDE, WORKLOADS  # noqa: E402

END_TO_END = [
    ("op_s", "s"),
    ("cold_op_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# fresh processes per run; each pays set-up and a cold op, then takes its
# share of the warm ops
PARTS = 2
TIME_LIMIT = 170.0           # the whole command stays under 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    return env


def worker(workload: str, mode: str, deadline: float, part: int = 0, seed: int = 0,
           seconds: float = 1.0) -> dict:
    """Run one worker process to its end and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 5.0:
        raise BenchError("time limit reached before all workers ran")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--mode", mode,
           "--seed", str(seed), "--seconds", repr(seconds), "--part", str(part),
           "--budget", repr(max(1.0, remaining - 40.0))]
    # subprocess.run kills the worker and waits for it when the timeout expires
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          text=True, timeout=remaining)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def untraced(workload: str, seed: int, seconds: float, deadline: float):
    parts = [worker(workload, "run", deadline, j, seed, seconds / PARTS) for j in range(PARTS)]
    if any(p["cold_op_s"] is None or not p["op_s"] for p in parts):
        raise BenchError(f"{workload}: a process completed no op to time")
    warm = [t * p["speed_factor"] for p in parts for t in p["op_s"]]
    metrics = {
        "op_s": statistics.median(warm),
        "cold_op_s": statistics.median(p["cold_op_s"] * p["speed_factor"] for p in parts),
        "setup_s": statistics.median(p["setup_s"] * p["speed_factor"] for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }
    raw = [t for p in parts for t in p["op_s"]]
    print(f"{workload}: {len(warm)} warm ops in {PARTS} processes, seeds from "
          f"{seed * SEED_STRIDE}; speed factors "
          + ", ".join(f"{p['speed_factor']:.3f} ({p['calibration_reps']} reps)" for p in parts))
    print(f"  unscaled: op_s {statistics.median(raw):.4g} s, "
          f"ops_per_s {len(raw) / sum(raw):.4g} 1/s (scaled {len(warm) / sum(warm):.4g}), "
          f"cold_op_s {statistics.median(p['cold_op_s'] for p in parts):.4g} s, "
          f"setup_s {statistics.median(p['setup_s'] for p in parts):.4g} s")
    res = {key: sum(p[key] for p in parts) for key in ("attempted", "failed")}
    res["run_failures"] = [f for p in parts for f in p["run_failures"]]
    return res, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def traced(workload: str, seed: int, seconds: float, deadline: float):
    res = worker(workload, "trace", deadline, 0, seed, seconds)
    layers = res["layers"]
    if not layers:
        raise BenchError(f"{workload}: the traced run completed no op")
    print(f"{workload}: {res['traced_ops']} traced ops")
    if res["absent"]:
        print("absent (not installed or never hit): " + ", ".join(res["absent"]))
    if res["broken"]:
        print("counters unreadable: " + ", ".join(res["broken"]))
    return res, {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}


def self_test(deadline: float) -> int:
    """One checked, traced op per workload, plus the grid reader's rejections."""
    bench = ROOT / "BENCHMARK.json"
    failures = 0
    if bench.exists():
        spec = json.loads(bench.read_text())
        listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        if listed != PER_LAYER or e2e != END_TO_END or \
                sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
            print("FAIL BENCHMARK.json does not list the metrics and workloads of perfbench")
            failures += 1
    for name in WORKLOADS:
        res = worker(name, "selftest", deadline)
        ok = res["failed"] == 0 and not res["run_failures"]
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {res['attempted']} op, "
              f"{res['hooked_calls']} hooked calls", *res["run_failures"], sep="\n  ")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="nehari end-to-end and per-layer benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=14)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="one checked op per workload, then exit")
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT
    if not (SRC / "nehari" / "__init__.py").is_file():
        print(f"error: no nehari sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(deadline)
    if args.workload is None or args.seed < 0 or args.seconds < 1:
        parser.error("--workload, a seed >= 0 and --seconds >= 1 are required")

    try:
        run = traced if args.trace else untraced
        res, metrics = run(args.workload, args.seed, args.seconds, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in res["run_failures"]:
        print(f"run check failed: {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:<44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not res["run_failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
