"""One workload process: set-up, ops through ``nehari.cli.run``, checks.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the repository's
``src``; prints one JSON object on its last stdout line.  Modes:

* ``run``      -- set-up, the cold op, then warm ops for ``--seconds``,
  with machine-speed calibration after each op (see :mod:`speed`)
* ``trace``    -- the same ops once untraced, then traced in whole rounds
* ``selftest`` -- one traced op with every check on

``nehari`` is imported before anything that pulls in numpy or scipy, so
the set-up time includes what a fresh ``nehari`` process pays for them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import COLD_SEED, SEED_STRIDE, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
# op seeds of part j of a run start at SEED_STRIDE * --seed + PART_STRIDE * j
PART_STRIDE = 1000
WORK = ROOT / ".bench_build" / "perfbench"


def setup(wl: Workload, out: Path):
    """Fresh-process set-up as a user pays it; returns (seconds, cli module)."""
    t0 = time.perf_counter()
    import nehari
    from nehari import cli
    spec = cli.build_problem(cli.parse_config(wl.config_text(COLD_SEED, str(out)), wl.command))
    nehari.validate_problem(spec).require()
    return time.perf_counter() - t0, cli


class Runner:
    """Runs ops in one directory and checks each one's artifacts."""

    def __init__(self, wl: Workload, cli, out: Path):
        import checks
        self.wl, self.cli, self.out = wl, cli, out
        self.check = checks.CHECKS[wl.command]
        self.calibration = None      # a speed.Calibration to run after each op
        self.ctx: dict = {}
        self.attempted = 0
        self.failed = 0

    def op(self, seed: int) -> float | None:
        """One op from config text to artifacts; its seconds, or None if it failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        text = self.wl.config_text(seed, str(self.out))
        self.attempted += 1
        printed = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                rc = self.cli.run(self.cli.parse_config(text, self.wl.command))
        except Exception:
            rc = f"exception\n{traceback.format_exc()}"
        seconds = time.perf_counter() - t0
        if self.calibration is not None:
            self.calibration.after(seconds)
        if rc != 0:
            return self._fail(seed, [f"exit code {rc}"])
        try:
            fails = self.check(self.wl, self.out, self.ctx)
        except Exception:
            fails = [f"check raised\n{traceback.format_exc()}"]
        if fails:
            return self._fail(seed, fails)
        return seconds

    def _fail(self, seed, messages) -> None:
        self.failed += 1
        print(f"{self.wl.name} seed {seed}: FAILED", *messages, sep="\n  ", file=sys.stderr)
        return None

    def result(self, **fields) -> dict:
        return dict(attempted=self.attempted, failed=self.failed,
                    peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    **fields)


def _eigenbasis_failures(wl: Workload, cli) -> list[str]:
    """Untimed: ``eigenbasis`` eigenvalues against their closed form."""
    import checks
    from nehari import eigenbasis
    spec = cli.build_problem(cli.parse_config(wl.config_text(COLD_SEED, "unused"), wl.command))
    values = [lam for lam, _ in eigenbasis(spec, 2 * (wl.k_max + 10))]
    return checks.eigenvalue_failures(wl.problem, values)


def _run_failures(wl: Workload, cli) -> list[str]:
    return _eigenbasis_failures(wl, cli) if wl.command == "fountain" else []


def mode_run(wl, out, args) -> dict:
    import speed
    setup_s, cli = setup(wl, out)
    runner = Runner(wl, cli, out)
    calibration = runner.calibration = speed.Calibration()
    cold = runner.op(COLD_SEED)
    times = []
    stop = time.monotonic() + args.budget
    for i in itertools.count():
        if sum(times) >= args.seconds or time.monotonic() >= stop:
            break
        seconds = runner.op(SEED_STRIDE * args.seed + PART_STRIDE * args.part + i)
        if seconds is not None:
            times.append(seconds)
    return runner.result(setup_s=setup_s, cold_op_s=cold, op_s=times,
                         speed_factor=calibration.factor(),
                         calibration_reps=len(calibration.reps),
                         run_failures=_run_failures(wl, cli))


def mode_trace(wl, out, args) -> dict:
    import tracing
    setup_s, cli = setup(wl, out)
    runner = Runner(wl, cli, out)
    runner.op(COLD_SEED)
    seeds = [SEED_STRIDE * args.seed + i for i in range(wl.trace_round)]
    plain = [runner.op(s) for s in seeds]

    tracer = tracing.Tracer()
    tracer.install()
    traced, ok, artifact_bytes = 0, [], 0
    stop = time.monotonic() + args.budget
    tracer.enabled = True
    try:
        while not traced or (sum(ok) < args.seconds and time.monotonic() < stop):
            for s in seeds:
                seconds = runner.op(s)
                traced += 1
                if seconds is not None:
                    ok.append(seconds)
                    artifact_bytes += sum(f.stat().st_size for f in out.iterdir())
    finally:
        tracer.enabled = False
        tracer.uninstall()
    layers = {}
    if ok and all(t is not None for t in plain):
        tracer.totals["cli.artifacts.bytes"] = artifact_bytes
        layers = tracing.per_op(tracer.totals, traced)
        layers["trace.op_s"] = statistics.median(ok)
        layers["trace.overhead_s"] = statistics.median(ok) - statistics.median(plain)
    absent = tracer.missing + [name for name, _, _ in tracing.PER_LAYER
                               if name in layers and layers[name] == 0.0]
    return runner.result(setup_s=setup_s, layers=layers, absent=absent,
                         broken=sorted(tracer.broken), traced_ops=traced,
                         run_failures=_run_failures(wl, cli))


def mode_selftest(wl, out, args) -> dict:
    import checks
    import tracing
    setup_s, cli = setup(wl, out)
    runner = Runner(wl, cli, out)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.enabled = True
    runner.op(COLD_SEED)
    tracer.enabled = False
    tracer.uninstall()
    problems = _run_failures(wl, cli)
    if tracer.missing:
        problems.append(f"hooks not installed: {tracer.missing}")
    if runner.failed == 0:
        grids = sorted(out.glob("*.grid"))
        # fountain writes no grid file: check the reader on a hand-made one
        data = grids[0].read_bytes() if grids else \
            f"{checks.GRID_MAGIC}; dim=1; kind=dirichlet; shape=3; lengths=1\n".encode() + bytes(24)
        probe = out / "probe.grid"
        for name, body, valid in (("exact", data, True), ("extra byte", data + b"\0", False),
                                  ("missing byte", data[:-1], False)):
            probe.write_bytes(body)
            try:
                checks.read_grid(probe)
                accepted = True
            except checks.GridFormatError:
                accepted = False
            if accepted != valid:
                problems.append(f"grid reader {'rejected' if valid else 'accepted'} a file "
                                f"with the {name} byte count")
    return runner.result(setup_s=setup_s, run_failures=problems,
                         hooked_calls=int(sum(v for k, v in tracer.totals.items()
                                              if k.endswith(".calls"))))


MODES = {"run": mode_run, "trace": mode_trace, "selftest": mode_selftest}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=sorted(MODES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--budget", type=float, default=120.0,
                        help="wall-clock cap on the timed phase")
    parser.add_argument("--part", type=int, default=0,
                        help="which of the run's processes this is; offsets the op seeds")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    out = WORK / f"{wl.name}-{args.mode}-{args.part}"
    try:
        result = MODES[args.mode](wl, out, args)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
