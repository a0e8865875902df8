"""The benchmark's workloads: which command runs on which generated config.

Every op writes a config in the documented ``key = value`` format and hands
it to the program; the program sees nothing else of the benchmark.  The
problem numbers live here once and serve both the config text and the
correctness checks, which recompute everything from these numbers rather
than from the program's own objects.
"""

from __future__ import annotations

from dataclasses import dataclass

# op seeds of one run are SEED_STRIDE * --seed + 0, 1, 2, ...: consecutive
# within a run and disjoint between runs with different --seed values
SEED_STRIDE = 10_000

# the cold op runs the built-in default (seed 0), which is what a bare
# ``nehari <command>`` call pays; it is the same work in every run
COLD_SEED = 0


@dataclass(frozen=True)
class Problem:
    kind: str                        # dirichlet_box or periodic_torus
    lengths: tuple[float, ...]       # side lengths, or integer periods on a torus
    resolution: tuple[int, ...]
    q: float = 3.0
    delta: float = 0.3
    terms: tuple[tuple[float, float], ...] = ((1.0, 4.0),)   # f1 = f2 = sum a |s|^(p-2) s
    V: float = 1.0                   # V1 = V2, constant
    lam: float = 0.3                 # coupling, constant

    @property
    def periodic(self) -> bool:
        return self.kind == "periodic_torus"

    @property
    def spacing(self) -> tuple[float, ...]:
        if self.periodic:
            return tuple(p / n for p, n in zip(self.lengths, self.resolution))
        return tuple(l / (n + 1) for l, n in zip(self.lengths, self.resolution))

    @property
    def points_per_cell(self) -> tuple[int, ...]:
        return tuple(n // int(p) for n, p in zip(self.resolution, self.lengths))

    @property
    def effective_delta(self) -> float:
        return max(self.lam / self.V, self.delta)

    @property
    def p_max(self) -> float:
        return max(p for _, p in self.terms)


BOX = Problem("dirichlet_box", (1.0,), (256,))
TORUS = Problem("periodic_torus", (16.0, 16.0), (256, 256))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    problem: Problem
    starts: int
    # ops per round of the traced run; the round repeats whole, so the
    # per-op counts do not depend on how many rounds fit in the run
    trace_round: int
    why: str
    grad_tol: float = 1e-8
    target_count: int = 3
    k_max: int = 30

    def config_text(self, seed: int, out_dir: str) -> str:
        p = self.problem
        terms = ", ".join(f"{a!r}:{e!r}" for a, e in p.terms)
        return "\n".join([
            "[problem]",
            f"kind = {p.kind}",
            "lengths = " + ",".join(repr(l) for l in p.lengths),
            "resolution = " + ",".join(str(n) for n in p.resolution),
            f"q = {p.q!r}",
            f"delta = {p.delta!r}",
            f"f1 = {terms}",
            f"f2 = {terms}",
            f'v1 = "{p.V!r}"',
            f'v2 = "{p.V!r}"',
            f'lambda = "{p.lam!r}"',
            "",
            "[solve]",
            "max_iters = 500",
            f"grad_tol = {self.grad_tol!r}",
            "armijo_c1 = 0.0001",
            "armijo_backtrack = 0.5",
            f"starts = {self.starts}",
            f"seed = {seed}",
            "recenter_every = 0",
            f"target_count = {self.target_count}",
            "collapse_budget = 6",
            f"k_max = {self.k_max}",
            "",
            "[output]",
            f"out_dir = {out_dir}",
            "label = run",
            "",
        ])


WORKLOADS = {w.name: w for w in (
    Workload("box1d-ground", "ground", BOX, starts=5, trace_round=8,
             why="ground on the 1D box: small arrays, many kernel calls per "
                 "iterate, so Python overhead and State churn dominate"),
    Workload("torus2d-decay", "decay", TORUS, starts=3, trace_round=2,
             why="decay on the 256^2 torus: array-bound ray moments, PCG/FFT, "
                 "stencil, sorted sums, recentering and per-node CSV export"),
    Workload("box1d-multiplicity", "multiplicity", BOX, starts=5, trace_round=2,
             why="multiplicity on the 1D box: deflation, orbit realizer, "
                 "symmetry-filtered descents and polishing"),
    Workload("box1d-fountain", "fountain", BOX, starts=5, trace_round=2,
             why="fountain k=30 on the 1D box: eigenbasis and sphere ascent, "
                 "bypassing the descent entirely"),
)}
