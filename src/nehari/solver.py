"""Projected descent on the Nehari manifold and periodic post-processing.

The minimizer walks the manifold directly: each accepted step moves along
the negative preconditioned gradient, with its backtracking started at a
spectral (Barzilai-Borwein) step, and retracts back by the fibering
projection, which is exactly the unique ray maximizer, so every iterate
is feasible.  Stopping tests the full gradient (manifold criticality of
the energy implies free criticality, so a small full gradient is the
honest certificate).  Several starts descend together as the rows of one
pair array ``(rows, 2, *shape)``, each row on its own steps; states are
built only for what a search returns.

On tori the ground-state search is a nested iteration: the starts descend
first on grids halved per axis, each level's rows are Fourier-interpolated
(``_prolong``) onto the next, and one descent on the problem's own grid
finishes them.  Coarse nodes are fine nodes, and halving stops at odd or
minimal nodes per cell or where ``_prolong`` of a potential's values at
every other node does not give the potential back.

Periodic helpers: recentering by integer translations (which leave the
energy invariant), least-squares exponential decay fitting, and the
mutually inverse maps between the unit sphere and the manifold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that load
# in the package import instead of the first solve
from numpy.random import default_rng

from .grid import DomainSpec, GridFunction, _format_record, _pair_inner, local_mass_sup, shift
from .model import ProblemSpec
from .energy import (
    State,
    _RayData,
    _precondition,
    _ray_data,
    fibering_project,
    grad_l2,
    nehari_xi,
    norm_E,
)

__all__ = [
    "SolveConfig",
    "SolveReport",
    "DecayFit",
    "SolverStallError",
    "initial_states",
    "minimize_on_nehari",
    "find_ground_state",
    "recenter",
    "decay_fit",
    "m_map",
    "m_inverse",
]

_MAX_BACKTRACKS = 60
_ARMIJO_C1 = 1e-4               # sufficient-decrease fraction of the slope
_ARMIJO_BACKTRACK = 0.5         # step factor after a rejected trial
_DECAY_WINDOW = (1e-12, 1e-3)   # fitted amplitudes, relative to the peak amplitude


class SolverStallError(RuntimeError):
    """No start produced a converged manifold minimizer."""


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 500
    grad_tol: float = 1e-8
    starts: int = 5
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.grad_tol < np.inf):
            raise ValueError("grad_tol must be positive and finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.starts < 1:
            raise ValueError("starts must be at least 1")


@dataclass(frozen=True)
class SolveReport:
    energy: float
    grad_residual: float
    xi_residual: float
    iterations: int
    start_index: int
    norm: float
    rho_estimate: float
    status: str

    def format_text(self) -> str:
        names = ("status", "energy", "grad_residual", "xi_residual", "iterations",
                 "start_index", "norm", "rho_estimate")
        return _format_record((name, getattr(self, name)) for name in names)


@dataclass(frozen=True)
class DecayFit:
    C: float
    alpha: float
    r_squared: float
    window: tuple[float, float]   # absolute amplitude bounds used
    n_samples: int
    # the fitted samples: distance to the peak node and amplitude |u| + |v|
    distances: np.ndarray | None = field(default=None, repr=False, compare=False)
    amplitudes: np.ndarray | None = field(default=None, repr=False, compare=False)

    def format_text(self) -> str:
        names = ("C", "alpha", "r_squared", "window", "n_samples")
        return _format_record((name, getattr(self, name)) for name in names)


@dataclass
class _Points:
    """Evaluated manifold points, one per row of the pair array ``S``.

    ``energy`` is ``J = phi(t*)`` from the projection, ``value`` the
    objective's value, ``extra`` the objective's own per-row data (the
    deflation realizers) and ``scale`` the factor ``t*`` that projected each
    row, all indexed by row like ``S`` and ``moments``.
    """

    S: np.ndarray
    moments: _RayData
    energy: np.ndarray
    value: np.ndarray
    extra: dict
    scale: np.ndarray

    def take(self, rows) -> "_Points":
        return _Points(self.S[rows], self.moments.take(rows), self.energy[rows],
                       self.value[rows], {k: a[rows] for k, a in self.extra.items()},
                       self.scale[rows])

    def put(self, rows, new: "_Points") -> None:
        """Overwrite ``rows`` with the points of ``new``, in order."""
        self.S[rows] = new.S
        self.moments.m[rows] = new.moments.m
        self.moments = replace(self.moments, m=self.moments.m)   # recomputes the columns
        self.energy[rows] = new.energy
        self.value[rows] = new.value
        for k, a in self.extra.items():
            a[rows] = new.extra[k]
        self.scale[rows] = new.scale


class _EnergyObjective:
    """Plain energy; ray-critical on the manifold, so its slope has no radial term."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec

    def value(self, S: np.ndarray, energy: np.ndarray) -> tuple[np.ndarray, dict]:
        return energy, {}

    def grad(self, pts: _Points) -> np.ndarray:
        return grad_l2(self.spec, pts.S)

    def slope(self, pts: _Points, G: np.ndarray, D: np.ndarray) -> np.ndarray:
        """Armijo slope of the value along ``-D``, row by row."""
        return -_pair_inner(self.spec.domain, G, D)


def _bump_values(domain, center, width):
    d2 = np.zeros(domain.shape)
    for a, x in enumerate(domain.meshgrid()):
        dx = x - center[a]
        if domain.periodic:
            p = domain.lengths[a]
            dx = (dx + p / 2.0) % p - p / 2.0
        d2 = d2 + dx * dx
    return np.exp(-d2 / (2.0 * width * width))


def initial_states(spec: ProblemSpec, config: SolveConfig) -> np.ndarray:
    """Deterministic multi-start initial data, one start per row of a pair
    array ``(starts, 2, *shape)``.

    Positive Gaussian bumps (width one eighth of the domain diameter,
    amplitude one, independent centers per component) plus, when there is
    more than one start, a final sign-free Gaussian random field.
    """
    dom = spec.domain
    rng = default_rng(config.seed)
    if dom.periodic:
        diam = float(np.sqrt(sum((p / 2.0) ** 2 for p in dom.lengths)))
    else:
        diam = float(np.sqrt(sum(l * l for l in dom.lengths)))
    width = diam / 8.0

    starts = np.empty((config.starts, 2) + dom.shape)
    n_bumps = config.starts if config.starts == 1 else config.starts - 1
    for k in range(n_bumps):
        centers = rng.uniform(0.0, dom.lengths, size=(2, dom.dimension))
        starts[k, 0] = _bump_values(dom, centers[0], width)
        starts[k, 1] = _bump_values(dom, centers[1], width)
    if config.starts > 1:
        starts[-1, 0] = rng.standard_normal(dom.shape)
        starts[-1, 1] = rng.standard_normal(dom.shape)
    return starts


def _evaluate(spec: ProblemSpec, objective, S: np.ndarray) -> _Points:
    """Project the rows of ``S`` onto the manifold and evaluate the objective there."""
    fib, on = fibering_project(spec, S)
    value, extra = objective.value(on, fib.phi_at_t)
    return _Points(on, fib.moments, fib.phi_at_t, value, extra, fib.t_star)


def _require_finite(x: np.ndarray, what: str, iterate: int, starts, rows) -> None:
    """Raise ``RuntimeError`` naming the start and iterate of a non-finite entry."""
    if not np.isfinite(x).all():
        bad = rows[np.flatnonzero(~np.isfinite(x))[0]]
        raise RuntimeError(f"non-finite {what} at iterate {iterate} of start {starts[bad]}")


def _spectral_steps(domain, pts: _Points, G: np.ndarray, D: np.ndarray, memory) -> np.ndarray:
    """First trial step of each row: the Barzilai-Borwein (BB2) step
    ``<ds, dg> / <dd, dg>`` in the preconditioned metric, or 1.

    ``ds``, ``dg`` and ``dd`` are the row's changes of point, L2 gradient and
    direction since its previous iterate; ``memory`` holds that iterate's
    gradients, directions and accepted steps, or is ``None`` on the first
    iterate.  The point change needs no stored point: the retraction made
    ``s_k = t* (s_{k-1} - a d_{k-1})``, so ``ds = (1 - 1/t*) s_k - a d_{k-1}``.
    A row whose pairings are not both positive (no movement, or negative
    curvature along the step as while a start leaves a saddle) falls back
    to the unit step.
    """
    if memory is None:
        return np.ones(len(G))
    G_prev, D_prev, step_prev = memory
    dG = G - G_prev
    d_prev = _pair_inner(domain, D_prev, dG)
    sy = (1.0 - 1.0 / pts.scale) * _pair_inner(domain, pts.S, dG) - step_prev * d_prev
    yy = _pair_inner(domain, D, dG) - d_prev
    return np.divide(sy, yy, out=np.ones_like(sy), where=(sy > 0.0) & (yy > 0.0))


_FUZZ = 8.0 * np.finfo(float).eps


# Node budget of one descent batch: a batch takes as many rows as fit, at
# least one.  On the 256^2 torus a one-row descent peaks 9.4 MB above what
# it is handed with the kernels' second thread (8.8 MB on one thread;
# tracemalloc) and 4.8-5.8 MB above its setup's peak RSS (2.7-2.8 MB;
# ru_maxrss); each further row of its batch adds 7.5 MB (tracemalloc).
_BATCH_NODES = 2 ** 15


def _descend(spec: ProblemSpec, config: SolveConfig, init: np.ndarray, objective,
             start_index: list[int],
             filters: list | None = None) -> tuple[list[SolveReport], np.ndarray]:
    """Armijo-backtracking projected descent with fibering retraction and
    spectral first steps.

    Every row of the pair array ``init`` (``(rows, 2, *shape)``, nonzero
    rows) is a start, named by its entry of ``start_index``, and all rows
    descend together: each takes the steps it would take alone, with its own
    step size, backtracks, iteration count, status and stopping test, and
    leaves the batch when it stops.  ``filters`` optionally gives each row a
    projection of its search directions onto an exactly invariant subspace
    (symmetry-restricted search), or ``None``; the reported residual always
    measures the full, unfiltered gradient.  Each point is evaluated once:
    the objective reads its value from the projection that produced the
    point, and the norm and xi-slope come from its moments.
    Each row's backtracking starts at its spectral step (``_spectral_steps``)
    against the objective's Armijo slope (``objective.slope``); an accepted
    trial overwrites its row, and the row stalls when no step moving its
    point by more than ``_FUZZ`` of its largest entry passes the Armijo test.
    Converged and stalled rows retire by one path; the loop only shrinks
    its pair arrays and builds no state.
    A non-finite objective value or residual raises ``RuntimeError``.
    Rows descend in batches of at most ``_BATCH_NODES`` nodes, one row
    at least.

    Returns one report per row and the final rows as a pair array.
    """
    dom = spec.domain
    n_rows = len(init)
    batch = max(1, _BATCH_NODES // (2 * dom.size))
    if n_rows > batch:
        parts = [_descend(spec, config, init[i:i + batch], objective, start_index[i:i + batch],
                          filters and filters[i:i + batch])
                 for i in range(0, n_rows, batch)]
        return [r for reps, _ in parts for r in reps], np.concatenate([f for _, f in parts])
    status = ["max_iters"] * n_rows
    iterations = np.zeros(n_rows, dtype=int)
    residual = np.full(n_rows, np.inf)
    rho = np.full(n_rows, np.inf)
    finished = []   # (rows, their final points) of the rows that have stopped
    idx = np.arange(n_rows)   # the row of each point still descending

    pts = _evaluate(spec, objective, init)
    _require_finite(pts.value, "objective value", 0, start_index, idx)
    memory = None   # (G, D, accepted step) of the previous iterate, by row

    def retire(stop) -> bool:
        """Move the rows flagged in ``stop`` with their points to ``finished``
        and drop them from the descending arrays; True once no row is left."""
        nonlocal idx, pts, G, memory
        if stop.any():
            finished.append((idx[stop], pts.S if stop.all() else pts.S[stop]))
            keep = ~stop
            idx, pts = idx[keep], pts.take(keep)
            G = G if G is None else G[keep]
            memory = memory and tuple(a[keep] for a in memory)
        return not idx.size

    for it in range(config.max_iters + 1):
        G = objective.grad(pts)
        nrm = np.sqrt(pts.moments.norm_sq)
        rho[idx] = np.minimum(rho[idx], nrm)
        res = np.sqrt(_pair_inner(dom, G, G)) / nrm
        _require_finite(res, "residual", it, start_index, idx)
        residual[idx] = res
        stop = res <= config.grad_tol
        for r in idx[stop]:
            status[r] = "converged"
        if retire(stop | (it == config.max_iters)):
            break

        D = _precondition(spec, G)
        for k, r in enumerate(idx if filters else ()):
            if filters[r] is not None:   # the row's direction filter, in place
                D[k:k + 1] = filters[r](D[k:k + 1])
        slope = objective.slope(pts, G, D)

        # Armijo backtracking per row; the rows still searching try together,
        # and an accepted trial overwrites its row.  Roundoff slack keeps full
        # steps acceptable once the decrease per step falls below float
        # granularity of the energy.  A row stalls once its step falls to the
        # same relative slack of its point (_FUZZ of its largest entry): such a
        # trial moves the point by a few ulps at most, and accepting it by the
        # slack would repeat the same iterate up to max_iters
        n = len(idx)
        fuzz = _FUZZ * (np.abs(pts.value) + 1.0)
        alpha = _spectral_steps(dom, pts, G, D, memory)
        memory = None   # free the previous iterate's arrays before the trials
        grain = _FUZZ * np.abs(pts.S).reshape(n, -1).max(axis=1)
        reach = np.abs(D).reshape(n, -1).max(axis=1)
        searching = np.flatnonzero(slope < 0.0)
        stop = np.ones(n, dtype=bool)   # the rows no trial has moved
        for _ in range(_MAX_BACKTRACKS):
            if not searching.size:
                break
            rows = slice(None) if searching.size == n else searching
            trial = pts.S[rows] - alpha[rows].reshape((-1,) + (1,) * (init.ndim - 1)) * D[rows]
            nonzero = trial.reshape(len(trial), -1).any(axis=1)
            ok = np.zeros(searching.size, dtype=bool)
            if nonzero.any():
                tried = searching[nonzero]
                cand = _evaluate(spec, objective, trial if nonzero.all() else trial[nonzero])
                _require_finite(cand.value, "objective value", it + 1, start_index, idx[tried])
                better = cand.value <= (pts.value[tried] + _ARMIJO_C1 * alpha[tried] * slope[tried]
                                        + fuzz[tried])
                if better.any():
                    pts.put(tried[better], cand if better.all() else cand.take(better))
                    stop[tried[better]] = False
                ok[nonzero] = better
            alpha[searching[~ok]] *= _ARMIJO_BACKTRACK
            searching = searching[~ok]
            searching = searching[alpha[searching] * reach[searching] > grain[searching]]
        trial = cand = None   # release the search's arrays before the next gradient

        for r in idx[stop]:
            status[r] = "stalled"
        memory, G, D, alpha = (G, D, alpha), None, None, None   # one copy each to shrink
        if retire(stop):
            break
        iterations[idx] = it + 1

    if len(finished) == 1:
        final = finished[0][1]   # every row stopped at once, in order
    else:
        final = np.empty((n_rows,) + finished[0][1].shape[1:])
        for rows, S in finished:
            final[rows] = S
    rd = _ray_data(spec, final[:, 0], final[:, 1])
    norms = np.sqrt(rd.norm_sq)
    energies = rd.breakdown().total
    xi = rd.xi()
    reports = [
        SolveReport(
            energy=float(energies[r]),
            grad_residual=float(residual[r]),
            xi_residual=float(abs(xi[r])),
            iterations=int(iterations[r]),
            start_index=start_index[r],
            norm=float(norms[r]),
            rho_estimate=float(min(rho[r], norms[r])),
            status=status[r],
        )
        for r in range(n_rows)
    ]
    return reports, final


def minimize_on_nehari(spec: ProblemSpec, config: SolveConfig, init: State,
                       start_index: int = 0) -> tuple[SolveReport, State]:
    """Minimize the energy over the Nehari manifold from one initial state.

    The initial state is projected onto the manifold; each iteration takes
    the preconditioned full gradient as descent direction, backtracks from
    its spectral step until the Armijo test holds for the retracted trial
    point, and stops when the relative full-gradient residual drops below
    ``grad_tol``.  Accepted
    energies decrease monotonically (up to roundoff slack near stagnation).
    """
    if init.is_zero():
        raise ValueError("initial state must be nonzero")
    (report,), final = _descend(spec, config, init.pair()[None], _EnergyObjective(spec),
                                [start_index])
    return report, State.from_pair(spec.domain, final[0])


# Nested iteration on tori: the residual the coarse levels descend to (or
# the configured one, if larger), and the fraction of a field's largest
# value within which a halved grid must reproduce it
_COARSE_TOL = 1e-4
_RESOLVE_RTOL = 1e-12
_FIELDS = ("V1", "V2", "lam")


def _prolong(S: np.ndarray) -> np.ndarray:
    """Fourier interpolation of a torus pair array ``(rows, 2, *shape)``
    onto the grid with twice the nodes per axis.

    Each axis in turn keeps its modes with ``|k| < n/2`` (the Nyquist mode of
    an even axis has no shift-equivariant interpolant, so it is dropped) and
    is zero-padded to ``2n`` nodes by real transforms.  Interpolation is
    linear, keeps the mean and commutes with node shifts (one coarse node is
    two fine ones).  One row goes through the transforms at a time, which
    bounds their arrays to one row (whole-array transforms raised the peak
    RSS of a default torus ``decay`` by 1.3 MB).
    """
    out = np.empty(S.shape[:2] + tuple(2 * n for n in S.shape[2:]))
    for row, s in enumerate(S):
        for axis in range(1, s.ndim):
            n = s.shape[axis]
            kept = (slice(None),) * axis + (slice((n + 1) // 2),)
            # "forward" norm: the coefficients are the mode amplitudes on either grid
            F = np.fft.rfft(s, axis=axis, norm="forward")[kept]
            s = np.fft.irfft(F, n=2 * n, axis=axis, norm="forward")
        out[row] = s
    return out


def _halved(spec: ProblemSpec) -> ProblemSpec:
    """The torus problem on every other node: the fine fields taken at
    those nodes, nothing re-sampled."""
    dom = spec.domain
    nodes = (slice(None, None, 2),) * dom.dimension
    coarse = DomainSpec(dom.dimension, dom.kind, tuple(n // 2 for n in dom.shape), dom.lengths)
    return replace(spec, domain=coarse,
                   **{name: GridFunction(coarse, getattr(spec, name).values[nodes])
                      for name in _FIELDS})


def _coarse_levels(spec: ProblemSpec) -> list[ProblemSpec]:
    """The coarse problems of nested iteration, finest first: none on boxes.

    Every axis halves (``_halved``) while each axis's nodes per cell ``m``
    are even and the halved ``m`` is at least 2, so that coarse nodes are
    fine nodes (any other ratio can land a bump between fine nodes, on a
    lattice saddle), and while ``_prolong`` of the halved ``V1``, ``V2`` and
    ``lam`` gives back each field to ``_RESOLVE_RTOL`` of its largest value.
    """
    levels = []
    while spec.domain.periodic and all(m % 2 == 0 and m >= 4 for m in spec.domain.points_per_cell):
        coarse = _halved(spec)
        for name in _FIELDS:
            f = getattr(spec, name).values
            back = _prolong(getattr(coarse, name).values[None, None])[0, 0]
            if np.abs(back - f).max() > _RESOLVE_RTOL * np.abs(f).max():
                return levels
        levels.append(coarse)
        spec = coarse
    return levels


def _ladder_starts(spec: ProblemSpec, config: SolveConfig) -> np.ndarray:
    """The starts, descended on the ``_coarse_levels`` of a torus, coarsest
    first, and prolonged to the problem's grid; with no levels, the
    ``initial_states`` themselves.

    The starts are ``initial_states`` on the problem's grid taken at the
    coarsest level's nodes.  Each level descends to ``_COARSE_TOL`` (or the
    configured ``grad_tol``, if larger); its rows are prolonged whether
    they converged or not.
    """
    levels = _coarse_levels(spec)
    nodes = (slice(None),) * 2 + (slice(None, None, 2 ** len(levels)),) * spec.domain.dimension
    # with levels, a copy of the coarse nodes: the fine starts are freed here
    S = np.ascontiguousarray(initial_states(spec, config)[nodes])
    coarse_config = replace(config, grad_tol=max(config.grad_tol, _COARSE_TOL))
    for level in reversed(levels):
        _, S = _descend(level, coarse_config, S, _EnergyObjective(level), list(range(len(S))))
        S = _prolong(S)
    return S


def find_ground_state(spec: ProblemSpec, config: SolveConfig) -> tuple[SolveReport, State]:
    """Multi-start ground-state search; returns the lowest converged energy.

    All starts go to one batched descent on the problem's grid.  On bounded
    domains every start is replaced by its componentwise absolute value
    before projection, biasing toward the nonnegative ground state, and the
    returned components are nonnegative up to 1e-10 of the peak amplitude.
    On tori the starts first descend on a ladder of halved grids
    (``_coarse_levels``, possibly none), coarsest first, and the fine
    descent starts from the prolonged rows (nested iteration); the reports
    count fine-grid iterates only.  Deterministic for a fixed seed:
    converged energies within the Armijo slack of the lowest tie, and a tie
    goes to the lowest start index.
    """
    bounded = not spec.domain.periodic
    starts = _ladder_starts(spec, config)
    if bounded:
        starts = np.abs(starts)
    reports, final = _descend(spec, config, starts, _EnergyObjective(spec),
                              list(range(len(starts))))
    if bounded:
        reports, final = _ensure_nonnegative(spec, config, reports, final)

    converged = [r for r in reports if r.status == "converged"]
    if not converged:
        lines = "\n".join(
            f"start {r.start_index}: status={r.status} residual={r.grad_residual:.3e} "
            f"energy={r.energy:.6g} iterations={r.iterations}"
            for r in reports
        )
        raise SolverStallError("no start converged:\n" + lines)
    best = converged[_winner(converged)]
    return (replace(best, rho_estimate=min(r.rho_estimate for r in reports)),
            State.from_pair(spec.domain, final[best.start_index]))


def _winner(reports: list[SolveReport]) -> int:
    """Position of the winner in ``reports``, given in ascending start order:
    the first energy within the Armijo slack ``_FUZZ (|E| + 1)`` of the
    lowest, since starts that reach one level part by roundoff."""
    lowest = min(r.energy for r in reports)
    slack = _FUZZ * (abs(lowest) + 1.0)
    return next(k for k, r in enumerate(reports) if r.energy - lowest <= slack)


_SIGN_ROUNDS = 3


def _ensure_nonnegative(spec, config, reports, final):
    """Enforce the sign normalization contract on the converged rows of a
    bounded batch: each of ``_SIGN_ROUNDS`` rounds, every converged row with
    a negative part descends again from its absolute value, all of them as
    one batch."""
    reports, final = list(reports), final.copy()
    for _ in range(_SIGN_ROUNDS):
        flat = final.reshape(len(final), -1)
        negative = flat.min(axis=1) < -1e-10 * np.abs(flat).max(axis=1)
        redo = [r for r in np.flatnonzero(negative) if reports[r].status == "converged"]
        if not redo:
            break
        again, final[redo] = _descend(spec, config, np.abs(final[redo]), _EnergyObjective(spec),
                                      [reports[r].start_index for r in redo])
        for r, rep in zip(redo, again):
            reports[r] = replace(rep, iterations=reports[r].iterations + rep.iterations)
    return reports, final


def _recenter_radius(dom: DomainSpec) -> float:
    """Radius ``1 + sqrt(N)`` of the balls whose local mass ``recenter`` compares."""
    return 1.0 + float(np.sqrt(dom.dimension))


def recenter(s: State) -> tuple[State, tuple[int, ...]]:
    """Translate a periodic state so its densest ball sits at the midpoint.

    The center maximizes the local mass over balls of radius ``1 + sqrt(N)``
    and the shift is an integer number of unit cells, so the potentials (and
    hence the energy) are untouched up to roundoff.
    """
    dom = s.domain
    if not dom.periodic:
        raise ValueError("recenter requires a periodic domain")
    _, center = local_mass_sup(s.u, s.v, _recenter_radius(dom))
    ppc = dom.points_per_cell
    z = tuple(
        int(np.rint((n // 2 - c) / m)) for n, c, m in zip(dom.shape, center, ppc)
    )
    return State(shift(s.u, z), shift(s.v, z)), z


def decay_fit(s: State) -> DecayFit:
    """Fit ``log(|u| + |v|)`` against periodic distance from the state center.

    The center is the amplitude peak node (recentering moves it next to the
    torus midpoint, but only in whole unit cells, so the peak itself is the
    sub-cell-accurate reference).  The fit runs over nodes whose amplitude
    lies in ``_DECAY_WINDOW`` relative to the peak amplitude and fails when
    fewer than 30 nodes are admissible (grid or window too small).
    """
    dom = s.domain
    if not dom.periodic:
        raise ValueError("decay_fit requires a periodic domain")
    w = np.abs(s.u.values) + np.abs(s.v.values)
    wmax = float(w.max())
    if wmax == 0.0:
        raise ValueError("decay_fit needs a nonzero state")
    lo, hi = _DECAY_WINDOW[0] * wmax, _DECAY_WINDOW[1] * wmax
    mask = (w >= lo) & (w <= hi) & (w > 0.0)
    n_samples = int(np.count_nonzero(mask))
    if n_samples < 30:
        raise ValueError(
            f"insufficient decay window: {n_samples} admissible nodes (need 30)"
        )

    center = np.unravel_index(int(np.argmax(w)), dom.shape)
    dist2 = np.zeros(dom.shape)
    for a in range(dom.dimension):
        n = dom.shape[a]
        h = dom.spacing[a]
        half = n // 2
        wrapped = (np.arange(n) - center[a] + half) % n - half
        shape = [1] * dom.dimension
        shape[a] = n
        dist2 = dist2 + (wrapped * h).reshape(shape) ** 2
    d = np.sqrt(dist2)[mask]
    amp = w[mask]
    logw = np.log(amp)
    slope, intercept = np.polyfit(d, logw, 1)
    pred = slope * d + intercept
    ss_res = float(np.sum((logw - pred) ** 2))
    ss_tot = float(np.sum((logw - logw.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return DecayFit(float(np.exp(intercept)), float(-slope), r2, (lo, hi), n_samples,
                    d, amp)


def m_map(spec: ProblemSpec, w: State) -> State:
    """Map a unit-norm state to the manifold along its ray."""
    if w.is_zero():
        raise ValueError("m_map requires a nonzero state")
    nrm = norm_E(spec, w)
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"m_map requires a unit-norm state, got norm {nrm!r}")
    _, s = fibering_project(spec, w)
    return s


def m_inverse(spec: ProblemSpec, s: State) -> State:
    """Radial retraction of a manifold point back to the unit sphere."""
    if s.is_zero():
        raise ValueError("m_inverse requires a nonzero state")
    nrm = norm_E(spec, s)
    if abs(nehari_xi(spec, s)) > 1e-6 * nrm * nrm:
        raise ValueError("m_inverse requires a state on the Nehari manifold")
    return s.scaled(1.0 / nrm)
