"""Projected descent on the Nehari manifold and periodic post-processing.

The minimizer walks the manifold directly: each accepted step moves along
the negative preconditioned gradient and retracts back by the fibering
projection, which is exactly the unique ray maximizer, so every iterate
is feasible.  Stopping tests the full gradient (manifold criticality of
the energy implies free criticality, so a small full gradient is the
honest certificate).

Periodic helpers: recentering by integer translations (which leave the
energy invariant), least-squares exponential decay fitting, and the
mutually inverse maps between the unit sphere and the manifold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import local_mass_sup, shift
from .model import ProblemSpec
from .energy import (
    FiberingReport,
    State,
    _ray_data,
    fibering_project,
    grad_l2,
    grad_precond,
    nehari_xi,
    norm_E,
    xi_grad_l2,
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


class SolverStallError(RuntimeError):
    """No start produced a converged manifold minimizer."""


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 500
    grad_tol: float = 1e-8
    armijo: tuple[float, float] = (1e-4, 0.5)   # (c1, backtrack factor)
    starts: int = 5
    seed: int = 0
    recenter_every: int = 0                     # 0 disables (periodic only)

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        c1, back = self.armijo
        if not (0 < c1 < 1 and 0 < back < 1):
            raise ValueError("armijo parameters must lie in (0, 1)")


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
        return (
            f"status        = {self.status}\n"
            f"energy        = {self.energy:.17g}\n"
            f"grad_residual = {self.grad_residual:.17g}\n"
            f"xi_residual   = {self.xi_residual:.17g}\n"
            f"iterations    = {self.iterations}\n"
            f"start_index   = {self.start_index}\n"
            f"norm          = {self.norm:.17g}\n"
            f"rho_estimate  = {self.rho_estimate:.17g}\n"
        )


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
        return (
            f"C         = {self.C:.17g}\n"
            f"alpha     = {self.alpha:.17g}\n"
            f"r_squared = {self.r_squared:.17g}\n"
            f"window    = [{self.window[0]:.17g}, {self.window[1]:.17g}]\n"
            f"n_samples = {self.n_samples}\n"
        )


class _EnergyObjective:
    """Plain energy; ray-critical on the manifold, so no radial correction."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec

    def value(self, s: State, fib: FiberingReport) -> float:
        return fib.phi_at_t

    def grad(self, s: State, fib: FiberingReport) -> State:
        return grad_l2(self.spec, s)

    def radial_derivative(self, s: State, fib: FiberingReport) -> float:
        return 0.0


def _pair_inner(a: State, b: State) -> float:
    """L2 inner product of two states by plain sums, the reduction the moments use.

    The descent's residual and slopes need no shift-exact reduction (the
    sorted ``_csum`` behind the public norms is kept for that contract).
    """
    vol = a.domain.cell_volume
    return (float(np.sum(a.u.values * b.u.values))
            + float(np.sum(a.v.values * b.v.values))) * vol


def _bump_values(domain, center, width):
    axes = [domain.axis_coordinates(a) for a in range(domain.dimension)]
    mesh = np.meshgrid(*axes, indexing="ij")
    d2 = np.zeros(domain.shape)
    for a, x in enumerate(mesh):
        dx = x - center[a]
        if domain.periodic:
            p = domain.lengths[a]
            dx = (dx + p / 2.0) % p - p / 2.0
        d2 = d2 + dx * dx
    return np.exp(-d2 / (2.0 * width * width))


def initial_states(spec: ProblemSpec, config: SolveConfig) -> list[State]:
    """Deterministic multi-start initial data.

    Positive Gaussian bumps (width one eighth of the domain diameter,
    amplitude one, independent centers per component) plus, when there is
    more than one start, a final sign-free Gaussian random field.
    """
    dom = spec.domain
    rng = np.random.default_rng(config.seed)
    if dom.periodic:
        diam = float(np.sqrt(sum((p / 2.0) ** 2 for p in dom.lengths)))
    else:
        diam = float(np.sqrt(sum(l * l for l in dom.lengths)))
    width = diam / 8.0

    states = []
    n_bumps = config.starts if config.starts == 1 else config.starts - 1
    for _ in range(n_bumps):
        centers = rng.uniform(0.0, dom.lengths, size=(2, dom.dimension))
        u = _bump_values(dom, centers[0], width)
        v = _bump_values(dom, centers[1], width)
        states.append(State.from_values(dom, u, v))
    if config.starts > 1:
        u = rng.standard_normal(dom.shape)
        v = rng.standard_normal(dom.shape)
        states.append(State.from_values(dom, u, v))
    return states


def _descend(spec: ProblemSpec, config: SolveConfig, init: State, objective,
             start_index: int, direction_filter=None,
             trace: list | None = None) -> tuple[SolveReport, State]:
    """Armijo-backtracking projected descent with fibering retraction.

    ``direction_filter`` optionally projects search directions onto an
    exactly invariant subspace (symmetry-restricted search); the reported
    residual always measures the full, unfiltered gradient.  ``trace``
    collects the accepted objective values.  Each point is evaluated once:
    the objective reads its value from the report ``fib`` of the projection
    that produced the point, and the norm and xi-slope come from its moments.
    """
    fib, s = fibering_project(spec, init)
    J = objective.value(s, fib)
    if trace is not None:
        trace.append(J)
    c1, back = config.armijo
    status = "max_iters"
    iterations = 0
    residual = float("inf")
    rho = float("inf")

    for it in range(config.max_iters + 1):
        g = objective.grad(s, fib)
        gnorm = float(np.sqrt(_pair_inner(g, g)))
        nrm = float(np.sqrt(fib.moments.norm_sq))
        rho = min(rho, nrm)
        residual = gnorm / nrm
        if residual <= config.grad_tol:
            status = "converged"
            break
        if it == config.max_iters:
            break

        d = grad_precond(spec, s, g)
        if direction_filter is not None:
            d = direction_filter(d)
        slope = -_pair_inner(g, d)
        radial = objective.radial_derivative(s, fib)
        if radial != 0.0:
            # retraction kills the ray component; correct the slope by the
            # implicit change of the fibering scale along the direction
            xg = xi_grad_l2(spec, s)
            xi_d = -_pair_inner(xg, d)
            slope += -(xi_d / fib.moments.xi_slope()) * radial
        if slope >= 0.0:
            status = "stalled"
            break

        alpha = 1.0
        accepted = False
        # roundoff slack keeps full steps acceptable once the decrease per
        # step falls below float granularity of the energy
        fuzz = 8.0 * np.finfo(float).eps * (abs(J) + 1.0)
        for _ in range(_MAX_BACKTRACKS):
            trial_u = s.u.values - alpha * d.u.values
            trial_v = s.v.values - alpha * d.v.values
            if np.any(trial_u) or np.any(trial_v):
                trial = State.from_values(spec.domain, trial_u, trial_v)
                fib_trial, s_trial = fibering_project(spec, trial)
                J_trial = objective.value(s_trial, fib_trial)
                if J_trial <= J + c1 * alpha * slope + fuzz:
                    accepted = True
                    break
            alpha *= back
        if not accepted:
            status = "stalled"
            break

        s, fib, J = s_trial, fib_trial, J_trial
        if trace is not None:
            trace.append(J)
        iterations = it + 1
        if (spec.domain.periodic and config.recenter_every
                and iterations % config.recenter_every == 0):
            s, _ = recenter(s)

    rd = _ray_data(spec, s.u.values, s.v.values)
    nrm = float(np.sqrt(rd.norm_sq))
    report = SolveReport(
        energy=rd.breakdown().total,
        grad_residual=residual,
        xi_residual=abs(rd.xi()),
        iterations=iterations,
        start_index=start_index,
        norm=nrm,
        rho_estimate=min(rho, nrm),
        status=status,
    )
    return report, s


def minimize_on_nehari(spec: ProblemSpec, config: SolveConfig, init: State,
                       start_index: int = 0,
                       trace: list | None = None) -> tuple[SolveReport, State]:
    """Minimize the energy over the Nehari manifold from one initial state.

    The initial state is projected onto the manifold; each iteration takes
    the preconditioned full gradient as descent direction, backtracks until
    the Armijo test holds for the retracted trial point, and stops when the
    relative full-gradient residual drops below ``grad_tol``.  Accepted
    energies decrease monotonically (up to roundoff slack near stagnation).
    """
    if init.is_zero():
        raise ValueError("initial state must be nonzero")
    return _descend(spec, config, init, _EnergyObjective(spec), start_index, trace=trace)


def _abs_state(s: State) -> State:
    return State.from_values(s.domain, np.abs(s.u.values), np.abs(s.v.values))


def _amplitude(s: State) -> float:
    return max(float(np.max(np.abs(s.u.values))), float(np.max(np.abs(s.v.values))))


def find_ground_state(spec: ProblemSpec, config: SolveConfig) -> tuple[SolveReport, State]:
    """Multi-start ground-state search; returns the lowest converged energy.

    On bounded domains every start is replaced by its componentwise absolute
    value before projection, biasing toward the nonnegative ground state,
    and the returned components are nonnegative up to 1e-10 of the peak
    amplitude.  Deterministic for a fixed seed; ties in energy break by
    start index.
    """
    bounded = not spec.domain.periodic
    results: list[tuple[SolveReport, State]] = []
    for i, init in enumerate(initial_states(spec, config)):
        if bounded:
            init = _abs_state(init)
        rep, s = _descend(spec, config, init, _EnergyObjective(spec), i)
        if bounded and rep.status == "converged":
            rep, s = _ensure_nonnegative(spec, config, rep, s, i)
        results.append((rep, s))

    converged = [(r, s) for r, s in results if r.status == "converged"]
    if not converged:
        lines = "\n".join(
            f"start {r.start_index}: status={r.status} residual={r.grad_residual:.3e} "
            f"energy={r.energy:.6g} iterations={r.iterations}"
            for r, _ in results
        )
        raise SolverStallError("no start converged:\n" + lines)
    best_rep, best_state = min(converged, key=lambda rs: (rs[0].energy, rs[0].start_index))
    rho_all = min(r.rho_estimate for r, _ in results)
    return replace(best_rep, rho_estimate=rho_all), best_state


def _ensure_nonnegative(spec, config, rep, s, start_index, rounds: int = 3):
    """Enforce the sign normalization contract on a converged bounded solve."""
    for _ in range(rounds):
        amp = _amplitude(s)
        if min(float(s.u.values.min()), float(s.v.values.min())) >= -1e-10 * amp:
            return rep, s
        rep2, s2 = _descend(spec, config, _abs_state(s), _EnergyObjective(spec), start_index)
        rep = replace(rep2, iterations=rep.iterations + rep2.iterations)
        s = s2
        if rep.status != "converged":
            break
    return rep, s


def recenter(s: State) -> tuple[State, tuple[int, ...]]:
    """Translate a periodic state so its densest ball sits at the midpoint.

    The center maximizes the local mass over balls of radius ``1 + sqrt(N)``
    and the shift is an integer number of unit cells, so the potentials (and
    hence the energy) are untouched up to roundoff.
    """
    dom = s.domain
    if not dom.periodic:
        raise ValueError("recenter requires a periodic domain")
    r = 1.0 + float(np.sqrt(dom.dimension))
    _, center = local_mass_sup(s.u, s.v, r)
    ppc = dom.points_per_cell
    z = tuple(
        int(np.rint((n // 2 - c) / m)) for n, c, m in zip(dom.shape, center, ppc)
    )
    return State(shift(s.u, z), shift(s.v, z)), z


def decay_fit(s: State, window: tuple[float, float] = (1e-12, 1e-3)) -> DecayFit:
    """Fit ``log(|u| + |v|)`` against periodic distance from the state center.

    The center is the amplitude peak node (recentering moves it next to the
    torus midpoint, but only in whole unit cells, so the peak itself is the
    sub-cell-accurate reference).  The fit runs over nodes whose amplitude
    lies in ``window`` relative to the peak amplitude and fails when fewer
    than 30 nodes are admissible (grid or window too small).
    """
    dom = s.domain
    if not dom.periodic:
        raise ValueError("decay_fit requires a periodic domain")
    w = np.abs(s.u.values) + np.abs(s.v.values)
    wmax = float(w.max())
    if wmax == 0.0:
        raise ValueError("decay_fit needs a nonzero state")
    lo, hi = window[0] * wmax, window[1] * wmax
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
