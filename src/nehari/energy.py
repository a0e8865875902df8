"""Energy functional, gradients, and the fibering projection.

The energy of a pair state ``s = (u, v)`` is

    J(s) = 1/2 (||s||^2 - 2 int lam u v) - int F1(u) + F2(v)
           + 1/q int |u|^q + |v|^q,

with ``||s||^2 = ||u||_{V1}^2 + ||v||_{V2}^2`` the block norm without the
coupling term.  The constraint functional ``xi(s) = J'(s)(s)`` cuts out
the Nehari manifold; every nonzero ray crosses it exactly once, at the
maximizer of the fibering map ``phi(t) = J(t s)``.

Because the nonlinearities are finite power sums, every ray quantity
reduces to a handful of precomputed moments ``int |u|^p``:  the fibering
map, its first two derivatives, xi and its radial slope are all closed
forms in ``t``.  The projection therefore costs a few grid reductions
plus a scalar safeguarded Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.fft

from .grid import DomainSpec, GridFunction, _gradient_energy, _schrodinger_values
from .model import ProblemSpec

__all__ = [
    "State",
    "EnergyBreakdown",
    "FiberingReport",
    "energy",
    "coercive_form",
    "norm_E",
    "e_inner",
    "grad_l2",
    "grad_precond",
    "nehari_xi",
    "nehari_xi_slope",
    "fibering_value",
    "fibering_slope",
    "fibering_slope_nehari_form",
    "fibering_project",
]


@dataclass(frozen=True)
class State:
    """A pair of grid functions on a common domain."""

    u: GridFunction
    v: GridFunction

    def __post_init__(self):
        if self.u.domain != self.v.domain:
            raise ValueError("state components live on different domains")

    @property
    def domain(self) -> DomainSpec:
        return self.u.domain

    @staticmethod
    def from_values(domain: DomainSpec, u_values, v_values) -> "State":
        return State(GridFunction(domain, u_values), GridFunction(domain, v_values))

    def scaled(self, t: float) -> "State":
        return State.from_values(self.domain, t * self.u.values, t * self.v.values)

    def is_zero(self) -> bool:
        return not (np.any(self.u.values) or np.any(self.v.values))


@dataclass(frozen=True)
class EnergyBreakdown:
    quad: float    # 1/2 ||s||^2
    cross: float   # int lam u v
    fpart: float   # int F1(u) + F2(v)
    qpart: float   # 1/q int |u|^q + |v|^q
    total: float

    def format_text(self) -> str:
        return (
            f"quad  = {self.quad:.17g}\n"
            f"cross = {self.cross:.17g}\n"
            f"fpart = {self.fpart:.17g}\n"
            f"qpart = {self.qpart:.17g}\n"
            f"total = {self.total:.17g}\n"
        )


@dataclass(frozen=True)
class FiberingReport:
    t_star: float
    phi_at_t: float
    bracket: tuple[float, float]
    iterations: int
    slope_residual: float
    moments: _RayData | None = None   # ray moments of the projected state t* s


@dataclass(frozen=True)
class _RayData:
    """Moments of a state that determine every quantity along its ray."""

    norm_sq: float               # ||s||^2
    cross: float                 # int lam u v
    coeffs: tuple[float, ...]    # a_j * int |component|^{p_j}
    exps: tuple[float, ...]      # p_j
    inv_p: tuple[float, ...]     # 1 / p_j
    mq: float                    # |u|_q^q + |v|_q^q
    q: float

    @property
    def a2(self) -> float:
        return self.norm_sq - 2.0 * self.cross

    def phi(self, t: float) -> float:
        fsum = sum(c * ip * t ** p for c, p, ip in zip(self.coeffs, self.exps, self.inv_p))
        return 0.5 * t * t * self.a2 - fsum + (t ** self.q) * self.mq / self.q

    def phi_prime(self, t: float) -> float:
        fsum = sum(c * t ** (p - 1.0) for c, p in zip(self.coeffs, self.exps))
        return t * self.a2 - fsum + t ** (self.q - 1.0) * self.mq

    def phi_second(self, t: float) -> float:
        fsum = sum(c * (p - 1.0) * t ** (p - 2.0) for c, p in zip(self.coeffs, self.exps))
        return self.a2 - fsum + (self.q - 1.0) * t ** (self.q - 2.0) * self.mq

    def psi(self, t: float) -> float:
        """phi'(t)/t, same positive roots, well-behaved near 0."""
        fsum = sum(c * t ** (p - 2.0) for c, p in zip(self.coeffs, self.exps))
        return self.a2 - fsum + t ** (self.q - 2.0) * self.mq

    def xi(self) -> float:
        return self.a2 - sum(self.coeffs) + self.mq

    def xi_slope(self) -> float:
        return 2.0 * self.a2 - sum(c * p for c, p in zip(self.coeffs, self.exps)) \
            + self.q * self.mq

    def scaled(self, t: float) -> "_RayData":
        """Moments of ``t s`` from those of ``s``."""
        return replace(
            self,
            norm_sq=t * t * self.norm_sq,
            cross=t * t * self.cross,
            coeffs=tuple(c * t ** p for c, p in zip(self.coeffs, self.exps)),
            mq=t ** self.q * self.mq,
        )

    def breakdown(self) -> "EnergyBreakdown":
        quad = 0.5 * self.norm_sq
        fpart = sum(c * ip for c, ip in zip(self.coeffs, self.inv_p))
        qpart = self.mq / self.q
        return EnergyBreakdown(quad, self.cross, fpart, qpart,
                               quad - self.cross - fpart + qpart)


def _ray_data(spec: ProblemSpec, u: np.ndarray, v: np.ndarray) -> _RayData:
    dom = spec.domain
    vol = dom.cell_volume
    norm_sq = (
        _gradient_energy(u, dom) + float(np.sum(spec.V1.values * u * u)) * vol
        + _gradient_energy(v, dom) + float(np.sum(spec.V2.values * v * v)) * vol
    )
    cross = float(np.sum(spec.lam.values * u * v)) * vol
    au, av = np.abs(u), np.abs(v)
    coeffs, exps, inv_p = [], [], []
    for comp, nl in ((au, spec.f1), (av, spec.f2)):
        for a, p in nl.terms:
            coeffs.append(a * float(np.sum(comp ** p)) * vol)
            exps.append(p)
            inv_p.append(1.0 / p)
    mq = (float(np.sum(au ** spec.q)) + float(np.sum(av ** spec.q))) * vol
    return _RayData(norm_sq, cross, tuple(coeffs), tuple(exps), tuple(inv_p), mq, spec.q)


def energy(spec: ProblemSpec, s: State) -> EnergyBreakdown:
    """Evaluate the energy with its four quadrature parts."""
    if s.domain != spec.domain:
        raise ValueError("state does not live on the problem domain")
    return _ray_data(spec, s.u.values, s.v.values).breakdown()


def coercive_form(spec: ProblemSpec, s: State) -> float:
    """``||s||^2 - 2 int lam u v``; at least ``(1-delta) ||s||^2`` for valid data."""
    rd = _ray_data(spec, s.u.values, s.v.values)
    return rd.a2


def norm_E(spec: ProblemSpec, s: State) -> float:
    """The block norm ``||s|| = (||u||_{V1}^2 + ||v||_{V2}^2)^(1/2)``."""
    rd = _ray_data(spec, s.u.values, s.v.values)
    return float(np.sqrt(rd.norm_sq))


def e_inner(spec: ProblemSpec, s1: State, s2: State) -> float:
    """Block inner product of two states (no coupling term)."""
    from .grid import h_inner

    return h_inner(s1.u, s2.u, spec.V1) + h_inner(s1.v, s2.v, spec.V2)


def grad_l2(spec: ProblemSpec, s: State) -> State:
    """L2 representative of ``J'(s)``: the pair of strong-form residual fields."""
    dom = spec.domain
    u, v = s.u.values, s.v.values
    q = spec.q
    gu = (
        _schrodinger_values(u, spec.V1.values, dom) - spec.lam.values * v
        - spec.f1.f(u) + np.abs(u) ** (q - 2.0) * u
    )
    gv = (
        _schrodinger_values(v, spec.V2.values, dom) - spec.lam.values * u
        - spec.f2.f(v) + np.abs(v) ** (q - 2.0) * v
    )
    return State.from_values(dom, gu, gv)


# ---------------------------------------------------------------------------
# preconditioned conjugate gradients for (-lap_h + V) g = r
# ---------------------------------------------------------------------------


def _constant_shift_solve(domain: DomainSpec, rhs: np.ndarray, c: float) -> np.ndarray:
    """Exact solve of ``(-lap_h + c) g = rhs`` by fast sine/Fourier transforms."""
    dim = domain.dimension
    h = domain.spacing
    coeff = scipy.fft.rfftn(rhs) if domain.periodic else scipy.fft.dstn(rhs, type=1)
    lam = np.zeros(coeff.shape)
    for a in range(dim):
        n = domain.shape[a]
        k = np.arange(coeff.shape[a])
        angle = np.pi * k / n if domain.periodic else np.pi * (k + 1) / (2.0 * (n + 1))
        eig = (4.0 / h[a] ** 2) * np.sin(angle) ** 2
        shape = [1] * dim
        shape[a] = coeff.shape[a]
        lam = lam + eig.reshape(shape)
    if domain.periodic:
        return scipy.fft.irfftn(coeff / (lam + c), s=domain.shape)
    return scipy.fft.idstn(coeff / (lam + c), type=1)


def _pcg_schrodinger(domain: DomainSpec, V: np.ndarray, b: np.ndarray,
                     rtol: float = 1e-10) -> tuple[np.ndarray, int]:
    """Solve ``(-lap_h + V) x = b`` by preconditioned conjugate gradients.

    The preconditioner is the exact constant-coefficient solve at the mean
    potential, so iteration counts stay small; exceeding the iteration cap
    signals a genuine defect (the operator is symmetric positive definite).
    """
    n = b.size
    b_norm = float(np.sqrt(np.sum(b * b)))
    if b_norm == 0.0:
        return np.zeros_like(b), 0
    b = b / b_norm   # keep intermediates O(1); tiny residuals underflow otherwise
    c = float(np.mean(V))
    max_iter = int(np.ceil(10.0 * np.sqrt(n)))
    x = np.zeros_like(b)
    r = b.copy()
    z = _constant_shift_solve(domain, r, c)
    p = z.copy()
    rz = float(np.sum(r * z))
    for k in range(1, max_iter + 1):
        Ap = _schrodinger_values(p, V, domain)
        alpha = rz / float(np.sum(p * Ap))
        x += alpha * p
        r -= alpha * Ap
        if float(np.sqrt(np.sum(r * r))) <= rtol:
            return b_norm * x, k
        z = _constant_shift_solve(domain, r, c)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError(
        f"conjugate gradients failed to reach {rtol:g} in {max_iter} iterations"
    )


def grad_precond(spec: ProblemSpec, s: State, g: State | None = None) -> State:
    """Gradient representative in the block inner product.

    Solves ``(-lap_h + V_i) g_i = (grad_l2)_i`` per component by conjugate
    gradients to relative residual 1e-10.  Pass ``g`` to reuse an already
    computed L2 gradient.
    """
    if g is None:
        g = grad_l2(spec, s)
    gu, _ = _pcg_schrodinger(spec.domain, spec.V1.values, g.u.values)
    gv, _ = _pcg_schrodinger(spec.domain, spec.V2.values, g.v.values)
    return State.from_values(spec.domain, gu, gv)


# ---------------------------------------------------------------------------
# Nehari constraint and fibering map
# ---------------------------------------------------------------------------


def nehari_xi(spec: ProblemSpec, s: State) -> float:
    """The constraint functional ``xi(s) = J'(s)(s)``."""
    return _ray_data(spec, s.u.values, s.v.values).xi()


def nehari_xi_slope(spec: ProblemSpec, s: State) -> float:
    """Radial slope ``xi'(s)(s)``; strictly negative on the manifold."""
    return _ray_data(spec, s.u.values, s.v.values).xi_slope()


def xi_grad_l2(spec: ProblemSpec, s: State) -> State:
    """L2 representative of ``xi'(s)``, so ``xi'(s)(d) = <xi_grad_l2(s), d>_h``.

    Needed to project search directions onto the manifold tangent space when
    the minimized objective is not ray-critical (deflated energies).
    """
    dom = spec.domain
    u, v = s.u.values, s.v.values
    q = spec.q
    gu = (
        2.0 * (_schrodinger_values(u, spec.V1.values, dom) - spec.lam.values * v)
        - spec.f1.f_prime(u) * u - spec.f1.f(u) + q * np.abs(u) ** (q - 2.0) * u
    )
    gv = (
        2.0 * (_schrodinger_values(v, spec.V2.values, dom) - spec.lam.values * u)
        - spec.f2.f_prime(v) * v - spec.f2.f(v) + q * np.abs(v) ** (q - 2.0) * v
    )
    return State.from_values(dom, gu, gv)


def fibering_value(spec: ProblemSpec, s: State, t: float) -> float:
    """``phi(t) = J(t s)`` via the ray moments."""
    return _ray_data(spec, s.u.values, s.v.values).phi(float(t))


def fibering_slope(spec: ProblemSpec, s: State, t: float) -> float:
    """``phi'(t) = J'(t s)(s)`` via the ray moments."""
    return _ray_data(spec, s.u.values, s.v.values).phi_prime(float(t))


def fibering_slope_nehari_form(spec: ProblemSpec, s: State, t: float) -> float:
    """Rearranged slope valid on the manifold (cross-check form).

    Equals ``sum_j c_j (t - t^{p_j-1}) + (t^{q-1} - t) mq``, which agrees
    with ``phi'`` exactly when ``xi(s) = 0``.
    """
    rd = _ray_data(spec, s.u.values, s.v.values)
    t = float(t)
    fsum = sum(c * (t - t ** (p - 1.0)) for c, p in zip(rd.coeffs, rd.exps))
    return fsum + (t ** (rd.q - 1.0) - t) * rd.mq


_BRACKET_LIMIT = 2.0 ** 60


def _project_ray(rd: _RayData, rel_tol: float) -> tuple[float, tuple[float, float], int]:
    """Unique positive root of ``phi'`` by bracketing plus safeguarded Newton."""
    psi1 = rd.psi(1.0)
    if psi1 == 0.0:
        return 1.0, (0.5, 2.0), 0
    if psi1 > 0.0:
        lo, fhi = 1.0, psi1
        hi = 2.0
        while rd.psi(hi) > 0.0:
            lo, hi = hi, hi * 2.0
            if hi > _BRACKET_LIMIT:
                raise RuntimeError("fibering bracket failure: phi' has no sign change")
    else:
        hi = 1.0
        lo = 0.5
        while rd.psi(lo) < 0.0:
            hi, lo = lo, lo * 0.5
            if lo < 1.0 / _BRACKET_LIMIT:
                raise RuntimeError("fibering bracket failure: phi' has no sign change")
    bracket = (lo, hi)

    t = 0.5 * (lo + hi)
    iterations = 0
    for _ in range(200):
        iterations += 1
        fp = rd.phi_prime(t)
        fpp = rd.phi_second(t)
        if fp > 0.0:
            lo = t
        elif fp < 0.0:
            hi = t
        else:
            break
        t_new = t - fp / fpp if fpp != 0.0 else 0.5 * (lo + hi)
        if not (lo < t_new < hi):
            t_new = 0.5 * (lo + hi)
        step = abs(t_new - t)
        t = t_new
        if step <= rel_tol * t or (hi - lo) <= rel_tol * t:
            break
    return t, bracket, iterations


def fibering_project(spec: ProblemSpec, s: State,
                     rel_tol: float = 1e-12) -> tuple[FiberingReport, State]:
    """Scale a nonzero state onto the Nehari manifold.

    Finds the unique ``t* > 0`` with ``phi'(t*) = 0`` (bracketing by
    doubling/halving from ``t = 1``, then safeguarded Newton with the exact
    second derivative of the moment form) and returns the report together
    with the scaled state; the report carries the ray moments of the scaled
    state, so callers need not evaluate it again.  The fibering value at
    ``t*`` dominates both bracket ends, which is asserted.
    """
    if s.is_zero():
        raise ValueError("cannot project the zero state onto the manifold")
    rd = _ray_data(spec, s.u.values, s.v.values)
    t, bracket, iterations = _project_ray(rd, rel_tol)
    phi_t = rd.phi(t)
    # roundoff slack: bracket ends coincide with t* when the input is on the manifold
    slack = 1e-9 * (1.0 + abs(phi_t))
    if not (phi_t >= rd.phi(bracket[0]) - slack and phi_t >= rd.phi(bracket[1]) - slack):
        raise RuntimeError("fibering maximizer does not dominate its bracket")
    report = FiberingReport(t, phi_t, bracket, iterations, abs(rd.phi_prime(t)),
                            rd.scaled(t))
    return report, s.scaled(t)
