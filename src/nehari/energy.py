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

import math
import operator
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from numpy.fft import irfftn, rfft, rfftn

from .grid import (
    DomainSpec,
    GridFunction,
    _both,
    _csum,
    _format_record,
    _gradient_energy,
    _require_same_domain,
    _schrodinger_values,
    _threaded,
    _trailing_axes,
)
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
    """A pair of grid functions on a common domain, owning copies of their
    values.  Every function that takes a problem spec reads a state through
    ``_state_pair``, which rejects one from another domain of the same shape."""

    u: GridFunction
    v: GridFunction

    def __post_init__(self):
        _require_same_domain(self.u, self.v)

    @property
    def domain(self) -> DomainSpec:
        return self.u.domain

    @staticmethod
    def from_values(domain: DomainSpec, u_values, v_values) -> "State":
        return State(GridFunction(domain, u_values), GridFunction(domain, v_values))

    @staticmethod
    def from_pair(domain: DomainSpec, pair: np.ndarray) -> "State":
        """The state of a ``(2, *shape)`` pair array."""
        return State.from_values(domain, pair[0], pair[1])

    def pair(self) -> np.ndarray:
        """The components stacked as a ``(2, *shape)`` pair array."""
        return np.stack((self.u.values, self.v.values))

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
        return _format_record((f.name, getattr(self, f.name)) for f in fields(self))


@dataclass(frozen=True)
class FiberingReport:
    """Outcome of a projection; for a batch of rows every field but
    ``iterations`` (summed over the rows) holds one entry per row."""

    t_star: float
    phi_at_t: float
    bracket: tuple[float, float]
    iterations: int
    slope_residual: float
    moments: _RayData   # ray moments of the projected state t* s


@dataclass(frozen=True)
class _RayData:
    """Moments of states that determine every quantity along their rays.

    The last axis of ``m`` holds ``||s||^2``, ``int lam u v``,
    ``|u|_q^q + |v|^q_q`` and one ``a_j int |component|^{p_j}`` per
    nonlinearity term (u-terms first); its leading axes index the states.
    The columns are read once, on construction: for a single state ``m``
    has no leading axis and every moment is a Python float, so the scalar
    root finder runs on plain floats; for a batch they are views of ``m``.
    Every method acts row-wise, and its powers ``_pow`` round as Python's
    float power (the C library's ``pow``) does, so a row of a batch equals
    the same row evaluated on Python floats: numpy's ``**`` on arrays takes
    a SIMD power that can differ in the last bit, ``np.float_power`` does
    not.
    """

    m: np.ndarray
    exps: tuple[float, ...]      # p_j
    inv_p: tuple[float, ...]     # 1 / p_j
    q: float

    def __post_init__(self):
        single = self.m.ndim == 1
        cols = self.m.tolist() if single else [self.m[..., j] for j in range(self.m.shape[-1])]
        # the record is frozen, so the columns go straight into its __dict__
        self.__dict__.update(norm_sq=cols[0], cross=cols[1], mq=cols[2], coeffs=tuple(cols[3:]),
                             a2=cols[0] - 2.0 * cols[1],
                             _pow=operator.pow if single else np.float_power)

    def phi(self, t):
        fsum = sum(c * ip * self._pow(t, p)
                   for c, p, ip in zip(self.coeffs, self.exps, self.inv_p))
        return 0.5 * t * t * self.a2 - fsum + self._pow(t, self.q) * self.mq / self.q

    def phi_prime(self, t):
        fsum = sum(c * self._pow(t, p - 1.0) for c, p in zip(self.coeffs, self.exps))
        return t * self.a2 - fsum + self._pow(t, self.q - 1.0) * self.mq

    def phi_second(self, t):
        fsum = sum(c * (p - 1.0) * self._pow(t, p - 2.0) for c, p in zip(self.coeffs, self.exps))
        return self.a2 - fsum + (self.q - 1.0) * self._pow(t, self.q - 2.0) * self.mq

    def psi(self, t):
        """phi'(t)/t, same positive roots, well-behaved near 0."""
        fsum = sum(c * self._pow(t, p - 2.0) for c, p in zip(self.coeffs, self.exps))
        return self.a2 - fsum + self._pow(t, self.q - 2.0) * self.mq

    def xi(self):
        return self.a2 - sum(self.coeffs) + self.mq

    def xi_slope(self):
        return 2.0 * self.a2 - sum(c * p for c, p in zip(self.coeffs, self.exps)) \
            + self.q * self.mq

    def scaled(self, t) -> "_RayData":
        """The moments of the states ``t s``, one factor ``t`` per state."""
        cols = [t * t * self.norm_sq, t * t * self.cross, self._pow(t, self.q) * self.mq] \
            + [c * self._pow(t, p) for c, p in zip(self.coeffs, self.exps)]
        return _RayData(np.stack(cols, axis=-1), self.exps, self.inv_p, self.q)

    def take(self, rows) -> "_RayData":
        """The moments of the selected rows."""
        return _RayData(self.m[rows], self.exps, self.inv_p, self.q)

    def breakdown(self) -> "EnergyBreakdown":
        quad = 0.5 * self.norm_sq
        fpart = sum(c * ip for c, ip in zip(self.coeffs, self.inv_p))
        qpart = self.mq / self.q
        return EnergyBreakdown(quad, self.cross, fpart, qpart,
                               quad - self.cross - fpart + qpart)


def _ray_half(spec: ProblemSpec, s: np.ndarray, V: np.ndarray, nl, cross_with=None):
    """The moments ``_ray_data`` takes from one component ``s``: its gradient
    energy, ``int V s^2``, ``int lam cross_with s`` when ``cross_with`` is
    given (else ``None``), ``sum |s|^q`` and ``a_j int |s|^{p_j}`` per term."""
    dom = spec.domain
    vol = dom.cell_volume
    axes = _trailing_axes(s, dom)
    # the weighted products (w x) s, each formed in one temporary
    t = V * s
    t *= s
    potential = np.sum(t, axis=axes) * vol
    cross = None
    if cross_with is not None:
        t = spec.lam.values * cross_with
        t *= s
        cross = np.sum(t, axis=axes) * vol
    del t   # freed before |s| and its powers
    a = np.abs(s)
    return (_gradient_energy(s, dom), potential, cross, np.sum(a ** spec.q, axis=axes),
            [c * np.sum(a ** p, axis=axes) * vol for c, p in nl.terms])


def _ray_data(spec: ProblemSpec, u: np.ndarray, v: np.ndarray) -> _RayData:
    """Ray moments of the states ``(u, v)``; leading axes of ``u`` and ``v``
    index the states, and the reductions run over the trailing grid axes.

    The u-moments and the v-moments (with the cross term) are two calls of
    ``_ray_half``, on two threads past the thread gate (``grid._both``), and
    combine in one fixed order whichever thread formed them.
    """
    (gu, pu, _, qu, tu), (gv, pv, cross, qv, tv) = _both(
        _ray_half, (spec, u, spec.V1.values, spec.f1),
        (spec, v, spec.V2.values, spec.f2, u), u.size)
    columns = [gu + pu + gv + pv, cross, (qu + qv) * spec.domain.cell_volume] + tu + tv
    exps = tuple(p for _, p in spec.f1.terms + spec.f2.terms)
    return _RayData(np.stack(columns, axis=-1), exps, tuple(1.0 / p for p in exps), spec.q)


def _state_pair(spec: ProblemSpec, s: State) -> np.ndarray:
    """The ``(2, *shape)`` pair array of a state argument, which must live on
    the problem domain: the one way a spec-aware function reads a state."""
    if s.domain != spec.domain:
        raise ValueError("state does not live on the problem domain")
    return s.pair()


def energy(spec: ProblemSpec, s: State) -> EnergyBreakdown:
    """Evaluate the energy with its four quadrature parts."""
    return _ray_data(spec, *_state_pair(spec, s)).breakdown()


def coercive_form(spec: ProblemSpec, s: State) -> float:
    """``||s||^2 - 2 int lam u v``; at least ``(1-delta) ||s||^2`` for valid data."""
    return float(_ray_data(spec, *_state_pair(spec, s)).a2)


def norm_E(spec: ProblemSpec, s: State) -> float:
    """The block norm ``||s|| = (||u||_{V1}^2 + ||v||_{V2}^2)^(1/2)``: ``e_inner(s, s)^(1/2)``."""
    return math.sqrt(e_inner(spec, s, s))


def e_inner(spec: ProblemSpec, s1: State, s2: State) -> float:
    """Block inner product ``<(-lap_h + V) s1, s2>_h``, ``V = (V1, V2)``, no
    coupling term: one pairing of the pair arrays, summed in sorted order."""
    dom = spec.domain
    S1, S2 = _state_pair(spec, s1), _state_pair(spec, s2)
    return _csum(_schrodinger_values(S1, spec.potential_pair, dom) * S2) * dom.cell_volume


def _pair_kernel(spec: ProblemSpec, s, kernel):
    """Apply ``kernel``, which maps a pair array ``(rows, 2, *shape)`` to a
    pair array, to ``s``: a pair array directly, a state as a one-row pair
    array, and then the result comes back as a state."""
    if not isinstance(s, State):
        return kernel(s)
    return State.from_pair(spec.domain, kernel(_state_pair(spec, s)[None])[0])


def _grad_part(spec: ProblemSpec, S: np.ndarray, comps: slice, out=None) -> np.ndarray:
    """``grad_l2``'s kernel on the components ``comps`` (a slice of the
    pair) of the pair array ``S``, written into ``out`` when it is given.
    Every operation acts entry by entry, so a component comes out the same
    bits whichever slice holds it."""
    s = S[:, comps]
    g = np.subtract(_schrodinger_values(s, spec.potential_pair[comps], spec.domain),
                    spec.lam.values * S[:, ::-1][:, comps], out=out)
    for k, c in enumerate(range(2)[comps]):
        g[:, k] -= (spec.f1, spec.f2)[c].f(S[:, c])
    g += np.abs(s) ** (spec.q - 2.0) * s
    return g


def grad_l2(spec: ProblemSpec, s: State | np.ndarray):
    """L2 representative of ``J'(s)``: the pair of strong-form residual fields.

    ``s`` is a state, or a pair array ``(rows, 2, *shape)`` whose rows are
    treated at once; the result has the same form.  ``_grad_part`` forms
    the field: on the whole pair in one call below the thread gate
    (``grid._threaded``; on the default box, a 2-core host, the two halves
    in turn read 4% slower per ``box1d-ground`` op), one component per
    thread past it.
    """
    def kernel(S):
        nodes = S.size // 2
        if not _threaded(nodes):
            # the subtraction allocates the result: an output allocated before
            # the stencil's temporaries cost 35% more per call (64^2 torus, 3 rows)
            return _grad_part(spec, S, slice(None))
        G = np.empty(S.shape)
        _both(_grad_part, (spec, S, slice(0, 1), G[:, :1]), (spec, S, slice(1, 2), G[:, 1:]), nodes)
        return G

    return _pair_kernel(spec, s, kernel)


# ---------------------------------------------------------------------------
# (-lap_h + V) g = r: exact transform solve, preconditioned conjugate gradients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _shift_symbol(domain: DomainSpec) -> np.ndarray:
    """Eigenvalues of ``-lap_h`` on the sine/Fourier coefficients, read-only
    and cached per domain."""
    dim = domain.dimension
    h = domain.spacing
    shape = list(domain.shape)
    if domain.periodic:
        shape[-1] = shape[-1] // 2 + 1   # rfftn keeps half the last axis
    lam = np.zeros(shape)
    for a in range(dim):
        n = domain.shape[a]
        k = np.arange(shape[a])
        angle = np.pi * k / n if domain.periodic else np.pi * (k + 1) / (2.0 * (n + 1))
        eig = (4.0 / h[a] ** 2) * np.sin(angle) ** 2
        axis_shape = [1] * dim
        axis_shape[a] = shape[a]
        lam = lam + eig.reshape(axis_shape)
    lam.setflags(write=False)
    return lam


# Box axes of at most this many nodes take their sine transform as a product
# with the cached sine matrix, longer ones as the real FFT of the odd
# extension.  Timed per transform of 1 and 16 lines (the table is in
# CHANGES.md), the product won at every tabulated length up to 287 nodes in
# both runs, and the FFT first won at 299 nodes (16 lines); it won both
# runs at both line counts at 479 and 511 nodes and from 1023 nodes on.
_DENSE_SINE_NODES = 287


def _dense_sine(n: int) -> bool:
    """Whether a box axis of ``n`` nodes transforms by the dense sine matrix
    (otherwise by the FFT)."""
    return n <= _DENSE_SINE_NODES


@lru_cache(maxsize=16)
def _sine_matrix(n: int) -> np.ndarray:
    """The sine matrix ``S[j, k] = sin(pi j k / (n + 1))``, ``j, k = 1..n``,
    read-only and cached per length.

    ``S`` is symmetric and ``S @ S = (n + 1) / 2 I``; it is half the DST-I
    matrix.  ``j k`` is reduced modulo ``2 (n + 1)`` before the sine is
    taken, so every angle lies below ``2 pi``.
    """
    k = np.arange(1, n + 1)
    S = np.sin(np.pi / (n + 1) * (np.outer(k, k) % (2 * n + 2)))
    S.setflags(write=False)
    return S


@lru_cache(maxsize=64)
def _inverse_norm(domain: DomainSpec) -> float:
    """The factor that makes the inverse transforms invert the forward ones:
    ``1/N``, with ``N`` the product over the axes of ``n`` on a torus, and on
    a box of ``2 (n + 1)`` per FFT axis and ``(n + 1) / 2`` per sine-matrix
    axis.  It is rounded from long double, as pocketfft's inverse norm
    factor is: for some ``N`` (5462, for one) it differs from ``1.0 / N`` in
    the last bit."""
    if domain.periodic:
        lengths = domain.shape
    else:
        lengths = [(n + 1) / 2 if _dense_sine(n) else 2 * n + 2 for n in domain.shape]
    return float(1 / np.longdouble(math.prod(lengths)))


def _dst1(a: np.ndarray, axis: int, scale: float = 1.0) -> np.ndarray:
    """Unnormalized DST-I of ``a`` along ``axis``, times ``scale``.

    The DST is minus the imaginary part of the real FFT of the odd extension
    ``[0, a, 0, -a[::-1]]`` (length ``2 (n + 1)``).  This is pocketfft's own
    route, and ``scale`` multiplies the output as pocketfft applies a norm
    factor, so the result equals ``scipy.fft.dst(a, type=1)`` bit for bit.
    """
    n = a.shape[axis]
    a = a.swapaxes(axis, -1)
    ext = np.zeros(a.shape[:-1] + (2 * n + 2,))
    ext[..., 1:n + 1] = a
    np.negative(a[..., ::-1], out=ext[..., n + 2:])
    return np.multiply(rfft(ext).imag[..., 1:n + 1], -scale).swapaxes(axis, -1)


def _sine_transform(a: np.ndarray, axis: int, scale: float = 1.0) -> np.ndarray:
    """Sine transform of ``a`` along the box axis ``axis``, times ``scale``:
    the product with ``_sine_matrix`` on a dense-route axis, else the DST-I
    ``_dst1`` (twice that product).  ``_inverse_norm`` undoes either."""
    n = a.shape[axis]
    if not _dense_sine(n):
        return _dst1(a, axis, scale)
    S = _sine_matrix(n)
    lead = math.prod(a.shape[:axis])
    if axis == a.ndim - 1:
        out = a.reshape(lead, n) @ S   # S is symmetric
    else:
        out = S @ a.reshape(lead, n, -1)
    out = out.reshape(a.shape)
    if scale != 1.0:
        out *= scale
    return out


def _constant_shift_solve(domain: DomainSpec, rhs: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Exact solve of ``(-lap_h + c) g = rhs`` by sine/Fourier transforms.

    ``rhs`` holds one right-hand side per entry of its single leading axis,
    and ``shifts`` the shift ``c`` of each.  The inverse transform is scaled
    once, by ``_inverse_norm``.  On a torus, and on a box whose axes all
    take the FFT route, the result equals scipy's ``irfftn(rfftn(rhs) /
    symbol)`` (``idstn(dstn(rhs, type=1) / symbol, type=1)``) bit for bit:
    the axes are transformed in scipy's order and the scale is applied on
    the first axis of the inverse, as pocketfft does.  Axes on the dense
    route agree with it to roundoff.

    On a torus the two halves of the systems are solved on two threads past
    the thread gate (``grid._both``, ``_torus_solve``); the transforms act
    line by line, so each half comes out as inside the whole batch.  A box
    keeps one call: no box workload reaches the gate, and the break-even of
    its transforms was not measured (a DST-I is an FFT of twice the length,
    and OpenBLAS threads the dense route's products already).
    """
    if domain.periodic:
        half = len(rhs) // 2
        nodes = rhs[:half].size
        if half and _threaded(nodes):
            out = np.empty(rhs.shape)
            _both(_torus_solve, (domain, rhs[:half], shifts[:half], out[:half]),
                  (domain, rhs[half:], shifts[half:], out[half:]), nodes)
            return out
        return _torus_solve(domain, rhs, shifts)
    axes = _trailing_axes(rhs, domain)
    coeff = rhs
    for a in axes:
        coeff = _sine_transform(coeff, a)
    coeff /= _shift_symbol(domain) + shifts.reshape((-1,) + (1,) * domain.dimension)
    scale = _inverse_norm(domain)
    for a in axes:
        coeff = _sine_transform(coeff, a, scale)
        scale = 1.0   # pocketfft scales the first axis only
    return coeff


def _torus_solve(domain: DomainSpec, rhs: np.ndarray, shifts: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """``_constant_shift_solve`` of all of ``rhs`` on a torus in one pass of
    transforms, into ``out`` when it is given."""
    axes = _trailing_axes(rhs, domain)
    # numpy takes the complex axes last to first, scipy first to last
    coeff = rfftn(rhs, axes=axes[-2::-1] + axes[-1:])
    coeff /= _shift_symbol(domain) + shifts.reshape((-1,) + (1,) * domain.dimension)
    out = irfftn(coeff, s=domain.shape, axes=axes, norm="forward", out=out)
    out *= _inverse_norm(domain)
    return out


_PCG_RTOL = 1e-10


def _pcg_schrodinger(domain: DomainSpec, V: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve ``(-lap_h + V) x = b``: exactly by the shift solve for each
    system whose potential is constant, by preconditioned conjugate
    gradients for the others.

    Every leading index of ``b`` is a system of its own (``V`` broadcasts
    against ``b``).  A system whose potential is one value throughout is
    solved by the sine/Fourier shift solve at that value, the exact inverse,
    in 0 iterations.  Each other system has its own step sizes, iteration
    count and stopping test (residual ``_PCG_RTOL`` relative to ``b``); the
    systems still iterating advance together, and a converged one leaves
    the batch.  The preconditioner is the exact constant-coefficient solve
    at the mean potential of each system, so iteration counts stay small;
    exceeding the iteration cap signals a genuine defect (the operator is
    symmetric positive definite).  Returns the solutions, shaped as ``b``,
    and the iterations summed over the systems.
    """
    lead = b.shape[:b.ndim - domain.dimension]
    B = b.reshape((-1,) + domain.shape)
    flat = V.reshape(V.shape[:V.ndim - domain.dimension] + (-1,))
    constant = np.broadcast_to(np.all(flat == flat[..., :1], axis=-1), lead).ravel()
    values = np.broadcast_to(flat[..., 0], lead).ravel()
    if constant.all():
        return _constant_shift_solve(domain, B, values).reshape(b.shape), 0
    X = np.zeros_like(B)
    if constant.any():
        X[constant] = _constant_shift_solve(domain, B[constant], values[constant])
    axes = _trailing_axes(B, domain)
    Vs = np.broadcast_to(V, b.shape).reshape(B.shape)
    shifts = np.broadcast_to(np.mean(V, axis=_trailing_axes(V, domain)), lead).ravel()
    b_norm = np.sqrt(np.add.reduce(B * B, axis=axes, keepdims=True))
    iterations = np.zeros(len(B), dtype=int)
    live = np.flatnonzero(~constant & (b_norm.ravel() != 0.0))
    if not live.size:
        return X.reshape(b.shape), 0
    if live.size < len(B):
        B, Vs, shifts, b_norm = B[live], Vs[live], shifts[live], b_norm[live]

    max_iter = int(np.ceil(10.0 * np.sqrt(domain.size)))
    # keep intermediates O(1); tiny residuals underflow otherwise
    r = B / b_norm
    x = np.zeros_like(r)
    z = _constant_shift_solve(domain, r, shifts)
    p = z.copy()
    rz = np.add.reduce(r * z, axis=axes, keepdims=True)
    for k in range(1, max_iter + 1):
        Ap = _schrodinger_values(p, Vs, domain)
        alpha = rz / np.add.reduce(p * Ap, axis=axes, keepdims=True)
        x += alpha * p
        r -= alpha * Ap
        done = np.sqrt(np.add.reduce(r * r, axis=axes)) <= _PCG_RTOL
        if done.any():
            X[live[done]] = b_norm[done] * x[done]
            iterations[live[done]] = k
            keep = ~done
            if not keep.any():
                return X.reshape(b.shape), int(iterations.sum())
            live, x, r, p, rz, Vs, shifts, b_norm = (
                a[keep] for a in (live, x, r, p, rz, Vs, shifts, b_norm))
        z = _constant_shift_solve(domain, r, shifts)
        rz_new = np.add.reduce(r * z, axis=axes, keepdims=True)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError(
        f"conjugate gradients failed to reach {_PCG_RTOL:g} in {max_iter} iterations"
    )


def _precondition(spec: ProblemSpec, G: np.ndarray) -> np.ndarray:
    """Block-norm representative of the L2 gradients ``G`` (pair array rows):
    both components of every row are solved as one batch of systems."""
    return _pcg_schrodinger(spec.domain, spec.potential_pair, G)[0]


def grad_precond(spec: ProblemSpec, s: State, g: State | None = None) -> State:
    """Gradient representative in the block inner product.

    Solves ``(-lap_h + V_i) g_i = (grad_l2)_i`` per component: exactly by
    the sine/Fourier transform when ``V_i`` is constant, else by conjugate
    gradients to relative residual 1e-10.  Pass ``g`` to reuse an already
    computed L2 gradient.
    """
    S = _state_pair(spec, s)[None]
    G = grad_l2(spec, S) if g is None else _state_pair(spec, g)[None]
    return State.from_pair(spec.domain, _precondition(spec, G)[0])


# ---------------------------------------------------------------------------
# Nehari constraint and fibering map
# ---------------------------------------------------------------------------


def nehari_xi(spec: ProblemSpec, s: State) -> float:
    """The constraint functional ``xi(s) = J'(s)(s)``."""
    return float(_ray_data(spec, *_state_pair(spec, s)).xi())


def nehari_xi_slope(spec: ProblemSpec, s: State) -> float:
    """Radial slope ``xi'(s)(s)``; strictly negative on the manifold."""
    return float(_ray_data(spec, *_state_pair(spec, s)).xi_slope())


def xi_grad_l2(spec: ProblemSpec, s: State | np.ndarray):
    """L2 representative of ``xi'(s)``, so ``xi'(s)(d) = <xi_grad_l2(s), d>_h``.

    Needed to project search directions onto the manifold tangent space when
    the minimized objective is not ray-critical (deflated energies).  Takes
    and returns a state or a pair array, as :func:`grad_l2` does.
    """
    q, lam = spec.q, spec.lam.values

    def kernel(S):
        X = 2.0 * (_schrodinger_values(S, spec.potential_pair, spec.domain) - lam * S[:, ::-1])
        for c, nl in enumerate((spec.f1, spec.f2)):
            u = S[:, c]
            X[:, c] -= nl.f_prime(u) * u
            X[:, c] -= nl.f(u)
        X += q * np.abs(S) ** (q - 2.0) * S
        return X

    return _pair_kernel(spec, s, kernel)


def fibering_value(spec: ProblemSpec, s: State, t: float) -> float:
    """``phi(t) = J(t s)`` via the ray moments."""
    return float(_ray_data(spec, *_state_pair(spec, s)).phi(float(t)))


def fibering_slope(spec: ProblemSpec, s: State, t: float) -> float:
    """``phi'(t) = J'(t s)(s)`` via the ray moments."""
    return float(_ray_data(spec, *_state_pair(spec, s)).phi_prime(float(t)))


def fibering_slope_nehari_form(spec: ProblemSpec, s: State, t: float) -> float:
    """Rearranged slope valid on the manifold (cross-check form).

    Equals ``sum_j c_j (t - t^{p_j-1}) + (t^{q-1} - t) mq``, which agrees
    with ``phi'`` exactly when ``xi(s) = 0``.
    """
    rd = _ray_data(spec, *_state_pair(spec, s))
    t = float(t)
    fsum = sum(c * (t - t ** (p - 1.0)) for c, p in zip(rd.coeffs, rd.exps))
    return float(fsum + (t ** (rd.q - 1.0) - t) * rd.mq)


_FIBERING_RTOL = 1e-12   # the relative step that ends the t* Newton of a projection


def _in_float_range(rd: _RayData, t: float) -> bool:
    """Whether ``t**p_max`` is nonzero and ``phi``, ``phi'`` are finite at ``t``,
    about ``2**(+-1000/p_max)`` for unit moments; ``rd`` holds Python floats."""
    try:
        return t ** max(rd.exps) > 0.0 and math.isfinite(rd.phi(t)) \
            and math.isfinite(rd.phi_prime(t))
    except OverflowError:
        return False


def _project_ray(rd: _RayData) -> tuple[float, tuple[float, float], int]:
    """Unique positive root of ``phi'`` by bracketing plus safeguarded Newton.

    ``rd`` holds the moments of one state, as Python floats.  The bracket
    doubles or halves from ``t = 1`` while its new end is ``_in_float_range``.
    Newton starts at ``t = 1`` when the bracket holds it, else at its midpoint.
    """
    psi1 = rd.psi(1.0)
    if psi1 == 0.0:
        return 1.0, (0.5, 2.0), 0
    sign = 1.0 if psi1 > 0.0 else -1.0   # double while psi > 0, halve while psi < 0
    near, far = 1.0, 2.0 ** sign
    while sign * rd.psi(far) > 0.0:
        near, far = far, far * 2.0 ** sign
        if not _in_float_range(rd, far):
            raise RuntimeError("fibering bracket failure: phi' has no sign change")
    lo, hi = min(near, far), max(near, far)
    bracket = (lo, hi)

    # descent trial points sit next to the manifold, where t* is near 1
    t = 1.0 if lo <= 1.0 <= hi else 0.5 * (lo + hi)
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
        if abs(t_new - t) <= _FIBERING_RTOL * t:
            # converged; the step may round onto the bracket end t just became
            t = min(max(t_new, lo), hi)
            break
        if not (lo < t_new < hi):
            t_new = 0.5 * (lo + hi)
        step = abs(t_new - t)
        t = t_new
        if step <= _FIBERING_RTOL * t or (hi - lo) <= _FIBERING_RTOL * t:
            break
    return t, bracket, iterations


def fibering_project(spec: ProblemSpec, s: State | np.ndarray):
    """Scale a nonzero state onto the Nehari manifold.

    Finds the unique ``t* > 0`` with ``phi'(t*) = 0`` (bracketing by
    doubling/halving from ``t = 1``, then safeguarded Newton with the exact
    second derivative of the moment form) and returns the report together
    with the scaled state; the report carries the ray moments of the scaled
    state, so callers need not evaluate it again.  The fibering value at
    ``t*`` dominates both bracket ends, which is asserted.

    ``s`` is a state, or a pair array ``(rows, 2, *shape)``: then one moment
    pass serves every row, each row finds its ``t*`` by the same scalar
    steps as alone, the report holds one entry per row and the scaled rows
    come back as a pair array.  Only the root is found row by row; the
    fibering values, the bracket check, the slope residual and the scaled
    moments are array evaluations over the rows.  (The root finder stays
    scalar: a Newton vectorized over rows spends some 30 numpy calls per
    step on arrays of a few entries, 15x the scalar cost for one row and
    still slower for eight.)
    """
    single = isinstance(s, State)
    S = _state_pair(spec, s)[None] if single else s
    if not np.all(np.any(S.reshape(len(S), -1), axis=1)):
        raise ValueError("cannot project the zero state onto the manifold")
    rd = _ray_data(spec, S[:, 0], S[:, 1])
    ts, brackets, its = zip(*(_project_ray(rd.take(k)) for k in range(len(S))))
    t, (lo, hi) = np.array(ts), np.array(brackets).T
    phi_t, phi_lo, phi_hi = rd.phi(np.array((t, lo, hi)))
    # roundoff slack: bracket ends coincide with t* when the input is on the manifold
    slack = 1e-9 * (1.0 + np.abs(phi_t))
    if not np.all((phi_t >= phi_lo - slack) & (phi_t >= phi_hi - slack)):
        raise RuntimeError("fibering maximizer does not dominate its bracket")
    report = FiberingReport(t, phi_t, (lo, hi), sum(its), np.abs(rd.phi_prime(t)),
                            rd.scaled(t))
    scaled = t.reshape((-1,) + (1,) * (S.ndim - 1)) * S
    if not single:
        return report, scaled
    return (FiberingReport(ts[0], float(phi_t[0]), brackets[0], report.iterations,
                           float(report.slope_residual[0]), report.moments.take(0)),
            State.from_pair(spec.domain, scaled[0]))
