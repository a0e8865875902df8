"""Energy functional, gradients, constraint functional and fibering map."""

import importlib
import inspect
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

from nehari.grid import (
    DomainSpec,
    GridFunction,
    _schrodinger_values,
    h_inner,
    h_norm_sq,
    l2_inner,
    l2_norm_sq,
    schrodinger_apply,
    shift,
)
from nehari.energy import (
    _DENSE_SINE_NODES,
    _PCG_RTOL,
    State,
    _RayData,
    _constant_shift_solve,
    _pcg_schrodinger,
    _precondition,
    _project_ray,
    _ray_data,
    _shift_symbol,
    _sine_matrix,
    coercive_form,
    e_inner,
    energy,
    fibering_project,
    fibering_slope,
    fibering_slope_nehari_form,
    fibering_value,
    grad_l2,
    grad_precond,
    nehari_xi,
    nehari_xi_slope,
    norm_E,
    xi_grad_l2,
)
from nehari.model import Nonlinearity, ProblemSpec
from nehari.multiplicity import SolutionSet, _apply_block, orbit_distance
from nehari.solver import (SolveConfig, SolveReport, find_ground_state, m_inverse, m_map,
                           minimize_on_nehari)
from conftest import count_calls, force_undominated_root, make_spec, random_state


def sin_mode_constants(n):
    """Independent discrete oracles for u = sin(pi x), V = 1 on (0,1).

    A = ||u||_1^2 from the exact stencil eigenvalue, B = sum u^4 h,
    C = sum |u|^3 h; assembled without the energy-module code paths.
    """
    h = 1.0 / (n + 1)
    x = (np.arange(n) + 1) * h
    u = np.sin(np.pi * x)
    A = (4.0 / h ** 2 * np.sin(np.pi * h / 2.0) ** 2 + 1.0) * np.sum(u * u) * h
    B = float(np.sum(u ** 4) * h)
    C = float(np.sum(np.abs(u) ** 3) * h)
    return A, B, C, u


def sin_mode_spec(n):
    return make_spec(DomainSpec.dirichlet_box(1.0, n), lam=0.0)


def sin_mode_state(spec):
    x = spec.domain.axis_coordinates(0)
    return State.from_values(spec.domain, np.sin(np.pi * x), np.zeros(spec.domain.shape))


def test_energy_zero_state(bounded_spec):
    dom = bounded_spec.domain
    z = State.from_values(dom, np.zeros(dom.shape), np.zeros(dom.shape))
    bd = energy(bounded_spec, z)
    assert bd.total == 0.0 and bd.quad == 0.0 and bd.qpart == 0.0


def test_energy_breakdown_identity(bounded_spec):
    rng = np.random.default_rng(0)
    s = random_state(bounded_spec, rng)
    bd = energy(bounded_spec, s)
    assert bd.total == bd.quad - bd.cross - bd.fpart + bd.qpart


def test_energy_sin_mode_closed_form():
    """J(t sin, 0) = A t^2/2 - B t^4/4 + C t^3/3 against the direct oracle."""
    n = 256
    spec = sin_mode_spec(n)
    A, B, C, _ = sin_mode_constants(n)
    s = sin_mode_state(spec)
    for t in (0.5, 1.0, 4.4):
        expected = A * t * t / 2.0 - B * t ** 4 / 4.0 + C * t ** 3 / 3.0
        got = energy(spec, s.scaled(t)).total
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_energy_symmetries(bounded_spec):
    rng = np.random.default_rng(1)
    s = random_state(bounded_spec, rng)
    swapped = State(s.v, s.u)
    flipped = s.scaled(-1.0)
    assert energy(bounded_spec, swapped).total == energy(bounded_spec, s).total
    assert energy(bounded_spec, flipped).total == energy(bounded_spec, s).total


def test_coercive_form_no_coupling():
    spec = sin_mode_spec(64)
    rng = np.random.default_rng(2)
    s = random_state(spec, rng)
    assert np.isclose(coercive_form(spec, s), norm_E(spec, s) ** 2, rtol=1e-14)


@st.composite
def _coupled_problems(draw):
    """A constant-coefficient problem on a small box or torus whose coupling
    is a drawn fraction of its bound ``delta sqrt(V1 V2)``."""
    dom = draw(st.sampled_from([
        DomainSpec.dirichlet_box(1.0, 17), DomainSpec.dirichlet_box((1.0, 2.0), (6, 9)),
        DomainSpec.periodic_torus([3], 5), DomainSpec.periodic_torus([2, 2], 4)]))
    V1, V2 = draw(st.floats(0.05, 20.0)), draw(st.floats(0.05, 20.0))
    delta = draw(st.floats(0.01, 0.99))
    lam = draw(st.floats(0.0, 1.0)) * delta * math.sqrt(V1 * V2)
    return make_spec(dom, V1=V1, V2=V2, lam=lam)


_SPEC_FIXTURES = ["bounded_spec", "bounded_2d_spec", "periodic_spec_1d"]


@settings(max_examples=150, deadline=None)
@given(problem=st.sampled_from(_SPEC_FIXTURES) | _coupled_problems(),
       seed=st.integers(0, 2 ** 32 - 1), amplitude=st.floats(1e-3, 1e3),
       mix=st.floats(-2.0, 2.0), noise=st.floats(0.0, 1.0))
@example(problem="bounded_spec", seed=3, amplitude=1.0, mix=0.0, noise=1.0)
@example(problem="bounded_2d_spec", seed=3, amplitude=1.0, mix=0.0, noise=1.0)
@example(problem="periodic_spec_1d", seed=3, amplitude=1.0, mix=0.0, noise=1.0)
def test_coercive_bound_random_states(request, problem, seed, amplitude, mix, noise):
    """||s||^2 - 2 int lam u v >= (1 - delta) ||s||^2 within quadrature slack,
    on the fixtures (named) and on drawn problems.  ``v = mix u + noise w``
    reaches aligned components, where the coupling term is largest."""
    spec = request.getfixturevalue(problem) if isinstance(problem, str) else problem
    rng = np.random.default_rng(seed)
    u = amplitude * rng.standard_normal(spec.domain.shape)
    v = mix * u + noise * amplitude * rng.standard_normal(spec.domain.shape)
    s = State.from_values(spec.domain, u, v)
    delta, _ = spec.coupling_bound
    lhs = coercive_form(spec, s)
    rhs = (1.0 - delta) * norm_E(spec, s) ** 2
    assert lhs >= rhs - 1e-9 * max(abs(lhs), abs(rhs))


def test_coercive_equality_configuration():
    """u = v with lam = delta V is the tight case of the coupling bound."""
    dom = DomainSpec.dirichlet_box(1.0, 64)
    delta = 0.6
    spec = make_spec(dom, lam=delta)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(dom.shape)
    s = State.from_values(dom, u, u.copy())
    lhs = coercive_form(spec, s)
    grad_part = 2.0 * (norm_E(spec, State.from_values(dom, u, np.zeros_like(u))) ** 2
                       - l2_norm_sq(GridFunction(dom, u)))
    expected = grad_part + 2.0 * (1.0 - delta) * l2_norm_sq(GridFunction(dom, u))
    assert np.isclose(lhs, expected, rtol=1e-12)
    assert lhs >= (1.0 - delta) * norm_E(spec, s) ** 2 - 1e-12 * lhs


def test_grad_zero_state(bounded_spec):
    dom = bounded_spec.domain
    z = State.from_values(dom, np.zeros(dom.shape), np.zeros(dom.shape))
    g = grad_l2(bounded_spec, z)
    assert not np.any(g.u.values) and not np.any(g.v.values)


def test_grad_decoupled_component():
    spec = sin_mode_spec(64)
    s = sin_mode_state(spec)
    g = grad_l2(spec, s)
    assert not np.any(g.v.values)


def test_grad_matches_directional_derivative(bounded_2d_spec):
    rng = np.random.default_rng(5)
    spec = bounded_2d_spec
    for _ in range(5):
        s = random_state(spec, rng)
        d = random_state(spec, rng)
        scale = norm_E(spec, s)
        eps = 1e-5 * scale
        e_plus = energy(spec, State.from_values(
            spec.domain, s.u.values + eps * d.u.values, s.v.values + eps * d.v.values)).total
        e_minus = energy(spec, State.from_values(
            spec.domain, s.u.values - eps * d.u.values, s.v.values - eps * d.v.values)).total
        fd = (e_plus - e_minus) / (2.0 * eps)
        g = grad_l2(spec, s)
        ip = l2_inner(g.u, d.u) + l2_inner(g.v, d.v)
        assert abs(fd - ip) <= 1e-6 * max(abs(fd), abs(ip))


def test_xi_grad_matches_directional_derivative(bounded_spec):
    rng = np.random.default_rng(6)
    s = random_state(bounded_spec, rng)
    d = random_state(bounded_spec, rng)
    eps = 1e-6 * norm_E(bounded_spec, s)
    dom = bounded_spec.domain
    xp = nehari_xi(bounded_spec, State.from_values(
        dom, s.u.values + eps * d.u.values, s.v.values + eps * d.v.values))
    xm = nehari_xi(bounded_spec, State.from_values(
        dom, s.u.values - eps * d.u.values, s.v.values - eps * d.v.values))
    fd = (xp - xm) / (2.0 * eps)
    xg = xi_grad_l2(bounded_spec, s)
    ip = l2_inner(xg.u, d.u) + l2_inner(xg.v, d.v)
    assert abs(fd - ip) <= 1e-6 * max(abs(fd), abs(ip))


def test_grad_precond_basics(bounded_spec):
    rng = np.random.default_rng(7)
    dom = bounded_spec.domain
    z = State.from_values(dom, np.zeros(dom.shape), np.zeros(dom.shape))
    gp = grad_precond(bounded_spec, z)
    assert not np.any(gp.u.values) and not np.any(gp.v.values)

    s = random_state(bounded_spec, rng)
    g = grad_l2(bounded_spec, s)
    gp = grad_precond(bounded_spec, s, g)
    # SPD preconditioner: positive pairing and small linear-solve residual
    assert l2_inner(gp.u, g.u) + l2_inner(gp.v, g.v) > 0.0
    res = schrodinger_apply(gp.u, bounded_spec.V1).values - g.u.values
    assert np.max(np.abs(res)) <= 1e-8 * np.max(np.abs(g.u.values))


def test_grad_precond_eigenfunction():
    """With V = 1 the preconditioner divides a stencil eigenvector by its eigenvalue."""
    spec = sin_mode_spec(128)
    dom = spec.domain
    h = dom.spacing[0]
    x = dom.axis_coordinates(0)
    k = 3
    mode = np.sin(k * np.pi * x)
    lam = 4.0 / h ** 2 * np.sin(k * np.pi * h / 2.0) ** 2 + 1.0
    g = State.from_values(dom, mode, np.zeros_like(mode))
    s = sin_mode_state(spec)
    gp = grad_precond(spec, s, g)
    assert np.max(np.abs(gp.u.values - mode / lam)) <= 1e-9


def test_xi_zero_and_inner_product_consistency(bounded_spec, bounded_2d_spec):
    rng = np.random.default_rng(8)
    dom = bounded_spec.domain
    z = State.from_values(dom, np.zeros(dom.shape), np.zeros(dom.shape))
    assert nehari_xi(bounded_spec, z) == 0.0
    for spec in (bounded_spec, bounded_2d_spec):
        for _ in range(10):
            s = random_state(spec, rng)
            g = grad_l2(spec, s)
            ip = l2_inner(g.u, s.u) + l2_inner(g.v, s.v)
            xi = nehari_xi(spec, s)
            scale = np.sqrt(l2_norm_sq(g.u) + l2_norm_sq(g.v)) \
                * np.sqrt(l2_norm_sq(s.u) + l2_norm_sq(s.v)) + abs(xi)
            assert abs(ip - xi) <= 1e-12 * scale


def test_xi_slope_negative_on_manifold(bounded_spec, periodic_spec_1d):
    rng = np.random.default_rng(9)
    for spec in (bounded_spec, periodic_spec_1d):
        for _ in range(20):
            _, s = fibering_project(spec, random_state(spec, rng))
            assert nehari_xi_slope(spec, s) < 0.0


def test_xi_slope_sin_mode_closed_form():
    n = 256
    spec = sin_mode_spec(n)
    A, B, C, _ = sin_mode_constants(n)
    rep, s_on = fibering_project(spec, sin_mode_state(spec))
    t = rep.t_star
    expected = 2.0 * A * t ** 2 - 4.0 * B * t ** 4 + 3.0 * C * t ** 3
    assert abs(nehari_xi_slope(spec, s_on) - expected) <= 1e-10 * abs(expected)
    assert expected < 0.0


def test_xi_slope_matches_ray_difference(bounded_spec):
    rng = np.random.default_rng(10)
    _, s = fibering_project(bounded_spec, random_state(bounded_spec, rng))
    eps = 1e-6
    fd = (nehari_xi(bounded_spec, s.scaled(1 + eps))
          - nehari_xi(bounded_spec, s.scaled(1 - eps))) / (2.0 * eps)
    slope = nehari_xi_slope(bounded_spec, s)
    assert abs(fd - slope) <= 1e-6 * abs(slope)


def test_fibering_value_and_slope(bounded_2d_spec):
    """phi(t) = J(ts) and phi'(t) = <grad J(ts), s> for assorted t."""
    rng = np.random.default_rng(11)
    spec = bounded_2d_spec
    s = random_state(spec, rng)
    assert fibering_value(spec, s, 0.0) == 0.0
    for t in (0.3, 1.0, 2.7):
        st = s.scaled(t)
        direct = energy(spec, st).total
        assert abs(fibering_value(spec, s, t) - direct) <= 1e-12 * max(1.0, abs(direct))
        g = grad_l2(spec, st)
        ip = l2_inner(g.u, s.u) + l2_inner(g.v, s.v)
        assert abs(fibering_slope(spec, s, t) - ip) <= 1e-11 * max(1.0, abs(ip))


def test_fibering_small_t_positive(bounded_spec):
    rng = np.random.default_rng(12)
    for _ in range(5):
        s = random_state(bounded_spec, rng)
        rep, _ = fibering_project(bounded_spec, s)
        for t in np.geomspace(1e-3, 0.3, 20) * rep.t_star:
            assert fibering_value(bounded_spec, s, t) > 0.0


def test_fibering_sin_mode_quadratic_root():
    """t* solves A - B t^2 + C t = 0; compare with the independent oracle."""
    n = 256
    spec = sin_mode_spec(n)
    A, B, C, _ = sin_mode_constants(n)
    t_oracle = (C + np.sqrt(C * C + 4.0 * A * B)) / (2.0 * B)
    phi_oracle = A * t_oracle ** 2 / 2.0 - B * t_oracle ** 4 / 4.0 + C * t_oracle ** 3 / 3.0
    rep, s_on = fibering_project(spec, sin_mode_state(spec))
    assert abs(rep.t_star - t_oracle) <= 1e-10 * t_oracle
    assert abs(rep.phi_at_t - phi_oracle) <= 1e-10 * abs(phi_oracle)
    assert abs(nehari_xi(spec, s_on)) <= 1e-10 * norm_E(spec, s_on) ** 2


def test_fibering_project_idempotent_and_homogeneous(bounded_spec):
    rng = np.random.default_rng(13)
    for _ in range(10):
        s = random_state(bounded_spec, rng)
        rep, s_on = fibering_project(bounded_spec, s)
        rep2, _ = fibering_project(bounded_spec, s_on)
        assert abs(rep2.t_star - 1.0) <= 1e-10
        c = float(rng.uniform(0.2, 5.0))
        rep3, _ = fibering_project(bounded_spec, s.scaled(c))
        assert abs(rep3.t_star - rep.t_star / c) <= 1e-10 * rep.t_star / c


def test_fibering_rejects_zero(bounded_spec):
    dom = bounded_spec.domain
    z = State.from_values(dom, np.zeros(dom.shape), np.zeros(dom.shape))
    with pytest.raises(ValueError):
        fibering_project(bounded_spec, z)


@st.composite
def _near_two_powers(draw):
    """``q`` in (2.01, 3) and one or two terms ``a |s|^(p-2) s`` with
    ``p - q`` in (0.05, 1) and ``a`` in (0.1, 10).  Near 2 the fibering root
    of a unit-scale state lies far out on the ray, about ``a**(-1/(p-q))``,
    which these ranges keep near 1e20 or below."""
    q = 2.0 + 10.0 ** draw(st.floats(-2.0, 0.0))
    terms = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(math.log10(0.05), 0.0)),
                          min_size=1, max_size=2))
    return q, tuple((10.0 ** a, q + 10.0 ** gap) for a, gap in terms)


@settings(max_examples=200, deadline=None)
@given(problem=st.sampled_from(_SPEC_FIXTURES), seed=st.integers(0, 2 ** 32 - 1),
       amplitude=st.floats(1e-2, 1e2), support=st.sampled_from(["both", "u", "v"]),
       powers=st.none() | _near_two_powers())
@example(problem="bounded_spec", seed=14, amplitude=1.0, support="both", powers=None)
@example(problem="bounded_spec", seed=0, amplitude=0.0117, support="both",
         powers=(2.1, ((0.25, 2.35),)))
def test_fibering_slope_single_sign_change(request, problem, seed, amplitude, support,
                                           powers):
    """phi' changes sign exactly once on ``t* [1e-4, 4]``, for drawn states
    on the fixtures, with their own powers or with drawn ``q`` and terms
    (``powers``, the same nonlinearity for both components)."""
    spec = request.getfixturevalue(problem)
    if powers is not None:
        q, terms = powers
        spec = replace(spec, q=q, f1=Nonlinearity(terms), f2=Nonlinearity(terms))
    rng = np.random.default_rng(seed)
    dom = spec.domain
    u = amplitude * rng.standard_normal(dom.shape) * (support != "v")
    v = amplitude * rng.standard_normal(dom.shape) * (support != "u")
    rep, _ = fibering_project(spec, State.from_values(dom, u, v))
    ts = rep.t_star * np.geomspace(1e-4, 4.0, 2000)
    # the closed form fibering_slope evaluates, at every t at once
    signs = np.sign(_ray_data(spec, u, v).phi_prime(ts))
    changes = np.sum(np.diff(signs[signs != 0]) != 0)
    assert changes == 1


def test_fibering_nehari_form_agrees_on_manifold(bounded_spec):
    rng = np.random.default_rng(15)
    _, s = fibering_project(bounded_spec, random_state(bounded_spec, rng))
    for t in (0.4, 1.3, 2.0):
        a = fibering_slope(bounded_spec, s, t)
        b = fibering_slope_nehari_form(bounded_spec, s, t)
        assert abs(a - b) <= 1e-9 * (abs(a) + abs(b) + 1.0)


def test_manifold_inequality_and_ground_bound(bounded_spec, bounded_2d_spec):
    """On-manifold: int |u|^q+|v|^q < int f u and J >= (1/2-1/q)(1-delta)||s||^2."""
    rng = np.random.default_rng(16)
    for spec in (bounded_spec, bounded_2d_spec):
        delta, _ = spec.coupling_bound
        vol = spec.domain.cell_volume
        for _ in range(20):
            _, s = fibering_project(spec, random_state(spec, rng))
            u, v = s.u.values, s.v.values
            q_part = (np.sum(np.abs(u) ** spec.q) + np.sum(np.abs(v) ** spec.q)) * vol
            f_part = (np.sum(spec.f1.f_times_s(u)) + np.sum(spec.f2.f_times_s(v))) * vol
            assert q_part < f_part + 1e-9 * f_part
            J = energy(spec, s).total
            bound = (0.5 - 1.0 / spec.q) * (1.0 - delta) * norm_E(spec, s) ** 2
            assert J >= bound - 1e-9 * max(abs(J), bound)


def test_e_inner_matches_norm(bounded_2d_spec):
    rng = np.random.default_rng(17)
    s = random_state(bounded_2d_spec, rng)
    assert np.isclose(e_inner(bounded_2d_spec, s, s), norm_E(bounded_2d_spec, s) ** 2,
                      rtol=1e-12)


@pytest.mark.parametrize("fixture", ["small_bounded_spec", "bounded_2d_spec",
                                     "periodic_spec_1d", "periodic_spec_2d"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), amplitude=st.floats(1e-2, 1e2),
       support=st.sampled_from(["both", "u", "v"]),
       rows=st.sampled_from([None, 1, 2, 3, 4, 5, 6]))
def test_projection_moments_match_projected_state(request, fixture, seed, amplitude,
                                                  support, rows):
    """The moments the projection carries out are those of the state it
    returns: of a single state (``rows`` None), and of each row of a pair
    array of ``rows`` rows."""
    spec = request.getfixturevalue(fixture)
    rng = np.random.default_rng(seed)
    dom = spec.domain
    u = amplitude * rng.standard_normal((rows or 1,) + dom.shape) * (support != "v")
    v = amplitude * rng.standard_normal((rows or 1,) + dom.shape) * (support != "u")
    if rows is None:
        rep, s_on = fibering_project(spec, State.from_values(dom, u[0], v[0]))
        projected = [(rep.phi_at_t, rep.moments, s_on.pair())]
    else:
        rep, on = fibering_project(spec, np.stack((u, v), axis=1))
        projected = [(rep.phi_at_t[k], rep.moments.take(k), on[k]) for k in range(rows)]
    for phi_at_t, carried, pair in projected:
        fresh = _ray_data(spec, pair[0], pair[1])
        scale = (fresh.norm_sq + 2.0 * abs(fresh.cross) + fresh.q * fresh.mq
                 + sum(p * abs(c) for c, p in zip(fresh.coeffs, fresh.exps)))
        pairs = [
            (phi_at_t, fresh.breakdown().total),
            (carried.norm_sq, fresh.norm_sq),
            (carried.xi(), fresh.xi()),
            (carried.xi_slope(), fresh.xi_slope()),
        ]
        for got, want in pairs:
            assert abs(got - want) <= 1e-12 * scale


@pytest.mark.parametrize("fixture", ["small_bounded_spec", "bounded_2d_spec",
                                     "periodic_spec_1d", "periodic_spec_2d"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 6))
def test_batched_projection_rows_match_single_projections(request, fixture, seed, rows):
    """Projecting the rows of a pair array together gives, row by row and bit
    for bit, what projecting each state alone gives."""
    spec = request.getfixturevalue(fixture)
    rng = np.random.default_rng(seed)
    dom = spec.domain
    scales = rng.uniform(1e-2, 1e2, (rows, 1) + (1,) * dom.dimension)
    S = rng.standard_normal((rows, 2) + dom.shape) * scales
    rep, on = fibering_project(spec, S)
    assert on.shape == S.shape
    newton = 0
    for k in range(rows):
        alone, s_on = fibering_project(spec, State.from_pair(dom, S[k]))
        newton += alone.iterations
        assert (rep.t_star[k], rep.phi_at_t[k], rep.slope_residual[k]) == \
            (alone.t_star, alone.phi_at_t, alone.slope_residual)
        assert (rep.bracket[0][k], rep.bracket[1][k]) == alone.bracket
        assert np.array_equal(rep.moments.m[k], alone.moments.m)
        assert np.array_equal(on[k], s_on.pair())
    assert rep.iterations == newton


def test_projection_rejects_a_root_below_its_bracket(bounded_spec, monkeypatch):
    """A root whose fibering value falls below a bracket end fails the
    domination check of a batch of rows."""
    rng = np.random.default_rng(3)
    S = np.stack([random_state(bounded_spec, rng).pair() for _ in range(3)])
    fibering_project(bounded_spec, S)
    force_undominated_root(monkeypatch)
    with pytest.raises(RuntimeError, match="fibering maximizer does not dominate its bracket"):
        fibering_project(bounded_spec, S)


@pytest.mark.parametrize("moments, q, p", [
    ((1.0, 0.0, 1.0, 1e-10), 2.01, 2.02),   # the root lies near t = 1e1000
    ((1.0, 1.0, 1.0, 1.0), 3.0, 4.0),        # ||s||^2 < 2 int lam u v: phi' < 0 for all t
])
def test_bracket_ends_at_the_float_range(moments, q, p):
    """A ray whose ``phi'`` changes sign only past the float range, or never,
    is a one-line bracket failure, not an endless loop or an overflow."""
    rd = _RayData(np.array(moments), (p,), (1.0 / p,), q)
    with pytest.raises(RuntimeError, match="^fibering bracket failure: phi' has no sign change$"):
        _project_ray(rd)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 6))
def test_ray_moments_of_a_batch_equal_their_float_rows(bounded_2d_spec, seed, rows):
    """Evaluated on a batch, the fibering value, its slope and the scaled
    moments equal, bit for bit, the same row's evaluation on Python floats,
    as the projection's root finder and the ``fibering`` command use them."""
    spec = bounded_2d_spec   # non-integer exponents 2.5, 3.5 and 4.5
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((rows, 2) + spec.domain.shape)
    rd = _ray_data(spec, S[:, 0], S[:, 1])
    t = rng.uniform(0.5, 2.0, rows)
    for k in range(rows):
        row, tk = rd.take(k), float(t[k])
        assert (rd.phi(t)[k], rd.phi_prime(t)[k]) == (row.phi(tk), row.phi_prime(tk))
        assert rd.scaled(t).m[k].tolist() == row.scaled(tk).m.tolist()


def _bisect_root(rd, lo, hi):
    """``phi'`` root by plain bisection on ``psi = phi'/t`` down to adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if rd.psi(mid) > 0.0:
            lo = mid
        else:
            hi = mid


@settings(max_examples=200, deadline=None)
@given(norm_sq=st.floats(1e-3, 1e3), cross_frac=st.floats(-0.45, 0.45),
       coeffs=st.lists(st.floats(1e-4, 1e4), min_size=3, max_size=3),
       mq=st.floats(1e-4, 1e4))
def test_projection_root_on_random_moment_rows(bounded_2d_spec, norm_sq, cross_frac, coeffs, mq):
    """On moment rows drawn at random (with the structure's signs: a2 > 0 and
    positive power moments) the scalar root finder returns the root of phi'
    inside its bracket, to 1e-12 of a bisection reference, and phi(t*)
    dominates the bracket ends."""
    spec = bounded_2d_spec   # exponents 3.5 and 4.5 (u) and 4 (v), q = 2.5
    rd = _ray_data(spec, np.ones(spec.domain.shape), np.ones(spec.domain.shape))
    rd = type(rd)(np.array([norm_sq, cross_frac * norm_sq, mq] + coeffs), rd.exps,
                  rd.inv_p, rd.q)
    t, (lo, hi), iterations = _project_ray(rd)
    assert lo <= t <= hi and iterations <= 200
    assert rd.psi(lo) >= 0.0 >= rd.psi(hi)
    reference = _bisect_root(rd, lo, hi)
    assert abs(t - reference) <= 1e-12 * reference
    assert rd.phi(t) >= max(rd.phi(lo), rd.phi(hi)) - 1e-12 * abs(rd.phi(t))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), eps=st.floats(-1e-3, 1e-3))
def test_projection_next_to_the_manifold_reaches_roundoff(bounded_spec, seed, eps):
    """Rows next to the manifold, like every descent trial (t* = 1/(1 + eps)):
    Newton from t = 1 meets the root to roundoff within a few steps, also
    where its converged step rounds onto the bracket end it just moved."""
    s = random_state(bounded_spec, np.random.default_rng(seed))
    on = fibering_project(bounded_spec, s)[1]
    rd = _ray_data(bounded_spec, on.u.values, on.v.values)
    ray = rd.scaled(1.0 + eps)
    t, (lo, hi), iterations = _project_ray(ray)
    reference = _bisect_root(ray, lo, hi)
    assert abs(t - reference) <= 1e-14 * reference
    assert iterations <= 8


def _on_problem_domain(spec):
    """A nonzero state on the problem domain."""
    return State.from_values(spec.domain, np.ones(spec.domain.shape), np.ones(spec.domain.shape))


_REPORT = SolveReport(1.0, 0.0, 0.0, 0, 0, 1.0, 1.0, "converged")

# Every public function of energy, solver and multiplicity that takes a
# problem spec and a state, by its name (``Class.method`` for the methods of
# a public class that holds a spec), plus cases for a state in another
# argument position.
_STATE_FUNCTIONS = {
    "energy": lambda spec, s: energy(spec, s),
    "e_inner": lambda spec, s: e_inner(spec, _on_problem_domain(spec), s),
    "norm_E": lambda spec, s: norm_E(spec, s),
    "coercive_form": lambda spec, s: coercive_form(spec, s),
    "nehari_xi": lambda spec, s: nehari_xi(spec, s),
    "nehari_xi_slope": lambda spec, s: nehari_xi_slope(spec, s),
    "fibering_value": lambda spec, s: fibering_value(spec, s, 1.0),
    "fibering_slope": lambda spec, s: fibering_slope(spec, s, 1.0),
    "fibering_slope_nehari_form": lambda spec, s: fibering_slope_nehari_form(spec, s, 1.0),
    "grad_l2": lambda spec, s: grad_l2(spec, s),
    "xi_grad_l2": lambda spec, s: xi_grad_l2(spec, s),
    "grad_precond": lambda spec, s: grad_precond(spec, s),
    "grad_precond_given_g": lambda spec, s: grad_precond(spec, _on_problem_domain(spec), g=s),
    "fibering_project": lambda spec, s: fibering_project(spec, s),
    "minimize_on_nehari": lambda spec, s: minimize_on_nehari(spec, SolveConfig(), s),
    "m_map": lambda spec, s: m_map(spec, s),
    "m_inverse": lambda spec, s: m_inverse(spec, s),
    "orbit_distance": lambda spec, s: orbit_distance(spec, s, s),
    "orbit_distance_second": lambda spec, s: orbit_distance(spec, _on_problem_domain(spec), s),
    "SolutionSet.add": lambda spec, s: SolutionSet(spec).add(s, _REPORT),
    "SolutionSet.is_new_orbit": lambda spec, s: SolutionSet(spec).is_new_orbit(s),
}


@pytest.mark.parametrize("name", sorted(_STATE_FUNCTIONS))
def test_state_from_another_domain_is_rejected(name):
    """A state is evaluated only on its own domain, even when the shapes agree."""
    spec = make_spec(DomainSpec.dirichlet_box(1.0, 64))
    other = DomainSpec.dirichlet_box(2.0, 64)
    s = State.from_values(other, np.ones(64), np.ones(64))
    with pytest.raises(ValueError, match="problem domain"):
        _STATE_FUNCTIONS[name](spec, s)


def _takes_spec_and_state(fn, holds_spec=False) -> bool:
    params = inspect.signature(fn).parameters.values()
    return (holds_spec or any(p.name == "spec" for p in params)) and any(
        re.search(r"\bState\b", str(p.annotation)) for p in params)


def test_domain_table_covers_every_spec_aware_function():
    """The table above names every public function of energy, solver and
    multiplicity that takes a problem spec and a state, and every public
    method, taking a state, of a public class that holds a spec."""
    found = set()
    for module in ("energy", "solver", "multiplicity"):
        module = importlib.import_module(f"nehari.{module}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and _takes_spec_and_state(obj):
                found.add(name)
            elif inspect.isclass(obj) and "spec" in getattr(obj, "__dataclass_fields__", {}):
                found.update(f"{name}.{m}" for m, f in vars(obj).items()
                             if inspect.isfunction(f) and not m.startswith("_")
                             and _takes_spec_and_state(f, holds_spec=True))
    assert {"energy", "minimize_on_nehari", "orbit_distance", "SolutionSet.add"} <= found
    assert found - set(_STATE_FUNCTIONS) == set()


def test_state_owns_copies_of_its_values():
    """A state built from a pair array, whose components are views of it,
    keeps its values when the array changes, and leaves it writeable; its
    components must share one domain."""
    dom = DomainSpec.dirichlet_box(1.0, 8)
    P = np.ones((2, 8))
    s = State.from_pair(dom, P)
    P[0, 0] = 5.0
    assert s.u.values[0] == 1.0 and P.flags.writeable
    other = GridFunction.constant(DomainSpec.dirichlet_box(2.0, 8), 1.0)
    with pytest.raises(ValueError, match="grid functions live on different domains"):
        State(s.u, other)


def _scipy_shift_solve(domain, rhs, shifts):
    """Reference for ``_constant_shift_solve``: the same division by the
    symbol between scipy's type-1 ``dstn``/``idstn`` (``rfftn``/``irfftn``
    on a torus)."""
    axes = tuple(range(1, rhs.ndim))
    symbol = _shift_symbol(domain) + shifts.reshape((-1,) + (1,) * domain.dimension)
    if domain.periodic:
        coeff = scipy.fft.rfftn(rhs, axes=axes)
        coeff /= symbol
        return scipy.fft.irfftn(coeff, s=domain.shape, axes=axes)
    coeff = scipy.fft.dstn(rhs, type=1, axes=axes)
    coeff /= symbol
    return scipy.fft.idstn(coeff, type=1, axes=axes)


@st.composite
def _domains(draw):
    """A box or torus of dimension 1-3.  Half of the boxes get one axis
    longer than ``_DENSE_SINE_NODES``, which takes the FFT route: a 1D box
    on that route alone, a 2D or 3D one on both."""
    dim = draw(st.integers(1, 3))
    top = (64, 12, 6)[dim - 1]
    if draw(st.booleans()):
        periods = draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
        domain = DomainSpec.periodic_torus(periods, draw(st.integers(2, max(2, top // 3))))
    else:
        shape = draw(st.lists(st.integers(1, top), min_size=dim, max_size=dim))
        if draw(st.booleans()):
            shape[draw(st.integers(0, dim - 1))] = draw(
                st.integers(_DENSE_SINE_NODES + 1, _DENSE_SINE_NODES + 64))
        lengths = draw(st.lists(st.floats(0.1, 10.0), min_size=dim, max_size=dim))
        domain = DomainSpec.dirichlet_box(lengths, shape)
    return domain


@st.composite
def _shift_problems(draw):
    """A domain from ``_domains``, 1-16 right-hand sides with some entries
    +0.0 or -0.0, and a positive shift per right-hand side."""
    domain = draw(_domains())
    rows = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rhs = rng.standard_normal((rows,) + domain.shape)
    zeros = rng.random(rhs.shape) < draw(st.floats(0.0, 0.5))
    rhs[zeros] = np.copysign(0.0, rng.standard_normal(int(zeros.sum())))
    shifts = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=rows, max_size=rows)))
    return domain, rhs, shifts


def _one_row(domain, value=1.0):
    return domain, np.linspace(-1.0, 1.0, domain.size).reshape((1,) + domain.shape), \
        np.array([value])


@settings(max_examples=150, deadline=None)
@given(problem=_shift_problems())
# transform lengths 5462 and 4623, whose reciprocals in long double (as
# pocketfft computes them) round to other doubles than 1.0 / N, a 2D box with
# both axes on the FFT route, the default box and a 3D box
@example(problem=_one_row(DomainSpec.dirichlet_box(1.0, 2730)))
@example(problem=_one_row(DomainSpec.periodic_torus([67], 69)))
@example(problem=_one_row(DomainSpec.dirichlet_box(
    (1.0, 2.0), (_DENSE_SINE_NODES + 1, _DENSE_SINE_NODES + 2)), 0.5))
@example(problem=_one_row(DomainSpec.dirichlet_box(1.0, 256)))
@example(problem=_one_row(DomainSpec.dirichlet_box((1.0, 2.0, 3.0), (7, 1, 12)), 0.5))
def test_shift_solve_matches_scipy_per_route(problem):
    """On a torus, and on a box whose axes all take the FFT route, the numpy
    transforms reproduce scipy's solve byte for byte.  A box with an axis on
    the dense sine-matrix route agrees with it to roundoff: per right-hand
    side ``||g - g_scipy|| <= 1e-14 ||rhs|| / min(symbol)``, a bound on
    ``||g||`` itself (seen: up to 7e-16).  Every solution solves
    ``(-lap_h + c) g = r`` to a normwise backward error of 1e-12 (seen:
    below 4e-16)."""
    domain, rhs, shifts = problem
    g = _constant_shift_solve(domain, rhs, shifts)
    reference = _scipy_shift_solve(domain, rhs, shifts)
    assert g.shape == reference.shape and g.dtype == reference.dtype

    axes = tuple(range(1, rhs.ndim))
    norm = lambda a: np.sqrt(np.sum(a * a, axis=axes))
    if domain.periodic or min(domain.shape) > _DENSE_SINE_NODES:
        assert g.tobytes() == reference.tobytes()
    else:
        smallest = np.min(_shift_symbol(domain)) + shifts   # 1 / ||(-lap_h + c)^-1||
        assert np.all(norm(g - reference) * smallest <= 1e-14 * norm(rhs))

    c = shifts.reshape((-1,) + (1,) * domain.dimension)
    op_norm = 4.0 * np.sum(1.0 / np.square(domain.spacing)) + shifts   # Gershgorin bound
    residual = norm(_schrodinger_values(g, c, domain) - rhs)
    assert np.all(residual <= 1e-12 * (op_norm * norm(g) + norm(rhs)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, _DENSE_SINE_NODES))
@example(n=256)
def test_sine_matrix_is_a_cached_read_only_half_dst(n):
    """The sine matrix is symmetric, read-only and one cached object per
    length, and squares to ``(n + 1) / 2`` times the identity to roundoff
    (entrywise within ``4 sqrt(n)`` eps of it, relative; seen: up to
    ``1.02 sqrt(n)`` eps, at n = 272)."""
    S = _sine_matrix(n)
    assert S.shape == (n, n) and S.dtype == np.float64
    assert _sine_matrix(n) is S
    assert not S.flags.writeable
    with pytest.raises(ValueError):
        S[0, 0] = 0.0
    assert np.array_equal(S, S.T)
    scale = (n + 1) / 2.0
    assert np.max(np.abs(S @ S - scale * np.eye(n))) <= 4.0 * np.sqrt(n) * np.finfo(float).eps * scale


def test_default_box_solves_without_fft(monkeypatch):
    """A ground-state search on the default 256-node box calls no FFT: every
    sine transform is the dense product.  A box axis longer than
    ``_DENSE_SINE_NODES`` still takes the FFT route through ``_dst1``."""
    counts = {}
    for name in ("rfft", "rfftn", "irfftn", "_dst1"):
        count_calls(monkeypatch, counts, name)
    report, _ = find_ground_state(make_spec(DomainSpec.dirichlet_box(1.0, 256)), SolveConfig())
    assert report.status == "converged"
    assert counts == {}
    long_box = make_spec(DomainSpec.dirichlet_box(1.0, _DENSE_SINE_NODES + 1))
    report, _ = find_ground_state(long_box, SolveConfig(starts=1))
    assert report.status == "converged"
    assert counts["_dst1"] > 0 and counts["rfft"] == counts["_dst1"]
    assert "rfftn" not in counts and "irfftn" not in counts


def _assert_pcg_contract(domain, V, b, x):
    """``||(-lap_h + V) x - b|| <= _PCG_RTOL ||b||`` for every system."""
    axes = tuple(range(b.ndim - domain.dimension, b.ndim))
    norm = lambda a: np.sqrt(np.sum(a * a, axis=axes))
    residual = _schrodinger_values(x, V, domain) - b
    assert np.all(norm(residual) <= _PCG_RTOL * norm(b))


@st.composite
def _constant_potential_problems(draw):
    """A domain from ``_domains`` with one constant potential, or a pair of
    them (different values for u and v), and 1-16 right-hand sides."""
    domain = draw(_domains())
    values = draw(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2, unique=True))
    if draw(st.booleans()):
        V = np.stack([np.full(domain.shape, c) for c in values])
        lead = (draw(st.integers(1, 8)), 2)
    else:
        V = np.full(domain.shape, values[0])
        lead = (draw(st.integers(1, 16)),)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return domain, V, rng.standard_normal(lead + domain.shape)


@settings(max_examples=100, deadline=None)
@given(problem=_constant_potential_problems())
# constant values whose mean over the grid rounds one ulp off them
@example(problem=(DomainSpec.dirichlet_box(1.0, 13), np.full(13, 0.3),
                  np.linspace(-1.0, 1.0, 26).reshape(2, 13)))
@example(problem=(DomainSpec.periodic_torus([2], 8), np.stack([np.full(16, 1.1), np.full(16, 0.7)]),
                  np.linspace(-1.0, 1.0, 64).reshape(2, 2, 16)))
def test_constant_potentials_are_solved_exactly(problem):
    """With every potential constant, the solve is the shift solve at those
    values, bit for bit, in 0 iterations, and meets the PCG contract."""
    domain, V, b = problem
    x, iterations = _pcg_schrodinger(domain, V, b)
    assert iterations == 0 and x.shape == b.shape
    shifts = np.broadcast_to(V.reshape(V.shape[:V.ndim - domain.dimension] + (-1,))[..., 0],
                             b.shape[:b.ndim - domain.dimension])
    exact = _constant_shift_solve(domain, b.reshape((-1,) + domain.shape), shifts.ravel())
    assert x.tobytes() == exact.tobytes()
    _assert_pcg_contract(domain, V, b, x)


def _cosine_potential(domain):
    return 1.0 + 0.5 * np.cos(2.0 * np.pi * domain.axis_coordinates(0))


@pytest.mark.parametrize("varying", ["cosine", "cosine_v_only", "one_ulp"])
@pytest.mark.parametrize("domain", [DomainSpec.dirichlet_box(1.0, 64),
                                    DomainSpec.periodic_torus([4], 16)])
def test_varying_potentials_still_iterate(domain, varying):
    """A potential that is not one value throughout, even by one ulp at one
    node or in one component of a pair, goes through conjugate gradients."""
    V = np.ones(domain.shape)
    if varying == "one_ulp":
        V[domain.size // 2] = np.nextafter(1.0, 2.0)
    elif varying == "cosine":
        V = _cosine_potential(domain)
    else:
        V = np.stack([V, _cosine_potential(domain)])
    lead = (3,) + V.shape[:V.ndim - domain.dimension]
    b = np.random.default_rng(5).standard_normal(lead + domain.shape)
    x, iterations = _pcg_schrodinger(domain, V, b)
    assert iterations > 0
    _assert_pcg_contract(domain, V, b, x)


@pytest.mark.parametrize("domain", [DomainSpec.dirichlet_box(1.0, 64),
                                    DomainSpec.periodic_torus([4], 16)])
def test_zero_right_hand_sides_of_varying_potentials_need_no_iteration(domain):
    """Systems whose potential varies and whose right-hand side is zero leave
    nothing to iterate: they come back as zeros, the constant-potential
    systems beside them as their shift solves, in 0 iterations."""
    V = np.stack([np.ones(domain.shape), _cosine_potential(domain)])
    b = np.random.default_rng(6).standard_normal((3, 2) + domain.shape)
    b[:, 1] = 0.0
    x, iterations = _pcg_schrodinger(domain, V, b)
    assert iterations == 0 and x.shape == b.shape and not x[:, 1].any()
    assert x[:, 0].tobytes() == _constant_shift_solve(domain, b[:, 0], np.ones(3)).tobytes()


def test_default_box_preconditions_without_the_stencil(monkeypatch):
    """On the default box (V1 = V2 = 1) every preconditioned gradient of a
    ground-state search is the exact shift solve: no stencil product inside
    ``_pcg_schrodinger`` and 0 iterations."""
    energy_module = sys.modules["nehari.energy"]
    pcg, stencil = energy_module._pcg_schrodinger, energy_module._schrodinger_values
    seen = {"calls": 0, "iterations": 0, "inside": False, "stencil": 0}

    def counted_pcg(*args, **kwargs):
        seen["inside"] = True
        try:
            result = pcg(*args, **kwargs)
        finally:
            seen["inside"] = False
        seen["calls"] += 1
        seen["iterations"] += result[1]
        return result

    def counted_stencil(*args, **kwargs):
        seen["stencil"] += seen["inside"]
        return stencil(*args, **kwargs)

    monkeypatch.setattr(energy_module, "_pcg_schrodinger", counted_pcg)
    monkeypatch.setattr(energy_module, "_schrodinger_values", counted_stencil)
    report, _ = find_ground_state(make_spec(DomainSpec.dirichlet_box(1.0, 256)), SolveConfig())
    assert report.status == "converged"
    assert seen["calls"] > 0 and seen["iterations"] == 0 and seen["stencil"] == 0


def _pair_problem(domain, seed, rows, varying):
    """A problem on ``domain`` with distinct nonlinearities and ``rows`` random
    pair rows.  ``varying`` flags which of V1, V2 and lambda vary over the
    grid (V1 and V2 within a factor 3 of a random level), the others are
    constant."""
    rng = np.random.default_rng(seed)

    def field(vary, level):
        values = np.full(domain.shape, level)
        if vary:
            values = values * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, domain.shape))
        return GridFunction(domain, values)

    V1, V2, lam = (field(vary, level) for vary, level in
                   zip(varying, (rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0), rng.uniform(-1.0, 1.0))))
    spec = ProblemSpec(domain=domain, q=rng.uniform(2.2, 3.8),
                       f1=Nonlinearity(((1.0, 4.0), (0.5, 3.5))), f2=Nonlinearity(((0.7, 4.5),)),
                       V1=V1, V2=V2, lam=lam)
    scales = rng.uniform(1e-2, 1e2, (rows, 2) + (1,) * domain.dimension)
    return spec, rng.standard_normal((rows, 2) + domain.shape) * scales


@st.composite
def _pair_problems(draw):
    """A problem of ``_pair_problem`` on a domain of ``_domains`` with 1-6 rows."""
    return _pair_problem(draw(_domains()), draw(st.integers(0, 2 ** 32 - 1)),
                         draw(st.integers(1, 6)),
                         draw(st.tuples(st.booleans(), st.booleans(), st.booleans())))


def _component_kernels(spec, S):
    """``grad_l2``, ``xi_grad_l2``, the block operator and the preconditioned
    ``grad_l2`` of the rows of ``S``, written one component at a time."""
    q, lam, dom = spec.q, spec.lam.values, spec.domain
    grad, xi, block, precond = (np.empty_like(S) for _ in range(4))
    for c, V, nl in ((0, spec.V1.values, spec.f1), (1, spec.V2.values, spec.f2)):
        u, v = S[:, c], S[:, 1 - c]
        block[:, c] = _schrodinger_values(u, V, dom)
        grad[:, c] = block[:, c] - lam * v - nl.f(u) + np.abs(u) ** (q - 2.0) * u
        xi[:, c] = (2.0 * (block[:, c] - lam * v) - nl.f_prime(u) * u - nl.f(u)
                    + q * np.abs(u) ** (q - 2.0) * u)
        precond[:, c] = _pcg_schrodinger(dom, V, grad[:, c])[0]
    return grad, xi, block, precond


def _pair_kernels(spec, S):
    """The same four kernels as the library computes them on the pair array."""
    G = grad_l2(spec, S)
    return G, xi_grad_l2(spec, S), _apply_block(spec, S), _precondition(spec, G)


def _has_matrix_axis(domain):
    """Whether the shift solve on ``domain`` transforms an axis by a product
    with the sine matrix."""
    return not domain.periodic and min(domain.shape) <= _DENSE_SINE_NODES


@settings(max_examples=60, deadline=None)
@given(problem=_pair_problems())
# above 2^15 nodes per pair: a 2D torus and a 3D box on the dense sine route,
# both with every field varying
@example(problem=_pair_problem(DomainSpec.periodic_torus([8, 8], 24), 1, 3, (True,) * 3))
@example(problem=_pair_problem(DomainSpec.dirichlet_box((1.0, 1.0, 1.0), (33, 33, 33)),
                               2, 2, (True,) * 3))
def test_pair_kernels_match_the_component_formulas(problem):
    """The gradients, the block operator and its inverse act on whole pair
    arrays and give, bit for bit, the component-at-a-time formulas; every row
    of a batch is what that row gives alone, as a pair array and as a state.

    The inverse is held to bits only where the shift solve has no sine-matrix
    axis: OpenBLAS may round a row of a matrix product differently with a
    different number of lines (at 17 nodes, 2 or 3 lines against 4 or more),
    and the component formulas solve half as many lines as the pair route.
    There it is held to the solve's residual contract.
    """
    spec, S = problem
    dom = spec.domain
    exact = 3 if _has_matrix_axis(dom) else 4
    kernels = _pair_kernels(spec, S)
    for got, want in zip(kernels[:exact], _component_kernels(spec, S)):
        assert got.shape == S.shape and got.tobytes() == want.tobytes()
    for k in range(len(S)):
        alone = _pair_kernels(spec, S[k:k + 1])
        for a, b in zip(alone[:exact], kernels):
            assert a.tobytes() == b[k:k + 1].tobytes()
    _assert_pcg_contract(dom, spec.potential_pair, kernels[0], kernels[3])
    s = State.from_pair(dom, S[0])
    assert grad_l2(spec, s).pair().tobytes() == kernels[0][0].tobytes()
    assert xi_grad_l2(spec, s).pair().tobytes() == kernels[1][0].tobytes()


_NO_SCIPY_RUN = """
import sys
from nehari import (DomainSpec, GridFunction, Nonlinearity, ProblemSpec,
                    SolveConfig, eigenbasis, find_ground_state)

def spec(domain):
    one, f = GridFunction.constant(domain, 1.0), Nonlinearity(((1.0, 4.0),))
    return ProblemSpec(domain=domain, q=3.0, f1=f, f2=f, V1=one, V2=one,
                       lam=GridFunction.constant(domain, 0.3))

box = spec(DomainSpec.dirichlet_box(1.0, 64))
for problem in (box, spec(DomainSpec.periodic_torus([4], 8))):
    report, _ = find_ground_state(problem, SolveConfig(starts=2))
    assert report.status == "converged", report.status
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
print(" ".join(repr(lam) for lam, _ in eigenbasis(box, 3)))
"""


def test_solves_load_no_scipy():
    """Importing the package and solving on a box and a torus loads no scipy
    module; the eigenbasis, which imports scipy itself, still works after."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    h = 1.0 / 65.0
    exact = [4.0 / h ** 2 * np.sin(np.pi * k * h / 2.0) ** 2 + 1.0 for k in (1, 1, 2)]
    np.testing.assert_allclose([float(x) for x in proc.stdout.split()], exact, rtol=1e-10)


# ---------------------------------------------------------------------------
# the metric route: one operator pairing, summed in sorted order
# ---------------------------------------------------------------------------


_METRIC_RTOL = 1e-13   # symmetry and moment agreement, relative to ||s1|| ||s2||


@st.composite
def _metric_problems(draw):
    """A domain from ``_domains``, a problem on it with a varying ``V1`` (cell
    periodic on tori) and a constant or varying ``V2``, and two states whose
    components are random, scaled, or zero."""
    domain = draw(_domains())
    V2 = 2.0 if draw(st.booleans()) else (lambda *x: 1.5 + np.cos(2.0 * np.pi * x[-1]))
    spec = make_spec(domain, V1=lambda *x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x[0]),
                     V2=V2, lam=0.1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    states = []
    for _ in range(2):
        amplitude = draw(st.floats(1e-3, 1e3))
        support = draw(st.sampled_from(["both", "u", "v"]))
        u = amplitude * rng.standard_normal(domain.shape) * (support != "v")
        v = amplitude * rng.standard_normal(domain.shape) * (support != "u")
        states.append(State.from_values(domain, u, v))
    return spec, *states


def _shifted(s, z):
    return State(shift(s.u, z), shift(s.v, z))


@settings(max_examples=60, deadline=None)
@given(problem=_metric_problems())
def test_metric_route_is_one_sorted_operator_pairing(problem):
    """``e_inner``, ``norm_E`` and ``h_inner`` are bitwise invariant under
    every cell shift of a torus; ``norm_E`` is ``sqrt(e_inner(s, s))`` bit
    for bit; ``e_inner`` is symmetric, and ``norm_E^2`` agrees with the
    moments' forward-difference ``norm_sq``, to ``_METRIC_RTOL``."""
    spec, s1, s2 = problem
    dom = spec.domain
    n1, n2 = norm_E(spec, s1), norm_E(spec, s2)
    assert n1 == math.sqrt(e_inner(spec, s1, s1))
    assert n2 == math.sqrt(e_inner(spec, s2, s2))
    assert abs(e_inner(spec, s1, s2) - e_inner(spec, s2, s1)) <= _METRIC_RTOL * n1 * n2
    assert abs(h_inner(s1.u, s2.u, spec.V1) - h_inner(s2.u, s1.u, spec.V1)) \
        <= _METRIC_RTOL * n1 * n2
    for s, n in ((s1, n1), (s2, n2)):
        assert abs(n * n - _ray_data(spec, s.u.values, s.v.values).norm_sq) \
            <= _METRIC_RTOL * n * n
    if not dom.periodic:
        return
    ip, hu, hv = (e_inner(spec, s1, s2), h_inner(s1.u, s2.u, spec.V1),
                  h_inner(s1.v, s2.v, spec.V2))
    for z in np.ndindex(tuple(int(p) for p in dom.lengths)):
        t1, t2 = _shifted(s1, z), _shifted(s2, z)
        assert norm_E(spec, t1) == n1 and norm_E(spec, t2) == n2
        assert e_inner(spec, t1, t2) == ip
        assert h_inner(t1.u, t2.u, spec.V1) == hu and h_inner(t1.v, t2.v, spec.V2) == hv


def test_metric_route_runs_no_moment_pass(monkeypatch, bounded_2d_spec, periodic_spec_1d):
    """``norm_E``, ``e_inner`` and ``h_inner`` pair the operator with the
    state: no ray moments and no forward-difference energy."""
    calls = []
    grid_module, energy_module = sys.modules["nehari.grid"], sys.modules["nehari.energy"]
    for module, name in ((grid_module, "_gradient_energy"), (energy_module, "_gradient_energy"),
                         (energy_module, "_ray_data")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    rng = np.random.default_rng(19)
    for spec in (bounded_2d_spec, periodic_spec_1d):
        s1, s2 = random_state(spec, rng), random_state(spec, rng)
        norm_E(spec, s1)
        e_inner(spec, s1, s2)
        h_inner(s1.u, s2.u, spec.V1)
        h_norm_sq(s1.v, spec.V2)
    assert calls == []
    energy_module._ray_data(spec, s1.u.values, s1.v.values)   # the counters are live
    assert calls == ["_ray_data", "_gradient_energy", "_gradient_energy"]
