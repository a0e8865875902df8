"""Eigenbasis, Fountain diagnostics, orbit distances, deflation."""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nehari import multiplicity as multiplicity_module
from nehari.grid import DomainSpec, _roll_cells, _schrodinger_values, shift
from nehari.energy import State, _precondition, _ray_data, e_inner, norm_E
from nehari.solver import (
    SolveConfig,
    _descend,
    _EnergyObjective,
    _pair_inner,
    _Points,
    _evaluate,
    find_ground_state,
    initial_states,
)
from nehari.multiplicity import (
    SolutionSet,
    _DeflatedObjective,
    _block_eigenpairs,
    _pnorm_and_grad,
    _sphere_ascent,
    deflated_search,
    eigenbasis,
    find_distinct_solutions,
    fountain_diagnostics,
    orbit_distance,
)
from conftest import (
    count_calls,
    make_spec,
    projected_rows,
    random_state,
    ray_rows,
    realized_rows,
)


def test_eigenbasis_dirichlet_formula(small_bounded_spec):
    """Block eigenvalues follow the stencil formula; pairs come doubled."""
    spec = small_bounded_spec
    n = spec.domain.shape[0]
    h = spec.domain.spacing[0]
    pairs = eigenbasis(spec, 8)
    exact = [4.0 / h ** 2 * np.sin(j * np.pi * h / 2.0) ** 2 + 1.0 for j in (1, 2, 3, 4)]
    for j, lam in enumerate(exact):
        # identical u- and v-blocks produce each eigenvalue twice
        assert abs(pairs[2 * j][0] - lam) <= 1e-9 * lam
        assert abs(pairs[2 * j + 1][0] - lam) <= 1e-9 * lam
    vals = [lam for lam, _ in pairs]
    assert vals == sorted(vals)


def test_eigenbasis_orthonormal(bounded_2d_spec):
    pairs = eigenbasis(bounded_2d_spec, 12)
    G = np.array([[e_inner(bounded_2d_spec, si, sj) for _, sj in pairs]
                  for _, si in pairs])
    assert np.max(np.abs(G - np.eye(12))) <= 1e-10


def test_eigenbasis_above_the_dense_limit():
    """Grids above 2500 nodes take the shift-invert Lanczos branch."""
    dom = DomainSpec.dirichlet_box((1.0, 1.0), (52, 52))
    basis = eigenbasis(make_spec(dom, V1=1.0, V2=2.0), 10)
    axis = [(4.0 / h ** 2) * np.sin(np.pi * np.arange(1, n + 1) / (2.0 * (n + 1))) ** 2
            for n, h in zip(dom.shape, dom.spacing)]
    lap = np.add.outer(axis[0], axis[1]).ravel()
    exact = np.sort(np.concatenate([lap + 1.0, lap + 2.0]))[:10]
    found = np.array([lam for lam, _ in basis])
    assert np.max(np.abs(found - exact) / exact) <= 1e-12

    # varying potential: accurate pairs, orthonormal in the block inner product
    dom = DomainSpec.dirichlet_box((1.0, 1.0), (56, 56))
    spec = make_spec(dom, V1=lambda x, y: 1.0 + 0.5 * np.sin(np.pi * x) * y, V2=2.0)
    basis = eigenbasis(spec, 10)
    for lam, s in basis:
        e, V = (s.u, spec.V1) if np.any(s.u.values) else (s.v, spec.V2)
        r = _schrodinger_values(e.values, V.values, dom) - lam * e.values
        assert np.linalg.norm(r) <= 1e-9 * lam * np.linalg.norm(e.values)
    gram = np.array([[e_inner(spec, a, b) for _, b in basis] for _, a in basis])
    assert np.max(np.abs(gram - np.eye(len(basis)))) <= 1e-9


def test_eigenbasis_above_the_dense_limit_repeats_bitwise():
    """The Lanczos branch starts from a fixed vector, so a second call in the
    same process returns bitwise-equal eigenvalues and eigenvectors."""
    dom = DomainSpec.dirichlet_box((1.0, 1.0), (56, 56))
    V = np.ones(dom.shape)
    (vals1, vecs1), (vals2, vecs2) = (_block_eigenpairs(dom, V, 10) for _ in range(2))
    assert np.array_equal(vals1, vals2) and np.array_equal(vecs1, vecs2)


def test_eigenbasis_guards(small_bounded_spec, monkeypatch):
    import scipy.sparse.linalg

    def no_lanczos(*args, **kwargs):
        raise AssertionError("eigsh was called")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_lanczos)
    with pytest.raises(ValueError):
        eigenbasis(small_bounded_spec, 1000)   # more than 2n pairs
    big = make_spec(DomainSpec.dirichlet_box((1.0, 1.0), (128, 128)))
    with pytest.raises(ValueError):
        eigenbasis(big, 4)
    # above 2500 nodes Lanczos gives fewer pairs than nodes: rejected before any Lanczos work
    lanczos = make_spec(DomainSpec.dirichlet_box((1.0, 1.0), (51, 51)))
    with pytest.raises(ValueError, match="k=2601 needs every eigenpair of a 2601-node block"):
        eigenbasis(lanczos, 2601)


def test_orbit_distance_quotients(periodic_spec_1d):
    rng = np.random.default_rng(0)
    spec = periodic_spec_1d
    s = random_state(spec, rng)
    assert orbit_distance(spec, s, State(shift(s.u, (3,)), shift(s.v, (3,)))) \
        <= 1e-7 * norm_E(spec, s)
    assert orbit_distance(spec, s, s.scaled(-1.0)) <= 1e-7 * norm_E(spec, s)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), periodic=st.booleans(), cell=st.integers(0, 7),
       sign=st.sampled_from([1.0, -1.0]), move_first=st.booleans())
def test_orbit_distance_pseudometric(periodic_spec_1d, small_bounded_spec, seed, periodic,
                                     cell, sign, move_first):
    """On random states the orbit distance is symmetric, obeys the triangle
    inequality, and does not see a sign flip and cell shift of either
    argument."""
    spec = periodic_spec_1d if periodic else small_bounded_spec
    dom = spec.domain
    rng = np.random.default_rng(seed)
    a, b, c = (random_state(spec, rng) for _ in range(3))
    dab = orbit_distance(spec, a, b)
    dba = orbit_distance(spec, b, a)
    assert abs(dab - dba) <= 1e-9 * (dab + 1.0)
    assert orbit_distance(spec, a, c) <= dab + orbit_distance(spec, b, c) + 1e-9

    z = (cell,) if periodic else ()
    pair = (a if move_first else b).pair()
    moved = State.from_pair(dom, sign * _roll_cells(pair, z, dom))
    d = orbit_distance(spec, moved, b) if move_first else orbit_distance(spec, a, moved)
    assert abs(d - dab) <= 1e-12 * dab


def test_orbit_distance_bounded_sign_quotient(small_bounded_spec):
    rng = np.random.default_rng(2)
    s = random_state(small_bounded_spec, rng)
    assert orbit_distance(small_bounded_spec, s, s.scaled(-1.0)) == 0.0
    t = random_state(small_bounded_spec, rng)
    direct = min(
        norm_E(small_bounded_spec, State.from_values(
            s.domain, s.u.values - t.u.values, s.v.values - t.v.values)),
        norm_E(small_bounded_spec, State.from_values(
            s.domain, s.u.values + t.u.values, s.v.values + t.v.values)),
    )
    assert abs(orbit_distance(small_bounded_spec, s, t) - direct) <= 1e-9 * direct


def test_fountain_diagnostics_small(small_bounded_spec):
    spec = small_bounded_spec
    rep = fountain_diagnostics(spec, 10, seed=0)
    assert len(rep.beta) == 10
    assert all(b2 <= b1 for b1, b2 in zip(rep.beta, rep.beta[1:]))
    assert rep.beta[-1] < rep.beta[0]
    assert all(a <= 0.0 for _, a in rep.a_check)
    assert all(rho >= 1.0 for rho, _ in rep.a_check)

    # independent recomputation of the closed formulas from beta
    p = spec.p_max
    delta, _ = spec.coupling_bound
    c_tilde = max(sum(a for a, _ in nl.terms) for nl in (spec.f1, spec.f2))
    vol_omega = float(np.prod(spec.domain.lengths))
    for b, r, bl in zip(rep.beta, rep.r, rep.b_lower):
        base = 2.0 * c_tilde * (p / (1.0 - delta)) * b ** p
        assert np.isclose(r, base ** (1.0 / (2.0 - p)), rtol=1e-12)
        expected = (1.0 - delta) * (0.5 - 1.0 / p) * base ** (2.0 / (2.0 - p)) \
            - 2.0 * c_tilde * vol_omega
        assert np.isclose(bl, expected, rtol=1e-12)

    text = rep.format_text()
    assert text.splitlines()[0] == "k,beta,r,b_lower,rho,a_max"


def test_fountain_b_lower_trend(small_bounded_spec):
    rep = fountain_diagnostics(small_bounded_spec, 12, seed=1)
    tail = rep.b_lower[-4:]
    assert all(b2 >= b1 for b1, b2 in zip(tail, tail[1:]))


@lru_cache(maxsize=None)
def _default_box_tails():
    """Basis lines of the 40-pair eigenbasis of the default 256-node box, each
    pair raveled as one ``(u, v)`` line."""
    spec = make_spec(DomainSpec.dirichlet_box(1.0, 256))
    B = np.stack([s.pair().ravel() for _, s in eigenbasis(spec, 40)])
    return B, spec.p_max, spec.domain.cell_volume


def _reference_value_and_grad(x, B, p, vol):
    """``|u|_p + |v|_p`` at the coordinates ``x`` and its tangent gradient on
    the sphere, block by block."""
    n = B.shape[1] // 2
    total, grad = 0.0, np.zeros_like(x)
    for block in (B[:, :n], B[:, n:]):
        w = x @ block
        mp = float(np.sum(np.abs(w) ** p)) * vol
        if mp > 0.0:
            total += mp ** (1.0 / p)
            grad += mp ** (1.0 / p - 1.0) * (block @ (np.abs(w) ** (p - 1.0) * np.sign(w))) * vol
    return total, grad - total * x


def _reference_ascent(x0, B, p, vol):
    """One start climbing alone, one trial and one gradient at a time.

    Returns the final value and whether the row stopped by the stationarity
    test rather than by the step floor or the step cap.
    """
    x = x0 / np.linalg.norm(x0)
    val, g = _reference_value_and_grad(x, B, p, vol)
    step = 1.0
    for _ in range(200):
        while step > 1e-12:
            y = x + step * g
            y /= np.linalg.norm(y)
            val_y, g_y = _reference_value_and_grad(y, B, p, vol)
            if val_y > val:
                break
            step *= 0.5
        else:
            return val, False
        s = y - x
        sy = s @ (g - g_y)
        step = (s @ s) / sy if sy > 0.0 else 1.5 * step
        x, val, g = y, val_y, g_y
        if np.linalg.norm(g) <= 1e-7 * val:
            return val, True
    return val, False


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 30), rows=st.integers(1, 6))
def test_batched_ascent_rows_match_single_starts(seed, k, rows):
    """Each row of a batched ascent climbs as that start does on its own."""
    B, p, vol = _default_box_tails()
    B = B[k - 1:]
    X0 = np.random.default_rng(seed).standard_normal((rows, len(B)))
    X, vals = _sphere_ascent(X0, B, p, vol)
    assert X.shape == X0.shape
    assert np.allclose(np.linalg.norm(X, axis=1), 1.0, rtol=0.0, atol=1e-14)
    for i in range(rows):
        _, alone = _sphere_ascent(X0[i:i + 1], B, p, vol)
        assert abs(vals[i] - alone[0]) <= 1e-12 * abs(alone[0])
        reference, _ = _reference_ascent(X0[i], B, p, vol)
        assert abs(vals[i] - reference) <= 1e-12 * reference


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 30), rows=st.integers(1, 6),
       one_block=st.booleans())
def test_ascent_rows_climb_to_stationary_points(seed, k, rows, one_block):
    """Returned rows are unit vectors, no row ends below its start, and a row
    that stops by convergence is stationary on the sphere: its tangent
    gradient, recomputed block by block, is at most 1e-7 of its value (up to
    the roundoff of the recomputation, 1e-6 of that bound)."""
    B, p, vol = _default_box_tails()
    B = B[k - 1:]
    X0 = np.random.default_rng(seed).standard_normal((rows, len(B)))
    if one_block:
        # starts in the span of the u-block pairs: the v-block term stays 0
        X0 *= np.any(B.reshape(len(B), 2, -1)[:, 0] != 0.0, axis=1)
        X0 = X0[np.any(X0 != 0.0, axis=1)]
    if not len(X0):
        return
    X, vals = _sphere_ascent(X0, B, p, vol)
    assert np.allclose(np.linalg.norm(X, axis=1), 1.0, rtol=0.0, atol=1e-14)
    start, _ = _pnorm_and_grad(X0 / np.linalg.norm(X0, axis=1, keepdims=True), B, p, vol)
    assert np.all(vals >= start)
    for x, x0 in zip(X, X0):
        _, converged = _reference_ascent(x0, B, p, vol)
        if converged:
            f, g = _reference_value_and_grad(x, B, p, vol)
            assert np.linalg.norm(g) <= 1e-7 * f * (1.0 + 1e-6)


def test_pnorm_gradient_rows_match_central_differences():
    B, p, vol = _default_box_tails()
    B = B[4:]
    rng = np.random.default_rng(21)
    X = rng.standard_normal((3, len(B)))
    # a row that lives in the u-block alone: the v-block term vanishes there
    X[2] = np.where(np.any(B.reshape(len(B), 2, -1)[:, 0] != 0.0, axis=1), X[2], 0.0)
    _, grad = _pnorm_and_grad(X, B, p, vol)
    G = grad(np.arange(len(X)))
    assert np.all(np.isfinite(G))
    h = 1e-6
    for j in range(X.shape[1]):
        e = np.zeros(X.shape[1])
        e[j] = h
        plus, _ = _pnorm_and_grad(X + e, B, p, vol)
        minus, _ = _pnorm_and_grad(X - e, B, p, vol)
        assert np.allclose((plus - minus) / (2.0 * h), G[:, j], rtol=0.0,
                           atol=1e-7 * np.max(np.abs(G)))
    # the gradient of a subset of rows is those rows of the full gradient
    assert np.allclose(grad(np.array([2, 0])), G[[2, 0]], rtol=1e-14,
                       atol=1e-15 * np.max(np.abs(G)))


def test_fountain_beta_golden(bounded_spec):
    """beta_1 and beta_30 of the default box at seed 0, as first recorded.

    The radius check draws its directions after the ascents, and its values
    at k = 2 and 4 come from random directions, so they also pin how much
    of the random stream the ascents consume.
    """
    rep = fountain_diagnostics(bounded_spec, 30, seed=0)
    golden = [(rep.beta[0], 0.4786737085280719), (rep.beta[-1], 0.03997081480666586),
              (rep.a_check[1][1], -880.2067604781896),
              (rep.a_check[3][1], -1384.801021782949)]
    for got, want in golden:
        assert abs(got - want) <= 1e-12 * abs(want)
    assert (rep.a_check[1][0], rep.a_check[3][0]) == (32.0, 64.0)


def test_solution_set_computes_each_norm_once(monkeypatch, small_bounded_spec):
    """Distinctness reads its norms from the orbit realizer: no moment pass,
    one realizer call per orbit test and one for the pairwise distances."""
    spec = small_bounded_spec
    rep, s = find_ground_state(spec, SolveConfig(seed=4, starts=3))
    sols = SolutionSet(spec)
    counts = {}
    for name in ("norm_E", "_ray_data", "_orbit_realizer"):
        count_calls(monkeypatch, counts, name)
    assert sols.add(s, rep) == "added"
    assert sols.add(State(s.v, s.u), rep) == "twin"
    assert sols.add(s.scaled(-1.0), rep) == "known"
    assert not sols.is_new_orbit(s)
    assert sols.is_new_orbit(s.scaled(0.5))
    assert counts.get("norm_E", 0) == 0
    assert counts.get("_ray_data", 0) == 0
    assert counts["_orbit_realizer"] == 5


def test_deflated_search_empty_equals_ground(small_bounded_spec):
    cfg = SolveConfig(seed=3, starts=3)
    rep_g, s_g = find_ground_state(small_bounded_spec, cfg)
    rep_d, s_d = deflated_search(small_bounded_spec, cfg, SolutionSet(small_bounded_spec))
    assert rep_d == rep_g
    assert np.array_equal(s_d.u.values, s_g.u.values)


def test_solution_set_bookkeeping(small_bounded_spec):
    spec = small_bounded_spec
    cfg = SolveConfig(seed=4, starts=3)
    rep, s = find_ground_state(spec, cfg)
    sols = SolutionSet(spec)
    assert sols.add(s, rep) == "added"
    assert sols.add(s, rep) == "known"
    swapped = State(s.v, s.u)
    assert sols.add(swapped, rep) == "twin"     # distinct orbit, same level
    assert len(sols) == 1 and len(sols.twin_orbits) == 1


def test_second_solution_above_ground(small_bounded_spec):
    cfg = SolveConfig(seed=5, starts=3)
    sols = find_distinct_solutions(small_bounded_spec, cfg, target_count=2)
    assert len(sols) >= 2
    energies = [r.energy for _, r in sols.entries]
    assert energies[1] > energies[0]
    assert all(r.grad_residual <= cfg.grad_tol for _, r in sols.entries)


def test_find_distinct_solutions_full(bounded_spec):
    cfg = SolveConfig(seed=6, starts=4)
    sols = find_distinct_solutions(bounded_spec, cfg, target_count=3)
    assert len(sols) >= 3
    energies = [r.energy for _, r in sols.entries]
    scale = abs(energies[0])
    assert all(e2 - e1 > 1e-6 * scale for e1, e2 in zip(energies, energies[1:]))
    n = len(sols)
    for i in range(n):
        for j in range(i + 1, n):
            si, sj = sols.entries[i][0], sols.entries[j][0]
            thresh = 1e-4 * max(norm_E(bounded_spec, si), norm_E(bounded_spec, sj))
            assert sols.pairwise_distances[i, j] > thresh
    # every entry satisfies the manifold invariants
    for s, r in sols.entries:
        assert r.xi_residual <= 1e-10 * r.norm ** 2
    manifest = sols.format_manifest([f"sol{i:02d}" for i in range(len(sols))], 3)
    assert manifest.startswith("index,energy")


def test_collapse_budget_terminates(monkeypatch, small_bounded_spec):
    monkeypatch.setattr(multiplicity_module, "_COLLAPSE_BUDGET", 2)
    cfg = SolveConfig(seed=7, starts=2, max_iters=300)
    sols = find_distinct_solutions(small_bounded_spec, cfg, target_count=50)
    assert len(sols) < 50   # budget exhausted without hanging


def test_failed_deflated_search_counts_as_a_collapse(monkeypatch, small_bounded_spec):
    """A deflated search that raises ``RuntimeError`` (no start converged, a
    non-finite value) is one fruitless attempt: the budget of 2 ends the
    search after 2 attempts, with only the ground state stored."""
    attempts = []

    def failing(spec, config, solutions):
        attempts.append(config.seed)
        raise RuntimeError("no start converged")

    monkeypatch.setattr(multiplicity_module, "deflated_search", failing)
    monkeypatch.setattr(multiplicity_module, "_COLLAPSE_BUDGET", 2)
    cfg = SolveConfig(seed=7, starts=2)
    sols = find_distinct_solutions(small_bounded_spec, cfg, target_count=3)
    assert len(attempts) == 2 and len(set(attempts)) == 2
    assert len(sols) == 1
    assert sols.entries[0][1].energy == find_ground_state(small_bounded_spec, cfg)[0].energy


def test_deflated_descent_realizes_each_orbit_once_per_point(monkeypatch,
                                                            small_bounded_spec):
    """Value, gradient and radial derivative of a point share its realizers:
    every projected row realizes each known orbit once (counted in rows times
    orbits), all known orbits of a point in one realizer call."""
    spec = small_bounded_spec
    _, ground = find_ground_state(spec, SolveConfig(seed=8, starts=2))
    cfg = SolveConfig(seed=8, starts=2, max_iters=25)
    known = [ground, ground.scaled(0.5)]
    counts, calls = {}, {}
    for name, rows in (("_ray_data", ray_rows), ("fibering_project", projected_rows),
                       ("_orbit_realizer", realized_rows)):
        count_calls(monkeypatch, counts, name, rows)
    for name in ("fibering_project", "_orbit_realizer"):
        count_calls(monkeypatch, calls, name)
    objective = _DeflatedObjective(spec, np.stack([s.pair() for s in known]))
    inits = initial_states(spec, cfg)
    reports, _ = _descend(spec, cfg, inits, objective, [0, 1])
    assert all(rep.iterations > 0 for rep in reports)
    assert counts["_orbit_realizer"] == len(known) * counts["fibering_project"]
    assert counts["_ray_data"] == counts["fibering_project"] + len(inits)
    assert calls["_orbit_realizer"] == calls["fibering_project"]


def _unprojected_points(objective, S):
    """Points at the rows of ``S`` as they are (scale 1): energy and moments of ``S``."""
    rd = _ray_data(objective.spec, S[:, 0], S[:, 1])
    energy = rd.breakdown().total
    value, extra = objective.value(S, energy)
    return _Points(S, rd, energy, value, extra, np.ones(len(S)))


@pytest.mark.parametrize("spec_name", ["small_bounded_spec", "periodic_spec_1d"])
def test_deflated_gradient_matches_central_differences(request, spec_name):
    """``grad`` of the deflated energy is the L2 representative of the
    derivative of its value (energy times factors) at unprojected rows,
    including rows that realize a known orbit through a cell shift."""
    spec = request.getfixturevalue(spec_name)
    dom = spec.domain
    bumps = initial_states(spec, SolveConfig(seed=12, starts=4))
    objective = _DeflatedObjective(spec, bumps[:2])
    z = (3,) if dom.periodic else ()
    S = np.stack([0.9 * _roll_cells(bumps[0], z, dom) + 0.3 * bumps[2],
                  bumps[2] - 0.5 * _roll_cells(bumps[1], z, dom)])
    pts = _unprojected_points(objective, S)
    if dom.periodic:
        assert np.any(pts.extra["shift"] != 0)
    G = objective.grad(pts)
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(3):
        D = rng.standard_normal(S.shape)
        plus = _unprojected_points(objective, S + h * D).value
        minus = _unprojected_points(objective, S - h * D).value
        expected = _pair_inner(dom, G, D)
        assert np.allclose((plus - minus) / (2.0 * h), expected, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("spec_name", ["small_bounded_spec", "periodic_spec_1d"])
@pytest.mark.parametrize("deflated", [False, True])
def test_armijo_slope_is_the_retracted_derivative(request, spec_name, deflated):
    """Each objective's ``slope`` at manifold points is the derivative of
    its value along the retracted path ``alpha -> P(s - alpha D)`` at 0, the
    slope the Armijo test of the descent compares against."""
    spec = request.getfixturevalue(spec_name)
    bumps = initial_states(spec, SolveConfig(seed=14, starts=4))
    objective = (_DeflatedObjective(spec, bumps[:1]) if deflated
                 else _EnergyObjective(spec))
    pts = _evaluate(spec, objective, bumps[1:])
    G = objective.grad(pts)
    rng = np.random.default_rng(15)
    h = 1e-6
    for D in (_precondition(spec, G), rng.standard_normal(pts.S.shape)):
        minus = _evaluate(spec, objective, pts.S - h * D).value
        plus = _evaluate(spec, objective, pts.S + h * D).value
        expected = (minus - plus) / (2.0 * h)
        assert np.allclose(objective.slope(pts, G, D), expected, rtol=1e-6, atol=0.0)


@lru_cache(maxsize=None)
def _small_box_ground():
    spec = make_spec(DomainSpec.dirichlet_box(1.0, 64))
    _, ground = find_ground_state(spec, SolveConfig(seed=8, starts=2))
    return spec, ground


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), plain=st.integers(1, 3))
def test_batched_descent_rows_match_runs_alone(seed, plain):
    """Each row of a batched descent takes the steps of the same run alone:
    the deflated descent under every symmetry filter and unfiltered, then the
    plain polish, on the 64-node box (as ``deflated_search`` runs them)."""
    spec, ground = _small_box_ground()
    cfg = SolveConfig(seed=seed, starts=plain)
    starts = initial_states(spec, cfg)
    filters = spec.symmetry.filters
    assert len(filters) == 3   # swap-symmetric, swap-antisymmetric, odd reflection
    inits = np.concatenate([f(starts[:1]) for f in filters] + [starts])
    row_filters = list(filters) + [None] * plain
    names = list(range(len(inits)))
    stages = [(replace(cfg, grad_tol=1e-6, max_iters=40),
               _DeflatedObjective(spec, ground.pair()[None])),
              (replace(cfg, max_iters=60), _EnergyObjective(spec))]
    for stage_cfg, objective in stages:
        reports, finals = _descend(spec, stage_cfg, inits, objective, names, row_filters)
        for k in names:
            (alone,), final = _descend(spec, stage_cfg, inits[k:k + 1], objective, [k],
                                       [row_filters[k]])
            rep = reports[k]
            assert (rep.status, rep.iterations, rep.start_index) == \
                (alone.status, alone.iterations, k)
            assert abs(rep.energy - alone.energy) <= 1e-12 * abs(alone.energy)
            assert abs(rep.grad_residual - alone.grad_residual) <= 1e-12 * alone.grad_residual
            assert np.allclose(finals[k], final[0], rtol=0.0,
                               atol=1e-12 * np.max(np.abs(final[0])))
        inits = finals
