"""Manifold descent, multi-start search, recentering, decay fit, sphere maps."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nehari import grid
from nehari import solver as solver_module
from nehari.grid import DomainSpec, GridFunction, shift
from nehari.energy import State, energy, fibering_project, nehari_xi, norm_E
from nehari.solver import (
    SolveConfig,
    SolveReport,
    SolverStallError,
    decay_fit,
    _ensure_nonnegative,
    find_ground_state,
    initial_states,
    m_inverse,
    m_map,
    minimize_on_nehari,
    recenter,
)
from conftest import (
    count_calls,
    descended_rows,
    make_spec,
    projected_rows,
    random_state,
    ray_rows,
)


def periodic_bump(dom, center, width=0.5):
    def fn(*mesh):
        d2 = np.zeros(mesh[0].shape)
        for a, x in enumerate(mesh):
            p = dom.lengths[a]
            dx = (x - center[a] + p / 2.0) % p - p / 2.0
            d2 = d2 + dx * dx
        return np.exp(-d2 / (2.0 * width ** 2))
    return GridFunction.from_callable(dom, fn, tile_unit_cell=False)


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolveConfig(starts=0)
    with pytest.raises(ValueError):
        SolveConfig(seed=-1)


def test_minimize_rejects_zero(small_bounded_spec):
    dom = small_bounded_spec.domain
    z = State.from_values(dom, np.zeros(dom.shape), np.zeros(dom.shape))
    with pytest.raises(ValueError):
        minimize_on_nehari(small_bounded_spec, SolveConfig(), z)


def test_critical_init_stops_immediately(small_bounded_spec):
    cfg = SolveConfig(starts=1, seed=0)
    rep, s = find_ground_state(small_bounded_spec, cfg)
    rep2, _ = minimize_on_nehari(small_bounded_spec, cfg, s)
    assert rep2.status == "converged"
    assert rep2.iterations == 0
    assert rep2.grad_residual <= cfg.grad_tol


def test_energy_monotone_along_descent(small_bounded_spec, monkeypatch):
    # the descent takes one gradient per iterate, at its accepted point
    trace = []
    real = solver_module._EnergyObjective.grad

    def recording(self, pts):
        trace.extend(pts.value.tolist())
        return real(self, pts)

    monkeypatch.setattr(solver_module._EnergyObjective, "grad", recording)
    init = State.from_pair(small_bounded_spec.domain,
                          initial_states(small_bounded_spec, SolveConfig(seed=1))[0])
    rep, _ = minimize_on_nehari(small_bounded_spec, SolveConfig(seed=1), init)
    assert rep.status == "converged"
    trace = np.asarray(trace)
    fuzz = 8 * np.finfo(float).eps * (np.abs(trace[:-1]) + 1.0)
    assert np.all(np.diff(trace) <= fuzz)
    # strict decrease away from the stagnation plateau
    early = trace[: len(trace) // 2 + 1]
    assert np.all(np.diff(early) < 0)


def test_manifold_iterate_invariants(small_bounded_spec):
    cfg = SolveConfig(seed=2, starts=3)
    rep, s = find_ground_state(small_bounded_spec, cfg)
    assert rep.xi_residual <= 1e-10 * rep.norm ** 2
    assert abs(nehari_xi(small_bounded_spec, s)) <= 1e-10 * rep.norm ** 2
    assert rep.rho_estimate > 0
    assert rep.norm >= rep.rho_estimate
    delta, _ = small_bounded_spec.coupling_bound
    q = small_bounded_spec.q
    bound = (0.5 - 1.0 / q) * (1.0 - delta) * rep.norm ** 2
    assert rep.energy >= bound - 1e-9 * max(abs(rep.energy), bound)


def test_rho_estimate_stable_across_seeds(small_bounded_spec):
    rhos = []
    for seed in (0, 123):
        rep, _ = find_ground_state(small_bounded_spec, SolveConfig(seed=seed, starts=3))
        rhos.append(rep.rho_estimate)
    assert max(rhos) <= 2.0 * min(rhos)


def test_decoupled_system_beats_single_ray():
    """With lam = 0 the pair minimum sits below the sin-ray fibering value."""
    spec = make_spec(DomainSpec.dirichlet_box(1.0, 128), lam=0.0)
    cfg = SolveConfig(seed=3, starts=3, grad_tol=1e-7, max_iters=3000)
    rep, s = find_ground_state(spec, cfg)
    assert rep.status == "converged"
    assert rep.energy < 29.52 * (1.0 - 1e-3)
    # the minimizing pair concentrates in a single component
    amps = sorted([np.abs(s.u.values).max(), np.abs(s.v.values).max()])
    assert amps[0] <= 1e-6 * amps[1]


def test_swap_symmetric_initialization(bounded_spec):
    cfg = SolveConfig(seed=4)
    init = State.from_pair(bounded_spec.domain, initial_states(bounded_spec, cfg)[0])
    swapped = State(init.v, init.u)
    rep_a, _ = minimize_on_nehari(bounded_spec, cfg, init)
    rep_b, _ = minimize_on_nehari(bounded_spec, cfg, swapped)
    assert abs(rep_a.energy - rep_b.energy) <= 1e-8 * abs(rep_a.energy)


def test_multistart_determinism(small_bounded_spec):
    cfg = SolveConfig(seed=5, starts=3)
    rep1, s1 = find_ground_state(small_bounded_spec, cfg)
    rep2, s2 = find_ground_state(small_bounded_spec, cfg)
    assert rep1 == rep2
    assert np.array_equal(s1.u.values, s2.u.values)
    assert np.array_equal(s1.v.values, s2.v.values)


def test_coupling_lowers_energy():
    """Ground energy is nonincreasing in the coupling strength."""
    energies = []
    for lam in (0.0, 0.2, 0.4):
        spec = make_spec(DomainSpec.dirichlet_box(1.0, 96), lam=lam)
        rep, _ = find_ground_state(spec, SolveConfig(seed=6, starts=3))
        energies.append(rep.energy)
    assert energies[0] >= energies[1] - 1e-10
    assert energies[1] >= energies[2] - 1e-10


def test_bounded_ground_state_nonnegative(bounded_spec):
    rep, s = find_ground_state(bounded_spec, SolveConfig(seed=7, starts=3))
    amp = max(np.abs(s.u.values).max(), np.abs(s.v.values).max())
    assert s.u.values.min() >= -1e-10 * amp
    assert s.v.values.min() >= -1e-10 * amp


def record_descents(monkeypatch):
    """Record every ``_descend`` call as (rows handed over, reports, final rows)."""
    calls = []
    real = solver_module._descend

    def recorded(spec, config, init, *args, **kwargs):
        reports, final = real(spec, config, init, *args, **kwargs)
        calls.append((len(init), reports, final))
        return reports, final

    monkeypatch.setattr(solver_module, "_descend", recorded)
    return calls


def test_default_box_iterate_budget(monkeypatch, bounded_spec):
    """Spectral first steps: every start of the default box converges within
    25 iterates (unit first steps take 32-36)."""
    calls = record_descents(monkeypatch)
    find_ground_state(bounded_spec, SolveConfig())
    [(rows, reports, _)] = calls   # a box descends once, on its own grid
    assert rows == 5
    assert all(r.status == "converged" and r.iterations <= 25 for r in reports)


def test_periodic_cosine_ground_state_converges(monkeypatch):
    """On a torus with a nonconstant periodic potential, every start
    converges on the fine grid within 100 iterates (unit first steps stall
    at 500; the direct descent takes 56-118, after the ladder 38-57)."""
    well = lambda x: 1.0 + 0.25 * np.cos(2.0 * np.pi * x)
    spec = make_spec(DomainSpec.periodic_torus([8], 16), V1=well, V2=well, lam=0.3)
    calls = record_descents(monkeypatch)
    rep, _ = find_ground_state(spec, SolveConfig(starts=3))
    rows, reports, final = calls[-1]   # the fine level descends last
    assert rows == 3 and final.shape[2:] == spec.domain.shape
    assert all(r.status == "converged" and r.iterations <= 100 for r in reports)
    assert rep.grad_residual <= 1e-8


def cosine_torus(periods, m):
    """The 2D torus with ``V1 = V2 = 1 + 0.5 cos 2 pi x cos 2 pi y``."""
    well = lambda x, y: 1.0 + 0.5 * np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
    return make_spec(DomainSpec.periodic_torus([periods, periods], m), V1=well, V2=well)


@pytest.mark.parametrize("spec, levels", [
    (make_spec(DomainSpec.periodic_torus([16, 16], 16)), 3),   # 256^2 down to m = 2
    (make_spec(DomainSpec.periodic_torus([16, 16], 6)), 1),    # 96^2: m = 3 is odd
    (make_spec(DomainSpec.periodic_torus([16, 16], 5)), 0),    # 80^2: odd m
    (make_spec(DomainSpec.periodic_torus([16, 8], [4, 6])), 1),   # every axis halves
    (make_spec(DomainSpec.periodic_torus([16, 8], [4, 5])), 0),   # or none does
    (cosine_torus(8, 8), 1),    # m = 2 samples the cosine at its Nyquist mode
    (cosine_torus(8, 16), 2),
    (make_spec(DomainSpec.periodic_torus([8], 16),   # lambda's wavenumber 24 aliases at 32 nodes
               lam=lambda x: 0.3 + 0.1 * np.cos(6.0 * np.pi * x)), 1),
    (make_spec(DomainSpec.dirichlet_box(1.0, 256)), 0),
    (make_spec(DomainSpec.periodic_torus([2, 2, 2], 8)), 2),   # 3D, down to m = 2
    (make_spec(DomainSpec.periodic_torus([8], 16),   # V2's wavenumber 16 is Nyquist at 32 nodes
               V2=lambda x: 1.0 + 0.25 * np.cos(4.0 * np.pi * x)), 1),
    (make_spec(DomainSpec.periodic_torus([4, 4], 8),   # V1 alone: Nyquist at m = 2
               V1=lambda x, y: 1.0 + 0.25 * np.cos(2.0 * np.pi * x)), 1),
])
def test_ladder_levels(spec, levels):
    """Halving stops at odd m, at m = 2, and where the halved grid would
    alias V1, V2 or lambda."""
    assert len(solver_module._coarse_levels(spec)) == levels


@pytest.mark.parametrize("spec, budget", [
    (make_spec(DomainSpec.periodic_torus([16, 16], 4)), 100),   # direct: 500/337/458
    (make_spec(DomainSpec.periodic_torus([16, 16], 6)), 100),   # direct: 500/500/500, exit 3
    (cosine_torus(8, 8), 150),   # direct: 203/112/136; a ladder down to m = 2: 27/30/500
])
def test_ladder_fine_descents_converge(monkeypatch, spec, budget):
    """After the ladder every fine row of these tori converges within the
    budget, and the report counts the fine iterates of its row."""
    calls = record_descents(monkeypatch)
    rep, _ = find_ground_state(spec, SolveConfig(starts=3))
    rows, reports, final = calls[-1]
    assert rows == 3 and final.shape[2:] == spec.domain.shape
    assert all(r.status == "converged" and r.iterations <= budget for r in reports)
    assert rep.grad_residual <= 1e-8 and rep.iterations == reports[rep.start_index].iterations


def test_unconverged_coarse_rows_are_still_prolonged(monkeypatch, periodic_spec_2d):
    """Coarse descents cut short at 2 iterates end unconverged; their rows
    still pass to the fine grid, whose descent converges."""
    fine = periodic_spec_2d.domain
    real = solver_module._descend
    coarse_status = []

    def cut_short(spec, config, init, *args, **kwargs):
        if spec.domain != fine:
            config = replace(config, max_iters=2)
        reports, final = real(spec, config, init, *args, **kwargs)
        if spec.domain != fine:
            coarse_status.extend(r.status for r in reports)
        return reports, final

    monkeypatch.setattr(solver_module, "_descend", cut_short)
    rep, _ = find_ground_state(periodic_spec_2d, SolveConfig(starts=3))
    assert coarse_status == ["max_iters"] * 6   # 3 rows on each of 2 levels
    assert rep.status == "converged"


def _nyquist_free(c):
    """The fields ``c`` (leading row axes, then the grid) without the
    Nyquist modes of their even axes, by the full complex transform."""
    axes = tuple(range(2, c.ndim))
    F = np.fft.fftn(c, axes=axes)
    for a in axes:
        if c.shape[a] % 2 == 0:
            index = [slice(None)] * c.ndim
            index[a] = c.shape[a] // 2
            F[tuple(index)] = 0.0
    return np.fft.ifftn(F, axes=axes).real


@st.composite
def coarse_pairs(draw, count=1):
    """Random pair arrays ``(rows, 2, *shape)`` of 1-3 rows on 1-3 axes of
    2-9 nodes each, ``count`` of them on one shape."""
    shape = tuple(draw(st.lists(st.integers(2, 9), min_size=1, max_size=3)))
    rows = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return [rng.standard_normal((rows, 2) + shape) for _ in range(count)]


@settings(max_examples=40, deadline=None)
@given(pairs=coarse_pairs(count=2), a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
@example(pairs=[np.ones((1, 2, 2)), np.zeros((1, 2, 2))], a=0.0, b=5e-324)
def test_prolongation_is_linear(pairs, a, b):
    s, t = pairs
    P = solver_module._prolong
    scale = (abs(a) + abs(b)) * max(np.abs(s).max(), np.abs(t).max())
    # the floor: scaled subnormals keep no relative precision
    assert np.abs(P(a * s + b * t) - (a * P(s) + b * P(t))).max() <= 1e-13 * scale + 1e-300


@settings(max_examples=40, deadline=None)
@given(pairs=coarse_pairs())
def test_prolongation_interpolates_and_keeps_the_mean(pairs):
    """The prolonged rows, taken at every other node, are the coarse rows
    minus their Nyquist modes; the mean of every field is kept."""
    [c] = pairs
    fine = solver_module._prolong(c)
    assert fine.shape == c.shape[:2] + tuple(2 * n for n in c.shape[2:])
    nodes = (slice(None),) * 2 + (slice(None, None, 2),) * (c.ndim - 2)
    scale = np.abs(c).max()
    assert np.abs(fine[nodes] - _nyquist_free(c)).max() <= 1e-13 * scale
    axes = tuple(range(2, c.ndim))
    assert np.abs(fine.mean(axis=axes) - c.mean(axis=axes)).max() <= 1e-13 * scale


@settings(max_examples=40, deadline=None)
@given(pairs=coarse_pairs(), data=st.data())
def test_prolongation_commutes_with_node_shifts(pairs, data):
    """Shifting the coarse rows by one node shifts the prolonged rows by two."""
    [c] = pairs
    axis = data.draw(st.integers(2, c.ndim - 1))
    P = solver_module._prolong
    shifted = P(np.roll(c, 1, axis=axis))
    assert np.abs(shifted - np.roll(P(c), 2, axis=axis)).max() <= 1e-13 * np.abs(c).max()


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(1, 2), m=st.sampled_from([4, 8]), periods=st.integers(1, 3),
       k=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_halved_takes_the_fine_fields_at_its_nodes(dim, m, periods, k, seed):
    dom = DomainSpec.periodic_torus([periods] * dim, m)
    rng = np.random.default_rng(seed)
    cell = lambda: np.tile(1.0 + rng.random((m,) * dim), (periods,) * dim)
    spec = make_spec(dom)
    spec = replace(spec, V1=GridFunction(dom, cell()), V2=GridFunction(dom, cell()),
                   lam=GridFunction(dom, 0.1 * cell()))
    k = min(k, m.bit_length() - 2)   # keep m / 2**k >= 2
    coarse = spec
    for _ in range(k):
        coarse = solver_module._halved(coarse)
    assert coarse.domain == DomainSpec.periodic_torus([periods] * dim, m >> k)
    nodes = (slice(None, None, 2 ** k),) * dim
    for name in ("V1", "V2", "lam"):
        assert getattr(coarse, name).values.tobytes() == getattr(spec, name).values[nodes].tobytes()
    assert (coarse.q, coarse.f1, coarse.f2) == (spec.q, spec.f1, spec.f2)


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([64, 96]), seed=st.integers(0, 2 ** 32 - 1))
@example(n=64, seed=1)
def test_backtracking_stalls_below_the_point_granularity(n, seed):
    """A row whose every trial step above the granularity of its point is
    rejected stalls there, instead of accepting its (all but) unmoved point
    by the roundoff slack and repeating it up to max_iters, as some deflated
    descents did.  From any start: with the granularity at 1 eps of the
    point, steps of 1-3 ulps uphill by less than the slack passed, and 11 of
    24 starts climbed to max_iters."""

    class Uphill(solver_module._EnergyObjective):
        def grad(self, pts):
            return -super().grad(pts)   # ascent directions whose slope reads downhill

    spec = make_spec(DomainSpec.dirichlet_box(1.0, n))
    init = initial_states(spec, SolveConfig(seed=seed))[:1]
    (rep,), _ = solver_module._descend(spec, SolveConfig(max_iters=50), init, Uphill(spec), [0])
    assert rep.status == "stalled" and rep.iterations < 50


def test_sign_redescent_of_flipped_row(monkeypatch, small_bounded_spec):
    """Of a converged batch, only the row with a negative part descends again,
    from its absolute value; its iterations add up and it ends nonnegative."""
    cfg = SolveConfig()
    rep, s = find_ground_state(small_bounded_spec, cfg)
    flipped = s.pair().copy()
    flipped[1] *= -1.0
    final = np.stack([s.pair(), flipped])
    reports = [replace(rep, start_index=0), replace(rep, start_index=1)]
    calls = record_descents(monkeypatch)
    out_reports, out_final = _ensure_nonnegative(small_bounded_spec, cfg, reports, final)
    assert [(rows, [r.start_index for r in again]) for rows, again, _ in calls] == [(1, [1])]
    again = calls[0][1][0]
    assert out_reports[1].status == "converged"
    assert out_reports[1].iterations == rep.iterations + again.iterations
    assert out_final[1].min() >= -1e-10 * np.abs(out_final[1]).max()
    assert out_reports[0] == reports[0]
    assert out_final[0].tobytes() == final[0].tobytes()


def test_ground_starts_run_as_one_batch(monkeypatch, bounded_spec):
    """The default box fits all 5 starts in one descent batch."""
    calls = record_descents(monkeypatch)
    find_ground_state(bounded_spec, SolveConfig())
    assert [rows for rows, _, _ in calls] == [5]


def test_descent_batches_bounded_by_node_budget(monkeypatch, small_bounded_spec):
    """With a budget of two rows, the 5 starts descend in batches of 2, 2 and 1
    and end exactly where they end as one batch."""
    cfg = SolveConfig()
    results = {}
    for budget in (None, 2 * 2 * small_bounded_spec.domain.size):
        with monkeypatch.context() as m:
            if budget is not None:
                m.setattr(solver_module, "_BATCH_NODES", budget)
            calls = record_descents(m)
            best = find_ground_state(small_bounded_spec, cfg)
        results[budget] = calls[-1][1:], best   # the outermost call returns last
        expected = [5] if budget is None else [2, 2, 1, 5]
        assert [rows for rows, _, _ in calls] == expected
    (reports, final), (rep, s) = results[None]
    (reports_b, final_b), (rep_b, s_b) = results[2 * 2 * small_bounded_spec.domain.size]
    assert reports_b == reports and rep_b == rep   # every field, floats exactly
    assert final.tobytes() == final_b.tobytes()
    assert s.pair().tobytes() == s_b.pair().tobytes()


def test_ground_state_ties_go_to_the_first_start(monkeypatch, bounded_spec):
    """On the default box at seed 10001 all five starts converge to energies
    within the Armijo slack of each other; the lowest by exact value is a
    later start (which one moves with roundoff), but the tie goes to start
    0."""
    calls = record_descents(monkeypatch)
    rep, _ = find_ground_state(bounded_spec, SolveConfig(seed=10001))
    (_, reports, _), = calls
    energies = [r.energy for r in reports]
    lowest = min(energies)
    assert all(r.status == "converged" for r in reports)
    assert energies.index(lowest) != 0
    assert max(energies) - lowest <= solver_module._FUZZ * (abs(lowest) + 1.0)
    assert rep.start_index == 0 and rep.energy == energies[0]


def test_winner_ties_within_the_slack_go_to_the_lowest_start():
    """``_winner``, the rule of ``find_ground_state`` and ``deflated_search``:
    of reports in ascending start order, energies within the Armijo slack of
    the lowest tie, and a tie goes to the first start; a lower level beyond
    the slack wins outright."""
    E = 54.069435655970409
    ulp = np.spacing(E)

    def report(energy, start):
        return SolveReport(energy, 0.0, 0.0, 0, start, 1.0, 1.0, "converged")

    reports = [report(E + 1e-9, 0), report(E + 3 * ulp, 2), report(E, 4), report(E + 2 * ulp, 5)]
    assert solver_module._winner(reports) == 1
    reports.append(report(E - 1e-9, 7))
    assert solver_module._winner(reports) == 4


def test_stall_reporting(small_bounded_spec):
    cfg = SolveConfig(seed=8, starts=2, grad_tol=1e-305, max_iters=5)
    with pytest.raises(SolverStallError) as err:
        find_ground_state(small_bounded_spec, cfg)
    assert "start 0" in str(err.value)


def test_pipeline_translation_invariance(periodic_spec_2d):
    """Integer-shifted initial data reaches the same energy."""
    spec = periodic_spec_2d
    cfg = SolveConfig(seed=9, starts=1, max_iters=400)
    init = State.from_pair(spec.domain, initial_states(spec, cfg)[0])
    shifted = State(shift(init.u, (2, 1)), shift(init.v, (2, 1)))
    rep_a, _ = minimize_on_nehari(spec, cfg, init)
    rep_b, _ = minimize_on_nehari(spec, cfg, shifted)
    assert rep_a.status == "converged" and rep_b.status == "converged"
    assert abs(rep_a.energy - rep_b.energy) <= 1e-9 * abs(rep_a.energy)


def test_recenter_bump(periodic_spec_2d):
    dom = periodic_spec_2d.domain
    mid_cell = tuple(n // 2 for n in dom.shape)
    center_pos = tuple(mid_cell[a] * dom.spacing[a] for a in range(2))
    u = periodic_bump(dom, center_pos)
    zeros = GridFunction.constant(dom, 0.0)
    s = State(u, zeros)
    _, z = recenter(s)
    assert z == (0, 0)

    s_shifted = State(shift(u, (2, -1)), zeros)
    s_back, z = recenter(s_shifted)
    assert z == (-2, 1)
    assert np.array_equal(s_back.u.values, u.values)

    e0 = energy(periodic_spec_2d, s).total
    e1 = energy(periodic_spec_2d, recenter(s_shifted)[0]).total
    assert abs(e0 - e1) <= 1e-12 * abs(e0)

    with pytest.raises(ValueError):
        recenter(State.from_values(DomainSpec.dirichlet_box(1.0, 8),
                                   np.ones(8), np.ones(8)))


def test_decay_fit_synthetic():
    """Exact exponentials are recovered with near-perfect fits."""
    dom = DomainSpec.periodic_torus([32], 8)
    mid = dom.shape[0] // 2 * dom.spacing[0]

    def exp_profile(rate):
        def fn(x):
            p = dom.lengths[0]
            d = np.abs((x - mid + p / 2.0) % p - p / 2.0)
            return np.exp(-rate * d)
        return GridFunction.from_callable(dom, fn, tile_unit_cell=False)

    zeros = GridFunction.constant(dom, 0.0)
    fit1 = decay_fit(State(exp_profile(1.0), zeros))
    assert abs(fit1.alpha - 1.0) <= 0.02
    assert fit1.r_squared >= 0.999
    fit2 = decay_fit(State(exp_profile(2.0), zeros))
    assert abs(fit2.alpha - 2.0) <= 0.04
    assert fit2.r_squared >= 0.999


def test_decay_fit_insufficient_window():
    dom = DomainSpec.periodic_torus([4], 4)
    u = GridFunction.constant(dom, 1.0)   # flat: no nodes below 1e-3 of max
    with pytest.raises(ValueError):
        decay_fit(State(u, u))


def test_decay_of_computed_periodic_ground_state():
    """A 1D periodic solve exhibits clean exponential decay after recentering."""
    dom = DomainSpec.periodic_torus([24], 8)
    spec = make_spec(dom)
    rep, s = find_ground_state(spec, SolveConfig(seed=10, starts=2, max_iters=800))
    assert rep.status == "converged"
    s, _ = recenter(s)
    fit = decay_fit(s)
    assert fit.alpha > 0
    assert fit.r_squared >= 0.98
    assert fit.n_samples >= 30


def test_m_maps_inverse_and_lipschitz(bounded_spec):
    rng = np.random.default_rng(11)
    spec = bounded_spec
    for _ in range(10):
        raw = random_state(spec, rng)
        w = raw.scaled(1.0 / norm_E(spec, raw))
        s = m_map(spec, w)
        assert abs(nehari_xi(spec, s)) <= 1e-8 * norm_E(spec, s) ** 2
        back = m_inverse(spec, s)
        diff = State.from_values(spec.domain, back.u.values - w.u.values,
                                 back.v.values - w.v.values)
        assert norm_E(spec, diff) <= 1e-10
        assert abs(norm_E(spec, back) - 1.0) <= 1e-12

    # per-pair Lipschitz bound of the radial retraction
    for _ in range(20):
        _, a = fibering_project(spec, random_state(spec, rng))
        _, b = fibering_project(spec, random_state(spec, rng))
        lhs = norm_E(spec, State.from_values(
            spec.domain,
            m_inverse(spec, a).u.values - m_inverse(spec, b).u.values,
            m_inverse(spec, a).v.values - m_inverse(spec, b).v.values))
        dist = norm_E(spec, State.from_values(
            spec.domain, a.u.values - b.u.values, a.v.values - b.v.values))
        assert lhs <= 2.0 * dist / norm_E(spec, a) * (1.0 + 1e-12)


def test_m_map_guards(bounded_spec):
    dom = bounded_spec.domain
    z = State.from_values(dom, np.zeros(dom.shape), np.zeros(dom.shape))
    with pytest.raises(ValueError):
        m_map(bounded_spec, z)
    rng = np.random.default_rng(12)
    s = random_state(bounded_spec, rng)
    with pytest.raises(ValueError):
        m_map(bounded_spec, s.scaled(3.0 / norm_E(bounded_spec, s)))
    with pytest.raises(ValueError):
        m_inverse(bounded_spec, s)   # not on the manifold


def test_descent_makes_no_sorted_reduction(monkeypatch, bounded_spec):
    """The descent's residual and slopes reduce by plain sums: a default
    ground-state solve on the box never calls the sorted ``_csum``."""
    calls = []
    sorted_sum = grid._csum

    def counted(arr):
        calls.append(arr.size)
        return sorted_sum(arr)

    monkeypatch.setattr(grid, "_csum", counted)
    rep, _ = find_ground_state(bounded_spec, SolveConfig())
    assert rep.status == "converged"
    assert calls == []
    grid.l2_norm_sq(grid.GridFunction.constant(bounded_spec.domain, 1.0))
    assert len(calls) == 1   # the public norms still take the sorted route


def test_one_moment_pass_per_descent_point(monkeypatch, bounded_spec):
    """Each projected row gets the only moment pass of its point; each descended
    row adds one for its report, and no state is re-evaluated through the
    energy API.  Counted in rows, since the kernels take batches of rows."""
    counts = {}
    for name, rows in (("_ray_data", ray_rows), ("fibering_project", projected_rows),
                       ("_descend", descended_rows)):
        count_calls(monkeypatch, counts, name, rows)
    for name in ("energy", "norm_E", "nehari_xi", "nehari_xi_slope"):
        count_calls(monkeypatch, counts, name)
    rep, _ = find_ground_state(bounded_spec, SolveConfig())
    assert rep.status == "converged"
    assert counts["_descend"] >= 5
    assert counts["_ray_data"] == counts["fibering_project"] + counts["_descend"]
    for name in ("energy", "norm_E", "nehari_xi", "nehari_xi_slope"):
        assert counts.get(name, 0) == 0


def test_non_finite_residual_names_the_iterate(monkeypatch, small_bounded_spec):
    """The descent checks J and the residual of every point instead of every
    node; a non-finite one raises RuntimeError naming the start and iterate."""
    real = solver_module.grad_l2
    calls = []

    def poisoned(spec, S):
        G = real(spec, S)
        calls.append(len(S))
        if len(calls) == 3:
            G[..., 0] = np.nan
        return G

    monkeypatch.setattr(solver_module, "grad_l2", poisoned)
    init = State.from_pair(small_bounded_spec.domain,
                          initial_states(small_bounded_spec, SolveConfig(seed=1))[0])
    with pytest.raises(RuntimeError, match=r"^non-finite residual at iterate 2 of start 7$"):
        minimize_on_nehari(small_bounded_spec, SolveConfig(seed=1), init, start_index=7)
