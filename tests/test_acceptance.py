"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The criteria are property-based checks at desk scale: hypothesis gating,
the structural inequalities on random states, fibering correctness against
closed-form oracles, gradient consistency, ground states on the bounded
and periodic defaults, multiplicity by deflation, the nested-subspace
diagnostics, the sphere-manifold maps, and bytewise determinism.
"""

import filecmp
import time

import numpy as np

from nehari.grid import DomainSpec, l2_inner, l2_norm_sq, shift
from nehari.model import Nonlinearity, validate_nonlinearity, validate_potentials
from nehari.energy import (
    State,
    coercive_form,
    energy,
    fibering_project,
    grad_l2,
    nehari_xi,
    nehari_xi_slope,
    norm_E,
)
from nehari.solver import (
    SolveConfig,
    decay_fit,
    find_ground_state,
    initial_states,
    m_inverse,
    m_map,
    minimize_on_nehari,
    recenter,
)
from nehari.multiplicity import find_distinct_solutions, fountain_diagnostics
from nehari.cli import default_bounded_spec, default_periodic_spec, main

from conftest import make_spec, random_state

TOL = 1e-9   # quadrature slack for the inequality suite


def _passline(name, t0, detail=""):
    extra = f", {detail}" if detail else ""
    print(f"\n{name}: PASS ({time.perf_counter() - t0:.2f}s{extra})")


def test_c1_hypothesis_gate():
    """C1: defaults pass every hypothesis; the two bad cases are rejected by name."""
    t0 = time.perf_counter()
    spec = default_bounded_spec()
    from nehari.model import validate_problem

    rep = validate_problem(spec)
    assert rep.passed
    assert all(c.margin > 0 for c in rep.checks)
    names = " ".join(c.name for c in rep.checks)
    for tag in ("F1", "F2", "F3", "F4", "F5", "V1", "V2"):
        assert f"({tag})" in names, tag

    low = validate_nonlinearity(Nonlinearity(((1.0, 2.5),)), spec.q, spec.domain.dimension)
    assert not low.passed
    assert any("F4" in c.name for c in low.failures())

    strong = make_spec(spec.domain, lam=1.2)
    bad = validate_potentials(strong)
    assert not bad.passed
    assert any("V2" in c.name for c in bad.failures())

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passline("C1 hypothesis gate", t0)


def test_c2_inequality_suite(bounded_spec, bounded_2d_spec, periodic_spec_1d):
    """C2: coercivity, AR, superlinear slope, on-manifold inequalities; 3x1000 states."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for spec in (bounded_spec, bounded_2d_spec, periodic_spec_1d):
        delta, _ = spec.coupling_bound
        q = spec.q
        vol = spec.domain.cell_volume
        for _ in range(1000):
            s = random_state(spec, rng)
            u, v = s.u.values, s.v.values

            lhs = coercive_form(spec, s)
            nsq = norm_E(spec, s) ** 2
            assert lhs >= (1.0 - delta) * nsq - TOL * nsq

            for comp, nl in ((u, spec.f1), (v, spec.f2)):
                fs = nl.f_times_s(comp)
                qF = q * nl.F(comp)
                scale = fs + np.abs(qF) + 1e-300
                assert np.all(qF >= -TOL * scale)
                assert np.all(fs - qF >= -TOL * scale)
                slope_margin = nl.f_prime(comp) * comp * comp - fs - (q - 2.0) * fs
                scale2 = nl.f_prime(comp) * comp * comp + (q - 1.0) * fs + 1e-300
                assert np.all(slope_margin >= -TOL * scale2)

            _, s_on = fibering_project(spec, s)
            uo, vo = s_on.u.values, s_on.v.values
            q_moment = (np.sum(np.abs(uo) ** q) + np.sum(np.abs(vo) ** q)) * vol
            f_moment = (np.sum(spec.f1.f_times_s(uo)) + np.sum(spec.f2.f_times_s(vo))) * vol
            assert q_moment < f_moment + TOL * f_moment

            nsq_on = norm_E(spec, s_on) ** 2
            assert nehari_xi_slope(spec, s_on) < TOL * nsq_on

            J = energy(spec, s_on).total
            bound = (0.5 - 1.0 / q) * (1.0 - delta) * nsq_on
            assert J >= bound - TOL * max(abs(J), bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passline("C2 inequality suite", t0, "3 specs x 1000 states")


def test_c3_fibering_correctness(bounded_spec):
    """C3: idempotence, homogeneity, single slope sign change, sin-mode oracle."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    spec = bounded_spec
    for _ in range(100):
        s = random_state(spec, rng)
        rep, s_on = fibering_project(spec, s)
        rep1, _ = fibering_project(spec, s_on)
        assert abs(rep1.t_star - 1.0) <= 1e-10
        c = float(rng.uniform(0.1, 10.0))
        repc, _ = fibering_project(spec, s.scaled(c))
        assert abs(repc.t_star - rep.t_star / c) <= 1e-10 * rep.t_star / c

    from nehari.energy import _ray_data

    for _ in range(100):
        s = random_state(spec, rng)
        rep, _ = fibering_project(spec, s)
        ts = rep.t_star * np.geomspace(1e-4, 4.0, 10_000)
        rd = _ray_data(spec, s.u.values, s.v.values)
        slopes = rd.phi_prime(ts)   # same closed form fibering_slope evaluates
        signs = np.sign(slopes)
        assert np.sum(np.diff(signs[signs != 0]) != 0) == 1

    # sin-mode closed form on a 4096-node grid, against the quadratic-root
    # oracle recomputed here from independent discrete moments
    n = 4096
    dom = DomainSpec.dirichlet_box(1.0, n)
    fine = make_spec(dom, lam=0.0)
    h = 1.0 / (n + 1)
    x = dom.axis_coordinates(0)
    mode = np.sin(np.pi * x)
    A = (4.0 / h ** 2 * np.sin(np.pi * h / 2.0) ** 2 + 1.0) * float(np.sum(mode * mode)) * h
    B = float(np.sum(mode ** 4) * h)
    C = float(np.sum(np.abs(mode) ** 3) * h)
    t_oracle = (C + np.sqrt(C * C + 4.0 * A * B)) / (2.0 * B)
    phi_oracle = A * t_oracle ** 2 / 2.0 - B * t_oracle ** 4 / 4.0 + C * t_oracle ** 3 / 3.0
    # continuum values of the same oracle, pinned: t* ~ 4.414654, phi ~ 29.5229
    assert abs(t_oracle - 4.414654285063871) <= 1e-3 * 4.414654285063871
    assert abs(phi_oracle - 29.52291965415381) <= 1e-3 * 29.52291965415381

    s = State.from_values(dom, mode, np.zeros(dom.shape))
    rep, _ = fibering_project(fine, s)
    assert abs(rep.t_star - t_oracle) <= 1e-3 * t_oracle
    assert abs(rep.phi_at_t - phi_oracle) <= 1e-3 * abs(phi_oracle)
    _passline("C3 fibering correctness", t0,
              f"t*={rep.t_star:.6f}, phi={rep.phi_at_t:.4f}")


def test_c4_gradient_consistency(bounded_spec, bounded_2d_spec):
    """C4: directional derivatives match grad_l2; xi equals <grad, s>."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    pairs = [(bounded_spec, 30), (bounded_2d_spec, 20)]
    for spec, count in pairs:
        dom = spec.domain
        for _ in range(count):
            s = random_state(spec, rng)
            d = random_state(spec, rng)
            eps = 1e-5 * norm_E(spec, s) / max(norm_E(spec, d), 1e-300)
            ep = energy(spec, State.from_values(
                dom, s.u.values + eps * d.u.values, s.v.values + eps * d.v.values)).total
            em = energy(spec, State.from_values(
                dom, s.u.values - eps * d.u.values, s.v.values - eps * d.v.values)).total
            fd = (ep - em) / (2.0 * eps)
            g = grad_l2(spec, s)
            ip = l2_inner(g.u, d.u) + l2_inner(g.v, d.v)
            assert abs(fd - ip) <= 1e-6 * max(abs(fd), abs(ip))

            xi = nehari_xi(spec, s)
            ip_s = l2_inner(g.u, s.u) + l2_inner(g.v, s.v)
            scale = np.sqrt(l2_norm_sq(g.u) + l2_norm_sq(g.v)) \
                * np.sqrt(l2_norm_sq(s.u) + l2_norm_sq(s.v)) + abs(xi)
            assert abs(xi - ip_s) <= 1e-12 * scale
    _passline("C4 gradient consistency", t0, "50 state/direction pairs")


def test_c5_bounded_ground_state():
    """C5: at least 4 of 5 starts reach one energy; residuals and signs clean."""
    t0 = time.perf_counter()
    spec = default_bounded_spec()
    cfg = SolveConfig(starts=5, seed=0)
    energies, residuals = [], []
    for i, init in enumerate(initial_states(spec, cfg)):
        rep, _ = minimize_on_nehari(spec, cfg, State.from_pair(spec.domain, np.abs(init)), i)
        if rep.status == "converged":
            energies.append(rep.energy)
            residuals.append(rep.grad_residual)
    e_min = min(energies)
    agreeing = sum(1 for e in energies if abs(e - e_min) <= 1e-8 * abs(e_min))
    assert agreeing >= 4
    assert all(r <= 1e-8 for r in residuals)

    rep, s = find_ground_state(spec, cfg)
    assert rep.status == "converged"
    amp = max(np.abs(s.u.values).max(), np.abs(s.v.values).max())
    assert s.u.values.min() >= -1e-10 * amp
    assert s.v.values.min() >= -1e-10 * amp
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passline("C5 bounded ground state", t0,
              f"{agreeing}/5 starts at E={e_min:.9g}")


def test_c6_periodic_setting():
    """C6: periodic ground state is shift-invariant, truncation-stable and decays."""
    t0 = time.perf_counter()
    spec16 = default_periodic_spec()
    cfg = SolveConfig(starts=3, seed=11, max_iters=600)
    rep16, s16 = find_ground_state(spec16, cfg)
    assert rep16.status == "converged"

    shifted = State(shift(s16.u, (3, 5)), shift(s16.v, (3, 5)))
    e_shift = energy(spec16, shifted).total
    assert abs(e_shift - rep16.energy) <= 1e-9 * abs(rep16.energy)

    dom32 = DomainSpec.periodic_torus([32, 32], 16)
    spec32 = make_spec(dom32)
    rep32, s32 = find_ground_state(spec32, SolveConfig(starts=2, seed=11, max_iters=600))
    assert rep32.status == "converged"
    rel = abs(rep32.energy - rep16.energy) / abs(rep16.energy)
    assert rel < 1e-4

    # decay is fitted on the doubled torus: at a rate near sqrt(V - lam) the
    # amplitude at half of the 16-period falls only to about 1e-3 of the peak,
    # the top of the fit window, so there nearly every window node sits where
    # the tails of periodic images overlap (r^2 about 0.955); at period 32 the
    # overlap begins near 1e-6 and the window keeps three clean decades
    s32c, _ = recenter(s32)
    fit = decay_fit(s32c)
    assert fit.alpha > 0
    assert fit.r_squared >= 0.98

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _passline("C6 periodic setting", t0,
              f"trunc={rel:.2e}, alpha={fit.alpha:.3f}, r2={fit.r_squared:.4f}")


def test_c7_multiplicity():
    """C7: deflation finds three distinct solutions with increasing energies."""
    t0 = time.perf_counter()
    spec = default_bounded_spec()
    cfg = SolveConfig(starts=4, seed=5)
    sols = find_distinct_solutions(spec, cfg, target_count=3)
    assert len(sols) >= 3
    energies = [r.energy for _, r in sols.entries]
    assert all(e2 > e1 for e1, e2 in zip(energies, energies[1:]))
    for _, r in sols.entries:
        assert r.grad_residual <= 1e-8
    n = len(sols)
    for i in range(n):
        for j in range(i + 1, n):
            si, sj = sols.entries[i][0], sols.entries[j][0]
            thresh = 1e-4 * max(norm_E(spec, si), norm_E(spec, sj))
            assert sols.pairwise_distances[i, j] > thresh
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _passline("C7 multiplicity", t0,
              "energies " + ", ".join(f"{e:.6g}" for e in energies))


def test_c8_fountain_diagnostics(bounded_spec):
    """C8: beta decays, radius checks stay nonpositive, b-bound grows."""
    t0 = time.perf_counter()
    rep = fountain_diagnostics(bounded_spec, 30)
    assert all(b2 <= b1 for b1, b2 in zip(rep.beta, rep.beta[1:]))
    assert rep.beta[-1] / rep.beta[0] <= 0.5
    assert all(a <= 0.0 for _, a in rep.a_check)
    tail = rep.b_lower[-10:]
    assert all(b2 >= b1 for b1, b2 in zip(tail, tail[1:]))
    assert rep.b_lower[-1] == max(rep.b_lower)
    _passline("C8 fountain diagnostics", t0,
              f"beta ratio {rep.beta[-1] / rep.beta[0]:.3f}")


def test_c9_sphere_manifold_maps(bounded_spec):
    """C9: m and its inverse invert each other; Lipschitz bound never violated."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    spec = bounded_spec
    dom = spec.domain
    for _ in range(100):
        raw = random_state(spec, rng)
        w = raw.scaled(1.0 / norm_E(spec, raw))
        back = m_inverse(spec, m_map(spec, w))
        diff = State.from_values(dom, back.u.values - w.u.values,
                                 back.v.values - w.v.values)
        assert norm_E(spec, diff) <= 1e-10

    violations = 0
    for _ in range(1000):
        _, a = fibering_project(spec, random_state(spec, rng))
        _, b = fibering_project(spec, random_state(spec, rng))
        ia, ib = m_inverse(spec, a), m_inverse(spec, b)
        lhs = norm_E(spec, State.from_values(
            dom, ia.u.values - ib.u.values, ia.v.values - ib.v.values))
        rhs = 2.0 * norm_E(spec, State.from_values(
            dom, a.u.values - b.u.values, a.v.values - b.v.values)) / norm_E(spec, a)
        if lhs > rhs * (1.0 + 1e-12):
            violations += 1
    assert violations == 0
    _passline("C9 sphere-manifold maps", t0, "1000 pairs, 0 violations")


def test_c10_determinism(tmp_path):
    """C10: identical config and seed produce byte-identical artifacts."""
    t0 = time.perf_counter()
    cfg_file = tmp_path / "det.cfg"
    cfg_file.write_text("""
[problem]
kind = dirichlet_box
lengths = 1.0
resolution = 256

[solve]
starts = 3
seed = 7
""")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["ground", "--config", str(cfg_file), "--out", str(out1)]) == 0
    assert main(["ground", "--config", str(cfg_file), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names and names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name
    _passline("C10 determinism", t0, f"{len(names)} artifacts compared")
