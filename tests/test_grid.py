"""Discrete operators, norms, shifts and the grid file format."""

import numpy as np
import pytest

from nehari.grid import (
    DomainSpec,
    GridFunction,
    grid_function_to_csv,
    h_inner,
    h_norm_sq,
    l2_inner,
    l2_norm_sq,
    laplacian_apply,
    load_grid_function,
    local_mass_sup,
    lp_norm,
    save_grid_function,
    shift,
)


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec(4, "dirichlet_box", (8, 8, 8, 8), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        DomainSpec(1, "periodic_torus", (10,), (4,))   # 10 not a multiple of 4
    with pytest.raises(ValueError):
        DomainSpec(1, "periodic_torus", (4,), (4,))    # only 1 point per cell
    with pytest.raises(ValueError):
        DomainSpec(1, "dirichlet_box", (0,), (1.0,))


def test_combinability_requires_identical_domain():
    a = GridFunction.constant(DomainSpec.dirichlet_box(1.0, 16), 1.0)
    b = GridFunction.constant(DomainSpec.dirichlet_box(1.0, 17), 1.0)
    with pytest.raises(ValueError):
        l2_inner(a, b)


def test_values_immutable_and_finite():
    dom = DomainSpec.dirichlet_box(1.0, 8)
    f = GridFunction.constant(dom, 2.0)
    with pytest.raises(ValueError):
        f.values[0] = 3.0
    with pytest.raises(ValueError):
        GridFunction(dom, np.full(dom.shape, np.nan))


def test_periodic_constant_in_kernel():
    dom = DomainSpec.periodic_torus([4, 4], 4)
    f = GridFunction.constant(dom, 3.25)
    assert np.all(laplacian_apply(f).values == 0.0)


def test_dirichlet_sine_eigenrelation():
    """sin(k pi x) is an exact eigenvector of the 1D stencil."""
    dom = DomainSpec.dirichlet_box(1.0, 200)
    h = dom.spacing[0]
    x = dom.axis_coordinates(0)
    for k in (1, 3, 7):
        f = GridFunction(dom, np.sin(k * np.pi * x))
        lam = 4.0 / h ** 2 * np.sin(k * np.pi * h / 2.0) ** 2
        err = np.max(np.abs(laplacian_apply(f).values - lam * f.values))
        assert err <= 1e-10 * lam


@pytest.mark.parametrize("domain", [
    DomainSpec.dirichlet_box(1.0, 97),
    DomainSpec.dirichlet_box((1.0, 2.0), (12, 17)),
    DomainSpec.periodic_torus([4], 8),
    DomainSpec.periodic_torus([3, 2], 6),
])
def test_summation_by_parts(domain):
    """<-lap f, f>_h equals the forward-difference energy to 1e-13 relative."""
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = GridFunction(domain, rng.standard_normal(domain.shape))
        lhs = l2_inner(laplacian_apply(f), f)
        rhs = h_norm_sq(f, 0.0)
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


def test_h_norm_zero_and_scaling():
    dom = DomainSpec.dirichlet_box(1.0, 33)
    V = GridFunction.constant(dom, 1.0)
    zero = GridFunction.constant(dom, 0.0)
    assert h_norm_sq(zero, V) == 0.0
    rng = np.random.default_rng(2)
    f = GridFunction(dom, rng.standard_normal(dom.shape))
    t = 1.7
    ft = GridFunction(dom, t * f.values)
    assert np.isclose(h_norm_sq(ft, V), t * t * h_norm_sq(f, V), rtol=1e-14)


def test_h_norm_rejects_negative_potential():
    dom = DomainSpec.dirichlet_box(1.0, 8)
    f = GridFunction.constant(dom, 1.0)
    with pytest.raises(ValueError):
        h_norm_sq(f, GridFunction.constant(dom, -0.1))


def test_h_norm_sine_mode_second_order():
    """Discrete ||sin(pi x)||_1^2 converges to pi^2/2 + 1/2 at order h^2."""
    exact = np.pi ** 2 / 2.0 + 0.5
    errs = []
    for n in (16, 32, 64):
        dom = DomainSpec.dirichlet_box(1.0, n)
        x = dom.axis_coordinates(0)
        f = GridFunction(dom, np.sin(np.pi * x))
        errs.append(abs(h_norm_sq(f, 1.0) - exact))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_lp_norm_values_and_convergence():
    """|sin|_3^3 -> 4/(3 pi) at first order or better; |sin|_4^4 = 3/8 exactly."""
    target3 = (4.0 / (3.0 * np.pi)) ** (1 / 3.0)
    errs = []
    for n in (16, 32, 64):
        dom = DomainSpec.dirichlet_box(1.0, n)
        f = GridFunction(dom, np.sin(np.pi * dom.axis_coordinates(0)))
        errs.append(abs(lp_norm(f, 3.0) - target3))
        # the rectangle rule integrates sin^4 exactly on these grids
        assert abs(lp_norm(f, 4.0) - (3.0 / 8.0) ** 0.25) <= 1e-14
    assert errs[-1] <= 1e-4
    assert all(e1 / e2 >= 1.8 for e1, e2 in zip(errs, errs[1:]))
    dom = DomainSpec.dirichlet_box(1.0, 8)
    assert lp_norm(GridFunction.constant(dom, 0.0), 2.0) == 0.0
    with pytest.raises(ValueError):
        lp_norm(GridFunction.constant(dom, 1.0), 0.5)


def test_shift_group_action():
    dom = DomainSpec.periodic_torus([4, 3], 5)
    rng = np.random.default_rng(3)
    f = GridFunction(dom, rng.standard_normal(dom.shape))
    assert np.array_equal(shift(f, (0, 0)).values, f.values)
    g = shift(shift(f, (2, -1)), (-2, 1))
    assert np.array_equal(g.values, f.values)
    with pytest.raises(ValueError):
        shift(GridFunction.constant(DomainSpec.dirichlet_box(1.0, 8), 1.0), (1,))


def test_norms_exactly_shift_invariant():
    """Norms and inner products are bitwise invariant under periodic shifts."""
    dom = DomainSpec.periodic_torus([4, 3], 5)
    rng = np.random.default_rng(30)
    f = GridFunction(dom, rng.standard_normal(dom.shape))
    g = GridFunction(dom, rng.standard_normal(dom.shape))
    V = GridFunction.from_callable(dom, lambda x, y: 1.0 + 0.5 * np.sin(2 * np.pi * x))
    for z in [(1, 0), (2, 2), (-1, 2), (3, -1)]:
        fz, gz, Vz = shift(f, z), shift(g, z), shift(V, z)
        assert np.array_equal(Vz.values, V.values)   # V is cell-periodic
        assert lp_norm(fz, 3.0) == lp_norm(f, 3.0)
        assert l2_norm_sq(fz) == l2_norm_sq(f)
        assert l2_inner(fz, gz) == l2_inner(f, g)
        assert h_norm_sq(fz, V) == h_norm_sq(f, V)
        assert h_inner(fz, gz, V) == h_inner(f, g, V)


def test_local_mass_sup_spike_and_equivariance():
    dom = DomainSpec.periodic_torus([5, 5], 4)
    zero = GridFunction.constant(dom, 0.0)
    val, _ = local_mass_sup(zero, zero, 1.0)
    assert val == 0.0

    spike = np.zeros(dom.shape)
    spike[7, 11] = 1.0
    u = GridFunction(dom, spike)
    val, center = local_mass_sup(u, zero, dom.spacing[0])
    assert center == (7, 11)
    assert np.isclose(val, dom.cell_volume, rtol=1e-14)

    # equivariance: shifting the data shifts the attaining center, same value
    us = shift(u, (1, 2))
    val_s, center_s = local_mass_sup(us, zero, dom.spacing[0])
    assert val_s == val
    assert center_s == ((7 + 4) % 20, (11 + 8) % 20)

    with pytest.raises(ValueError):
        local_mass_sup(u, zero, 2.6)   # exceeds half the period


def test_grid_file_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    for dom in (DomainSpec.dirichlet_box((1.0, 0.5), (9, 7)),
                DomainSpec.periodic_torus([3], 4)):
        f = GridFunction(dom, rng.standard_normal(dom.shape))
        path = tmp_path / "field.grid"
        save_grid_function(f, path)
        g = load_grid_function(path)
        assert g.domain == dom
        assert np.array_equal(g.values, f.values)
        header = path.read_bytes().split(b"\n", 1)[0].decode()
        assert header.startswith("nehari-grid v1; dim=")

    with pytest.raises(ValueError):
        bogus = tmp_path / "bogus.grid"
        bogus.write_bytes(b"not a grid\n")
        load_grid_function(bogus)


def _saved_grid_bytes(tmp_path) -> tuple[bytes, bytes]:
    dom = DomainSpec.dirichlet_box((1.0, 0.5), (3, 2))
    path = tmp_path / "ok.grid"
    save_grid_function(GridFunction(dom, np.arange(6.0).reshape(3, 2)), path)
    header, payload = path.read_bytes().split(b"\n", 1)
    return header, payload


@pytest.mark.parametrize("defect, edit", [
    pytest.param("payload holds", lambda h, p: h + b"\n" + p + b"\x00", id="extra-byte"),
    pytest.param("payload holds", lambda h, p: h + b"\n" + p[:-1], id="missing-byte"),
    pytest.param("unknown header field 'units'", lambda h, p: h + b"; units=m\n" + p,
                 id="unknown-field"),
    pytest.param("duplicated header field 'dim'", lambda h, p: h + b"; dim=2\n" + p,
                 id="duplicated-field"),
    pytest.param("missing header field 'lengths'",
                 lambda h, p: h.rsplit(b"; lengths=", 1)[0] + b"\n" + p, id="missing-lengths"),
    pytest.param("unknown domain kind",
                 lambda h, p: h.replace(b"dirichlet", b"neumann") + b"\n" + p, id="unknown-kind"),
])
def test_grid_file_loader_is_strict(tmp_path, defect, edit):
    header, payload = _saved_grid_bytes(tmp_path)
    path = tmp_path / "bad.grid"
    path.write_bytes(edit(header, payload))
    with pytest.raises(ValueError, match=defect):
        load_grid_function(path)


def test_csv_export_shape():
    dom = DomainSpec.dirichlet_box(1.0, 4)
    f = GridFunction(dom, np.arange(4.0))
    lines = grid_function_to_csv(f).strip().split("\n")
    assert lines[0] == "i1,x1,value"
    assert len(lines) == 5
    assert lines[1].startswith("0,")
