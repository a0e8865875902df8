"""Discrete operators, norms, shifts and the grid file format."""

import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nehari.grid import (
    DomainError,
    DomainSpec,
    GridFunction,
    _ball_offsets,
    _forward_difference,
    _gradient_energy,
    _laplacian_values,
    _neighbor_sum,
    grid_function_to_csv,
    schrodinger_apply,
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
    # non-finite lengths are rejected before a torus period meets int()
    for bad in (np.inf, -np.inf, np.nan, float("1e400")):
        with pytest.raises(ValueError, match="positive and finite"):
            DomainSpec(1, "dirichlet_box", (8,), (bad,))
        with pytest.raises(ValueError, match="positive and finite"):
            DomainSpec(2, "periodic_torus", (32, 32), (bad, 16.0))
    # the torus constructor checks its periods before it makes them integers
    for bad in (1.5, np.inf, np.nan):
        with pytest.raises(DomainError, match=f"torus period {bad:g} must be a positive"):
            DomainSpec.periodic_torus([bad], 8)


@pytest.mark.parametrize("kind, shape, lengths, message, keys", [
    ("periodic_torus", (32, 32), (np.nan, 16.0), "positive and finite", ("lengths",)),
    ("dirichlet_box", (8,), (0.0,), "positive and finite", ("lengths",)),
    ("dirichlet_box", (0,), (1.0,), "resolution must be positive", ("resolution",)),
    ("periodic_torus", (8,), (1.5,), "torus periods must be integers", ("lengths",)),
    ("periodic_torus", (10,), (4.0,), "integer multiple", ("resolution", "lengths")),
    ("dirichlet_box", (8,) * 4, (1.0,) * 4, "dimension must be", ("resolution", "lengths")),
])
def test_domain_errors_name_their_keys(kind, shape, lengths, message, keys):
    """A domain that cannot be discretized raises a ``DomainError`` (a
    ``ValueError``) naming the inputs at fault, as the config keys do."""
    with pytest.raises(DomainError, match=message) as exc:
        DomainSpec(len(shape), kind, shape, lengths)
    assert exc.value.keys == keys


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


def test_grid_function_owns_a_copy_of_its_values():
    """The given array stays writeable, and a later write to it, or to the
    base of a view, leaves the grid function unchanged."""
    dom = DomainSpec.dirichlet_box(1.0, 8)
    a = np.arange(8.0)
    g = GridFunction(dom, a)
    assert a.flags.writeable and not g.values.flags.writeable
    a[0] = 99.0
    assert g.values[0] == 0.0
    base = np.zeros((3, 8))
    h = GridFunction(dom, base[1])
    base[1, 0] = 5.0
    assert h.values[0] == 0.0 and h.values.flags.c_contiguous


_BOX8 = DomainSpec.dirichlet_box(1.0, 8)
_TORUS4 = DomainSpec.periodic_torus([2], 4)


@pytest.mark.parametrize("call, error, message", [
    (lambda: setattr(GridFunction.constant(_BOX8, 1.0), "values", np.zeros(8)),
     AttributeError, "cannot assign to field 'values'"),
    (lambda: GridFunction(_BOX8, np.zeros(3)),
     ValueError, "values shape (3,) does not match domain shape (8,)"),
    (lambda: schrodinger_apply(GridFunction.constant(_BOX8, 1.0),
                               GridFunction.constant(DomainSpec.dirichlet_box(2.0, 8), 1.0)),
     ValueError, "potential lives on a different domain"),
    (lambda: shift(GridFunction.constant(_TORUS4, 1.0), (1, 1)),
     ValueError, "shift vector must have one entry per axis"),
    (lambda: local_mass_sup(*[GridFunction.constant(_BOX8, 1.0)] * 2, 0.1),
     ValueError, "local_mass_sup requires a periodic domain"),
    (lambda: local_mass_sup(*[GridFunction.constant(_TORUS4, 1.0)] * 2, 0.0),
     ValueError, "radius must be positive"),
    (lambda: DomainSpec(1, "sphere", (8,), (1.0,)),
     ValueError, "kind must be one of ('dirichlet_box', 'periodic_torus'), got 'sphere'"),
    (lambda: DomainSpec(2, "dirichlet_box", (8,), (1.0, 1.0)),
     DomainError, "shape and lengths must have one entry per axis"),
], ids=["frozen", "values_shape", "potential_domain", "shift_length", "mass_on_box",
        "mass_radius", "domain_kind", "axis_counts"])
def test_guard_messages(call, error, message):
    """Each guard raises its documented error with its own message."""
    with pytest.raises(error, match=re.escape(message)):
        call()


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
    """<-lap f, f>_h equals the forward-difference energy of the moments to
    1e-13 relative."""
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = GridFunction(domain, rng.standard_normal(domain.shape))
        lhs = l2_inner(laplacian_apply(f), f)
        rhs = _gradient_energy(f.values, domain)
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
    pytest.param("not a nehari-grid file", lambda h, p: b"not a grid\n", id="not-a-grid"),
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


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(2, 9), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_periodic_stencil_matches_roll_bitwise(shape, seed):
    """The roll-free periodic neighbor sum and forward difference are the
    ``np.roll`` forms bit for bit, signed zeros included."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape)
    a[rng.random(shape) < 0.2] = 0.0
    a[rng.random(shape) < 0.2] = -0.0
    dom = DomainSpec.periodic_torus([1] * len(shape), shape)
    for axis in range(len(shape)):
        rolled_sum = np.roll(a, 1, axis=axis) + np.roll(a, -1, axis=axis)
        assert _neighbor_sum(a, axis, True).tobytes() == rolled_sum.tobytes()
        rolled_diff = np.roll(a, -1, axis=axis) - a
        assert _forward_difference(a, axis, dom).tobytes() == rolled_diff.tobytes()


def _reference_laplacian(a, dom):
    """``-lap_h a`` as a zero-initialized sum of ``(2 a - neighbours) / h^2``
    per axis, with rolled (torus) or zero-padded (box) neighbours."""
    out = np.zeros_like(a)
    for axis in range(a.ndim):
        if dom.periodic:
            nb = np.roll(a, 1, axis=axis) + np.roll(a, -1, axis=axis)
        else:
            padded = np.pad(a, [(1, 1) if k == axis else (0, 0) for k in range(a.ndim)])
            nb = np.take(padded, np.arange(2, a.shape[axis] + 2), axis=axis) \
                + np.take(padded, np.arange(a.shape[axis]), axis=axis)
        out += (2.0 * a - nb) / dom.spacing[axis] ** 2
    return out


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(2, 9), min_size=1, max_size=3),
       periodic=st.booleans(), rows=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_laplacian_matches_reference_bitwise(shape, periodic, rows, seed):
    """The stencil with its in-place passes is the zero-initialized reference
    sum bit for bit, signed zeros included, and each row of a batch (leading
    axes) is the stencil of that row alone."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, 2) + tuple(shape))
    a[rng.random(a.shape) < 0.2] = 0.0
    a[rng.random(a.shape) < 0.2] = -0.0
    dom = DomainSpec.periodic_torus([1] * len(shape), shape) if periodic \
        else DomainSpec.dirichlet_box([1.0] * len(shape), shape)
    batch = _laplacian_values(a, dom)
    for r in range(rows):
        for c in range(2):
            field = np.ascontiguousarray(a[r, c])
            assert batch[r, c].tobytes() == _reference_laplacian(field, dom).tobytes()
            assert _laplacian_values(field, dom).tobytes() == batch[r, c].tobytes()


def _reference_csv(f: GridFunction) -> str:
    """Per-node CSV formatter: the definition ``grid_function_to_csv`` must match."""
    d = f.domain
    out = io.StringIO()
    idx_cols = [f"i{a + 1}" for a in range(d.dimension)]
    pos_cols = [f"x{a + 1}" for a in range(d.dimension)]
    out.write(",".join(idx_cols + pos_cols + ["value"]) + "\n")
    axes = [d.axis_coordinates(a) for a in range(d.dimension)]
    for idx in np.ndindex(d.shape):
        pos = [format(axes[a][idx[a]], ".17g") for a in range(d.dimension)]
        out.write(",".join([str(i) for i in idx] + pos + [format(f.values[idx], ".17g")]) + "\n")
    return out.getvalue()


_SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
                   1.7e308, -1.7e308, 3.0, -42.0, 2.0 ** 53, 0.1]


@st.composite
def _domains(draw, lengths=st.floats(0.1, 10.0)):
    """Boxes and tori in 1D/2D/3D with at most 5 (box) or 9 (torus) nodes per axis;
    ``lengths`` draws the box side lengths."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        periods = draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
        ppc = draw(st.lists(st.integers(2, 3), min_size=dim, max_size=dim))
        return DomainSpec.periodic_torus(periods, ppc)
    shape = draw(st.lists(st.integers(1, 5), min_size=dim, max_size=dim))
    sides = draw(st.lists(lengths, min_size=dim, max_size=dim))
    return DomainSpec.dirichlet_box(sides, shape)


@settings(max_examples=80, deadline=None)
@given(dom=_domains(), data=st.data())
def test_csv_export_matches_per_node_formatter(dom, data):
    """The slab-wise CSV export equals the per-node formatter byte for byte."""
    value = st.one_of(st.sampled_from(_SPECIAL_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False),
                      st.integers(-2 ** 53, 2 ** 53).map(float))
    drawn = data.draw(st.lists(value, min_size=dom.size, max_size=dom.size))
    specials = np.resize(np.array(_SPECIAL_VALUES), dom.size)
    for vals in (drawn, specials):
        f = GridFunction(dom, np.array(vals, dtype=float).reshape(dom.shape))
        assert grid_function_to_csv(f) == _reference_csv(f)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dom=_domains(lengths=st.floats(0.0, exclude_min=True, allow_infinity=False)),
       data=st.data())
def test_grid_file_roundtrip(tmp_path, dom, data):
    """Save then load gives the same domain and values; saving again gives
    the same bytes (signed zeros, subnormals and extreme values included)."""
    value = st.one_of(st.sampled_from(_SPECIAL_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False))
    vals = data.draw(st.lists(value, min_size=dom.size, max_size=dom.size))
    f = GridFunction(dom, np.array(vals, dtype=float).reshape(dom.shape))
    first, second = tmp_path / "first.grid", tmp_path / "second.grid"
    save_grid_function(f, first)
    g = load_grid_function(first)
    assert g.domain == dom
    assert g.values.tobytes() == f.values.tobytes()
    save_grid_function(g, second)
    assert second.read_bytes() == first.read_bytes()
    assert first.read_bytes().startswith(b"nehari-grid v1; dim=")


def _reference_local_mass(w: np.ndarray, dom: DomainSpec, r: float) -> np.ndarray:
    """Brute force: the local mass field as one rolled copy per ball offset."""
    axes = tuple(range(dom.dimension))
    mass = np.zeros_like(w)
    for off in _ball_offsets(dom, r):
        mass += np.roll(w, tuple(-o for o in off), axis=axes)
    return mass * dom.cell_volume


@st.composite
def _local_mass_cases(draw):
    dim = draw(st.integers(1, 3))
    top_period, top_ppc = {1: (6, 8), 2: (4, 5), 3: (2, 3)}[dim]
    periods = draw(st.lists(st.integers(1, top_period), min_size=dim, max_size=dim))
    ppc = draw(st.lists(st.integers(2, top_ppc), min_size=dim, max_size=dim))
    dom = DomainSpec.periodic_torus(periods, ppc)
    fraction = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    z = draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim))
    return dom, fraction * min(dom.lengths) / 2.0, tuple(z), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(case=_local_mass_cases())
def test_local_mass_sup_matches_brute_force_and_is_equivariant(case):
    """The separable scan finds the brute-force center and mass (to 1e-13), and
    an integer cell shift of the data shifts the center with a bitwise equal mass.

    Where the ball wraps a whole period (e.g. 2k + 1 nodes on a ring of 2k + 1)
    several centers carry the same mass exactly and rounding picks among them,
    so there the center need only be one of the maximizers.
    """
    dom, r, z, seed = case
    rng = np.random.default_rng(seed)
    u = GridFunction(dom, rng.standard_normal(dom.shape))
    v = GridFunction(dom, rng.standard_normal(dom.shape))
    val, center = local_mass_sup(u, v, r)
    ref = _reference_local_mass(u.values ** 2 + v.values ** 2, dom, r)
    ref_max = float(ref.max())
    maximizers = {tuple(int(i) for i in idx)
                  for idx in np.argwhere(ref >= ref_max * (1.0 - 1e-12))}
    assert center in maximizers
    assert abs(val - ref_max) <= 1e-13 * ref_max

    val_s, center_s = local_mass_sup(shift(u, z), shift(v, z), r)
    assert val_s == val
    assert center_s == tuple((c + zi * m) % n for c, zi, m, n
                             in zip(center, z, dom.points_per_cell, dom.shape))
