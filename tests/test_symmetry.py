"""The symmetry group of a problem, and the kernels that commute with it."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nehari.energy import _PCG_RTOL, _precondition, _ray_data, fibering_project, grad_l2
from nehari.grid import DomainSpec, _roll_cells
from conftest import make_spec


def _swap_sym(D):
    return np.stack((D[:, 0] + D[:, 1],) * 2, axis=1) * 0.5


def _swap_anti(D):
    m = 0.5 * (D[:, 0] - D[:, 1])
    return np.stack((m, -m), axis=1)


def _odd(axis):
    return lambda D: 0.5 * (D - np.flip(D, axis=2 + axis))


# (fixture, periods, swap, mirrors, the filters as their defining formulas);
# the first four columns are what the per-module predicates this record
# replaced returned on these fixtures
_TABLE = [
    ("bounded_spec", (), True, (0,), [_swap_sym, _swap_anti, _odd(0)]),
    ("bounded_2d_spec", (), False, (), []),
    ("periodic_spec_1d", (8,), False, (), []),
    ("periodic_spec_2d", (6, 6), True, (), [_swap_sym, _swap_anti]),
]


@pytest.mark.parametrize("name,periods,swap,mirrors,filters", _TABLE)
def test_symmetry_table(request, name, periods, swap, mirrors, filters):
    spec = request.getfixturevalue(name)
    group = spec.symmetry
    assert (group.periods, group.swap, group.mirrors) == (periods, swap, mirrors)
    assert spec.symmetry is group and group.filters is group.filters   # computed once
    D = np.random.default_rng(0).standard_normal((3, 2) + spec.domain.shape)
    assert len(group.filters) == len(filters)
    for filt, formula in zip(group.filters, filters):
        assert np.array_equal(filt(D), formula(D))


def test_mirrors_need_every_field_symmetric():
    """A box axis is a mirror only when V1, V2 and lambda are all bitwise
    symmetric along it; on a torus there is none."""
    box = DomainSpec.dirichlet_box((1.0, 2.0), (12, 10))
    assert make_spec(box).symmetry.mirrors == (0, 1)
    tilted = make_spec(box, lam=lambda x, y: 0.1 + 0.01 * y)
    assert tilted.symmetry.mirrors == (0,) and tilted.symmetry.swap
    assert not make_spec(box, f2=((1.0, 5.0),)).symmetry.swap
    assert make_spec(DomainSpec.periodic_torus([2, 3], 4)).symmetry.mirrors == ()


_WELL_2D = lambda x, y: 1.0 + 0.5 * np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)


@pytest.mark.parametrize("spec, steps", [
    (make_spec(DomainSpec.periodic_torus([3, 4], 6)), (1, 1)),   # constant fields
    (make_spec(DomainSpec.periodic_torus([16, 16], 16)), (1, 1)),   # the default torus
    (make_spec(DomainSpec.periodic_torus([8, 8], 8), V1=_WELL_2D, V2=_WELL_2D), (8, 8)),
    (make_spec(DomainSpec.periodic_torus([8], 16),   # the aliasing-lambda torus of the ladder
               lam=lambda x: 0.3 + 0.1 * np.cos(6.0 * np.pi * x)), (16,)),
    (make_spec(DomainSpec.periodic_torus([4, 4], 8),   # V1 varies along the first axis only
               V1=lambda x, y: 1.0 + 0.25 * np.cos(2.0 * np.pi * x)), (8, 1)),
    (make_spec(DomainSpec.periodic_torus([8], 16),   # a half-cell period, but not bitwise
               V2=lambda x: 1.0 + 0.25 * np.cos(4.0 * np.pi * x)), (16,)),
    (make_spec(DomainSpec.periodic_torus([8], 16),   # a half-cell period, bitwise
               V2=lambda x: 1.0 + 0.25 * np.round(np.cos(4.0 * np.pi * x), 6)), (8,)),
    (make_spec(DomainSpec.dirichlet_box(1.0, 64)), ()),
])
def test_node_steps(spec, steps):
    """Per torus axis the fewest nodes that a shift along it moves V1, V2 and
    lambda by and leaves them bitwise unchanged; every multiple of them does
    too, and no smaller shift does."""
    group = spec.symmetry
    assert group.node_steps == steps
    fields = (spec.V1.values, spec.V2.values, spec.lam.values)
    for axis, step in enumerate(steps):
        for d in range(1, spec.domain.shape[axis] + 1):
            same = all(np.array_equal(f, np.roll(f, d, axis=axis)) for f in fields)
            assert same == (d % step == 0)


@lru_cache(maxsize=None)
def _group_specs():
    """Problems whose groups hold every kind of element: a 1D box (swap, one
    mirror), a 2D box (swap, two mirrors), the cosine torus (cell shifts,
    conjugate-gradient solves) and a constant 2D torus (swap, 2D shifts)."""
    return (
        make_spec(DomainSpec.dirichlet_box(1.0, 64)),
        make_spec(DomainSpec.dirichlet_box((1.0, 2.0), (12, 10)), q=2.5,
                  f1=((1.0, 3.5), (0.5, 4.5)), f2=((1.0, 3.5), (0.5, 4.5))),
        make_spec(DomainSpec.periodic_torus([8], 16),
                  V1=lambda x: 1.0 + 0.25 * np.cos(2.0 * np.pi * x), V2=1.0, lam=0.2),
        make_spec(DomainSpec.periodic_torus([3, 4], 6), lam=0.3),
    )


def _elements(spec):
    """Every element of the problem's group, as ``(name, action on pair
    arrays, column order of the ray moments of the image)``."""
    group, dom = spec.symmetry, spec.domain
    columns = np.arange(3 + len(spec.f1.terms) + len(spec.f2.terms))
    yield "sign", lambda S: -S, columns
    if group.swap:
        u_terms = columns[3:3 + len(spec.f1.terms)]
        yield "swap", lambda S: S[:, ::-1], np.concatenate(
            [columns[:3], columns[3 + len(u_terms):], u_terms])
    for a in group.mirrors:
        yield f"mirror {a}", lambda S, a=a: np.flip(S, axis=2 + a), columns
    for z in list(np.ndindex(group.periods))[1:]:
        yield f"shift {z}", lambda S, z=z: _roll_cells(S, z, dom), columns


# Roundoff bounds where an element reorders a sum: the moments, t* and the
# projected rows agree to this fraction of the row's largest value, the
# transform solve to this fraction of its largest entry.  Conjugate
# gradients stop at the relative residual _PCG_RTOL, and two solves may stop
# one iterate apart, so their results agree to _PCG_SLACK * _PCG_RTOL.
_ROUNDOFF = 1e-12
_PCG_SLACK = 1e3


def _close(a, b, bound):
    """Row by row, ``|a - b| <= bound`` times the row's largest ``|b|``."""
    scale = np.abs(b).reshape(len(b), -1).max(axis=1)
    return np.all(np.abs(a - b).reshape(len(b), -1).max(axis=1) <= bound * scale)


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 3),
       data=st.data())
def test_kernels_commute_with_every_group_element(which, seed, rows, data):
    """For random rows ``S`` and every element ``g`` of the problem's group,
    ``grad_l2``, ``_precondition``, the ray moments and ``fibering_project``
    commute with ``g``.  The sign flip commutes bit for bit everywhere (each
    kernel is odd or even, and rounding is odd), and ``grad_l2`` bit for bit
    under every element (it is elementwise: a stencil of commutative
    neighbor sums and pointwise terms).  Swaps, mirrors and shifts reorder
    the sums of the moments and the transforms, so those agree to
    ``_ROUNDOFF``; under a swap the moments of the u and v terms trade
    columns."""
    spec = _group_specs()[which]
    name, g, columns = data.draw(st.sampled_from(list(_elements(spec))), label="element")
    S = np.random.default_rng(seed).standard_normal((rows, 2) + spec.domain.shape)
    gS = np.ascontiguousarray(g(S))

    G = grad_l2(spec, S)
    assert np.array_equal(grad_l2(spec, gS), g(G))

    P, gP = _precondition(spec, G), _precondition(spec, np.ascontiguousarray(g(G)))
    moments = _ray_data(spec, S[:, 0], S[:, 1]).m[:, columns]
    g_moments = _ray_data(spec, gS[:, 0], gS[:, 1]).m
    report, F = fibering_project(spec, S)
    g_report, gF = fibering_project(spec, gS)
    if name == "sign":
        assert np.array_equal(gP, g(P))
        assert np.array_equal(g_moments, moments)
        assert np.array_equal(g_report.t_star, report.t_star)
        assert np.array_equal(gF, g(F))
        return
    pcg = not all(np.all(V == V.flat[0]) for V in spec.potential_pair)
    assert _close(gP, g(P), _PCG_SLACK * _PCG_RTOL if pcg else _ROUNDOFF)
    assert _close(g_moments, moments, _ROUNDOFF)
    assert np.all(np.abs(g_report.t_star - report.t_star) <= _ROUNDOFF * report.t_star)
    assert _close(gF, g(F), _ROUNDOFF)
