"""Nonlinearity evaluation and hypothesis validation."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nehari.grid import DomainSpec, GridFunction
from nehari.model import (
    Nonlinearity,
    ProblemSpec,
    radius_R,
    validate_nonlinearity,
    validate_potentials,
    validate_problem,
)
from conftest import make_spec


def test_power_term_values():
    nl = Nonlinearity(((1.0, 4.0),))
    assert nl.f(2.0) == 8.0
    assert nl.F(2.0) == 4.0
    assert nl.f_prime(2.0) == 12.0


def test_oddness():
    nl = Nonlinearity(((1.0, 3.5), (0.5, 4.5)))
    s = np.geomspace(1e-4, 1e3, 50)
    assert np.allclose(nl.f(-s), -nl.f(s), rtol=0, atol=0)
    assert np.array_equal(nl.F(-s), nl.F(s))


def test_F_prime_is_f():
    """Central difference of the primitive recovers f to 1e-8 relative."""
    nl = Nonlinearity(((1.2, 3.6), (0.4, 5.0)))
    for s in (0.037, 0.9, 4.1, 210.0):
        h = 1e-6 * max(1.0, abs(s))
        fd = (nl.F(s + h) - nl.F(s - h)) / (2.0 * h)
        assert abs(fd - nl.f(s)) <= 1e-8 * abs(nl.f(s))


def test_validate_single_power():
    rep = validate_nonlinearity(Nonlinearity(((1.0, 4.0),)), 3.0)
    assert rep.passed
    assert all(c.margin > 0 for c in rep.checks)


def test_validate_rejects_low_exponent():
    rep = validate_nonlinearity(Nonlinearity(((1.0, 2.5),)), 3.0)
    assert not rep.passed
    assert any("F4" in c.name for c in rep.failures())


def test_validate_rejects_bad_coefficient():
    rep = validate_nonlinearity(Nonlinearity(((-1.0, 4.0), (1.0, 4.0))), 3.0)
    assert any("F3" in c.name for c in rep.failures())


def test_validate_two_terms():
    rep = validate_nonlinearity(Nonlinearity(((1.0, 3.5), (0.5, 4.5))), 3.0)
    assert rep.passed


def test_validate_supercritical_3d():
    rep = validate_nonlinearity(Nonlinearity(((1.0, 7.0),)), 3.0, dimension=3)
    assert not rep.passed
    assert any("F1" in c.name for c in rep.failures())
    # the same growth is fine in 2D, where there is no critical exponent
    assert validate_nonlinearity(Nonlinearity(((1.0, 7.0),)), 3.0, dimension=2).passed


@st.composite
def _valid_families(draw):
    """``(q, f)``: ``q`` in [2.1, 3.5] and a nonlinearity of one to three
    terms, coefficients in [0.1, 5] and exponents 0.2 to 2 above ``q``."""
    q = draw(st.floats(2.1, 3.5))
    term = st.tuples(st.floats(0.1, 5.0), st.floats(0.2, 2.0).map(lambda d: q + d))
    return q, Nonlinearity(tuple(draw(st.lists(term, min_size=1, max_size=3))))


@settings(max_examples=200, deadline=None)
@given(family=_valid_families())
@example(family=(3.0, Nonlinearity(((1.0, 4.0),))))                # the default f = |s|^2 s
@example(family=(2.5, Nonlinearity(((1.0, 3.5), (0.5, 4.5)))))    # the 2D fixture's f1
@example(family=(2.5, Nonlinearity(((1.0, 4.0),))))                # and its f2
def test_scalar_inequalities_on_random_families(family):
    """AR chain and the superlinear-slope inequality hold with positive margin."""
    q, nl = family
    s = np.geomspace(1e-6, 1e6, 200)
    assert validate_nonlinearity(nl, q).passed
    fs = nl.f_times_s(s)
    assert np.all(q * nl.F(s) <= fs)
    assert np.all(q * nl.F(s) >= 0)
    assert np.all(nl.f_prime(s) * s * s - fs > (q - 2.0) * fs)


def test_potentials_validation():
    dom = DomainSpec.dirichlet_box(1.0, 16)
    spec = make_spec(dom, lam=0.5)
    rep = validate_potentials(spec)
    assert rep.passed
    assert np.isclose(rep.effective_delta, 0.5)

    bad = make_spec(dom, lam=1.2)
    rep = validate_potentials(bad)
    assert not rep.passed
    assert any("V2" in c.name for c in rep.failures())

    mixed = make_spec(dom, V1=4.0, V2=1.0, lam=1.0)
    rep = validate_potentials(mixed)
    assert rep.passed
    assert rep.effective_delta == 0.5   # measured: 1 / sqrt(4 * 1)


def test_periodic_fields_must_tile():
    dom = DomainSpec.periodic_torus([4], 8)
    # 4-periodic but not 1-periodic: violates the cell-repetition requirement
    bad_field = GridFunction.from_callable(
        dom, lambda x: 1.5 + np.sin(2.0 * np.pi * x / 4.0), tile_unit_cell=False)
    spec = ProblemSpec(domain=dom, q=3.0,
                       f1=Nonlinearity(((1.0, 4.0),)), f2=Nonlinearity(((1.0, 4.0),)),
                       V1=bad_field, V2=GridFunction.constant(dom, 1.0),
                       lam=GridFunction.constant(dom, 0.0))
    rep = validate_potentials(spec)
    assert any("V3" in c.name for c in rep.failures())

    good = make_spec(dom, V1=lambda x: 1.0 + 0.25 * np.cos(2.0 * np.pi * x), lam=0.2)
    assert validate_potentials(good).passed


def test_validate_problem_aggregates(bounded_spec):
    rep = validate_problem(bounded_spec)
    assert rep.passed
    text = rep.format_text()
    assert "result: PASS" in text
    assert rep.effective_delta is not None


@pytest.mark.parametrize("terms,q,expected", [
    (((1.0, 4.0),), 3.0, 4.0 / 3.0),
    (((1.0, 4.0),), 2.5, 1.6 ** (2.0 / 3.0)),
    (((10.0, 4.0),), 3.0, 2.0 / 15.0),
])
def test_radius_closed_forms(terms, q, expected):
    """F(s) = s^q/q crossings computed from the closed-form equations."""
    R = radius_R(Nonlinearity(terms), q)
    assert abs(R - expected) <= 1e-9 * expected
    nl = Nonlinearity(terms)
    s = np.geomspace(R * (1 + 1e-6), R * 1e3, 100)
    assert np.all(nl.F(s) > np.abs(s) ** q / q)


def test_problem_spec_guards():
    dom = DomainSpec.dirichlet_box(1.0, 8)
    with pytest.raises(ValueError):
        make_spec(dom, q=2.0)
