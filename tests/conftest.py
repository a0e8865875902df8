import sys

import numpy as np
import pytest

from nehari.grid import DomainSpec, GridFunction
from nehari.model import Nonlinearity, ProblemSpec


def make_spec(domain, q=3.0, f1=((1.0, 4.0),), f2=((1.0, 4.0),),
              V1=1.0, V2=1.0, lam=0.3):
    """Assemble a ProblemSpec from constants or callables."""
    def field(data):
        if callable(data):
            return GridFunction.from_callable(domain, data)
        return GridFunction.constant(domain, data)

    return ProblemSpec(
        domain=domain, q=q,
        f1=Nonlinearity(f1), f2=Nonlinearity(f2),
        V1=field(V1), V2=field(V2), lam=field(lam),
    )


@pytest.fixture(scope="session")
def bounded_spec():
    """The 1D bounded default: (0,1), 256 interior nodes, f = |s|^2 s, q = 3."""
    return make_spec(DomainSpec.dirichlet_box(1.0, 256))


@pytest.fixture(scope="session")
def small_bounded_spec():
    return make_spec(DomainSpec.dirichlet_box(1.0, 64))


@pytest.fixture(scope="session")
def bounded_2d_spec():
    """A 2D box with varying potentials, two-term nonlinearity and q = 2.5."""
    dom = DomainSpec.dirichlet_box((1.0, 1.0), (24, 24))
    return make_spec(
        dom, q=2.5,
        f1=((1.0, 3.5), (0.5, 4.5)), f2=((1.0, 4.0),),
        V1=lambda x, y: 1.0 + 0.5 * np.sin(np.pi * x) * y,
        V2=2.0,
        lam=lambda x, y: 0.4 * np.sqrt(2.0 * (1.0 + 0.5 * np.sin(np.pi * x) * y)),
    )


@pytest.fixture(scope="session")
def periodic_spec_1d():
    """1D torus, period 8, 16 nodes per cell, cosine potential well."""
    dom = DomainSpec.periodic_torus([8], 16)
    return make_spec(
        dom,
        V1=lambda x: 1.0 + 0.25 * np.cos(2.0 * np.pi * x),
        V2=1.0,
        lam=0.2,
    )


@pytest.fixture(scope="session")
def periodic_spec_2d():
    """Small 2D torus for fast solver tests."""
    dom = DomainSpec.periodic_torus([6, 6], 8)
    return make_spec(dom, lam=0.3)


def random_state(spec, rng, smooth=False):
    from nehari.energy import State

    dom = spec.domain
    u = rng.standard_normal(dom.shape)
    v = rng.standard_normal(dom.shape)
    return State.from_values(dom, u, v)


def force_undominated_root(monkeypatch):
    """Make the projection's root finder return a thousandth of the lower
    end of its bracket, where the fibering value falls below the value at
    that end."""
    module = sys.modules["nehari.energy"]
    root = module._project_ray

    def below_bracket(rd):
        t, bracket, iterations = root(rd)
        return 1e-3 * bracket[0], bracket, iterations

    monkeypatch.setattr(module, "_project_ray", below_bracket)


def count_calls(monkeypatch, counts, name, weight=None):
    """Count calls of ``name`` in every nehari module namespace that binds it.

    With ``weight`` each call adds ``weight(*args, **kwargs)`` instead of one
    (the rows a batched kernel was given, say).  Modules come from
    ``sys.modules``: the package attribute ``nehari.energy`` is the
    ``energy`` function, not the module.
    """
    modules = [sys.modules[f"nehari.{m}"] for m in ("energy", "solver", "multiplicity", "cli")
               if f"nehari.{m}" in sys.modules]
    target = next(m.__dict__[name] for m in modules if name in m.__dict__)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + (1 if weight is None else weight(*args, **kwargs))
        return target(*args, **kwargs)

    for mod in modules:
        if mod.__dict__.get(name) is target:
            monkeypatch.setattr(mod, name, counted)


# rows handed to the batched kernels: pair arrays carry them on their leading
# axis, a state is one row
def ray_rows(spec, u, v):
    return u.shape[0] if u.ndim > spec.domain.dimension else 1


def projected_rows(spec, s, *args, **kwargs):
    return len(s) if isinstance(s, np.ndarray) else 1


def descended_rows(spec, config, init, *args, **kwargs):
    return len(init)


def realized_rows(spec, S1, known, *args, **kwargs):
    return len(S1) * len(known)
