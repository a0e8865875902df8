"""The two-thread route of the pair kernels: the same bits as one thread,
the same failures, and no helper thread where the gate is not crossed."""

import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nehari.grid as grid
from nehari.cli import default_config, run
from nehari.energy import State, _constant_shift_solve, _ray_data, grad_l2
from nehari.grid import DomainSpec, GridFunction, _gradient_energy, _trailing_axes
from nehari.model import Nonlinearity, ProblemSpec

from conftest import make_spec


@contextmanager
def _counted_helper():
    """A fresh helper pool, counting its submissions, and a monkeypatch;
    the pool is shut down afterwards."""
    submitted = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(grid, "_helper", None)
        real_pool = grid._helper_pool

        def counting_pool():
            submit = real_pool().submit

            class Counting:
                def submit(self, *args):
                    submitted.append(args)
                    return submit(*args)

            return Counting()

        m.setattr(grid, "_helper_pool", counting_pool)
        try:
            yield submitted, m
        finally:
            if grid._helper is not None:
                grid._helper.shutdown()


@pytest.fixture
def helper():
    """The submissions to a fresh helper pool (``_counted_helper``)."""
    with _counted_helper() as (submitted, _):
        yield submitted


def _route(monkeypatch, threads: bool) -> None:
    """Force the gate to 0 nodes, with two usable cores (the two-thread
    route) or one."""
    monkeypatch.setattr(grid, "_THREAD_NODES", 0)
    monkeypatch.setattr(grid, "_usable_cores", lambda: 2 if threads else 1)


def _field(domain, rng, low):
    """A positive field of random node values on ``domain``."""
    return GridFunction(domain, low + rng.random(domain.shape))


@st.composite
def _cases(draw):
    """A problem on a torus in 1-3D (odd and even node counts) or on a 1D
    box (sine transforms by the dense matrix and by the FFT), with drawn
    exponents, and 1-4 rows of random pairs (0: a single state, no row
    axis)."""
    kind = draw(st.sampled_from(["torus1", "torus2", "torus3", "box"]))
    if kind == "box":
        domain = DomainSpec.dirichlet_box(1.0, draw(st.integers(2, 301)))
    else:
        dim = int(kind[-1])
        top = {1: 41, 2: 13, 3: 7}[dim]
        periods = draw(st.lists(st.integers(1, 3), min_size=dim, max_size=dim))
        m = draw(st.lists(st.integers(2, top), min_size=dim, max_size=dim))
        domain = DomainSpec.periodic_torus(periods, m)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = draw(st.sampled_from([2.5, 3.0, 3.3]))
    terms = tuple((draw(st.floats(0.5, 2.0)), q + draw(st.sampled_from([0.5, 1.0, 1.7])))
                  for _ in range(draw(st.integers(1, 2))))
    spec = ProblemSpec(domain, q, Nonlinearity(terms), Nonlinearity(((1.0, q + 1.0),)),
                       _field(domain, rng, 1.0), _field(domain, rng, 2.0),
                       _field(domain, rng, 0.1))
    rows = draw(st.integers(0, 4))
    S = rng.standard_normal(((rows, 2) if rows else (1, 2)) + domain.shape)
    return spec, S, rows


def _pair_moments(spec, u, v):
    """The moment columns of ``_ray_data`` as the whole-pair formula forms
    them, both components in one expression."""
    dom = spec.domain
    vol = dom.cell_volume
    axes = _trailing_axes(u, dom)

    def total(x):
        return np.sum(x, axis=axes)

    au, av = np.abs(u), np.abs(v)
    columns = [_gradient_energy(u, dom) + total(spec.V1.values * u * u) * vol
               + _gradient_energy(v, dom) + total(spec.V2.values * v * v) * vol,
               total(spec.lam.values * u * v) * vol,
               (total(au ** spec.q) + total(av ** spec.q)) * vol]
    for comp, nl in ((au, spec.f1), (av, spec.f2)):
        columns += [a * total(comp ** p) * vol for a, p in nl.terms]
    return np.stack(columns, axis=-1)


def _serial_and_threaded(monkeypatch, f):
    _route(monkeypatch, False)
    serial = f()
    _route(monkeypatch, True)
    return serial, f()


@settings(max_examples=60, deadline=None)
@given(case=_cases())
@example(case=(make_spec(DomainSpec.periodic_torus([3, 3], 11), q=3.3, f1=((1.0, 4.7),)),
               np.random.default_rng(1).standard_normal((3, 2, 33, 33)), 3))
def test_threaded_kernels_equal_the_serial_route_bitwise(case):
    """With the gate forced to 0 nodes, ``_ray_data``, ``grad_l2`` and the
    shift solve give the serial route's bits on tori in 1-3D and on boxes,
    with odd and even node counts, for 1-4 rows and a single state; the
    shift solve also for an odd number of systems, and on a box in one
    call."""
    with _counted_helper() as (helper, monkeypatch):
        _check_kernels(*case, helper, monkeypatch)


def _check_kernels(spec, S, rows, helper, monkeypatch):
    dom = spec.domain
    submitted = len(helper)
    if rows:
        pairs = _serial_and_threaded(monkeypatch, lambda: _ray_data(spec, S[:, 0], S[:, 1]).m)
        grads = _serial_and_threaded(monkeypatch, lambda: grad_l2(spec, S))
    else:
        state = State.from_pair(dom, S[0])
        pairs = _serial_and_threaded(monkeypatch, lambda: _ray_data(spec, S[0, 0], S[0, 1]).m)
        grads = _serial_and_threaded(monkeypatch, lambda: grad_l2(spec, state).pair())
    systems = S.reshape((-1,) + dom.shape)
    shifts = 1.0 + np.arange(len(systems)) / 7.0
    solves = _serial_and_threaded(monkeypatch, lambda: _constant_shift_solve(dom, systems, shifts))
    odd = _serial_and_threaded(monkeypatch, lambda: _constant_shift_solve(
        dom, systems[:max(1, len(systems) - 1)], shifts[:max(1, len(systems) - 1)]))
    for serial, threaded in (pairs, grads, solves, odd):
        assert serial.shape == threaded.shape
        assert serial.tobytes() == threaded.tobytes()
    # the per-component moments combine as the whole-pair formula does
    u, v = (S[:, 0], S[:, 1]) if rows else (S[0, 0], S[0, 1])
    assert pairs[0].tobytes() == _pair_moments(spec, u, v).tobytes()
    # the threaded route ran: moments, gradient and the torus solves (one
    # system has no halves)
    assert len(helper) == 2 + dom.periodic * (1 + (len(systems) > 2))


@pytest.mark.parametrize("command, starts", [("decay", 2), ("ground", 3)])
def test_commands_write_the_same_bytes_on_one_core_and_two(tmp_path, capsys, monkeypatch,
                                                         helper, command, starts):
    """``decay`` and a periodic ``ground`` on a small torus write the same
    bytes with every kernel on two threads (gate 0) as with one usable core,
    and two threaded runs are identical; one core starts no thread."""
    cfg = replace(default_config("periodic_torus"), command=command, lengths=(16.0, 16.0),
                  resolution=(64, 64), starts=starts, seed=10001)
    outputs = []
    for threads, name in ((False, "one"), (True, "two"), (True, "again")):
        _route(monkeypatch, threads)
        before = threading.active_count()
        assert run(replace(cfg, out_dir=str(tmp_path / name))) == 0
        if not threads:
            assert threading.active_count() == before and not helper
        out = capsys.readouterr().out.replace(str(tmp_path / name), "<out>")
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}
        outputs.append((out, files))
    assert helper   # the kernels did run on the helper
    assert outputs[0] == outputs[1] == outputs[2]


def _inject(monkeypatch, poison):
    """Make ``Nonlinearity.f`` of grid-sized arrays ``poison(self, s)``, so
    that it fails inside ``grad_l2`` (on the helper thread for u)."""
    real = Nonlinearity.f

    def f(self, s):
        if np.ndim(s) >= 3:
            return poison(self, s, real)
        return real(self, s)

    monkeypatch.setattr(Nonlinearity, "f", f)


def _raise(self, s, real):
    raise RuntimeError(f"injected failure for the term exponent {self.terms[0][1]:g}")


def _infinite(self, s, real):
    out = real(self, s)
    return np.full_like(out, np.inf) if self.terms[0][1] == 4.0 else out


@pytest.mark.parametrize("poison, message", [
    (_raise, "numerical failure: injected failure for the term exponent 4\n"),
    (_infinite, "numerical failure: non-finite residual at iterate 0 of start 0\n"),
])
def test_helper_failures_reach_the_command_as_on_one_thread(tmp_path, capsys, monkeypatch,
                                                           helper, poison, message):
    """An exception or a non-finite value of the u half, which runs on the
    helper thread, gives ``run`` the exit code and the one-line message of
    the serial route, also when the v half fails too (f2 has exponent 3.5);
    the next op in the process still runs, with the serial route's bytes."""
    cfg = replace(default_config("periodic_torus"), command="ground", lengths=(6.0, 6.0),
                  resolution=(24, 24), starts=2, f2=((1.0, 3.5),))
    with monkeypatch.context() as m:
        _inject(m, poison)
        errors = []
        for threads in (False, True):
            _route(m, threads)
            assert run(replace(cfg, out_dir=str(tmp_path / "failed"))) == 4
            errors.append(capsys.readouterr().err)
    assert helper
    assert errors == [message, message]
    outputs = []
    for threads, name in ((True, "two"), (False, "one")):
        _route(monkeypatch, threads)
        assert run(replace(cfg, out_dir=str(tmp_path / name))) == 0
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert outputs[0] == outputs[1]


def test_both_orders_results_and_exceptions(helper, monkeypatch):
    """``_both`` returns the two results in argument order; when both calls
    raise, the first call's exception propagates, and a task on the helper
    thread runs a nested ``_both`` in turn instead of waiting for itself."""
    _route(monkeypatch, True)
    assert grid._both(lambda x: x * 2, (1,), (5,), 1) == (2, 10)

    def fail(name):
        raise KeyError(name)

    for args1 in (("second",), None):
        with pytest.raises(KeyError, match="first"):
            grid._both(lambda name: fail(name) if name else None, ("first",), args1 or ("",), 1)
    with pytest.raises(KeyError, match="second"):
        grid._both(lambda name: fail(name) if name else None, ("",), ("second",), 1)

    outcome = []

    def nested():
        threads = grid._both(lambda: threading.current_thread().name, (), (), 1)
        outcome.append((threading.current_thread().name, threads))

    watcher = threading.Thread(target=lambda: grid._both(nested, (), (), 1), daemon=True)
    watcher.start()
    watcher.join(30)
    assert not watcher.is_alive(), "nested use of the helper deadlocked"
    on_helper = [names for thread, names in outcome if thread.startswith("nehari-helper")]
    assert len(outcome) == 2 and len(on_helper) == 1
    assert on_helper[0][0] == on_helper[0][1]   # both nested calls stayed on the helper


def test_concurrent_callers_share_the_helper(helper, monkeypatch):
    """Six caller threads (more than the cores) start one helper between
    them and share it while the interpreter switches threads every
    microsecond; each gets the serial route's bits."""
    spec = make_spec(DomainSpec.periodic_torus([2, 2], 9), q=3.3, f1=((1.0, 4.7),))
    inputs = [np.random.default_rng(k).standard_normal((2, 2) + spec.domain.shape)
              for k in range(6)]

    def kernels(S):
        return [_ray_data(spec, S[:, 0], S[:, 1]).m, grad_l2(spec, S),
                _constant_shift_solve(spec.domain, S.reshape((4,) + spec.domain.shape),
                                      np.arange(1.0, 5.0))]

    _route(monkeypatch, False)
    expected = [kernels(S) for S in inputs]
    _route(monkeypatch, True)
    results = [None] * len(inputs)

    def work(k):
        for _ in range(20):
            results[k] = kernels(inputs[k])
            if any(a.tobytes() != b.tobytes() for a, b in zip(results[k], expected[k])):
                return

    def helpers():
        return {t for t in threading.enumerate() if t.name.startswith("nehari-helper")}

    before = helpers()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,), daemon=True) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(helper) == 6 * 20 * 3
    assert len(helpers() - before) == 1   # the callers started one helper between them
    for got, want in zip(results, expected):
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_helper_runs_in_the_callers_error_state(helper, monkeypatch):
    """numpy's error state of the caller holds on the helper thread too."""
    _route(monkeypatch, True)
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        grid._both(np.divide, (np.ones(3), np.zeros(3)), (np.ones(3), np.ones(3)), 1)
    assert helper


def test_forked_child_starts_its_own_helper(helper, monkeypatch):
    """A child forked after the helper started runs threaded kernels on a
    helper of its own instead of waiting for the parent's thread."""
    _route(monkeypatch, True)
    assert grid._both(abs, (-1,), (-2,), 1) == (1, 2)
    pid = os.fork()
    if pid == 0:   # the child: it exits here whatever happens
        code = 1
        try:
            code = 0 if grid._both(abs, (-3,), (-4,), 1) == (3, 4) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child waited for the parent's helper")
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("command", ["ground", "multiplicity", "fountain"])
def test_default_box_commands_never_reach_the_helper(tmp_path, monkeypatch, helper, command):
    """The default 256-node box stays below the gate even with two usable
    cores: its commands submit nothing to the helper."""
    monkeypatch.setattr(grid, "_usable_cores", lambda: 2)
    assert run(replace(default_config(), command=command, out_dir=str(tmp_path))) == 0
    assert not helper


def test_package_import_loads_no_thread_pool():
    code = "import sys, nehari; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "False\n"
