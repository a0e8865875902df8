"""Per-layer tracing from outside the program.

Hooks wrap the public and kernel functions of each ``nehari`` module in
every module namespace that binds them (``from .energy import energy``
leaves copies in ``solver``, ``multiplicity`` and ``cli``), so a call is
seen whichever name the caller used.  Modules are reached through
``sys.modules``: the package attribute ``nehari.energy`` is the
``energy`` function, not the module.

A span's self time is its duration minus the time covered by its child
spans.  Spans are aggregated per layer in memory; a hook whose target is
gone (a later refactor may remove a kernel) is recorded as absent rather
than failing the run.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

PACKAGE = "nehari"


def _nbytes(a) -> int:
    return int(getattr(a, "nbytes", 0))


def _ray_data_bytes(args, kwargs, result) -> dict:
    # u, v and the three coefficient fields V1, V2, lambda are each read once
    return {"bytes_computed": 5 * _nbytes(args[1])}


def _read_write_bytes(index):
    def extra(args, kwargs, result):
        return {"bytes_computed": 2 * _nbytes(args[index])}
    return extra


def _pcg_iterations(args, kwargs, result) -> dict:
    return {"iterations": result[1]}


def _newton_iterations(args, kwargs, result) -> dict:
    return {"newton_iterations": result[0].iterations}


def _descend_outcome(args, kwargs, result) -> dict:
    rep = result[0]
    done = rep.status == "converged"
    return {"iterates": rep.iterations, "converged": int(done), "unconverged": int(not done)}


def _csv_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


def _saved_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _add_outcome(args, kwargs, result) -> dict:
    return {result: 1}


# (module, attribute, layer, extra counters from (args, kwargs, result));
# an attribute "Class.method" is patched on the class
HOOKS = [
    ("grid", "_laplacian_values", "grid.laplacian", _read_write_bytes(0)),
    ("grid", "_gradient_energy", "grid.gradient_energy", None),
    ("grid", "_csum", "grid.sorted_sum", None),
    ("grid", "local_mass_sup", "grid.local_mass_sup", None),
    ("grid", "grid_function_to_csv", "grid.csv_export", _csv_bytes),
    ("grid", "save_grid_function", "grid.save", _saved_bytes),
    ("model", "validate_problem", "model.validate", None),
    ("model", "Nonlinearity.f", "model.nonlinearity", None),
    ("model", "Nonlinearity.F", "model.nonlinearity", None),
    ("model", "Nonlinearity.f_prime", "model.nonlinearity", None),
    ("model", "Nonlinearity.f_times_s", "model.nonlinearity", None),
    ("energy", "_ray_data", "energy.ray_data", _ray_data_bytes),
    ("energy", "energy", "energy.energy", None),
    ("energy", "norm_E", "energy.norm_E", None),
    ("energy", "grad_l2", "energy.grad_l2", None),
    ("energy", "xi_grad_l2", "energy.xi_grad_l2", None),
    ("energy", "_pcg_schrodinger", "energy.pcg", _pcg_iterations),
    ("energy", "_constant_shift_solve", "energy.shift_solve", _read_write_bytes(1)),
    ("energy", "fibering_project", "energy.fibering_project", _newton_iterations),
    ("solver", "_descend", "solver.descend", _descend_outcome),
    ("solver", "recenter", "solver.recenter", None),
    ("solver", "decay_fit", "solver.decay_fit", None),
    ("solver", "initial_states", "solver.initial_states", None),
    ("multiplicity", "_orbit_realizer", "multiplicity.orbit_realizer", None),
    ("multiplicity", "_apply_block", "multiplicity.apply_block", None),
    ("multiplicity", "deflated_search", "multiplicity.deflated_search", None),
    ("multiplicity", "SolutionSet.add", "multiplicity.add", _add_outcome),
    ("multiplicity", "eigenbasis", "multiplicity.eigenbasis", None),
    ("multiplicity", "_sphere_ascent", "multiplicity.sphere_ascent", None),
    ("multiplicity", "_pnorm_and_grad", "multiplicity.pnorm_grad", None),
    ("expressions", "parse_expr", "expressions.parse", None),
    ("expressions", "eval_expr", "expressions.eval", None),
    ("cli", "build_problem", "cli.build_problem", None),
    ("cli", "_write_state", "cli.artifacts", None),
    ("cli", "_write", "cli.artifacts", None),
]


class Tracer:
    """Span aggregation per layer; ``enabled`` switches recording on and off."""

    def __init__(self):
        self.enabled = False
        self.totals: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []          # [layer, child seconds]
        self.missing: list[str] = []         # hooks whose target does not exist
        self.broken: set[str] = set()        # layers whose extra counters failed
        self._undo: list[tuple] = []

    def _wrap(self, layer, fn, extra):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                totals = tracer.totals
                totals[layer + ".calls"] += 1
                totals[layer + ".self_s"] += elapsed - frame[1]
                if parent == "solver.descend" and layer == "energy.fibering_project":
                    totals["solver.descend.projections"] += 1
            if extra is not None:
                try:
                    counters = extra(args, kwargs, result)
                except (IndexError, AttributeError, TypeError, OSError):
                    # the kernel changed its signature or result: its extra
                    # counters read as absent, the span itself still counts
                    tracer.broken.add(layer)
                    counters = {}
                for key, value in counters.items():
                    totals[f"{layer}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def _count_init(self, cls, counter):
        tracer = self
        init = cls.__init__

        def counted(obj, *args, **kwargs):
            if tracer.enabled:
                tracer.totals[counter] += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counted
        self._undo.append((cls, "__init__", init))

    def install(self):
        """Patch every hook target in every ``nehari`` namespace that binds it."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, attr, layer, extra in HOOKS:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            target = getattr(owner, method or attr, None) if owner is not None else None
            hook = f"{module_name}.{attr}"
            if target is None:
                self.missing.append(hook)
                continue
            wrapped = self._wrap(layer, target, extra)
            if owner_name:
                setattr(owner, method, wrapped)
                self._undo.append((owner, method, target))
            else:
                for ns in namespaces:
                    if ns.__dict__.get(attr) is target:
                        setattr(ns, attr, wrapped)
                        self._undo.append((ns, attr, target))
        grid = sys.modules.get(f"{PACKAGE}.grid")
        if grid is not None and hasattr(grid, "GridFunction"):
            self._count_init(grid.GridFunction, "grid.grid_function.created")
        else:
            self.missing.append("grid.GridFunction.__init__")

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _metric(name, unit="count", better="lower"):
    return (name, unit, better)


# per-layer metrics, reported per op of the traced run
PER_LAYER = [
    _metric("grid.laplacian.calls"),
    _metric("grid.laplacian.self_s", "s"),
    _metric("grid.laplacian.bytes_computed", "B"),
    _metric("grid.gradient_energy.calls"),
    _metric("grid.gradient_energy.self_s", "s"),
    _metric("grid.sorted_sum.calls"),
    _metric("grid.sorted_sum.self_s", "s"),
    _metric("grid.grid_function.created"),
    _metric("grid.local_mass_sup.self_s", "s"),
    _metric("grid.csv_export.self_s", "s"),
    _metric("grid.csv_export.bytes", "B"),
    _metric("grid.save.self_s", "s"),
    _metric("grid.save.bytes", "B"),
    _metric("model.validate.self_s", "s"),
    _metric("model.nonlinearity.self_s", "s"),
    _metric("energy.ray_data.calls"),
    _metric("energy.ray_data.self_s", "s"),
    _metric("energy.ray_data.bytes_computed", "B"),
    _metric("energy.energy.calls"),
    _metric("energy.norm_E.calls"),
    _metric("energy.grad_l2.calls"),
    _metric("energy.grad_l2.self_s", "s"),
    _metric("energy.xi_grad_l2.calls"),
    _metric("energy.xi_grad_l2.self_s", "s"),
    _metric("energy.pcg.calls"),
    _metric("energy.pcg.self_s", "s"),
    _metric("energy.pcg.iterations"),
    _metric("energy.shift_solve.calls"),
    _metric("energy.shift_solve.self_s", "s"),
    _metric("energy.shift_solve.bytes_computed", "B"),
    _metric("energy.fibering_project.calls"),
    _metric("energy.fibering_project.self_s", "s"),
    _metric("energy.fibering_project.newton_iterations"),
    _metric("solver.descend.calls"),
    _metric("solver.descend.self_s", "s"),
    _metric("solver.descend.iterates"),
    _metric("solver.descend.converged", better="higher"),
    _metric("solver.descend.unconverged"),
    _metric("solver.trial_steps"),
    _metric("solver.step_accept_ratio", "ratio", "higher"),
    _metric("solver.recenter.self_s", "s"),
    _metric("solver.decay_fit.self_s", "s"),
    _metric("solver.initial_states.self_s", "s"),
    _metric("multiplicity.orbit_realizer.calls"),
    _metric("multiplicity.orbit_realizer.self_s", "s"),
    _metric("multiplicity.apply_block.calls"),
    _metric("multiplicity.apply_block.self_s", "s"),
    _metric("multiplicity.deflated_search.calls"),
    _metric("multiplicity.deflated_search.self_s", "s"),
    _metric("multiplicity.add.added", better="higher"),
    _metric("multiplicity.add.twin"),
    _metric("multiplicity.add.known"),
    _metric("multiplicity.add_ratio", "ratio", "higher"),
    _metric("multiplicity.eigenbasis.self_s", "s"),
    _metric("multiplicity.sphere_ascent.calls"),
    _metric("multiplicity.sphere_ascent.self_s", "s"),
    _metric("multiplicity.pnorm_grad.calls"),
    _metric("multiplicity.pnorm_grad.self_s", "s"),
    _metric("expressions.parse.self_s", "s"),
    _metric("expressions.eval.calls"),
    _metric("expressions.eval.self_s", "s"),
    _metric("cli.build_problem.self_s", "s"),
    _metric("cli.artifacts.self_s", "s"),
    _metric("cli.artifacts.bytes", "B"),
    _metric("trace.op_s", "s"),
    _metric("trace.overhead_s", "s"),
]


def per_op(totals: dict, n_ops: int) -> dict[str, float]:
    """Layer metrics per op from the aggregated totals of whole rounds.

    ``solver.trial_steps`` counts the projections made inside descents
    beyond each descent's initial one; ``solver.step_accept_ratio`` is
    accepted iterates over those trials, and ``multiplicity.add_ratio``
    added candidates over all candidates offered.  A ratio without a base
    reads 0.
    """
    t = dict(totals)
    t["solver.trial_steps"] = t.get("solver.descend.projections", 0.0) \
        - t.get("solver.descend.calls", 0.0)
    out = {}
    for name, _, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        out[name] = t.get(name, 0.0) / n_ops
    trials = t["solver.trial_steps"]
    out["solver.step_accept_ratio"] = \
        t.get("solver.descend.iterates", 0.0) / trials if trials else 0.0
    offered = sum(t.get(f"multiplicity.add.{k}", 0.0) for k in ("added", "twin", "known"))
    out["multiplicity.add_ratio"] = \
        t.get("multiplicity.add.added", 0.0) / offered if offered else 0.0
    return out
