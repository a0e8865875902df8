"""Command line front end: config parsing, orchestration, artifact output.

Config files are flat ``key = value`` text under ``[problem]``, ``[solve]``
and ``[output]`` headers; potential and initial-guess fields hold quoted
expressions in the closed-form language of :mod:`nehari.expressions`.
Emitting a parsed config reproduces it canonically, and identical configs
with identical seeds produce byte-identical artifacts.

Commands:

* ``validate``      -- hypothesis report (exit 2 on failure)
* ``ground``        -- ground-state solve; solution files plus reports
* ``multiplicity``  -- deflated search for distinct solutions; manifest
* ``fountain``      -- nested-subspace diagnostic table
* ``fibering``      -- samples of the ray map and its slope as CSV
* ``decay``         -- periodic solve, recentering and decay fit

Exit codes: 0 success, 2 validation failure (also a bad config and an
``OSError`` reading it or writing artifacts), 3 solver stall, 4 numerical
failure (any other ``RuntimeError``, reported as one line on stderr).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .grid import DomainError, DomainSpec, GridFunction, _format_record, \
    grid_function_to_csv, save_grid_function
from .model import Nonlinearity, ProblemSpec, ValidationError, validate_problem
from .energy import State, _ray_data, _state_pair, energy, fibering_project
from .solver import SolveConfig, SolverStallError, _recenter_radius, decay_fit, \
    find_ground_state, initial_states, recenter
from .multiplicity import find_distinct_solutions, fountain_diagnostics
from .expressions import eval_expr, expr_to_text, parse_expr

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config",
    "emit_config",
    "build_domain",
    "build_problem",
    "default_config",
    "default_bounded_spec",
    "default_periodic_spec",
    "run",
    "main",
]

class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str = "validate"
    # [problem]
    kind: str = "dirichlet_box"
    lengths: tuple[float, ...] = (1.0,)
    resolution: tuple[int, ...] = (256,)
    q: float = 3.0
    f1: tuple[tuple[float, float], ...] = ((1.0, 4.0),)
    f2: tuple[tuple[float, float], ...] = ((1.0, 4.0),)
    v1: str = "1.0"
    v2: str = "1.0"
    lam: str = "0.3"
    init_u: str | None = None
    init_v: str | None = None
    # [solve]
    max_iters: int = 500
    grad_tol: float = 1e-8
    starts: int = 5
    seed: int = 0
    target_count: int = 3
    k_max: int = 30
    # [output]
    out_dir: str = "out"
    label: str = "run"

    def solve_config(self) -> SolveConfig:
        return SolveConfig(max_iters=self.max_iters, grad_tol=self.grad_tol,
                           starts=self.starts, seed=self.seed)


def default_config(kind: str = "dirichlet_box") -> RunConfig:
    """Smallest configurations exercising the bounded and periodic settings."""
    if kind == "dirichlet_box":
        return RunConfig()
    if kind == "periodic_torus":
        return RunConfig(kind="periodic_torus", lengths=(16.0, 16.0),
                         resolution=(256, 256), starts=3)
    raise ConfigError(f"unknown domain kind {kind!r}")


# ---------------------------------------------------------------------------
# config text format
# ---------------------------------------------------------------------------


def _parse_terms(text: str) -> tuple[tuple[float, float], ...]:
    terms = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            a, p = part.split(":")
            terms.append((float(a), float(p)))
        except ValueError:
            raise ConfigError(f"bad nonlinearity term {part!r}, expected 'a:p'") from None
    if not terms:
        raise ConfigError("nonlinearity needs at least one 'a:p' term")
    return tuple(terms)


def _emit_terms(terms) -> str:
    return ", ".join(f"{repr(a)}:{repr(p)}" for a, p in terms)


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    return value


_as_kind = lambda v: default_config(v).kind   # an unknown kind raises
_as_floats = lambda v: tuple(float(x) for x in v.split(","))
_as_ints = lambda v: tuple(int(x) for x in v.split(","))
_as_expr = lambda v: expr_to_text(parse_expr(_unquote(v)))
_joined = lambda values: ",".join(str(x) for x in values)
_quoted = lambda text: f'"{text}"'

# One row per config key, in emission order: (section, key, RunConfig
# field, parse of the value text, emission of the field value).  A field
# that is None is not emitted.
_CONFIG_SCHEMA = (
    ("problem", "kind", "kind", _as_kind, str),
    ("problem", "lengths", "lengths", _as_floats, _joined),
    ("problem", "resolution", "resolution", _as_ints, _joined),
    ("problem", "q", "q", float, str),
    ("problem", "f1", "f1", _parse_terms, _emit_terms),
    ("problem", "f2", "f2", _parse_terms, _emit_terms),
    ("problem", "v1", "v1", _as_expr, _quoted),
    ("problem", "v2", "v2", _as_expr, _quoted),
    ("problem", "lambda", "lam", _as_expr, _quoted),
    ("problem", "init_u", "init_u", _as_expr, _quoted),
    ("problem", "init_v", "init_v", _as_expr, _quoted),
    ("solve", "max_iters", "max_iters", int, str),
    ("solve", "grad_tol", "grad_tol", float, str),
    ("solve", "starts", "starts", int, str),
    ("solve", "seed", "seed", int, str),
    ("solve", "target_count", "target_count", int, str),
    ("solve", "k_max", "k_max", int, str),
    ("output", "out_dir", "out_dir", str, str),
    ("output", "label", "label", str, str),
)
_SECTIONS = ("problem", "solve", "output")

# Keys of removed settings, with their parse and the one value older configs carry.
_RETIRED_KEYS = (("problem", "delta", float, 0.3), ("solve", "armijo_c1", float, 1e-4),
                 ("solve", "armijo_backtrack", float, 0.5), ("solve", "recenter_every", int, 0),
                 ("solve", "collapse_budget", int, 6))


def parse_config(text: str, command: str = "validate") -> RunConfig:
    """Parse the sectioned key=value format into a RunConfig; an unknown
    section or key, a key repeated within a section, or a value its key
    cannot parse is an error, named by line and key; so is a ``lengths``
    whose axes disagree with ``resolution`` and a domain that
    :func:`build_domain` rejects for ``command``, on the later line of the
    keys at fault (the one given, when the other is the default).  A key of
    ``_RETIRED_KEYS`` parses only at its old value."""
    sections: dict[str, dict[str, tuple[int, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if current is None or "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value' inside a section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicated key {key!r} in section [{current}]")
        sections[current][key] = (lineno, value)

    def retired(value, parse, old):
        if parse(value) != old:
            raise ConfigError(f"the key is retired; only {old!r} is accepted")

    def parsed(section, key, parse):
        lineno, value = sections[section].pop(key)
        try:
            return parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r} in section "
                              f"[{section}]: {exc}") from None

    problem_lines = {key: lineno for key, (lineno, _) in sections.get("problem", {}).items()}
    values = {attr: parsed(section, key, parse) for section, key, attr, parse, _ in _CONFIG_SCHEMA
              if key in sections.get(section, {})}
    cfg = replace(default_config(values.get("kind", "dirichlet_box")), command=command, **values)
    for section, key, parse, old in _RETIRED_KEYS:
        if key in sections.get(section, {}):
            parsed(section, key, lambda value: retired(value, parse, old))

    for section, entries in sections.items():
        if entries:
            key, (lineno, _) = next(iter(entries.items()))
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
    if len(cfg.lengths) != len(cfg.resolution):
        lineno = max(problem_lines.get(key, 0) for key in ("lengths", "resolution"))
        raise ConfigError(f"line {lineno}: 'lengths' and 'resolution' in section "
                          "[problem] must have the same number of axes ('lengths' has "
                          f"{len(cfg.lengths)}, 'resolution' has {len(cfg.resolution)})")
    try:
        build_domain(cfg)
    except DomainError as exc:
        lineno, key = max((problem_lines.get(key, 0), key) for key in exc.keys)
        raise ConfigError(f"line {lineno}: bad value for {key!r} in section [problem]: "
                          f"{exc}") from None
    return cfg


def emit_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing it back is semantically identical."""
    blocks = []
    for name in _SECTIONS:
        lines = [f"[{name}]"]
        for section, key, attr, _, emit in _CONFIG_SCHEMA:
            value = getattr(cfg, attr)
            if section == name and value is not None:
                lines.append(f"{key} = {emit(value)}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


# ---------------------------------------------------------------------------
# building problem data from a config
# ---------------------------------------------------------------------------


def build_domain(cfg: RunConfig) -> DomainSpec:
    """The config's domain; for ``decay`` also checked, before any solve, to
    hold the recentering ball within half of every torus period."""
    domain = DomainSpec(len(cfg.lengths), cfg.kind, cfg.resolution, cfg.lengths)
    if cfg.command == "decay" and domain.periodic:
        r, period = _recenter_radius(domain), min(domain.lengths)
        if r > period / 2:
            raise DomainError(f"recentering radius {r:.6g} exceeds half the torus "
                              f"period {period:g}", "lengths")
    return domain


def _sample_expression(domain: DomainSpec, text: str, name: str, tile: bool) -> GridFunction:
    ast = parse_expr(text)

    def fn(*mesh):
        return eval_expr(ast, {f"x{a + 1}": mesh[a] for a in range(len(mesh))})

    if tile and domain.periodic:
        rng = np.random.default_rng(12345)
        pts = [rng.uniform(0.0, p, size=64) for p in domain.lengths]
        env = {f"x{a + 1}": pts[a] for a in range(domain.dimension)}
        base = np.asarray(eval_expr(ast, env), dtype=float)
        scale = 1.0 + float(np.max(np.abs(base)))
        for a in range(domain.dimension):
            shifted = np.asarray(eval_expr(ast, {**env, f"x{a + 1}": pts[a] + 1.0}), dtype=float)
            if np.max(np.abs(shifted - base)) > 1e-9 * scale:
                raise ValidationError(
                    f"expression for {name} is not 1-periodic in x{a + 1} "
                    "(required on periodic domains)"
                )
    return GridFunction.from_callable(domain, fn, tile_unit_cell=tile)


def build_problem(cfg: RunConfig) -> ProblemSpec:
    domain = build_domain(cfg)
    v1 = _sample_expression(domain, cfg.v1, "v1", True)
    v2 = _sample_expression(domain, cfg.v2, "v2", True)
    lam = _sample_expression(domain, cfg.lam, "lambda", True)
    return ProblemSpec(
        domain=domain, q=cfg.q,
        f1=Nonlinearity(cfg.f1), f2=Nonlinearity(cfg.f2),
        V1=v1, V2=v2, lam=lam,
    )


def default_bounded_spec() -> ProblemSpec:
    return build_problem(default_config("dirichlet_box"))


def default_periodic_spec() -> ProblemSpec:
    return build_problem(default_config("periodic_torus"))


def _initial_state(cfg: RunConfig, spec: ProblemSpec) -> State:
    if cfg.init_u is not None or cfg.init_v is not None:
        dom = spec.domain
        u = _sample_expression(dom, cfg.init_u or "0", "init_u", False)
        v = _sample_expression(dom, cfg.init_v or "0", "init_v", False)
        return State(u, v)
    return State.from_pair(spec.domain, initial_states(spec, cfg.solve_config())[0])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _write(path: Path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_state(out: Path, label: str, s: State) -> list[str]:
    names = [f"{label}_u.grid", f"{label}_v.grid"]
    save_grid_function(s.u, out / names[0])
    save_grid_function(s.v, out / names[1])
    _write(out / f"{label}_u.csv", grid_function_to_csv(s.u))
    _write(out / f"{label}_v.csv", grid_function_to_csv(s.v))
    return names


def _cmd_validate(cfg, spec, out: Path) -> int:
    report = validate_problem(spec)
    _write(out / f"{cfg.label}_validate.txt", report.format_text())
    print(report.format_text(), end="")
    return 0 if report.passed else 2


def _cmd_ground(cfg, spec, out: Path) -> int:
    report, s = find_ground_state(spec, cfg.solve_config())
    label = f"{cfg.label}_s{report.start_index:02d}"   # winning start in the name
    _write_state(out, label, s)
    _write(out / f"{label}_report.txt", report.format_text())
    _write(out / f"{label}_energy.txt", energy(spec, s).format_text())
    print(f"ground state: energy = {report.energy:.12g}, "
          f"residual = {report.grad_residual:.3e}, iterations = {report.iterations}")
    return 0


def _cmd_multiplicity(cfg, spec, out: Path) -> int:
    sols = find_distinct_solutions(spec, cfg.solve_config(), cfg.target_count)
    names = []
    for i, (s, rep) in enumerate(sols.entries):
        label = f"{cfg.label}_sol{i:02d}"
        _write_state(out, label, s)
        _write(out / f"{label}_report.txt", rep.format_text())
        names.append(label)
    _write(out / f"{cfg.label}_manifest.txt", sols.format_manifest(names, cfg.target_count))
    # a shortfall is a result, not a failure: the exit code stays 0
    of_target = f" of target_count {cfg.target_count}" if len(sols) < cfg.target_count else ""
    print(f"found {len(sols)}{of_target} distinct solutions "
          f"(energies: {', '.join(f'{r.energy:.6g}' for _, r in sols.entries)})")
    return 0


def _cmd_fountain(cfg, spec, out: Path) -> int:
    report = fountain_diagnostics(spec, cfg.k_max, seed=cfg.seed)
    _write(out / f"{cfg.label}_fountain.csv", report.format_text())
    print(f"fountain diagnostics: beta_1 = {report.beta[0]:.6g}, "
          f"beta_{cfg.k_max} = {report.beta[-1]:.6g}")
    return 0


def _cmd_fibering(cfg, spec, out: Path) -> int:
    s = _initial_state(cfg, spec)
    rep, _ = fibering_project(spec, s)
    ray = _ray_data(spec, *_state_pair(spec, s))
    lines = ["t,phi,dphi"]
    for t in (rep.t_star * np.geomspace(0.01, 4.0, 200)).tolist():
        lines.append(f"{t:.17g},{ray.phi(t):.17g},{ray.phi_prime(t):.17g}")
    _write(out / f"{cfg.label}_fibering.csv", "\n".join(lines) + "\n")
    names = ("t_star", "phi_at_t", "bracket", "iterations", "slope_residual")
    _write(out / f"{cfg.label}_fibering.txt",
           _format_record((name, getattr(rep, name)) for name in names))
    print(f"fibering: t* = {rep.t_star:.12g}, phi(t*) = {rep.phi_at_t:.12g}")
    return 0


def _cmd_decay(cfg, spec, out: Path) -> int:
    if not spec.domain.periodic:
        raise ValidationError("the decay command requires a periodic domain")
    report, s = find_ground_state(spec, cfg.solve_config())
    s, z = recenter(s)
    fit = decay_fit(s)
    _write_state(out, cfg.label, s)
    _write(out / f"{cfg.label}_report.txt", report.format_text())
    _write(out / f"{cfg.label}_decay.txt", fit.format_text())

    order = np.argsort(fit.distances, kind="stable")
    pairs = np.column_stack((fit.distances[order], fit.amplitudes[order]))
    _write(out / f"{cfg.label}_decay.csv", "distance,amplitude\n"
           + "%.17g,%.17g\n" * len(order) % tuple(pairs.ravel().tolist()))
    print(f"decay fit: alpha = {fit.alpha:.6g}, r^2 = {fit.r_squared:.6g} "
          f"({fit.n_samples} samples)")
    return 0


_DISPATCH = {
    "validate": _cmd_validate,
    "ground": _cmd_ground,
    "multiplicity": _cmd_multiplicity,
    "fountain": _cmd_fountain,
    "fibering": _cmd_fibering,
    "decay": _cmd_decay,
}
COMMANDS = tuple(_DISPATCH)


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        spec = build_problem(cfg)
        if cfg.command != "validate":
            validate_problem(spec).require()
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return _DISPATCH[cfg.command](cfg, spec, out)
    except (ConfigError, ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverStallError as exc:
        print(f"solver stalled: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        reason = " ".join(str(exc).split()) or type(exc).__name__
        print(f"numerical failure: {reason}", file=sys.stderr)
        return 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nehari",
        description="Ground states and bound states of coupled Schrodinger "
                    "systems by Nehari-manifold minimization.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="config file (defaults to the built-in "
                        "bounded problem; periodic for 'decay')")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--label", help="run label override")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            cfg = parse_config(Path(args.config).read_text(), args.command)
        else:
            kind = "periodic_torus" if args.command == "decay" else "dirichlet_box"
            cfg = replace(default_config(kind), command=args.command)
    except (OSError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.label is not None:
        cfg = replace(cfg, label=args.label)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
