"""Config round-trip, command orchestration, exit codes, artifact determinism."""

import filecmp
import importlib.util
import os
import subprocess
import sys
from dataclasses import fields, replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nehari.grid import DomainError, load_grid_function
from nehari.model import validate_potentials
from nehari.energy import EnergyBreakdown
from nehari.expressions import expr_to_text, parse_expr
from nehari.solver import DecayFit, SolveReport
from nehari.cli import (
    COMMANDS,
    ConfigError,
    RunConfig,
    _CONFIG_SCHEMA,
    _RETIRED_KEYS,
    build_domain,
    build_problem,
    default_config,
    emit_config,
    main,
    parse_config,
    run,
)
from conftest import count_calls, force_undominated_root

BOUNDED_SMALL = """
[problem]
kind = dirichlet_box
lengths = 1.0
resolution = 96

[solve]
starts = 3
seed = 11
"""


_FLOATS = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
_INTS = st.integers(-10 ** 12, 10 ** 12)
_EXPRESSIONS = st.one_of(
    _FLOATS.map(repr),
    st.builds(lambda fn, var, c: f"{fn}({var})*{c!r} + 1",
              st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]),
              st.sampled_from(["x1", "x2", "x3"]), _FLOATS),
    st.builds(lambda a, b: f"min(x1, {a!r}) - max(x2/{b!r}, -x3)", _FLOATS, _FLOATS),
).map(lambda text: expr_to_text(parse_expr(text)))
_TERMS = st.lists(st.tuples(_FLOATS, _FLOATS), min_size=1, max_size=3).map(tuple)
_WORDS = st.text("abcdefghijklmnopqrstuvwxyz0123456789_-./", min_size=1, max_size=16)

# a strategy for every field the config schema reads and writes
_CONFIG_FIELDS = {
    "kind": st.sampled_from(["dirichlet_box", "periodic_torus"]),
    "q": _FLOATS, "f1": _TERMS, "f2": _TERMS,
    "v1": _EXPRESSIONS, "v2": _EXPRESSIONS, "lam": _EXPRESSIONS,
    "init_u": st.none() | _EXPRESSIONS, "init_v": st.none() | _EXPRESSIONS,
    "max_iters": _INTS, "grad_tol": _FLOATS, "starts": _INTS, "seed": _INTS,
    "target_count": _INTS,
    "k_max": _INTS, "out_dir": _WORDS, "label": _WORDS,
}


@st.composite
def run_configs(draw):
    axes = draw(st.integers(1, 3))
    return RunConfig(
        command=draw(st.sampled_from(COMMANDS)),
        lengths=tuple(draw(st.lists(_FLOATS, min_size=axes, max_size=axes))),
        resolution=tuple(draw(st.lists(_INTS, min_size=axes, max_size=axes))),
        **{name: draw(strategy) for name, strategy in _CONFIG_FIELDS.items()},
    )


def test_config_schema_covers_every_field():
    schema_fields = [attr for _, _, attr, _, _ in _CONFIG_SCHEMA]
    assert len(set(schema_fields)) == len(schema_fields)
    assert set(schema_fields) == {f.name for f in fields(RunConfig)} - {"command"}
    assert set(schema_fields) == set(_CONFIG_FIELDS) | {"lengths", "resolution"}


@settings(max_examples=200, deadline=None)
@given(cfg=run_configs())
@example(cfg=default_config("dirichlet_box"))
@example(cfg=default_config("periodic_torus"))
def test_config_round_trip_fixed_point(cfg):
    """Every config parses back from its emitted text, which is a fixed
    point and holds no retired key.  A config whose domain cannot be built
    is a config error naming a line, and it round-trips with its kind's
    default domain instead."""
    try:
        build_domain(cfg)
    except DomainError:
        with pytest.raises(ConfigError, match=r"^line \d+: bad value for '(lengths|resolution)'"):
            parse_config(emit_config(cfg), cfg.command)
        default = default_config(cfg.kind)
        cfg = replace(cfg, lengths=default.lengths, resolution=default.resolution)
    text = emit_config(cfg)
    assert not {line.split(" = ")[0] for line in text.splitlines()} & \
        {key for _, key, _, _ in _RETIRED_KEYS}
    cfg2 = parse_config(text, cfg.command)
    assert cfg2 == cfg
    assert emit_config(cfg2) == text


DEFAULT_CONFIG_TEXT = """\
[problem]
kind = dirichlet_box
lengths = 1.0
resolution = 256
q = 3.0
f1 = 1.0:4.0
f2 = 1.0:4.0
v1 = "1.0"
v2 = "1.0"
lambda = "0.3"

[solve]
max_iters = 500
grad_tol = 1e-08
starts = 5
seed = 0
target_count = 3
k_max = 30

[output]
out_dir = out
label = run
"""


def test_emitted_default_config_golden():
    assert emit_config(default_config()) == DEFAULT_CONFIG_TEXT


def test_retired_recenter_key_parses_at_zero_only():
    """Configs emitted while in-descent recentering existed carry
    ``recenter_every = 0``: it parses to the same config and is not emitted
    again (other values exit 2, see ``test_out_of_range_setting_exit_code``)."""
    old_text = DEFAULT_CONFIG_TEXT.replace("seed = 0\n", "seed = 0\nrecenter_every = 0\n")
    cfg = parse_config(old_text)
    assert cfg == default_config()
    assert emit_config(cfg) == DEFAULT_CONFIG_TEXT


@st.composite
def _retired_spellings(draw):
    """A retired key and a text its parser reads as the key's old value: a
    sign and leading zeros, and for floats any exact positional or
    scientific form (``1e-4``, ``0.000100``, ``01.0E-004``)."""
    section, key, parse, old = draw(st.sampled_from(_RETIRED_KEYS))
    sign = draw(st.sampled_from(["", "+"] + ["-"] * (old == 0)))
    lead = "0" * draw(st.integers(0, 3))
    if parse is int:
        return section, key, f"{sign}{lead}{old}"
    exact = Decimal(repr(old)).as_tuple()
    zeros = draw(st.integers(0, 4))
    digits = "".join(map(str, exact.digits)) + "0" * zeros
    exponent = exact.exponent - zeros
    if draw(st.booleans()):
        return section, key, sign + lead + format(Decimal(digits).scaleb(exponent), "f")
    point = draw(st.integers(1, len(digits)))
    fraction = "." + digits[point:] if point < len(digits) else draw(st.sampled_from(["", "."]))
    power = exponent + len(digits) - point
    power_sign = "-" if power < 0 else draw(st.sampled_from(["", "+"]))
    width = draw(st.integers(1, 3))
    return section, key, (f"{sign}{lead}{digits[:point]}{fraction}{draw(st.sampled_from('eE'))}"
                          f"{power_sign}{abs(power):0{width}d}")


@settings(max_examples=200, deadline=None)
@given(entry=_retired_spellings(), position=st.integers(0, 6))
@example(entry=("solve", "armijo_c1", "1e-4"), position=0)
@example(entry=("solve", "armijo_c1", "0.0001"), position=1)
@example(entry=("solve", "armijo_c1", "1.0E-04"), position=2)
@example(entry=("solve", "recenter_every", "0"), position=3)
@example(entry=("solve", "recenter_every", "00"), position=6)
def test_retired_keys_parse_at_their_old_value(entry, position):
    """Every retired key, at any place in its section and in any spelling
    of its old value, parses to the same config and is not emitted again."""
    section, key, value = entry
    head, rest = DEFAULT_CONFIG_TEXT.split(f"[{section}]\n")
    lines = rest.splitlines(keepends=True)
    lines.insert(position, f"{key} = {value}\n")
    cfg = parse_config(f"{head}[{section}]\n" + "".join(lines))
    assert cfg == default_config()
    assert emit_config(cfg) == DEFAULT_CONFIG_TEXT


_LINE_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)


@settings(max_examples=200, deadline=None)
@given(retired=st.sampled_from(_RETIRED_KEYS), blank=st.integers(0, 4),
       value=st.one_of(st.floats().map(repr), _INTS.map(str), _LINE_TEXT))
def test_retired_keys_reject_every_other_value(retired, blank, value):
    """A retired key at any value but its old one is a config error that
    names its line and key."""
    section, key, parse, old = retired
    try:
        assume(parse(value) != old)
    except ValueError:
        pass
    with pytest.raises(ConfigError, match=rf"^line {blank + 2}: bad value for '{key}' "
                                          rf"in section \[{section}\]: "):
        parse_config("\n" * blank + f"[{section}]\n{key} = {value}\n")


def _benchmark_workloads():
    """The benchmark's workload table (a stdlib-only module), loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


_WORKLOADS = _benchmark_workloads()


@pytest.mark.parametrize("name", sorted(_WORKLOADS))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 9), out_dir=_WORDS)
@example(seed=1, out_dir="out")
def test_benchmark_workload_configs_parse(name, seed, out_dir):
    """Every config the benchmark writes, at any seed and output directory,
    parses with the retired keys it carries, so a retired or renamed key
    cannot silently fail every benchmark op."""
    workload = _WORKLOADS[name]
    cfg = parse_config(workload.config_text(seed, out_dir), workload.command)
    assert (cfg.command, cfg.kind, cfg.starts) == (workload.command, workload.problem.kind,
                                                   workload.starts)
    assert (cfg.seed, cfg.out_dir) == (seed, out_dir)


def test_report_records_golden():
    """The record texts the artifact checkers parse, byte for byte."""
    report = SolveReport(energy=0.1 + 0.2, grad_residual=7.5e-09, xi_residual=2.0 ** -1074,
                         iterations=18, start_index=4, norm=1e22, rho_estimate=-0.0,
                         status="converged")
    assert report.format_text() == (
        "status        = converged\n"
        "energy        = 0.30000000000000004\n"
        "grad_residual = 7.4999999999999993e-09\n"
        "xi_residual   = 4.9406564584124654e-324\n"
        "iterations    = 18\n"
        "start_index   = 4\n"
        "norm          = 1e+22\n"
        "rho_estimate  = -0\n"
    )
    fit = DecayFit(C=1 / 3, alpha=0.712001, r_squared=0.9999999999,
                   window=(1.5e-12, 0.0015), n_samples=27386)
    assert fit.format_text() == (
        "C         = 0.33333333333333331\n"
        "alpha     = 0.712001\n"
        "r_squared = 0.99999999989999999\n"
        "window    = [1.5000000000000001e-12, 0.0015]\n"
        "n_samples = 27386\n"
    )
    parts = EnergyBreakdown(quad=2 / 3, cross=-1e-300, fpart=123456789.125,
                            qpart=5e-324, total=np.float64(0.1))
    assert parts.format_text() == (
        "quad  = 0.66666666666666663\n"
        "cross = -1e-300\n"
        "fpart = 123456789.125\n"
        "qpart = 4.9406564584124654e-324\n"
        "total = 0.10000000000000001\n"
    )


def test_config_parses_expressions_and_terms():
    cfg = parse_config("""
[problem]
kind = periodic_torus
lengths = 4,4
resolution = 32,32
q = 2.5
f1 = 1:3.5, 0.5:4.5
f2 = 2:4
v1 = "1 + 0.5*sin(6.283185307179586*x1)"
lambda = "0.1"
""")
    assert cfg.f1 == ((1.0, 3.5), (0.5, 4.5))
    assert cfg.f2 == ((2.0, 4.0),)
    spec = build_problem(cfg)
    assert validate_potentials(spec).passed
    # sampled fields repeat bit-exactly across unit cells
    v = spec.V1.values
    assert np.array_equal(v, np.roll(v, spec.domain.points_per_cell[0], axis=0))


def test_config_errors():
    with pytest.raises(ConfigError):
        parse_config("[problem]\nbogus_key = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[nowhere]\n")
    with pytest.raises(ConfigError):
        parse_config("[problem]\nf1 = 1;4\n")
    with pytest.raises(ConfigError):
        parse_config("[problem]\nlengths = 1,2\nresolution = 8\n")
    with pytest.raises(ConfigError):
        parse_config("key = 1\n")
    # a repeated key, also across repeated headers, names its line and key
    with pytest.raises(ConfigError, match=r"line 3: .*'seed'"):
        parse_config("[solve]\nseed = 1\nseed = 7\n")
    with pytest.raises(ConfigError, match=r"line 5: .*'q'"):
        parse_config("[problem]\nq = 3\n[solve]\n[problem]\nq = 4\n")


def test_readme_config_example_parses():
    """The README's config example parses as written, to the defaults of a
    bounded run plus its initial guess."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert parse_config(block) == replace(RunConfig(), init_u="sin(3.141592653589793*x1)")


def test_nonperiodic_potential_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("""
[problem]
kind = periodic_torus
lengths = 4
resolution = 32
v1 = "1 + 0.1*x1"
""")
    code = main(["validate", "--config", str(cfg_file), "--out", str(tmp_path)])
    assert code == 2
    assert "not 1-periodic" in capsys.readouterr().err


def test_validate_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text(BOUNDED_SMALL)
    assert main(["validate", "--config", str(good), "--out", str(tmp_path)]) == 0

    bad = tmp_path / "bad.cfg"
    bad.write_text('[problem]\nlambda = "1.2"\n')
    assert main(["validate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "coupling bound (V2)" in out and "FAIL" in out


def test_validate_reports_the_measured_coupling_bound(tmp_path, capsys):
    """The effective delta is the measured ``max lambda / sqrt(V1 V2)``, here
    0.5, whatever a config used to assert."""
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text('[problem]\nresolution = 64\nv1 = "1.0"\nv2 = "1.0"\nlambda = "0.5"\n')
    assert main(["validate", "--config", str(cfg_file), "--out", str(tmp_path),
                 "--label", "c"]) == 0
    line = "effective delta                0.5\n"
    assert line in capsys.readouterr().out
    assert line in (tmp_path / "c_validate.txt").read_text()


def test_module_entry_point_runs_quietly(tmp_path):
    """``python -m nehari.cli`` exits 0 with nothing on stderr: importing the
    package leaves ``nehari.cli`` unimported, and the package still
    re-exports its names on first access."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "nehari.cli", "validate", "--out", str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "result: PASS" in proc.stdout

    import nehari
    assert nehari.parse_config is parse_config and nehari.RunConfig is RunConfig
    with pytest.raises(AttributeError, match="no_such_name"):
        nehari.no_such_name


def test_ground_writes_artifacts(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(BOUNDED_SMALL)
    out = tmp_path / "out"
    code = main(["ground", "--config", str(cfg_file), "--out", str(out), "--label", "g"])
    assert code == 0
    # solution files carry the label and the winning start index
    grids = sorted(p.name for p in out.glob("g_s??_*.grid"))
    assert len(grids) == 2 and grids[0].endswith("_u.grid")
    stem = grids[0][:-7]
    for suffix in ("_u.grid", "_v.grid", "_u.csv", "_v.csv",
                   "_report.txt", "_energy.txt"):
        assert (out / f"{stem}{suffix}").exists(), suffix
    u = load_grid_function(out / f"{stem}_u.grid")
    assert u.domain.shape == (96,)
    report = (out / f"{stem}_report.txt").read_text()
    assert "status        = converged" in report


def test_ground_deterministic_artifacts(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(BOUNDED_SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["ground", "--config", str(cfg_file), "--out", str(out1)]) == 0
    assert main(["ground", "--config", str(cfg_file), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_ground_artifacts_independent_of_blas_threads(tmp_path):
    """``ground`` on the default 256-node box with 8 starts writes
    byte-identical artifacts with one BLAS thread and with two.  Its joint
    preconditioner transforms 16 lines at once, a sine-matrix product that
    OpenBLAS splits over two threads (the default 5 starts give 10 lines,
    which it computes on one)."""
    root = Path(__file__).resolve().parents[1]
    cfg_file = tmp_path / "ground.cfg"
    cfg_file.write_text("[solve]\nstarts = 8\n")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        out = tmp_path / threads
        proc = subprocess.run([sys.executable, "-m", "nehari.cli", "ground", "--config",
                               str(cfg_file), "--out", str(out)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names and names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name


def test_fibering_csv_single_sign_change(tmp_path):
    cfg_file = tmp_path / "fib.cfg"
    cfg_file.write_text("""
[problem]
kind = dirichlet_box
lengths = 1.0
resolution = 256
init_u = "sin(3.141592653589793*x1)"
init_v = "0"
""")
    out = tmp_path / "out"
    assert main(["fibering", "--config", str(cfg_file), "--out", str(out),
                 "--label", "sin"]) == 0
    rows = np.loadtxt(out / "sin_fibering.csv", delimiter=",", skiprows=1)
    signs = np.sign(rows[:, 2])
    assert np.sum(np.diff(signs[signs != 0]) != 0) == 1
    text = (out / "sin_fibering.txt").read_text()
    t_star = float(text.splitlines()[0].split("=")[1])
    assert abs(t_star - 4.414632997100354) <= 1e-6   # 256-node oracle value


def test_multiplicity_manifest(tmp_path):
    cfg_file = tmp_path / "multi.cfg"
    cfg_file.write_text(BOUNDED_SMALL + "\ntarget_count = 2\n")
    out = tmp_path / "out"
    assert main(["multiplicity", "--config", str(cfg_file), "--out", str(out),
                 "--label", "m"]) == 0
    manifest = (out / "m_manifest.txt").read_text()
    lines = manifest.splitlines()
    assert lines[0] == "index,energy,grad_residual,xi_residual,norm,files"
    assert len([l for l in lines if l and l[0].isdigit()]) >= 2
    assert (out / "m_sol00_u.grid").exists()


def test_multiplicity_shortfall_is_reported(tmp_path, capsys, monkeypatch):
    """Fewer solutions than ``target_count`` (the 64-node box yields 4 before
    one fruitless attempt, the budget set here, ends the search) exit 0 and
    say so on stdout and in the manifest, on a line that does not start with
    a digit."""
    monkeypatch.setattr(sys.modules["nehari.multiplicity"], "_COLLAPSE_BUDGET", 1)
    cfg_file = tmp_path / "short.cfg"
    cfg_file.write_text("""
[problem]
kind = dirichlet_box
lengths = 1.0
resolution = 64

[solve]
target_count = 6
""")
    out = tmp_path / "out"
    assert main(["multiplicity", "--config", str(cfg_file), "--out", str(out),
                 "--label", "m"]) == 0
    assert capsys.readouterr().out.startswith("found 4 of target_count 6 distinct solutions")
    lines = (out / "m_manifest.txt").read_text().splitlines()
    assert [l.split(",")[0] for l in lines if l[:1].isdigit()] == ["0", "1", "2", "3"]
    assert "found 4 of target_count 6" in lines


def test_fountain_csv(tmp_path):
    cfg_file = tmp_path / "f.cfg"
    cfg_file.write_text("""
[problem]
kind = dirichlet_box
lengths = 1.0
resolution = 64

[solve]
k_max = 8
""")
    out = tmp_path / "out"
    assert main(["fountain", "--config", str(cfg_file), "--out", str(out),
                 "--label", "f"]) == 0
    rows = np.loadtxt(out / "f_fountain.csv", delimiter=",", skiprows=1)
    beta = rows[:, 1]
    assert np.all(np.diff(beta) <= 0)


TORUS_1D = """
[problem]
kind = periodic_torus
lengths = 24
resolution = 192

[solve]
starts = 2
seed = 3
max_iters = 800
"""


def test_decay_command(tmp_path):
    cfg_file = tmp_path / "d.cfg"
    cfg_file.write_text(TORUS_1D)
    out = tmp_path / "out"
    assert main(["decay", "--config", str(cfg_file), "--out", str(out),
                 "--label", "d"]) == 0
    text = (out / "d_decay.txt").read_text()
    alpha = float(text.splitlines()[1].split("=")[1])
    assert alpha > 0
    rows = np.loadtxt(out / "d_decay.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] >= 30
    # decay command on a bounded domain is a validation-class failure
    bad = tmp_path / "bad.cfg"
    bad.write_text(BOUNDED_SMALL)
    assert main(["decay", "--config", str(bad), "--out", str(out)]) == 2


def test_decay_deterministic_artifacts(tmp_path):
    """Two decay runs write the same bytes; the decay samples are sorted by distance."""
    cfg_file = tmp_path / "d.cfg"
    cfg_file.write_text(TORUS_1D)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["decay", "--config", str(cfg_file), "--out", str(out),
                     "--label", "d"]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert {"d_decay.csv", "d_decay.txt", "d_report.txt", "d_u.grid", "d_u.csv"} <= set(names)
    for name in names:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name
    rows = np.loadtxt(out1 / "d_decay.csv", delimiter=",", skiprows=1)
    assert np.all(np.diff(rows[:, 0]) >= 0.0)


def test_decay_on_the_96_node_default_torus(tmp_path):
    """The default torus at m = 6 nodes per cell, whose direct descent ran
    every start to max_iters (exit 3), solves after one coarse level."""
    cfg_file = tmp_path / "d.cfg"
    cfg_file.write_text("[problem]\nkind = periodic_torus\nlengths = 16, 16\n"
                        "resolution = 96, 96\n\n[solve]\nstarts = 3\n")
    assert main(["decay", "--config", str(cfg_file), "--out", str(tmp_path),
                 "--label", "d"]) == 0
    status = (tmp_path / "d_report.txt").read_text().splitlines()[0]
    assert status.split() == ["status", "=", "converged"]


def test_ground_far_out_on_the_ray_converges(tmp_path, capsys):
    """Exponents just above 2 put the fibering root of a random start near
    t = 1e20: the bracket doubles as far as the float range allows, and the
    default box converges."""
    cfg_file = tmp_path / "near2.cfg"
    cfg_file.write_text("[problem]\nq = 2.1\nf1 = 0.1:2.3\nf2 = 0.1:2.3\n")
    assert main(["ground", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("ground state: energy = 3.776")


def test_stall_exit_code(tmp_path):
    cfg_file = tmp_path / "stall.cfg"
    cfg_file.write_text("""
[problem]
kind = dirichlet_box
lengths = 1.0
resolution = 64

[solve]
grad_tol = 1e-305
max_iters = 4
starts = 2
""")
    assert main(["ground", "--config", str(cfg_file), "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("reason", [
    "beta sequence failed to be nonincreasing",
    "PCG did not converge\n  after 500 iterations",
])
def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch, reason):
    def failing(*args, **kwargs):
        raise RuntimeError(reason)

    monkeypatch.setattr("nehari.cli.fountain_diagnostics", failing)
    assert main(["fountain", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err == "numerical failure: " + " ".join(reason.split()) + "\n"


def test_non_finite_value_exit_code(tmp_path, capsys, monkeypatch):
    """A non-finite value inside the descent is a numerical failure: exit
    code 4 and one stderr line that names the start and the iterate."""
    solver = sys.modules["nehari.solver"]
    real = solver.grad_l2

    def poisoned(spec, S):
        G = real(spec, S)
        G[..., -1] = np.inf
        return G

    monkeypatch.setattr(solver, "grad_l2", poisoned)
    cfg_file = tmp_path / "small.cfg"
    cfg_file.write_text(BOUNDED_SMALL)
    assert main(["ground", "--config", str(cfg_file), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err == "numerical failure: non-finite residual at iterate 0 of start 0\n"


def test_fountain_deterministic_artifacts(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["fountain", "--out", str(out), "--seed", "5"]) == 0
    assert (out1 / "run_fountain.csv").read_bytes() == (out2 / "run_fountain.csv").read_bytes()


def test_missing_config_file(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["(" * 1200 + "x1" + ")" * 1200, "-" * 990 + "1"])
def test_deeply_nested_expression_exit_code(tmp_path, capsys, value):
    """An expression nested past the parser's depth bound is a config error
    at a byte offset, not a recursion failure: exit 2, one line."""
    cfg_file = tmp_path / "deep.cfg"
    cfg_file.write_text(f'[problem]\nv1 = "{value}"\n')
    assert main(["validate", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "(at byte " in err


@pytest.mark.parametrize("command, setting", [
    ("ground", "max_iters = -1"),
    ("multiplicity", "max_iters = -1"),
    ("ground", "recenter_every = -1"),
    ("ground", "recenter_every = 5"),
    ("ground", "recenter_every = 0\nrecenter_every = 0"),
    ("ground", "armijo_c1 = 0.001"),
    ("multiplicity", "armijo_backtrack = 0.25"),
    ("ground", "seed = -1"),
    ("fountain", "seed = -1"),
    ("multiplicity", "target_count = 0"),
    ("multiplicity", "target_count = -3"),
    ("multiplicity", "collapse_budget = -1"),
    ("ground", "grad_tol = nan"),
    ("ground", "grad_tol = inf"),
    ("fountain", "k_max = 0"),
    ("ground", "seed = 1\nseed = 7"),
])
def test_out_of_range_setting_exit_code(tmp_path, capsys, command, setting):
    """An out-of-range or repeated [solve] value is a config error: exit 2,
    one line that names the key."""
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"[problem]\nresolution = 64\n\n[solve]\n{setting}\n")
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert setting.split(" =")[0] in err


@pytest.mark.parametrize("section, setting", [
    ("solve", "max_iters = ten"),
    ("solve", "grad_tol = abc"),
    ("solve", "recenter_every = zero"),
    ("problem", "q = abc"),
    ("problem", 'v1 = "1 + * x1"'),
])
def test_unparsable_value_exit_code(tmp_path, capsys, section, setting):
    """A value its key cannot parse is a config error: exit 2, one line that
    names the line and the key and keeps the parser's reason."""
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"[problem]\nresolution = 64\n\n[{section}]\n{setting}\n")
    assert main(["validate", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    key = setting.split(" =")[0]
    assert f"line 5: bad value for {key!r} in section [{section}]: " in err
    if key == "v1":
        assert "(at byte " in err


@pytest.mark.parametrize("text, message", [
    ("[problem]\nresolution = 64\nbogus = 1\n",
     "line 3: unknown key 'bogus' in section [problem]"),
    ("# a comment\n[problem]\nkind = foo\n",
     "line 3: bad value for 'kind' in section [problem]: unknown domain kind 'foo'"),
    ("[problem]\nkind = periodic_torus\n\n[solve]\nstarts = 2\nfoo = 2\n",
     "line 6: unknown key 'foo' in section [solve]"),
    ("[solve]\nrecenter_every = 5\n",
     "line 2: bad value for 'recenter_every' in section [solve]: "),
    ("[solve]\nseed = 1\narmijo_backtrack = 0.25\n",
     "line 3: bad value for 'armijo_backtrack' in section [solve]: the key is retired; "
     "only 0.5 is accepted"),
    ("[problem]\nq = 3\ndelta = 0.5\n",
     "line 3: bad value for 'delta' in section [problem]: the key is retired; "
     "only 0.3 is accepted"),
    ("[solve]\ncollapse_budget = 2\n",
     "line 2: bad value for 'collapse_budget' in section [solve]: the key is retired; "
     "only 6 is accepted"),
    ("[problem]\nlengths = 1.0, 2.0\n",
     "line 2: 'lengths' and 'resolution' in section [problem] must have the same "
     "number of axes ('lengths' has 2, 'resolution' has 1)"),
    ("[problem]\nresolution = 8, 8\n\nlengths = 1.0\nq = 3\n",
     "line 4: 'lengths' and 'resolution' in section [problem] must have the same "
     "number of axes ('lengths' has 1, 'resolution' has 2)"),
    ("[problem]\nlengths = inf\n",
     "line 2: bad value for 'lengths' in section [problem]: lengths must be positive and "
     "finite"),
    ("[problem]\nlengths = 1e400\n",
     "line 2: bad value for 'lengths' in section [problem]: lengths must be positive and "
     "finite"),
    ("[problem]\nkind = periodic_torus\nlengths = inf, 16\n",
     "line 3: bad value for 'lengths' in section [problem]: lengths must be positive and "
     "finite"),
    ("[problem]\nkind = periodic_torus\nlengths = nan, 16\n",
     "line 3: bad value for 'lengths' in section [problem]: lengths must be positive and "
     "finite"),
    ("[problem]\nresolution = 0\n",
     "line 2: bad value for 'resolution' in section [problem]: resolution must be positive"),
    ("[problem]\nlengths = -1\n",
     "line 2: bad value for 'lengths' in section [problem]: lengths must be positive and "
     "finite"),
    ("[problem]\nkind = periodic_torus\nlengths = 1.5, 16\n",
     "line 3: bad value for 'lengths' in section [problem]: torus periods must be integers"),
    ("[problem]\nkind = periodic_torus\nresolution = 250, 256\n",
     "line 3: bad value for 'resolution' in section [problem]: periodic resolution must be "
     "an integer multiple m >= 2 of the period (got 250 points for period 16)"),
    ("[problem]\nkind = periodic_torus\nresolution = 64, 64\nlengths = 48, 16\n",
     "line 4: bad value for 'lengths' in section [problem]: periodic resolution must be "
     "an integer multiple m >= 2 of the period (got 64 points for period 48)"),
    ("[problem]\nlengths = 1, 1, 1, 1\nresolution = 4, 4, 4, 4\n",
     "line 3: bad value for 'resolution' in section [problem]: dimension must be 1, 2 or 3, "
     "got 4"),
])
def test_unknown_key_and_kind_name_their_line(tmp_path, capsys, text, message):
    """An unknown key, an unknown domain kind, a retired key set to a value
    other than its old one, ``lengths`` and ``resolution`` of different axis counts
    and a domain they cannot make are config errors on their line: exit 2,
    one line."""
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text)
    assert main(["validate", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ["validate", "ground", "fibering", "decay", "fountain"])
@pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
def test_non_finite_lengths_are_config_errors(tmp_path, capsys, command, value):
    """A non-finite period or side length stops every command at the config:
    exit 2, one line naming the line and the key."""
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"[problem]\nkind = periodic_torus\n\nlengths = {value}, 16\n")
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: line 4: bad value for 'lengths' in section [problem]: "
                   "lengths must be positive and finite\n")


def test_decay_radius_is_checked_before_the_solve(tmp_path, capsys, monkeypatch):
    """A torus whose period is less than twice the recentering radius stops
    ``decay`` before any descent runs: exit 2, one line naming the radius
    and, from a config file, the ``lengths`` line."""
    counts = {}
    count_calls(monkeypatch, counts, "_descend")
    cfg_file = tmp_path / "small.cfg"
    cfg_file.write_text("[problem]\nkind = periodic_torus\nlengths = 4, 4\n"
                        "resolution = 32, 32\n")
    assert main(["decay", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 3: bad value for 'lengths' in section [problem]: "
        "recentering radius 2.41421 exceeds half the torus period 4\n")
    cfg = replace(default_config("periodic_torus"), command="decay", lengths=(4.0, 4.0),
                  resolution=(32, 32), out_dir=str(tmp_path))
    assert run(cfg) == 2
    assert "recentering radius 2.41421" in capsys.readouterr().err
    assert counts.get("_descend", 0) == 0


@pytest.mark.parametrize("command", ["ground", "multiplicity", "fountain", "fibering"])
def test_failed_validation_stops_the_command(tmp_path, capsys, monkeypatch, command):
    """A config that fails hypothesis validation stops the command before
    any descent runs: exit 2, one line naming the failed check."""
    counts = {}
    count_calls(monkeypatch, counts, "_descend")
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("[problem]\nresolution = 64\nf1 = 1.0:2.5\n")
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: hypothesis validation failed: f1: exponents above q (F4)\n")
    assert counts.get("_descend", 0) == 0


def test_undominated_fibering_root_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    """A fibering root that does not dominate its bracket ends ``fibering``
    with exit 4 and one line."""
    force_undominated_root(monkeypatch)
    assert main(["fibering", "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err == \
        "numerical failure: fibering maximizer does not dominate its bracket\n"


def test_fountain_beyond_the_lanczos_pair_count_is_a_config_error(tmp_path, capsys,
                                                                  monkeypatch):
    """On a box above the dense eigensolver's 2500 nodes, a ``k_max`` whose
    eigenbasis needs every eigenpair of a block exits 2 with one line naming
    k and the node count, before any Lanczos work."""
    import scipy.sparse.linalg

    def no_lanczos(*args, **kwargs):
        raise AssertionError("eigsh was called")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_lanczos)
    cfg_file = tmp_path / "big.cfg"
    cfg_file.write_text("[problem]\nlengths = 1.0, 1.0\nresolution = 51, 51\n\n"
                        "[solve]\nk_max = 2595\n")
    assert main(["fountain", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: k_max=2595 plus 10 buffer pairs needs every eigenpair of a "
                          "2601-node block")
    assert err.count("\n") == 1


def test_fountain_with_one_level(tmp_path):
    """``k_max = 1`` has no overall decrease to check: exit 0 and one row."""
    cfg_file = tmp_path / "one.cfg"
    cfg_file.write_text("[solve]\nk_max = 1\n")
    assert main(["fountain", "--config", str(cfg_file), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "run_fountain.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("1,")


_BOX_8 = "resolution = 8"
_TORUS_4 = "kind = periodic_torus\nlengths = 2\nresolution = 4"


@pytest.mark.parametrize("problem, nodes, k_max", [
    (_BOX_8, 8, 10), (_BOX_8, 8, 16), (_BOX_8, 8, 17),
    (_TORUS_4, 4, 1), (_TORUS_4, 4, 8), (_TORUS_4, 4, 9),
])
def test_fountain_on_grids_smaller_than_its_buffer(tmp_path, capsys, problem, nodes, k_max):
    """On the dense route the eigenbasis is cut at all 2n pairs of the
    discrete space, so every ``k_max`` up to 2n runs, with one CSV row per
    level; a larger one exits 2 naming ``k_max``."""
    cfg_file = tmp_path / "small.cfg"
    cfg_file.write_text(f"[problem]\n{problem}\n\n[solve]\nk_max = {k_max}\n")
    code = main(["fountain", "--config", str(cfg_file), "--out", str(tmp_path)])
    if k_max > 2 * nodes:
        assert code == 2
        assert capsys.readouterr().err == (f"error: k_max={k_max} exceeds the dimension of the "
                                           f"discrete space ({2 * nodes})\n")
    else:
        assert code == 0
        rows = np.loadtxt(tmp_path / "run_fountain.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape[0] == k_max and np.all(np.diff(rows[:, 1]) <= 0)


def test_unwritable_output_is_an_error_line(tmp_path, capsys):
    """An output directory under a regular file exits 2 with one ``error:``
    line, not a traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["validate", "--out", str(blocker / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker / "out") in err and err.count("\n") == 1


def test_fibering_reads_one_set_of_ray_moments(tmp_path, monkeypatch):
    """One moment pass projects the state and one serves all 200 samples."""
    counts = {}
    count_calls(monkeypatch, counts, "_ray_data")
    assert main(["fibering", "--out", str(tmp_path)]) == 0
    assert counts["_ray_data"] == 2
