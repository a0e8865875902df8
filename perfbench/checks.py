"""Correctness checks computed apart from the program.

Everything here reads the artifacts an op wrote and recomputes the claims
with its own ``nehari-grid v1`` reader, its own second-order stencil and
rectangle quadrature, and coefficients taken from the workload's config
numbers (:mod:`workloads`).  Nothing here imports ``nehari``.

Each check function returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from workloads import Problem, Workload

GRID_MAGIC = "nehari-grid v1"

# strong-form residual may exceed grad_tol by roundoff only; the program
# stops at residual <= grad_tol with the same definition
RESIDUAL_FACTOR = 10.0
XI_REL_TOL = 1e-9            # |xi(s)| / ||s||^2 on the manifold
ENERGY_REL_TOL = 1e-10       # recomputed J against the program's report
SAME_LEVEL_REL_TOL = 1e-8    # every ground-state seed reaches one level
SHIFT_REL_TOL = 1e-12        # integer-cell translation leaves J unchanged
NONNEG_REL_TOL = 1e-10       # bounded ground states are nonnegative
DISTINCT_FACTOR = 1e-4       # orbit distances exceed this times max ||s||
SYNC_REL_TOL = 1e-9          # synchronized level against the Newton reference
DECAY_ALPHA_MIN = 0.6        # band below the linearised rate sqrt(1 - lambda)
DECAY_R2_MIN = 0.9
FOUNTAIN_RATIO_MAX = 0.5     # beta_30 / beta_1
FORMULA_REL_TOL = 1e-12      # r_k and b_lower against the closed formulas


class GridFormatError(ValueError):
    pass


def read_grid(path) -> tuple[dict, np.ndarray]:
    """Read a ``nehari-grid v1`` file, rejecting a wrong byte count."""
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    if nl < 0:
        raise GridFormatError(f"{path}: no header line")
    fields = [f.strip() for f in data[:nl].decode("ascii").split(";")]
    if fields[0] != GRID_MAGIC:
        raise GridFormatError(f"{path}: bad magic {fields[0]!r}")
    meta = dict(f.split("=", 1) for f in fields[1:])
    if set(meta) != {"dim", "kind", "shape", "lengths"}:
        raise GridFormatError(f"{path}: header fields {sorted(meta)}")
    shape = tuple(int(s) for s in meta["shape"].split(","))
    header = {
        "dim": int(meta["dim"]),
        "kind": meta["kind"],
        "shape": shape,
        "lengths": tuple(float(s) for s in meta["lengths"].split(",")),
    }
    body = data[nl + 1:]
    expected = 8 * math.prod(shape)
    if len(body) != expected:
        raise GridFormatError(f"{path}: {len(body)} value bytes, expected {expected}")
    return header, np.frombuffer(body, dtype="<f8").reshape(shape)


def read_state(prob: Problem, out: Path, label: str) -> tuple[np.ndarray, np.ndarray]:
    kind = "periodic" if prob.periodic else "dirichlet"
    fields = []
    for comp in ("u", "v"):
        header, values = read_grid(out / f"{label}_{comp}.grid")
        if (header["kind"], header["shape"], header["lengths"]) != \
                (kind, prob.resolution, prob.lengths):
            raise GridFormatError(f"{label}_{comp}.grid: header {header} does not match the config")
        fields.append(values)
    return fields[0], fields[1]


def read_report(path) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# own discretisation: 3/5-point stencil, forward differences, rectangle rule
# ---------------------------------------------------------------------------


def _forward_diffs(prob: Problem, a: np.ndarray):
    for axis, h in enumerate(prob.spacing):
        if prob.periodic:
            yield np.roll(a, -1, axis=axis) - a, h
        else:
            pad = [(0, 0)] * a.ndim
            pad[axis] = (1, 1)
            yield np.diff(np.pad(a, pad), axis=axis), h


def neg_laplacian(prob: Problem, a: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    for axis, h in enumerate(prob.spacing):
        if prob.periodic:
            nb = np.roll(a, 1, axis=axis) + np.roll(a, -1, axis=axis)
        else:
            pad = [(0, 0)] * a.ndim
            pad[axis] = (1, 1)
            p = np.pad(a, pad)
            lo = [slice(None)] * a.ndim
            hi = [slice(None)] * a.ndim
            lo[axis] = slice(0, -2)
            hi[axis] = slice(2, None)
            nb = p[tuple(lo)] + p[tuple(hi)]
        out += (2.0 * a - nb) / (h * h)
    return out


def _vol(prob: Problem) -> float:
    return math.prod(prob.spacing)


def h1_norm_sq(prob: Problem, a: np.ndarray) -> float:
    vol = _vol(prob)
    grad = sum(float(np.sum(d * d)) / (h * h) for d, h in _forward_diffs(prob, a))
    return (grad + prob.V * float(np.sum(a * a))) * vol


def block_norm_sq(prob: Problem, u, v) -> float:
    return h1_norm_sq(prob, u) + h1_norm_sq(prob, v)


def _F(prob: Problem, a: np.ndarray) -> np.ndarray:
    return sum((c / p) * np.abs(a) ** p for c, p in prob.terms)


def _f(prob: Problem, a: np.ndarray) -> np.ndarray:
    return sum(c * np.abs(a) ** (p - 2.0) * a for c, p in prob.terms)


def energy(prob: Problem, u, v) -> float:
    vol = _vol(prob)
    q = prob.q
    return (0.5 * block_norm_sq(prob, u, v)
            - prob.lam * float(np.sum(u * v)) * vol
            - float(np.sum(_F(prob, u) + _F(prob, v))) * vol
            + float(np.sum(np.abs(u) ** q + np.abs(v) ** q)) * vol / q)


def xi(prob: Problem, u, v) -> float:
    """``J'(s)(s)``: zero exactly on the Nehari manifold."""
    vol = _vol(prob)
    fs = sum(c * np.abs(a) ** p for c, p in prob.terms for a in (u, v))
    return (block_norm_sq(prob, u, v) - 2.0 * prob.lam * float(np.sum(u * v)) * vol
            - float(np.sum(fs)) * vol
            + float(np.sum(np.abs(u) ** prob.q + np.abs(v) ** prob.q)) * vol)


def relative_residual(prob: Problem, u, v) -> float:
    """L2 norm of the strong-form residual over the block norm, as the program defines it."""
    q = prob.q
    ru = neg_laplacian(prob, u) + prob.V * u - prob.lam * v - _f(prob, u) + np.abs(u) ** (q - 2) * u
    rv = neg_laplacian(prob, v) + prob.V * v - prob.lam * u - _f(prob, v) + np.abs(v) ** (q - 2) * v
    l2 = math.sqrt(float(np.sum(ru * ru) + np.sum(rv * rv)) * _vol(prob))
    return l2 / math.sqrt(block_norm_sq(prob, u, v))


def project_to_manifold(prob: Problem, u, v) -> float:
    """Own scalar root ``t*`` of ``phi'(t) = J'(t s)(s)``, by bisection.

    ``phi'(t)/t = a2 - sum_j c_j t^(p_j-2) + mq t^(q-2)`` is positive near 0
    and negative for large ``t`` (every ``p_j > q``), with one sign change.
    """
    vol = _vol(prob)
    a2 = block_norm_sq(prob, u, v) - 2.0 * prob.lam * float(np.sum(u * v)) * vol
    moments = [(c * float(np.sum(np.abs(u) ** p + np.abs(v) ** p)) * vol, p)
               for c, p in prob.terms]
    mq = float(np.sum(np.abs(u) ** prob.q + np.abs(v) ** prob.q)) * vol

    def psi(t):
        return a2 - sum(c * t ** (p - 2.0) for c, p in moments) + mq * t ** (prob.q - 2.0)

    lo, hi = 1.0, 1.0
    while psi(lo) <= 0.0:
        lo *= 0.5
    while psi(hi) >= 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if psi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def state_failures(wl: Workload, u, v, report: dict, ground: bool) -> list[str]:
    """Checks every saved solution must pass; ``ground`` adds nonnegativity on a box."""
    prob = wl.problem
    fails = []
    nsq = block_norm_sq(prob, u, v)
    res = relative_residual(prob, u, v)
    if not res <= RESIDUAL_FACTOR * wl.grad_tol:
        fails.append(f"residual {res:.3e} > {RESIDUAL_FACTOR:g} * grad_tol")
    xr = abs(xi(prob, u, v)) / nsq
    if not xr <= XI_REL_TOL:
        fails.append(f"|xi|/||s||^2 = {xr:.3e} > {XI_REL_TOL:g}")
    J = energy(prob, u, v)
    floor = (0.5 - 1.0 / prob.q) * (1.0 - prob.effective_delta) * nsq
    if not J >= floor:
        fails.append(f"energy {J!r} below the bound (1/2-1/q)(1-delta)||s||^2 = {floor!r}")
    claimed = float(report["energy"])
    if not abs(J - claimed) <= ENERGY_REL_TOL * abs(J):
        fails.append(f"recomputed energy {J!r} != reported {claimed!r}")
    if ground and not prob.periodic:
        amp = max(float(np.abs(u).max()), float(np.abs(v).max()))
        low = min(float(u.min()), float(v.min()))
        if low < -NONNEG_REL_TOL * amp:
            fails.append(f"ground state has a negative node value {low!r}")
    return fails


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def _single_file(out: Path, pattern: str) -> Path:
    found = sorted(out.glob(pattern))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one {pattern} in the output, found {len(found)}")
    return found[0]


def probe_states(prob: Problem) -> list[tuple[np.ndarray, np.ndarray]]:
    """A few fixed states for the ground-level upper-bound test."""
    x = (np.arange(prob.resolution[0]) + 1) * prob.spacing[0]
    s1 = np.sin(np.pi * x / prob.lengths[0])
    bump = np.exp(-((x - 0.4) / 0.1) ** 2)
    return [(s1, s1), (s1, 0.5 * s1), (bump, s1), (s1, np.zeros_like(s1)),
            (bump, bump ** 2)]


def check_ground(wl: Workload, out: Path, ctx: dict) -> list[str]:
    """``ground`` on the box: one level for every seed, below J(t* w) for test states."""
    prob = wl.problem
    rep_path = _single_file(out, "run_s*_report.txt")
    label = rep_path.name[: -len("_report.txt")]
    u, v = read_state(prob, out, label)
    fails = state_failures(wl, u, v, read_report(rep_path), ground=True)
    J = energy(prob, u, v)
    ref = ctx.setdefault("ground_level", J)
    if not abs(J - ref) <= SAME_LEVEL_REL_TOL * abs(ref):
        fails.append(f"ground level {J!r} differs from the run's first level {ref!r}")
    for tu, tv in probe_states(prob):
        t = project_to_manifold(prob, tu, tv)
        upper = energy(prob, t * tu, t * tv)
        if not J <= upper:
            fails.append(f"ground level {J!r} exceeds J(t* w) = {upper!r}")
    return fails


def check_decay(wl: Workload, out: Path, ctx: dict) -> list[str]:
    """``decay`` on the torus: cell-shift invariance, decay band, fit quality."""
    prob = wl.problem
    u, v = read_state(prob, out, "run")
    fails = state_failures(wl, u, v, read_report(out / "run_report.txt"), ground=False)
    J = energy(prob, u, v)
    for axis, m in enumerate(prob.points_per_cell):
        Js = energy(prob, np.roll(u, m, axis=axis), np.roll(v, m, axis=axis))
        if not abs(Js - J) <= SHIFT_REL_TOL * abs(J):
            fails.append(f"cell shift along axis {axis} changes J by {Js - J:.3e}")
    alpha, r2 = decay_fit(prob, u, v)
    claimed = read_report(out / "run_decay.txt")
    if not abs(alpha - float(claimed["alpha"])) <= 1e-9 * alpha:
        fails.append(f"recomputed alpha {alpha!r} != reported {claimed['alpha']}")
    rate = math.sqrt(1.0 - prob.lam / prob.V)
    if not DECAY_ALPHA_MIN <= alpha < rate:
        fails.append(f"alpha {alpha!r} outside [{DECAY_ALPHA_MIN}, {rate:.4f})")
    if not r2 >= DECAY_R2_MIN:
        fails.append(f"decay fit r^2 {r2!r} < {DECAY_R2_MIN}")
    return fails


def decay_fit(prob: Problem, u, v, window=(1e-12, 1e-3)) -> tuple[float, float]:
    """Least-squares ``log(|u|+|v|)`` against periodic distance from the peak node."""
    w = np.abs(u) + np.abs(v)
    wmax = float(w.max())
    mask = (w >= window[0] * wmax) & (w <= window[1] * wmax) & (w > 0)
    center = np.unravel_index(int(np.argmax(w)), w.shape)
    grids = np.meshgrid(*[
        ((np.arange(n) - c + n // 2) % n - n // 2) * h
        for n, c, h in zip(w.shape, center, prob.spacing)
    ], indexing="ij")
    d = np.sqrt(sum(g * g for g in grids))[mask]
    logw = np.log(w[mask])
    slope, intercept = np.polyfit(d, logw, 1)
    resid = logw - (slope * d + intercept)
    r2 = 1.0 - float(np.sum(resid ** 2)) / float(np.sum((logw - logw.mean()) ** 2))
    return float(-slope), r2


def synchronized_level(prob: Problem) -> float:
    """Energy of ``(w, w)`` for the positive solution of the scalar equation

        -w'' + (V - lam) w = f(w) - |w|^(q-2) w

    on the box grid, by sparse Newton from the projected first sine mode.
    """
    n = prob.resolution[0]
    h = prob.spacing[0]
    c = prob.V - prob.lam
    A = scipy.sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                           [-1, 0, 1], format="csc") / (h * h) \
        + c * scipy.sparse.identity(n, format="csc")
    x = (np.arange(n) + 1) * h
    w = np.sin(np.pi * x / prob.lengths[0])
    w = w * project_to_manifold(prob, w, w)
    q = prob.q
    for _ in range(100):
        F = A @ w - _f(prob, w) + np.abs(w) ** (q - 2) * w
        df = sum(c_ * (p - 1.0) * np.abs(w) ** (p - 2.0) for c_, p in prob.terms)
        Jac = A + scipy.sparse.diags(-df + (q - 1.0) * np.abs(w) ** (q - 2.0), format="csc")
        step = scipy.sparse.linalg.spsolve(Jac, F)
        w = w - step
        # the step stagnates near cond(Jac) * eps ~ 1e-13 of max|w|
        if float(np.max(np.abs(step))) <= 1e-10 * float(np.max(np.abs(w))):
            break
    else:
        raise RuntimeError("Newton solve for the synchronized level did not converge")
    if float(w.min()) < 0.0:
        raise RuntimeError("Newton solve for the synchronized level left the positive cone")
    return energy(prob, w, w)


def check_multiplicity(wl: Workload, out: Path, ctx: dict) -> list[str]:
    """``multiplicity`` on the box: distinct, strictly increasing, sync level matches."""
    prob = wl.problem
    manifest = (out / "run_manifest.txt").read_text().splitlines()
    rows = [line.split(",") for line in manifest[1:] if line and line[0].isdigit()]
    fails = []
    if len(rows) != wl.target_count:
        return [f"{len(rows)} solutions, expected {wl.target_count}"]
    states, levels = [], []
    for i, row in enumerate(rows):
        label = row[-1]
        u, v = read_state(prob, out, label)
        fails += [f"{label}: {m}" for m in state_failures(
            wl, u, v, read_report(out / f"{label}_report.txt"), ground=(i == 0))]
        states.append((u, v))
        levels.append(energy(prob, u, v))
    if not all(a < b for a, b in zip(levels, levels[1:])):
        fails.append(f"levels not strictly increasing: {levels}")
    norms = [math.sqrt(block_norm_sq(prob, u, v)) for u, v in states]
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            (u1, v1), (u2, v2) = states[i], states[j]
            dist = min(math.sqrt(block_norm_sq(prob, u1 - s * u2, v1 - s * v2))
                       for s in (1.0, -1.0))
            if not dist > DISTINCT_FACTOR * max(norms[i], norms[j]):
                fails.append(f"solutions {i} and {j} share an orbit (distance {dist:.3e})")
    sync = [lvl for (u, v), lvl in zip(states, levels)
            if float(np.max(np.abs(u - v))) <= 1e-8 * float(np.max(np.abs(u)))]
    if len(sync) != 1:
        fails.append(f"{len(sync)} synchronized (u = v) solutions, expected 1")
    else:
        ref = ctx.get("sync_level")
        if ref is None:
            ref = ctx["sync_level"] = synchronized_level(prob)
        if not abs(sync[0] - ref) <= SYNC_REL_TOL * abs(ref):
            fails.append(f"synchronized level {sync[0]!r} != Newton reference {ref!r}")
    return fails


def growth_constant(prob: Problem) -> float:
    return max(sum(a / p for a, p in prob.terms), sum(a for a, _ in prob.terms))


def check_fountain(wl: Workload, out: Path, ctx: dict) -> list[str]:
    """``fountain``: beta nonincreasing and decaying, a_max <= 0, closed formulas."""
    prob = wl.problem
    lines = (out / "run_fountain.csv").read_text().splitlines()
    if lines[0] != "k,beta,r,b_lower,rho,a_max" or len(lines) != wl.k_max + 1:
        return [f"fountain table has header {lines[0]!r} and {len(lines) - 1} rows"]
    table = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    beta, r, b_lower, amax = table[:, 1], table[:, 2], table[:, 3], table[:, 5]
    fails = []
    if np.any(np.diff(beta) > 0):
        fails.append("beta is not nonincreasing")
    if not beta[-1] / beta[0] <= FOUNTAIN_RATIO_MAX:
        fails.append(f"beta_{wl.k_max}/beta_1 = {beta[-1] / beta[0]:.4f} > {FOUNTAIN_RATIO_MAX}")
    if np.any(amax > 0):
        fails.append("a sampled a_max is positive")
    p, d, C = prob.p_max, prob.effective_delta, growth_constant(prob)
    base = 2.0 * C * (p / (1.0 - d)) * beta ** p
    r_ref = base ** (1.0 / (2.0 - p))
    b_ref = (1.0 - d) * (0.5 - 1.0 / p) * base ** (2.0 / (2.0 - p)) \
        - 2.0 * C * math.prod(prob.lengths)
    if not np.allclose(r, r_ref, rtol=FORMULA_REL_TOL, atol=0.0):
        fails.append("r_k does not match the closed formula")
    if not np.allclose(b_lower, b_ref, rtol=FORMULA_REL_TOL, atol=0.0):
        fails.append("b_lower does not match the closed formula")
    return fails


def eigenvalue_failures(prob: Problem, values) -> list[str]:
    """``eigenbasis`` eigenvalues against ``V + (4/h^2) sin^2(pi j / (2(n+1)))``.

    With ``V1 = V2`` every eigenvalue appears once per block.
    """
    n, h = prob.resolution[0], prob.spacing[0]
    j = np.arange(1, n + 1)
    exact = np.repeat(prob.V + (4.0 / h ** 2) * np.sin(np.pi * j / (2.0 * (n + 1))) ** 2, 2)
    got = np.asarray(values, dtype=float)
    err = float(np.max(np.abs(got - exact[: got.size])))
    scale = 4.0 / h ** 2
    if not err <= 1e-11 * scale:
        return [f"eigenbasis eigenvalues off the closed form by {err:.3e}"]
    return []


CHECKS = {
    "ground": check_ground,
    "decay": check_decay,
    "multiplicity": check_multiplicity,
    "fountain": check_fountain,
}
