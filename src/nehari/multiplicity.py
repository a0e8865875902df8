"""Multiple solutions: deflation, orbit distances, and Fountain diagnostics.

Distinct solutions are found by minimizing a deflated energy

    J(s) * prod_k (1 + sigma / dist(s, s_k)^2)

over the (unchanged) Nehari manifold, where ``dist`` quotients out the
pair sign flip and, on periodic domains, integer translations.  Every
candidate is re-polished on the plain energy and accepted only when its
orbit stays away from all known ones.

The Fountain quantities are computed on the eigenbasis of the decoupled
linear operator: ``beta_k`` estimates the largest p-norm on the unit
sphere of the tail span ``Z_k`` (a lower estimate from multistart ascent,
nonincreasing by construction), ``r_k`` and the lower bound for ``b_k``
follow closed formulas, and ``rho_k`` is found by scanning radii until
the sampled energy maximum on the ``Y_k`` sphere turns nonpositive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .grid import DomainSpec, _orbit_realization, _pair_inner, _roll_cells, _schrodinger_values
from .model import ProblemSpec
from .energy import State, _pcg_schrodinger, _ray_data, _state_pair, grad_l2, xi_grad_l2
from .solver import (
    SolveConfig,
    SolveReport,
    _descend,
    _EnergyObjective,
    _winner,
    find_ground_state,
    initial_states,
)

__all__ = [
    "SolutionSet",
    "FountainReport",
    "eigenbasis",
    "fountain_diagnostics",
    "orbit_distance",
    "deflated_search",
    "find_distinct_solutions",
]

_MAX_COMPONENT_UNKNOWNS = 10_000
_DENSE_EIGH_NODES = 2500      # larger blocks take shift-invert Lanczos
_DISTINCT_FACTOR = 1e-4       # orbit-distance threshold relative to state norms
_LEVEL_GAP_FACTOR = 1e-6      # minimal relative gap between stored energy levels
_DEFLATION_SIGMA = 1.0
_COLLAPSE_BUDGET = 6          # fruitless deflation attempts that end a multiplicity search


# ---------------------------------------------------------------------------
# eigenbasis of the block-diagonal linear operator
# ---------------------------------------------------------------------------


def _block_eigenpairs(domain: DomainSpec, V: np.ndarray, k: int):
    """Lowest ``k`` eigenpairs of the stencil ``-lap_h + V``: ``eigh`` of its
    matrix (the stencil applied to every unit vector) up to
    ``_DENSE_EIGH_NODES`` nodes, above that shift-invert Lanczos at zero with
    ``_pcg_schrodinger`` as the inverse, from a fixed start vector, which
    gives fewer pairs than nodes.  scipy is imported here, not at module level,
    so that the commands that never call the eigenbasis do not load it."""
    n = domain.size
    if n <= _DENSE_EIGH_NODES:
        from scipy.linalg import eigh

        A = _schrodinger_values(np.eye(n).reshape((n,) + domain.shape), V, domain)
        vals, vecs = eigh(A.reshape(n, n))
        return vals[:k], vecs[:, :k]
    from scipy.sparse.linalg import LinearOperator, eigsh

    def operator(fn):
        return LinearOperator(
            (n, n), matvec=lambda x: fn(x.reshape(domain.shape)).ravel(), dtype=float)

    A = operator(lambda a: _schrodinger_values(a, V, domain))
    inverse = operator(lambda b: _pcg_schrodinger(domain, V, b)[0])
    # a fixed random start keeps the result independent of earlier calls; a
    # constant one would miss every mode odd under a mirror of the box
    v0 = np.random.default_rng(0).standard_normal(n)
    vals, vecs = eigsh(A, k=k, sigma=0.0, which="LM", OPinv=inverse, v0=v0)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _eigen_rows(spec: ProblemSpec, k: int) -> tuple[list[float], np.ndarray]:
    """The eigenvalues and block-normalized pairs of ``eigenbasis``, the
    pairs as the rows of one pair array ``(k, 2, *shape)``."""
    dom = spec.domain
    n = dom.size
    if n > _MAX_COMPONENT_UNKNOWNS:
        raise ValueError(f"grid too large for the eigensolver ({n} unknowns per component)")
    if k < 1 or k > 2 * n:
        raise ValueError(f"k={k} exceeds the dimension of the discrete space ({2 * n})")
    if n > _DENSE_EIGH_NODES and k >= n:
        raise ValueError(f"k={k} needs every eigenpair of a {n}-node block; above "
                         f"{_DENSE_EIGH_NODES} nodes the Lanczos eigensolver gives at most "
                         f"{n - 1}")
    per_block = min(k, n)
    blocks = [_block_eigenpairs(dom, V, per_block) for V in (spec.V1.values, spec.V2.values)]
    keys = sorted((float(lam), block, j)
                  for block, (vals, _) in enumerate(blocks) for j, lam in enumerate(vals))[:k]
    rows = np.zeros((k, 2) + dom.shape)
    for row, (lam, block, j) in zip(rows, keys):
        e = blocks[block][1][:, j].reshape(dom.shape)
        # E-normalization: ||(e,0)||^2 = lam * |e|_2h^2 for an eigenvector
        row[block] = e * (1.0 / np.sqrt(lam * dom.cell_volume * float(np.sum(e * e))))
    return [lam for lam, _, _ in keys], rows


def eigenbasis(spec: ProblemSpec, k: int) -> list[tuple[float, State]]:
    """First ``k`` eigenpairs of ``(-lap_h + V1) (+) (-lap_h + V2)``.

    Pairs are orthonormal in the block inner product and sorted by ascending
    eigenvalue; ties resolve u-block first.  Limited to grids with at most
    10^4 unknowns per component, and above ``_DENSE_EIGH_NODES`` nodes to
    ``k`` below the node count.
    """
    lams, rows = _eigen_rows(spec, k)
    return [(lam, State.from_pair(spec.domain, row)) for lam, row in zip(lams, rows)]


# ---------------------------------------------------------------------------
# Fountain diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FountainReport:
    k_max: int
    beta: list[float]
    r: list[float]
    b_lower: list[float]
    a_check: list[tuple[float, float]]   # (rho_k, max sampled energy at rho_k)

    def format_text(self) -> str:
        lines = ["k,beta,r,b_lower,rho,a_max"]
        for i in range(self.k_max):
            rho, amax = self.a_check[i]
            lines.append(
                f"{i + 1},{self.beta[i]:.17g},{self.r[i]:.17g},"
                f"{self.b_lower[i]:.17g},{rho:.17g},{amax:.17g}"
            )
        return "\n".join(lines) + "\n"


def _growth_constant(spec: ProblemSpec) -> float:
    """Constant with ``|F_i(s)| <= C (1 + |s|^p)``, sample-verified."""
    c = 0.0
    for nl in (spec.f1, spec.f2):
        c = max(c, sum(a / p for a, p in nl.terms), sum(a for a, p in nl.terms))
    s = np.geomspace(1e-8, 1e8, 200)
    p = spec.p_max
    for nl in (spec.f1, spec.f2):
        if not np.all(np.abs(nl.F(s)) <= c * (1.0 + s ** p)):
            raise RuntimeError("growth constant verification failed")
    return c


_ASCENT_STEPS = 200          # accepted steps after which an ascent row stops
_ASCENT_GTOL = 1e-7          # tangent-gradient norm, relative to the value, that ends a row
_ASCENT_RESTARTS = 20        # random starts per level of the beta_k ascent
_TAIL_BUFFER = 10            # eigenpairs past k_max that every tail span holds
_RAY_DIRS = 20               # random directions per level of the rho_k radius scan


def _pnorm_and_grad(X, B, p, vol):
    """Row-wise ``|u|_p + |v|_p`` of basis coordinates, and its gradient.

    Each line of ``B`` is one basis pair raveled as ``(u, v)``, so the one
    product ``X @ B`` gives both blocks of every row.  Returns the values of
    the rows of ``X`` and a function that forms the gradients of the selected
    rows from that product with one more, ``C @ B.T``; a row whose gradient
    is never asked for costs the one product and no more.
    """
    W = (X @ B).reshape(len(X), 2, -1)
    A = np.abs(W)
    P = A ** (p - 1.0)
    mp = np.sum(P * A, axis=2) * vol
    norm = mp ** (1.0 / p)
    coef = np.divide(norm, mp, out=np.zeros_like(mp), where=mp > 0.0) * vol

    def grad(rows):
        C = coef[rows, :, None] * np.copysign(P[rows], W[rows])
        return C.reshape(len(rows), B.shape[1]) @ B.T

    return norm[:, 0] + norm[:, 1], grad


def _sphere_ascent(X0, B, p, vol):
    """Projected gradient ascent of ``|u|_p + |v|_p`` on the unit sphere.

    Every row of ``X0`` is a start, and all rows climb together: each round
    tries one step for every active row with one product ``X @ B``.  A row
    steps along its tangent gradient ``g - f(x) x`` (f is 1-homogeneous, so
    ``g . x = f``) and is normalized back onto the sphere.  It accepts a
    trial that raises its value and takes the Barzilai-Borwein quotient
    ``s . s / s . (g_old - g_new)`` of the tangent gradients as its next
    step, or 1.5 times the old step where that is not positive; a rejected
    trial halves the step.  A row stops once its tangent gradient is at most
    ``_ASCENT_GTOL`` times its value, after ``_ASCENT_STEPS`` accepted steps,
    or once its step is down to 1e-12.  Returns the final rows and values.
    """
    X = X0 / np.linalg.norm(X0, axis=1, keepdims=True)
    val, grad = _pnorm_and_grad(X, B, p, vol)
    G = grad(np.arange(len(X))) - val[:, None] * X
    step = np.ones(len(X))
    accepted = np.zeros(len(X), dtype=int)
    active = np.arange(len(X))
    while active.size:
        Y = X[active] + step[active, None] * G[active]
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        val_y, grad = _pnorm_and_grad(Y, B, p, vol)
        up = val_y > val[active]
        rows, Y, val_y = active[up], Y[up], val_y[up]
        G_y = grad(np.flatnonzero(up)) - val_y[:, None] * Y
        S = Y - X[rows]
        sy = np.sum(S * (G[rows] - G_y), axis=1)
        step[rows] = np.divide(np.sum(S * S, axis=1), sy, out=1.5 * step[rows], where=sy > 0.0)
        step[active[~up]] *= 0.5
        X[rows], val[rows], G[rows] = Y, val_y, G_y
        accepted[rows] += 1
        keep = step[active] > 1e-12
        keep[up] = ((np.linalg.norm(G_y, axis=1) > _ASCENT_GTOL * val_y)
                    & (accepted[rows] < _ASCENT_STEPS))
        active = active[keep]
    return X, val


def fountain_diagnostics(spec: ProblemSpec, k_max: int, seed: int = 0) -> FountainReport:
    """Compute the nested-subspace quantities on the eigenbasis.

    ``beta_k`` is the best of ``_ASCENT_RESTARTS`` projected ascents over the
    unit sphere of the span of pairs ``k .. k_max + _TAIL_BUFFER`` (at most all
    ``2n``, exact, on the dense route), a lower estimate; the maximizer of level
    ``k+1`` seeds level ``k``, which makes the sequence nonincreasing.  ``rho_k``
    doubles the radius until the sampled energy maximum over the head-span
    sphere is nonpositive.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    dom = spec.domain
    n, wanted = dom.size, k_max + _TAIL_BUFFER
    if k_max > 2 * n:
        raise ValueError(f"k_max={k_max} exceeds the dimension of the discrete space ({2 * n})")
    if n > _DENSE_EIGH_NODES and wanted >= n:
        raise ValueError(f"k_max={k_max} plus {_TAIL_BUFFER} buffer pairs needs every eigenpair "
                         f"of a {n}-node block; above {_DENSE_EIGH_NODES} nodes the Lanczos "
                         f"eigensolver gives at most {n - 1}")
    K = min(wanted, 2 * n)
    B = _eigen_rows(spec, K)[1].reshape(K, -1)   # one (u, v) line per pair
    vol = dom.cell_volume
    p = spec.p_max
    delta, _ = spec.coupling_bound
    c_growth = _growth_constant(spec)
    volume_omega = float(np.prod(dom.lengths))
    rng = np.random.default_rng(seed)

    # beta_k from the tail down, cascading each maximizer into the next level;
    # since the spans are nested, the previous estimate is itself a valid
    # lower bound, which makes the reported sequence exactly nonincreasing
    beta = [0.0] * (k_max + 1)
    carry = None
    prev = 0.0
    for k in range(k_max, 0, -1):
        dim = K - (k - 1)
        starts = rng.standard_normal((_ASCENT_RESTARTS, dim))
        if carry is not None:
            starts = np.vstack([starts, np.concatenate([[0.0], carry])])
        X, vals = _sphere_ascent(starts, B[k - 1:], p, vol)
        best = int(np.argmax(vals))
        beta[k] = max(float(vals[best]), prev)
        prev = beta[k]
        carry = X[best]
    beta = beta[1:]

    r = [(2.0 * c_growth * (p / (1.0 - delta)) * b ** p) ** (1.0 / (2.0 - p)) for b in beta]
    b_lower = [
        (1.0 - delta) * (0.5 - 1.0 / p)
        * (2.0 * c_growth * (p / (1.0 - delta)) * b ** p) ** (2.0 / (2.0 - p))
        - 2.0 * c_growth * volume_omega
        for b in beta
    ]

    # rho_k: scan radii over sampled directions of the head span Y_k, all
    # directions of a level evaluated as the rows of one moment pass
    a_check = []
    for k in range(1, k_max + 1):
        X = np.vstack([np.eye(k), rng.standard_normal((_RAY_DIRS, k))])
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        S = (X @ B[:k]).reshape((-1, 2) + dom.shape)
        rays = _ray_data(spec, S[:, 0], S[:, 1])
        rho = 1.0
        while True:
            amax = float(np.max(rays.phi(rho)))
            if amax <= 0.0:
                break
            rho *= 2.0
            if rho > 2.0 ** 40:
                raise RuntimeError("no radius with nonpositive sampled energy (growth violated)")
        a_check.append((rho, amax))

    rep = FountainReport(k_max, beta, r, b_lower, a_check)
    if any(b2 > b1 for b1, b2 in zip(beta, beta[1:])):
        raise RuntimeError("beta sequence failed to be nonincreasing")
    if k_max > 1 and not beta[-1] < beta[0]:
        raise RuntimeError("beta sequence did not decrease overall")
    return rep


# ---------------------------------------------------------------------------
# orbit distance and deflation
# ---------------------------------------------------------------------------


def _apply_block(spec: ProblemSpec, S: np.ndarray) -> np.ndarray:
    """Block operator ``(-lap+V1, -lap+V2)`` applied to the rows of a pair array."""
    return _schrodinger_values(S, spec.potential_pair, spec.domain)


def _orbit_realizer(spec: ProblemSpec, S1: np.ndarray, known: np.ndarray,
                    applied: np.ndarray | None = None):
    """Orbit distances of every row of ``S1`` from every known orbit.

    ``S1`` and ``known`` are pair arrays ``(rows, 2, *shape)`` and
    ``(orbits, 2, *shape)``; ``applied`` optionally holds
    ``_apply_block(spec, known)``, for callers that realize the same orbits
    many times.  Each known orbit is realized over the sign flip and the
    cell translations of ``spec.symmetry`` (none on a box) by
    ``grid._orbit_realization``, with the nodes per cell as its steps and
    no swap: the cell shifts come from one FFT cross-correlation per pair
    of rows, and the best of them is paired again directly, so quotiented
    copies (pure sign flips) give exactly zero.  Returns
    ``(rows, orbits)`` arrays of the distance, the realizing sign,
    ``|<(-lap+V) tau_z s_k, s1>|`` and the cell shift ``z`` (one more
    trailing axis), and the squared block norms ``<(-lap+V) s, s>`` of the
    rows and of the known orbits.
    """
    dom = spec.domain
    cells = tuple(n // p for n, p in zip(dom.shape, spec.symmetry.periods))
    q2 = _apply_block(spec, known) if applied is None else applied
    dist, ip, z, n1, n2 = _orbit_realization(dom, S1, _apply_block(spec, S1), known, q2, cells)
    return dist, np.where(ip >= 0, 1.0, -1.0), np.abs(ip), z, n1, n2


def orbit_distance(spec: ProblemSpec, s1: State, s2: State) -> float:
    """Distance between translation-and-sign orbits in the block norm.

    On periodic domains minimizes ``||s1 - (+-) tau_z s2||`` over all integer
    cell shifts ``z`` and the joint sign flip; on bounded domains only the
    sign flip is quotiented.
    """
    dist = _orbit_realizer(spec, _state_pair(spec, s1)[None], _state_pair(spec, s2)[None])[0]
    return float(dist[0, 0])


@dataclass
class SolutionSet:
    """Distinct solutions sorted by energy with their pairwise orbit distances.

    Stored entries sit at strictly separated energy levels.  Distinct orbits
    that share a level with a stored entry (symmetry twins, e.g. the swapped
    pair on a symmetric problem) are kept separately so deflation can still
    suppress them.
    """

    spec: ProblemSpec
    entries: list[tuple[State, SolveReport]] = field(default_factory=list)
    pairwise_distances: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    twin_orbits: list[State] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def _orbits(self) -> np.ndarray:
        """Every stored orbit as a row of one pair array: the entries by
        energy, then the twins."""
        states = [s for s, _ in self.entries] + self.twin_orbits
        return np.stack([_state_pair(self.spec, s) for s in states])

    def is_new_orbit(self, s: State) -> bool:
        return bool(self._new_orbits(_state_pair(self.spec, s)[None])[0])

    def _new_orbits(self, S: np.ndarray) -> np.ndarray:
        """Whether each row of the pair array ``S`` stays clear of every
        stored orbit, relative to the larger of the two norms."""
        if not self.entries and not self.twin_orbits:
            return np.ones(len(S), dtype=bool)
        dist, _, _, _, n1, n2 = _orbit_realizer(self.spec, S, self._orbits())
        thresh = _DISTINCT_FACTOR * np.maximum(np.sqrt(n1)[:, None], np.sqrt(n2))
        return np.all(dist > thresh, axis=1)

    def has_new_level(self, e: float) -> bool:
        if not self.entries:
            return True
        scale = abs(self.entries[0][1].energy)
        return all(abs(e - r.energy) > _LEVEL_GAP_FACTOR * scale for _, r in self.entries)

    def add(self, s: State, report: SolveReport) -> str:
        """Insert a candidate; returns ``added``, ``twin`` or ``known``."""
        if not self.is_new_orbit(s):
            return "known"
        if not self.has_new_level(report.energy):
            self.twin_orbits.append(s)
            return "twin"
        self.entries.append((s, report))
        self.entries.sort(key=lambda entry: entry[1].energy)
        E = self._orbits()[:len(self)]
        dist = _orbit_realizer(self.spec, E, E)[0]
        upper = np.triu(dist, 1)
        self.pairwise_distances = upper + upper.T
        return "added"

    def format_manifest(self, file_names: list[str], target_count: int) -> str:
        """One row per solution (the only lines that start with a digit) with
        its entry of ``file_names``, a ``found N of target_count M`` line when
        fewer than ``target_count`` were found, and the pairwise orbit
        distances."""
        lines = ["index,energy,grad_residual,xi_residual,norm,files"]
        for i, (_, rep) in enumerate(self.entries):
            lines.append(
                f"{i},{rep.energy:.17g},{rep.grad_residual:.17g},"
                f"{rep.xi_residual:.17g},{rep.norm:.17g},{file_names[i]}"
            )
        if len(self) < target_count:
            lines.append(f"found {len(self)} of target_count {target_count}")
        lines.append("pairwise orbit distances:")
        for i in range(len(self.entries)):
            row = " ".join(f"{self.pairwise_distances[i, j]:.10g}"
                           for j in range(len(self.entries)))
            lines.append(f"  {i}: {row}")
        return "\n".join(lines) + "\n"


class _DeflatedObjective:
    """Energy times shifted deflation factors centered at the known orbits,
    the rows of the pair array ``known``.

    One orbit realizer call per point realizes every known orbit together
    with its value, from the block operator applied to the orbits once per
    objective; its per-row data (distance, sign, cell shift and
    realized inner product for each known orbit) is where ``grad`` and
    ``slope`` read them.
    """

    def __init__(self, spec: ProblemSpec, known: np.ndarray):
        self.spec = spec
        self.known = known
        self.applied = _apply_block(spec, self.known)

    def value(self, S: np.ndarray, energy: np.ndarray) -> tuple[np.ndarray, dict]:
        dist, sign, ip, shift, n1, _ = _orbit_realizer(self.spec, S, self.known, self.applied)
        dist = np.maximum(dist, 1e-150)
        extra = {"dist": dist, "sign": sign, "ip": ip, "shift": shift, "n1": n1,
                 "factor": 1.0 + _DEFLATION_SIGMA / dist ** 2}
        return energy * np.prod(extra["factor"], axis=1), extra

    def _weights(self, pts):
        """``pi`` and ``J (pi / f_k) (-sigma / d_k^4)`` for every row and known orbit."""
        factors = pts.extra["factor"]
        pi = np.prod(factors, axis=1)
        weights = pts.energy[:, None] * (pi[:, None] / factors) \
            * (-_DEFLATION_SIGMA / pts.extra["dist"] ** 4)
        return pi, weights

    def grad(self, pts) -> np.ndarray:
        dom = self.spec.domain
        pi, weights = self._weights(pts)
        rows = (-1,) + (1,) * (pts.S.ndim - 1)
        G = grad_l2(self.spec, pts.S)
        G *= pi.reshape(rows)
        for k, sk in enumerate(self.known):
            sign = pts.extra["sign"][:, k].reshape(rows)
            W = np.stack([_roll_cells(sk, z, dom) for z in pts.extra["shift"][:, k]])
            A = _apply_block(self.spec, pts.S - sign * W)
            G += (weights[:, k] * 2.0).reshape(rows) * A
        return G

    def slope(self, pts, G: np.ndarray, D: np.ndarray) -> np.ndarray:
        """Armijo slope of the value along ``-D``: ``-<G, D>`` corrected by
        the implicit change of the fibering scale along ``D``, since the
        retraction kills the ray component (a row with zero radial
        derivative adds a signed zero); ``dist^2`` terms use the realizer's ``||s||^2``."""
        dom = self.spec.domain
        pi, weights = self._weights(pts)
        radial = pi * pts.moments.xi()
        for k in range(len(self.known)):
            radial = radial + weights[:, k] * 2.0 * (pts.extra["n1"] - pts.extra["ip"][:, k])
        xi_d = -_pair_inner(dom, xi_grad_l2(self.spec, pts.S), D)
        return -_pair_inner(dom, G, D) - xi_d / pts.moments.xi_slope() * radial


def deflated_search(spec: ProblemSpec, config: SolveConfig,
                    known: SolutionSet) -> tuple[SolveReport, State]:
    """Search for one solution away from the known orbits.

    With no known solutions this is exactly the ground-state search.
    Otherwise each start minimizes the deflated energy on the manifold,
    polishes the result on the plain energy, and keeps it only when its
    orbit stays clear of every known one; a candidate that slides back is
    reported with status ``collapsed`` rather than as an error.

    Every non-ground solution is a saddle of the constrained energy, so
    unrestricted polishing escapes it.  When the problem carries an exact
    discrete symmetry (``spec.symmetry``: swap of the components, mirror
    reflection) the search therefore adds subspace-restricted starts, one
    per direction filter, whose limits are honest full-residual critical
    points.  All starts run as the rows of
    one batch: first the deflated descent, then the polish.  The fresh
    candidate of the lowest energy wins, ties broken as in
    ``find_ground_state`` (``_winner``).
    """
    if len(known) == 0:
        return find_ground_state(spec, config)

    objective = _DeflatedObjective(spec, known._orbits())
    deflate_cfg = replace(config, grad_tol=max(config.grad_tol, 1e-6))
    starts = initial_states(spec, config)
    filters = spec.symmetry.filters
    inits = np.concatenate([filt(starts[:1]) for filt in filters] + [starts])
    run_filters = list(filters) + [None] * len(starts)
    runs = np.flatnonzero(np.any(inits.reshape(len(inits), -1), axis=1))
    inits = inits[runs]
    run_filters = [run_filters[i] for i in runs]
    names = runs.tolist()

    _, rough = _descend(spec, deflate_cfg, inits, objective, names, run_filters)
    reports, polished = _descend(spec, config, rough, _EnergyObjective(spec), names,
                                 run_filters)
    converged = [k for k, rep in enumerate(reports) if rep.status == "converged"]
    if not converged:
        raise RuntimeError("deflated search: no start converged under polishing")
    new = known._new_orbits(polished[converged])
    candidates = [k for k, fresh in zip(converged, new) if fresh]
    if candidates:
        k = candidates[_winner([reports[k] for k in candidates])]
        return reports[k], State.from_pair(spec.domain, polished[k])
    k = converged[0]
    return replace(reports[k], status="collapsed"), State.from_pair(spec.domain, polished[k])


def find_distinct_solutions(spec: ProblemSpec, config: SolveConfig,
                            target_count: int) -> SolutionSet:
    """Collect distinct solutions by repeated deflation.

    Starts from the ground state and keeps deflating until ``target_count``
    solutions are stored or ``_COLLAPSE_BUDGET`` fruitless attempts occur.
    Finding a same-level twin orbit counts as progress (it joins the
    deflation set), not as a collapse.  Each attempt draws fresh starts
    from a derived seed, deterministically.
    """
    if target_count < 1:
        raise ValueError(f"target_count must be at least 1, got {target_count}")
    solutions = SolutionSet(spec)
    rep, state = find_ground_state(spec, config)
    solutions.add(state, rep)
    collapses = 0
    attempt = 0
    max_attempts = _COLLAPSE_BUDGET + 2 * target_count + 4
    while len(solutions) < target_count and collapses < _COLLAPSE_BUDGET \
            and attempt < max_attempts:
        attempt += 1
        cfg = replace(config, seed=config.seed + 1000003 * attempt)
        try:
            rep, state = deflated_search(spec, cfg, solutions)
        except RuntimeError:
            collapses += 1
            continue
        if rep.status != "converged" or solutions.add(state, rep) == "known":
            collapses += 1
    return solutions
