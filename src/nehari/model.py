"""Problem data: nonlinearities, potentials, and hypothesis validation.

The nonlinearity family is a finite sum of odd power terms,

    f(s) = sum_j a_j |s|^(p_j - 2) s,      F(s) = sum_j (a_j / p_j) |s|^p_j,

with every ``a_j > 0`` and every ``p_j`` strictly between the exponent
``q`` of the defocusing term and the critical exponent (infinite in
dimensions one and two, ``2N/(N-2)`` in dimension three).  Within this
family the structural hypotheses on ``f`` reduce to decidable parameter
constraints, and the two key scalar inequalities

    q F(s) <= f(s) s              (Ambrosetti-Rabinowitz type)
    f'(s) s^2 - f(s) s > (q-2) f(s) s     (superlinearity of f/|s|^(q-1))

are additionally verified numerically on a log-spaced sample.  The coupling
bound is measured, not asserted: ``delta_min = max lambda / sqrt(V1 V2)`` over
the sampled fields is the smallest ``delta`` with ``lambda <= delta sqrt(V1 V2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import DomainSpec, GridFunction, _roll_cells

__all__ = [
    "Nonlinearity",
    "ProblemSpec",
    "Symmetry",
    "CheckResult",
    "ValidationReport",
    "ValidationError",
    "validate_nonlinearity",
    "validate_potentials",
    "validate_problem",
    "radius_R",
]

# numerical hypothesis checks: 400 log-spaced magnitudes per sign
_N_SAMPLES = 400
_S_MIN, _S_MAX = 1e-6, 1e6
_RADIUS_RTOL = 1e-12   # the relative bracket width that ends the bisection of radius_R


class ValidationError(ValueError):
    """A problem violates one of the structural hypotheses."""


@dataclass(frozen=True)
class Nonlinearity:
    """Finite sum of odd power terms ``a |s|^(p-2) s``; odd by construction."""

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((float(a), float(p)) for a, p in self.terms)
        )
        if not self.terms:
            raise ValueError("nonlinearity needs at least one term")

    @property
    def p_max(self) -> float:
        """The growth exponent (largest power in the sum)."""
        return max(p for _, p in self.terms)

    def _power_sum(self, s, term):
        """``sum_j term(a_j, p_j, s)`` over the terms, elementwise in ``s``."""
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for a, p in self.terms:
            out += term(a, p, s)
        return out if out.ndim else float(out)

    def f(self, s):
        return self._power_sum(s, lambda a, p, s: a * np.abs(s) ** (p - 2) * s)

    def F(self, s):
        return self._power_sum(s, lambda a, p, s: (a / p) * np.abs(s) ** p)

    def f_prime(self, s):
        return self._power_sum(s, lambda a, p, s: a * (p - 1) * np.abs(s) ** (p - 2))

    def f_times_s(self, s):
        """``f(s) s`` evaluated stably (avoids 0*inf at s=0 for small powers)."""
        return self._power_sum(s, lambda a, p, s: a * np.abs(s) ** p)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    witness: str = ""
    detail: str = ""

    def format_line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        line = f"{self.name:<24s} {status:4s}  margin={self.margin:.6e}"
        if self.witness:
            line += f"  at {self.witness}"
        if self.detail:
            line += f"  ({self.detail})"
        return line


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)
    effective_delta: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, *args, **kwargs):
        self.checks.append(CheckResult(*args, **kwargs))

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def format_text(self) -> str:
        lines = [c.format_line() for c in self.checks]
        if self.effective_delta is not None:
            lines.append(f"{'effective delta':<24s}       {self.effective_delta:.17g}")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"

    def require(self):
        if not self.passed:
            names = ", ".join(c.name for c in self.failures())
            raise ValidationError(f"hypothesis validation failed: {names}")
        return self


def _sample_magnitudes() -> np.ndarray:
    mags = np.geomspace(_S_MIN, _S_MAX, _N_SAMPLES)
    return np.concatenate([-mags[::-1], mags])


def validate_nonlinearity(nl: Nonlinearity, q: float, dimension: int) -> ValidationReport:
    """Check the structural hypotheses of one nonlinearity against ``q`` in ``dimension``.

    Analytic constraints: positive coefficients (else the superlinear growth
    fails), every exponent strictly above ``q`` (else monotonicity of
    ``f(s)/|s|^(q-1)`` fails) and, from dimension 3 on, below the critical
    one ``2N/(N-2)``.  The two scalar inequalities are then verified on
    log-spaced samples with strict floating-point margins.
    """
    rep = ValidationReport()
    if dimension >= 3:
        crit = 2.0 * dimension / (dimension - 2)
        rep.add("subcritical growth (F1)", all(p < crit for _, p in nl.terms),
                crit - nl.p_max, detail=f"max exponent {nl.p_max:g} vs 2*={crit:g}")
    else:
        rep.add("subcritical growth (F1)", True, float("inf"),
                detail="no critical exponent below dimension 3")
    worst_p = min(p for _, p in nl.terms)
    rep.add("small-amplitude decay (F2)", worst_p > 2.0, worst_p - 2.0,
            detail="every exponent above 2 makes f(s) = o(s) at 0")
    coeffs_ok = all(a > 0 for a, _ in nl.terms)
    worst_a = min(a for a, _ in nl.terms)
    rep.add("coefficients (F3)", coeffs_ok, worst_a,
            detail="every term coefficient must be positive")
    exps_ok = all(p > q for _, p in nl.terms)
    rep.add("exponents above q (F4)", exps_ok, worst_p - q,
            detail=f"min exponent {worst_p:g} vs q={q:g}")
    if not rep.passed:
        return rep

    s = _sample_magnitudes()
    fs = nl.f_times_s(s)
    odd_exact = bool(np.all(nl.f(-s) == -nl.f(s)))
    rep.add("odd symmetry (F5)", odd_exact, 1.0 if odd_exact else 0.0,
            detail="f(-s) = -f(s) bit-exact on samples")

    # Ambrosetti-Rabinowitz chain  0 <= q F(s) <= f(s) s, relative margins
    qF = q * nl.F(s)
    lower_ok = bool(np.all(qF >= 0))
    ar = fs - qF
    rel_ar = ar / np.where(fs > 0, fs, 1.0)
    i = int(np.argmin(rel_ar))
    rep.add("AR inequality", lower_ok and bool(np.all(ar > 0)), float(rel_ar[i]),
            witness=f"s={s[i]:.3e}")

    # f'(s) s^2 - f(s) s > (q-2) f(s) s with strictly positive margin
    lhs = nl.f_prime(s) * s * s - fs
    margin = lhs - (q - 2.0) * fs
    rel = margin / np.where(fs > 0, fs, 1.0)
    i = int(np.argmin(rel))
    rep.add("superlinear slope", bool(np.all(margin > 0)), float(rel[i]),
            witness=f"s={s[i]:.3e}")
    return rep


def validate_potentials(spec: "ProblemSpec") -> ValidationReport:
    """Check positivity/boundedness of the potentials and the coupling bound.

    Reads ``delta_min = max_x lambda / sqrt(V1 V2)`` (``spec.coupling_bound``)
    and passes iff ``delta_min < 1`` with ``lambda >= 0`` and ``min V_i > 0``.
    On periodic domains the sampled fields must additionally repeat bit-exactly
    across unit cells.  The report records ``delta_min`` as the effective
    coupling bound used by the coercivity estimates.
    """
    rep = ValidationReport()
    v1, v2, lam = spec.V1.values, spec.V2.values, spec.lam.values

    vmin = min(float(v1.min()), float(v2.min()))
    rep.add("potentials positive (V1)", vmin > 0, vmin,
            detail="ess-inf of V1, V2 must be positive")
    lam_min = float(lam.min())
    rep.add("coupling nonnegative (V2)", lam_min >= 0, lam_min)

    if vmin > 0:
        delta_min, node = spec.coupling_bound
        rep.add("coupling bound (V2)", delta_min < 1, 1.0 - delta_min,
                witness=f"node {node}", detail=f"delta_min={delta_min:.6g}")
        rep.effective_delta = delta_min
    else:
        rep.add("coupling bound (V2)", False, float("-inf"),
                detail="undefined: V1 or V2 vanishes")

    dom = spec.domain
    if dom.periodic:
        ok = all(np.array_equal(f.values, _roll_cells(f.values, z, dom))
                 for f in (spec.V1, spec.V2, spec.lam) for z in np.eye(dom.dimension, dtype=int))
        rep.add("periodic fields (V3)", ok, 0.0,
                detail="V1, V2, lambda repeat bit-exactly across unit cells")
    return rep


def _swap_sym_filter(D: np.ndarray) -> np.ndarray:
    m = 0.5 * (D[:, 0] + D[:, 1])
    return np.stack((m, m), axis=1)


def _swap_anti_filter(D: np.ndarray) -> np.ndarray:
    m = 0.5 * (D[:, 0] - D[:, 1])
    return np.stack((m, -m), axis=1)


def _odd_reflection_filter(axis: int):
    return lambda D: 0.5 * (D - np.flip(D, axis=2 + axis))


@dataclass(frozen=True)
class Symmetry:
    """A problem's discrete symmetry group, beyond the joint sign flip
    ``s -> -s`` that every problem has: ``periods``, the cells per torus axis
    (``()`` on a box); ``swap``, whether V1 and V2 are bitwise equal with
    equal nonlinearity terms; ``mirrors``, the box axes whose flip leaves V1,
    V2 and lambda bitwise unchanged; ``node_steps``, per torus axis the
    smallest shift in nodes along that axis alone that leaves V1, V2 and
    lambda bitwise unchanged (1 on constant fields, the nodes per cell on a
    cosine well; ``()`` on a box).  The shifts by multiples of the node
    steps are a subgroup of the fields' translations: a diagonal shift that
    no product of axis shifts gives is not in it."""

    periods: tuple[int, ...]
    swap: bool
    mirrors: tuple[int, ...]
    node_steps: tuple[int, ...]

    @cached_property
    def filters(self) -> tuple:
        """Direction filters on pair arrays ``(rows, 2, *shape)``: swap-symmetric
        and swap-antisymmetric when ``swap``, then one odd reflection per mirror
        axis.  Their invariant subspaces hold saddles of the full problem as
        constrained minimizers, which stay critical (symmetric criticality)."""
        swap = (_swap_sym_filter, _swap_anti_filter) if self.swap else ()
        return swap + tuple(_odd_reflection_filter(a) for a in self.mirrors)


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem data: exponents, nonlinearities, potentials, coupling.

    The coupling bound ``delta`` is not part of the data: it is measured from
    the sampled fields (``coupling_bound``).
    """

    domain: DomainSpec
    q: float
    f1: Nonlinearity
    f2: Nonlinearity
    V1: GridFunction
    V2: GridFunction
    lam: GridFunction

    def __post_init__(self):
        if self.q <= 2:
            raise ValueError("q must exceed 2")
        for g in (self.V1, self.V2, self.lam):
            if g.domain != self.domain:
                raise ValueError("potential fields must live on the problem domain")

    @property
    def p_max(self) -> float:
        return max(self.f1.p_max, self.f2.p_max)

    @cached_property
    def potential_pair(self) -> np.ndarray:
        """``(V1, V2)`` stacked on a leading component axis, read-only."""
        pair = np.stack((self.V1.values, self.V2.values))
        pair.setflags(write=False)
        return pair

    @cached_property
    def symmetry(self) -> Symmetry:
        """The problem's symmetry group (``Symmetry``), computed once."""
        dom = self.domain
        fields = (self.V1.values, self.V2.values, self.lam.values)
        mirrors = () if dom.periodic else tuple(
            a for a in range(dom.dimension)
            if all(np.array_equal(f, np.flip(f, axis=a)) for f in fields))
        # the smallest invariant shift along an axis divides its node count
        node_steps = () if not dom.periodic else tuple(
            next(d for d in range(1, n + 1) if n % d == 0
                 and all(np.array_equal(f, np.roll(f, d, axis=a)) for f in fields))
            for a, n in enumerate(dom.shape))
        return Symmetry(
            periods=tuple(int(p) for p in dom.lengths) if dom.periodic else (),
            swap=np.array_equal(self.V1.values, self.V2.values) and self.f1.terms == self.f2.terms,
            mirrors=mirrors, node_steps=node_steps)

    @cached_property
    def coupling_bound(self) -> tuple[float, tuple[int, ...]]:
        """``(delta_min, node)``: ``delta_min = max lambda / sqrt(V1 V2)``, the
        smallest coupling bound the sampled fields satisfy, and the first node
        (row-major) that attains it.  Meaningful only for positive V1, V2."""
        ratio = self.lam.values / np.sqrt(self.V1.values * self.V2.values)
        i = int(np.argmax(ratio))
        return float(ratio.flat[i]), tuple(int(k) for k in np.unravel_index(i, ratio.shape))


def validate_problem(spec: ProblemSpec) -> ValidationReport:
    """Run every hypothesis check for a problem; report one line per check."""
    rep = ValidationReport()
    for label, nl in (("f1", spec.f1), ("f2", spec.f2)):
        sub = validate_nonlinearity(nl, spec.q, spec.domain.dimension)
        for c in sub.checks:
            rep.add(f"{label}: {c.name}", c.passed, c.margin, c.witness, c.detail)
    pots = validate_potentials(spec)
    rep.checks.extend(pots.checks)
    rep.effective_delta = pots.effective_delta
    return rep


def radius_R(nl: Nonlinearity, q: float) -> float:
    """Smallest ``R`` with ``F(s) > |s|^q / q`` for all ``|s| >= R``.

    For the power family ``F(s)/|s|^q - 1/q`` is strictly increasing in
    ``|s|``, so the crossing is unique; it is found by bisection after
    bracketing by doubling/halving.
    """
    if not all(p > q for _, p in nl.terms):
        raise ValidationError("radius requires every exponent above q")

    def g(s: float) -> float:
        # F(s)/s^q - 1/q, monotone increasing for s > 0
        return sum((a / p) * s ** (p - q) for a, p in nl.terms) - 1.0 / q

    lo, hi = 1.0, 1.0
    for _ in range(200):
        if g(lo) < 0:
            break
        lo *= 0.5
    for _ in range(200):
        if g(hi) > 0:
            break
        hi *= 2.0
    if not (g(lo) < 0 < g(hi)):
        raise ValidationError("could not bracket the crossing of F(s) and s^q/q")
    while hi - lo > _RADIUS_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
