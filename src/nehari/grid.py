"""Structured grids, discrete operators and norms.

Two domain kinds are supported:

* ``dirichlet_box`` -- a box with homogeneous Dirichlet boundary values.
  Only interior nodes are stored; with ``n`` points per axis on a side of
  length ``L`` the spacing is ``h = L/(n+1)`` and the boundary layers act
  as ghost zeros.
* ``periodic_torus`` -- a torus with integer period per axis.  The spacing
  is ``1/m`` for an integer ``m >= 2`` of points per unit cell, so unit
  integer translations are exact grid shifts.

The discrete Laplacian is the standard second-order stencil and the
Dirichlet energy uses forward differences (including the boundary
interval on Dirichlet domains).  This pairing is summation-by-parts
exact:  ``<-lap(f), f>_h  ==  sum |D+ f|^2 h^N``  holds up to roundoff,
which the variational solver relies on.  All quadrature is the rectangle
rule with weight ``h^N``.  Functional values (the ray moments) use the
forward differences: the pairing adds up ``-lap(f)``, whose rounding error grows
like ``eps |f| / h^2`` per node and hides the Armijo decrease (``||s||^2`` from the
pairing left all 5 default ``ground`` starts stalled at residuals 1.4e-7 to 9.4e-7,
energy 28.3574, exit 3; ``decay`` converged).  Every norm and inner product is the pairing
``<(-lap_h + V) f, g>_h``: summed in sorted order (``_csum``) by the public
ones, so they are bitwise invariant under any permutation of the nodes,
in particular under periodic shifts, and plainly inside (``_pair_inner``).
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.fft import irfftn, rfftn

__all__ = [
    "DomainError",
    "DomainSpec",
    "GridFunction",
    "laplacian_apply",
    "schrodinger_apply",
    "h_norm_sq",
    "h_inner",
    "l2_inner",
    "l2_norm_sq",
    "lp_norm",
    "shift",
    "local_mass_sup",
    "save_grid_function",
    "load_grid_function",
    "grid_function_to_csv",
]

_KINDS = ("dirichlet_box", "periodic_torus")


class DomainError(ValueError):
    """An undiscretizable domain; ``keys`` names ``resolution`` and/or ``lengths``."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys or ("resolution", "lengths")


@dataclass(frozen=True)
class DomainSpec:
    """Discretized domain: dimension, kind, points per axis and extents.

    ``lengths`` holds the side lengths for a Dirichlet box and the integer
    periods for a torus.  ``shape`` is the number of stored points per axis
    (interior points for Dirichlet).
    """

    dimension: int
    kind: str
    shape: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise DomainError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "lengths", tuple(float(l) for l in self.lengths))
        if len(self.shape) != self.dimension or len(self.lengths) != self.dimension:
            raise DomainError("shape and lengths must have one entry per axis")
        if any(n < 1 for n in self.shape):
            raise DomainError("resolution must be positive", "resolution")
        if not all(0 < l < np.inf for l in self.lengths):   # before int(l) of a period
            raise DomainError("lengths must be positive and finite", "lengths")
        if self.kind == "periodic_torus":
            for n, p in zip(self.shape, self.lengths):
                if p != int(p):
                    raise DomainError("torus periods must be integers", "lengths")
                m, r = divmod(n, int(p))
                if r != 0 or m < 2:
                    raise DomainError(
                        "periodic resolution must be an integer multiple m >= 2 "
                        f"of the period (got {n} points for period {int(p)})")

    @staticmethod
    def dirichlet_box(lengths, shape) -> "DomainSpec":
        lengths = tuple(np.atleast_1d(lengths).astype(float))
        shape = tuple(np.atleast_1d(shape).astype(int))
        return DomainSpec(len(shape), "dirichlet_box", shape, lengths)

    @staticmethod
    def periodic_torus(periods, points_per_cell) -> "DomainSpec":
        periods = tuple(float(p) for p in np.atleast_1d(periods))
        for p in periods:   # before int(p) rounds a fraction or fails on inf and nan
            if not (0 < p < np.inf and p == int(p)):
                raise DomainError(f"torus period {p:g} must be a positive integer", "lengths")
        periods = tuple(int(p) for p in periods)
        ppc = np.atleast_1d(points_per_cell).astype(int)
        if ppc.size == 1:
            ppc = np.repeat(ppc, len(periods))
        shape = tuple(int(p * m) for p, m in zip(periods, ppc))
        return DomainSpec(len(shape), "periodic_torus", shape, tuple(float(p) for p in periods))

    @property
    def periodic(self) -> bool:
        return self.kind == "periodic_torus"

    # computed once per domain: the kernels read them on every call
    @cached_property
    def spacing(self) -> tuple[float, ...]:
        if self.periodic:
            return tuple(p / n for p, n in zip(self.lengths, self.shape))
        return tuple(l / (n + 1) for l, n in zip(self.lengths, self.shape))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def points_per_cell(self) -> tuple[int, ...]:
        if not self.periodic:
            raise ValueError("points_per_cell is defined for periodic domains only")
        return tuple(n // int(p) for n, p in zip(self.shape, self.lengths))

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis (interior nodes for Dirichlet)."""
        h = self.spacing[axis]
        if self.periodic:
            return np.arange(self.shape[axis]) * h
        return (np.arange(self.shape[axis]) + 1) * h

    def meshgrid(self) -> list[np.ndarray]:
        axes = [self.axis_coordinates(a) for a in range(self.dimension)]
        return list(np.meshgrid(*axes, indexing="ij"))


@dataclass(frozen=True, slots=True, eq=False)
class GridFunction:
    """A scalar field sampled on a :class:`DomainSpec`.

    Construction checks and freezes a private row-major float copy of
    ``values`` over interior (Dirichlet) or all (periodic) nodes: the given
    array stays writeable, and later writes to it or to its base do not reach
    the grid function.  Two grid functions combine only when their domains
    are identical.
    """

    domain: DomainSpec
    values: np.ndarray

    def __post_init__(self):
        arr, shape = np.array(self.values, dtype=float, order="C"), self.domain.shape
        if arr.shape != shape:
            raise ValueError(f"values shape {arr.shape} does not match domain shape {shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid function values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @staticmethod
    def constant(domain: DomainSpec, value: float) -> "GridFunction":
        return GridFunction(domain, np.broadcast_to(float(value), domain.shape))

    @staticmethod
    def from_callable(domain: DomainSpec, fn, tile_unit_cell: bool = True) -> "GridFunction":
        """Sample ``fn(x1, ..., xd)`` on the grid; a value that does not
        depend on every coordinate broadcasts.

        On periodic domains the function is by default sampled on one unit
        cell and tiled, so the stored field repeats bit-exactly across cells
        (the right thing for potentials; pass ``tile_unit_cell=False`` for
        data that is not cell-periodic, like localized initial guesses).
        """
        if domain.periodic and tile_unit_cell:
            m = domain.points_per_cell
            cell_axes = [np.arange(mi) * domain.spacing[a] for a, mi in enumerate(m)]
            cell = np.asarray(fn(*np.meshgrid(*cell_axes, indexing="ij")), dtype=float)
            reps = tuple(int(p) for p in domain.lengths)
            return GridFunction(domain, np.tile(np.broadcast_to(cell, tuple(m)), reps))
        vals = np.asarray(fn(*domain.meshgrid()), dtype=float)
        return GridFunction(domain, np.broadcast_to(vals, domain.shape))

    def __repr__(self):
        return f"GridFunction({self.domain.kind}, shape={self.domain.shape})"


def _require_same_domain(*fs: GridFunction) -> DomainSpec:
    d = fs[0].domain
    for f in fs[1:]:
        if f.domain != d:
            raise ValueError("grid functions live on different domains")
    return d


def _csum(arr: np.ndarray) -> float:
    """Permutation-invariant reduction of the public norms: sum in sorted order."""
    return float(np.sum(np.sort(arr, axis=None)))


# ---------------------------------------------------------------------------
# the two halves of a pair kernel on two threads
# ---------------------------------------------------------------------------

# A pair kernel runs its two halves (the u and v components, or the two
# halves of its systems) on two threads when each half holds at least this
# many entries and the process may use more than one core.  Timed per call
# of the three split kernels on tori (the table is in CHANGES.md), two
# threads won the sum of the three in every run from a 144^2 half on and
# lost in some run at 136^2 and below; handing a half over costs some
# 45 us, and the halves trade the interpreter lock between numpy calls.
_THREAD_NODES = 144 * 144

_helper = None                    # the one-worker pool, started on first use
_helper_lock = threading.Lock()
_thread = threading.local()       # ``on_helper`` is true on the pool's worker


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _threaded(nodes: int) -> bool:
    """Whether a pair kernel whose halves hold ``nodes`` entries each runs
    them on two threads: from ``_THREAD_NODES`` entries on, with more than
    one usable core, and never from the helper thread (its one worker would
    wait for itself)."""
    return (nodes >= _THREAD_NODES and not getattr(_thread, "on_helper", False)
            and _usable_cores() > 1)


def _mark_helper() -> None:
    _thread.on_helper = True


def _forget_helper() -> None:
    """After a fork: the child has no helper thread, so it starts its own."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _helper_pool():
    """The helper: a one-worker thread pool, started on first use."""
    global _helper
    with _helper_lock:
        if _helper is None:
            # imported here, so that neither the package import nor a run
            # that never crosses the gate loads it
            from concurrent.futures import ThreadPoolExecutor
            _helper = ThreadPoolExecutor(1, thread_name_prefix="nehari-helper",
                                         initializer=_mark_helper)
        return _helper


def _both(f, args0, args1, nodes: int):
    """``(f(*args0), f(*args1))``: the first call on the helper thread when
    ``_threaded(nodes)``, else both in turn on the calling thread.

    The two calls must not write to the same memory.  The helper runs in a
    copy of the caller's context, so numpy's error state is the caller's.
    When both calls raise, the first call's exception propagates, as it
    would in turn.
    """
    if not _threaded(nodes):
        return f(*args0), f(*args1)
    future = _helper_pool().submit(contextvars.copy_context().run, f, *args0)
    try:
        second = f(*args1)
    except BaseException:
        future.result()   # raises the first call's exception, if it had one
        raise
    return future.result(), second


def _pair_inner(domain, a: np.ndarray, b: np.ndarray):
    """L2 inner products of pair arrays, row by row, by plain sums: the metric
    reduction inside the program (descent residual and slopes, orbit realizer).

    It stays on one thread at every size: a product and a sum per component
    do not pay for handing a half over (on the 256^2 torus the component
    sums took 113-119 us on one thread and 156-167 us on two)."""
    prod = a * b
    sums = np.sum(prod, axis=tuple(range(2, prod.ndim)))
    return (sums[..., 0] + sums[..., 1]) * domain.cell_volume


def _neighbor_sum(a: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """Sum of the two axis neighbors, with zero ghosts on Dirichlet domains.

    On tori the lower neighbor comes first, as in ``roll(a, 1) + roll(a, -1)``,
    with the two wrap edges written separately instead of rolled copies.
    """
    def at(index):
        key = [slice(None)] * a.ndim
        key[axis] = index
        return tuple(key)

    if periodic:
        out = np.empty_like(a)
        np.add(a[at(slice(None, -2))], a[at(slice(2, None))], out=out[at(slice(1, -1))])
        np.add(a[at(slice(-1, None))], a[at(slice(1, 2))], out=out[at(slice(0, 1))])
        np.add(a[at(slice(-2, -1))], a[at(slice(0, 1))], out=out[at(slice(-1, None))])
        return out
    out = np.zeros_like(a)
    out[at(slice(None, -1))] += a[at(slice(1, None))]
    out[at(slice(1, None))] += a[at(slice(None, -1))]
    return out


def _trailing_axes(a: np.ndarray, domain: DomainSpec) -> tuple[int, ...]:
    """The grid axes of ``a``: its last ``domain.dimension`` axes."""
    return tuple(range(a.ndim - domain.dimension, a.ndim))


def _laplacian_values(a: np.ndarray, domain: DomainSpec) -> np.ndarray:
    """``-lap_h a`` on the trailing grid axes of ``a`` (leading axes are rows).

    Per axis the neighbour sum is the only new array: ``2 a`` is formed once,
    and the subtraction, the division by ``h^2`` and the accumulation run in
    place.  The first term gets ``+ 0.0`` so that signed zeros come out as
    from a zero-initialized sum.
    """
    two_a = 2.0 * a
    out = None
    for axis, h in zip(_trailing_axes(a, domain), domain.spacing):
        term = _neighbor_sum(a, axis, domain.periodic)
        np.subtract(two_a, term, out=term)
        term /= h ** 2
        if out is None:
            out = term
            out += 0.0
        else:
            out += term
    return out


def laplacian_apply(f: GridFunction) -> GridFunction:
    """Apply the negative discrete Laplacian ``-lap_h`` to ``f``.

    Three/five/seven-point stencil in 1/2/3 dimensions; ghost values are
    zero on Dirichlet domains and indices wrap on periodic ones.
    """
    return GridFunction(f.domain, _laplacian_values(f.values, f.domain))


def _potential_values(V, domain: DomainSpec) -> np.ndarray:
    if isinstance(V, GridFunction):
        if V.domain != domain:
            raise ValueError("potential lives on a different domain")
        return V.values
    return np.full(domain.shape, float(V))


def _schrodinger_values(a: np.ndarray, V: np.ndarray, domain: DomainSpec) -> np.ndarray:
    """``-lap_h a + V a``: the one route every Schrodinger operator goes through.
    ``V`` broadcasts against ``a``; ``V a`` is added in place."""
    out = _laplacian_values(a, domain)
    out += V * a
    return out


def schrodinger_apply(f: GridFunction, V) -> GridFunction:
    """Apply ``-lap_h + V`` to ``f`` (``V`` a grid function or a scalar)."""
    Va = _potential_values(V, f.domain)
    return GridFunction(f.domain, _schrodinger_values(f.values, Va, f.domain))


def _forward_difference(a: np.ndarray, axis: int, domain: DomainSpec) -> np.ndarray:
    """``D+ a`` along one axis, with the boundary intervals on Dirichlet domains."""
    if domain.periodic:
        out = np.empty_like(a)
        b, o = a.swapaxes(0, axis), out.swapaxes(0, axis)
        np.subtract(b[1:], b[:-1], out=o[:-1])
        o[-1] = b[0] - b[-1]
        return out
    return np.diff(a, axis=axis, prepend=0.0, append=0.0)


def _gradient_energy(a: np.ndarray, domain: DomainSpec):
    """``sum |D+ a|^2 h^N`` with the boundary intervals included on Dirichlet domains.

    Reduces over the trailing grid axes, one value per leading index.
    """
    vol = domain.cell_volume
    axes = _trailing_axes(a, domain)
    total = 0.0
    for axis, h in zip(axes, domain.spacing):
        d = _forward_difference(a, axis, domain)
        d *= d
        total += np.sum(d, axis=axes) * vol / (h * h)
        del d   # one difference array at a time
    return total


def h_norm_sq(f: GridFunction, V) -> float:
    """``||f||_V^2 = <(-lap_h + V) f, f>_h = sum |D+ f|^2 h^N + sum V f^2 h^N``
    for a nonnegative ``V`` (negative entries are rejected)."""
    if np.any(_potential_values(V, f.domain) < 0):
        raise ValueError("potential must be nonnegative")
    return h_inner(f, f, V)


def h_inner(f: GridFunction, g: GridFunction, V) -> float:
    """``<(-lap_h + V) f, g>_h`` summed in sorted order: bitwise invariant
    under periodic shifts, symmetric in ``f`` and ``g`` to roundoff."""
    d = _require_same_domain(f, g)
    Va = _potential_values(V, d)
    return _csum(_schrodinger_values(f.values, Va, d) * g.values) * d.cell_volume


def l2_inner(f: GridFunction, g: GridFunction) -> float:
    d = _require_same_domain(f, g)
    return _csum(f.values * g.values) * d.cell_volume


def l2_norm_sq(f: GridFunction) -> float:
    return l2_inner(f, f)


def lp_norm(f: GridFunction, p: float) -> float:
    """``(sum |f|^p h^N)^(1/p)`` for ``p >= 1``."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return (_csum(np.abs(f.values) ** p) * f.domain.cell_volume) ** (1.0 / p)


def shift(f: GridFunction, z) -> GridFunction:
    """Translate a periodic field by the integer vector ``z`` (in unit cells).

    The shift is an exact circular permutation of node values, hence
    invertible and norm-preserving bit for bit.
    """
    d = f.domain
    if not d.periodic:
        raise ValueError("shift requires a periodic domain")
    z = np.atleast_1d(np.asarray(z, dtype=int))
    if z.size != d.dimension:
        raise ValueError("shift vector must have one entry per axis")
    return GridFunction(d, _roll_cells(f.values, z, d))


def _roll_cells(a: np.ndarray, z, domain: DomainSpec) -> np.ndarray:
    """``a`` translated on its trailing grid axes by the cell shift ``z``, as a
    new array: ``z[i]`` cells of ``domain.points_per_cell[i]`` nodes along grid
    axis ``i``.  This is the one cell translation of the library.  On a box
    the cell group is trivial and ``z == ()`` copies."""
    nodes = tuple(int(zi) * m for zi, m in zip(z, domain.points_per_cell)) if len(z) else ()
    return np.roll(a, nodes, axis=_trailing_axes(a, domain)[:len(nodes)])


def _orbit_realization(domain: DomainSpec, S: np.ndarray, applied_S: np.ndarray,
                       known: np.ndarray, applied: np.ndarray, steps: tuple[int, ...],
                       swap: bool = False):
    """Block-norm distances of every row of ``S`` from the orbit of every row
    of ``known`` (pair arrays ``(rows, 2, *shape)`` and ``(orbits, 2, *shape)``),
    given the block operator applied to each: ``applied_S = (-lap+V) S`` and
    ``applied = (-lap+V) known``.

    The orbit of ``s_k`` is its images ``+- g tau_z s_k`` under the sign flip,
    the node shifts ``z`` by multiples of ``steps`` (one step per grid axis;
    ``()`` on a box) and, when ``swap``, the component swap ``g``.  The
    operator must commute with each of them (V1, V2 and lambda invariant,
    V1 = V2 for the swap), so that ``(-lap+V) g tau_z s_k = g tau_z applied_k``.
    The realized pairing maximizes ``|<(-lap+V) g tau_z s_k, s_i>|``, and the
    distance is ``sqrt(||s_i||^2 + ||s_k||^2 - 2 |pairing|)``.

    With more than one shift, every shift's pairing comes from one real-FFT
    cross-correlation per pair of rows (one more with the swap).  The shifts
    whose correlation lies within ``1e-10 |applied_k|_2 |s_i|_2`` of the
    largest modulus (far above the transforms' roundoff) are paired again
    directly, by ``_pair_inner`` on the rolled array, and the largest
    modulus wins, the first in ``np.ndindex`` order (the swap after every
    plain shift) among equal ones: the result of a loop over every shift
    that keeps the first strictly larger modulus, bit for bit, so copies
    and sign flips come out at exactly 0.  With one shift (a box) the direct
    pairings alone decide, and no transform runs.

    Returns ``(rows, orbits)`` arrays of the distance, the signed realized
    pairing and the realizing shift in steps (one more trailing axis), and
    the squared block norms ``<(-lap+V) s, s>`` of the rows and of ``known``.
    """
    n1 = _pair_inner(domain, applied_S, S)
    n2 = _pair_inner(domain, applied, known)
    images = (applied, applied[:, ::-1]) if swap else (applied,)
    ip = np.zeros((len(S), len(known)))
    shift = np.zeros(ip.shape + (len(steps),), dtype=int)
    counts = tuple(n // step for n, step in zip(domain.shape, steps))
    if np.prod(counts) == 1:
        for image in images:
            for k in range(len(known)):
                value = _pair_inner(domain, image[k], S)
                better = np.abs(value) > np.abs(ip[:, k])
                ip[better, k] = value[better]
    else:
        axes = _trailing_axes(S, domain)
        FS = rfftn(S, axes=axes)[:, None]
        FA = np.conj(rfftn(applied, axes=axes))
        # (image component, row component) products of the plain and the swapped image
        pairs = ((0, 0), (1, 1)), ((1, 0), (0, 1))
        every = (slice(None),) * 2 + tuple(slice(None, None, step) for step in steps)
        corr = np.stack([
            irfftn(FA[:, a] * FS[:, :, b] + FA[:, c] * FS[:, :, d], s=domain.shape,
                   axes=axes)[every]
            for (a, b), (c, d) in pairs[:len(images)]]) * domain.cell_volume
        slack = 1e-10 * domain.cell_volume * np.outer(
            np.sqrt(np.sum(S * S, axis=tuple(range(1, S.ndim)))),
            np.sqrt(np.sum(applied * applied, axis=tuple(range(1, applied.ndim)))))
        for i, k in np.ndindex(ip.shape):
            size = np.abs(corr[:, i, k])
            for g, *z in np.argwhere(size >= size.max() - slack[i, k]):
                nodes = tuple(zi * step for zi, step in zip(z, steps))
                rolled = np.roll(images[g][k:k + 1], nodes, axis=axes)
                value = _pair_inner(domain, rolled, S[i:i + 1])[0]
                if abs(value) > abs(ip[i, k]):
                    ip[i, k], shift[i, k] = value, z
    return np.sqrt(np.maximum(n1[:, None] + n2 - 2.0 * np.abs(ip), 0.0)), ip, shift, n1, n2


def _ball_offsets(domain: DomainSpec, r: float) -> list[tuple[int, ...]]:
    h = domain.spacing
    ranges = [np.arange(-int(np.floor(r / h[a])), int(np.floor(r / h[a])) + 1)
              for a in range(domain.dimension)]
    mesh = np.meshgrid(*ranges, indexing="ij")
    dist2 = sum((m * hi) ** 2 for m, hi in zip(mesh, h))
    mask = dist2 <= r * r + 1e-12 * r * r
    return [tuple(int(m[idx]) for m in mesh) for idx in zip(*np.nonzero(mask))]


def _add_rolled(out: np.ndarray, a: np.ndarray, offset) -> None:
    """``out += np.roll(a, -offset)``: add ``a`` read at ``index + offset``,
    wrapping periodically, block by block instead of through a rolled copy."""
    pairs = []
    for o, n in zip(offset, a.shape):
        k = o % n
        pairs.append([(slice(None), slice(None))] if k == 0 else
                     [(slice(0, n - k), slice(k, n)), (slice(n - k, n), slice(0, k))])
    for blocks in itertools.product(*pairs):
        out[tuple(dst for dst, _ in blocks)] += a[tuple(src for _, src in blocks)]


def local_mass_sup(u: GridFunction, v: GridFunction, r: float) -> tuple[float, tuple[int, ...]]:
    """Largest mass ``sum_{|x-y|<=r} (u^2+v^2) h^N`` over ball centers ``y``.

    Ball membership is by node centers in the periodic Euclidean distance.
    Returns the maximum and an attaining center (node multi-index).  Centers
    whose computed masses are equal resolve toward the densest node, then
    first in row-major order.  The rule acts on computed masses: where the
    ball wraps a whole period every center carries the same mass in exact
    arithmetic, but the computed masses differ by rounding, so the center
    reported there follows the summation order, not the tie rule.

    The ball is scanned separably: for each offset along the leading axes
    its row along the last axis is a symmetric interval of half-width ``k``,
    whose sums ``H_k = H_{k-1} + w(.+k) + w(.-k)`` grow in place, and each
    row adds one shifted ``H_k``.  Every node sums in the same
    order, so the result field is exactly equivariant under grid translations.
    """
    d = _require_same_domain(u, v)
    if not d.periodic:
        raise ValueError("local_mass_sup requires a periodic domain")
    if r <= 0:
        raise ValueError("radius must be positive")
    if r > min(d.lengths) / 2:
        raise ValueError("radius exceeds half the torus period")
    w = u.values * u.values + v.values * v.values
    half_width: dict[tuple[int, ...], int] = {}
    for off in _ball_offsets(d, r):
        half_width[off[:-1]] = max(half_width.get(off[:-1], 0), abs(off[-1]))
    rows = sorted(half_width.items(), key=lambda row: row[1])
    mass = np.zeros_like(w)
    interval = w.copy()
    no_lead = (0,) * (d.dimension - 1)
    k = 0
    for lead, k_row in rows:
        while k < k_row:
            k += 1
            _add_rolled(interval, w, no_lead + (k,))
            _add_rolled(interval, w, no_lead + (-k,))
        _add_rolled(mass, interval, lead + (0,))
    # ties (e.g. a single spike with r >= h) resolve toward the densest node,
    # then first in row-major order; both rules are shift-equivariant
    peak = mass == mass.max()
    flat_candidates = np.flatnonzero(peak.ravel())
    best = flat_candidates[int(np.argmax(w.ravel()[flat_candidates]))]
    center = tuple(int(i) for i in np.unravel_index(int(best), d.shape))
    return float(mass[center] * d.cell_volume), center


# ---------------------------------------------------------------------------
# text records and the grid file format
# ---------------------------------------------------------------------------


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return "[" + ", ".join(map(_format_value, value)) + "]"
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _format_record(pairs) -> str:
    """``name = value`` lines with the names padded to the longest; floats
    print as ``.17g``, tuples as ``[a, b]``, everything else with ``str``."""
    pairs = list(pairs)
    width = max(len(name) for name, _ in pairs)
    return "".join(f"{name:<{width}} = {_format_value(value)}\n" for name, value in pairs)


# grid files: one ASCII header line, then little-endian float64, row-major

_MAGIC = "nehari-grid v1"
_HEADER_KEYS = ("dim", "kind", "shape", "lengths")
_FILE_KINDS = {"dirichlet": "dirichlet_box", "periodic": "periodic_torus"}


def _format_length(l: float, periodic: bool) -> str:
    if periodic:
        return str(int(l))
    return format(l, ".17g")


def save_grid_function(f: GridFunction, path) -> None:
    """Write ``f`` in the nehari-grid v1 format (header line + raw floats)."""
    d = f.domain
    kind = "periodic" if d.periodic else "dirichlet"
    header = (
        f"{_MAGIC}; dim={d.dimension}; kind={kind}; "
        f"shape={','.join(str(n) for n in d.shape)}; "
        f"lengths={','.join(_format_length(l, d.periodic) for l in d.lengths)}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_grid_function(path) -> GridFunction:
    """Read a nehari-grid v1 file; a header field that is unknown, duplicated
    or missing, or a payload of the wrong length, raises ``ValueError``."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        raw = fh.read()
    fields = [part.strip() for part in header.split(";")]
    if fields[0] != _MAGIC:
        raise ValueError(f"not a nehari-grid file: header starts with {fields[0]!r}")
    meta = {}
    for key, _, value in (part.partition("=") for part in fields[1:]):
        if key not in _HEADER_KEYS or key in meta:
            raise ValueError(f"{'duplicated' if key in meta else 'unknown'} header field {key!r}")
        meta[key] = value
    for key in _HEADER_KEYS:
        if key not in meta:
            raise ValueError(f"missing header field {key!r}")
    if meta["kind"] not in _FILE_KINDS:
        raise ValueError(f"unknown domain kind {meta['kind']!r}")
    shape = tuple(int(s) for s in meta["shape"].split(","))
    lengths = tuple(float(s) for s in meta["lengths"].split(","))
    domain = DomainSpec(int(meta["dim"]), _FILE_KINDS[meta["kind"]], shape, lengths)
    if len(raw) != 8 * domain.size:
        raise ValueError(f"payload holds {len(raw)} bytes, shape {shape} needs {8 * domain.size}")
    values = np.frombuffer(raw, dtype="<f8").reshape(shape)
    return GridFunction(domain, values)


def grid_function_to_csv(f: GridFunction) -> str:
    """CSV export: one row per node with index coordinates, positions and value.

    Written one leading-axis slab at a time.  The index and position strings
    of every axis are formatted once into a row template for the slab's
    trailing axes, which leaves only the leading index, its position and the
    values to fill in: two ``%``-formats per slab (``%.17g`` of a float is
    ``format(x, ".17g")``).
    """
    d = f.domain
    dim = d.dimension
    idx = [[str(i) for i in range(n)] for n in d.shape]
    pos = [[format(x, ".17g") for x in d.axis_coordinates(a)] for a in range(dim)]
    header = [f"i{a + 1}" for a in range(dim)] + [f"x{a + 1}" for a in range(dim)]
    rows = []
    for t in np.ndindex(d.shape[1:]):
        ii = ["%(i)s"] + [idx[a][k] for a, k in enumerate(t, start=1)]
        xx = ["%(x)s"] + [pos[a][k] for a, k in enumerate(t, start=1)]
        rows.append(",".join(ii + xx + ["%%.17g\n"]))
    template = "".join(rows)
    parts = [",".join(header + ["value"]) + "\n"]
    for i, slab in enumerate(f.values.reshape(d.shape[0], -1)):
        parts.append(template % {"i": idx[0][i], "x": pos[0][i]} % tuple(slab.tolist()))
    return "".join(parts)
