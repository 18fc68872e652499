"""Exact low-dimensional solvers for the smoothed-loss PDEs.

Four routes to the smoothed loss u(x, t) of a 1D/2D objective f:

* ``solve_viscous_hj_cole_hopf`` -- u = -(1/b) log(G_{t/b} * exp(-b f)),
  the log-transformed heat solution: per axis, exp once per sample of each
  line shifted by its maximum, heat's window sums, log once per centre; a
  pass with a window centre 700 or more below its line's maximum in the
  exponent, where that window's sum could underflow, combines each window
  by log-sum-exp instead.  Solves u_t = -|grad u|^2/2 + (1/(2b)) Lap u.
* ``solve_hj_hopf_lax`` -- the zero-viscosity limit: the inf-convolution
  u(x,t) = min_y { f(y) + |x-y|^2/(2t) }, the exact minimum over the grid
  nodes within the reachability radius; extrapolating boundaries only, as
  for the finite differences.
* ``solve_hj_monotone_fd`` -- explicit upwind (Godunov) finite differences
  for the same equation, any viscosity including zero, stepped on the face
  differences u_{i+1} - u_i of each axis; the two end faces copy their
  neighbours, the linear extrapolation of u past the box.
* ``solve_heat`` -- plain Gaussian blurring v = G_{t/b} * f for contrast.

The three quadrature routes are one computation.  ``_sample_padded`` samples
f in one call on the grid, refined ``ceil(3h/sigma)``-fold per axis so the
kernel is resolved (not for Hopf-Lax), and padded by K nodes per side:
extended past the box, or wrapped around the n-1 unique nodes when the
boundary is periodic, in 1D and 2D alike.  Cole-Hopf and Hopf-Lax first
evaluate f on the grid nodes, whose range sets their reach.
``_windows`` sizes the windows and refuses, before f is sampled, work
beyond a fixed budget of samples and window terms.  Each solver then loops
over its axes and hands ``_reduce_axis`` one plain block op per pass, which
reduces every (2K+1)-sample window along that axis: the minimum (lower
envelope) for Hopf-Lax, the dot with the normalized Gaussian for heat, and
for Cole-Hopf the dot with the unnormalized Gaussian on its own shifted
exponentials (or a log-sum-exp per window).

Plus one reflected-diffusion generator ``_Generator``: the rate matrix G of
dX = -b dt + sqrt(beta_inv) dW on the grid nodes, upwinded per face, with
reflecting walls like the path simulator's, held as its 2 dim + 1 diagonals
in numpy.  Its transpose steps densities forward (``evolve_fokker_planck``);
G itself steps the Cole-Hopf transform phi = exp(-beta (w - min w)) of the
backward HJB value function backward (``solve_hjb_backward``, used by the
control experiments), so the control solve is linear.  Also the 1D proximal
map ``prox_point``, which minimizes f(y) + |x-y|^2/(2t) with the corpus
scanner of ``objectives`` (``_scan_minima_1d`` and ``_polish_minimum``).
The independent oracle for the derivative of the Hopf-Lax solution, the
characteristic fixed point of Burgers' equation, lives with the tests
(``tests/oracles.py``).

The three explicit solvers (upwind, Fokker-Planck, backward HJB) share one
step count, ``_time_steps``, which refuses, before any step, a solve of
more than 2^30 node-steps (steps times grid nodes).  The upwind and backward
solvers, which evaluate f on the grid themselves, first refuse a grid of
more than the quadrature's 2^23 samples (``_grid_points``).

All solvers are pure functions of their inputs and run single-threaded.
scipy is imported only where it is used: by the log-sum-exp fallback here,
and by the minima polish in ``objectives``, which ``prox_point`` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import GridFunction, mesh, multilinear
from .objectives import Objective, _polish_minimum, _scan_minima_1d

Array = np.ndarray

SCHEMES = ("cole_hopf", "hopf_lax", "monotone_fd", "heat")
BOUNDARIES = ("extrapolating", "periodic")
PAD_SIGMAS = 8.0   # kernel standard deviations a quadrature window reaches: mass beyond is below ~1e-10
CFL_SAFETY = 0.8   # an explicit step's share of its stability limit, unless dt is given
_MAX_NODE_STEPS = 1 << 30   # steps x grid nodes of one explicit solve (upwind, Fokker-Planck, backward HJB)


@dataclass
class PdeSolveConfig:
    beta_inv: float
    t_final: float
    dt: float | None = None
    scheme: str = "cole_hopf"
    boundary: str = "extrapolating"
    cfl_safety = CFL_SAFETY     # a class attribute, not a field: no solve sets its own

    def __post_init__(self):
        if self.beta_inv < 0:
            raise ValueError("beta_inv must be >= 0")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {self.boundary!r}; expected one of {BOUNDARIES}")
        if self.dt is not None:
            _check_dt(self.dt)
            if self.scheme != "monotone_fd":
                raise ValueError(f"dt={self.dt:g}: the quadrature scheme {self.scheme!r} takes no time steps; "
                                 "dt applies to monotone_fd only")
        if self.boundary == "periodic" and self.scheme == "monotone_fd":
            raise ValueError("the upwind scheme supports extrapolating boundaries only")
        hopf_lax = self.scheme == "hopf_lax" or self.scheme == "cole_hopf" and self.beta_inv == 0
        if self.boundary == "periodic" and hopf_lax:
            raise ValueError("the Hopf-Lax inf-convolution (cole_hopf at beta_inv=0) supports extrapolating boundaries only")


def _check_dt(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt={dt:g}: an explicit time step must be positive and finite")


class CflError(ValueError):
    """Time step violates the monotone stability restriction."""


class NanAbort(RuntimeError):
    """A solver produced NaN values."""


# ---------------------------------------------------------------------------
# separable quadrature: one padded sample, one window reduction per axis

_CHUNK = 1 << 20  # samples per reduced block, bounding the temporaries
# the work budget of one quadrature: samples in the padded sample, each about
# 8 (2 dim + 2) bytes across the coordinates, f and its transform (0.4 GiB at
# the limit in 2D), and window terms, windows * (2K + 1) summed over the axis
# passes (a few seconds on the linear path, a minute through log-sum-exp)
_MAX_SAMPLES = 1 << 23
_MAX_TERMS = 1 << 30
_EXP_RANGE = 700.0  # exp(-x) is a normal double for x below about 708


def _refinement(grid: GridFunction, sigma: float) -> list[int]:
    """Per-axis refinement r = ceil(3h/sigma): quadrature nodes at most sigma/3
    apart resolve the kernel even when it is narrower than the grid.  A
    refinement past the sample budget, which ``_windows`` refuses, is capped
    there, so a sigma that underflows to 0 is refused too."""
    return [max(1, math.ceil(3.0 * h / sigma)) if 3.0 * h < _MAX_SAMPLES * sigma else _MAX_SAMPLES
            for h in grid.spacing]


def _windows(grid: GridFunction, r, radius: float, periodic: bool, beta_inv: float, t: float) -> list[int]:
    """Half-widths K[d] of the windows reaching ``radius`` on each axis
    refined r[d]-fold, checked against the work budget before f is sampled:
    a ValueError names the inputs that set the work."""
    K = [int(math.ceil(radius / (h / rd))) for h, rd in zip(grid.spacing, r)]
    sizes = [(n - 1) * rd + (not periodic) + 2 * k for n, k, rd in zip(grid.n_points, K, r)]
    centres = [n - periodic for n in grid.n_points]
    samples = math.prod(sizes)
    terms = sum(math.prod(centres[: d + 1]) * math.prod(sizes[d + 1 :]) * (2 * k + 1) for d, k in enumerate(K))
    if samples > _MAX_SAMPLES or terms > _MAX_TERMS:
        # refined nodes (r > 1) mean a kernel narrower than the grid resolves,
        # and a coarser grid only refines more
        remedy = ("use scheme 'hopf_lax', the zero-viscosity limit" if max(r) > 1
                  else "lower grid_n or t")
        raise ValueError(
            f"quadrature at beta_inv={beta_inv:g}, t={t:g}, grid_n={max(grid.n_points)} needs {samples:,} "
            f"samples (about {samples * 8 * (2 * grid.dim + 2) / 2**20:,.0f} MiB) and {terms:.3g} window "
            f"terms (refinement {r}, half-widths {K}), over the budget of {_MAX_SAMPLES:,} samples and "
            f"{_MAX_TERMS:.3g} terms; {remedy}")
    return K


def _search_radius(nodes: Array, t: float) -> float:
    """|x - y*|^2 <= 2 t (max f - min f) for f's values on the grid nodes."""
    return math.sqrt(max(2.0 * t * float(nodes.max() - nodes.min()), 0.0))


def _sample_padded(objective: Objective, grid: GridFunction, K, r, periodic: bool) -> Array:
    """f on the grid refined r[d]-fold and padded by K[d] nodes per side of
    each axis d, in one ``value_batch`` call: extended past the box, or
    wrapped around the n - 1 unique nodes when the boundary is periodic (the
    last node repeats the first).  The mesh is dropped before f is evaluated."""
    axes = []
    for lo, h, n, k, rd in zip(grid.lower, grid.spacing, grid.n_points, K, r):
        hq = h / rd
        if periodic:
            axes.append(lo + hq * np.arange((n - 1) * rd))
        else:
            axes.append(lo - k * hq + hq * np.arange((n - 1) * rd + 1 + 2 * k))
    F = objective.value_batch(mesh(axes)).reshape([len(a) for a in axes])
    return np.pad(F, [(k, k) for k in K], mode="wrap") if periodic else F


def _reduce_axis(F: Array, axis: int, k: int, rd: int, block) -> Array:
    """Reduce every window of 2k+1 samples along ``axis`` whose centres are
    rd apart by ``block``, which maps windows (..., 2k+1) to (...); it runs
    on blocks of at most _CHUNK samples, which bounds the temporaries."""
    win = sliding_window_view(np.moveaxis(F, axis, -1), 2 * k + 1, axis=-1)[..., ::rd, :]
    out = np.empty(win.shape[:-1])
    c = max(1, _CHUNK // win[..., 0, :].size)
    for s in range(0, out.shape[-1], c):
        out[..., s : s + c] = block(win[..., s : s + c, :])
    return np.moveaxis(out, -1, axis)


def logsumexp(a: Array, axis: int) -> Array:
    """scipy's log-sum-exp, imported on the first call: only the wide-line
    fallback of ``solve_viscous_hj_cole_hopf`` needs it."""
    from scipy.special import logsumexp

    return logsumexp(a, axis=axis)


def _on_grid(grid: GridFunction, U: Array, boundary: str) -> GridFunction:
    if boundary == "periodic":  # append each axis' end node, a copy of its first
        U = np.pad(U, [(0, 1)] * U.ndim, mode="wrap")
    return grid.with_values(U)


def solve_viscous_hj_cole_hopf(objective: Objective, cfg: PdeSolveConfig, grid: GridFunction) -> GridFunction:
    """Smoothed loss via the log-transformed heat kernel.

    The quadrature nodes are the grid's, refined per axis until they are at
    most sigma/3 apart.  They extend the evaluation box far enough that the
    Gaussian mass ignored outside it is below ~1e-10 (``PAD_SIGMAS``
    standard deviations), plus the reach of a distant low value of f.

    Each axis pass computes log sum_j exp(F[i + j] + log_k[j]) on the lines
    of F = -beta f in linear space: every line is shifted by its maximum and
    exponentiated once per sample, the windows are heat's dot against the
    unnormalized kernel exp(log_k) (its log-normalization is added once, at
    the end), and the sums are logged and shifted back.  Every window holds
    its centre with weight 1, so no sum underflows while every centre is
    less than 700 (``_EXP_RANGE``) below its line's maximum; a sample more
    than 745 below it flushes to zero and loses less than e^-45 of its
    window's centre term.  A pass with a centre further down log-sum-exps
    every window instead, so beta * range(f) over the box far beyond 700
    stays safe.  The work is checked against the budget before f is
    evaluated at all, and again once f on the grid nodes sets the reach.
    """
    if cfg.beta_inv == 0.0:
        return solve_hj_hopf_lax(objective, cfg.t_final, grid)
    beta = 1.0 / cfg.beta_inv
    t = cfg.t_final
    periodic = cfg.boundary == "periodic"
    sigma = math.sqrt(cfg.beta_inv * t)
    r = _refinement(grid, sigma)
    _windows(grid, r, PAD_SIGMAS * sigma, periodic, cfg.beta_inv, t)
    nodes = objective.value_batch(grid.points())
    K = _windows(grid, r, PAD_SIGMAS * sigma + _search_radius(nodes, t), periodic, cfg.beta_inv, t)
    F = -beta * _sample_padded(objective, grid, K, r, periodic)
    log_norm = 0.0
    for axis, (h, k, rd) in enumerate(zip(grid.spacing / r, K, r)):
        log_k = -beta * (h * np.arange(-k, k + 1)) ** 2 / (2.0 * t)
        log_norm += math.log(h) - 0.5 * math.log(2.0 * math.pi * sigma * sigma)
        lines = np.moveaxis(F, axis, -1)
        top = lines.max(axis=-1, keepdims=True)
        if float((top - lines[..., k : -k or None : rd].min(axis=-1, keepdims=True)).max()) < _EXP_RANGE:
            w = np.exp(log_k)
            lines = np.log(_reduce_axis(np.exp(lines - top), -1, k, rd, lambda win: win @ w)) + top
        else:
            lines = _reduce_axis(lines, -1, k, rd, lambda win: logsumexp(win + log_k, axis=-1))
        F = np.moveaxis(lines, -1, axis)
    return _on_grid(grid, -(F + log_norm) / beta, cfg.boundary)


# ---------------------------------------------------------------------------
# Hopf-Lax inf-convolution


def solve_hj_hopf_lax(objective: Objective, t: float, grid: GridFunction) -> GridFunction:
    """Exact grid inf-convolution of f with the quadratic |x-y|^2/(2t).

    Each axis takes the lower envelope of the parabolas centred on the search
    nodes within the reachability radius, which also pads the box, so
    minimizers slightly outside it are not missed.  The work is checked
    against the budget before f is evaluated, and again once f on the grid
    nodes sets the reach.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    r = [1] * grid.dim
    _windows(grid, r, 0.0, False, 0.0, t)
    K = _windows(grid, r, _search_radius(objective.value_batch(grid.points()), t), False, 0.0, t)
    inv2t = 1.0 / (2.0 * t)
    F = _sample_padded(objective, grid, K, r, False)
    for axis, (h, k) in enumerate(zip(grid.spacing, K)):
        offs = h * np.arange(-k, k + 1)
        # the centre's 0 stays 0 where t is so small that 1 / (2t) overflows
        q = np.multiply(offs * offs, inv2t, out=np.zeros(2 * k + 1), where=offs != 0)
        F = _reduce_axis(F, axis, k, 1, lambda win: (win + q).min(axis=-1))
    return grid.with_values(F)


# ---------------------------------------------------------------------------
# proximal map


@dataclass
class ProxResult:
    y: Array
    value: float
    grad_u: Array          # (x - y*) / t
    non_unique: bool


class _ProxObjective(Objective):
    """h(y) = f(y) + |y - x|^2 / (2t), the objective ``prox_point`` minimizes."""

    dim = 1

    def __init__(self, f: Objective, x: Array, t: float):
        self.f, self.x, self.t = f, x, t

    def value_batch(self, Y):
        return self.f.value_batch(Y) + ((Y - self.x) ** 2).sum(axis=1) / (2.0 * self.t)

    def grad_batch(self, Y):
        return self.f.grad_batch(Y) + (Y - self.x) / self.t


def prox_point(objective: Objective, x, t: float) -> ProxResult:
    """argmin_y { f(y) + |x-y|^2/(2t) } of a 1D objective: the lowest of the
    polished local minima of h(y) = f(y) + |x-y|^2/(2t) on a scan of the box
    widened to hold x (x +- R without a box), and of h polished from x, which
    reaches a minimizer beyond the scan.  The result is flagged non-unique
    when two of these minimizers farther apart than 1e-4 have values within
    1e-10 of each other.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if objective.dim != 1:
        raise ValueError(f"prox_point supports 1D objectives only, got dim={objective.dim}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h = _ProxObjective(objective, x, t)
    if hasattr(objective, "box"):
        lo = min(objective.box[0], x[0] - 0.5)
        hi = max(objective.box[1], x[0] + 0.5)
    else:
        R = math.sqrt(2.0 * t * max(1.0, abs(objective.value(x)) + 1.0)) + 1.0
        lo, hi = x[0] - R, x[0] + R
    y0 = _polish_minimum(h, x)
    minima = sorted(_scan_minima_1d(h, lo, hi) + [(y0, h.value(y0))], key=lambda m: m[1])
    best_y, best_v = minima[0]
    non_unique = any(np.linalg.norm(y - best_y) > 1e-4 and abs(v - best_v) < 1e-10 for y, v in minima[1:])
    return ProxResult(y=best_y, value=best_v, grad_u=(x - best_y) / t, non_unique=non_unique)


# ---------------------------------------------------------------------------
# monotone finite differences


def cfl_limit(u0: Array, spacing: Array, beta_inv: float) -> float:
    """Largest dt allowed by the monotone restriction
    dt <= h^2 / (d (beta_inv + h max|grad u|))."""
    h = float(spacing.min())
    d = u0.ndim
    G = max(float(np.abs(np.diff(u0, axis=axis)).max()) / spacing[axis] for axis in range(d))
    return h * h / (d * (beta_inv + h * G) + 1e-300)


def _time_steps(t: float, dt: float | None, safety: float, limit: float, shape: tuple[int, ...],
                beta_inv: float) -> tuple[int, float]:
    """(n, t / n): the fewest equal explicit steps no longer than dt, or than
    safety * limit when dt is None.  A limit that is not finite and positive,
    or an explicit dt above it, raises CflError; a dt that is not positive and
    finite, or n steps of a grid of ``shape`` over the node-step budget, a
    ValueError."""
    if dt is not None:
        _check_dt(dt)
    if not (math.isfinite(limit) and limit > 0.0):
        raise CflError(f"the stability limit {limit:g} is not finite and positive: "
                       "the input values or drifts are not finite")
    if dt is None:
        dt = safety * limit
    elif dt > limit * (1.0 + 1e-12):
        raise CflError(f"dt={dt:g} exceeds the stability limit {limit:g}")
    n = max(1, int(math.ceil(t / dt)))
    nodes = math.prod(shape)
    if n * nodes > _MAX_NODE_STEPS:
        raise ValueError(
            f"explicit stepping at beta_inv={beta_inv:g}, t={t:g}, grid_n={max(shape)} needs {n:,} steps of "
            f"{nodes:,} nodes, {n * nodes:.3g} node-steps, over the budget of {_MAX_NODE_STEPS:.3g}; "
            "lower grid_n or t")
    return n, t / n


def _grid_points(grid: GridFunction) -> Array:
    """The grid's nodes, for a grid of at most ``_MAX_SAMPLES`` nodes, the
    quadrature's sample budget; a larger grid raises a ValueError naming
    grid_n before any node is built or f evaluated."""
    nodes = math.prod(grid.n_points)
    if nodes > _MAX_SAMPLES:
        raise ValueError(f"grid_n={max(grid.n_points)} has {nodes:,} nodes, over the budget of "
                         f"{_MAX_SAMPLES:,} samples; lower grid_n")
    return grid.points()


def solve_hj_monotone_fd(objective: Objective, cfg: PdeSolveConfig, grid: GridFunction) -> GridFunction:
    """Explicit upwind scheme for u_t = -|grad u|^2/2 + (beta_inv/2) Lap u.

    Each step works on the face differences D_{i+1/2} = u_{i+1} - u_i of
    every axis, held in an (n+1)-face buffer: the gradient term is the
    Godunov flux max(D_{i-1/2}, 0)^2 + min(D_{i+1/2}, 0)^2, the Laplacian
    D_{i+1/2} - D_{i-1/2}, each scaled by one constant per axis
    (-dt/(2h^2) and beta_inv dt/(2h^2)), and u takes one update, the sum of
    every axis's terms.  The two end faces copy their neighbours, which is
    linear extrapolation: a ghost value 2 u_0 - u_1 would give u_0 - (2 u_0 -
    u_1) = u_1 - u_0.  Zero viscosity is allowed.  The time step is
    validated against the monotone restriction, and the step count against
    the node-step budget, before stepping, and the grid against the sample
    budget before f is evaluated; NaNs abort with a diagnostic.  The values
    f returns are copied, never stepped.
    """
    u = np.array(objective.value_batch(_grid_points(grid)), dtype=float).reshape(grid.n_points)
    h = grid.spacing
    n_steps, dt = _time_steps(cfg.t_final, cfg.dt, cfg.cfl_safety, cfl_limit(u, h, cfg.beta_inv),
                              u.shape, cfg.beta_inv)

    change, pos, neg = (np.empty_like(u) for _ in range(3))
    axes = []   # per axis: the views each step reads and writes, made once
    for axis, n in enumerate(u.shape):
        def at(i, axis=axis):
            return (slice(None),) * axis + (i,)

        faces = np.empty(u.shape[:axis] + (n + 1,) + u.shape[axis + 1:])
        scale = 0.5 * dt / h[axis] ** 2
        axes.append((u[at(slice(1, None))], u[at(slice(None, -1))], faces[at(slice(1, -1))],
                     faces[at(slice(None, None, n))], faces[at(slice(1, n, n - 2))],  # faces 0, n and 1, n-1
                     faces[at(slice(None, -1))], faces[at(slice(1, None))], -scale, cfg.beta_inv * scale))

    for step in range(n_steps):
        for axis, (ahead, behind, inner, ends, beside, below, above, c_ham, c_lap) in enumerate(axes):
            np.subtract(ahead, behind, out=inner)
            np.copyto(ends, beside)
            np.maximum(below, 0.0, out=pos)
            np.square(pos, out=pos)
            np.minimum(above, 0.0, out=neg)
            np.square(neg, out=neg)
            np.add(pos, neg, out=pos)
            np.multiply(pos, c_ham, out=pos)
            np.subtract(above, below, out=neg)
            np.multiply(neg, c_lap, out=neg)
            if axis:
                change += pos
                change += neg
            else:
                np.add(pos, neg, out=change)
        u += change
        if step % 64 == 0 and not np.isfinite(u).all():
            raise NanAbort(f"NaN at step {step} (t={step * dt:g})")
    if not np.isfinite(u).all():
        raise NanAbort("NaN in final solution")
    return grid.with_values(u)


# ---------------------------------------------------------------------------
# heat smoothing


def solve_heat(objective: Objective, cfg: PdeSolveConfig, grid: GridFunction) -> GridFunction:
    """Gaussian smoothing v(., t) = G_{beta_inv * t} * f by direct quadrature.

    Kernel weights are symmetric and normalized to sum to one per axis, so
    affine functions are reproduced exactly.  With the periodic boundary the
    convolution wraps on the n-1 unique nodes of each axis (the last node
    must duplicate the first).
    """
    if cfg.beta_inv <= 0:
        raise ValueError("heat smoothing needs beta_inv > 0")
    sigma2 = cfg.beta_inv * cfg.t_final
    sigma = math.sqrt(sigma2)
    periodic = cfg.boundary == "periodic"
    r = _refinement(grid, sigma)
    K = _windows(grid, r, PAD_SIGMAS * sigma, periodic, cfg.beta_inv, cfg.t_final)
    F = _sample_padded(objective, grid, K, r, periodic)
    for axis, (h, k, rd) in enumerate(zip(grid.spacing / r, K, r)):
        w = np.exp(-((h * np.arange(-k, k + 1)) ** 2) / (2.0 * sigma2))
        w = w / w.sum()
        F = _reduce_axis(F, axis, k, rd, lambda win: win @ w)
    return _on_grid(grid, F, cfg.boundary)


# ---------------------------------------------------------------------------
# one reflected-diffusion generator: Fokker-Planck (G^T), backward HJB (G)


class _Generator:
    """Generator G of dX = -b dt + sqrt(beta_inv) dW on the grid nodes, any
    dimension, reflected at the walls (no rate leaves the box).

    ``drifts`` holds b's component along each axis on the grid.  Across each
    face, with the face drift b_f the mean of its two nodes and
    D = beta_inv / 2, node i jumps to i+1 at rate (D/h - min(b_f, 0))/h and
    i+1 to i at rate (D/h + max(b_f, 0))/h; each diagonal entry is minus its
    row's sum.  G^T rho is the zero-flux upwind finite-volume divergence, and
    an explicit step no longer than ``fp_cfl_limit`` is a convex combination
    in either direction.

    G is held as its 2 dim + 1 diagonals on the flattened nodes: for each
    offset k in ascending order, the coefficients of v[i + k], zero where
    that neighbour lies across a wall.  ``matvec`` (G v) and ``rmatvec``
    (G^T v) sum each node's products from zero in ascending column order
    (``np.add.reduce`` over the offsets from an initial 0.0), and the
    diagonal adds each row's rates in ascending column order by
    ``np.add.reduceat``: the arithmetic, and so the bytes, of a scipy CSR
    matrix built from the same rates.  ``evolve`` takes n explicit steps
    v += step * (G v), or of G^T v, inside the padded buffer the products
    read, with the arithmetic of ``v + step * G.matvec(v)``, and copies
    nothing per step.  The products share scratch buffers, so one instance
    serves one solve at a time.
    """

    def __init__(self, drifts: list[Array], spacing: Array, beta_inv: float):
        shape = drifts[0].shape
        size = math.prod(shape)
        D = 0.5 * beta_inv
        neighbours = {}   # offset k: (rates from i to i + k, whether i + k is a neighbour)
        for axis, (b, h) in enumerate(zip(drifts, spacing)):
            ba = np.moveaxis(b, axis, 0)
            bf = 0.5 * (ba[:-1] + ba[1:])
            stride = math.prod(shape[axis + 1 :])
            for offset, faces, rate in ((-stride, slice(1, None), (D / h + np.maximum(bf, 0.0)) / h),
                                        (stride, slice(None, -1), (D / h - np.minimum(bf, 0.0)) / h)):
                rates, present = np.zeros(shape), np.zeros(shape, dtype=bool)
                np.moveaxis(rates, axis, 0)[faces] = rate
                np.moveaxis(present, axis, 0)[faces] = True
                neighbours[offset] = rates.ravel(), present.ravel()
        columns = sorted(neighbours)    # a CSR row's order
        rates = np.column_stack([neighbours[k][0] for k in columns])
        present = np.column_stack([neighbours[k][1] for k in columns])
        starts = np.concatenate(([0], np.cumsum(present.sum(axis=1))[:-1]))
        self.diagonal = -np.add.reduceat(rates[present], starts)

        by_offset = {0: self.diagonal, **{k: r for k, (r, _) in neighbours.items()}}
        offsets = sorted(by_offset)
        self._rows = np.stack([by_offset[k] for k in offsets])   # G[i, i + k]
        self._cols = np.zeros_like(self._rows)                    # G[i + k, i]
        for j, k in enumerate(offsets):
            self._cols[j, max(0, -k) : size - max(0, k)] = by_offset[-k][max(0, k) : size + min(0, k)]
        pad = offsets[-1]
        self._padded = np.zeros(size + 2 * pad)    # v, then zeros beyond either end
        self._v = self._padded[pad : pad + size]
        shifted = sliding_window_view(self._padded, size)   # shifted[pad + k][i] is v[i + k]
        # one multiply per run of consecutive offsets (all three in 1D), then one sum
        breaks = [j for j in range(1, len(offsets)) if offsets[j] > offsets[j - 1] + 1]
        self._runs = [(slice(a, b), shifted[pad + offsets[a] : pad + offsets[b - 1] + 1])
                      for a, b in zip([0, *breaks], [*breaks, len(offsets)])]
        self._products = np.empty_like(self._rows)
        self._increment = np.empty(size)

    def _product(self, coefs: Array, out: Array | None = None) -> Array:
        """G v (``_rows``) or G^T v (``_cols``) of the buffered v."""
        for run, shifted in self._runs:
            np.multiply(coefs[run], shifted, out=self._products[run])
        return np.add.reduce(self._products, axis=0, initial=0.0, out=out)

    def matvec(self, v: Array) -> Array:
        """G v."""
        self._v[...] = v
        return self._product(self._rows)

    def rmatvec(self, v: Array) -> Array:
        """G^T v."""
        self._v[...] = v
        return self._product(self._cols)

    def evolve(self, v: Array, step: float, n: int, transpose: bool = False) -> Array:
        """v after n steps v += step * (G v), or (G^T v) with ``transpose``.
        Returns the buffer's view of the iterate, which the next call takes
        back as ``v`` without a copy; any other call overwrites it."""
        if v is not self._v:
            self._v[...] = v
        coefs = self._cols if transpose else self._rows
        for _ in range(n):
            self._v += np.multiply(self._product(coefs, self._increment), step, out=self._increment)
        return self._v


def fp_cfl_limit(drifts: list[Array], spacing: Array, beta_inv: float) -> float:
    total = 0.0
    for axis, b in enumerate(drifts):
        total += beta_inv / spacing[axis] ** 2 + float(np.abs(b).max()) / spacing[axis]
    return 1.0 / (total + 1e-300)


def evolve_fokker_planck(drift, rho0: GridFunction, beta_inv: float, t_final: float,
                         dt: float | None = None, cfl_safety: float = CFL_SAFETY) -> GridFunction:
    """Conservative upwind evolution of
    rho_t = div(drift * rho) + (beta_inv/2) Lap rho on a closed box.

    ``drift`` is a GridFunction on the same geometry as ``rho0`` (a sequence
    of two for 2D).  Each step is rho += dt * G^T rho with the reflecting
    generator ``_Generator``, stepped in place: the walls carry zero flux, so
    the plain sum of rho is conserved up to roundoff, and the scheme is
    positivity-preserving under ``fp_cfl_limit``; it aborts if the density
    dips below -1e-12 or turns NaN.  A negative or NaN ``beta_inv`` is
    refused by name.
    """
    if t_final < 0:
        raise ValueError("t_final must be >= 0")
    if not beta_inv >= 0:       # a NaN too; a negative one would run anti-diffusion
        raise ValueError(f"beta_inv={beta_inv:g}: the diffusion must be >= 0")
    if not rho0.is_density(tol=1e-6):
        raise ValueError("rho0 must be a normalized non-negative density")
    drifts = [drift] if isinstance(drift, GridFunction) else list(drift)
    if len(drifts) != rho0.dim:
        raise ValueError("need one drift component per axis")
    for d in drifts:
        if d.n_points != rho0.n_points:
            raise ValueError("drift and density must share the grid")
    b = [d.array for d in drifts]
    n_steps, step = _time_steps(t_final, dt, cfl_safety, fp_cfl_limit(b, rho0.spacing, beta_inv),
                                 rho0.n_points, beta_inv)
    G = _Generator(b, rho0.spacing, beta_inv)
    rho, done = rho0.values, 0
    for it in range(0, n_steps, 32):    # checked after steps 1, 33, 65, ...
        rho, done = G.evolve(rho, step, it + 1 - done, transpose=True), it + 1
        m = float(rho.min())
        if m < -1e-12:
            raise NanAbort(f"density went negative ({m:g}) at step {it}")
        if not np.isfinite(rho).all():
            raise NanAbort(f"NaN density at step {it}")
    rho = G.evolve(rho, step, n_steps - done, transpose=True)
    if float(rho.min()) < -1e-12:
        raise NanAbort(f"density went negative ({float(rho.min()):g}) at final step")
    return rho0.with_values(rho.copy())


@dataclass
class ControlField:
    """Time-indexed gradient field alpha(x, s) = grad u(x, s), s in [0, T]."""

    grid: GridFunction
    times: Array                 # ascending s values
    gradients: Array             # (n_times, *n_points, dim)

    def alpha(self, x: Array, s: float) -> Array:
        """Vectorized evaluation at path points x (N, dim) and one time s."""
        x = np.atleast_2d(x)
        ts = self.times
        j = min(max(int(np.searchsorted(ts, s)) - 1, 0), len(ts) - 2)
        th = (s - ts[j]) / (ts[j + 1] - ts[j])
        th = min(max(th, 0.0), 1.0)
        G = (1.0 - th) * self.gradients[j] + th * self.gradients[j + 1]
        return multilinear(G, self.grid.lower, self.grid.spacing, x)


HJB_MAX_SLICES = 1024   # time slices of grad u kept by solve_hjb_backward, at most


def solve_hjb_backward(objective: Objective, T: float, beta_inv: float, grid: GridFunction) -> ControlField:
    """Backward value function for drift-controlled descent.

    In reversed time tau = T - s the value function solves
        w_tau + grad f . grad w + |grad w|^2 / 2 = (beta_inv/2) Lap w
    from w(., 0) = V, the objective itself.  The Cole-Hopf transform
    w = -beta_inv log phi makes it the linear backward Kolmogorov equation
    phi_tau = G phi, with G the reflecting generator of dX = -grad f dt +
    sqrt(beta_inv) dW (``_Generator``), whose walls match the reflecting
    path simulator.  Explicit steps under ``fp_cfl_limit`` keep phi inside
    [min phi_0, 1] for phi_0 = exp(-(V - min V) / beta_inv), so nothing
    underflows after the first exp, which needs beta * (max V - min V) <= 700
    (``_EXP_RANGE``) on the grid; beyond that, or for beta_inv <= 0, a
    ValueError is raised, as it is, before f is evaluated, for a grid of more
    than ``_MAX_SAMPLES`` nodes.
    Returns the gradient field grad u(x, s) ready for path simulation, on at
    most ``HJB_MAX_SLICES`` time slices.
    """
    if beta_inv <= 0:
        raise ValueError(f"the log transform needs beta_inv > 0, got beta_inv={beta_inv:g}")
    pts = _grid_points(grid)
    V = objective.value_batch(pts).reshape(grid.n_points)
    spread = float(V.max() - V.min()) / beta_inv
    if spread > _EXP_RANGE:
        raise ValueError(f"exp(-(V - min V) / beta_inv) underflows: range(V) / beta_inv = {spread:.4g} "
                         f"> {_EXP_RANGE:g} on the grid; raise beta_inv={beta_inv:g}")
    spacing = grid.spacing
    bfield = objective.grad_batch(pts).reshape(*grid.n_points, grid.dim)
    drifts = [bfield[..., axis] for axis in range(grid.dim)]
    n_steps, step = _time_steps(T, None, CFL_SAFETY, fp_cfl_limit(drifts, spacing, beta_inv),
                                grid.n_points, beta_inv)
    G = _Generator(drifts, spacing, beta_inv)
    keep_every = max(1, int(math.ceil((n_steps + 1) / HJB_MAX_SLICES)))
    kept = sorted({*range(0, n_steps + 1, keep_every), n_steps})
    # slices ascend in forward time s = T - tau: tau = 0 fills the last one
    gradients = np.empty((len(kept), *grid.n_points, grid.dim))
    phi = np.exp(-(V - V.min()).ravel() / beta_inv)
    done = 0
    for slot, it in enumerate(kept, start=1):
        phi, done = G.evolve(phi, step, it - done), it
        if not np.isfinite(phi).all():
            raise NanAbort(f"NaN in value function at reversed step {it}")
        w = (-beta_inv * np.log(phi)).reshape(grid.n_points)
        for axis in range(grid.dim):
            gradients[-slot, ..., axis] = np.gradient(w, spacing[axis], axis=axis, edge_order=2)
    return ControlField(grid=grid, times=T - step * np.array(kept[::-1]), gradients=gradients)


def solve_pde(objective: Objective, cfg: PdeSolveConfig, grid: GridFunction) -> GridFunction:
    """Dispatch on cfg.scheme; the CLI entry point for one-shot solves."""
    if cfg.scheme == "cole_hopf":
        return solve_viscous_hj_cole_hopf(objective, cfg, grid)
    if cfg.scheme == "hopf_lax":
        return solve_hj_hopf_lax(objective, cfg.t_final, grid)
    if cfg.scheme == "monotone_fd":
        return solve_hj_monotone_fd(objective, cfg, grid)
    if cfg.scheme == "heat":
        return solve_heat(objective, cfg, grid)
    raise ValueError(f"unknown scheme {cfg.scheme!r}")
