"""Exact low-dimensional solvers for the smoothed-loss PDEs.

Four routes to the smoothed loss u(x, t) of a 1D/2D objective f:

* ``solve_viscous_hj_cole_hopf`` -- u = -(1/b) log(G_{t/b} * exp(-b f)),
  the log-transformed heat solution: per axis, exp once per sample of each
  line shifted by its maximum, heat's window sums, log once per centre; a
  pass whose lines span 700 or more in the exponent, where a sum could
  underflow, combines each window by log-sum-exp instead.  Solves
  u_t = -|grad u|^2/2 + (1/(2b)) Lap u.
* ``solve_hj_hopf_lax`` -- the zero-viscosity limit: the inf-convolution
  u(x,t) = min_y { f(y) + |x-y|^2/(2t) }, the exact minimum over the grid
  nodes within the reachability radius.
* ``solve_hj_monotone_fd`` -- explicit upwind (Godunov) finite differences
  for the same equation, any viscosity including zero.
* ``solve_heat`` -- plain Gaussian blurring v = G_{t/b} * f for contrast.

The three quadrature routes are one computation.  ``_sample_padded`` samples
f once on the grid, refined ``ceil(3h/sigma)``-fold per axis so the kernel is
resolved (not for Hopf-Lax), and padded by K nodes per side: extended past
the box, or wrapped around the n-1 unique nodes when the boundary is
periodic, in 1D and 2D alike; f on the grid nodes, which sets the reach of
Cole-Hopf and Hopf-Lax, is evaluated once and reused by every sample that
falls on a node.
``_windows`` sizes the windows and refuses, before f is sampled, work
beyond a fixed budget of samples and window terms.  ``_reduce_windows`` then
reduces every (2K+1)-sample window along each axis in turn: a dot product
with the Gaussian for Cole-Hopf (in linear space) and heat (normalized), the
minimum (lower envelope) for Hopf-Lax.

Plus one reflected-diffusion generator ``_generator``: the sparse rate
matrix G of dX = -b dt + sqrt(beta_inv) dW on the grid nodes, upwinded per
face, with reflecting walls like the path simulator's.  Its transpose steps
densities forward (``evolve_fokker_planck``); G itself steps the Cole-Hopf
transform phi = exp(-beta (w - min w)) of the backward HJB value function
backward (``solve_hjb_backward``, used by the control experiments), so the
control solve is linear.  Also the proximal map ``prox_point`` and small
diagnostics (characteristic fixed points, shock time, convexity intervals).

All solvers are pure functions of their inputs and run single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import logsumexp

from .grid import GridFunction, multilinear
from .objectives import Objective

Array = np.ndarray

SCHEMES = ("cole_hopf", "hopf_lax", "monotone_fd", "heat")
BOUNDARIES = ("extrapolating", "periodic")


@dataclass
class PdeSolveConfig:
    beta_inv: float
    t_final: float
    dt: float | None = None
    scheme: str = "cole_hopf"
    boundary: str = "extrapolating"
    pad_sigmas: float = 8.0
    cfl_safety: float = 0.8

    def __post_init__(self):
        if self.beta_inv < 0:
            raise ValueError("beta_inv must be >= 0")
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {self.boundary!r}; expected one of {BOUNDARIES}")


class CflError(ValueError):
    """Time step violates the monotone stability restriction."""


class NanAbort(RuntimeError):
    """A solver produced NaN values."""


def _pad_points(h: float, radius: float) -> int:
    return int(math.ceil(max(radius, 0.0) / h))


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
    apart resolve the kernel even when it is narrower than the grid."""
    return [max(1, math.ceil(3.0 * h / sigma)) for h in grid.spacing]


def _windows(grid: GridFunction, r, radius: float, periodic: bool, beta_inv: float, t: float,
             least: int = 2) -> list[int]:
    """Half-widths K[d] >= least of the windows reaching ``radius`` on each
    axis refined r[d]-fold, checked against the work budget before f is
    sampled: a ValueError names the inputs that set the work."""
    K = [max(least, _pad_points(h / rd, radius)) for h, rd in zip(grid.spacing, r)]
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


def _sample_padded(objective: Objective, grid: GridFunction, K, r, periodic: bool,
                   nodes: Array | None = None) -> Array:
    """f once on the grid refined r[d]-fold and padded by K[d] nodes per side
    of each axis d: extended past the box, or wrapped around the n - 1 unique
    nodes when the boundary is periodic (the last node repeats the first).

    ``nodes``, f on ``grid.points()``, supplies the samples that fall on a
    grid node to the last bit (all of them when the spacing is dyadic), so f
    is evaluated once per unique point; every other sample is evaluated at
    the same coordinates as without it."""
    axes, on_node, node_index = [], [], []
    for lo, h, n, k, rd, xs in zip(grid.lower, grid.spacing, grid.n_points, K, r, grid.axes()):
        hq = h / rd
        if periodic:
            n -= 1
            axis, first = lo + hq * np.arange(n * rd), 0
        else:
            axis, first = lo - k * hq + hq * np.arange((n - 1) * rd + 1 + 2 * k), k
        same = np.flatnonzero(axis[first : first + n * rd : rd] == xs[:n])
        axes.append(axis)
        on_node.append(first + rd * same)
        node_index.append(same)
    mesh = np.meshgrid(*axes, indexing="ij")
    F = np.empty(mesh[0].shape)
    todo = np.ones(F.shape, dtype=bool)
    if nodes is not None:
        F[np.ix_(*on_node)] = nodes.reshape(grid.n_points)[np.ix_(*node_index)]
        todo[np.ix_(*on_node)] = False
    F[todo] = objective.value_batch(np.column_stack([m[todo] for m in mesh]))
    return np.pad(F, [(k, k) for k in K], mode="wrap") if periodic else F


def _reduce_windows(F: Array, K, r, ops) -> Array:
    """Along each axis d in turn, reduce every window of 2K[d]+1 samples whose
    centres are r[d] apart.  ops[d] maps the lines along the axis, shape
    (..., samples), to (samples to window, block op mapping (..., 2K+1) to
    (...), map of the reduced lines); the block op runs on blocks of at most
    _CHUNK samples, which bounds the temporaries."""
    for axis, (k, rd, op) in enumerate(zip(K, r, ops)):
        samples, block, finish = op(np.moveaxis(F, axis, -1))
        win = sliding_window_view(samples, 2 * k + 1, axis=-1)[..., ::rd, :]
        out = np.empty(win.shape[:-1])
        c = max(1, _CHUNK // win[..., 0, :].size)
        for s in range(0, out.shape[-1], c):
            out[..., s : s + c] = block(win[..., s : s + c, :])
        F = np.moveaxis(finish(out), -1, axis)
    return F


def _as_sampled(block):
    """An axis pass that windows the samples as they are."""
    return lambda lines: (lines, block, lambda out: out)


def _log_window_sums(lines: Array, log_k: Array):
    """Cole-Hopf's axis pass, log sum_j exp(F[i + j] + log_k[j]) on lines F,
    in linear space: each line is shifted by its maximum and exponentiated
    once per sample, the windows are heat's dot against exp(log_k), and the
    sums are logged and shifted back.  A window's centre term is at least
    exp(-range(line)), so no sum underflows while every line's range is below
    _EXP_RANGE; a pass with a wider line log-sum-exps each window instead."""
    top = lines.max(axis=-1, keepdims=True)
    if float((top - lines.min(axis=-1, keepdims=True)).max()) < _EXP_RANGE:
        samples = np.exp(lines - top)
        return samples, lambda win, w=np.exp(log_k): win @ w, lambda out: np.log(out) + top
    return lines, lambda win: logsumexp(win + log_k, axis=-1), lambda out: out


def _on_grid(grid: GridFunction, U: Array, boundary: str) -> GridFunction:
    if boundary == "periodic":  # append each axis' end node, a copy of its first
        U = np.pad(U, [(0, 1)] * U.ndim, mode="wrap")
    return grid.with_values(U)


def solve_viscous_hj_cole_hopf(objective: Objective, cfg: PdeSolveConfig, grid: GridFunction) -> GridFunction:
    """Smoothed loss via the log-transformed heat kernel.

    The quadrature nodes are the grid's, refined per axis until they are at
    most sigma/3 apart.  They extend the evaluation box far enough that the
    Gaussian mass ignored outside it is below ~1e-10 (``cfg.pad_sigmas``
    standard deviations), plus the reach of a distant low value of f.  Each
    axis pass is linear (``_log_window_sums``): with every line shifted by
    its maximum, exp once per sample, heat's window sum, log once per centre.
    A pass whose lines span 700 or more in the exponent log-sum-exps every
    window instead, so beta * range(f) far beyond 700 stays safe.  The work
    is checked against the budget before f is evaluated at all, and again
    once f on the grid nodes sets the reach.
    """
    if cfg.beta_inv == 0.0:
        return solve_hj_hopf_lax(objective, cfg.t_final, grid)
    beta = 1.0 / cfg.beta_inv
    t = cfg.t_final
    periodic = cfg.boundary == "periodic"
    sigma = math.sqrt(cfg.beta_inv * t)
    r = _refinement(grid, sigma)
    _windows(grid, r, cfg.pad_sigmas * sigma, periodic, cfg.beta_inv, t)
    nodes = objective.value_batch(grid.points())
    K = _windows(grid, r, cfg.pad_sigmas * sigma + _search_radius(nodes, t), periodic, cfg.beta_inv, t)
    ops, log_norm = [], 0.0
    for h, k in zip(grid.spacing / r, K):
        offs = h * np.arange(-k, k + 1)
        ops.append(lambda lines, log_k=-beta * offs**2 / (2.0 * t): _log_window_sums(lines, log_k))
        log_norm += math.log(h) - 0.5 * math.log(2.0 * math.pi * sigma * sigma)
    F = -beta * _sample_padded(objective, grid, K, r, periodic, nodes)
    return _on_grid(grid, -(_reduce_windows(F, K, r, ops) + log_norm) / beta, cfg.boundary)


# ---------------------------------------------------------------------------
# Hopf-Lax inf-convolution


def hopf_lax_search_radius(objective: Objective, grid: GridFunction, t: float) -> float:
    """Radius beyond the box that can still host a minimizer of the
    inf-convolution: |x - y*|^2 <= 2 t (max f - min f) on the box."""
    return _search_radius(objective.value_batch(grid.points()), t)


def solve_hj_hopf_lax(objective: Objective, t: float, grid: GridFunction) -> GridFunction:
    """Exact grid inf-convolution of f with the quadratic |x-y|^2/(2t).

    Each axis takes the lower envelope of the parabolas centred on the search
    nodes within the reachability radius, which also pads the box, so
    minimizers slightly outside it are not missed.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    nodes = objective.value_batch(grid.points())
    r = [1] * grid.dim
    K = _windows(grid, r, _search_radius(nodes, t), False, 0.0, t, least=0)
    inv2t = 1.0 / (2.0 * t)
    ops = []
    for h, k in zip(grid.spacing, K):
        offs = h * np.arange(-k, k + 1)
        ops.append(_as_sampled(lambda w, q=offs * offs * inv2t: (w + q).min(axis=-1)))
    F = _sample_padded(objective, grid, K, r, False, nodes)
    return grid.with_values(_reduce_windows(F, K, r, ops))


# ---------------------------------------------------------------------------
# proximal map


@dataclass
class ProxResult:
    y: Array
    value: float
    grad_u: Array          # (x - y*) / t
    grad_f_at_y: Array
    non_unique: bool

    @property
    def consistency_gap(self) -> float:
        return float(np.linalg.norm(self.grad_u - self.grad_f_at_y))


def prox_point(objective: Objective, x, t: float, scan_box=None, n_scan: int = 801,
               n_starts: int = 4) -> ProxResult:
    """argmin_y { f(y) + |x-y|^2/(2t) } by multi-start descent.

    In one or two dimensions the starts come from a grid scan of the
    objective, so distant competing minimizers are found; in higher
    dimensions descent starts from x.  The result is flagged non-unique when
    two polished minimizers farther apart than 1e-4 have objective values
    within 1e-10 of each other.
    """
    from scipy.optimize import minimize

    if t <= 0:
        raise ValueError("t must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = objective.dim

    def h_val(y):
        return objective.value(y) + float(((x - y) ** 2).sum()) / (2.0 * t)

    def h_grad(y):
        return objective.grad(y) + (y - x) / t

    starts: list[Array]
    if dim <= 2:
        if scan_box is None:
            if hasattr(objective, "box"):
                lo = np.minimum(np.full(dim, objective.box[0]), x - 0.5)
                hi = np.maximum(np.full(dim, objective.box[1]), x + 0.5)
            else:
                f_here = objective.value(x)
                R = math.sqrt(2.0 * t * max(1.0, abs(f_here) + 1.0)) + 1.0
                lo, hi = x - R, x + R
        else:
            lo = np.atleast_1d(np.asarray(scan_box[0], dtype=float))
            hi = np.atleast_1d(np.asarray(scan_box[1], dtype=float))
        if dim == 1:
            ys = np.linspace(lo[0], hi[0], n_scan)[:, None]
        else:
            side = int(math.sqrt(n_scan)) + 1
            a0 = np.linspace(lo[0], hi[0], side)
            a1 = np.linspace(lo[1], hi[1], side)
            g0, g1 = np.meshgrid(a0, a1, indexing="ij")
            ys = np.column_stack([g0.ravel(), g1.ravel()])
        hv = objective.value_batch(ys) + ((x - ys) ** 2).sum(axis=1) / (2.0 * t)
        order = np.argsort(hv)
        starts = [ys[i] for i in order[: 3 * n_starts]]
        # keep starts that are mutually distant so symmetric minimizers survive
        kept: list[Array] = []
        min_sep = 0.05 * float(np.max(hi - lo))
        for s in starts:
            if all(np.linalg.norm(s - kk) > min_sep for kk in kept):
                kept.append(s)
            if len(kept) == n_starts:
                break
        starts = kept + [x]
    else:
        starts = [x]

    polished = []
    for s in starts:
        res = minimize(h_val, s, jac=h_grad, method="L-BFGS-B",
                       options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 500})
        polished.append((np.atleast_1d(res.x), float(res.fun)))
    polished.sort(key=lambda p: p[1])
    best_y, best_v = polished[0]
    non_unique = any(
        np.linalg.norm(y - best_y) > 1e-4 and abs(v - best_v) < 1e-10
        for y, v in polished[1:]
    )
    return ProxResult(
        y=best_y,
        value=best_v,
        grad_u=(x - best_y) / t,
        grad_f_at_y=objective.grad(best_y),
        non_unique=non_unique,
    )


# ---------------------------------------------------------------------------
# monotone finite differences


def _godunov_differences(u: Array, spacing: Array) -> list[tuple[Array, Array, Array]]:
    """Per axis, from one linear-extrapolation ghost cell per side: the
    backward and forward differences (u_i - u_{i-1})/h and (u_{i+1} - u_i)/h,
    and the undivided second difference u_{i+1} - 2 u_i + u_{i-1}."""
    up = np.zeros(tuple(n + 2 for n in u.shape))  # no stencil reads the corners
    inner = slice(1, -1)
    up[(inner,) * u.ndim] = u
    terms = []
    for axis in range(u.ndim):
        def at(i, rest):
            return tuple(i if d == axis else rest for d in range(u.ndim))

        up[at(0, inner)] = 2.0 * u[at(0, slice(None))] - u[at(1, slice(None))]
        up[at(-1, inner)] = 2.0 * u[at(-1, slice(None))] - u[at(-2, slice(None))]
        um, uc, upl = up[at(slice(0, -2), inner)], up[at(inner, inner)], up[at(slice(2, None), inner)]
        terms.append(((uc - um) / spacing[axis], (upl - uc) / spacing[axis], upl - 2.0 * uc + um))
    return terms


def cfl_limit(u0: Array, spacing: Array, beta_inv: float) -> float:
    """Largest dt allowed by the monotone restriction
    dt <= h^2 / (d (beta_inv + h max|grad u|))."""
    h = float(spacing.min())
    d = u0.ndim
    G = max(float(np.abs(np.diff(u0, axis=axis)).max()) / spacing[axis] for axis in range(d))
    return h * h / (d * (beta_inv + h * G) + 1e-300)


def _time_steps(t: float, dt: float | None, safety: float, limit: float) -> tuple[int, float]:
    """(n, t / n): the fewest equal explicit steps no longer than dt, or than
    safety * limit when dt is None.  An explicit dt above the stability
    limit raises CflError."""
    if dt is None:
        dt = safety * limit
    elif dt > limit * (1.0 + 1e-12):
        raise CflError(f"dt={dt:g} exceeds the stability limit {limit:g}")
    n = max(1, int(math.ceil(t / dt)))
    return n, t / n


def solve_hj_monotone_fd(objective_or_u0, cfg: PdeSolveConfig, grid: GridFunction) -> GridFunction:
    """Explicit upwind scheme for u_t = -|grad u|^2/2 + (beta_inv/2) Lap u.

    The gradient term uses the Godunov flux (one-sided differences picked by
    sign), the Laplacian a centered stencil, and the boundary linear
    extrapolation ghost cells.  Zero viscosity is allowed.  The time step is
    validated against the monotone restriction before stepping and NaNs abort
    with a diagnostic.
    """
    if cfg.boundary != "extrapolating":
        raise NotImplementedError("the upwind scheme supports extrapolating boundaries only")
    if isinstance(objective_or_u0, GridFunction):
        u = objective_or_u0.array.copy()
    else:
        u = objective_or_u0.value_batch(grid.points()).reshape(grid.n_points)
    h = grid.spacing
    n_steps, dt = _time_steps(cfg.t_final, cfg.dt, cfg.cfl_safety, cfl_limit(u, h, cfg.beta_inv))

    for step in range(n_steps):
        ham = np.zeros_like(u)
        lap = np.zeros_like(u)
        for axis, (dminus, dplus, d2) in enumerate(_godunov_differences(u, h)):
            ham += 0.5 * (np.maximum(dminus, 0.0) ** 2 + np.minimum(dplus, 0.0) ** 2)
            lap += d2 / h[axis] ** 2
        u = u + dt * (-ham + 0.5 * cfg.beta_inv * lap)
        if step % 64 == 0 and not np.isfinite(u).all():
            raise NanAbort(f"NaN at step {step} (t={step * dt:g})")
    if not np.isfinite(u).all():
        raise NanAbort("NaN in final solution")
    return grid.with_values(u.ravel())


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
    K = _windows(grid, r, cfg.pad_sigmas * sigma, periodic, cfg.beta_inv, cfg.t_final)
    ops = []
    for h, k in zip(grid.spacing / r, K):
        w = np.exp(-((h * np.arange(-k, k + 1)) ** 2) / (2.0 * sigma2))
        ops.append(_as_sampled(lambda win, w=w / w.sum(): win @ w))
    F = _sample_padded(objective, grid, K, r, periodic)
    return _on_grid(grid, _reduce_windows(F, K, r, ops), cfg.boundary)


# ---------------------------------------------------------------------------
# one reflected-diffusion generator: Fokker-Planck (G^T), backward HJB (G)


def _generator(drifts: list[Array], spacing: Array, beta_inv: float):
    """Sparse generator G of dX = -b dt + sqrt(beta_inv) dW on the grid nodes,
    any dimension, reflected at the walls (no rate leaves the box).

    ``drifts`` holds b's component along each axis on the grid.  Across each
    face, with the face drift b_f the mean of its two nodes and
    D = beta_inv / 2, node i jumps to i+1 at rate (D/h - min(b_f, 0))/h and
    i+1 to i at rate (D/h + max(b_f, 0))/h; each diagonal entry is minus its
    row's sum.  G^T rho is the zero-flux upwind finite-volume divergence, and
    an explicit step no longer than ``fp_cfl_limit`` is a convex combination
    in either direction.
    """
    from scipy import sparse

    shape = drifts[0].shape
    size = math.prod(shape)
    idx = np.arange(size).reshape(shape)
    D = 0.5 * beta_inv
    rows, cols, rates = [], [], []
    for axis, (b, h) in enumerate(zip(drifts, spacing)):
        ia = np.moveaxis(idx, axis, 0)
        ba = np.moveaxis(b, axis, 0)
        bf = (0.5 * (ba[:-1] + ba[1:])).ravel()
        left, right = ia[:-1].ravel(), ia[1:].ravel()
        rows += [left, right]
        cols += [right, left]
        rates += [(D / h - np.minimum(bf, 0.0)) / h, (D / h + np.maximum(bf, 0.0)) / h]
    jumps = sparse.csr_matrix((np.concatenate(rates), (np.concatenate(rows), np.concatenate(cols))),
                              shape=(size, size))
    return (jumps - sparse.diags(np.asarray(jumps.sum(axis=1)).ravel())).tocsr()


def fp_cfl_limit(drifts: list[Array], spacing: Array, beta_inv: float) -> float:
    total = 0.0
    for axis, b in enumerate(drifts):
        total += beta_inv / spacing[axis] ** 2 + float(np.abs(b).max()) / spacing[axis]
    return 1.0 / (total + 1e-300)


def evolve_fokker_planck(drift, rho0: GridFunction, beta_inv: float, t_final: float,
                         dt: float | None = None, cfl_safety: float = 0.8) -> GridFunction:
    """Conservative upwind evolution of
    rho_t = div(drift * rho) + (beta_inv/2) Lap rho on a closed box.

    ``drift`` is a GridFunction on the same geometry as ``rho0`` (a sequence
    of two for 2D).  Each step is rho += dt * G^T rho with the reflecting
    generator of ``_generator``: the walls carry zero flux, so the plain sum
    of rho is conserved up to roundoff, and the scheme is
    positivity-preserving under ``fp_cfl_limit``; it aborts if the density
    dips below -1e-12 or turns NaN.
    """
    if t_final < 0:
        raise ValueError("t_final must be >= 0")
    if not rho0.is_density(tol=1e-6):
        raise ValueError("rho0 must be a normalized non-negative density")
    drifts = [drift] if isinstance(drift, GridFunction) else list(drift)
    if len(drifts) != rho0.dim:
        raise ValueError("need one drift component per axis")
    for d in drifts:
        if d.n_points != rho0.n_points:
            raise ValueError("drift and density must share the grid")
    b = [d.array for d in drifts]
    n_steps, step = _time_steps(t_final, dt, cfl_safety, fp_cfl_limit(b, rho0.spacing, beta_inv))
    Gt = _generator(b, rho0.spacing, beta_inv).T
    rho = rho0.values.copy()
    for it in range(n_steps):
        rho += step * (Gt @ rho)
        if it % 32 == 0:
            m = float(rho.min())
            if m < -1e-12:
                raise NanAbort(f"density went negative ({m:g}) at step {it}")
            if not np.isfinite(rho).all():
                raise NanAbort(f"NaN density at step {it}")
    if float(rho.min()) < -1e-12:
        raise NanAbort(f"density went negative ({float(rho.min()):g}) at final step")
    return rho0.with_values(rho)


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
        j = int(np.clip(np.searchsorted(ts, s) - 1, 0, len(ts) - 2))
        th = (s - ts[j]) / (ts[j + 1] - ts[j])
        th = min(max(th, 0.0), 1.0)
        G = (1.0 - th) * self.gradients[j] + th * self.gradients[j + 1]
        return multilinear(G, self.grid.lower, self.grid.spacing, x)


def solve_hjb_backward(objective: Objective, terminal_fn, T: float, beta_inv: float,
                       grid: GridFunction, dt: float | None = None,
                       max_slices: int = 1024) -> ControlField:
    """Backward value function for drift-controlled descent.

    In reversed time tau = T - s the value function solves
        w_tau + grad f . grad w + |grad w|^2 / 2 = (beta_inv/2) Lap w
    from w(., 0) = terminal values.  The Cole-Hopf transform
    w = -beta_inv log phi makes it the linear backward Kolmogorov equation
    phi_tau = G phi, with G the reflecting generator of dX = -grad f dt +
    sqrt(beta_inv) dW (``_generator``), whose walls match the reflecting
    path simulator.  Explicit steps under ``fp_cfl_limit`` keep phi inside
    [min phi_0, 1] for phi_0 = exp(-(V - min V) / beta_inv), so nothing
    underflows after the first exp, which needs beta * (max V - min V) <= 700
    on the grid; beyond that, or for beta_inv <= 0, a ValueError is raised.
    Returns the gradient field grad u(x, s) ready for path simulation.
    """
    if beta_inv <= 0:
        raise ValueError(f"the log transform needs beta_inv > 0, got beta_inv={beta_inv:g}")
    pts = grid.points()
    V = np.asarray(terminal_fn(pts), dtype=float).reshape(grid.n_points)
    spread = float(V.max() - V.min()) / beta_inv
    if spread > 700.0:
        raise ValueError(f"exp(-(V - min V) / beta_inv) underflows: range(V) / beta_inv = {spread:.4g} "
                         f"> 700 on the grid; raise beta_inv={beta_inv:g}")
    spacing = grid.spacing
    bfield = objective.grad_batch(pts).reshape(*grid.n_points, grid.dim)
    drifts = [bfield[..., axis] for axis in range(grid.dim)]
    n_steps, step = _time_steps(T, dt, 0.8, fp_cfl_limit(drifts, spacing, beta_inv))
    G = _generator(drifts, spacing, beta_inv)
    keep_every = max(1, int(math.ceil((n_steps + 1) / max_slices)))
    kept = sorted({*range(0, n_steps + 1, keep_every), n_steps})
    # slices ascend in forward time s = T - tau: tau = 0 fills the last one
    gradients = np.empty((len(kept), *grid.n_points, grid.dim))
    phi = np.exp(-(V - V.min()).ravel() / beta_inv)
    done = 0
    for slot, it in enumerate(kept, start=1):
        for _ in range(it - done):
            phi += step * (G @ phi)
        done = it
        if not np.isfinite(phi).all():
            raise NanAbort(f"NaN in value function at reversed step {it}")
        w = (-beta_inv * np.log(phi)).reshape(grid.n_points)
        for axis in range(grid.dim):
            gradients[-slot, ..., axis] = np.gradient(w, spacing[axis], axis=axis, edge_order=2)
    return ControlField(grid=grid, times=T - step * np.array(kept[::-1]), gradients=gradients)


# ---------------------------------------------------------------------------
# diagnostics


def burgers_characteristic_check(objective: Objective, x: float, t: float,
                                 damping: float = 0.5, max_iter: int = 1000,
                                 tol: float = 1e-12) -> tuple[float, bool]:
    """Solve the characteristic fixed point p = f'(x - t p) by damped iteration.

    Pre-shock the iteration contracts and p equals the spatial derivative of
    the inf-convolution.  The flag is False when the iteration fails to
    settle or the settled root violates the crossing criterion
    1 + t f''(x - t p) > 0, i.e. characteristics have already intersected.
    """
    if objective.dim != 1:
        raise ValueError("characteristic check is one-dimensional")
    p = float(objective.grad(np.array([x]))[0])
    if t == 0:
        return p, True
    settled = False
    for _ in range(max_iter):
        target = float(objective.grad(np.array([x - t * p]))[0])
        p_new = (1.0 - damping) * p + damping * target
        if not np.isfinite(p_new) or abs(p_new) > 1e8:
            return p, False
        if abs(p_new - p) < tol:
            p = p_new
            settled = True
            break
        p = p_new
    if not settled:
        return p, False
    fpp = float(objective.hessian(np.array([x - t * p]))[0, 0])
    return p, bool(1.0 + t * fpp > 0.0)


def shock_time(objective: Objective, box: tuple[float, float], n: int = 4001) -> float:
    """First characteristic-crossing time 1 / max(0, -min f'') on the box."""
    xs = np.linspace(box[0], box[1], n)
    g = objective.grad_batch(xs[:, None])[:, 0]
    fpp = np.gradient(g, xs)
    m = float(fpp.min())
    return math.inf if m >= 0 else 1.0 / (-m)


def convexity_interval(u: GridFunction, x_min: float, tol: float = -1e-10) -> tuple[float, float]:
    """Widest interval around a grid-local minimum where the discrete second
    difference stays >= tol."""
    if u.dim != 1:
        raise ValueError("convexity intervals are one-dimensional")
    xs = u.axes()[0]
    vals = u.values
    i = int(np.argmin(np.abs(xs - x_min)))
    i = max(1, min(len(xs) - 2, i))
    neighborhood = vals[max(0, i - 1) : i + 2]
    if vals[i] > neighborhood.min() + 1e-12:
        raise ValueError(f"x_min={x_min:g} is not a grid-local minimum")
    h2 = u.spacing[0] ** 2
    d2 = np.empty(len(xs))
    d2[1:-1] = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h2
    d2[0], d2[-1] = d2[1], d2[-2]
    left = i
    while left > 0 and d2[left - 1] >= tol:
        left -= 1
    right = i
    while right < len(xs) - 1 and d2[right + 1] >= tol:
        right += 1
    return float(xs[left]), float(xs[right])


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
