"""Exact low-dimensional solvers for the smoothed-loss PDEs.

Four routes to the smoothed loss u(x, t) of a 1D/2D objective f:

* ``solve_viscous_hj_cole_hopf`` -- u = -(1/b) log(G_{t/b} * exp(-b f)),
  the log-transformed heat solution, computed by stabilized log-sum-exp
  quadrature.  Solves u_t = -|grad u|^2/2 + (1/(2b)) Lap u.
* ``solve_hj_hopf_lax`` -- the zero-viscosity limit: the inf-convolution
  u(x,t) = min_y { f(y) + |x-y|^2/(2t) }, computed exactly on the grid with
  the linear-time lower-envelope algorithm.
* ``solve_hj_monotone_fd`` -- explicit upwind (Godunov) finite differences
  for the same equation, any viscosity including zero.
* ``solve_heat`` -- plain Gaussian blurring v = G_{t/b} * f for contrast.

Plus the forward density evolution ``evolve_fokker_planck`` (conservative
upwind finite volume), the backward value-function solver
``solve_hjb_backward`` used by the control experiments, the proximal map
``prox_point``, and small diagnostics (characteristic fixed points, shock
time, convexity intervals).

All solvers are pure functions of their inputs and run single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .grid import GridFunction
from .objectives import Objective

Array = np.ndarray

SCHEMES = ("cole_hopf", "hopf_lax", "monotone_fd", "heat")


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
        if self.boundary not in ("extrapolating", "periodic"):
            raise ValueError("boundary must be 'extrapolating' or 'periodic'")


class CflError(ValueError):
    """Time step violates the monotone stability restriction."""


class NanAbort(RuntimeError):
    """A solver produced NaN values."""


def _extended_axis(lo: float, hi: float, n: int, pad_points: int) -> Array:
    h = (hi - lo) / (n - 1)
    return lo - pad_points * h + h * np.arange(n + 2 * pad_points)


def _pad_points(h: float, radius: float) -> int:
    return int(math.ceil(max(radius, 0.0) / h))


# ---------------------------------------------------------------------------
# Cole-Hopf quadrature


def solve_viscous_hj_cole_hopf(objective: Objective, cfg: PdeSolveConfig, grid: GridFunction) -> GridFunction:
    """Smoothed loss via the log-transformed heat kernel.

    The quadrature grid extends the evaluation box far enough that the
    Gaussian mass ignored outside it is below ~1e-10 (``cfg.pad_sigmas``
    standard deviations).  All exponents are combined with log-sum-exp, so
    beta * range(f) far beyond 700 is safe.
    """
    if cfg.beta_inv == 0.0:
        return solve_hj_hopf_lax(objective, cfg.t_final, grid)
    beta = 1.0 / cfg.beta_inv
    t = cfg.t_final
    sigma2 = cfg.beta_inv * t
    sigma = math.sqrt(sigma2)
    if grid.dim == 1:
        return _cole_hopf_1d(objective, beta, t, sigma, grid, cfg)
    return _cole_hopf_2d(objective, beta, t, sigma, grid, cfg)


def _cole_hopf_1d(objective, beta, t, sigma, grid, cfg) -> GridFunction:
    (n,) = grid.n_points
    h = grid.spacing[0]
    if cfg.boundary == "periodic":
        return _cole_hopf_periodic_1d(objective, beta, t, sigma, grid)
    # quadrature in offset form: resolve the kernel even when it is narrower
    # than the evaluation grid
    h_q = min(h, sigma / 3.0) if sigma > 0 else h
    # the kernel tail, plus the reach of a distant low value of f
    radius = cfg.pad_sigmas * sigma + hopf_lax_search_radius(objective, grid, t)
    K = max(2, int(math.ceil(radius / h_q)))
    offs = h_q * np.arange(-K, K + 1)
    log_k = -beta * offs**2 / (2.0 * t)
    xs = grid.axes()[0]
    log_norm = math.log(h_q) - 0.5 * math.log(2.0 * math.pi * sigma * sigma)
    out = np.empty(n)
    chunk = max(1, int(4_000_000 // (2 * K + 1)))
    for s in range(0, n, chunk):
        xc = xs[s : s + chunk]
        pts = (xc[:, None] + offs[None, :]).ravel()
        log_f = -beta * objective.value_batch(pts[:, None]).reshape(len(xc), -1)
        out[s : s + chunk] = logsumexp(log_f + log_k[None, :], axis=1)
    u = -(out + log_norm) / beta
    return grid.with_values(u)


def _cole_hopf_periodic_1d(objective, beta, t, sigma, grid) -> GridFunction:
    (n,) = grid.n_points
    h = grid.spacing[0]
    m = n - 1  # last node duplicates the first on a periodic box
    xs = grid.axes()[0][:m]
    log_f = -beta * objective.value_batch(xs[:, None])
    K = _pad_points(h, 8.0 * sigma)
    offs = h * np.arange(-K, K + 1)
    log_k = -beta * offs**2 / (2.0 * t)
    idx = (np.arange(m)[:, None] + np.arange(-K, K + 1)[None, :]) % m
    log_norm = math.log(h) - 0.5 * math.log(2.0 * math.pi * sigma * sigma)
    vals = logsumexp(log_f[idx] + log_k[None, :], axis=1)
    u = -(vals + log_norm) / beta
    return grid.with_values(np.append(u, u[0]))


def _check_2d_size(grid: GridFunction) -> None:
    # quadratic-cost reductions stay fast only up to 257 points per axis
    if max(grid.n_points) > 257:
        raise ValueError("2D solves are limited to 257 points per axis")


def _cole_hopf_2d(objective, beta, t, sigma, grid, cfg) -> GridFunction:
    n0, n1 = grid.n_points
    h0, h1 = grid.spacing
    _check_2d_size(grid)
    if cfg.boundary == "periodic":
        raise NotImplementedError("periodic quadrature implemented for 1D only")
    # the kernel tail, plus the reach of a distant low value of f
    radius = cfg.pad_sigmas * sigma + hopf_lax_search_radius(objective, grid, t)
    pad0 = _pad_points(h0, radius)
    pad1 = _pad_points(h1, radius)
    y0 = _extended_axis(grid.lower[0], grid.upper[0], n0, pad0)
    y1 = _extended_axis(grid.lower[1], grid.upper[1], n1, pad1)
    x0, x1 = grid.axes()
    g0, g1 = np.meshgrid(y0, y1, indexing="ij")
    F = -beta * objective.value_batch(np.column_stack([g0.ravel(), g1.ravel()])).reshape(len(y0), len(y1))
    scale = -beta / (2.0 * t)
    # separable kernel: reduce over y0 for each x0, then over y1 for each x1
    A = np.empty((n0, len(y1)))
    for i, x in enumerate(x0):
        A[i] = logsumexp(F + scale * (x - y0)[:, None] ** 2, axis=0)
    U = np.empty((n0, n1))
    for j, x in enumerate(x1):
        U[:, j] = logsumexp(A + scale * (x - y1)[None, :] ** 2, axis=1)
    log_norm = math.log(h0 * h1) - math.log(2.0 * math.pi * sigma * sigma)
    return grid.with_values((-(U + log_norm) / beta).ravel())


# ---------------------------------------------------------------------------
# Hopf-Lax inf-convolution


def _lower_envelope_1d(ys: Array, fvals: Array, xs: Array, t: float) -> Array:
    """min_k { fvals[k] + (x - ys[k])^2 / (2t) } for each x, in O(len)."""
    inv2t = 1.0 / (2.0 * t)
    m = len(ys)
    v = np.empty(m, dtype=int)
    z = np.empty(m + 1)
    k = 0
    v[0] = 0
    z[0] = -np.inf
    z[1] = np.inf
    for q in range(1, m):
        while True:
            r = v[k]
            s = ((fvals[q] - fvals[r]) * 2.0 * t + ys[q] ** 2 - ys[r] ** 2) / (2.0 * (ys[q] - ys[r]))
            if k > 0 and s <= z[k]:
                k -= 1
            else:
                break
        k += 1
        v[k] = q
        z[k] = s
        z[k + 1] = np.inf
    out = np.empty(len(xs))
    j = 0
    for i, x in enumerate(xs):
        while z[j + 1] < x:
            j += 1
        yk = ys[v[j]]
        out[i] = fvals[v[j]] + (x - yk) * (x - yk) * inv2t
    return out


def hopf_lax_search_radius(objective: Objective, grid: GridFunction, t: float) -> float:
    """Radius beyond the box that can still host a minimizer of the
    inf-convolution: |x - y*|^2 <= 2 t (max f - min f) on the box."""
    fvals = objective.value_batch(grid.points())
    spread = float(fvals.max() - fvals.min())
    return math.sqrt(max(2.0 * t * spread, 0.0))


def solve_hj_hopf_lax(objective: Objective, t: float, grid: GridFunction) -> GridFunction:
    """Exact grid inf-convolution of f with the quadratic |x-y|^2/(2t).

    The search grid is the evaluation grid padded by the reachability radius,
    so minimizers slightly outside the box are not missed.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    radius = hopf_lax_search_radius(objective, grid, t)
    if grid.dim == 1:
        (n,) = grid.n_points
        h = grid.spacing[0]
        pad = _pad_points(h, radius)
        ys = _extended_axis(grid.lower[0], grid.upper[0], n, pad)
        fv = objective.value_batch(ys[:, None])
        return grid.with_values(_lower_envelope_1d(ys, fv, grid.axes()[0], t))
    n0, n1 = grid.n_points
    _check_2d_size(grid)
    h0, h1 = grid.spacing
    pad0, pad1 = _pad_points(h0, radius), _pad_points(h1, radius)
    y0 = _extended_axis(grid.lower[0], grid.upper[0], n0, pad0)
    y1 = _extended_axis(grid.lower[1], grid.upper[1], n1, pad1)
    g0, g1 = np.meshgrid(y0, y1, indexing="ij")
    F = objective.value_batch(np.column_stack([g0.ravel(), g1.ravel()])).reshape(len(y0), len(y1))
    x0, x1 = grid.axes()
    A = np.empty((n0, len(y1)))
    for j in range(len(y1)):
        A[:, j] = _lower_envelope_1d(y0, F[:, j], x0, t)
    U = np.empty((n0, n1))
    for i in range(n0):
        U[i] = _lower_envelope_1d(y1, A[i], x1, t)
    return grid.with_values(U.ravel())


# ---------------------------------------------------------------------------
# proximal map


@dataclass
class ProxResult:
    y: Array
    value: float
    grad_u: Array          # (x - y*) / t
    grad_f_at_y: Array
    non_unique: bool
    candidates: list = field(default_factory=list)

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
        candidates=polished,
    )


# ---------------------------------------------------------------------------
# monotone finite differences


def _linear_ghost_pad(a: Array) -> Array:
    """One linear-extrapolation ghost cell per side, every axis."""
    for axis in range(a.ndim):
        lo = 2.0 * np.take(a, 0, axis=axis) - np.take(a, 1, axis=axis)
        hi = 2.0 * np.take(a, -1, axis=axis) - np.take(a, -2, axis=axis)
        a = np.concatenate(
            [np.expand_dims(lo, axis), a, np.expand_dims(hi, axis)], axis=axis
        )
    return a


def _max_abs_gradient(u: Array, spacing: Array) -> float:
    return max(
        float(np.abs(np.diff(u, axis=axis)).max()) / spacing[axis]
        for axis in range(u.ndim)
    )


def cfl_limit(u0: Array, spacing: Array, beta_inv: float) -> float:
    """Largest dt allowed by the monotone restriction
    dt <= h^2 / (d (beta_inv + h max|grad u|))."""
    h = float(spacing.min())
    d = u0.ndim
    G = _max_abs_gradient(u0, spacing)
    return h * h / (d * (beta_inv + h * G) + 1e-300)


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
    spacing = grid.spacing
    limit = cfl_limit(u, spacing, cfg.beta_inv)
    if cfg.dt is not None:
        if cfg.dt > limit * (1.0 + 1e-12):
            raise CflError(f"dt={cfg.dt:g} exceeds the monotone limit {limit:g}")
        dt = cfg.dt
    else:
        dt = cfg.cfl_safety * limit
    n_steps = max(1, int(math.ceil(cfg.t_final / dt)))
    dt = cfg.t_final / n_steps
    d = u.ndim
    h = spacing

    for step in range(n_steps):
        up = _linear_ghost_pad(u)
        ham = np.zeros_like(u)
        lap = np.zeros_like(u)
        for axis in range(d):
            center = [slice(1, -1)] * d
            lo = list(center); lo[axis] = slice(0, -2)
            hi = list(center); hi[axis] = slice(2, None)
            um, uc, upl = up[tuple(lo)], up[tuple(center)], up[tuple(hi)]
            dminus = (uc - um) / h[axis]
            dplus = (upl - uc) / h[axis]
            ham += 0.5 * (np.maximum(dminus, 0.0) ** 2 + np.minimum(dplus, 0.0) ** 2)
            lap += (upl - 2.0 * uc + um) / h[axis] ** 2
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

    Kernel weights are symmetric and normalized to sum to one, so affine
    functions are reproduced exactly.  With the periodic boundary the
    convolution wraps on the n-1 unique nodes (the last node must duplicate
    the first).
    """
    if cfg.beta_inv <= 0:
        raise ValueError("heat smoothing needs beta_inv > 0")
    sigma2 = cfg.beta_inv * cfg.t_final
    sigma = math.sqrt(sigma2)
    if grid.dim == 1:
        (n,) = grid.n_points
        h = grid.spacing[0]
        K = max(2, _pad_points(h, cfg.pad_sigmas * sigma))
        offs = h * np.arange(-K, K + 1)
        w = np.exp(-offs**2 / (2.0 * sigma2))
        w /= w.sum()
        if cfg.boundary == "periodic":
            m = n - 1
            base = objective.value_batch(grid.points()[:m])
            idx = (np.arange(m)[:, None] + np.arange(-K, K + 1)[None, :]) % m
            v = (base[idx] * w[None, :]).sum(axis=1)
            return grid.with_values(np.append(v, v[0]))
        xs = grid.axes()[0]
        ext = np.concatenate([xs[0] + offs[:K], xs, xs[-1] + offs[K + 1 :]])
        fv = objective.value_batch(ext[:, None])
        v = np.convolve(fv, w[::-1], mode="valid")
        return grid.with_values(v)
    # 2D: separable convolution over an extended sampling of f
    n0, n1 = grid.n_points
    h0, h1 = grid.spacing
    if cfg.boundary == "periodic":
        raise NotImplementedError("periodic heat smoothing implemented for 1D only")
    K0 = max(2, _pad_points(h0, cfg.pad_sigmas * sigma))
    K1 = max(2, _pad_points(h1, cfg.pad_sigmas * sigma))
    y0 = _extended_axis(grid.lower[0], grid.upper[0], n0, K0)
    y1 = _extended_axis(grid.lower[1], grid.upper[1], n1, K1)
    g0, g1 = np.meshgrid(y0, y1, indexing="ij")
    F = objective.value_batch(np.column_stack([g0.ravel(), g1.ravel()])).reshape(len(y0), len(y1))
    w0 = np.exp(-((h0 * np.arange(-K0, K0 + 1)) ** 2) / (2.0 * sigma2)); w0 /= w0.sum()
    w1 = np.exp(-((h1 * np.arange(-K1, K1 + 1)) ** 2) / (2.0 * sigma2)); w1 /= w1.sum()
    tmp = np.apply_along_axis(lambda col: np.convolve(col, w0[::-1], mode="valid"), 0, F)
    out = np.apply_along_axis(lambda row: np.convolve(row, w1[::-1], mode="valid"), 1, tmp)
    return grid.with_values(out.ravel())


# ---------------------------------------------------------------------------
# Fokker-Planck density evolution


def fp_cfl_limit(drifts: list[Array], spacing: Array, beta_inv: float) -> float:
    total = 0.0
    for axis, b in enumerate(drifts):
        total += beta_inv / spacing[axis] ** 2 + float(np.abs(b).max()) / spacing[axis]
    return 1.0 / (total + 1e-300)


def evolve_fokker_planck(drift, rho0: GridFunction, beta_inv: float, t_final: float,
                         dt: float | None = None, cfl_safety: float = 0.8) -> GridFunction:
    """Conservative upwind finite-volume evolution of
    rho_t = div(drift * rho) + (beta_inv/2) Lap rho on a closed box.

    ``drift`` is a GridFunction on the same geometry as ``rho0`` (a sequence
    of two for 2D).  Walls carry zero flux, so mass is conserved exactly up
    to roundoff; the scheme is positivity-preserving under its CFL limit and
    aborts if the density dips below -1e-12.
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
    rho = rho0.array.copy()
    spacing = rho0.spacing
    limit = fp_cfl_limit(b, spacing, beta_inv)
    if dt is not None:
        if dt > limit * (1.0 + 1e-12):
            raise CflError(f"dt={dt:g} exceeds the positivity limit {limit:g}")
        step = dt
    else:
        step = cfl_safety * limit
    if t_final == 0:
        return rho0.with_values(rho.ravel())
    n_steps = max(1, int(math.ceil(t_final / step)))
    step = t_final / n_steps
    D = 0.5 * beta_inv

    for it in range(n_steps):
        update = np.zeros_like(rho)
        for axis in range(rho.ndim):
            h = spacing[axis]
            r = np.moveaxis(rho, axis, 0)
            ba = np.moveaxis(b[axis], axis, 0)
            bf = 0.5 * (ba[:-1] + ba[1:])
            # flux bf*rho_upwind + D * d(rho)/dx at interior faces
            flux = np.minimum(bf, 0.0) * r[:-1] + np.maximum(bf, 0.0) * r[1:]
            flux += D * (r[1:] - r[:-1]) / h
            dr = np.zeros_like(r)
            dr[:-1] += flux / h
            dr[1:] -= flux / h
            update += np.moveaxis(dr, 0, axis)
        rho = rho + step * update
        if it % 32 == 0:
            m = float(rho.min())
            if m < -1e-12:
                raise NanAbort(f"density went negative ({m:g}) at step {it}")
            if not np.isfinite(rho).all():
                raise NanAbort(f"NaN density at step {it}")
    if float(rho.min()) < -1e-12:
        raise NanAbort(f"density went negative ({float(rho.min()):g}) at final step")
    return rho0.with_values(rho.ravel())


# ---------------------------------------------------------------------------
# backward value function (controlled dynamics)


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
        lo, hi = self.grid.lower, self.grid.upper
        h = self.grid.spacing
        npts = np.array(self.grid.n_points)
        tt = np.clip((x - lo) / h, 0.0, npts - 1.0)
        i = np.minimum(tt.astype(int), npts - 2)
        w = tt - i
        if self.grid.dim == 1:
            g = G[..., 0]
            return ((1 - w[:, 0]) * g[i[:, 0]] + w[:, 0] * g[i[:, 0] + 1])[:, None]
        out = np.empty_like(x)
        for c in range(2):
            g = G[..., c]
            c00 = g[i[:, 0], i[:, 1]]
            c10 = g[i[:, 0] + 1, i[:, 1]]
            c01 = g[i[:, 0], i[:, 1] + 1]
            c11 = g[i[:, 0] + 1, i[:, 1] + 1]
            out[:, c] = ((1 - w[:, 0]) * (1 - w[:, 1]) * c00 + w[:, 0] * (1 - w[:, 1]) * c10
                         + (1 - w[:, 0]) * w[:, 1] * c01 + w[:, 0] * w[:, 1] * c11)
        return out


def solve_hjb_backward(objective: Objective, terminal_fn, T: float, beta_inv: float,
                       grid: GridFunction, dt: float | None = None, max_slices: int = 1024,
                       cfl_safety: float = 0.5) -> ControlField:
    """Backward value function for drift-controlled descent.

    Solves, in reversed time tau = T - s,
        w_tau + grad f . grad w + |grad w|^2 / 2 = (beta_inv/2) Lap w,
    from w(., 0) = terminal values, with upwinding on both transport terms.
    Returns the gradient field grad u(x, s) ready for path simulation.
    """
    pts = grid.points()
    w = np.asarray(terminal_fn(pts), dtype=float).reshape(grid.n_points)
    bfield = objective.grad_batch(pts).reshape(*grid.n_points, grid.dim)
    spacing = grid.spacing
    d = w.ndim
    h = float(spacing.min())
    Gb = float(np.abs(bfield).max())
    Gw = _max_abs_gradient(w, spacing)
    limit = h * h / (d * (beta_inv + h * (Gb + Gw)) + 1e-300)
    step = dt if dt is not None else cfl_safety * limit
    if step > limit * (1.0 + 1e-12):
        raise CflError(f"dt={step:g} exceeds the monotone limit {limit:g}")
    n_steps = max(1, int(math.ceil(T / step)))
    step = T / n_steps
    keep_every = max(1, int(math.ceil((n_steps + 1) / max_slices)))

    def grad_centered(a):
        return np.stack(
            [np.gradient(a, spacing[axis], axis=axis, edge_order=2) for axis in range(d)],
            axis=-1,
        )

    taus = [0.0]
    grads = [grad_centered(w)]
    for it in range(1, n_steps + 1):
        wp = _linear_ghost_pad(w)
        rhs = np.zeros_like(w)
        for axis in range(d):
            center = [slice(1, -1)] * d
            lo = list(center); lo[axis] = slice(0, -2)
            hi = list(center); hi[axis] = slice(2, None)
            wm, wc, wpl = wp[tuple(lo)], wp[tuple(center)], wp[tuple(hi)]
            dminus = (wc - wm) / spacing[axis]
            dplus = (wpl - wc) / spacing[axis]
            badv = bfield[..., axis]
            rhs -= np.maximum(badv, 0.0) * dminus + np.minimum(badv, 0.0) * dplus
            rhs -= 0.5 * (np.maximum(dminus, 0.0) ** 2 + np.minimum(dplus, 0.0) ** 2)
            rhs += 0.5 * beta_inv * (wpl - 2.0 * wc + wm) / spacing[axis] ** 2
        w = w + step * rhs
        if not np.isfinite(w).all():
            raise NanAbort(f"NaN in value function at reversed step {it}")
        if it % keep_every == 0 or it == n_steps:
            taus.append(it * step)
            grads.append(grad_centered(w))
    # reindex from reversed time tau to forward time s = T - tau
    s_times = T - np.array(taus)[::-1]
    gradients = np.stack(grads[::-1])
    return ControlField(grid=grid, times=s_times, gradients=gradients)


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
