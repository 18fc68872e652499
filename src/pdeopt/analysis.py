"""Numerical verification of the theory behind the smoothing optimizers.

Checks implemented here, each backed by an independent oracle:

* the stationary measure of entropy_sgd's own inner rows against its
  Gaussian closed form on quadratics, with error bars from independent
  chains and the integrated autocorrelation time of one; the rows run at
  the noise :func:`gibbs_beta_inv_ex` maps the lab's temperature to,
* the two-timescale limit: the averaged inner iterate reproduces the
  gradient of the inf-convolution smoothed loss as the scale separation
  shrinks; every (epsilon, probe) pair is one run of a single
  ``optimizers.run_lockstep`` call, each run starting at its probe,
* the controlled-descent improvement inequality
  E[V(x_ctrl(T))] + (1/2) E int |alpha|^2 <= E[V(x_plain(T))]
  with common random numbers, for the terminal cost V = f, the objective,
  checked for the optimal HJB control alpha = grad w, not for the control
  an optimizer applies,
* harmonic-mean spectral bounds HM(eigs) <= HM(diag) for SPD Hessians.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction
from .objectives import Objective
from .optimizers import RunSpec, default_config, init_state, run_lockstep, step
from .pde_lab import prox_point, solve_hjb_backward
from .rng import substream

Array = np.ndarray


# ---------------------------------------------------------------------------
# autocorrelation


ACT_WINDOW_C = 5.0      # automatic window: the smallest M >= ACT_WINDOW_C * tau(M)


def integrated_autocorrelation_time(series: Array) -> float:
    """Integrated autocorrelation time with automatic windowing.

    Uses the smallest window M with M >= ACT_WINDOW_C * tau(M); returns 1.0
    for uncorrelated or constant series.  The autocorrelations of a demeaned
    series sum to zero, so tau(n - 1) = 0 and the window rule holds by
    M = n - 1: the estimate never exceeds max(1, (n - 1) / ACT_WINDOW_C).
    """
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n < 8:
        return 1.0
    x = x - x.mean()
    var = float(x @ x) / n
    if var <= 0:
        return 1.0
    f = np.fft.rfft(x, n=2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n].real
    acf /= acf[0]
    taus = 2.0 * np.cumsum(acf) - 1.0
    m = int(np.argmax(np.arange(n) >= ACT_WINDOW_C * taus))   # the first M that qualifies
    return float(max(taus[m], 1.0))


# ---------------------------------------------------------------------------
# invariant measure of the inner dynamics


@dataclass
class InvariantMeasureEstimate:
    mean: Array
    covariance: Array
    n_samples: int
    autocorrelation_time: float
    mean_stderr: Array
    variance_stderr: Array

    def __post_init__(self):
        cov = np.atleast_2d(self.covariance)
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() < -1e-10:
            raise ValueError("covariance must be positive semidefinite")


def gibbs_beta_inv_ex(beta_inv: float) -> float:
    """The optimizers' extrinsic noise ``beta_inv_ex`` whose inner rows sample
    the lab's Gibbs measure exp(-H / beta_inv): 2 * beta_inv.

    A coupled row steps y <- y - s grad H(y) + sqrt(s beta_inv_ex) N, the
    Euler step of dY = -grad H dt + sqrt(beta_inv_ex) dW.  Its generator is
    (beta_inv_ex / 2) Lap - grad H . grad, and the density exp(-2 H /
    beta_inv_ex) solves the stationary Fokker-Planck equation
    div(grad H rho + (beta_inv_ex / 2) grad rho) = 0.  That density is
    exp(-H / beta_inv) exactly when beta_inv_ex = 2 beta_inv.
    """
    return 2.0 * beta_inv


def sample_invariant_measure(objective: Objective, x, gamma: float, beta_inv: float,
                             n_steps: int, burn_in: int, seed: int,
                             n_chains: int = 32, step_size: float = 5e-3) -> InvariantMeasureEstimate:
    """Sample the coupled Gibbs measure
    rho(y) ~ exp(-beta [f(y) + |y - x|^2 / (2 gamma)]) at fixed x with
    entropy_sgd's own inner rows (``optimizers.step``).

    Chain r is the row of repeat r, seeded ``seed + r``, started at x and run
    at the noise ``gibbs_beta_inv_ex(beta_inv)`` with the inner step
    min(``step_size``, gamma); L is past the last step, so the anchor stays
    at x.  On a dataset every gradient takes the full batch, so the measure
    is that of f.  ``n_steps`` counts total post-burn-in samples across
    ``n_chains`` chains; error bars come from the spread of per-chain
    statistics.  Divergence aborts, signalling that gamma is too large for
    the local convexity of f: a row with |y| > 1e6, or not finite, at every
    256th step, or among the kept samples once the chains have run.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps={n_steps}: must be >= 1, the samples kept over all chains")
    if burn_in < 0:
        raise ValueError(f"burn_in={burn_in}: must be >= 0, or the first samples are never written")
    if n_chains < 2:
        raise ValueError(f"n_chains={n_chains}: the error bars are a spread over chains, so at least 2")
    if not gamma > 0 or not beta_inv >= 0:      # a NaN too
        raise ValueError("gamma must be positive and beta_inv >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = objective.dim
    kept_per_chain = max(2, int(math.ceil(n_steps / n_chains)))
    cfg = default_config("entropy_sgd", L=burn_in + kept_per_chain + 1, eta_y=step_size, gamma0=gamma,
                         gamma1=0.0, beta_inv_ex=gibbs_beta_inv_ex(beta_inv), delta=0.0,
                         batch_size=objective.n_samples)
    state = init_state(objective, x, cfg, seed, "entropy_sgd", repeats=n_chains)
    samples = np.empty((kept_per_chain, n_chains, dim))
    diverged = "inner dynamics diverged: gamma too large for the local convexity"
    for it in range(burn_in + kept_per_chain):
        step(state)
        if it % 256 == 0 and not float(np.abs(state.rows).max()) <= 1e6:
            raise RuntimeError(diverged)
        if it >= burn_in:
            samples[it - burn_in] = state.rows
    if not float(np.abs(samples).max()) <= 1e6:   # diverged between the checks above
        raise RuntimeError(diverged)
    flat = samples.reshape(-1, dim)
    mean = flat.mean(axis=0)
    cov = np.cov(flat.T) if dim > 1 else np.array([[flat.var(ddof=1)]])
    chain_means = samples.mean(axis=0)                      # (n_chains, dim)
    chain_vars = samples.var(axis=0, ddof=1)                # (n_chains, dim)
    mean_stderr = chain_means.std(axis=0, ddof=1) / math.sqrt(n_chains)
    var_stderr = chain_vars.std(axis=0, ddof=1) / math.sqrt(n_chains)
    act = integrated_autocorrelation_time(samples[:, 0, 0])
    return InvariantMeasureEstimate(
        mean=mean,
        covariance=np.atleast_2d(cov),
        n_samples=flat.shape[0],
        autocorrelation_time=act,
        mean_stderr=mean_stderr,
        variance_stderr=var_stderr,
    )


@dataclass
class QuadraticMeasure:
    mean: Array
    covariance: Array


def quadratic_invariant_closed_form(Q, p, x, gamma: float, beta: float) -> QuadraticMeasure:
    """Gaussian parameters of the coupled Gibbs measure
    rho(y) ~ exp(-beta [f(y) + |y - x|^2 / (2 gamma)]) for quadratic
    f(y) = p.y + y'Qy/2: precision beta (Q + I/gamma) and mean
    x - (Q + I/gamma)^{-1} grad f(x).
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    n = Q.shape[0]
    p = np.broadcast_to(np.atleast_1d(np.asarray(p, dtype=float)), (n,))
    x = np.broadcast_to(np.atleast_1d(np.asarray(x, dtype=float)), (n,))
    if not gamma > 0 or not beta > 0:      # a NaN too
        raise ValueError("gamma and beta must be positive")
    Sigma_shape = _spd_inverse(Q + np.eye(n) / gamma)
    return QuadraticMeasure(mean=x - Sigma_shape @ (p + Q @ x), covariance=Sigma_shape / beta)


def _spd_inverse(A: Array) -> Array:
    eig = np.linalg.eigvalsh(A)
    if not eig.min() > 0:      # a NaN matrix too
        raise ValueError("precision matrix is singular or indefinite")
    return np.linalg.inv(A)


# ---------------------------------------------------------------------------
# homogenization limit


@dataclass
class HomogenizationRow:
    epsilon: float
    inner_steps: int
    mean_abs_deviation: float
    stderr: float
    mean_rel_deviation: float
    max_rel_deviation: float


@dataclass
class HomogenizationTable:
    reference_grad: Array          # d/dx of the smoothed loss at the probes
    rows: list[HomogenizationRow]
    drift_samples: Array           # (n_eps, n_probes, n_seeds) raw drift estimates

    def is_monotone(self, n_stderr: float = 2.0) -> bool:
        """Deviation non-increasing as epsilon shrinks, up to noise."""
        for a, b in zip(self.rows, self.rows[1:]):
            slack = n_stderr * math.hypot(a.stderr, b.stderr)
            if b.mean_abs_deviation > a.mean_abs_deviation + slack:
                return False
        return True


def verify_homogenization(objective: Objective, probes, gamma: float, beta_inv: float,
                          epsilons, n_seeds: int = 32, seed: int = 0) -> HomogenizationTable:
    """Compare the averaged-inner-iterate drift against the smoothed-loss
    gradient for a sweep of time-scale separations.

    Each epsilon maps to L = round(1/epsilon) inner steps.  The drift is
    measured from one outer update of the entropy optimizer started at each
    probe, each (epsilon, probe) pair one run of a single
    ``optimizers.run_lockstep`` call with the seeds ``seed * 1000 ..`` as its
    repeats; the drift of a run is its end minus its start over its own
    ``eta``, and the table is computed from the (epsilon, probe, seed) array of
    drifts, averaged over seeds.  The reference is (x - prox(x)) / gamma, the
    exact gradient of the inf-convolution at scale gamma.  Empty ``epsilons``
    or ``probes`` and an epsilon that is not positive are refused by name
    before any work; ``prox_point`` and the optimizer refuse ``gamma``,
    ``beta_inv`` and ``n_seeds``.
    """
    if objective.dim != 1:
        raise ValueError("homogenization verification is one-dimensional")
    probes = np.atleast_1d(np.asarray(probes, dtype=float))
    epsilons = sorted(float(e) for e in np.atleast_1d(epsilons))[::-1]  # large -> small
    if not epsilons:
        raise ValueError("epsilons is empty: give at least one time-scale separation")
    bad = [e for e in epsilons if not e > 0]    # sorted() does not order a NaN
    if bad:
        raise ValueError(f"epsilons holds {bad[0]:g}: each epsilon must be positive")
    if not len(probes):
        raise ValueError("probes is empty: give at least one point")
    ref = np.array([prox_point(objective, np.array([p]), gamma).grad_u[0] for p in probes])

    cfgs = [default_config("entropy_sgd", L=max(1, int(round(1.0 / eps))), gamma0=gamma, gamma1=0.0,
                           beta_inv_ex=beta_inv, delta=0.0) for eps in epsilons]
    specs = [RunSpec("entropy_sgd", cfg, 1, x0=[p]) for cfg in cfgs for p in probes]
    runs = run_lockstep(objective, specs, seed * 1000, repeats=n_seeds)
    drifts = [(np.array([rec.terminal_x[0] for rec in records]) - spec.x0[0]) / spec.cfg.eta
              for spec, records in zip(specs, runs)]
    all_samples = np.reshape(drifts, (len(epsilons), len(probes), n_seeds))
    denom = np.maximum(np.abs(ref), 1e-12)
    rows: list[HomogenizationRow] = []
    for eps, cfg, samples in zip(epsilons, cfgs, all_samples):
        per_seed = np.abs(samples + ref[:, None]).mean(axis=0)     # mean over probes, one value per seed
        rel = np.abs(samples.mean(axis=1) + ref) / denom
        rows.append(HomogenizationRow(
            epsilon=eps,
            inner_steps=cfg.L,
            mean_abs_deviation=float(per_seed.mean()),
            stderr=float(per_seed.std(ddof=1) / math.sqrt(n_seeds)) if n_seeds > 1 else 0.0,
            mean_rel_deviation=float(rel.mean()),
            max_rel_deviation=float(rel.max()),
        ))
    return HomogenizationTable(reference_grad=ref, rows=rows, drift_samples=all_samples)


# ---------------------------------------------------------------------------
# controlled descent improvement


@dataclass
class ControlComparison:
    """The paired control run's statistics, each once, as (mean, stderr) over
    the paths, keyed by the name ``control.csv`` and ``summary.json`` use:

    * ``terminal_controlled``, ``terminal_plain``: V(x(T)) = f(x(T)) of the
      controlled and the plain paths;
    * ``control_energy``: (1/2) int |alpha|^2 ds of the control added on top
      of the plain drift -grad f;
    * ``gap``: V(plain) - V(controlled), positive is better;
    * ``bound_margin``: the gap minus the control energy, >= 0 up to noise.

    ``exit_fraction``, the share of paths that reached a box wall at least
    once, is one number with no standard error.  ``strict_gap`` holds
    where the control did not act at all, a mean control energy of exactly
    0 (a horizon of 0, or alpha = 0 along every path): the two path sets
    then coincide and no gap can open.
    """
    stats: dict[str, tuple[float, float]]
    exit_fraction: float

    @property
    def improvement_holds(self) -> bool:
        margin, stderr = self.stats["bound_margin"]
        return margin >= -3.0 * stderr

    @property
    def strict_gap(self) -> bool:
        gap, stderr = self.stats["gap"]
        return self.stats["control_energy"][0] == 0.0 or gap > 3.0 * stderr


CONTROL_DT = 1e-3       # nominal path step of control_improvement_experiment
CONTROL_BATCHES = 20    # batches its standard errors come from


# Path-noise steps per buffer of :func:`_normals_ahead`.  Each buffer holds
# n_paths * dim * 32 bytes and there are two.  On the control_dw
# benchmark's op (10,000 paths, 1D, a 2-vCPU host) the buffers raised a bare
# process's peak RSS by about 0.3 MB at chunks of 2, 0.7 MB at 4, 1.2 MB at
# 8 and 2.4 MB at 16; chunks of 4 and 8 ran about equally fast.
_NOISE_CHUNK = 4


def _normals_ahead(rng, n_steps: int, shape: tuple):
    """Yield ``n_steps`` arrays of ``rng.standard_normal(shape)``, drawn one
    ``_NOISE_CHUNK``-step chunk ahead by a single-worker executor into two
    preallocated buffers in turn.  ``standard_normal(out=(k, *shape))``
    draws the same values in the same order as k per-step calls, so the
    values and the generator's final state are those of per-step draws.
    Only the worker touches ``rng`` while a draw is in flight; each yielded
    array is overwritten a few steps later.  A draw error is raised here by
    ``Future.result()``, and the ``with`` block joins the worker on every
    exit.  ``n_steps`` = 0 starts no thread."""
    if n_steps == 0:
        return
    # imported here, so that ``import pdeopt`` loads neither concurrent.futures nor logging
    from concurrent.futures import ThreadPoolExecutor

    bufs = [np.empty((_NOISE_CHUNK, *shape)) for _ in range(2)]
    n_chunks = -(-n_steps // _NOISE_CHUNK)
    with ThreadPoolExecutor(max_workers=1) as worker:
        # chunk c goes in buffer c % 2, drawn while the caller reads chunk c - 1
        def draw(c):
            return worker.submit(rng.standard_normal, out=bufs[c % 2][:n_steps - c * _NOISE_CHUNK])

        ahead = draw(0)
        for c in range(n_chunks):
            chunk = ahead.result()
            if c + 1 < n_chunks:
                ahead = draw(c + 1)
            yield from chunk


def control_improvement_experiment(objective: Objective, T: float, beta_inv: float, n_paths: int,
                                   seed: int, x0, grid: GridFunction) -> ControlComparison:
    """Paired simulation of plain vs drift-controlled noisy descent.

    The control alpha(x, s) is the gradient of the backward value function
    for the terminal cost V = f, the objective, solved on ``grid``; both
    dynamics consume identical Brownian increments (common random numbers),
    so the comparison E[V(ctrl)] + (1/2) E int |alpha|^2 <= E[V(plain)] is
    tested at small variance.  The inequality is checked for this optimal
    HJB control grad w only: no optimizer applies it, and the control an
    entropy-SGD outer step applies is not checked.  The paths run to T in
    max(1, round(T / CONTROL_DT)) equal steps (none for T = 0), and are
    reflected at the box walls; if more than 1% of paths ever reach a wall,
    the run is invalid and raises.  A start ``x0`` outside the grid box is
    refused before the solve.  The path noise is drawn one 4-step chunk
    ahead on a single-worker executor (:func:`_normals_ahead`): the same
    values as one ``standard_normal((n_paths, dim))`` per step, and faster
    only where a second core is free.  Each statistic of the returned
    :class:`ControlComparison` is a mean over the paths with the standard
    error of CONTROL_BATCHES batch means.
    """
    if not T >= 0:      # a NaN horizon too
        raise ValueError(f"T={T:g}: the horizon must be >= 0")
    if n_paths < CONTROL_BATCHES:
        raise ValueError(f"n_paths={n_paths}: at least {CONTROL_BATCHES}, one per batch of the standard errors")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    lo, hi = grid.lower, grid.upper
    if not ((x0 >= lo) & (x0 <= hi)).all():    # a NaN too
        raise ValueError(f"x0={x0.tolist()}: the start lies outside the grid box {lo.tolist()} to {hi.tolist()}")
    dim = objective.dim
    rng = substream(seed, "control-paths")
    control = solve_hjb_backward(objective, T, beta_inv, grid) if T > 0 else None
    # paths[0] controlled, paths[1] plain: one array, one grad_batch call a step
    paths = np.tile(x0, (2, n_paths, 1))
    rows = paths.reshape(2 * n_paths, dim)
    xc = paths[0]
    energy = np.zeros(n_paths)
    exited = np.zeros(n_paths, dtype=bool)
    n_steps = max(1, round(T / CONTROL_DT)) if T > 0 else 0
    dt = T / max(n_steps, 1)
    amp = math.sqrt(dt * beta_inv)
    for kstep, xi in enumerate(_normals_ahead(rng, n_steps, (n_paths, dim))):
        a = control.alpha(xc, kstep * dt)
        energy += 0.5 * (a * a).sum(axis=1) * dt
        drift = -objective.grad_batch(rows).reshape(paths.shape)
        drift[0] -= a
        drift *= dt
        paths += drift
        paths += amp * xi
        over = paths > hi
        under = paths < lo
        if over.any() or under.any():
            exited |= (over | under).any(axis=(0, 2))
            np.copyto(paths, 2 * hi - paths, where=over)
            np.copyto(paths, 2 * lo - paths, where=under)
    exit_fraction = float(exited.mean())
    if exit_fraction > 0.01:
        raise RuntimeError(f"{exit_fraction:.1%} of paths left the box; enlarge the grid")
    v_ctrl, v_plain = objective.value_batch(rows).reshape(2, n_paths)

    def batch_stats(values):
        means = np.array([chunk.mean() for chunk in np.array_split(values, CONTROL_BATCHES)])
        return float(values.mean()), float(means.std(ddof=1) / math.sqrt(len(means)))

    gap = v_plain - v_ctrl
    return ControlComparison({
        "terminal_controlled": batch_stats(v_ctrl), "terminal_plain": batch_stats(v_plain),
        "control_energy": batch_stats(energy), "gap": batch_stats(gap),
        "bound_margin": batch_stats(gap - energy),
    }, exit_fraction)


# ---------------------------------------------------------------------------
# spectra


def harmonic_mean(v) -> float:
    """n / sum(1/v_i) for strictly positive components."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.size == 0 or (v <= 0).any():
        raise ValueError("harmonic mean requires strictly positive components")
    return float(len(v) / np.sum(1.0 / v))


@dataclass
class SpectrumSummary:
    eigenvalues: Array
    diagonal: Array
    hm_lambda: float
    hm_diag: float
    indefinite: bool
    satisfies_eig_diag: bool


def spectrum_summary(objective: Objective, x_star) -> SpectrumSummary:
    """Hessian eigenvalue/diagonal summary at a local minimum.

    Asserts the harmonic-mean comparison HM(eigs) <= HM(diag).  An
    indefinite Hessian triggers a warning and restricts the harmonic means
    to the positive part.
    """
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    gnorm = float(np.linalg.norm(objective.grad(x_star)))
    if gnorm > 1e-6:
        raise ValueError(f"x_star is not a critical point (|grad| = {gnorm:g})")
    H = objective.hessian(x_star)
    eigs = np.linalg.eigvalsh(H)
    diag = np.diag(H).copy()
    indefinite = bool(eigs.min() <= 0)
    if indefinite:
        warnings.warn("indefinite Hessian at x_star; harmonic means use the positive part")
        pos_e = eigs[eigs > 0]
        pos_d = diag[diag > 0]
    else:
        pos_e, pos_d = eigs, diag
    hm_l = harmonic_mean(pos_e) if len(pos_e) else math.nan
    hm_d = harmonic_mean(pos_d) if len(pos_d) else math.nan
    return SpectrumSummary(
        eigenvalues=np.sort(eigs),
        diagonal=diag,
        hm_lambda=hm_l,
        hm_diag=hm_d,
        indefinite=indefinite,
        satisfies_eig_diag=bool(hm_l <= hm_d + 1e-12),
    )
