"""Numerical verification of the theory behind the smoothing optimizers.

Checks implemented here, each backed by an independent oracle:

* the stationary measure of the inner (coupled) dynamics against its
  Gaussian closed form on quadratics,
* the two-timescale limit: the averaged inner iterate reproduces the
  gradient of the inf-convolution smoothed loss as the scale separation
  shrinks,
* the controlled-descent improvement inequality
  E[V(x_ctrl(T))] + (1/2) E int |alpha|^2 <= E[V(x_plain(T))]
  with common random numbers,
* harmonic-mean spectral bounds HM(eigs) <= HM(diag) for SPD Hessians.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction
from .objectives import Objective
from .optimizers import OptimizerConfig, init_state, step
from .pde_lab import ControlField, prox_point, solve_hjb_backward
from .rng import substream

Array = np.ndarray


# ---------------------------------------------------------------------------
# autocorrelation


def integrated_autocorrelation_time(series: Array, c: float = 5.0) -> float:
    """Integrated autocorrelation time with automatic windowing.

    Uses the smallest window M with M >= c * tau(M); returns 1.0 for
    uncorrelated or constant series.
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
    for m in range(1, n):
        if m >= c * taus[m]:
            return float(max(taus[m], 1.0))
    return float(max(taus[-1], 1.0))


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


def sample_invariant_measure(objective: Objective, x, gamma: float, beta_inv: float,
                             n_steps: int, burn_in: int, seed: int,
                             n_chains: int = 32, step_size: float = 5e-3) -> InvariantMeasureEstimate:
    """Long-run overdamped Langevin sampling of the coupled Gibbs measure
    rho(y) ~ exp(-beta [f(y) + |y - x|^2 / (2 gamma)]) at fixed x.

    ``n_steps`` counts total post-burn-in samples across ``n_chains``
    independent chains; error bars come from the spread of per-chain
    statistics.  Divergence (|y| > 1e6) aborts, signalling that gamma is too
    large for the local convexity of f.
    """
    if burn_in >= n_steps:
        raise ValueError("burn_in must be smaller than n_steps")
    if gamma <= 0 or beta_inv < 0:
        raise ValueError("gamma must be positive and beta_inv >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dim = objective.dim
    rng = substream(seed, "invariant-measure")
    kept_per_chain = max(2, int(math.ceil(n_steps / n_chains)))
    y = np.tile(x, (n_chains, 1)) + 0.01 * rng.standard_normal((n_chains, dim))
    noise_amp = math.sqrt(2.0 * step_size * beta_inv)
    samples = np.empty((kept_per_chain, n_chains, dim))
    total = burn_in + kept_per_chain
    for it in range(total):
        drift = objective.grad_batch(y) + (y - x) / gamma
        y = y - step_size * drift
        if beta_inv > 0:
            y = y + noise_amp * rng.standard_normal((n_chains, dim))
        if it % 256 == 0 and float(np.abs(y).max()) > 1e6:
            raise RuntimeError("inner dynamics diverged: gamma too large for the local convexity")
        if it >= burn_in:
            samples[it - burn_in] = y
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
    if gamma <= 0 or beta <= 0:
        raise ValueError("gamma and beta must be positive")
    Sigma_shape = _spd_inverse(Q + np.eye(n) / gamma)
    return QuadraticMeasure(mean=x - Sigma_shape @ (p + Q @ x), covariance=Sigma_shape / beta)


def _spd_inverse(A: Array) -> Array:
    eig = np.linalg.eigvalsh(A)
    if eig.min() <= 0:
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
    probes: Array
    reference_grad: Array          # d/dx of the smoothed loss at the probes
    rows: list[HomogenizationRow]
    drifts: Array                  # (n_eps, n_probes) seed-averaged drift estimates
    drift_samples: Array           # (n_eps, n_probes, n_seeds) raw drift estimates
    ergodic: bool = True

    def is_monotone(self, n_stderr: float = 2.0) -> bool:
        """Deviation non-increasing as epsilon shrinks, up to noise."""
        for a, b in zip(self.rows, self.rows[1:]):
            slack = n_stderr * math.hypot(a.stderr, b.stderr)
            if b.mean_abs_deviation > a.mean_abs_deviation + slack:
                return False
        return True


def verify_homogenization(objective: Objective, probes, gamma: float, beta_inv: float,
                          epsilons, n_seeds: int = 32, seed: int = 0,
                          eta_y: float = 0.1, alpha: float = 0.75) -> HomogenizationTable:
    """Compare the averaged-inner-iterate drift against the smoothed-loss
    gradient for a sweep of time-scale separations.

    Each epsilon maps to L = round(1/epsilon) inner steps.  The drift is
    measured from one outer update of the entropy optimizer started at each
    probe, averaged over seeds; the reference is (x - prox(x)) / gamma, the
    exact gradient of the inf-convolution at scale gamma.
    """
    if objective.dim != 1:
        raise ValueError("homogenization verification is one-dimensional")
    probes = np.atleast_1d(np.asarray(probes, dtype=float))
    epsilons = sorted(float(e) for e in np.atleast_1d(epsilons))[::-1]  # large -> small
    ref = np.array([prox_point(objective, np.array([p]), gamma).grad_u[0] for p in probes])

    rows: list[HomogenizationRow] = []
    all_drifts = np.empty((len(epsilons), len(probes)))
    all_samples = np.empty((len(epsilons), len(probes), n_seeds))
    ergodic = True
    for ei, eps in enumerate(epsilons):
        L = max(1, int(round(1.0 / eps)))
        cfg = OptimizerConfig(eta=0.1, eta_y=eta_y, L=L, gamma0=gamma, gamma1=0.0,
                              beta_inv_ex=beta_inv, alpha=alpha, delta=0.0)
        devs = np.empty((len(probes), n_seeds))
        drift_mean = np.empty(len(probes))
        for pi, p in enumerate(probes):
            # the seeds seed*1000 + s are the rows of one state
            state = init_state(objective, np.array([p]), cfg, seed=seed * 1000, algo="entropy_sgd",
                               repeats=n_seeds)
            y_trace = np.empty(L)
            for li in range(L):
                y_trace[li] = state.rows[0, 0]
                step(state, objective, cfg, "entropy_sgd")
            drifts = (state.x[:, 0] - p) / cfg.eta
            if ei == len(epsilons) - 1 and pi == 0 and beta_inv > 0:
                if integrated_autocorrelation_time(y_trace) > L:
                    ergodic = False
            devs[pi] = np.abs(drifts - (-ref[pi]))
            drift_mean[pi] = drifts.mean()
            all_samples[ei, pi] = drifts
        all_drifts[ei] = drift_mean
        per_seed = devs.mean(axis=0)     # mean over probes, one value per seed
        denom = np.maximum(np.abs(ref), 1e-12)
        rel = np.abs(drift_mean + ref) / denom
        rows.append(HomogenizationRow(
            epsilon=eps,
            inner_steps=L,
            mean_abs_deviation=float(per_seed.mean()),
            stderr=float(per_seed.std(ddof=1) / math.sqrt(n_seeds)) if n_seeds > 1 else 0.0,
            mean_rel_deviation=float(rel.mean()),
            max_rel_deviation=float(rel.max()),
        ))
    if not ergodic:
        warnings.warn("inner dynamics may be non-ergodic: autocorrelation time exceeds the run length")
    return HomogenizationTable(probes=probes, reference_grad=ref, rows=rows,
                               drifts=all_drifts, drift_samples=all_samples, ergodic=ergodic)


# ---------------------------------------------------------------------------
# controlled descent improvement


@dataclass
class ControlComparison:
    terminal_ctrl: float
    terminal_ctrl_stderr: float
    terminal_plain: float
    terminal_plain_stderr: float
    control_energy: float
    control_energy_stderr: float
    n_paths: int
    exit_fraction: float
    gap: float                 # E[V(plain)] - E[V(ctrl)], positive is better
    gap_stderr: float
    bound_margin: float        # gap - (1/2) E int |alpha|^2 (>= 0 up to noise)
    bound_margin_stderr: float

    @property
    def improvement_holds(self) -> bool:
        return self.bound_margin >= -3.0 * self.bound_margin_stderr

    @property
    def strict_gap(self) -> bool:
        return self.gap > 3.0 * self.gap_stderr


def control_improvement_experiment(objective: Objective, terminal_fn, T: float,
                                   beta_inv: float, n_paths: int, seed: int,
                                   x0, grid: GridFunction, dt: float = 1e-3,
                                   n_batches: int = 20,
                                   control: ControlField | None = None) -> ControlComparison:
    """Paired simulation of plain vs drift-controlled noisy descent.

    The control alpha(x, s) is the gradient of the backward value function
    for terminal cost V, solved on ``grid``; both dynamics consume identical
    Brownian increments (common random numbers), so the comparison
    E[V(ctrl)] + (1/2) E int |alpha|^2 <= E[V(plain)] is tested at small
    variance.  Paths are reflected at the box walls; if more than 1% of paths
    ever exit, the run is invalid and raises.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dim = objective.dim
    rng = substream(seed, "control-paths")
    if control is None and T > 0:
        control = solve_hjb_backward(objective, terminal_fn, T, beta_inv, grid)
    xc = np.tile(x0, (n_paths, 1))
    xp = xc.copy()
    energy = np.zeros(n_paths)
    exited = np.zeros(n_paths, dtype=bool)
    lo, hi = grid.lower, grid.upper
    n_steps = int(round(T / dt)) if T > 0 else 0
    amp = math.sqrt(dt * beta_inv)
    for kstep in range(n_steps):
        s = kstep * dt
        a = control.alpha(xc, s)
        xi = rng.standard_normal((n_paths, dim))
        energy += 0.5 * (a * a).sum(axis=1) * dt
        xc = xc + dt * (-objective.grad_batch(xc) - a) + amp * xi
        xp = xp + dt * (-objective.grad_batch(xp)) + amp * xi
        for arr in (xc, xp):
            over = arr > hi
            under = arr < lo
            if over.any() or under.any():
                exited |= over.any(axis=1) | under.any(axis=1)
                np.copyto(arr, np.where(over, 2 * hi - arr, arr))
                np.copyto(arr, np.where(under, 2 * lo - arr, arr))
    exit_fraction = float(exited.mean())
    if exit_fraction > 0.01:
        raise RuntimeError(f"{exit_fraction:.1%} of paths left the box; enlarge the grid")
    v_ctrl = np.asarray(terminal_fn(xc), dtype=float)
    v_plain = np.asarray(terminal_fn(xp), dtype=float)

    def batch_stats(values):
        b = np.array_split(values, n_batches)
        means = np.array([chunk.mean() for chunk in b])
        return float(values.mean()), float(means.std(ddof=1) / math.sqrt(len(means)))

    t_c, se_c = batch_stats(v_ctrl)
    t_p, se_p = batch_stats(v_plain)
    en, se_en = batch_stats(energy)
    gap, se_gap = batch_stats(v_plain - v_ctrl)
    margin, se_margin = batch_stats(v_plain - v_ctrl - energy)
    return ControlComparison(
        terminal_ctrl=t_c, terminal_ctrl_stderr=se_c,
        terminal_plain=t_p, terminal_plain_stderr=se_p,
        control_energy=en, control_energy_stderr=se_en,
        n_paths=n_paths, exit_fraction=exit_fraction,
        gap=gap, gap_stderr=se_gap,
        bound_margin=margin, bound_margin_stderr=se_margin,
    )


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
    am_lambda: float
    c_axes: Array
    c_lap: float
    indefinite: bool
    satisfies_eig_diag: bool
    hm_bound: float | None = None
    satisfies_hm_bound: bool | None = None


def spectrum_summary(objective: Objective, x_star, t: float | None = None,
                     C=None) -> SpectrumSummary:
    """Hessian eigenvalue/diagonal summary at a local minimum.

    Asserts the harmonic-mean comparison HM(eigs) <= HM(diag); when the
    smoothing scale ``t`` and initial per-axis curvature bounds ``C`` are
    supplied, also evaluates the smoothed bound HM(eigs) <= 1/(t + HM(C)^-1).
    An indefinite Hessian triggers a warning and restricts the harmonic
    means to the positive part.
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
    summary = SpectrumSummary(
        eigenvalues=np.sort(eigs),
        diagonal=diag,
        hm_lambda=hm_l,
        hm_diag=hm_d,
        am_lambda=float(eigs.mean()),
        c_axes=diag.copy(),
        c_lap=float(np.trace(H)),
        indefinite=indefinite,
        satisfies_eig_diag=bool(hm_l <= hm_d + 1e-12),
    )
    if t is not None and C is not None:
        hm_c = harmonic_mean(C)
        summary.hm_bound = 1.0 / (t + 1.0 / hm_c)
        summary.satisfies_hm_bound = bool(summary.hm_lambda <= summary.hm_bound + 1e-12)
    return summary
