"""Acceptance criteria.

Each test exercises one end-to-end claim at its pinned tolerance and prints a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
The expected values are closed forms or quantities produced by the
independent oracles asserted throughout the rest of the suite.
"""

import math
import time

import numpy as np

from pdeopt import analysis, optimizers, pde_lab
from pdeopt.config import parse_config
from pdeopt.experiments import run_experiment
from pdeopt.grid import GridFunction, gaussian_density, gradient, interior_max_second_difference
from pdeopt.objectives import (
    get_entry,
    global_minimum,
    make_double_well,
    make_quadratic,
    make_rugged_1d,
)
from pdeopt.rng import substream


def report(idx: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {idx:2d} [{'PASS' if ok else 'FAIL'}] {detail}")


def test_01_quadratic_closed_form():
    """Log-transformed heat quadrature reproduces the quadratic closed form."""
    t0 = time.perf_counter()
    q = make_quadratic(1.0, 0.0, 1)
    grid = GridFunction.geometry([-2.0], [2.0], [2049])
    cfg = pde_lab.PdeSolveConfig(beta_inv=0.1, t_final=0.5)
    u = pde_lab.solve_viscous_hj_cole_hopf(q, cfg, grid)
    xs = grid.axes()[0]
    exact = xs**2 / (2 * (0.5 + 1.0)) + 0.05 * math.log(1.5)
    middle = np.abs(xs) <= 1.0
    err = float(np.abs(u.values - exact)[middle].max())
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-6 and elapsed < 5.0
    report(1, ok, f"closed-form quadratic: Linf={err:.2e} (tol 1e-6), {elapsed:.2f}s (< 5s)")
    assert err <= 1e-6
    assert elapsed < 5.0


def test_02_solver_cross_validation():
    """Monotone FD converges to the quadrature solution at order >= 0.9."""
    t0 = time.perf_counter()
    obj = make_rugged_1d(7, 5)
    lo, hi = -3.0, 3.0
    errs, hs = [], []
    for n in (257, 513, 1025):
        h = (hi - lo) / (n - 1)
        pad = int(round(0.25 * (hi - lo) / h))
        grid_pad = GridFunction.geometry([lo - pad * h], [hi + pad * h], [n + 2 * pad])
        cfg = pde_lab.PdeSolveConfig(beta_inv=0.1, t_final=0.5, scheme="monotone_fd")
        ufd = pde_lab.solve_hj_monotone_fd(obj, cfg, grid_pad)
        grid = GridFunction.geometry([lo], [hi], [n])
        uch = pde_lab.solve_viscous_hj_cole_hopf(
            obj, pde_lab.PdeSolveConfig(beta_inv=0.1, t_final=0.5), grid)
        errs.append(float(np.abs(ufd.array[pad : pad + n] - uch.values).max()))
        hs.append(h)
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    decreasing = errs[0] > errs[1] > errs[2]
    ok = order >= 0.9 and decreasing and elapsed < 30.0
    report(2, ok, f"FD vs quadrature on rugged: errs={['%.4f' % e for e in errs]}, "
                  f"order={order:.3f} (>= 0.9), {elapsed:.1f}s (< 30s)")
    assert decreasing
    assert order >= 0.9
    assert elapsed < 30.0


def test_03_homogenization_limit():
    """Averaged inner drift matches the smoothed gradient as eps -> 0."""
    dw = make_double_well(1.0)
    probes = [-1.6, -1.35, -0.75, -0.55, -0.35, 0.35, 0.55, 0.75, 1.35, 1.6]
    table = analysis.verify_homogenization(
        dw, probes, gamma=0.3, beta_inv=1e-8,
        epsilons=[1e-1, 1e-2, 1e-3], n_seeds=32, seed=0)
    finest = table.rows[-1]
    monotone = table.is_monotone(n_stderr=2.0)
    ok = finest.max_rel_deviation <= 0.05 and monotone
    report(3, ok, f"homogenization: max rel dev at eps=1e-3 is "
                  f"{finest.max_rel_deviation:.2e} (tol 5e-2), monotone={monotone}")
    assert finest.max_rel_deviation <= 0.05
    assert monotone


def test_04_invariant_measure_closed_form():
    """Sampled coupled-Gibbs moments match the Gaussian closed form."""
    t0 = time.perf_counter()
    q = make_quadratic(1.0, 0.0, 1)
    est = analysis.sample_invariant_measure(
        q, np.array([2.0]), gamma=1.0, beta_inv=1.0,
        n_steps=1_000_000, burn_in=2000, seed=42)
    elapsed = time.perf_counter() - t0
    dev_mean = abs(est.mean[0] - 1.0)
    dev_var = abs(est.covariance[0, 0] - 0.5)
    ok = (est.n_samples >= 1_000_000 and dev_mean <= 3 * est.mean_stderr[0]
          and dev_var <= 3 * est.variance_stderr[0] and elapsed < 60.0)
    report(4, ok, f"invariant measure: mean={est.mean[0]:.4f} (1.0 +- {3*est.mean_stderr[0]:.4f}), "
                  f"var={est.covariance[0,0]:.4f} (0.5 +- {3*est.variance_stderr[0]:.4f}), "
                  f"n={est.n_samples}, {elapsed:.1f}s (< 60s)")
    assert est.n_samples >= 1_000_000
    assert dev_mean <= 3 * est.mean_stderr[0]
    assert dev_var <= 3 * est.variance_stderr[0]
    assert elapsed < 60.0


def test_05_control_improvement():
    """Drift-controlled descent beats plain descent by at least the control cost."""
    t0 = time.perf_counter()
    dw = make_double_well(1.0)
    grid = GridFunction.geometry([-2.5], [2.5], [1025])
    comp = analysis.control_improvement_experiment(
        dw, dw.value_batch, T=2.0, beta_inv=0.2, n_paths=10_000, seed=11,
        x0=np.array([0.0]), grid=grid)
    elapsed = time.perf_counter() - t0
    ok = comp.improvement_holds and comp.strict_gap and elapsed < 300.0
    report(5, ok, f"control improvement: E[V_plain]-E[V_ctrl]={comp.gap:.4f} "
                  f"(> {3*comp.gap_stderr:.4f}), margin after energy "
                  f"{comp.bound_margin:.4f} >= {-3*comp.bound_margin_stderr:.4f}, "
                  f"{elapsed:.0f}s (< 300s)")
    assert comp.improvement_holds           # E[V_c] + energy <= E[V_p] + 3 se
    assert comp.strict_gap                  # E[V_c] < E[V_p] by > 3 se
    assert elapsed < 300.0


def test_06_semiconcavity_bounds():
    """Smoothed rugged loss obeys the 1/t curvature bound at three times."""
    obj = make_rugged_1d(7, 5)
    grid = GridFunction.geometry([-3.0], [3.0], [1025])
    h = grid.spacing[0]
    violations = 0
    worst = []
    for t in (0.1, 0.2, 0.5):
        cfg = pde_lab.PdeSolveConfig(beta_inv=0.1, t_final=t)
        u = pde_lab.solve_viscous_hj_cole_hopf(obj, cfg, grid)
        m = interior_max_second_difference(u)
        worst.append(f"t={t}: {m:.3f} <= {1/t + 10*h:.3f}")
        if m > 1.0 / t + 10 * h:
            violations += 1
    ok = violations == 0
    report(6, ok, "semiconcavity: " + "; ".join(worst) + f"; violations={violations}")
    assert violations == 0


def test_07_spectral_bounds():
    """Harmonic-mean comparisons hold on random SPD matrices and vectors."""
    rng = substream(123, "acceptance-spectrum")
    hm_violations = 0
    for _ in range(100):
        A = rng.standard_normal((8, 8))
        spd = A @ A.T + 0.1 * np.eye(8)
        if analysis.harmonic_mean(np.linalg.eigvalsh(spd)) > \
           analysis.harmonic_mean(np.diag(spd)) + 1e-12:
            hm_violations += 1
    sandwich_violations = 0
    for _ in range(100):
        v = rng.uniform(0.05, 10.0, size=int(rng.integers(2, 12)))
        hm = analysis.harmonic_mean(v)
        if not (v.min() - 1e-12 <= hm <= len(v) * v.min() + 1e-12):
            sandwich_violations += 1
    ok = hm_violations == 0 and sandwich_violations == 0
    report(7, ok, f"spectral bounds: HM(eig)<=HM(diag) violations={hm_violations}/100, "
                  f"sandwich violations={sandwich_violations}/100")
    assert hm_violations == 0
    assert sandwich_violations == 0


def test_08_terminal_density_ordering():
    """Mass near the global minimum: viscous >= non-viscous >= plain gradient."""
    t0 = time.perf_counter()
    entry = get_entry("rugged_s3_m6")
    obj = entry.objective
    lo, hi = entry.domain_box
    grid = GridFunction.geometry(lo, hi, [513])
    x_star = float(global_minimum(entry)[0])
    width = float(hi[0] - lo[0])
    t_smooth, beta_inv_smooth, beta_inv_fp, horizon = 1.0, 0.2, 0.02, 6.0
    cfg = pde_lab.PdeSolveConfig(beta_inv=beta_inv_smooth, t_final=t_smooth)
    drift_visc = gradient(pde_lab.solve_viscous_hj_cole_hopf(obj, cfg, grid))
    drift_hl = gradient(pde_lab.solve_hj_hopf_lax(obj, t_smooth, grid))
    drift_f = grid.with_values(obj.grad_batch(grid.points())[:, 0])
    rho0 = gaussian_density(grid, [0.5 * (lo[0] + hi[0])], (0.3 * width) ** 2)
    xs = grid.axes()[0]
    mask = np.abs(xs - x_star) <= 0.1 * width
    w = np.gradient(xs)

    def mass(drift):
        rho = pde_lab.evolve_fokker_planck(drift, rho0, beta_inv_fp, horizon)
        return float((rho.values * w * mask).sum())

    m_visc, m_hl, m_f = mass(drift_visc), mass(drift_hl), mass(drift_f)
    elapsed = time.perf_counter() - t0
    ok = m_visc >= m_hl + 0.02 and m_hl >= m_f + 0.02 and elapsed < 60.0
    report(8, ok, f"terminal densities: viscous={m_visc:.3f} >= non-viscous={m_hl:.3f}+0.02 "
                  f">= plain={m_f:.3f}+0.02, {elapsed:.1f}s (< 60s)")
    assert m_visc >= m_hl + 0.02
    assert m_hl >= m_f + 0.02
    assert elapsed < 60.0


def test_09_elastic_entropy_equivalence():
    """Stationary center means of the worker and single-chain variants agree."""
    q = make_quadratic(1.0, -0.7, 1)  # minimum at 0.7
    x0 = np.array([0.7])              # start at the minimum: no transient bias
    kw = dict(L=10, gamma0=1.0, gamma1=0.0, beta_inv_ex=0.05,
              eta=0.05, eta_y=0.1, alpha=0.75, delta=0.0)
    n_outer, discard = 300, 100

    def stationary_mean(algo, seed):
        cfg = optimizers.default_config(algo, **(kw | ({"n_workers": 8} if algo == "elastic" else {})))
        st = optimizers.init_state(q, x0, cfg, seed, algo)
        xs = np.empty(n_outer)
        for outer in range(n_outer):
            for _ in range(cfg.L):
                optimizers.step(st, q, cfg, algo)
            xs[outer] = st.x[0, 0]
        return xs[discard:].mean()

    means_en = np.array([stationary_mean("entropy_sgd", 1000 + s) for s in range(32)])
    means_el = np.array([stationary_mean("elastic", 2000 + s) for s in range(32)])
    se = math.hypot(means_en.std(ddof=1) / math.sqrt(32), means_el.std(ddof=1) / math.sqrt(32))
    diff = abs(means_en.mean() - means_el.mean())
    ok = diff <= 2.0 * se
    report(9, ok, f"elastic vs entropy stationary means: {means_el.mean():.5f} vs "
                  f"{means_en.mean():.5f}, |diff|={diff:.5f} <= 2se={2*se:.5f}")
    assert diff <= 2.0 * se


def test_10_optimizer_benchmark(tmp_path):
    """Equal-budget benchmark: smoothing variants match or beat plain SGD."""
    t0 = time.perf_counter()
    cfg = parse_config(overrides={
        "kind": "compare", "objective": "mlp_h8_n200", "seed": 100,
        "algos": "sgd,entropy_sgd,hj", "budget": 200_000, "repeats": 6,
        "batch_size": 32, "out": str(tmp_path / "bench"),
    })
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    by = {r["algorithm"]: r for r in result.summary["rows"]}
    bar = by["sgd"]["final_loss_mean"] + by["sgd"]["final_loss_std"]
    ok = result.passed and elapsed < 600.0
    report(10, ok, f"equal-budget benchmark: sgd={by['sgd']['final_loss_mean']:.4f}"
                   f"+-{by['sgd']['final_loss_std']:.4f}, "
                   f"entropy={by['entropy_sgd']['final_loss_mean']:.4f}, "
                   f"hj={by['hj']['final_loss_mean']:.4f}, bar={bar:.4f}, "
                   f"{elapsed:.0f}s (< 600s)")
    assert by["entropy_sgd"]["final_loss_mean"] <= bar
    assert by["hj"]["final_loss_mean"] <= bar
    assert result.passed
    assert elapsed < 600.0
