"""Acceptance criteria.

Each test exercises one end-to-end claim at its pinned tolerance and prints a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
The expected values are closed forms or quantities produced by the
independent oracles asserted throughout the rest of the suite.

Criteria 3, 4, 7, 8 and 10 run the experiment kind that reports the claim,
exactly as the CLI would, and assert on its ``summary["checks"]``.  The
others call the library: 1, 2, 6 and 9 have no kind, and 5 needs a wider
box, [-2.5, 2.5], than the ``control`` kind's corpus box [-2, 2].
"""

import math
import time

import numpy as np
import pytest

from pdeopt import analysis, optimizers, pde_lab
from pdeopt.config import parse_config
from pdeopt.experiments import run_experiment
from pdeopt.grid import GridFunction, interior_max_second_difference
from pdeopt.objectives import DoubleWell, Rugged1D, make_quadratic


def report(idx: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {idx:2d} [{'PASS' if ok else 'FAIL'}] {detail}")


def run_kind(tmp_path, kind: str, **keys) -> dict:
    """Run an experiment kind as the CLI would, at its defaults except
    ``keys``; its run directory must hold a manifest and a summary."""
    result = run_experiment(parse_config(overrides={"kind": kind, "out": str(tmp_path / kind), **keys}))
    assert (result.out_dir / "manifest.json").exists()
    assert (result.out_dir / "summary.json").exists()
    return result.summary


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
    obj = Rugged1D(7, 5)
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


def test_03_homogenization_limit(tmp_path):
    """Averaged inner drift matches the smoothed gradient as eps -> 0."""
    summary = run_kind(tmp_path, "homogenization")
    checks = summary["checks"]
    finest = summary["rows"][-1]["max_rel_deviation"]
    ok = summary["passed"]
    report(3, ok, f"homogenization: max rel dev at eps=1e-3 is {finest:.2e} (tol 5e-2), "
                  f"monotone={checks['deviation_monotone_in_eps']}")
    assert checks["finest_eps_within_tolerance"]
    assert checks["deviation_monotone_in_eps"]


def test_04_invariant_measure_closed_form(tmp_path):
    """Sampled coupled-Gibbs moments match the Gaussian closed form."""
    t0 = time.perf_counter()
    summary = run_kind(tmp_path, "invariant_measure", seed=42)
    elapsed = time.perf_counter() - t0
    checks = summary["checks"]
    ok = summary["passed"] and summary["n_samples"] >= 1_000_000 and elapsed < 60.0
    report(4, ok, f"invariant measure: mean={summary['mean'][0]:.4f} (1.0), "
                  f"var={summary['variance'][0]:.4f} (0.5), within 3 stderr: "
                  f"{checks['mean_within_3_stderr']}/{checks['variance_within_3_stderr']}, "
                  f"n={summary['n_samples']}, {elapsed:.1f}s (< 60s)")
    # the kind's closed form is the Gaussian of beta (Q + I/gamma) at x = 2
    assert summary["closed_form_mean"] == pytest.approx([1.0], abs=1e-14)
    assert summary["closed_form_variance"] == pytest.approx([0.5], abs=1e-14)
    assert summary["n_samples"] >= 1_000_000
    assert checks["mean_within_3_stderr"]
    assert checks["variance_within_3_stderr"]
    assert elapsed < 60.0


def test_05_control_improvement():
    """Drift-controlled descent beats plain descent by at least the control cost."""
    t0 = time.perf_counter()
    dw = DoubleWell(1.0)
    grid = GridFunction.geometry([-2.5], [2.5], [1025])
    comp = analysis.control_improvement_experiment(
        dw, T=2.0, beta_inv=0.2, n_paths=10_000, seed=11,
        x0=np.array([0.0]), grid=grid)
    elapsed = time.perf_counter() - t0
    ok = comp.improvement_holds and comp.strict_gap and elapsed < 300.0
    (gap, gap_se), (margin, margin_se) = comp.stats["gap"], comp.stats["bound_margin"]
    report(5, ok, f"control improvement: E[V_plain]-E[V_ctrl]={gap:.4f} "
                  f"(> {3*gap_se:.4f}), margin after energy "
                  f"{margin:.4f} >= {-3*margin_se:.4f}, "
                  f"{elapsed:.0f}s (< 300s)")
    assert comp.improvement_holds           # E[V_c] + energy <= E[V_p] + 3 se
    assert comp.strict_gap                  # E[V_c] < E[V_p] by > 3 se
    assert elapsed < 300.0


def test_06_semiconcavity_bounds():
    """Smoothed rugged loss obeys the 1/t curvature bound at three times."""
    obj = Rugged1D(7, 5)
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


def test_07_spectral_bounds(tmp_path):
    """Harmonic-mean comparisons hold on random SPD matrices and vectors."""
    summary = run_kind(tmp_path, "spectrum", seed=123)
    hm, sandwich = summary["hm_violations"], summary["sandwich_violations"]
    ok = summary["passed"]
    report(7, ok, f"spectral bounds: HM(eig)<=HM(diag) violations={hm}/100, "
                  f"sandwich violations={sandwich}/100")
    assert summary["n_random"] == 100
    assert summary["checks"]["hm_eig_le_hm_diag"]
    assert summary["checks"]["hm_sandwich"]


def test_08_terminal_density_ordering(tmp_path):
    """Mass near the global minimum: viscous >= non-viscous >= plain gradient."""
    t0 = time.perf_counter()
    summary = run_kind(tmp_path, "figure1")
    elapsed = time.perf_counter() - t0
    checks = summary["checks"]
    m_visc, m_hl, m_f = summary["mass_viscous"], summary["mass_nonviscous"], summary["mass_sgd"]
    ok = summary["passed"] and elapsed < 60.0
    report(8, ok, f"terminal densities: viscous={m_visc:.3f} >= non-viscous={m_hl:.3f}+0.02 "
                  f">= plain={m_f:.3f}+0.02, {elapsed:.1f}s (< 60s)")
    assert checks["viscous_beats_nonviscous"]
    assert checks["nonviscous_beats_sgd"]
    assert elapsed < 60.0


def test_09_elastic_entropy_equivalence():
    """Stationary center means of the worker and single-chain variants agree."""
    q = make_quadratic(1.0, -0.7, 1)  # minimum at 0.7
    x0 = np.array([0.7])              # start at the minimum: no transient bias
    kw = dict(L=10, gamma0=1.0, gamma1=0.0, beta_inv_ex=0.05,
              eta=0.05, eta_y=0.1, alpha=0.75, delta=0.0)
    n_outer, discard = 300, 100

    def stationary_means(algo, seed):
        # the 32 seeds seed ... seed+31 run as rows of one state
        cfg = optimizers.default_config(algo, **(kw | ({"n_workers": 8} if algo == "elastic" else {})))
        st = optimizers.init_state(q, x0, cfg, seed, algo, repeats=32)
        xs = np.empty((32, n_outer))
        for outer in range(n_outer):
            for _ in range(cfg.L):
                optimizers.step(st)
            xs[:, outer] = st.x[:, 0]
        return xs[:, discard:].mean(axis=1)

    means_en = stationary_means("entropy_sgd", 1000)
    means_el = stationary_means("elastic", 2000)
    se = math.hypot(means_en.std(ddof=1) / math.sqrt(32), means_el.std(ddof=1) / math.sqrt(32))
    diff = abs(means_en.mean() - means_el.mean())
    ok = diff <= 2.0 * se
    report(9, ok, f"elastic vs entropy stationary means: {means_el.mean():.5f} vs "
                  f"{means_en.mean():.5f}, |diff|={diff:.5f} <= 2se={2*se:.5f}")
    assert diff <= 2.0 * se


def test_10_optimizer_benchmark(tmp_path):
    """Equal-budget benchmark: smoothing variants match or beat plain SGD."""
    t0 = time.perf_counter()
    summary = run_kind(tmp_path, "compare", objective="mlp_h8_n200", seed=100,
                       algos="sgd,entropy_sgd,hj", budget=200_000, repeats=6, batch_size=32)
    elapsed = time.perf_counter() - t0
    by = {r["algorithm"]: r for r in summary["rows"]}
    bar = by["sgd"]["final_loss_mean"] + by["sgd"]["final_loss_std"]
    ok = summary["passed"] and elapsed < 600.0
    report(10, ok, f"equal-budget benchmark: sgd={by['sgd']['final_loss_mean']:.4f}"
                   f"+-{by['sgd']['final_loss_std']:.4f}, "
                   f"entropy={by['entropy_sgd']['final_loss_mean']:.4f}, "
                   f"hj={by['hj']['final_loss_mean']:.4f}, bar={bar:.4f}, "
                   f"{elapsed:.0f}s (< 600s)")
    assert by["entropy_sgd"]["final_loss_mean"] <= bar
    assert by["hj"]["final_loss_mean"] <= bar
    assert summary["passed"]
    assert elapsed < 600.0
