"""Experiment drivers: dispatch configs, write artifacts, check assertions.

``run_experiment`` resolves the objective once (``get_entry`` refuses an
empty or unknown name; only ``spectrum`` runs without one, on None) and calls
the kind's runner on the config and that corpus entry.  The runner returns
``(summary, files)``: the summary with its per-check booleans, and a map from
file name to a writer of that path (run CSVs, tables, grids, ``plot.svg``).
``run_experiment`` alone sets ``kind`` and ``passed``, then creates the run
directory and writes the files, ``manifest.json`` and ``summary.json``, so a
run a solver refuses leaves no directory.  All randomness flows from the
single config seed through named sub-streams.
"""

from __future__ import annotations

import json
import time
from dataclasses import astuple, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis, optimizers, pde_lab
from .config import KINDS, OPTIMIZER_KEYS, PER_ALGORITHM, ExperimentConfig, write_manifest
from .grid import GridFunction, gaussian_density, gradient
from .objectives import Quadratic, TestCorpusEntry, get_entry, global_minimum
from .plotting import emit_plot
from .rng import substream

@dataclass
class ExperimentResult:
    passed: bool
    summary: dict
    out_dir: Path | None


# Benchmark settings for equal-budget comparisons, tuned per algorithm on the
# tiny-MLP objective (each algorithm gets its own reasonable step sizes; the
# gradient budget is what is held fixed).  Scoping stays on for the entropy
# variants; the zero-viscosity variants keep gamma fixed so the inner iterate
# keeps averaging gradients instead of collapsing onto the last one.
COMPARE_TUNING = {
    "sgd": dict(eta=0.1),
    "entropy_sgd": dict(eta=0.5, eta_y=0.1, gamma0=0.1, gamma1=1e-3, alpha=0.75),
    "elastic": dict(eta=0.5, eta_y=0.1, gamma0=0.1, gamma1=1e-3, alpha=0.75),
    "hj": dict(eta=0.4, eta_y=0.025, gamma0=0.1, gamma1=0.0),
    "hj2": dict(eta=0.4, eta_y=0.025, gamma0=0.1, gamma1=0.0),
    "heat": dict(eta=0.3, gamma0=0.01, gamma1=0.0),
}

def _optimizer_config(cfg: ExperimentConfig, algo: str, tuned: bool = False) -> optimizers.OptimizerConfig:
    # explicit config keys win over the benchmark tuning, which wins over
    # the per-algorithm defaults
    overrides = dict(COMPARE_TUNING.get(algo, {})) if tuned else {}
    overrides.update((k, v) for k in OPTIMIZER_KEYS if (v := cfg.param(k)) != PER_ALGORITHM)
    return optimizers.default_config(algo, **overrides)


def _grid_for(entry, n: int) -> GridFunction:
    lo, hi = entry.domain_box
    return GridFunction.geometry(lo, hi, [n] * len(np.atleast_1d(lo)))


def _table(header, rows):
    """A writer of a CSV table: a string as is, an int by ``str``, any other
    number by ``repr(float(v))``."""
    def cell(v) -> str:
        return v if isinstance(v, str) else str(v) if isinstance(v, (int, np.integer)) else repr(float(v))

    def write(path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(map(cell, row)) + "\n")
    return write


# ---------------------------------------------------------------------------
# kinds


def _run_optimize(cfg: ExperimentConfig, entry: TestCorpusEntry) -> tuple[dict, dict]:
    algo = cfg.param("algo")
    ocfg = _optimizer_config(cfg, algo)
    repeats = cfg.param("repeats")
    # `--out foo.csv` names the run file directly (seed-suffixed for repeats)
    out = cfg.param("out")
    stem = Path(out).stem if out and out.endswith(".csv") else None

    records = optimizers.run(algo, entry.objective, ocfg, cfg.param("seed"), cfg.param("steps"),
                             record_every=cfg.param("record_every"), repeats=repeats)
    files = {}
    for rec in records:
        name = f"run_{rec.seed}" if stem is None else stem if repeats == 1 else f"{stem}_{rec.seed}"
        files[f"{name}.csv"] = rec.to_csv
    series = [(f"seed {r.seed}", r.column("effective_epoch"), r.column("loss")) for r in records]
    files["plot.svg"] = partial(emit_plot, series, title=f"{algo} on {entry.name}",
                                xlabel="effective epochs", ylabel="loss")
    finals = np.array([r.final_loss for r in records])
    aborted = any(r.aborted for r in records)
    return {
        "algo": algo, "objective": entry.name,
        "final_loss_mean": float(finals.mean()), "final_loss_std": float(finals.std(ddof=1)) if len(finals) > 1 else 0.0,
        "checks": {"no_abort": not aborted},
    }, files


def _run_compare(cfg: ExperimentConfig, entry: TestCorpusEntry) -> tuple[dict, dict]:
    algos = cfg.param("algos")
    budget = cfg.param("budget")
    record_every_base = cfg.param("record_every")
    seed, repeats = cfg.param("seed"), cfg.param("repeats")
    specs, grads = [], 0
    for algo in sorted(algos):
        ocfg = _optimizer_config(cfg, algo, tuned=True)
        # an outer step costs L gradients per repeat (per worker for elastic)
        grads_per_outer = ocfg.L * (ocfg.n_workers if algo == "elastic" else 1)
        if budget < grads_per_outer:
            raise ValueError(f"budget={budget} is below {algo}'s gradients per outer step ({grads_per_outer})")
        n_outer = budget // grads_per_outer
        specs.append(optimizers.RunSpec(algo, ocfg, n_outer, record_every_base or max(1, n_outer // 400)))
        grads += repeats * n_outer * grads_per_outer
    t0 = time.perf_counter()
    runs = optimizers.run_lockstep(entry.objective, specs, seed, repeats=repeats)
    seconds = time.perf_counter() - t0
    timings = {"run_s": seconds, "us_per_grad_eval": 1e6 * seconds / grads}
    rows, curves, files = [], {}, {}
    for algo, records in zip(sorted(algos), runs):
        files.update((f"run_{algo}_{rec.seed}.csv", rec.to_csv) for rec in records)
        curves[algo] = records[-1]
        finals = np.array([rec.final_loss for rec in records])
        rows.append({
            "algorithm": algo,
            "final_loss_mean": float(finals.mean()),
            "final_loss_std": float(finals.std(ddof=1)) if len(finals) > 1 else 0.0,
            "effective_epochs": float(np.mean([rec.rows[-1]["effective_epoch"] for rec in records])),
        })
    header = ("algorithm", "final_loss_mean", "final_loss_std", "effective_epochs")
    files["comparison.csv"] = _table(header, [[row[h] for h in header] for row in rows])
    series = [(a, curves[a].column("effective_epoch"), curves[a].column("loss")) for a in sorted(curves)]
    files["plot.svg"] = partial(emit_plot, series, title=f"equal-budget comparison on {entry.name}",
                                xlabel="effective epochs", ylabel="loss")
    checks = {}
    if cfg.param("assert_vs_sgd") and "sgd" in algos and len(algos) > 1:
        by = {r["algorithm"]: r for r in rows}
        bar = by["sgd"]["final_loss_mean"] + by["sgd"]["final_loss_std"]
        for a in algos:
            if a != "sgd":
                checks[f"{a}_not_worse_than_sgd"] = bool(by[a]["final_loss_mean"] <= bar)
    return {"objective": entry.name, "rows": rows, "timings": timings, "checks": checks}, files


def _run_solve_pde(cfg: ExperimentConfig, entry: TestCorpusEntry) -> tuple[dict, dict]:
    grid = _grid_for(entry, cfg.param("grid_n"))
    pcfg = pde_lab.PdeSolveConfig(
        beta_inv=cfg.param("beta_inv"),
        t_final=cfg.param("t"),
        dt=cfg.param("dt"),
        scheme=cfg.param("scheme"),
        boundary=cfg.param("boundary"),
    )
    u = pde_lab.solve_pde(entry.objective, pcfg, grid)
    files = {"solution.csv": u.to_csv, "solution.bin": u.to_binary}
    if grid.dim == 1:
        xs = grid.axes()[0]
        f = entry.objective.value_batch(grid.points())
        files["plot.svg"] = partial(emit_plot, [("initial", xs, f), (pcfg.scheme, xs, u.values)],
                                    title=f"{pcfg.scheme} smoothing of {entry.name}",
                                    xlabel="x", ylabel="value")
    return {"objective": entry.name, "scheme": pcfg.scheme,
            "min_value": float(u.values.min()), "max_value": float(u.values.max()),
            "checks": {}}, files


def _run_figure1(cfg: ExperimentConfig, entry: TestCorpusEntry) -> tuple[dict, dict]:
    obj = entry.objective
    if obj.dim != 1:
        raise ValueError(f"objective={entry.name}: figure1 needs a 1D objective, not dim={obj.dim}")
    grid = _grid_for(entry, cfg.param("grid_n"))
    t_smooth = cfg.param("t_smooth")
    beta_inv_smooth = cfg.param("beta_inv")
    beta_inv_fp = cfg.param("beta_inv_fp")
    horizon = cfg.param("T")
    window_frac = cfg.param("window_frac")
    min_gap = cfg.param("min_gap")
    rho0_sigma = cfg.param("rho0_sigma")

    x_star = global_minimum(entry)[0]
    width = float(grid.upper[0] - grid.lower[0])
    xs = grid.axes()[0]
    mask = np.abs(xs - x_star) <= window_frac * width
    if not mask.any():
        raise ValueError(f"window_frac={window_frac:g}: the window around x_star={x_star:g} "
                         f"holds no node of the grid (spacing {grid.spacing[0]:g})")
    pcfg = pde_lab.PdeSolveConfig(beta_inv=beta_inv_smooth, t_final=t_smooth)
    u_visc = pde_lab.solve_viscous_hj_cole_hopf(obj, pcfg, grid)
    u_hl = pde_lab.solve_hj_hopf_lax(obj, t_smooth, grid)
    drift_visc = gradient(u_visc)
    drift_hl = gradient(u_hl)
    drift_f = grid.with_values(obj.grad_batch(grid.points())[:, 0])
    rho0 = gaussian_density(grid, mean=[0.5 * (grid.lower[0] + grid.upper[0])],
                            var=(0.3 * width if rho0_sigma is None else rho0_sigma) ** 2)

    def terminal_mass(drift):
        rho = pde_lab.evolve_fokker_planck(drift, rho0, beta_inv_fp, horizon)
        w = np.full(len(xs), grid.spacing[0])
        w[0] = w[-1] = 0.5 * grid.spacing[0]
        return rho, float((rho.values * w * mask).sum())

    rho_visc, m_visc = terminal_mass(drift_visc)
    rho_hl, m_hl = terminal_mass(drift_hl)
    rho_f, m_f = terminal_mass(drift_f)
    checks = {
        "viscous_beats_nonviscous": bool(m_visc >= m_hl + min_gap),
        "nonviscous_beats_sgd": bool(m_hl >= m_f + min_gap),
    }
    series = [("viscous drift", xs, rho_visc.values), ("non-viscous drift", xs, rho_hl.values),
              ("plain gradient drift", xs, rho_f.values)]
    files = {"density_viscous.csv": rho_visc.to_csv, "density_nonviscous.csv": rho_hl.to_csv,
             "density_sgd.csv": rho_f.to_csv,
             "plot.svg": partial(emit_plot, series, title="terminal densities near the global minimum",
                                 xlabel="x", ylabel="density")}
    return {
        "objective": entry.name, "x_star": float(x_star),
        "mass_viscous": m_visc, "mass_nonviscous": m_hl, "mass_sgd": m_f,
        "window_halfwidth": window_frac * width,
        "checks": checks,
    }, files


def _run_homogenization(cfg: ExperimentConfig, entry: TestCorpusEntry) -> tuple[dict, dict]:
    gamma = cfg.param("gamma")
    table = analysis.verify_homogenization(
        entry.objective, cfg.param("probes"), gamma, cfg.param("beta_inv"), cfg.param("epsilons"),
        n_seeds=cfg.param("n_seeds"), seed=cfg.param("seed"),
    )
    finest = table.rows[-1]
    checks = {
        "finest_eps_within_tolerance": bool(finest.max_rel_deviation <= cfg.param("tolerance")),
        "deviation_monotone_in_eps": bool(table.is_monotone()),
    }
    header = [f.name for f in fields(analysis.HomogenizationRow)]
    return {
        "objective": entry.name, "gamma": gamma,
        "rows": [r.__dict__ for r in table.rows],
        "checks": checks,
    }, {"homogenization.csv": _table(header, [astuple(r) for r in table.rows])}


def _run_control(cfg: ExperimentConfig, entry: TestCorpusEntry) -> tuple[dict, dict]:
    obj = entry.objective
    horizon = cfg.param("T")
    grid = _grid_for(entry, cfg.param("grid_n"))
    x0 = np.full(obj.dim, cfg.param("x0"))
    comparison = analysis.control_improvement_experiment(
        obj, horizon, cfg.param("beta_inv"), cfg.param("n_paths"), cfg.param("seed"), x0, grid,
    )
    checks = {
        "improvement_inequality": comparison.improvement_holds,
        "strict_gap": comparison.strict_gap if horizon > 0 else True,
        "exits_below_1pct": comparison.exit_fraction <= 0.01,
    }
    c = comparison
    table = _table(("quantity", "mean", "stderr"), [
        ("terminal_controlled", c.terminal_ctrl, c.terminal_ctrl_stderr),
        ("terminal_plain", c.terminal_plain, c.terminal_plain_stderr),
        ("control_energy", c.control_energy, c.control_energy_stderr),
        ("gap", c.gap, c.gap_stderr),
        ("bound_margin", c.bound_margin, c.bound_margin_stderr),
    ])
    return {
        "objective": entry.name, "T": horizon,
        "terminal_controlled": comparison.terminal_ctrl, "terminal_plain": comparison.terminal_plain,
        "control_energy": comparison.control_energy, "gap": comparison.gap,
        "gap_stderr": comparison.gap_stderr, "bound_margin": comparison.bound_margin,
        "checks": checks,
    }, {"control.csv": table}


def _run_invariant_measure(cfg: ExperimentConfig, entry: TestCorpusEntry) -> tuple[dict, dict]:
    obj = entry.objective
    gamma = cfg.param("gamma")
    beta = cfg.param("beta")
    x = np.full(obj.dim, cfg.param("x"))
    est = analysis.sample_invariant_measure(
        obj, x, gamma, 1.0 / beta, n_steps=cfg.param("n_steps"),
        burn_in=cfg.param("burn_in"), seed=cfg.param("seed"), n_chains=cfg.param("n_chains"),
    )
    checks = {}
    closed = None
    if isinstance(obj, Quadratic):
        closed = analysis.quadratic_invariant_closed_form(obj.Q, obj.p, x, gamma, beta)
        mean_ok = bool(np.all(np.abs(est.mean - closed.mean) <= 3.0 * est.mean_stderr))
        var_ok = bool(np.all(np.abs(np.diag(est.covariance) - np.diag(closed.covariance))
                             <= 3.0 * est.variance_stderr))
        checks = {"mean_within_3_stderr": mean_ok, "variance_within_3_stderr": var_ok}
    table = _table(("component", "mean", "mean_stderr", "variance", "variance_stderr"),
                   [(i, est.mean[i], est.mean_stderr[i], est.covariance[i, i], est.variance_stderr[i])
                    for i in range(obj.dim)])
    return {
        "objective": entry.name,
        "mean": est.mean.tolist(), "variance": np.diag(est.covariance).tolist(),
        "closed_form_mean": closed.mean.tolist() if closed else None,
        "closed_form_variance": np.diag(closed.covariance).tolist() if closed else None,
        "n_samples": est.n_samples, "autocorrelation_time": est.autocorrelation_time,
        "checks": checks,
    }, {"invariant_measure.csv": table}


def _run_spectrum(cfg: ExperimentConfig, entry: TestCorpusEntry | None) -> tuple[dict, dict]:
    n_random = cfg.param("n_random")
    # the stream acceptance criterion 7 has always drawn from (at seed 123)
    rng = substream(cfg.param("seed"), "acceptance-spectrum")
    dim = 8
    hm_violations = 0
    for _ in range(n_random):
        A = rng.standard_normal((dim, dim))
        spd = A @ A.T + 0.1 * np.eye(dim)
        eigs = np.linalg.eigvalsh(spd)
        if analysis.harmonic_mean(eigs) > analysis.harmonic_mean(np.diag(spd)) + 1e-12:
            hm_violations += 1
    sandwich_violations = 0
    for _ in range(n_random):
        v = rng.uniform(0.05, 10.0, size=rng.integers(2, 12))
        hm = analysis.harmonic_mean(v)
        if not (v.min() - 1e-12 <= hm <= len(v) * v.min() + 1e-12):
            sandwich_violations += 1
    summary_obj = None if entry is None else analysis.spectrum_summary(entry.objective, global_minimum(entry))
    checks = {
        "hm_eig_le_hm_diag": hm_violations == 0,
        "hm_sandwich": sandwich_violations == 0,
    }
    files = {}
    if summary_obj is not None:
        checks["objective_hm_eig_le_hm_diag"] = summary_obj.satisfies_eig_diag
        files["spectrum.csv"] = _table(("eigenvalue", "diagonal"),
                                       list(zip(summary_obj.eigenvalues, summary_obj.diagonal)))
    return {
        "n_random": n_random,
        "hm_violations": hm_violations,
        "sandwich_violations": sandwich_violations,
        "objective_hm_lambda": summary_obj.hm_lambda if summary_obj else None,
        "objective_hm_diag": summary_obj.hm_diag if summary_obj else None,
        "checks": checks,
    }, files


_RUNNERS = {
    "optimize": _run_optimize,
    "compare": _run_compare,
    "solve_pde": _run_solve_pde,
    "figure1": _run_figure1,
    "homogenization": _run_homogenization,
    "control": _run_control,
    "invariant_measure": _run_invariant_measure,
    "spectrum": _run_spectrum,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the kind, then write its run directory if ``out`` is set."""
    runner = _RUNNERS.get(cfg.kind)
    if runner is None:
        raise ValueError(f"unknown experiment kind {cfg.kind!r}")
    objective = cfg.param("objective")   # empty: refused, unless the kind's default is empty too
    entry = get_entry(objective) if objective or KINDS[cfg.kind].defaults["objective"] else None
    summary, files = runner(cfg, entry)
    summary["kind"] = cfg.kind
    summary["passed"] = all(summary["checks"].values())
    # the directory is made only now, so a run its solver refused leaves none
    out = cfg.param("out")
    out = Path(out) if out else None
    if out is not None:
        if cfg.kind == "optimize" and out.suffix == ".csv":   # `--out foo.csv` names the run file
            out = out.parent
        out.mkdir(parents=True, exist_ok=True)
        for name, write in files.items():
            write(out / name)
        write_manifest(cfg, out)
        (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return ExperimentResult(passed=summary["passed"], summary=summary, out_dir=out)
