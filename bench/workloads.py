"""The benchmark's three workloads and the oracle checks on their outputs.

Each workload is a list of ``experiments.run_experiment`` calls (ops), made
one at a time by a single caller (closed loop, one op outstanding) in a
process with one BLAS thread.  ``--seed`` picks the inputs: seed ``s`` uses
the inputs of ``s mod SEED_CYCLE``, the seeds whose oracle values were
checked on the seed code (and, for ``compare_mlp``, recorded).

=============  ============================================  =====================================
workload       loads                                         bypasses
=============  ============================================  =====================================
compare_mlp    objectives.minibatch_grad, optimizers.run      pde_lab, analysis
               (equal-budget compare, acceptance 10)
smooth_lab     pde_lab solvers, objectives.value_batch,       optimizers
               grid I/O, Fokker-Planck (figure 1)
control_dw     pde_lab.solve_hjb_backward, analysis path      optimizers, the forward smoothing
               simulator (ControlField.alpha, grad_batch)     solvers
=============  ============================================  =====================================

Sizes are cut from the acceptance settings so that one pass takes a few
seconds and a run can take the median of several passes:

* ``compare_mlp``: acceptance 10 (``mlp_h8_n200``, sgd/entropy_sgd/hj,
  6 repeats, batch 32, seeds from 100) at a budget of ``BUDGET`` gradient
  evaluations per run instead of 200 000.  ``record_every`` is set so that
  logging full-data rows stays near the few per cent of the work it is at
  the full budget; the default would log every outer step at this budget.
* ``smooth_lab``: the four schemes on 1D ``rugged_s7_m5`` at n=2049 (ROADMAP
  pins 4097) and on 2D ``quadratic_c1_n2`` at 129^2 (pinned 257^2), then
  ``figure1`` at its defaults.  Its inputs are fixed: the landscape sets the
  quadrature radius and the CFL step count, so varying it with the seed
  would move the timings by more than the run-to-run noise.
* ``control_dw``: acceptance 5 (``double_well_a1``, T=2, beta_inv=0.2,
  10 000 paths, seeds from 11) on a 513-point grid instead of 1025.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from pdeopt.config import parse_config
from pdeopt.grid import GridFunction
from pdeopt.objectives import get_entry
from pdeopt.optimizers import RunRecord

SEED_CYCLE = 16
REFERENCES = Path(__file__).resolve().parent / "references.json"


class Op(NamedTuple):
    label: str
    overrides: dict


class Workload:
    """A named list of ops, the work they do, and their oracle checks."""

    name = ""

    def ops(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def work(self) -> float:
        """Units of work in one pass, for the record line's ``work_per_s``."""
        raise NotImplementedError

    def sizes(self, seed: int) -> dict:
        """Derived input sizes, for the environment record."""
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        """What a user does before the first op: parse every config and
        resolve the objectives.  Grid workloads also lay out their grids."""
        configs = [parse_config(overrides=op.overrides) for op in self.ops(seed)]
        self.entries = {c.objective: get_entry(c.objective) for c in configs if c.objective}

    def check(self, seed: int, outputs: dict) -> tuple[dict[str, str], dict[str, float]]:
        """Oracle checks of one pass.  ``outputs`` maps op label to
        ``(summary or None, out_dir)``.  Returns the failure message of each
        failed op and the oracle errors measured."""
        raise NotImplementedError


def _grid(entry, n: int) -> GridFunction:
    lo, hi = entry.domain_box
    return GridFunction.geometry(lo, hi, [n] * len(lo))


# ---------------------------------------------------------------------------
# compare_mlp


class CompareMlp(Workload):
    name = "compare_mlp"
    ALGOS = ("sgd", "entropy_sgd", "hj")
    REPEATS = 6
    BUDGET = 2000
    RECORD_EVERY = 50
    # Final-loss means must replay the recorded values of the seed code.  A
    # run is deterministic from its seed (tests/test_optimizers.py
    # test_replay_identical); the slack only admits last-digit reordering.
    REL_TOL = 1e-9

    def base_seed(self, seed: int) -> int:
        return 100 + self.REPEATS * (seed % SEED_CYCLE)

    def ops(self, seed):
        return [Op("compare", dict(
            kind="compare", objective="mlp_h8_n200", algos=",".join(self.ALGOS),
            repeats=self.REPEATS, batch_size=32, seed=self.base_seed(seed),
            budget=self.BUDGET, record_every=self.RECORD_EVERY, threads=1))]

    def work(self):
        return len(self.ALGOS) * self.REPEATS * self.BUDGET

    def sizes(self, seed):
        return {"grad_evals": self.work(), "runs": len(self.ALGOS) * self.REPEATS,
                "config_seed": self.base_seed(seed)}

    def check(self, seed, outputs):
        summary, out = outputs["compare"]
        refs = json.loads(REFERENCES.read_text())["compare_mlp"]
        if refs["budget"] != self.BUDGET:
            raise ValueError("references.json was recorded at another budget")
        want = refs["final_loss_mean"][str(seed % SEED_CYCLE)]
        problems = []
        for algo in self.ALGOS:
            for s in range(self.base_seed(seed), self.base_seed(seed) + self.REPEATS):
                rec = RunRecord.from_csv(out / f"run_{algo}_{s}.csv")
                if not np.isfinite(rec.column("loss")).all() or rec.rows[-1]["k"] != self.BUDGET:
                    problems.append(f"{algo} seed {s} aborted")
        got = {row["algorithm"]: row["final_loss_mean"] for row in summary["rows"]}
        for algo in self.ALGOS:
            if not math.isclose(got[algo], want[algo], rel_tol=self.REL_TOL, abs_tol=0.0):
                problems.append(f"{algo} final loss mean {got[algo]!r} != reference {want[algo]!r}")
        return ({"compare": "; ".join(problems)} if problems else {}), {}


# ---------------------------------------------------------------------------
# smooth_lab


class SmoothLab(Workload):
    name = "smooth_lab"
    SCHEMES = ("cole_hopf", "hopf_lax", "monotone_fd", "heat")
    RUGGED, N1 = "rugged_s7_m5", 2049
    QUAD, N2 = "quadratic_c1_n2", 129
    BETA_INV, T = 0.1, 0.5            # the solve_pde defaults, passed explicitly

    def ops(self, seed):
        ops = []
        for objective, n, d in ((self.RUGGED, self.N1, "1d"), (self.QUAD, self.N2, "2d")):
            for scheme in self.SCHEMES:
                ops.append(Op(f"{scheme}_{d}", dict(
                    kind="solve_pde", objective=objective, scheme=scheme, grid_n=n,
                    beta_inv=self.BETA_INV, t=self.T, threads=1)))
        ops.append(Op("figure1", dict(kind="figure1", objective="rugged_s3_m6", threads=1)))
        return ops

    def work(self):
        return 4 * self.N1 + 4 * self.N2 ** 2 + 513

    def sizes(self, seed):
        return {"grid_points_1d": self.N1, "grid_points_2d": self.N2 ** 2,
                "figure1_grid_points": 513, "solved_grid_points": self.work()}

    def setup(self, seed):
        super().setup(seed)
        self.grid1 = _grid(self.entries[self.RUGGED], self.N1)
        self.grid2 = _grid(self.entries[self.QUAD], self.N2)
        self.points1, self.points2 = self.grid1.points(), self.grid2.points()

    def check(self, seed, outputs):
        failures, errors = {}, {}
        solutions = {}
        for label, (summary, out) in outputs.items():
            if label == "figure1":
                if not (summary["checks"] and all(summary["checks"].values())):
                    failures[label] = f"mass ordering failed: {summary['checks']}"
                continue
            u = GridFunction.from_binary(out / "solution.bin")
            grid = self.grid1 if label.endswith("1d") else self.grid2
            if u.n_points != grid.n_points:
                failures[label] = f"grid {u.n_points} != {grid.n_points}"
                continue
            solutions[label] = u
        for label, u in solutions.items():
            check = self._check_1d if label.endswith("1d") else self._check_2d
            err, tol = check(label.rsplit("_", 1)[0], u, solutions)
            errors[f"pde_lab.{label}.max_err"] = err
            if not err <= tol:
                failures[label] = f"max error {err:.3e} above {tol:.1e}"
        return failures, errors

    def _check_1d(self, scheme, u, solutions):
        obj = self.entries[self.RUGGED].objective
        xs = self.points1[:, 0]
        h = self.grid1.spacing[0]
        sigma = math.sqrt(self.BETA_INV * self.T)
        if scheme == "hopf_lax":
            # the inf-convolution never exceeds f (test_never_above_initial)
            return max(float((u.values - obj.value_batch(self.points1)).max()), 0.0), 1e-12
        if scheme == "heat":
            # E f(x + sigma Z) by 80-point Gauss-Hermite quadrature; tolerance
            # of test_quadratic_gaussian_moment
            z, w = np.polynomial.hermite_e.hermegauss(80)
            vals = obj.value_batch((xs[:, None] + sigma * z[None, :]).reshape(-1, 1))
            exact = vals.reshape(len(xs), -1) @ (w / w.sum())
            return float(np.abs(u.values - exact).max()), 1e-10
        inner = np.abs(xs) <= 1.5
        if scheme == "monotone_fd":
            # first-order scheme against the Cole-Hopf solve, away from the
            # extrapolated walls; 5h is test_quadratic_zero_viscosity's bound
            ch = solutions.get("cole_hopf_1d")
            if ch is None:
                return math.inf, 5 * h
            return float(np.abs(u.values - ch.values)[inner].max()), 5 * h
        # cole_hopf: direct trapezoid quadrature of exp(-f/beta_inv) against
        # the heat kernel at 65 interior points; tolerance of acceptance 1
        idx = np.flatnonzero(inner)[:: max(1, int(inner.sum()) // 64)]
        fv = obj.value_batch(self.points1)
        radius = 8 * sigma + math.sqrt(2 * self.T * float(fv.max() - fv.min()))
        offs = np.linspace(-radius, radius, 40001)
        wts = np.full(offs.size, offs[1] - offs[0])
        wts[[0, -1]] *= 0.5
        beta = 1.0 / self.BETA_INV
        ys = xs[idx, None] + offs[None, :]
        expo = -beta * (obj.value_batch(ys.reshape(-1, 1)).reshape(ys.shape) + offs ** 2 / (2 * self.T))
        top = expo.max(axis=1)
        logz = top + np.log(np.exp(expo - top[:, None]) @ wts) - 0.5 * math.log(2 * math.pi * sigma ** 2)
        return float(np.abs(u.values[idx] + logz / beta).max()), 1e-6

    def _check_2d(self, scheme, u, solutions):
        # closed forms for f = |x|^2/2 in d=2 on the interior |x_i| <= 1
        pts, t, b, d = self.points2, self.T, self.BETA_INV, 2
        h = float(self.grid2.spacing.max())
        r2 = (pts ** 2).sum(axis=1)
        inner = (np.abs(pts) <= 1.0).all(axis=1)
        exact, tol = {
            # test_2d_quadratic (Cole-Hopf)
            "cole_hopf": (r2 / (2 * (1 + t)) + d * (b / 2) * math.log(1 + t), 1e-6),
            # test_2d_separable_matches_brute: per-axis grid-minimisation bias
            "hopf_lax": (r2 / (2 * (1 + t)), 2 * (h / 2) ** 2 * (1 + 1 / t)),
            # same PDE as Cole-Hopf; first-order bound of test_2d_quadratic (FD)
            "monotone_fd": (r2 / (2 * (1 + t)) + d * (b / 2) * math.log(1 + t), 10 * h),
            # test_quadratic_gaussian_moment
            "heat": (r2 / 2 + d * b * t / 2, 1e-10),
        }[scheme]
        return float(np.abs(u.values - exact)[inner].max()), tol


# ---------------------------------------------------------------------------
# control_dw


class ControlDw(Workload):
    name = "control_dw"
    N, PATHS, T, DT = 513, 10_000, 2.0, 1e-3     # DT: control_improvement_experiment's step

    def input_seed(self, seed: int) -> int:
        return 11 + seed % SEED_CYCLE

    def ops(self, seed):
        return [Op("control", dict(
            kind="control", objective="double_well_a1", T=self.T, beta_inv=0.2,
            grid_n=self.N, n_paths=self.PATHS, seed=self.input_seed(seed), threads=1))]

    def work(self):
        return self.PATHS * round(self.T / self.DT)

    def sizes(self, seed):
        return {"grid_points": self.N, "paths": self.PATHS, "path_steps": self.work(),
                "config_seed": self.input_seed(seed)}

    def check(self, seed, outputs):
        summary, _ = outputs["control"]
        # improvement inequality, strict gap and exits <= 1 % (acceptance 5)
        bad = [k for k, ok in summary["checks"].items() if not ok]
        return ({"control": f"checks failed: {bad}"} if bad else {}), {}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (CompareMlp(), SmoothLab(), ControlDw())}
