"""Command-line entry point.

Subcommands map one-to-one to experiment kinds; flags override config-file
values, which override defaults.  Examples:

    pdeopt solve-pde --objective rugged_s3_m6 --scheme cole_hopf --beta-inv 0.1 --t 0.5 --grid-n 513 --out lab
    pdeopt optimize --algo entropy_sgd --objective mlp_h8_n200 --steps 500 --seed 7 --out runs
    pdeopt compare --objective mlp_h8_n200 --budget 20000 --repeats 3 --out cmp
    pdeopt reproduce-figure1 --out fig1
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ConfigError, parse_config
from .experiments import run_experiment

_SUBCOMMANDS = {
    "solve-pde": "solve_pde",
    "optimize": "optimize",
    "compare": "compare",
    "verify-homogenization": "homogenization",
    "control-improvement": "control",
    "spectrum": "spectrum",
    "invariant-measure": "invariant_measure",
    "reproduce-figure1": "figure1",
}

# flag name -> config key (None value means "not provided")
_FLAGS: dict[str, dict] = {
    "common": {
        "--config": dict(dest="config", help="config file (key=value sections or JSON)"),
        "--seed": dict(dest="seed", type=int),
        "--out": dict(dest="out", help="output directory"),
        "--threads": dict(dest="threads", type=int),
        "--objective": dict(dest="objective"),
        "--repeats": dict(dest="repeats", type=int),
    },
    "optimizer": {
        "--algo": dict(dest="algo"),
        "--algos": dict(dest="algos"),
        "--eta": dict(dest="eta", type=float),
        "--eta-y": dict(dest="eta_y", type=float),
        "--L": dict(dest="L", type=int),
        "--gamma0": dict(dest="gamma0", type=float),
        "--gamma1": dict(dest="gamma1", type=float),
        "--alpha": dict(dest="alpha", type=float),
        "--delta": dict(dest="delta", type=float),
        "--workers": dict(dest="n_workers", type=int),
        "--beta-inv-ex": dict(dest="beta_inv_ex", type=float),
        "--batch-size": dict(dest="batch_size", type=int),
        "--steps": dict(dest="steps", type=int),
        "--budget": dict(dest="budget", type=int),
        "--record-every": dict(dest="record_every", type=int),
    },
    "pde": {
        "--scheme": dict(dest="scheme", choices=["cole_hopf", "hopf_lax", "monotone_fd", "fd", "heat"]),
        "--beta-inv": dict(dest="beta_inv", type=float),
        "--t": dict(dest="t", type=float),
        "--grid-n": dict(dest="grid_n", type=int),
        "--dt": dict(dest="dt", type=float),
        "--boundary": dict(dest="boundary", choices=["extrapolating", "periodic"]),
    },
    "analysis": {
        "--gamma": dict(dest="gamma", type=float),
        "--beta": dict(dest="beta", type=float),
        "--x": dict(dest="x", type=float),
        "--x0": dict(dest="x0", type=float),
        "--epsilons": dict(dest="epsilons"),
        "--probes": dict(dest="probes"),
        "--n-seeds": dict(dest="n_seeds", type=int),
        "--n-paths": dict(dest="n_paths", type=int),
        "--n-steps": dict(dest="n_steps", type=int),
        "--burn-in": dict(dest="burn_in", type=int),
        "--n-chains": dict(dest="n_chains", type=int),
        "--T": dict(dest="T", type=float),
        "--t-smooth": dict(dest="t_smooth", type=float),
        "--beta-inv-fp": dict(dest="beta_inv_fp", type=float),
        "--window-frac": dict(dest="window_frac", type=float),
        "--min-gap": dict(dest="min_gap", type=float),
        "--n-random": dict(dest="n_random", type=int),
    },
}

_GROUPS_BY_COMMAND = {
    "solve-pde": ("common", "pde"),
    "optimize": ("common", "optimizer"),
    "compare": ("common", "optimizer"),
    "verify-homogenization": ("common", "pde", "analysis"),
    "control-improvement": ("common", "pde", "analysis"),
    "spectrum": ("common", "analysis"),
    "invariant-measure": ("common", "analysis"),
    "reproduce-figure1": ("common", "pde", "analysis"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pdeopt",
                                     description="PDE-smoothed optimizers and their verification lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, groups in _GROUPS_BY_COMMAND.items():
        sp = sub.add_parser(name)
        for g in groups:
            for flag, kw in _FLAGS[g].items():
                sp.add_argument(flag, **kw)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config") and v is not None}
    kind = _SUBCOMMANDS[args.command]
    try:
        cfg = parse_config(getattr(args, "config", None), overrides, kind=kind)
        result = run_experiment(cfg)
    except (ConfigError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result.summary, indent=2, sort_keys=True, default=str))
    if not result.passed:
        failing = [k for k, v in result.summary.get("checks", {}).items() if not v]
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
