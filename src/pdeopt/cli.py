"""Command-line entry point.

Subcommands map one-to-one to experiment kinds, and each takes one flag per
key its kind reads (``config.KINDS``); flags override config-file values,
which override defaults, and a config file's ``kind`` must be the
subcommand's.  A refusal of the input (a ``ConfigError``) prints
one ``config error:`` line, a solver's refusal one ``error:`` line, and both
exit 2; exit 1 means a check failed.  Examples:

    pdeopt solve-pde --objective rugged_s3_m6 --scheme cole_hopf --beta-inv 0.1 --t 0.5 --grid-n 513 --out lab
    pdeopt optimize --algo entropy_sgd --objective mlp_h8_n200 --steps 500 --seed 7 --out runs
    pdeopt compare --objective mlp_h8_n200 --budget 20000 --repeats 3 --out cmp
    pdeopt reproduce-figure1 --out fig1
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import KINDS, ConfigError, parse_config
from .experiments import run_experiment


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per experiment kind, one flag per key it reads."""
    parser = argparse.ArgumentParser(prog="pdeopt",
                                     description="PDE-smoothed optimizers and their verification lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, (command, defaults) in KINDS.items():
        # no prefix matching: `--t` must not stand for `--threads`
        sp = sub.add_parser(command, allow_abbrev=False)
        sp.set_defaults(kind=kind)
        sp.add_argument("--config", help="config file (key=value sections or JSON)")
        for key, default in defaults.items():
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=f"default: {default!r}")
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    del args["command"]
    kind, path = args.pop("kind"), args.pop("config")
    try:
        cfg = parse_config(path, {k: v for k, v in args.items() if v is not None}, kind=kind)
        result = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:   # a solver's refusal: its work budget, a NaN, paths exiting
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result.summary, indent=2, sort_keys=True))
    if not result.passed:
        failing = [k for k, v in result.summary.get("checks", {}).items() if not v]
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
