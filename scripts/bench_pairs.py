"""Paired benchmark runs of two source checkouts, and their summary.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed S]

Each pair runs ``bench/run.py --workload W --seed S --seconds T --trace 0``,
with S the benchmark seed (default 0) and T the ``run_seconds`` of
``BENCHMARK.json``, once from each checkout,
one after the other, and alternates which side runs first: the parent in
even pairs (0, 2, ...), the change in odd ones, so a drift of the host's
speed falls on both sides alike.  ``--setup-only`` runs one setup-only
child of ``bench/run.py`` per side instead (``--child setup``), which
measures ``setup_s`` alone.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
first quartile, median and third quartile (``statistics.quantiles``,
inclusive method), the change's median minus the parent's beside the
parent's interquartile range, and each side's pair wins: the pairs in which
its value is the better one.  A tie counts for neither side.  The failed ops
of every run are summed per side, and every run's metrics go to stderr as
it ends.

Each row also gives the ``gain`` verdict, the rule a claimed speedup must
meet: the change wins at least nine tenths of the pairs, and its median
beats the parent's by more than the parent's interquartile range.  A run of
fewer than 10 pairs prints a warning that no claim can rest on it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CLAIM_PAIRS = 10    # the fewest pairs a claimed gain can rest on


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile; a single value is all three."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def wins(parent, change, better: str) -> tuple[int, int]:
    """Pairs in which each side's value is the better one; ties count for neither."""
    sign = 1 if better == "lower" else -1
    diffs = [sign * (c - p) for p, c in zip(parent, change, strict=True)]
    return sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)


def gain(row: dict, pairs: int) -> bool:
    """The claim rule on a summary row of ``pairs`` pairs: the change wins at
    least nine tenths of them (ties count for neither side), and its median
    beats the parent's by more than the parent's interquartile range."""
    beats = -row["median_diff"] if row["better"] == "lower" else row["median_diff"]
    return 10 * row["change_wins"] >= 9 * pairs and beats > row["parent_iqr"]


def summarize(runs: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per metric from ``runs``, a list of pairs ``{"parent": m,
    "change": m}`` of metric values; ``metrics`` lists ``{"name", "better"}``."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        if not all(name in run[side] for run in runs for side in ("parent", "change")):
            continue
        parent = [run["parent"][name] for run in runs]
        change = [run["change"][name] for run in runs]
        qp, qc = quartiles(parent), quartiles(change)
        parent_wins, change_wins = wins(parent, change, metric["better"])
        row = {"metric": name, "better": metric["better"], "parent": qp, "change": qc,
               "median_diff": qc[1] - qp[1], "parent_iqr": qp[2] - qp[0],
               "parent_wins": parent_wins, "change_wins": change_wins}
        rows.append({**row, "gain": gain(row, len(runs))})
    return rows


def format_rows(rows: list[dict], pairs: int) -> str:
    lines = [f"| metric | parent q1 / median / q3 | change q1 / median / q3 | change - parent "
             f"(parent IQR) | wins parent / change of {pairs} | gain |", "|---|---|---|---|---|---|"]
    for r in rows:
        lines.append(f"| {r['metric']} ({r['better']}) | {' / '.join(f'{v:.4g}' for v in r['parent'])} "
                     f"| {' / '.join(f'{v:.4g}' for v in r['change'])} "
                     f"| {r['median_diff']:+.4g} ({r['parent_iqr']:.4g}) "
                     f"| {r['parent_wins']} / {r['change_wins']} | {'yes' if r['gain'] else 'no'} |")
    if pairs < CLAIM_PAIRS:
        lines.append(f"warning: {pairs} pairs, fewer than {CLAIM_PAIRS}: no claimed gain can rest on this run")
    return "\n".join(lines)


def run_side(checkout: Path, workload: str, seconds: float, setup_only: bool, seed: int) -> dict:
    """One benchmark run, or one setup-only child, from ``checkout`` at
    benchmark seed ``seed``: its metric values and failed-op count."""
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    if setup_only:
        cmd += ["--child", "setup", "--launched", repr(time.perf_counter())]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup_only:
        return {"setup_s": result["setup_s"], "failed": 0}
    return {**{k: v["value"] for k, v in result["metrics"].items()}, "failed": result["failed"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--setup-only", action="store_true", help="time setup-only children")
    p.add_argument("--seed", type=int, default=0, help="benchmark seed of every run (default: 0)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs.append({side: run_side(sides[side], args.workload, benchmark["run_seconds"], args.setup_only,
                                    args.seed) for side in order})
        print(f"pair {i}: " + ", ".join(f"{side} {runs[-1][side]}" for side in order), file=sys.stderr)
    print(format_rows(summarize(runs, benchmark["end_to_end"]), args.pairs))
    print("failed ops: " + ", ".join(f"{side} {sum(run[side]['failed'] for run in runs)}" for side in sides))
    return 0


if __name__ == "__main__":
    sys.exit(main())
