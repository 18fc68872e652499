"""Run every workload over several seeds and write ``bench/results/BENCH_<tag>.json``.

    python3 bench/trajectory.py --tag seed --seeds 5

For each workload the file holds the median and quartiles of every
end-to-end metric over the untraced runs (seeds 0..n-1), the per-layer
metrics of one traced run (seed 0), and each run's environment record.  A
change that claims a speed-up quotes its numbers against the parent's file,
measured on the same machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (environment record, result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True, timeout=300)
    record, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record), json.loads(result)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tag", required=True)
    p.add_argument("--seeds", type=int, default=5)
    args = p.parse_args()
    if args.seeds < 2:
        p.error("--seeds must be at least 2 for quartiles")
    out = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for w in SPEC["workloads"]:
        runs = [bench(w["name"], seed, 0) for seed in range(args.seeds)]
        summary = {}
        for m in SPEC["end_to_end"]:
            values = [result["metrics"][m["name"]]["value"] for _, result in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[m["name"]] = {"unit": m["unit"], "median": statistics.median(values),
                                  "q1": q1, "q3": q3, "values": values}
        traced_record, traced = bench(w["name"], 0, 1)
        out["workloads"][w["name"]] = {
            "end_to_end": summary,
            "attempted": sum(r["attempted"] for _, r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for _, r in runs) + traced["failed"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "records": [record for record, _ in runs] + [traced_record],
        }
        print(w["name"], {k: round(v["median"], 4) for k, v in summary.items()}, flush=True)
    path = HERE / "results" / f"BENCH_{args.tag}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
