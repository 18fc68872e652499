"""Record the compare_mlp oracle: each algorithm's final-loss mean for every
input seed, as the code at hand computes it.

    python3 bench/record_references.py

The committed ``references.json`` was recorded on the seed code.  Record it
again only when the compare_mlp workload itself changes; a change to pdeopt
that moves these numbers has changed the optimizers' arithmetic.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from pdeopt.config import parse_config  # noqa: E402
from pdeopt.experiments import run_experiment  # noqa: E402
from workloads import REFERENCES, SEED_CYCLE, CompareMlp  # noqa: E402

WORK = HERE.parent / ".bench_work"


def main() -> None:
    workload = CompareMlp()
    means = {}
    for seed in range(SEED_CYCLE):
        (op,) = workload.ops(seed)
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            summary = run_experiment(parse_config(overrides={**op.overrides, "out": tmp})).summary
        means[str(seed)] = {row["algorithm"]: row["final_loss_mean"] for row in summary["rows"]}
        print(seed, means[str(seed)], flush=True)
    REFERENCES.write_text(json.dumps(
        {"compare_mlp": {"budget": workload.BUDGET, "final_loss_mean": means}}, indent=1) + "\n")


if __name__ == "__main__":
    main()
