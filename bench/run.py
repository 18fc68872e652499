"""pdeopt benchmark: three experiment workloads timed end to end, and a traced
run that breaks each one down by module.

    python3 bench/run.py --workload compare_mlp --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the benchmark imports pdeopt from
``src/`` and fails when it is not there.  The workloads and their oracle
checks are in ``workloads.py``, the span tracer in ``tracing.py``.

Every measurement happens in a fresh child process with one BLAS thread.
``--trace 0`` starts ``SETUP_SAMPLES - 1`` children that only set up, then
one that sets up and repeats untimed-setup passes of the workload's ops for
``--seconds``, timing the fixed kernel of ``reference.py`` before the first
pass and after each one; it reports the end-to-end metrics

* ``wall_rel``     per pass, the time spent in ``run_experiment`` divided by
                   the mean of the two reference-kernel times around the
                   pass; the mean over the passes left after dropping the
                   fastest and the slowest fifth.  The host is shared and its
                   speed drifts by up to 2x within minutes; the ratio cancels
                   most of that drift, where the pass time in seconds does
                   not (see ``reference.py``),
* ``setup_s``      median over the children of the time from process launch
                   to the first timed op (import, parse_config, get_entry and
                   grid layout),
* ``peak_rss_mb``  peak resident memory of the measuring child.

The record line before the result also holds the pass times in seconds
(``wall_s``) and the work done per second of them (``work_per_s``: minibatch
gradients for compare_mlp, solved grid points for smooth_lab, path steps for
control_dw), for reading, not for comparing runs.

``--trace 1`` alternates untraced and traced passes in one child and reports
the per-layer metrics of ``tracing.PER_LAYER`` (medians over traced passes),
including the tracing overhead; the spans of the last traced pass are written
to ``.bench_out/``.

An op is one ``run_experiment`` call.  It fails when it raises or when its
outputs fail the workload's oracle check.  The last stdout line is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the environment, the seeds and the input sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"      # op output directories, removed after each pass
OUT = ROOT / ".bench_out"        # span files of traced runs
SETUP_SAMPLES = 5
DEADLINE_S = 170                 # the whole benchmark run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--launched", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# child process


def run_pass(workload, seed: int, out_root: Path, tracer=None) -> dict:
    """Run the workload's ops once, then check their outputs."""
    # looked up through the modules so that a tracer's wrappers are called
    from pdeopt import config, experiments

    wall, outputs, failures = 0.0, {}, {}
    ops = workload.ops(seed)
    with tracer or contextlib.nullcontext():
        for op in ops:
            out = out_root / op.label
            cfg = config.parse_config(overrides={**op.overrides, "out": str(out)})
            t0 = time.perf_counter()
            try:
                result = experiments.run_experiment(cfg)
            except Exception:
                failures[op.label] = traceback.format_exc(limit=3)
                continue
            finally:
                wall += time.perf_counter() - t0
            outputs[op.label] = (result.summary, out)
    try:
        bad, oracle = workload.check(seed, outputs)
        failures.update(bad)
    except Exception:
        oracle = {}
        failures.update({label: traceback.format_exc(limit=3) for label in outputs})
    out_bytes = sum(f.stat().st_size for f in out_root.rglob("*") if f.is_file())
    shutil.rmtree(out_root)
    return {"wall_s": wall, "traced": tracer is not None, "ops": len(ops),
            "failures": failures, "oracle": oracle, "out_bytes": out_bytes}


def child_main(args) -> None:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workload.setup(args.seed)
    setup_s = time.perf_counter() - args.launched
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    import numpy
    import scipy
    from reference import reference_s
    from tracing import Tracer, layer_metrics

    WORK.mkdir(exist_ok=True)
    passes, last_tracer = [], None
    started = time.perf_counter()
    reference_s()                       # warm-up
    ref_before = reference_s()
    longest = 0.0
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        # stop before a pass as long as the longest so far would overrun
        while len(passes) < 1 + args.trace or time.perf_counter() - started + longest <= args.seconds:
            tracer = Tracer() if args.trace and len(passes) % 2 else None
            p0 = time.perf_counter()
            rec = run_pass(workload, args.seed, Path(tmp) / f"pass{len(passes)}", tracer)
            ref_after = reference_s()
            rec["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
            longest = max(longest, time.perf_counter() - p0)
            if tracer is not None:
                rec["layers"] = layer_metrics(tracer.spans)
                last_tracer = tracer
            passes.append(rec)
    if last_tracer is not None:
        OUT.mkdir(exist_ok=True)
        last_tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "work": workload.work(),
        "env": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        },
        "inputs": workload.sizes(args.seed),
    }))


# ---------------------------------------------------------------------------
# parent process


def spawn(args, role: str, deadline: float) -> dict:
    """Run one child to completion and return its JSON report."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--child", role]
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    launched = time.perf_counter()     # CLOCK_MONOTONIC: comparable across processes
    proc = subprocess.run(cmd + ["--launched", repr(launched)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=10)
    return proc.stdout.strip() or None


def median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def middle_mean(values) -> float:
    """Mean of the middle three fifths: as robust to a stray pass as the
    median, and steadier from run to run over the ten or so passes of one."""
    values = sorted(values)
    k = len(values) // 5
    return statistics.fmean(values[k:len(values) - k])


def wall_rel(passes: list[dict]) -> float:
    return middle_mean(p["wall_s"] / p["ref_s"] for p in passes)


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    args = parse_args(argv)
    if not (SRC / "pdeopt" / "__init__.py").is_file():
        print(f"bench: pdeopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.child:
        child_main(args)
        return 0

    setups = [] if args.trace else [spawn(args, "setup", deadline)["setup_s"]
                                    for _ in range(SETUP_SAMPLES - 1)]
    report = spawn(args, "measure", deadline)
    passes = report["passes"]
    plain = [p for p in passes if not p["traced"]]
    wall_s = statistics.median(p["wall_s"] for p in plain)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = median_of([{**p["layers"], **p["oracle"], "experiments.out_bytes": p["out_bytes"],
                              "bench.traced_wall_s": p["wall_s"]} for p in traced])
        # in reference units, then back to seconds at the run's median host
        # speed: the raw difference of two noisy pass times can come out negative
        metrics["bench.trace_overhead_s"] = ((wall_rel(traced) - wall_rel(plain))
                                             * statistics.median(p["ref_s"] for p in passes))
        from tracing import PER_LAYER
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: metrics.get(name, 0.0) for name in units}
    else:
        metrics = {
            "wall_rel": wall_rel(plain),
            "setup_s": statistics.median(setups + [report["setup_s"]]),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = END_TO_END
    failures = {f"pass{i}/{label}": msg for i, p in enumerate(passes)
                for label, msg in p["failures"].items()}
    attempted = sum(p["ops"] for p in passes)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "git_sha": git_sha(), "env": report["env"], "inputs": report["inputs"],
        "wall_s": wall_s, "work_per_s": report["work"] / wall_s,
        "passes": [{"wall_s": p["wall_s"], "ref_s": p["ref_s"], "traced": p["traced"]}
                   for p in passes],
        "setup_samples_s": setups + [report["setup_s"]], "failures": failures,
    }))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
