"""The names in ``pdeopt`` that the benchmark's tracer (``bench/tracing.py``)
binds and reads, checked on one small control run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from pdeopt.config import parse_config  # noqa: E402
from pdeopt.experiments import run_experiment  # noqa: E402

import tracing  # noqa: E402


def test_traced_control_run_reports_the_control_layer():
    cfg = parse_config(overrides={"kind": "control", "T": 0.5, "n_paths": 400, "grid_n": 129})
    with tracing.Tracer() as tracer:
        result = run_experiment(cfg)
    assert result.passed
    m = tracing.layer_metrics(tracer.spans)
    # _exits reads the comparison's exit_fraction
    assert 0.0 <= m["analysis.control.exit_fraction"] <= 0.01
    assert m["analysis.control.path_steps_per_s"] > 0
    assert m["analysis.control.alpha.calls"] == 500      # one ControlField.alpha call a path step
