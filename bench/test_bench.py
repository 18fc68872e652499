"""Tests of the benchmark itself: span arithmetic, tracer install/uninstall,
oracle checks and the agreement of BENCHMARK.json with the code."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pdeopt  # noqa: E402
from pdeopt import pde_lab  # noqa: E402
from pdeopt.grid import GridFunction  # noqa: E402
from pdeopt.objectives import make_quadratic  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(name, t0, t1, parent, info=None):
    return [name, t0, t1, parent, info]


def test_self_time_subtracts_covered_child_time():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.a", 2.0, 3.0, 1),
        span("b", 5.0, 6.0, 0),
        span("c", 5.5, 7.0, 0),      # overlaps b: only 6.0..7.0 is new cover
        span("d", 9.5, 11.0, 0),     # sticks out of root: only 9.5..10.0 counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 2 - 0.5, 2.0, 1.0, 1.0, 1.5, 1.5])


def test_layer_metrics_attribute_optimizer_overhead_per_algorithm():
    spans = [
        span("optimizers.run", 0.0, 10.0, -1, {"algo": "sgd"}),
        span("optimizers.step_sgd", 1.0, 4.0, 0),
        span("objectives.TinyMLP.minibatch_grad", 2.0, 3.0, 1),
        span("optimizers.step_sgd", 5.0, 8.0, 0),
        span("objectives.TinyMLP.minibatch_grad", 6.0, 7.0, 3),
        span("objectives.TinyMLP.value", 8.0, 9.0, 0),
    ]
    m = tracing.layer_metrics(spans)
    assert m["objectives.minibatch_grad.calls"] == 2
    assert m["objectives.minibatch_grad.us_per_call"] == pytest.approx(1e6)
    assert m["objectives.full_eval.calls"] == 1
    # run self 10 - 3 - 3 - 1 = 3, each step 3 - 1 = 2: 7 s over 2 gradients
    assert m["optimizers.self_s"] == pytest.approx(7.0)
    assert m["optimizers.sgd.overhead_us_per_grad"] == pytest.approx(3.5e6)
    assert m["optimizers.hj.overhead_us_per_grad"] == 0.0
    assert m["pde_lab.cole_hopf_1d.busy_s"] == 0.0


def test_wall_rel_drops_the_fastest_and_slowest_fifth():
    passes = [{"wall_s": w, "ref_s": 0.5} for w in (1.0, 2.0, 2.0, 2.0, 2.5, 9.0, 2.0, 2.5, 3.0, 0.1)]
    # ratios 0.2 2 4 4 4 4 5 5 6 18: the middle six, 4 4 4 4 5 5, average 13/3
    assert run.wall_rel(passes) == pytest.approx(13 / 3)
    assert run.wall_rel(passes[:4]) == pytest.approx((2 + 4 + 4 + 4) / 4)


def _bindings():
    """Every binding the tracer may replace: module globals and class dicts."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or name.split(".")[0] != "pdeopt":
            continue
        for attr, val in vars(mod).items():
            out[(name, attr)] = val
            if isinstance(val, type) and val.__module__ == name:
                for cattr, cval in vars(val).items():
                    out[(name, attr, cattr)] = cval
    return out


def test_uninstall_restores_every_patched_name():
    before = _bindings()
    original_hjb = pde_lab.solve_hjb_backward
    grid = GridFunction.geometry([-1.0], [1.0], [33])
    cfg = pde_lab.PdeSolveConfig(beta_inv=0.1, t_final=0.5, scheme="monotone_fd")
    tracer = tracing.Tracer()
    with tracer:
        # the by-name import in analysis is wrapped too, by the same wrapper
        assert pdeopt.analysis.solve_hjb_backward is pde_lab.solve_hjb_backward
        assert pde_lab.solve_hjb_backward is not original_hjb
        pde_lab.solve_pde(make_quadratic(1.0, 0.0, 1), cfg, grid)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "pde_lab.solve_pde"
    fd = names.index("pde_lab.solve_hj_monotone_fd")
    assert tracer.spans[fd][3] == 0
    assert tracer.spans[fd][4]["dim"] == 1 and tracer.spans[fd][4]["steps"] >= 1
    assert "objectives.Quadratic.value_batch" in names


def test_smooth_lab_oracle_rejects_a_wrong_answer(tmp_path):
    lab = workloads.SmoothLab()
    lab.setup(0)
    pts = lab.points2
    b, t = lab.BETA_INV, lab.T
    exact = (pts ** 2).sum(axis=1) / 2 + 2 * b * t / 2
    outputs = {}
    for label, shift in (("heat_2d", 0.0), ("cole_hopf_2d", 1e-4)):
        u = lab.grid2.with_values(exact if label == "heat_2d" else
                                  (pts ** 2).sum(axis=1) / (2 * (1 + t)) + b * np.log(1 + t) + shift)
        (tmp_path / label).mkdir()
        u.to_binary(tmp_path / label / "solution.bin")
        outputs[label] = ({}, tmp_path / label)
    failures, errors = lab.check(0, outputs)
    assert set(failures) == {"cole_hopf_2d"}
    assert errors["pde_lab.heat_2d.max_err"] <= 1e-10
    assert errors["pde_lab.cole_hopf_2d.max_err"] == pytest.approx(1e-4)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
