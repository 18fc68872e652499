"""Span tracing of pdeopt from outside the package.

``Tracer.install()`` replaces every public function and public method of the
traced pdeopt modules with a wrapper that records one span per call: name,
start, end, parent span and an optional ``info`` dict of counts.  A function
is wrapped at every name its callers look it up through: ``analysis`` binds
``solve_hjb_backward`` by name, so the binding inside ``pdeopt.analysis`` is
replaced as well as the one in ``pdeopt.pde_lab``.  Methods are replaced on
the class that defines them.  ``uninstall()`` puts every original back.

Spans stay in memory while a pass runs; ``layer_metrics`` turns them into
the per-layer metrics listed in ``PER_LAYER`` and ``write_spans`` saves them.

Counting work (points passed to ``value_batch``, distinct points among them,
bytes written) costs time of its own.  That time is taken off the tracer's
clock, so it shows in the traced pass's wall time (the tracing overhead) but
not in any span.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import json
import math
import os
import sys
import time

import numpy as np

PACKAGE = "pdeopt"
TRACED_MODULES = ("config", "experiments", "optimizers", "objectives", "pde_lab",
                  "analysis", "grid", "plotting")

SCHEMES = {
    "solve_viscous_hj_cole_hopf": "cole_hopf",
    "solve_hj_hopf_lax": "hopf_lax",
    "solve_hj_monotone_fd": "monotone_fd",
    "solve_heat": "heat",
}
ALGOS = ("sgd", "entropy_sgd", "hj")
DIMS = ("1d", "2d")

# Two points of value_batch count as one when they agree to this absolute
# quantum, a small fraction of any grid spacing the lab uses.
UNIQUE_QUANTUM = 1e-9


def _per_layer() -> list[tuple[str, str, str]]:
    m = [
        ("objectives.minibatch_grad.calls", "count", "lower"),
        ("objectives.minibatch_grad.busy_s", "s", "lower"),
        ("objectives.minibatch_grad.us_per_call", "us", "lower"),
        ("objectives.full_eval.calls", "count", "lower"),
        ("objectives.full_eval.busy_s", "s", "lower"),
        ("optimizers.run.calls", "count", "lower"),
        ("optimizers.run.busy_s", "s", "lower"),
        ("optimizers.self_s", "s", "lower"),
        ("optimizers.overhead_us_per_grad", "us", "lower"),
    ]
    m += [(f"optimizers.{a}.overhead_us_per_grad", "us", "lower") for a in ALGOS]
    m += [
        ("objectives.value_batch.points", "count", "lower"),
        ("objectives.value_batch.busy_s", "s", "lower"),
        ("objectives.value_batch.ns_per_point", "ns", "lower"),
        ("objectives.value_batch.unique_frac", "ratio", "higher"),
    ]
    for scheme in SCHEMES.values():
        for d in DIMS:
            m += [(f"pde_lab.{scheme}_{d}.busy_s", "s", "lower"),
                  (f"pde_lab.{scheme}_{d}.self_s", "s", "lower")]
    m += [(f"pde_lab.monotone_fd_{d}.steps", "count", "lower") for d in DIMS]
    m += [
        ("pde_lab.fokker_planck.busy_s", "s", "lower"),
        ("pde_lab.fokker_planck.steps", "count", "lower"),
    ]
    m += [(f"pde_lab.{scheme}_{d}.max_err", "abs", "lower")
          for scheme in SCHEMES.values() for d in DIMS]
    m += [
        ("grid.to_csv.busy_s", "s", "lower"),
        ("grid.to_binary.busy_s", "s", "lower"),
        ("grid.io.bytes", "bytes", "lower"),
        ("plotting.emit_plot.busy_s", "s", "lower"),
        ("experiments.self_s", "s", "lower"),
        ("experiments.out_bytes", "bytes", "lower"),
        ("pde_lab.hjb_backward.busy_s", "s", "lower"),
        ("pde_lab.hjb_backward.self_s", "s", "lower"),
        ("pde_lab.hjb_backward.slices", "count", "lower"),
        ("analysis.control.self_s", "s", "lower"),
        ("analysis.control.path_steps_per_s", "1/s", "higher"),
        ("analysis.control.alpha.calls", "count", "lower"),
        ("analysis.control.alpha.busy_s", "s", "lower"),
        ("analysis.control.exit_fraction", "ratio", "lower"),
        ("objectives.grad_batch.points", "count", "lower"),
        ("objectives.grad_batch.busy_s", "s", "lower"),
        ("objectives.get_entry.busy_s", "s", "lower"),
        ("config.parse_config.busy_s", "s", "lower"),
        ("bench.traced_wall_s", "s", "lower"),
        ("bench.trace_overhead_s", "s", "lower"),
    ]
    return m


PER_LAYER = _per_layer()


# ---------------------------------------------------------------------------
# annotators: (tracer, span index, bound arguments, result) -> info dict


def _points(tracer, idx, a, result):
    X = np.atleast_2d(a["X"])
    return {"points": X.shape[0]}


def _points_unique(tracer, idx, a, result):
    X = np.atleast_2d(a["X"])
    q = np.round(X / UNIQUE_QUANTUM)
    unique = len(np.unique(q.ravel())) if q.shape[1] == 1 else len(np.unique(q, axis=0))
    return {"points": X.shape[0], "unique": unique}


def _path_points(tracer, idx, a, result):
    return {"points": np.atleast_2d(a["x"]).shape[0]}


def _algo(tracer, idx, a, result):
    return {"algo": a["algo"]}


def _grid_dim(tracer, idx, a, result):
    return {"dim": a["grid"].dim}


def _limit(tracer, idx, a, result):
    return {"limit": float(result)}


def _child_limit(tracer, idx):
    for span in tracer.spans[idx + 1:]:
        if span[3] == idx and span[4] and "limit" in span[4]:
            return span[4]["limit"]
    raise LookupError("no stability limit recorded under this span")


def _steps(t_final, dt, safety, limit):
    # the solvers' own step count: ceil(t / dt) with dt = safety * limit
    return max(1, math.ceil(t_final / (dt if dt is not None else safety * limit)))


def _fd_steps(tracer, idx, a, result):
    cfg = a["cfg"]
    return {"dim": a["grid"].dim,
            "steps": _steps(cfg.t_final, cfg.dt, cfg.cfl_safety, _child_limit(tracer, idx))}


def _fp_steps(tracer, idx, a, result):
    return {"steps": _steps(a["t_final"], a["dt"], a["cfl_safety"], _child_limit(tracer, idx))}


def _slices(tracer, idx, a, result):
    return {"slices": len(result.times)}


def _exits(tracer, idx, a, result):
    return {"exit_fraction": result.exit_fraction}


def _bytes(tracer, idx, a, result):
    return {"bytes": os.path.getsize(a["path"])}


ANNOTATORS = {
    "objectives.value_batch": _points_unique,
    "objectives.grad_batch": _points,
    "pde_lab.ControlField.alpha": _path_points,
    "optimizers.run": _algo,
    "pde_lab.solve_viscous_hj_cole_hopf": _grid_dim,
    "pde_lab.solve_hj_hopf_lax": _grid_dim,
    "pde_lab.solve_heat": _grid_dim,
    "pde_lab.solve_hj_monotone_fd": _fd_steps,
    "pde_lab.cfl_limit": _limit,
    "pde_lab.fp_cfl_limit": _limit,
    "pde_lab.evolve_fokker_planck": _fp_steps,
    "pde_lab.solve_hjb_backward": _slices,
    "analysis.control_improvement_experiment": _exits,
    "grid.GridFunction.to_csv": _bytes,
    "grid.GridFunction.to_binary": _bytes,
}


def _annotator(module: str, qualname: str):
    # objective methods are annotated whatever class defines them
    if module == "objectives" and "." in qualname:
        return ANNOTATORS.get(f"objectives.{qualname.rsplit('.', 1)[1]}")
    return ANNOTATORS.get(f"{module}.{qualname}")


# ---------------------------------------------------------------------------
# the tracer


class Tracer:
    """Records spans of pdeopt calls while installed."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent, info]
        self._stack: list[int] = []
        self._excluded = [0.0]          # counting time kept off the clock
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, module: str, qualname: str, fn):
        name = f"{module}.{qualname}"
        spans, stack, excluded = self.spans, self._stack, self._excluded
        perf = time.perf_counter
        annotate = _annotator(module, qualname)
        sig = inspect.signature(fn) if annotate is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, perf() - excluded[0], 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf() - excluded[0]
                stack.pop()
            if annotate is not None:
                a0 = perf()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = annotate(self, idx, bound.arguments, result)
                excluded[0] += perf() - a0
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function and method of the traced modules."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, tuple] = {}   # id(original) -> (original, wrapper)
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(short, attr, obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj)
        # replace each function at every name it is bound to, whoever imported it
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != PACKAGE:
                continue
            for attr, val in list(vars(mod).items()):
                entry = wrappers.get(id(val))
                if entry is not None and entry[0] is val:
                    self._patch(mod, attr, entry[1])

    def _wrap_methods(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(short, qualname, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(short, qualname, raw))

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Save the spans as gzip CSV: index, name, start, end, parent, info."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            w = csv.writer(fh)
            w.writerow(("index", "name", "start", "end", "parent", "info"))
            for i, (name, t0, t1, parent, info) in enumerate(self.spans):
                w.writerow((i, name, repr(t0), repr(t1), parent,
                            json.dumps(info, sort_keys=True) if info else ""))


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Spans are in start order and a parent starts before its children, so one
    pass merges each parent's child intervals as they arrive.
    """
    n = len(spans)
    covered = [0.0] * n
    reach = [s[1] for s in spans]      # end of the covered part so far
    for _, t0, t1, parent, _ in spans:
        if parent < 0:
            continue
        p_end = spans[parent][2]
        lo, hi = max(t0, reach[parent]), min(t1, p_end)
        if hi > lo:
            covered[parent] += hi - lo
            reach[parent] = hi
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def _group(module: str, qualname: str, info) -> str | None:
    """The metric group a span counts toward, if any."""
    leaf = qualname.rsplit(".", 1)[-1]
    if module == "objectives":
        if "." in qualname and leaf in ("value", "grad"):
            return "objectives.full_eval"
        if leaf in ("minibatch_grad", "value_batch", "grad_batch", "get_entry"):
            return f"objectives.{leaf}"
        return None
    if module == "pde_lab" and qualname in SCHEMES:
        return f"pde_lab.{SCHEMES[qualname]}_{info['dim']}d" if info else None
    return {
        ("config", "parse_config"): "config.parse_config",
        ("optimizers", "run"): "optimizers.run",
        ("pde_lab", "evolve_fokker_planck"): "pde_lab.fokker_planck",
        ("pde_lab", "solve_hjb_backward"): "pde_lab.hjb_backward",
        ("pde_lab", "ControlField.alpha"): "analysis.control.alpha",
        ("analysis", "control_improvement_experiment"): "analysis.control",
        ("grid", "GridFunction.to_csv"): "grid.to_csv",
        ("grid", "GridFunction.to_binary"): "grid.to_binary",
        ("plotting", "emit_plot"): "plotting.emit_plot",
    }.get((module, qualname))


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass: every name in ``PER_LAYER``
    except ``max_err``, ``experiments.out_bytes`` and ``bench.*``, which the
    benchmark measures itself.  A layer that did no work reads zero.

    ``optimizers.self_s`` is the self time of every optimizers span; the
    overhead per gradient counts only the part inside ``optimizers.run``.
    """
    selfs = self_times(spans)
    calls, busy, own, counts = {}, {}, {}, {}
    module_self, algo_self, algo_grads = {}, {}, {}
    run_algo: list = [None] * len(spans)

    def add(d, k, v):
        d[k] = d.get(k, 0) + v

    for i, (name, t0, t1, parent, info) in enumerate(spans):
        module, qualname = name.split(".", 1)
        group = _group(module, qualname, info)
        add(module_self, module, selfs[i])
        algo = info["algo"] if group == "optimizers.run" else (run_algo[parent] if parent >= 0 else None)
        run_algo[i] = algo
        if algo is not None and module == "optimizers":
            add(algo_self, algo, selfs[i])
        if group is None:
            continue
        add(calls, group, 1)
        add(busy, group, t1 - t0)
        add(own, group, selfs[i])
        if group == "objectives.minibatch_grad" and algo is not None:
            add(algo_grads, algo, 1)
        for key, v in (info or {}).items():
            if key in ("points", "unique", "steps", "slices", "bytes", "exit_fraction"):
                add(counts, f"{group}.{key}", v)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m: dict[str, float] = {}
    for g in ("objectives.minibatch_grad", "objectives.full_eval", "optimizers.run",
              "analysis.control.alpha"):
        m[f"{g}.calls"] = calls.get(g, 0)
    for g in ("objectives.minibatch_grad", "objectives.full_eval", "optimizers.run",
              "objectives.value_batch", "objectives.grad_batch", "analysis.control.alpha",
              "pde_lab.fokker_planck", "pde_lab.hjb_backward", "grid.to_csv", "grid.to_binary",
              "plotting.emit_plot", "objectives.get_entry", "config.parse_config"):
        m[f"{g}.busy_s"] = busy.get(g, 0.0)
    for scheme in SCHEMES.values():
        for d in DIMS:
            g = f"pde_lab.{scheme}_{d}"
            m[f"{g}.busy_s"] = busy.get(g, 0.0)
            m[f"{g}.self_s"] = own.get(g, 0.0)
    for key in ("objectives.value_batch.points", "objectives.grad_batch.points",
                "pde_lab.monotone_fd_1d.steps", "pde_lab.monotone_fd_2d.steps",
                "pde_lab.fokker_planck.steps", "pde_lab.hjb_backward.slices",
                "analysis.control.exit_fraction"):
        m[key] = counts.get(key, 0)
    m["objectives.minibatch_grad.us_per_call"] = ratio(
        m["objectives.minibatch_grad.busy_s"], m["objectives.minibatch_grad.calls"], 1e6)
    m["optimizers.self_s"] = module_self.get("optimizers", 0.0)
    m["optimizers.overhead_us_per_grad"] = ratio(sum(algo_self.values()), sum(algo_grads.values()), 1e6)
    for a in ALGOS:
        m[f"optimizers.{a}.overhead_us_per_grad"] = ratio(algo_self.get(a, 0.0), algo_grads.get(a, 0), 1e6)
    vb = "objectives.value_batch"
    m[f"{vb}.ns_per_point"] = ratio(m[f"{vb}.busy_s"], m[f"{vb}.points"], 1e9)
    m[f"{vb}.unique_frac"] = ratio(counts.get(f"{vb}.unique", 0), m[f"{vb}.points"])
    m["grid.io.bytes"] = counts.get("grid.to_csv.bytes", 0) + counts.get("grid.to_binary.bytes", 0)
    m["experiments.self_s"] = module_self.get("experiments", 0.0)
    m["pde_lab.hjb_backward.self_s"] = own.get("pde_lab.hjb_backward", 0.0)
    m["analysis.control.self_s"] = own.get("analysis.control", 0.0)
    # the path simulator is the control experiment minus its backward solve
    simulate_s = busy.get("analysis.control", 0.0) - m["pde_lab.hjb_backward.busy_s"]
    m["analysis.control.path_steps_per_s"] = ratio(counts.get("analysis.control.alpha.points", 0), simulate_s)
    return m
