"""Strict experiment configuration: typed keys, file + flag merging.

Accepted config formats: an INI-style text file with flat ``key = value``
sections, or the JSON equivalent (one object per section).  Flags override
file values; unknown keys are rejected by name.  Every run directory gets a
``manifest.json`` echoing the keys the user set (defaults are resolved later,
per algorithm, by ``optimizers.default_config``), and
``parse_manifest(emit_manifest(cfg)) == cfg``.

The ``threads`` key (``--threads``) is accepted and has no effect: repeats run
as rows of one batched optimizer state, not on threads.  It stays only
because existing configs and the benchmark's ops still pass it.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(ValueError):
    pass


EXPERIMENT_KINDS = (
    "optimize", "solve_pde", "compare", "figure1", "homogenization",
    "control", "invariant_measure", "spectrum",
)


def _bool(v) -> bool:
    if isinstance(v, bool):
        return v
    s = str(v).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {v!r}")


def _float_list(v) -> list[float]:
    if isinstance(v, (list, tuple)):
        return [float(x) for x in v]
    return [float(x) for x in str(v).split(",") if x.strip()]


def _str_list(v) -> list[str]:
    if isinstance(v, (list, tuple)):
        return [str(x) for x in v]
    return [s.strip() for s in str(v).split(",") if s.strip()]


def _scheme(v) -> str:
    s = str(v).strip()
    return "monotone_fd" if s == "fd" else s    # the one place "fd" is accepted


def _opt_int(v):
    if v is None or str(v).strip().lower() in ("none", ""):
        return None
    return int(v)


# key -> (section, type converter)
KEY_SPECS: dict[str, tuple[str, object]] = {
    # experiment section
    "kind": ("experiment", str),
    "objective": ("experiment", str),
    "seed": ("experiment", int),
    "out": ("experiment", str),
    "repeats": ("experiment", int),
    "threads": ("experiment", int),
    # optimizer section
    "algo": ("optimizer", str),
    "algos": ("optimizer", _str_list),
    "eta": ("optimizer", float),
    "eta_y": ("optimizer", float),
    "L": ("optimizer", int),
    "gamma0": ("optimizer", float),
    "gamma1": ("optimizer", float),
    "beta_inv_ex": ("optimizer", float),
    "alpha": ("optimizer", float),
    "delta": ("optimizer", float),
    "n_workers": ("optimizer", int),
    "batch_size": ("optimizer", _opt_int),
    "steps": ("optimizer", int),
    "budget": ("optimizer", int),
    "record_every": ("optimizer", int),
    "anneal_factor": ("optimizer", float),
    "anneal_period": ("optimizer", float),
    # pde section
    "scheme": ("pde", _scheme),
    "beta_inv": ("pde", float),
    "t": ("pde", float),
    "grid_n": ("pde", int),
    "dt": ("pde", float),
    "boundary": ("pde", str),
    # analysis section
    "gamma": ("analysis", float),
    "beta": ("analysis", float),
    "x": ("analysis", float),
    "x0": ("analysis", float),
    "epsilons": ("analysis", _float_list),
    "probes": ("analysis", _float_list),
    "n_seeds": ("analysis", int),
    "n_paths": ("analysis", int),
    "n_steps": ("analysis", int),
    "burn_in": ("analysis", int),
    "n_chains": ("analysis", int),
    "T": ("analysis", float),
    "t_smooth": ("analysis", float),
    "beta_inv_fp": ("analysis", float),
    "window_frac": ("analysis", float),
    "min_gap": ("analysis", float),
    "n_random": ("analysis", int),
    "tolerance": ("analysis", float),
    "rho0_sigma": ("analysis", float),
    "assert_vs_sgd": ("optimizer", _bool),
}

_EXPERIMENT_FIELDS = ("kind", "objective", "seed", "out", "repeats", "threads")


@dataclass
class ExperimentConfig:
    kind: str
    objective: str = ""
    seed: int = 0
    out: str | None = None
    repeats: int = 1
    threads: int = 1              # accepted, no effect (see the module docstring)
    params: dict = field(default_factory=dict)

    def param(self, key, default=None):
        return self.params.get(key, default)


def _convert(key: str, value):
    if key not in KEY_SPECS:
        raise ConfigError(f"unknown config key {key!r}")
    _, conv = KEY_SPECS[key]
    try:
        return conv(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from None


def load_config_file(path) -> dict:
    """Flat key -> raw value mapping from a JSON or key=value sections file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    flat: dict = {}
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        data = json.loads(text)
        for section, content in data.items():
            if not isinstance(content, dict):
                raise ConfigError(f"section {section!r} must map keys to values")
            for k, v in content.items():
                flat[k] = v
    else:
        cp = configparser.ConfigParser()
        cp.read_string(text)
        for section in cp.sections():
            for k, v in cp.items(section):
                flat[k] = v
    return flat


def parse_config(path=None, overrides: dict | None = None, kind: str | None = None) -> ExperimentConfig:
    """Build a strict, typed configuration.

    Precedence: flag overrides > file values > defaults.  Unknown or
    mistyped keys raise ``ConfigError`` naming the offending key.
    """
    raw: dict = {}
    if path is not None:
        raw.update(load_config_file(path))
    for k, v in (overrides or {}).items():
        if v is not None:
            raw[k] = v
    if kind is not None:
        raw["kind"] = kind

    typed = {k: _convert(k, v) for k, v in raw.items()}
    resolved_kind = typed.pop("kind", None)
    if resolved_kind is None:
        raise ConfigError("missing required key 'kind'")
    if resolved_kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {resolved_kind!r}")

    cfg = ExperimentConfig(kind=resolved_kind)
    for name in _EXPERIMENT_FIELDS[1:]:
        if name in typed:
            setattr(cfg, name, typed.pop(name))
    cfg.params = typed
    return cfg


def emit_manifest(cfg: ExperimentConfig) -> dict:
    return {
        "kind": cfg.kind,
        "objective": cfg.objective,
        "seed": cfg.seed,
        "out": cfg.out,
        "repeats": cfg.repeats,
        "threads": cfg.threads,
        "params": dict(cfg.params),
    }


def parse_manifest(data: dict) -> ExperimentConfig:
    cfg = ExperimentConfig(kind=data["kind"])
    for name in _EXPERIMENT_FIELDS[1:]:
        if name in data:
            setattr(cfg, name, data[name])
    cfg.params = dict(data.get("params", {}))
    return cfg


def write_manifest(cfg: ExperimentConfig, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "manifest.json"
    path.write_text(json.dumps(emit_manifest(cfg), indent=2, sort_keys=True) + "\n")
    return path
