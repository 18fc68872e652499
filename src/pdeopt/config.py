"""Strict experiment configuration: one key table per experiment kind.

:data:`KINDS` declares, for each experiment kind, its CLI subcommand and
every key its runner reads, with that key's default.  The rest derives from
it:

* :func:`parse_config` refuses, by name, a key the kind does not read,
  whether it came from a config file, a CLI flag or an overrides dict;
* ``cli.build_parser`` gives each subcommand one flag per key of its kind
  (``--`` plus the key, ``_`` -> ``-``), read as a string and converted here;
* a runner reads each key through :meth:`ExperimentConfig.param`, which
  returns the value set or the kind's default and raises for a key outside
  the kind's table.

:data:`KEY_SPECS` holds one converter per key.  The converters also check
names: ``scheme`` (``fd`` is short for ``monotone_fd``), ``boundary``,
``algo`` and ``algos``.

Every kind reads ``objective``, ``seed``, ``out`` and ``threads``; only
``optimize`` and ``compare`` read ``repeats``, and their optimizer keys
default to ``per-algorithm``, resolved by ``optimizers.default_config``.
``threads`` has no effect: repeats run as rows of one batched optimizer
state, not on threads.  It stays only because the benchmark's ops pass it.

Accepted config formats: an INI-style text file with ``key = value``
sections, or the JSON equivalent (one object per section).  Sections are
labels: the loader flattens them.  Flags override file values.  Every run
directory gets a ``manifest.json`` echoing the keys the user set, and
``parse_manifest(emit_manifest(cfg)) == cfg``.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

from .optimizers import ALGORITHMS, OptimizerConfig
from .pde_lab import BOUNDARIES, SCHEMES


class ConfigError(ValueError):
    pass


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


def _opt_int(v):
    if v is None or str(v).strip().lower() in ("none", ""):
        return None
    return int(v)


def _choice(*names):
    def convert(v) -> str:
        s = str(v).strip()
        if s not in names:
            raise ValueError(f"{s!r} is not one of {', '.join(names)}")
        return s
    return convert


def _scheme(v) -> str:
    s = str(v).strip()
    return _choice(*SCHEMES)("monotone_fd" if s == "fd" else s)   # the one place "fd" is accepted


_algo = _choice(*ALGORITHMS)


def _algos(v) -> list[str]:
    return [_algo(a) for a in _str_list(v)]


# key -> type converter
KEY_SPECS: dict[str, object] = {
    "objective": str, "seed": int, "out": str, "repeats": int, "threads": int,
    # optimizer
    "algo": _algo, "algos": _algos, "eta": float, "eta_y": float, "L": int,
    "gamma0": float, "gamma1": float, "beta_inv_ex": float, "alpha": float,
    "delta": float, "n_workers": int, "batch_size": _opt_int, "steps": int,
    "budget": int, "record_every": int, "anneal_factor": float,
    "anneal_period": float, "assert_vs_sgd": _bool,
    # pde
    "scheme": _scheme, "beta_inv": float, "t": float, "grid_n": int, "dt": float,
    "boundary": _choice(*BOUNDARIES),
    # analysis
    "gamma": float, "beta": float, "x": float, "x0": float,
    "epsilons": _float_list, "probes": _float_list, "n_seeds": int,
    "n_paths": int, "n_steps": int, "burn_in": int, "n_chains": int, "T": float,
    "t_smooth": float, "beta_inv_fp": float, "window_frac": float,
    "min_gap": float, "n_random": int, "tolerance": float, "rho0_sigma": float,
}


@dataclass
class ExperimentConfig:
    """The run record (the top level of ``manifest.json``) and the other
    keys the user set (``params``)."""
    kind: str
    objective: str = ""
    seed: int = 0
    out: str | None = None
    repeats: int = 1
    threads: int = 1              # accepted, no effect (see the module docstring)
    params: dict = field(default_factory=dict)

    def param(self, key):
        """``key`` as set, else the kind's default.  A key outside the kind's
        table raises ``LookupError``: the runner and :data:`KINDS` disagree."""
        defaults = KINDS[self.kind].defaults
        if key not in defaults:
            raise LookupError(f"experiment kind {self.kind!r} reads no key {key!r}")
        if key in _RECORD:
            value = getattr(self, key)
            return defaults[key] if value == _RECORD[key] else value
        return self.params.get(key, defaults[key])


# the run record's keys and their defaults
_RECORD = {f.name: f.default for f in fields(ExperimentConfig) if f.name not in ("kind", "params")}

PER_ALGORITHM = "per-algorithm"
OPTIMIZER_KEYS = tuple(f.name for f in fields(OptimizerConfig))


class Kind(NamedTuple):
    command: str          # the CLI subcommand
    defaults: dict        # every key the runner reads -> its default


_COMMON = {k: _RECORD[k] for k in ("objective", "seed", "out", "threads")}
_OPTIMIZING = {**_COMMON, "repeats": _RECORD["repeats"], **dict.fromkeys(OPTIMIZER_KEYS, PER_ALGORITHM)}

KINDS: dict[str, Kind] = {
    "optimize": Kind("optimize", {**_OPTIMIZING, "algo": "sgd", "steps": 200, "record_every": 1}),
    "compare": Kind("compare", {
        **_OPTIMIZING, "algos": ("sgd", "entropy_sgd", "hj"), "budget": 20000,
        "record_every": 0,                  # 0: about 400 rows per run
        "assert_vs_sgd": True,
    }),
    "solve_pde": Kind("solve-pde", {
        **_COMMON, "scheme": "cole_hopf", "beta_inv": 0.1, "t": 0.5, "grid_n": 513,
        "dt": None,                         # None: the scheme's stability limit
        "boundary": "extrapolating",
    }),
    "figure1": Kind("reproduce-figure1", {
        **_COMMON, "objective": "rugged_s3_m6", "grid_n": 513, "t_smooth": 1.0,
        "beta_inv": 0.2, "beta_inv_fp": 0.02, "T": 6.0, "window_frac": 0.1, "min_gap": 0.02,
        "rho0_sigma": None,                 # None: 0.3 of the box width
    }),
    "homogenization": Kind("verify-homogenization", {
        **_COMMON, "objective": "double_well_a1", "gamma": 0.3, "beta_inv": 1e-8,
        "epsilons": (1e-1, 1e-2, 1e-3),
        "probes": (-1.6, -1.35, -0.75, -0.55, -0.35, 0.35, 0.55, 0.75, 1.35, 1.6),
        "tolerance": 0.05, "n_seeds": 32,
    }),
    "control": Kind("control-improvement", {
        **_COMMON, "objective": "double_well_a1", "T": 2.0, "beta_inv": 0.2,
        "n_paths": 10000, "grid_n": 1025, "x0": 0.0,
    }),
    "invariant_measure": Kind("invariant-measure", {
        **_COMMON, "objective": "quadratic_c1_n1", "gamma": 1.0, "beta": 1.0, "x": 2.0,
        "n_steps": 1_000_000, "burn_in": 2000, "n_chains": 32,
    }),
    "spectrum": Kind("spectrum", {**_COMMON, "n_random": 100}),
}


def _convert(key: str, value):
    try:
        return KEY_SPECS[key](value)
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

    Precedence: ``kind`` > flag overrides > file values.  A key the kind does
    not read, or a mistyped value, raises ``ConfigError`` naming the key.
    Defaults stay out: they resolve when the runner reads the key.
    """
    raw: dict = {}
    if path is not None:
        raw.update(load_config_file(path))
    for k, v in (overrides or {}).items():
        if v is not None:
            raw[k] = v
    file_kind = raw.pop("kind", None)
    kind = kind if kind is not None else file_kind
    if kind is None:
        raise ConfigError("missing required key 'kind'")
    kind = str(kind)
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")

    cfg = ExperimentConfig(kind=kind)
    for key, value in raw.items():
        if key not in KINDS[kind].defaults:
            raise ConfigError(f"experiment kind {kind!r} reads no key {key!r}")
        if key in _RECORD:
            setattr(cfg, key, _convert(key, value))
        else:
            cfg.params[key] = _convert(key, value)
    return cfg


def emit_manifest(cfg: ExperimentConfig) -> dict:
    return {"kind": cfg.kind, **{k: getattr(cfg, k) for k in _RECORD}, "params": dict(cfg.params)}


def parse_manifest(data: dict) -> ExperimentConfig:
    return ExperimentConfig(kind=data["kind"], params=dict(data.get("params", {})),
                            **{k: data[k] for k in _RECORD if k in data})


def write_manifest(cfg: ExperimentConfig, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "manifest.json"
    path.write_text(json.dumps(emit_manifest(cfg), indent=2, sort_keys=True) + "\n")
    return path
