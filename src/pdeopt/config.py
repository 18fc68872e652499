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

:data:`KEY_SPECS` holds one converter per key, the one place a value's
range is checked: a real number must be finite and within its key's bound
(a positive ``gamma``, a ``grid_n`` of at least 3, ...), an integer key
takes an integer (a JSON ``64.0`` too, but a fraction is refused, not
truncated), and no number key takes a boolean, so a flag and a file are
refused alike, with one ``config error:`` line, before the objective is
resolved.  The converters
also check names: ``scheme`` (``fd`` is short for ``monotone_fd``),
``boundary``, ``algo`` and ``algos`` (at least one, no name twice).
``objective`` and ``out`` take a string only: a JSON null is refused, not
read as ``'None'``.  Checks that need the
objective, the grid or a second key stay with the code that has them.

Every kind reads ``objective``, ``out`` and ``threads``.  ``optimize``,
``compare`` and ``solve_pde`` require ``objective`` (its default is
:data:`REQUIRED`); ``spectrum`` runs without one.  Every kind that
draws random numbers reads ``seed``: all but ``solve_pde`` and ``figure1``,
which are deterministic.  Only ``optimize`` and ``compare`` read
``repeats``, and their optimizer keys default to ``per-algorithm``,
resolved by ``optimizers.default_config``.
``threads`` has no effect: repeats run as rows of one batched optimizer
state, not on threads.  It stays only because the benchmark's ops pass it.

Accepted config formats: an INI-style text file with ``key = value``
sections, or the JSON equivalent (one object per section).  Sections are
labels: the loader flattens them, and refuses a key set in two sections
or written twice in one (in JSON, twice in any one object).
A file that cannot be read or parsed is a ``ConfigError`` naming the file,
as is every refusal of user input here.  Keys keep their case (``T`` is not
``t``).  Flags override file values.  A config is its kind and exactly the
keys the user set, ``out`` included.  This module holds the manifest's
format, ``parse_manifest(emit_manifest(cfg)) == cfg``;
``experiments.run_experiment`` writes it into each run directory as
``manifest.json``.
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
    raise ValueError("must be a boolean: true, yes, on or 1; false, no, off or 0")


def _parse(v, integer: bool):
    """v as a finite float, or as an int if ``integer``; None for a bool, text
    that does not parse, NaN, inf, or a fraction where an integer is due."""
    if isinstance(v, bool):
        return None
    try:
        x = int(v) if integer and not isinstance(v, float) else float(v)
    except (TypeError, ValueError, OverflowError):
        return None
    if not abs(x) < float("inf"):
        return None
    if integer and isinstance(x, float):
        return int(x) if x.is_integer() else None
    return x


def _number(integer=False, low=None, strict=False):
    """A converter to float, or to int if ``integer``, that refuses what
    ``_parse`` refuses and a value below ``low`` (or at it, if ``strict``)."""
    bound = "" if low is None else f" {'>' if strict else '>='} {low}"
    rule = ("an integer" if integer else "a finite number") + bound

    def convert(v):
        x = _parse(v, integer)
        if x is None or low is not None and not (x > low if strict else x >= low):
            raise ValueError(f"must be {rule}")
        return x
    return convert


_integer = _number(integer=True)
_finite = _number()
_positive = _number(low=0, strict=True)
_nonneg = _number(low=0)
_count = _number(integer=True, low=1)


def _float_list(v) -> list[float]:
    items = v if isinstance(v, (list, tuple)) else [x for x in str(v).split(",") if x.strip()]
    return [_finite(x) for x in items]


def _str_list(v) -> list[str]:
    if isinstance(v, (list, tuple)):
        return [str(x) for x in v]
    return [s.strip() for s in str(v).split(",") if s.strip()]


def _opt_int(v):
    if v is None or str(v).strip().lower() in ("none", ""):
        return None
    return _integer(v)


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
    algos = [_algo(a) for a in _str_list(v)]
    if not algos:
        raise ValueError("must name at least one algorithm")
    if len(set(algos)) < len(algos):
        raise ValueError("an algorithm is named twice")
    return algos


# key -> converter: its type, and its range where one is fixed
KEY_SPECS: dict[str, object] = {
    "objective": str, "seed": _integer, "out": str, "repeats": _integer, "threads": _integer,
    # optimizer
    "algo": _algo, "algos": _algos, "eta": _finite, "eta_y": _finite, "L": _integer,
    "gamma0": _finite, "gamma1": _finite, "beta_inv_ex": _finite, "alpha": _finite,
    "delta": _finite, "n_workers": _integer, "batch_size": _opt_int, "steps": _integer,
    "budget": _integer, "record_every": _integer, "anneal_factor": _finite,
    "anneal_period": _finite, "assert_vs_sgd": _bool,
    # pde
    "scheme": _scheme, "beta_inv": _nonneg, "t": _positive, "grid_n": _number(integer=True, low=3),
    "dt": _finite, "boundary": _choice(*BOUNDARIES),
    # analysis
    "gamma": _positive, "beta": _positive, "x": _finite, "x0": _finite,
    "epsilons": _float_list, "probes": _float_list, "n_seeds": _count,
    "n_paths": _integer, "n_steps": _integer, "burn_in": _integer, "n_chains": _integer, "T": _nonneg,
    "t_smooth": _positive, "beta_inv_fp": _nonneg, "window_frac": _positive,
    "min_gap": _nonneg, "n_random": _count, "tolerance": _finite, "rho0_sigma": _positive,
}


@dataclass
class ExperimentConfig:
    """An experiment kind and exactly the keys the user set (``params``)."""
    kind: str
    params: dict = field(default_factory=dict)

    def param(self, key):
        """``key`` as set, else the kind's default.  A key outside the kind's
        table raises ``LookupError``: the runner and :data:`KINDS` disagree."""
        defaults = KINDS[self.kind].defaults
        if key not in defaults:
            raise LookupError(f"experiment kind {self.kind!r} reads no key {key!r}")
        return self.params.get(key, defaults[key])

    @property
    def objective(self) -> str:
        """The objective as set, or "" when unset."""
        return self.params.get("objective", "")


PER_ALGORITHM = "per-algorithm"
OPTIMIZER_KEYS = tuple(f.name for f in fields(OptimizerConfig))


class Kind(NamedTuple):
    command: str          # the CLI subcommand
    defaults: dict        # every key the runner reads -> its default


REQUIRED = "required"   # the default of a key that parse_config refuses to leave unset
_COMMON = {"objective": "", "out": None, "threads": 1}
_SEEDED = {**_COMMON, "seed": 0}           # the kinds that draw random numbers
_OPTIMIZING = {**_SEEDED, "objective": REQUIRED, "repeats": 1,
               **dict.fromkeys(OPTIMIZER_KEYS, PER_ALGORITHM)}

KINDS: dict[str, Kind] = {
    "optimize": Kind("optimize", {**_OPTIMIZING, "algo": "sgd", "steps": 200, "record_every": 1}),
    "compare": Kind("compare", {
        **_OPTIMIZING, "algos": ("sgd", "entropy_sgd", "hj"), "budget": 20000,
        "record_every": 0,                  # 0: about 400 rows per run
        "assert_vs_sgd": True,
    }),
    "solve_pde": Kind("solve-pde", {
        **_COMMON, "objective": REQUIRED, "scheme": "cole_hopf", "beta_inv": 0.1, "t": 0.5, "grid_n": 513,
        "dt": None,                         # None: the scheme's stability limit
        "boundary": "extrapolating",
    }),
    "figure1": Kind("reproduce-figure1", {
        **_COMMON, "objective": "rugged_s3_m6", "grid_n": 513, "t_smooth": 1.0,
        "beta_inv": 0.2, "beta_inv_fp": 0.02, "T": 6.0, "window_frac": 0.1, "min_gap": 0.02,
        "rho0_sigma": None,                 # None: 0.3 of the box width
    }),
    "homogenization": Kind("verify-homogenization", {
        **_SEEDED, "objective": "double_well_a1", "gamma": 0.3, "beta_inv": 1e-8,
        "epsilons": (1e-1, 1e-2, 1e-3),
        "probes": (-1.6, -1.35, -0.75, -0.55, -0.35, 0.35, 0.55, 0.75, 1.35, 1.6),
        "tolerance": 0.05, "n_seeds": 32,
    }),
    "control": Kind("control-improvement", {
        **_SEEDED, "objective": "double_well_a1", "T": 2.0, "beta_inv": 0.2,
        "n_paths": 10000, "grid_n": 1025, "x0": 0.0,
    }),
    "invariant_measure": Kind("invariant-measure", {
        **_SEEDED, "objective": "quadratic_c1_n1", "gamma": 1.0, "beta": 1.0, "x": 2.0,
        "n_steps": 1_000_000, "burn_in": 2000, "n_chains": 32,
    }),
    "spectrum": Kind("spectrum", {**_SEEDED, "n_random": 100}),
}


def _convert(key: str, value):
    try:
        if KEY_SPECS[key] is str and not isinstance(value, str):    # a JSON null or number
            raise ValueError("must be a string")
        return KEY_SPECS[key](value)
    except (TypeError, ValueError) as exc:
        # a value as typed: the JSON 64.9 and the flag text '64.9' read alike
        text = value if isinstance(value, str) else json.dumps(value, default=str)
        raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})") from None


def load_config_file(path) -> dict:
    """Flat key -> raw value mapping from a JSON or key=value sections file.
    A file that cannot be read as text, does not parse, writes a key twice in
    one section or JSON object, or sets a key in two sections is refused
    naming the file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")

    def once(pairs):        # json.loads would keep the later of a key written twice
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ConfigError(f"{path}: key {key!r} is written twice in one object")
            seen.add(key)
        return dict(pairs)

    try:
        text = path.read_text()
        if path.suffix == ".json" or text.lstrip().startswith("{"):
            sections = json.loads(text, object_pairs_hook=once)
        else:
            # [DEFAULT] is a section like any other, not merged into each: a key sits in one
            cp = configparser.ConfigParser(default_section="")
            cp.optionxform = str            # keep case: `T` and `L` are keys, `t` is another
            cp.read_string(text, source=str(path))
            sections = {name: dict(cp.items(name)) for name in cp.sections()}
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except configparser.Error as exc:       # its message names the file
        raise ConfigError(" ".join(str(exc).split())) from None
    if not isinstance(sections, dict):
        raise ConfigError(f"{path}: the top level must map sections to keys")
    flat, where = {}, {}
    for section, content in sections.items():
        if not isinstance(content, dict):
            raise ConfigError(f"{path}: section {section!r} must map keys to values")
        for key, value in content.items():
            if key in where:
                raise ConfigError(f"{path}: key {key!r} is set in sections {where[key]!r} and {section!r}")
            flat[key], where[key] = value, section
    return flat


def parse_config(path=None, overrides: dict | None = None, kind: str | None = None) -> ExperimentConfig:
    """Build a strict, typed configuration.

    Precedence: flag overrides > file values.  ``kind``, when given (the CLI
    passes its subcommand's), must agree with a ``kind`` in the file or the
    overrides; two that differ raise ``ConfigError`` naming both.  A key the
    kind does not read, a mistyped value, or a ``REQUIRED`` key left unset
    raises ``ConfigError`` naming the key.
    Defaults stay out: they resolve when the runner reads the key.
    """
    raw: dict = {}
    if path is not None:
        raw.update(load_config_file(path))
    for k, v in (overrides or {}).items():
        if v is not None:
            raw[k] = v
    file_kind = raw.pop("kind", None)
    if kind is None:
        kind = file_kind
    elif file_kind is not None and str(file_kind) != kind:
        raise ConfigError(f"the config's kind {str(file_kind)!r} differs from the requested kind {kind!r}")
    if kind is None:
        raise ConfigError("missing required key 'kind'")
    kind = str(kind)
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")

    cfg = ExperimentConfig(kind=kind)
    for key, value in raw.items():
        if key not in KINDS[kind].defaults:
            raise ConfigError(f"experiment kind {kind!r} reads no key {key!r}")
        cfg.params[key] = _convert(key, value)
    for key, default in KINDS[kind].defaults.items():
        if default is REQUIRED and key not in cfg.params:
            raise ConfigError(f"missing required key {key!r}")
    return cfg


def emit_manifest(cfg: ExperimentConfig) -> dict:
    return {"kind": cfg.kind, "params": dict(cfg.params)}


def parse_manifest(data: dict) -> ExperimentConfig:
    return ExperimentConfig(kind=data["kind"], params=dict(data["params"]))

