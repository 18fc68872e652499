"""Smoothing optimizers: SGD, entropy-regularized SGD, HJ, heat, elastic.

All six share one inner step, :func:`step`: one minibatch gradient per inner
row, and every L-th step (every step for ``sgd``) an outer update along d, an
estimate of the gradient of the loss smoothed at scale
gamma(k) = gamma0 * (1 - gamma1)^(k // L), with Nesterov lookahead ``delta``:
x <- z - eta d, z <- x + delta (x - x_prev).  The algorithms are parameters
of that step (s = min(eta_y, gamma), N a standard normal draw):

===========  =========================================  ===================
algorithm    inner update of each row                   outer direction d
===========  =========================================  ===================
sgd          none (noise sqrt(eta beta_inv_ex) N is     grad_mb(z)
             added to the outer step)
entropy_sgd  y <- y - s (grad_mb(y) + (y - z) / gamma)  (z - <y>) / gamma
             + sqrt(s beta_inv_ex) N, <y> <- alpha <y>
             + (1 - alpha) y
hj           entropy_sgd with alpha = 0, no noise       (z - y) / gamma
elastic      entropy_sgd, one row per worker, <y>       (z - <y>) / gamma
             averaging the worker mean
hj2          y <- (1 - s / gamma) y + s grad_mb(z - y)  last grad_mb(z - y)
heat         y <- y + grad_mb(z + sqrt(gamma) N)        y / L
===========  =========================================  ===================

After an outer update the rows restart at z (entropy_sgd, hj, elastic) or at
zero (hj2, heat).  Noise is drawn as rng.normal(0, a): bit-equal to
a * standard_normal, one array operation cheaper.

The state is batched.  ``x``, ``z`` and ``<y>`` are (repeats, dim) arrays, one
row per seed of a :func:`run`, and the inner rows are one (repeats * workers,
dim) array, repeat-major, with one worker per repeat except for ``elastic``
(``n_workers``; ``sgd`` has none).  A step updates every row with one array
operation and one stacked minibatch gradient, so the per-call cost of Python
and numpy is paid once for all rows.  A seed's record does not depend on the
seeds run beside it, bit for bit:

* each row draws from its own stream: the row of repeat p (seed + p) from
  ``substream(seed + p, "optimizer")``, elastic worker w of repeat p from
  ``worker_streams(seed + p, "worker", n_workers)[w]``; within a stream the
  draws of a step keep their order (minibatch indices, then noise; for heat
  the perturbation, then the indices), and a full batch draws no indices;
* ``TinyMLP.minibatch_grad`` runs each row through the same BLAS call a
  single row makes (stacked matmul; einsum would differ in the last bits);
* the elastic worker mean reduces a (repeats, workers, dim) view over the
  workers, the order a mean over a list of workers takes;
* the control energy adds ``float(d[p] @ d[p])`` per repeat; a batched
  einsum of the same products is not bit-equal;
* a repeat whose loss turns non-finite stops recording (see :func:`run`)
  while its rows keep being stepped with the others, which they do not touch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .objectives import Objective
from .rng import substream, worker_streams

Array = np.ndarray

ALGORITHMS = ("sgd", "entropy_sgd", "hj", "hj2", "heat", "elastic")

# The one table of per-algorithm defaults: inner steps per outer update,
# extrinsic noise and lookahead strength.
ALGO_DEFAULTS = {
    "sgd": dict(L=1, beta_inv_ex=0.0, delta=0.0),
    "entropy_sgd": dict(L=20, beta_inv_ex=1e-8, delta=0.9),
    "hj": dict(L=5, beta_inv_ex=0.0, delta=0.0),
    "hj2": dict(L=5, beta_inv_ex=0.0, delta=0.0),
    "heat": dict(L=20, beta_inv_ex=0.0, delta=0.0),
    "elastic": dict(L=20, beta_inv_ex=1e-8, delta=0.9),
}


@dataclass
class OptimizerConfig:
    eta: float = 0.1
    eta_y: float = 0.1
    L: int = 20
    gamma0: float = 0.1
    gamma1: float = 1e-3
    beta_inv_ex: float = 0.0
    alpha: float = 0.75
    delta: float = 0.0
    n_workers: int = 4
    batch_size: int | None = None
    anneal_factor: float | None = None      # step-size drop factor
    anneal_period: float | None = None      # in effective epochs

    def __post_init__(self):
        if self.eta <= 0 or self.eta_y <= 0:
            raise ValueError("step sizes must be positive")
        if self.L < 1:
            raise ValueError("L must be a positive integer")
        if self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive")
        if not (0.0 <= self.gamma1 < 1.0):
            raise ValueError("gamma1 must lie in [0, 1)")
        if self.beta_inv_ex < 0:
            raise ValueError("beta_inv_ex must be >= 0")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError("delta must lie in [0, 1)")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.anneal_factor is not None and self.anneal_factor <= 0:
            raise ValueError("anneal_factor must be positive")
        if self.anneal_period is not None and self.anneal_period <= 0:
            raise ValueError("anneal_period must be positive")


def default_config(algo: str, **overrides) -> OptimizerConfig:
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    return OptimizerConfig(**{**ALGO_DEFAULTS[algo], **overrides})


def gamma_schedule(k: int, cfg: OptimizerConfig) -> float:
    """Scoping schedule gamma0 * (1 - gamma1)^(k // L), non-increasing in k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return cfg.gamma0 * (1.0 - cfg.gamma1) ** (k // cfg.L)


@dataclass(frozen=True)
class _Plan:
    """An algorithm's constants, resolved once per run."""
    cfg: OptimizerConfig
    algo: str
    inner: Callable              # the row update; returns d on the last inner step
    grad: Callable               # (rows, rngs, batch_size) -> one stochastic gradient per row
    every: int                   # inner steps per outer update
    width: int                   # inner rows per repeat (0 for sgd)
    grads: int                   # gradients per repeat and inner step
    alpha: float
    noise: float                 # extrinsic noise on the rows
    outer_noise: float           # extrinsic noise on the outer step
    anneal: bool


@dataclass
class OptimizerState:
    x: Array                       # (repeats, dim) outer iterates
    z: Array                       # (repeats, dim) lookahead anchors; equal x when delta == 0
    rows: Array                    # (repeats * width, dim) inner iterates, repeat-major
                                   # (hj2: the offset, heat: the gradient sum)
    y_avg: Array                   # (repeats, dim) running average <y> of each repeat's row mean
    rngs: list[np.random.Generator]  # one stream per row (sgd: per repeat)
    control_energy: Array          # (repeats,)
    k: int = 0                     # inner-step counter, shared by the repeats
    gamma: float = 0.0             # smoothing scale of the current outer step
    outer_steps: int = 0
    grad_evals: int = 0            # per repeat
    epoch_size: tuple[int, int] = (1, 1)   # (samples per gradient, samples per epoch)
    plan: _Plan | None = None


def _width(algo: str, cfg: OptimizerConfig) -> int:
    return {"sgd": 0, "elastic": cfg.n_workers}.get(algo, 1)


def init_state(objective: Objective, x0, cfg: OptimizerConfig, seed: int, algo: str = "entropy_sgd",
               repeats: int = 1) -> OptimizerState:
    """State of ``repeats`` independent runs from ``x0``, repeat r seeded ``seed + r``."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (objective.dim,):
        raise ValueError("state vectors must match the objective dimension")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    x = np.tile(x0, (repeats, 1))
    width = _width(algo, cfg)
    if algo == "elastic":
        rngs = [g for r in range(repeats) for g in worker_streams(seed + r, "worker", width)]
    else:
        rngs = [substream(seed + r, "optimizer") for r in range(repeats)]
    state = OptimizerState(x=x, z=x.copy(), rows=np.empty((repeats * width, x.shape[1])), y_avg=x.copy(),
                           rngs=rngs, control_energy=np.zeros(repeats),
                           epoch_size=objective.epoch_size(cfg.batch_size))
    _restart(state, _resolve(state, objective, cfg, algo))
    return state


# ---------------------------------------------------------------------------
# the inner step


def _scope(state: OptimizerState, cfg: OptimizerConfig) -> None:
    """Set the smoothing scale of the outer step starting at ``state.k``.
    The rows divide by it; ``sgd``, which has none, only logs the schedule
    and may run on after it underflows."""
    state.gamma = gamma_schedule(state.k, cfg)
    if state.gamma <= 0.0:
        raise ValueError(f"gamma underflowed to 0 at step {state.k}: gamma1 shrinks it too fast")


def _normal(rngs, scale: float, n: int) -> Array:
    """One row of n N(0, scale^2) draws from each stream."""
    return np.array([rng.normal(0.0, scale, n) for rng in rngs])


def _per_row(a: Array, width: int) -> Array:
    """Each repeat's (dim,) vector repeated for its ``width`` rows."""
    return a if width == 1 else np.repeat(a, width, axis=0)


def _sgd(state, p, last):
    return p.grad(state.z, state.rngs, p.cfg.batch_size)


def _coupled(state, p, last):
    """Each row takes a noisy descent step on f(y) + |y - z|^2 / (2 gamma),
    its step clamped to gamma so the coupling stays stable as gamma shrinks."""
    gamma = state.gamma
    s = min(p.cfg.eta_y, gamma)
    y = state.rows
    y = y - s * (p.grad(y, state.rngs, p.cfg.batch_size) + (y - _per_row(state.z, p.width)) / gamma)
    if p.noise:
        y = y + _normal(state.rngs, math.sqrt(s * p.noise), y.shape[1])
    state.rows = y
    ybar = y if p.width == 1 else y.reshape(-1, p.width, y.shape[1]).mean(axis=1)
    state.y_avg = p.alpha * state.y_avg + (1.0 - p.alpha) * ybar if p.alpha else ybar
    return (state.z - state.y_avg) / gamma if last else None


def _hj2(state, p, last):
    y = state.rows
    g = p.grad(state.z - y, state.rngs, p.cfg.batch_size)
    gamma = state.gamma
    s = min(p.cfg.eta_y, gamma)
    state.rows = (1.0 - s / gamma) * y + s * g
    return g


def _heat(state, p, last):
    eps = _normal(state.rngs, math.sqrt(state.gamma), state.z.shape[1])
    state.rows = total = state.rows + p.grad(state.z + eps, state.rngs, p.cfg.batch_size)
    return total / p.every if last else None


def _resolve(state: OptimizerState, objective: Objective, cfg: OptimizerConfig, algo: str) -> _Plan:
    """Resolve ``algo``'s constants for ``state``, once per run."""
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    width = _width(algo, cfg)
    if state.rows.shape[0] != width * state.x.shape[0]:
        raise ValueError(f"state was not initialized for {algo!r}")
    state.plan = p = _Plan(
        cfg=cfg, algo=algo, inner={"sgd": _sgd, "hj2": _hj2, "heat": _heat}.get(algo, _coupled),
        grad=objective.minibatch_grad, every=1 if algo == "sgd" else cfg.L,
        width=width, grads=max(width, 1),
        alpha=0.0 if algo == "hj" else cfg.alpha,
        noise=cfg.beta_inv_ex if algo in ("entropy_sgd", "elastic") else 0.0,
        outer_noise=cfg.beta_inv_ex if algo == "sgd" else 0.0,
        anneal=bool(cfg.anneal_factor and cfg.anneal_period),
    )
    _scope(state, cfg)
    return p


def _restart(state: OptimizerState, p: _Plan) -> None:
    """Start the rows of an outer step at z (coupled rows) or at zero."""
    state.rows = _per_row(state.z, p.width).copy() if p.inner is _coupled else np.zeros_like(state.rows)
    state.y_avg = state.z.copy()


def _epochs(state: OptimizerState) -> float:
    batch, n_samples = state.epoch_size
    return state.grad_evals * batch / n_samples


def _annealed_eta(state: OptimizerState, cfg: OptimizerConfig) -> float:
    drops = _epochs(state) // cfg.anneal_period
    try:
        return cfg.eta * cfg.anneal_factor ** -drops
    except OverflowError:       # a factor below 1 grows the step past the float range
        return math.inf


def step(state: OptimizerState, objective: Objective, cfg: OptimizerConfig, algo: str) -> OptimizerState:
    """One inner step of ``algo`` for every repeat: one minibatch gradient per
    row, and the outer update when it completes an outer step."""
    p = state.plan
    if p.cfg is not cfg or p.algo != algo:
        p = _resolve(state, objective, cfg, algo)
    last = (state.k + 1) % p.every == 0
    d = p.inner(state, p, last)
    state.k += 1
    state.grad_evals += p.grads
    if not last:
        return state
    # outer update along -d with Nesterov lookahead, then restart the rows
    eta = _annealed_eta(state, cfg) if p.anneal else cfg.eta
    x_old = state.x
    x = state.z - eta * d
    if p.outer_noise:
        x = x + _normal(state.rngs, math.sqrt(eta * p.outer_noise), x.shape[1])
    state.x = x
    state.z = x + cfg.delta * (x - x_old) if cfg.delta else x
    energy = state.control_energy
    for r in range(len(d)):
        energy[r] += 0.5 * float(d[r] @ d[r]) * eta
    state.outer_steps += 1
    if p.width:
        _restart(state, p)
        _scope(state, cfg)
    return state


# ---------------------------------------------------------------------------
# run records


@dataclass
class RunRecord:
    algo: str
    seed: int
    rows: list = field(default_factory=list)   # dict per outer update
    terminal_x: Array | None = None
    aborted: bool = False

    COLUMNS = ("k", "effective_epoch", "loss", "grad_norm", "gamma", "control_energy")

    def column(self, name: str) -> Array:
        return np.array([r[name] for r in self.rows])

    @property
    def final_loss(self) -> float:
        return self.rows[-1]["loss"] if self.rows else math.nan

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.COLUMNS) + "\n")
            for r in self.rows:
                fh.write(",".join(repr(r[c]) if c != "k" else str(r[c]) for c in self.COLUMNS) + "\n")

    @classmethod
    def from_csv(cls, path, algo: str = "", seed: int = 0) -> "RunRecord":
        rec = cls(algo=algo, seed=seed)
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                parts = line.strip().split(",")
                row = {h: (int(v) if h == "k" else float(v)) for h, v in zip(header, parts)}
                rec.rows.append(row)
        return rec


def run(algo: str, objective: Objective, cfg: OptimizerConfig | None, seed: int,
        n_outer_steps: int, x0=None, record_every: int = 1,
        repeats: int | None = None) -> RunRecord | list[RunRecord]:
    """Execute ``n_outer_steps`` outer updates of the named optimizer.

    With ``repeats`` given, the seeds ``seed .. seed + repeats - 1`` run as
    rows of one batched state and a list of one record per seed is returned;
    without it, one seed runs and its record is returned.  Either way a
    seed's record is the same: identical (config, seed) produce identical
    rows.  A non-finite loss aborts that seed: its record stops, flagged,
    with the iterate of that moment, while the other seeds run on.
    """
    cfg = cfg if cfg is not None else default_config(algo)
    if x0 is None:
        x0 = objective.initial_point() if hasattr(objective, "initial_point") else np.ones(objective.dim)
    n_seeds = 1 if repeats is None else repeats
    state = init_state(objective, x0, cfg, seed, algo, n_seeds)
    records = [RunRecord(algo=algo, seed=seed + r) for r in range(n_seeds)]
    live = list(range(n_seeds))

    def log_row(r):
        x = state.x[r]
        loss = objective.value(x)
        records[r].rows.append(dict(
            k=state.k,
            effective_epoch=_epochs(state),
            loss=loss,
            grad_norm=float(np.linalg.norm(objective.grad(x))),
            gamma=gamma_schedule(max(state.k - 1, 0), cfg),
            control_energy=float(state.control_energy[r]),
        ))
        return loss

    inner_steps = range(cfg.L)
    for outer in range(n_outer_steps):
        for _ in inner_steps:
            step(state, objective, cfg, algo)
        if (outer + 1) % record_every == 0 or outer == n_outer_steps - 1:
            for r in list(live):
                if not math.isfinite(log_row(r)):
                    records[r].aborted = True
                    records[r].terminal_x = state.x[r].copy()
                    live.remove(r)
            if not live:
                break
    for r in live:
        records[r].terminal_x = state.x[r].copy()
    return records if repeats is not None else records[0]
