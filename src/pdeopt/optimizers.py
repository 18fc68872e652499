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

Each inner step has two phases.  The points phase returns the rows'
gradient points, drawing any perturbation first: z for sgd, y for the coupled
rows (entropy_sgd, hj, elastic), z - y for hj2, z + sqrt(gamma) N for heat;
then the minibatch indices are drawn for them.  The apply phase takes one
gradient per row, updates the rows and, on the last inner step, makes the
outer update.  One function, ``_step``, runs the two phases around one
gradient call for a list of states; ``step(state)`` is
:func:`run_lockstep`'s inner step on one state.

:func:`init_state` binds a state to its objective, config and algorithm
once; ``step(state)`` takes nothing else, so a state cannot be stepped as
another run than the one it was made for.

The state is batched.  ``x``, ``z`` and ``<y>`` are (repeats, dim) arrays, one
row per seed of a run, and the inner rows are one (repeats * workers, dim)
array, repeat-major, with one worker per repeat except for ``elastic``
(``n_workers``; ``sgd`` has none).  :func:`run_lockstep` steps several runs
on one objective in lockstep, one ``_step`` over the states still stepping
per inner step, so the per-call cost of Python and numpy is paid once for
all rows of all runs; :func:`run` is its one-run call.  A seed's record
does not depend on the seeds or runs stepped beside it, bit for bit:

* each row draws from its own stream: the row of repeat p (seed + p) from
  ``substream(seed + p, "optimizer")``, elastic worker w of repeat p from
  ``worker_streams(seed + p, "worker", n_workers)[w]``; within a stream the
  draws of a step keep their order (minibatch indices, then noise; for heat
  the perturbation, then the indices), and a full batch draws no indices.
  Stacking runs moves no draw from one stream to another.  Objectives take
  no streams: the minibatch policy (the default ``BATCH_SIZE``, the
  refusals, the draw) is this module's, resolved by :func:`init_state`, and
  the indices are drawn in one place, :func:`_draw`, and handed to
  ``TinyMLP.minibatch_grad``.  Inside a run, rows whose streams draw nothing
  but indices (hj, hj2, and sgd, entropy_sgd and elastic without extrinsic
  noise, on a dataset with b < n) draw them for up to 128 steps in one call
  per stream: the same values, and the same stream state at the end, as one
  call per step.  Other rows, and a direct :func:`step`, draw per step;
* ``TinyMLP.minibatch_grad`` runs each row through the same BLAS call a
  single row makes (stacked matmul; einsum would differ in the last bits),
  so a row's gradient is the same in a stack of one run's rows or of many;
* the analytic objectives' ``grad_batch`` rows do not depend on the rows
  beside them (``Quadratic`` forms Qx by einsum: matmul runs one row
  through another kernel than many);
* the elastic worker mean reduces a (repeats, workers, dim) view over the
  workers, the order a mean over a list of workers takes;
* the control energy adds ``float(d[p] @ d[p])`` per repeat; a batched
  einsum of the same products is not bit-equal;
* a repeat whose loss turns non-finite stops recording while its rows keep
  being stepped with the others, which they do not touch; a run leaves the
  stack when all its repeats have stopped, or its outer steps are done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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
        for key, ok, rule in (
            ("eta", self.eta > 0, "step sizes must be positive"),
            ("eta_y", self.eta_y > 0, "step sizes must be positive"),
            ("L", self.L >= 1, "L must be a positive integer"),
            ("gamma0", self.gamma0 > 0, "gamma0 must be positive"),
            ("gamma1", 0.0 <= self.gamma1 < 1.0, "gamma1 must lie in [0, 1)"),
            ("beta_inv_ex", self.beta_inv_ex >= 0, "beta_inv_ex must be >= 0"),
            ("alpha", 0.0 <= self.alpha <= 1.0, "alpha must lie in [0, 1]"),
            ("delta", 0.0 <= self.delta < 1.0, "delta must lie in [0, 1)"),
            ("n_workers", self.n_workers >= 1, "n_workers must be >= 1"),
            ("batch_size", self.batch_size is None or self.batch_size >= 1, "batch_size must be >= 1"),
            ("anneal_factor", self.anneal_factor is None or self.anneal_factor > 0, "anneal_factor must be positive"),
            ("anneal_period", self.anneal_period is None or self.anneal_period > 0, "anneal_period must be positive"),
        ):
            if not ok:
                raise ValueError(f"{key}={getattr(self, key)}: {rule}")


def default_config(algo: str, **overrides) -> OptimizerConfig:
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    return OptimizerConfig(**{**ALGO_DEFAULTS[algo], **overrides})


def gamma_schedule(k: int, cfg: OptimizerConfig) -> float:
    """Scoping schedule gamma0 * (1 - gamma1)^(k // L), non-increasing in k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return cfg.gamma0 * (1.0 - cfg.gamma1) ** (k // cfg.L)


BATCH_SIZE = 32     # samples per minibatch when the config sets none (or n, if fewer)

# Rows whose streams draw nothing but minibatch indices draw them inside
# :func:`run` for up to this many steps in one call per stream.  Longer
# chunks save no more time and cost memory: on a compare of mlp_h8_n200
# with 6 repeats, 1,024 steps ran at the same speed with a peak RSS 4 MB
# (7 %) higher.
_INDEX_CHUNK = 128


@dataclass(frozen=True)
class _Plan:
    """An algorithm's constants, resolved once per run by :func:`init_state`."""
    cfg: OptimizerConfig
    points: Callable             # (state, plan) -> the rows' gradient points, any perturbation drawn first
    apply: Callable              # (state, plan, g, last) -> the row update; returns d on the last inner step
    grad: Callable               # (rows[, idx]) -> one gradient per row: the objective's
                                 # minibatch_grad when the plan draws, else its grad_batch
    draw: bool                   # a minibatch smaller than the dataset: :func:`_draw` draws its indices
    ahead: bool                  # the rows' streams draw nothing but indices
    batch: int                   # samples per stochastic gradient
    epoch: int                   # samples per epoch
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
    plan: _Plan | None = None
    draw_until: int = 0            # the step its run stops at; before it, a plan.ahead draws indices ahead
    indices: Array | None = None   # (rows, steps, b) indices drawn ahead, the chunk holding step k


def init_state(objective: Objective, x0, cfg: OptimizerConfig, seed: int, algo: str,
               repeats: int = 1) -> OptimizerState:
    """State of ``repeats`` independent runs of ``algo`` on ``objective``
    from ``x0``, repeat r seeded ``seed + r``.  The state is bound to the
    three: :func:`step` reads them from ``state.plan``, with the batch
    resolved once by :func:`_batch`."""
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (objective.dim,):
        raise ValueError("state vectors must match the objective dimension")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    x = np.tile(x0, (repeats, 1))
    width = {"sgd": 0, "elastic": cfg.n_workers}.get(algo, 1)
    if algo == "elastic":
        rngs = [g for r in range(repeats) for g in worker_streams(seed + r, "worker", width)]
    else:
        rngs = [substream(seed + r, "optimizer") for r in range(repeats)]
    noise = cfg.beta_inv_ex if algo in ("entropy_sgd", "elastic") else 0.0
    outer_noise = cfg.beta_inv_ex if algo == "sgd" else 0.0
    batch, n_samples = _batch(objective, cfg.batch_size)
    draw = batch < n_samples
    points, apply = _PHASES.get(algo, _COUPLED_PHASES)
    plan = _Plan(
        cfg=cfg, points=points, apply=apply,
        grad=objective.minibatch_grad if draw else objective.grad_batch, draw=draw,
        # heat draws its perturbation before the indices
        ahead=algo != "heat" and not noise and not outer_noise, batch=batch, epoch=n_samples,
        every=1 if algo == "sgd" else cfg.L, width=width, grads=max(width, 1),
        alpha=0.0 if algo == "hj" else cfg.alpha, noise=noise, outer_noise=outer_noise,
        anneal=bool(cfg.anneal_factor and cfg.anneal_period),
    )
    state = OptimizerState(x=x, z=x.copy(), rows=np.empty((repeats * width, x.shape[1])), y_avg=x.copy(),
                           rngs=rngs, control_energy=np.zeros(repeats), plan=plan)
    _scope(state, cfg)
    _restart(state, plan)
    return state


def _batch(objective: Objective, batch_size: int | None) -> tuple[int, int]:
    """(samples per stochastic gradient, samples per epoch).  Without a
    dataset a gradient is one epoch, and a batch size is refused; on a
    dataset of n samples the default batch is min(``BATCH_SIZE``, n)."""
    n = objective.n_samples
    if n is None:
        if batch_size is not None:
            raise ValueError(f"batch_size={batch_size}: {type(objective).__name__} has no dataset")
        return 1, 1
    b = min(BATCH_SIZE, n) if batch_size is None else batch_size
    if b > n:
        raise ValueError("batch_size cannot exceed n_samples")
    return b, n


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


def _indices(rngs, n: int, b: int, steps: int) -> Array:
    """Sample indices of the next ``steps`` minibatches of b out of n for
    each stream, shape (R, steps, b), drawn with replacement by one
    ``integers`` call per stream.  One call of steps * b draws the same
    values as steps calls of b and leaves the stream in the same state:
    numpy's bounded draws keep the unused half of a 64-bit word in the bit
    generator, across calls as within one."""
    return np.array([r.integers(0, n, size=steps * b) for r in rngs]).reshape(len(rngs), steps, b)


def _draw(state: OptimizerState, p: _Plan) -> Array | None:
    """Minibatch indices of the step's gradients, one (b,) row per stream,
    drawn here, the one place they are drawn; None for a full batch.  Before
    ``state.draw_until``, a plan ``ahead`` draws each stream's indices at the
    steps k that are multiples of ``_INDEX_CHUNK``, for that many steps
    (fewer at the end) in one call, and step k takes slice k %
    ``_INDEX_CHUNK`` of them; otherwise each step draws its own here, after
    heat's perturbation and before a row's noise."""
    if not p.draw:
        return None
    if not p.ahead or state.k >= state.draw_until:
        return _indices(state.rngs, p.epoch, p.batch, 1)[:, 0]
    j = state.k % _INDEX_CHUNK
    if j == 0:
        state.indices = _indices(state.rngs, p.epoch, p.batch, min(_INDEX_CHUNK, state.draw_until - state.k))
    return state.indices[:, j]


def _coupled(state, p, g, last):
    """Each row takes a noisy descent step on f(y) + |y - z|^2 / (2 gamma),
    its step clamped to gamma so the coupling stays stable as gamma shrinks."""
    gamma = state.gamma
    s = min(p.cfg.eta_y, gamma)
    y = state.rows
    y = y - s * (g + (y - _per_row(state.z, p.width)) / gamma)
    if p.noise:
        y = y + _normal(state.rngs, math.sqrt(s * p.noise), y.shape[1])
    state.rows = y
    ybar = y if p.width == 1 else y.reshape(-1, p.width, y.shape[1]).mean(axis=1)
    state.y_avg = p.alpha * state.y_avg + (1.0 - p.alpha) * ybar if p.alpha else ybar
    return (state.z - state.y_avg) / gamma if last else None


def _hj2(state, p, g, last):
    gamma = state.gamma
    s = min(p.cfg.eta_y, gamma)
    state.rows = (1.0 - s / gamma) * state.rows + s * g
    return g


def _heat(state, p, g, last):
    state.rows = total = state.rows + g
    return total / p.every if last else None


# Each algorithm's two phases: its gradient points, any perturbation drawn
# first, then its row update, which returns d on the last inner step.
_PHASES = {
    "sgd": (lambda state, p: state.z, lambda state, p, g, last: g),
    "hj2": (lambda state, p: state.z - state.rows, _hj2),
    "heat": (lambda state, p: state.z + _normal(state.rngs, math.sqrt(state.gamma), state.z.shape[1]), _heat),
}
_COUPLED_PHASES = (lambda state, p: state.rows, _coupled)


def _restart(state: OptimizerState, p: _Plan) -> None:
    """Start the rows of an outer step at z (coupled rows) or at zero."""
    state.rows = _per_row(state.z, p.width).copy() if p.apply is _coupled else np.zeros_like(state.rows)
    state.y_avg = state.z.copy()


def _epochs(state: OptimizerState) -> float:
    """Samples drawn per repeat over the epoch size: k steps of ``grads``
    gradients of ``batch`` samples each."""
    p = state.plan
    return state.k * p.grads * p.batch / p.epoch


def _annealed_eta(state: OptimizerState, cfg: OptimizerConfig) -> float:
    drops = _epochs(state) // cfg.anneal_period
    try:
        return cfg.eta * cfg.anneal_factor ** -drops
    except OverflowError:       # a factor below 1 grows the step past the float range
        return math.inf


def _apply(state: OptimizerState, g: Array) -> None:
    """The apply phase: update the rows by their gradients g, then make the
    outer update when the step completes an outer step."""
    p = state.plan
    cfg = p.cfg
    last = (state.k + 1) % p.every == 0
    d = p.apply(state, p, g, last)
    state.k += 1
    if not last:
        return
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
    if p.width:
        _restart(state, p)
        _scope(state, cfg)


def _step(states: list[OptimizerState]) -> None:
    """One inner step of states that share one gradient: every state's points
    phase (its rows' gradient points, any perturbation drawn first, then the
    minibatch indices drawn for them), one ``plan.grad`` call on the stacked
    points and indices, and every state's apply phase on its own slice of the
    result."""
    points = [(s.plan.points(s, s.plan), _draw(s, s.plan)) for s in states]
    # one state's points and indices go to the gradient as they are, without the copy stacking makes
    X, idx = points[0] if len(points) == 1 else [None if a[0] is None else np.concatenate(a) for a in zip(*points)]
    grad = states[0].plan.grad
    g = grad(X) if idx is None else grad(X, idx)
    start = 0
    for state, (x, _) in zip(states, points):
        _apply(state, g[start:start + len(x)])
        start += len(x)


def step(state: OptimizerState) -> OptimizerState:
    """One inner step of the state's algorithm for every repeat: the inner
    step of :func:`run_lockstep` on this one state."""
    _step([state])
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


class RunSpec(NamedTuple):
    """One run of :func:`run_lockstep`: the algorithm, its config (None: the
    algorithm's defaults), its outer steps and its logging period."""
    algo: str
    cfg: OptimizerConfig | None
    n_outer_steps: int
    record_every: int = 1


@dataclass
class _Lane:
    """A run inside :func:`run_lockstep`: its bound state and its records."""
    state: OptimizerState
    records: list[RunRecord]
    live: list[int]                # the repeats still recording
    log_every: int                 # inner steps between its records: L * record_every


def run(algo: str, objective: Objective, cfg: OptimizerConfig | None, seed: int,
        n_outer_steps: int, x0=None, record_every: int = 1, repeats: int = 1) -> list[RunRecord]:
    """Execute ``n_outer_steps`` outer updates of the named optimizer: the
    one-run call of :func:`run_lockstep`.

    The seeds ``seed .. seed + repeats - 1`` run as rows of one batched state,
    and one record per seed is returned.  A seed's record does not depend on
    ``repeats``: identical (config, seed) produce identical rows.  A
    non-finite loss aborts that seed: its record stops, flagged, with the
    iterate of that moment, while the other seeds run on.
    """
    return run_lockstep(objective, [RunSpec(algo, cfg, n_outer_steps, record_every)], seed, x0, repeats)[0]


def run_lockstep(objective: Objective, specs, seed: int, x0=None, repeats: int = 1) -> list[list[RunRecord]]:
    """Execute several runs (:class:`RunSpec`) on one objective in lockstep,
    each from ``x0`` with the seeds ``seed .. seed + repeats - 1``, and return
    each run's records as :func:`run` would.

    Each inner step is one ``_step`` over the runs still stepping: the
    points phase of every run, one ``plan.grad`` call over their stacked rows
    and indices, then the apply phase of every run.  A run leaves the stack
    when its outer steps are done, or when all its seeds have aborted.  An
    outer step of a run is ``cfg.L`` inner steps (for sgd, L updates), and a
    run logs every ``record_every`` of them and after its last.  A run's
    records do not depend on the runs stepped beside it, bit for bit (see the
    module docstring).
    """
    x0 = objective.initial_point() if x0 is None else x0
    lanes = []
    for algo, cfg, n_outer, record_every in specs:
        if n_outer < 1:
            raise ValueError(f"steps={n_outer}: a run takes at least one outer step")
        if record_every < 1:
            raise ValueError(f"record_every={record_every}: must be at least 1")
        cfg = cfg if cfg is not None else default_config(algo)
        state = init_state(objective, x0, cfg, seed, algo, repeats)
        state.draw_until = n_outer * cfg.L
        lanes.append(_Lane(state, [RunRecord(algo=algo, seed=seed + r) for r in range(repeats)],
                           list(range(repeats)), cfg.L * record_every))
    if len({(lane.state.plan.grad, lane.state.plan.batch) for lane in lanes}) > 1:
        raise ValueError("runs in lockstep must share one gradient: the same objective and batch size")
    stepping = lanes
    while stepping:
        _step([lane.state for lane in stepping])
        for lane in stepping:
            if lane.state.k % lane.log_every == 0 or lane.state.k == lane.state.draw_until:
                _record(lane, objective)
        stepping = [lane for lane in stepping if lane.live and lane.state.k < lane.state.draw_until]
    for lane in lanes:
        for r in lane.live:
            lane.records[r].terminal_x = lane.state.x[r].copy()
    return [lane.records for lane in lanes]


def _record(lane: _Lane, objective: Objective) -> None:
    """Log a row for each live repeat; a non-finite loss aborts its repeat."""
    state = lane.state
    epoch, gamma = _epochs(state), gamma_schedule(max(state.k - 1, 0), state.plan.cfg)
    losses, grads = objective.value_and_grad_batch(state.x[lane.live])
    for r, loss, g in zip(list(lane.live), losses, grads):
        loss = float(loss)
        lane.records[r].rows.append(dict(
            k=state.k, effective_epoch=epoch, loss=loss, grad_norm=float(np.linalg.norm(g)),
            gamma=gamma, control_energy=float(state.control_energy[r]),
        ))
        if not math.isfinite(loss):
            lane.records[r].aborted = True
            lane.records[r].terminal_x = state.x[r].copy()
            lane.live.remove(r)
