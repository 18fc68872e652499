"""Test objectives with exact derivatives.

All optimizers and PDE solvers in this package consume the :class:`Objective`
interface.  A subclass defines its loss and exact gradient once, on rows:
``value_batch`` and ``grad_batch`` take points of shape (R, dim), and one
point is row 0 of a one-row batch, so ``value`` and ``grad`` equal the batch
bit for bit.  ``value_and_grad_batch`` returns both, from one forward pass
for :class:`TinyMLP`.  The analytic objectives also have a dense Hessian,
:class:`TinyMLP` has none.  Each objective is built by calling its class
(:func:`make_quadratic` builds c I).

A batch runs in blocks of rows, so its memory grows with the rows and not
with the objective's width: each objective names ``_row_width``, the floats
per row of its widest temporary (3 for :class:`Rugged1D`, dim for
:class:`Quadratic`, 1 for :class:`DoubleWell`, n_samples * hidden for
:class:`TinyMLP`), a block holds max(1, _BLOCK_BYTES // (8 * _row_width))
rows, and the blocks fill one preallocated output.  Rows are computed on
their own, so the blocks keep the bytes of one call, and a batch of at most
one block is that call.

Objectives are pure functions of points and, for :class:`TinyMLP`, of sample
indices: they take no random streams.  A dataset's size is ``n_samples``
(None for the analytic objectives, which have none), and the optimizers draw
its minibatches and hand the indices to ``TinyMLP.minibatch_grad``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial, wraps
from typing import Callable

import numpy as np

Array = np.ndarray
_BLOCK_BYTES = 1 << 22     # 4 MiB: the widest temporary of one block of rows


def _row_blocks(formula):
    """The batch method that runs ``formula(self, X)`` on blocks of rows of X
    and writes each block into one preallocated output per returned array."""
    @wraps(formula)
    def batch(self, X):
        X = np.atleast_2d(X)
        rows = max(1, _BLOCK_BYTES // (8 * self._row_width))
        if len(X) <= rows:
            return formula(self, X)
        outs = None
        for s in range(0, len(X), rows):
            parts = formula(self, X[s : s + rows])
            single = not isinstance(parts, tuple)
            parts = (parts,) if single else parts
            outs = outs or tuple(np.empty((len(X),) + p.shape[1:], p.dtype) for p in parts)
            for out, part in zip(outs, parts):
                out[s : s + rows] = part
            del parts, part     # free this block before the next is computed
        return outs[0] if single else outs
    return batch


class Objective:
    """Scalar loss f: R^n -> R with exact gradient, defined on rows X of
    shape (N, dim) by ``value_batch`` and ``grad_batch``."""

    dim: int
    n_samples: int | None = None     # samples in the dataset; None: no dataset

    def value_batch(self, X: Array) -> Array:
        raise NotImplementedError

    def grad_batch(self, X: Array) -> Array:
        raise NotImplementedError

    def value_and_grad_batch(self, X: Array) -> tuple[Array, Array]:
        """``value_batch(X)`` and ``grad_batch(X)``, bit for bit; an
        objective whose two share work may compute them together."""
        return self.value_batch(X), self.grad_batch(X)

    def value(self, x: Array) -> float:
        return float(self.value_batch(_as_vec(x, self.dim)[None])[0])

    def grad(self, x: Array) -> Array:
        return self.grad_batch(_as_vec(x, self.dim)[None])[0]

    def hessian(self, x: Array) -> Array:
        raise NotImplementedError(f"{type(self).__name__} has no dense Hessian")

    def initial_point(self) -> Array:
        return np.ones(self.dim)


def _as_vec(x, dim: int) -> Array:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.shape != (dim,):
        raise ValueError(f"expected point of shape ({dim},), got {x.shape}")
    return x


class Quadratic(Objective):
    """f(x) = x'Qx/2 + p'x, exact gradient Qx + p and constant Hessian Q."""

    def __init__(self, Q: Array, p: Array):
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if Q.shape[0] != Q.shape[1] or Q.shape[0] != p.shape[0]:
            raise ValueError("Q must be square and match p")
        if not np.allclose(Q, Q.T):
            raise ValueError("Q must be symmetric")
        self.Q = Q
        self.p = p
        self.dim = p.shape[0]
        self._row_width = self.dim      # the (N, dim) einsum terms

    def hessian(self, x):
        return self.Q.copy()

    # Qx by einsum and f = x.(Qx/2 + p) by a row sum, not matmul: matmul runs
    # one row through another BLAS kernel than many, which may sum in another
    # order
    @_row_blocks
    def value_batch(self, X):
        return (X * (0.5 * np.einsum("ij,nj->ni", self.Q, X) + self.p)).sum(axis=1)

    @_row_blocks
    def grad_batch(self, X):
        return np.einsum("ij,nj->ni", self.Q, X) + self.p


class DoubleWell(Objective):
    """f(x) = (x^2 - a^2)^2 in 1D: minima at +-a, barrier a^4 at the origin."""

    dim = 1
    _row_width = 1

    def __init__(self, a: float):
        if a <= 0:
            raise ValueError("a must be positive")
        self.a = float(a)

    def hessian(self, x):
        x = _as_vec(x, 1)[0]
        return np.array([[12.0 * x * x - 4.0 * self.a**2]])

    @_row_blocks
    def value_batch(self, X):
        x = X[:, 0]
        return (x * x - self.a**2) ** 2

    @_row_blocks
    def grad_batch(self, X):
        x = X[:, 0]
        return (4.0 * x * (x * x - self.a**2))[:, None]


RUGGED_BOX = (-3.0, 3.0)   # the box Rugged1D's wells are laid out on


class Rugged1D(Objective):
    """Coercive 1D landscape with many seeded local minima.

    A quadratic envelope keeps the function coercive; a dominant sinusoid sets
    the number of wells and weaker seeded harmonics make their depths
    irregular, so there is a unique global minimum at a seed-dependent
    location.
    """

    dim = 1
    _row_width = 3      # the (N, 3) waves

    def __init__(self, seed: int, n_modes: int):
        if n_modes < 2:
            raise ValueError("n_modes must be >= 2")
        self.seed = int(seed)
        self.n_modes = int(n_modes)
        self.box = RUGGED_BOX
        rng = np.random.default_rng(np.random.SeedSequence([0x5EED, self.seed, self.n_modes]))
        width = self.box[1] - self.box[0]
        self.k_env = 1.0
        self.center = rng.uniform(-0.08, 0.08) * width
        omega0 = 2.0 * np.pi * (n_modes + 1) / width
        # amplitude large enough that the dominant wave overpowers the
        # envelope slope everywhere in the box, guaranteeing >= n_modes wells
        env_slope = self.k_env * (0.5 * width + abs(self.center))
        amp0 = 1.7 * env_slope / omega0 * rng.uniform(0.95, 1.15)
        amps = [amp0, 0.18 * amp0 * rng.uniform(0.6, 1.4), 0.08 * amp0 * rng.uniform(0.6, 1.4)]
        omegas = [omega0, omega0 * rng.uniform(1.7, 2.3), omega0 * rng.uniform(2.8, 3.4)]
        phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
        self._amps = np.array(amps)
        self._omegas = np.array(omegas)
        self._phases = phases

    def hessian(self, x):
        x = _as_vec(x, 1)[0]
        d2 = -(self._amps * self._omegas**2 * np.sin(x * self._omegas + self._phases)).sum()
        return np.array([[self.k_env + d2]])

    @_row_blocks
    def value_batch(self, X):
        x = X[:, 0]
        waves = self._amps * np.sin(x[:, None] * self._omegas + self._phases)
        return 0.5 * self.k_env * (x - self.center) ** 2 + waves.sum(axis=1)

    @_row_blocks
    def grad_batch(self, X):
        x = X[:, 0]
        dw = (self._amps * self._omegas * np.cos(x[:, None] * self._omegas + self._phases)).sum(axis=1)
        return (self.k_env * (x - self.center) + dw)[:, None]


def _relu(z):
    return np.maximum(z, 0.0)


class TinyMLP(Objective):
    """Two-layer ReLU classifier on a synthetic 2D two-cluster dataset.

    Cross-entropy loss over ``n_samples`` points drawn from two Gaussian
    blobs.  The minibatch gradient runs on the sample indices its caller
    drew; ``grad_batch`` is the exact, full-batch gradient.
    """

    def __init__(self, seed: int, hidden: int, n_samples: int):
        if hidden < 2:
            raise ValueError("hidden must be >= 2")
        if n_samples < 20:
            raise ValueError("n_samples must be >= 20")
        self.seed = int(seed)
        self.hidden = int(hidden)
        self.n_samples = int(n_samples)
        self._row_width = self.n_samples * self.hidden     # the (R, n, hidden) activations
        rng = np.random.default_rng(np.random.SeedSequence([0x11A9, self.seed, hidden, n_samples]))
        half = n_samples // 2
        c0 = rng.normal(loc=(-1.0, -1.0), scale=0.75, size=(half, 2))
        c1 = rng.normal(loc=(1.0, 1.0), scale=0.75, size=(n_samples - half, 2))
        self.X = np.vstack([c0, c1])
        self.y = np.concatenate([np.zeros(half, dtype=int), np.ones(n_samples - half, dtype=int)])
        self._onehot = np.eye(2)[self.y]
        self.dim = hidden * 2 + hidden + 2 * hidden + 2
        self._x0 = 0.5 * rng.standard_normal(self.dim)

    def initial_point(self) -> Array:
        return self._x0.copy()

    def _unpack(self, x):
        """Layer weights of each row of x, shape (R, dim)."""
        h, R = self.hidden, x.shape[0]
        i = 0
        W1 = x[:, i : i + 2 * h].reshape(R, h, 2); i += 2 * h
        b1 = x[:, i : i + h]; i += h
        W2 = x[:, i : i + 2 * h].reshape(R, 2, h); i += 2 * h
        b2 = x[:, i : i + 2]
        return W1, b1, W2, b2

    def _forward(self, x, idx):
        """Inputs, pre-activations, activations, output weights and class
        probabilities of each row of x, shape (R, dim), on the samples idx,
        shape (R, b).  Stacked matmul runs the same BLAS call per row as a
        single row would, so every row is bit-equal to its own call."""
        W1, b1, W2, b2 = self._unpack(x)
        X = self.X[idx]
        z1 = X @ W1.transpose(0, 2, 1) + b1[:, None, :]
        a1 = _relu(z1)
        logits = a1 @ W2.transpose(0, 2, 1) + b2[:, None, :]
        # two classes: the max and the sum over them are one binary operation
        # each, bit-equal to the reductions and several times cheaper
        logits -= np.maximum(logits[..., :1], logits[..., 1:])
        ez = np.exp(logits)
        return X, z1, a1, W2, ez / (ez[..., :1] + ez[..., 1:])

    def _loss(self, idx, probs):
        picked = np.take_along_axis(probs, self.y[idx][..., None], axis=2)[..., 0]
        return -np.log(picked + 1e-300).mean(axis=1)

    def _grad(self, idx, X, z1, a1, W2, probs):
        """Gradient of each row from its forward pass on the samples idx."""
        R, n = idx.shape
        dlogits = (probs - self._onehot[idx]) / n
        dW2 = dlogits.transpose(0, 2, 1) @ a1
        db2 = dlogits.sum(axis=1)
        dz1 = (dlogits @ W2) * (z1 > 0)
        dW1 = dz1.transpose(0, 2, 1) @ X
        db1 = dz1.sum(axis=1)
        return np.concatenate([dW1.reshape(R, -1), db1, dW2.reshape(R, -1), db2], axis=1)

    def _every(self, R):
        """Every sample index for each of R rows, shape (R, n)."""
        return np.arange(self.n_samples)[None].repeat(R, axis=0)

    @_row_blocks
    def value_batch(self, X):
        idx = self._every(len(X))
        return self._loss(idx, self._forward(X, idx)[-1])

    @_row_blocks
    def grad_batch(self, X):
        idx = self._every(len(X))
        return self._grad(idx, *self._forward(X, idx))

    @_row_blocks
    def value_and_grad_batch(self, X):
        """Loss and full-data gradient of each row from one forward pass."""
        idx = self._every(len(X))
        forward = self._forward(X, idx)
        return self._loss(idx, forward[-1]), self._grad(idx, *forward)

    def minibatch_grad(self, X, idx: Array) -> Array:
        """Minibatch gradient at each row of X, shape (R, dim), on the sample
        indices ``idx``, shape (R, b), that the optimizer drew for it."""
        return self._grad(idx, *self._forward(X, idx))


# ---------------------------------------------------------------------------
# factories


def make_quadratic(c: float, p, n: int) -> Quadratic:
    """Isotropic quadratic f(x) = c|x|^2/2 + p.x."""
    if c <= 0:
        raise ValueError("c must be positive")
    p = np.broadcast_to(np.atleast_1d(np.asarray(p, dtype=float)), (n,)).copy()
    return Quadratic(c * np.eye(n), p)


# ---------------------------------------------------------------------------
# corpus


@dataclass
class TestCorpusEntry:
    """A named objective and its box.  ``known_minima``, (location, value)
    pairs, is found by ``find_minima`` the first time it is read."""
    name: str
    objective: Objective
    domain_box: tuple[Array, Array]
    find_minima: Callable[[], list[tuple[Array, float]]] = list

    @cached_property
    def known_minima(self) -> list[tuple[Array, float]]:
        return self.find_minima()


def _polish_minimum(obj: Objective, x0: Array) -> Array:
    from scipy.optimize import minimize

    res = minimize(lambda z: obj.value(z), x0, jac=lambda z: obj.grad(z), method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 500})
    return np.atleast_1d(res.x)


def _scan_minima_1d(obj: Objective, lo: float, hi: float, n: int = 4001) -> list[tuple[Array, float]]:
    """The local minima of a 1D objective on n points of [lo, hi], each
    polished, lowest value first."""
    xs = np.linspace(lo, hi, n)
    fv = obj.value_batch(xs[:, None])
    idx = np.where((fv[1:-1] < fv[:-2]) & (fv[1:-1] <= fv[2:]))[0] + 1
    minima = [(x, obj.value(x)) for x in (_polish_minimum(obj, np.array([xs[i]])) for i in idx)]
    return sorted(minima, key=lambda t: t[1])


_NAME_PATTERNS = [
    (re.compile(r"^quadratic_c(?P<c>[0-9.]+)_n(?P<n>\d+)$"), "quadratic"),
    (re.compile(r"^double_well_a(?P<a>[0-9.]+)$"), "double_well"),
    (re.compile(r"^rugged_s(?P<s>\d+)_m(?P<m>\d+)$"), "rugged"),
    (re.compile(r"^mlp_h(?P<h>\d+)_n(?P<n>\d+)$"), "mlp"),
]


def get_entry(name: str) -> TestCorpusEntry:
    """Resolve a corpus entry from its CLI name, e.g. ``double_well_a1``:
    the objective and its box; its minima are found when first read.

    Recognized families: ``quadratic_c<c>_n<n>``, ``double_well_a<a>``,
    ``rugged_s<seed>_m<modes>``, ``mlp_h<hidden>_n<samples>``.
    """
    for pat, kind in _NAME_PATTERNS:
        m = pat.match(name)
        if not m:
            continue
        if kind == "quadratic":
            c, n = float(m["c"]), int(m["n"])
            if n < 1:
                raise ValueError("n must be >= 1")
            box = (np.full(n, -2.0), np.full(n, 2.0))
            return TestCorpusEntry(name, make_quadratic(c, np.zeros(n), n), box, lambda: [(np.zeros(n), 0.0)])
        if kind == "double_well":
            a = float(m["a"])
            w = max(2.0, 2.0 * a)
            return TestCorpusEntry(name, DoubleWell(a), (np.array([-w]), np.array([w])),
                                   lambda: [(np.array([-a]), 0.0), (np.array([a]), 0.0)])
        if kind == "rugged":
            obj = Rugged1D(int(m["s"]), int(m["m"]))
            lo, hi = obj.box
            return TestCorpusEntry(name, obj, (np.array([lo]), np.array([hi])), partial(_scan_minima_1d, obj, lo, hi))
        if kind == "mlp":
            obj = TinyMLP(0, int(m["h"]), int(m["n"]))
            return TestCorpusEntry(name, obj, (np.full(obj.dim, -3.0), np.full(obj.dim, 3.0)))
    raise KeyError(f"unknown objective name: {name!r}")


def global_minimum(entry: TestCorpusEntry) -> Array:
    """Location of the best known minimum of a corpus entry."""
    if not entry.known_minima:
        raise ValueError(f"{entry.name} has no catalogued minima")
    return min(entry.known_minima, key=lambda t: t[1])[0]
