"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is shared: the same pass of a workload takes anywhere
from 1x to 2x its quiet time as neighbours load the machine, and that drift
changes over seconds to minutes.  The benchmark therefore times this kernel
right before and right after each pass and reports the pass time in units of
the kernel's time (``wall_rel``).  Host slowdowns stretch both by roughly the
same factor; a change to pdeopt moves only the pass.

The kernel is a mix of the instruction mixes the workloads run, in four
parts of about equal time on a quiet host:

* ``interp``  a pure-Python loop (optimizer dispatch, config handling),
* ``small``   small-array numpy calls on a 32-row minibatch of a tiny MLP
              (minibatch gradients of compare_mlp),
* ``paths``   10 000-element vector steps with ``np.interp`` lookups (the
              controlled path simulator of control_dw),
* ``stream``  elementwise exp over a 2 MB array, in place (value_batch and
              the kernel sums of smooth_lab's solvers).

It depends only on numpy and is never to change with pdeopt: editing it
changes the unit every ``wall_rel`` is measured in, so results from before
and after the edit are no longer comparable.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20170417)
_X = _RNG.standard_normal((200, 4))
_Y = _RNG.standard_normal(200)
_W1 = _RNG.standard_normal((4, 8))
_W2 = _RNG.standard_normal(8)
_GRID = np.linspace(-2.0, 2.0, 513)
_GRID_VALUES = np.sin(3.0 * _GRID)
_BIG = _RNG.standard_normal(250_000)
_BUF = np.empty_like(_BIG)    # in place, so the kernel adds nothing to peak memory


def _interp() -> float:
    s = 0.0
    for i in range(1_200_000):
        s += (i % 7) * 0.5
    return s


def _small() -> float:
    rng = np.random.default_rng(1)
    w = _W1.copy()
    for _ in range(4_000):
        idx = rng.integers(0, 200, size=32)
        h = np.tanh(_X[idx] @ w)
        e = h @ _W2 - _Y[idx]
        w -= 1e-3 * (_X[idx].T @ ((e[:, None] * _W2[None, :]) * (1.0 - h * h)) / 32)
    return float(w.sum())


def _paths() -> float:
    rng = np.random.default_rng(2)
    x = rng.standard_normal(10_000)
    for _ in range(50):
        a = np.interp(x, _GRID, _GRID_VALUES)
        x = x - 1e-3 * (x ** 3 - x + a) + 0.03 * rng.standard_normal(x.size)
    return float(x.sum())


def _stream() -> float:
    s = 0.0
    for _ in range(140):
        np.multiply(_BIG, _BIG, out=_BUF)
        np.negative(_BUF, out=_BUF)
        np.exp(_BUF, out=_BUF)
        s += float(_BUF.sum())
    return s


PARTS = (_interp, _small, _paths, _stream)


def reference_s() -> float:
    """Wall time of one run of the reference kernel, in seconds."""
    t0 = time.perf_counter()
    for part in PARTS:
        part()
    return time.perf_counter() - t0
