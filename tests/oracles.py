"""Helpers and independent oracles that only the tests read.

* ``grid_of`` samples a callable on a grid geometry.
* ``burgers_characteristic_check`` and ``shock_time``: the characteristic
  fixed point and shock time of Burgers' equation, the independent oracle
  for the spatial derivative of the Hopf-Lax solution
  (``pde_lab.solve_hj_hopf_lax``).
"""

import math

import numpy as np

from pdeopt.grid import GridFunction
from pdeopt.objectives import Objective


def grid_of(fn, lower, upper, n_points) -> GridFunction:
    """The grid geometry with ``fn`` of its points (N, dim) as values."""
    g = GridFunction.geometry(lower, upper, n_points)
    return g.with_values(fn(g.points()))


# ---------------------------------------------------------------------------
# Burgers characteristics


BURGERS_DAMPING = 0.5     # burgers_characteristic_check's damping of each iterate,
BURGERS_MAX_ITER = 1000   # its iterations at most
BURGERS_TOL = 1e-12       # and the step at which it has settled
SHOCK_SCAN_POINTS = 4001  # points on which shock_time takes f''


def burgers_characteristic_check(objective: Objective, x: float, t: float) -> tuple[float, bool]:
    """Solve the characteristic fixed point p = f'(x - t p) by damped iteration.

    Pre-shock the iteration contracts and p equals the spatial derivative of
    the inf-convolution.  The flag is False when the iteration fails to
    settle or the settled root violates the crossing criterion
    1 + t f''(x - t p) > 0, i.e. characteristics have already intersected.
    """
    if objective.dim != 1:
        raise ValueError("characteristic check is one-dimensional")
    p = float(objective.grad(np.array([x]))[0])
    if t == 0:
        return p, True
    settled = False
    for _ in range(BURGERS_MAX_ITER):
        target = float(objective.grad(np.array([x - t * p]))[0])
        p_new = (1.0 - BURGERS_DAMPING) * p + BURGERS_DAMPING * target
        if not np.isfinite(p_new) or abs(p_new) > 1e8:
            return p, False
        if abs(p_new - p) < BURGERS_TOL:
            p = p_new
            settled = True
            break
        p = p_new
    if not settled:
        return p, False
    fpp = float(objective.hessian(np.array([x - t * p]))[0, 0])
    return p, bool(1.0 + t * fpp > 0.0)


def shock_time(objective: Objective, box: tuple[float, float]) -> float:
    """First characteristic-crossing time 1 / max(0, -min f'') on the box."""
    xs = np.linspace(box[0], box[1], SHOCK_SCAN_POINTS)
    g = objective.grad_batch(xs[:, None])[:, 0]
    fpp = np.gradient(g, xs)
    m = float(fpp.min())
    return math.inf if m >= 0 else 1.0 / (-m)
