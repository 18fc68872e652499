"""An objective made of plain callables, for ad-hoc test functions."""

import numpy as np

from pdeopt.objectives import Objective, _as_vec


class CustomObjective(Objective):
    """Wrap plain callables as an objective.

    The value comes from exactly one of ``value_fn`` (one point) and
    ``value_batch_fn`` (rows of points); pass None for the other."""

    def __init__(self, dim, value_fn, grad_fn, hessian_fn=None, value_batch_fn=None):
        if (value_fn is None) == (value_batch_fn is None):
            raise ValueError("CustomObjective takes exactly one of value_fn and value_batch_fn")
        self.dim = dim
        self._value = value_fn
        self._grad = grad_fn
        self._hessian = hessian_fn
        self._value_batch = value_batch_fn

    def hessian(self, x):
        if self._hessian is None:
            raise NotImplementedError("no Hessian supplied")
        return np.atleast_2d(np.asarray(self._hessian(_as_vec(x, self.dim)), dtype=float))

    def value_batch(self, X):
        X = np.atleast_2d(X)
        if self._value_batch is not None:
            return np.asarray(self._value_batch(X), dtype=float)
        return np.array([float(self._value(row)) for row in X])

    def grad_batch(self, X):
        return np.array([np.atleast_1d(np.asarray(self._grad(row), dtype=float)) for row in np.atleast_2d(X)])
