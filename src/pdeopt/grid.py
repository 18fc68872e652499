"""Scalar fields sampled on uniform tensor grids over a box (1D / 2D).

``GridFunction`` stores values flat in row-major order together with the box
geometry.  It is the common currency of the PDE solvers: smoothed losses,
value functions and probability densities all live on these grids.

Serialization: a CSV form (``x[,y],value`` columns) and a compact binary form:
one little-endian header struct ``<I{d}d{d}d{d}I`` (dim, lower[d], upper[d],
counts[d]) followed by the float64 values.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray

_DENSITY_TOL = 1e-8


@dataclass
class GridFunction:
    lower: Array
    upper: Array
    n_points: tuple[int, ...]
    values: Array = field(default=None)  # flat, row-major

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        self.n_points = tuple(int(n) for n in np.atleast_1d(self.n_points))
        if self.dim not in (1, 2):
            raise ValueError("grids support dim 1 or 2 only")
        if len(self.upper) != self.dim or len(self.n_points) != self.dim:
            raise ValueError("lower/upper/n_points must agree in length")
        if any(n < 3 for n in self.n_points):
            raise ValueError("need at least 3 points per axis")
        if np.any(self.upper <= self.lower):
            raise ValueError("upper bounds must exceed lower bounds")
        size = int(np.prod(self.n_points))
        if self.values is None:
            self.values = np.zeros(size)
        else:
            self.values = np.asarray(self.values, dtype=float).ravel()
            if self.values.size != size:
                raise ValueError(f"values length {self.values.size} != grid size {size}")

    # -- geometry -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def spacing(self) -> Array:
        return (self.upper - self.lower) / (np.array(self.n_points) - 1)

    def axes(self) -> list[Array]:
        return [np.linspace(self.lower[d], self.upper[d], self.n_points[d]) for d in range(self.dim)]

    def points(self) -> Array:
        """All grid points as an (N, dim) array in row-major order."""
        return mesh(self.axes())

    @property
    def array(self) -> Array:
        return self.values.reshape(self.n_points)

    def with_values(self, values: Array) -> "GridFunction":
        return GridFunction(self.lower.copy(), self.upper.copy(), self.n_points, np.asarray(values, dtype=float).ravel())

    @classmethod
    def geometry(cls, lower, upper, n_points) -> "GridFunction":
        return cls(lower, upper, n_points)

    # -- calculus -----------------------------------------------------------

    def integral(self) -> float:
        """Trapezoidal integral over the box."""
        a = self.array
        for axis in reversed(range(self.dim)):
            a = np.trapezoid(a, dx=self.spacing[axis], axis=axis)
        return float(a)

    def interp(self, x) -> float:
        """Multilinear interpolation at a point inside the box."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return float(multilinear(self.array, self.lower, self.spacing, x[None, :])[0])

    def is_density(self, tol: float = _DENSITY_TOL) -> bool:
        return bool(self.values.min() >= -1e-12 and abs(self.integral() - 1.0) <= tol)

    def normalized(self) -> "GridFunction":
        """Clip tiny negatives and rescale so the trapezoidal integral is 1."""
        v = np.maximum(self.values, 0.0)
        total = self.with_values(v).integral()
        if total <= 0:
            raise ValueError("cannot normalize a field with zero mass")
        return self.with_values(v / total)

    # -- serialization ------------------------------------------------------

    def to_csv(self, path) -> None:
        """One ``x[,y],value`` row per point in row-major order, every number
        written by ``repr``: each axis coordinate is formatted once and the
        rows stream from the product of the axes."""
        header = ("x,value" if self.dim == 1 else "x,y,value")
        axes = [[repr(float(c)) for c in ax] for ax in self.axes()]
        rows = map(",".join, itertools.product(*axes))
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n")
            fh.writelines(map("{},{!r}\n".format, rows, map(float, self.values)))

    @classmethod
    def from_csv(cls, path) -> "GridFunction":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        coords, vals = data[:, :-1], data[:, -1]
        dim = coords.shape[1]
        axes = [np.unique(coords[:, d]) for d in range(dim)]
        n_points = tuple(len(ax) for ax in axes)
        g = cls(np.array([ax[0] for ax in axes]), np.array([ax[-1] for ax in axes]), n_points)
        g.values = vals.copy()
        return g

    def to_binary(self, path) -> None:
        header = _header(self.dim).pack(self.dim, *self.lower, *self.upper, *self.n_points)
        with open(path, "wb") as fh:
            fh.write(header + self.values.astype("<f8").tobytes())

    @classmethod
    def from_binary(cls, path) -> "GridFunction":
        with open(path, "rb") as fh:
            raw = fh.read()
        header = _header(int.from_bytes(raw[:4], "little"))
        dim, *fields = header.unpack_from(raw)
        values = np.frombuffer(raw, dtype="<f8", offset=header.size).copy()
        return cls(fields[:dim], fields[dim:2 * dim], fields[2 * dim:], values)


def _header(dim: int) -> struct.Struct:
    """The binary form's header: dim, lower[dim], upper[dim], n_points[dim]."""
    return struct.Struct(f"<I{dim}d{dim}d{dim}I")


def mesh(axes) -> Array:
    """The points of the tensor grid of ``axes`` as an (N, dim) array in
    row-major order: the last axis varies fastest."""
    return np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])


# ---------------------------------------------------------------------------
# discrete calculus helpers


def multilinear(table: Array, lower: Array, spacing: Array, x: Array) -> Array:
    """Multilinear interpolation of ``table`` (*n_points, *components), sampled
    on the grid with corner ``lower`` and ``spacing``, at the rows of ``x``
    (N, dim), clamped to the box.  Returns (N, *components).

    Corner terms are summed with axis 0 varying fastest, e.g. in 2D
    (1-w0)(1-w1) c00 + w0 (1-w1) c10 + (1-w0) w1 c01 + w0 w1 c11.
    """
    shape = table.shape[: x.shape[1]]
    t = np.clip((x - lower) / spacing, 0.0, np.array(shape) - 1.0)
    node = np.minimum(np.floor(t), np.array(shape) - 2.0)  # lower corner of the cell
    w = t - node
    i = node.astype(int)
    stride = [math.prod(shape[d + 1 :]) for d in range(len(shape))]
    base = i[:, -1]  # flat index of the lower corner
    for d in range(len(shape) - 1):
        base = base + stride[d] * i[:, d]
    vals = table.reshape(math.prod(shape), -1).T  # (components, nodes)
    out = None
    for corner in itertools.product((0, 1), repeat=len(shape)):
        bits = corner[::-1]
        weight = w[:, 0] if bits[0] else 1 - w[:, 0]
        for d in range(1, len(shape)):
            weight = weight * (w[:, d] if bits[d] else 1 - w[:, d])
        offset = sum(b * s for b, s in zip(bits, stride))
        term = np.take(vals, base + offset if offset else base, axis=1)
        term *= weight
        if out is None:
            out = term
        else:
            out += term
    return out.T.reshape(len(x), *table.shape[len(shape) :])


def gradient(gf: GridFunction, axis: int = 0) -> GridFunction:
    """Centered-difference partial derivative (one-sided at the ends)."""
    a = gf.array
    g = np.gradient(a, gf.spacing[axis], axis=axis, edge_order=2)
    return gf.with_values(g)


def second_difference(gf: GridFunction, axis: int = 0) -> GridFunction:
    """Discrete second derivative along an axis; zero on the boundary ring."""
    a = gf.array
    h2 = gf.spacing[axis] ** 2
    out = np.zeros_like(a)
    sl_mid = [slice(None)] * gf.dim
    sl_lo = [slice(None)] * gf.dim
    sl_hi = [slice(None)] * gf.dim
    sl_mid[axis] = slice(1, -1)
    sl_lo[axis] = slice(0, -2)
    sl_hi[axis] = slice(2, None)
    out[tuple(sl_mid)] = (a[tuple(sl_hi)] - 2.0 * a[tuple(sl_mid)] + a[tuple(sl_lo)]) / h2
    return gf.with_values(out)


def interior_max_second_difference(gf: GridFunction, axis: int = 0) -> float:
    d2 = second_difference(gf, axis=axis).array
    sl = [slice(1, -1)] * gf.dim
    return float(d2[tuple(sl)].max())


def gaussian_density(grid: GridFunction, mean, var) -> GridFunction:
    """Normalized Gaussian bump sampled on a grid geometry."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    pts = grid.points()
    q = ((pts - mean) ** 2).sum(axis=1) / (2.0 * var)
    return grid.with_values(np.exp(-q)).normalized()
