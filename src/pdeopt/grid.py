"""Scalar fields sampled on uniform tensor grids over a box (1D / 2D).

``GridFunction`` stores values flat in row-major order together with the box
geometry.  It is the common currency of the PDE solvers: smoothed losses,
value functions and probability densities all live on these grids.

Serialization: a CSV form (``x[,y],value`` columns) and a compact binary form
(little-endian header ``dim, lower[], upper[], counts[]`` followed by a
float64 payload).
"""

from __future__ import annotations

import io
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
        axes = self.axes()
        if self.dim == 1:
            return axes[0][:, None]
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([g0.ravel(), g1.ravel()])

    @property
    def array(self) -> Array:
        return self.values.reshape(self.n_points)

    def with_values(self, values: Array) -> "GridFunction":
        return GridFunction(self.lower.copy(), self.upper.copy(), self.n_points, np.asarray(values, dtype=float).ravel())

    @classmethod
    def geometry(cls, lower, upper, n_points) -> "GridFunction":
        return cls(lower, upper, n_points)

    @classmethod
    def from_callable(cls, fn, lower, upper, n_points) -> "GridFunction":
        g = cls.geometry(lower, upper, n_points)
        g.values = np.asarray(fn(g.points()), dtype=float).ravel()
        return g

    # -- calculus -----------------------------------------------------------

    def integral(self) -> float:
        """Trapezoidal integral over the box."""
        a = self.array
        if self.dim == 1:
            return float(np.trapezoid(a, dx=self.spacing[0]))
        return float(np.trapezoid(np.trapezoid(a, dx=self.spacing[1], axis=1), dx=self.spacing[0]))

    def interp(self, x) -> float:
        """Multilinear interpolation at a point inside the box."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        h = self.spacing
        t = np.clip((x - self.lower) / h, 0.0, np.array(self.n_points) - 1.0)
        i = np.minimum(t.astype(int), np.array(self.n_points) - 2)
        w = t - i
        a = self.array
        if self.dim == 1:
            return float((1 - w[0]) * a[i[0]] + w[0] * a[i[0] + 1])
        c00 = a[i[0], i[1]]
        c10 = a[i[0] + 1, i[1]]
        c01 = a[i[0], i[1] + 1]
        c11 = a[i[0] + 1, i[1] + 1]
        return float((1 - w[0]) * (1 - w[1]) * c00 + w[0] * (1 - w[1]) * c10
                     + (1 - w[0]) * w[1] * c01 + w[0] * w[1] * c11)

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
        pts = self.points()
        header = ("x,value" if self.dim == 1 else "x,y,value")
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n")
            for row, v in zip(pts, self.values):
                coords = ",".join(repr(float(c)) for c in row)
                fh.write(f"{coords},{float(v)!r}\n")

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
        buf = io.BytesIO()
        buf.write(struct.pack("<I", self.dim))
        buf.write(struct.pack(f"<{self.dim}d", *self.lower))
        buf.write(struct.pack(f"<{self.dim}d", *self.upper))
        buf.write(struct.pack(f"<{self.dim}I", *self.n_points))
        buf.write(self.values.astype("<f8").tobytes())
        with open(path, "wb") as fh:
            fh.write(buf.getvalue())

    @classmethod
    def from_binary(cls, path) -> "GridFunction":
        with open(path, "rb") as fh:
            raw = fh.read()
        off = 0
        (dim,) = struct.unpack_from("<I", raw, off); off += 4
        lower = np.array(struct.unpack_from(f"<{dim}d", raw, off)); off += 8 * dim
        upper = np.array(struct.unpack_from(f"<{dim}d", raw, off)); off += 8 * dim
        n_points = struct.unpack_from(f"<{dim}I", raw, off); off += 4 * dim
        values = np.frombuffer(raw, dtype="<f8", offset=off).copy()
        return cls(lower, upper, n_points, values)


# ---------------------------------------------------------------------------
# discrete calculus helpers


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
