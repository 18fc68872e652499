"""Grid container: geometry, densities, calculus, serialization round-trips."""

import numpy as np
import pytest

from pdeopt.grid import (
    GridFunction,
    gaussian_density,
    gradient,
    interior_max_second_difference,
    multilinear,
    second_difference,
)

from oracles import grid_of


class TestGeometry:
    def test_spacing_and_axes(self):
        g = GridFunction.geometry([-1.0], [1.0], [5])
        assert g.spacing[0] == pytest.approx(0.5)
        np.testing.assert_allclose(g.axes()[0], [-1, -0.5, 0, 0.5, 1])

    def test_2d_points_row_major(self):
        g = GridFunction.geometry([0.0, 0.0], [1.0, 2.0], [3, 5])
        pts = g.points()
        assert pts.shape == (15, 2)
        # row-major: the second coordinate varies fastest
        np.testing.assert_allclose(pts[0], [0.0, 0.0])
        np.testing.assert_allclose(pts[1], [0.0, 0.5])
        np.testing.assert_allclose(pts[5], [0.5, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            GridFunction.geometry([0.0], [1.0], [2])       # < 3 points
        with pytest.raises(ValueError):
            GridFunction.geometry([1.0], [0.0], [5])       # inverted box
        with pytest.raises(ValueError):
            GridFunction([0.0], [1.0], (5,), np.zeros(4))  # wrong length
        with pytest.raises(ValueError, match="must agree in length"):
            GridFunction.geometry([0.0, 0.0], [1.0], [5, 5])
        with pytest.raises(ValueError, match="must agree in length"):
            GridFunction.geometry([0.0, 0.0], [1.0, 1.0], [5])
        with pytest.raises(ValueError):
            GridFunction.geometry([0.0] * 3, [1.0] * 3, [4] * 3)  # 3D unsupported


class TestDensity:
    def test_gaussian_density_normalized(self):
        g = GridFunction.geometry([-6.0], [6.0], [301])
        rho = gaussian_density(g, [0.5], 0.3)
        assert rho.is_density()
        assert abs(rho.integral() - 1.0) < 1e-10

    def test_normalized_rejects_zero_mass(self):
        g = GridFunction.geometry([-1.0], [1.0], [11])
        with pytest.raises(ValueError):
            g.with_values(np.zeros(11)).normalized()

    def test_2d_integral(self):
        g = GridFunction.geometry([0.0, 0.0], [1.0, 1.0], [51, 51])
        one = g.with_values(np.ones(51 * 51))
        assert one.integral() == pytest.approx(1.0)


class TestInterp:
    def test_1d_linear(self):
        g = grid_of(lambda P: 3.0 * P[:, 0] + 1.0, [0.0], [1.0], [11])
        assert g.interp([0.37]) == pytest.approx(3 * 0.37 + 1, abs=1e-12)

    def test_2d_bilinear(self):
        g = grid_of(lambda P: 2 * P[:, 0] - P[:, 1], [0.0, 0.0], [1.0, 1.0], [6, 6])
        assert g.interp([0.3, 0.7]) == pytest.approx(2 * 0.3 - 0.7, abs=1e-12)


class TestMultilinear:
    """``multilinear`` against the hand-written corner sums, bit for bit."""

    @staticmethod
    def _cell(table, lower, spacing, x):
        npts = np.array(table.shape[: x.shape[1]])
        t = np.clip((x - lower) / spacing, 0.0, npts - 1.0)
        i = np.minimum(t.astype(int), npts - 2)
        return i, t - i

    def test_1d_components(self):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(33, 3))
        lower, spacing = np.array([-1.0]), np.array([2.0 / 32])
        x = rng.uniform(-1.3, 1.3, (500, 1))  # some points outside the box
        i, w = self._cell(table, lower, spacing, x)
        ref = np.stack([(1 - w[:, 0]) * table[i[:, 0], c] + w[:, 0] * table[i[:, 0] + 1, c]
                        for c in range(3)], axis=1)
        assert multilinear(table, lower, spacing, x).tobytes() == ref.tobytes()

    def test_2d_components(self):
        rng = np.random.default_rng(1)
        table = rng.normal(size=(17, 9, 2))
        lower, spacing = np.array([-1.0, 0.0]), np.array([0.125, 0.5])
        x = np.column_stack([rng.uniform(-1.2, 1.2, 500), rng.uniform(-0.2, 4.2, 500)])
        i, w = self._cell(table, lower, spacing, x)
        ref = np.empty((500, 2))
        for c in range(2):
            g = table[..., c]
            ref[:, c] = ((1 - w[:, 0]) * (1 - w[:, 1]) * g[i[:, 0], i[:, 1]]
                         + w[:, 0] * (1 - w[:, 1]) * g[i[:, 0] + 1, i[:, 1]]
                         + (1 - w[:, 0]) * w[:, 1] * g[i[:, 0], i[:, 1] + 1]
                         + w[:, 0] * w[:, 1] * g[i[:, 0] + 1, i[:, 1] + 1])
        got = np.ascontiguousarray(multilinear(table, lower, spacing, x))
        assert got.tobytes() == ref.tobytes()


class TestCalculus:
    def test_gradient_of_quadratic(self):
        g = grid_of(lambda P: P[:, 0] ** 2 / 2, [-1.0], [1.0], [101])
        dg = gradient(g)
        np.testing.assert_allclose(dg.values, g.axes()[0], atol=1e-10)

    def test_second_difference_constant_curvature(self):
        g = grid_of(lambda P: 3.0 * P[:, 0] ** 2, [-1.0], [1.0], [41])
        d2 = second_difference(g)
        np.testing.assert_allclose(d2.array[1:-1], 6.0, atol=1e-8)
        assert interior_max_second_difference(g) == pytest.approx(6.0)


class TestSerialization:
    def test_csv_roundtrip_1d(self, tmp_path):
        g = grid_of(lambda P: np.sin(P[:, 0]), [-2.0], [2.0], [33])
        path = tmp_path / "g.csv"
        g.to_csv(path)
        back = GridFunction.from_csv(path)
        np.testing.assert_allclose(back.values, g.values)
        np.testing.assert_allclose(back.lower, g.lower)
        assert back.n_points == g.n_points
        assert path.read_text().splitlines()[0] == "x,value"

    def test_csv_roundtrip_2d(self, tmp_path):
        g = grid_of(lambda P: P[:, 0] * P[:, 1], [0.0, -1.0], [1.0, 1.0], [5, 7])
        path = tmp_path / "g2.csv"
        g.to_csv(path)
        back = GridFunction.from_csv(path)
        np.testing.assert_allclose(back.values, g.values)
        assert back.n_points == (5, 7)
        assert path.read_text().splitlines()[0] == "x,y,value"

    @pytest.mark.parametrize("lower, upper, n_points", [
        ([-0.7], [2.3], [11]),                 # spacings 0.3, 0.3 and 0.24: not dyadic
        ([-0.3, 0.1], [0.9, 1.3], [5, 6]),
    ])
    def test_csv_bytes_are_repr_per_row(self, tmp_path, lower, upper, n_points):
        # the per-row formula: every coordinate and value of a row through repr
        g = grid_of(lambda P: np.exp(P.sum(axis=1)) / 3.0, lower, upper, n_points)
        g.values[:5] = [-0.0, 1e-7, 1e17, np.nan, np.inf]
        path = tmp_path / "g.csv"
        g.to_csv(path)
        header = "x,value" if g.dim == 1 else "x,y,value"
        rows = [",".join(repr(float(c)) for c in (*p, v)) for p, v in zip(g.points(), g.values)]
        assert path.read_bytes() == "\n".join([header, *rows, ""]).encode()

    def test_binary_roundtrip(self, tmp_path):
        g = grid_of(lambda P: np.cos(P[:, 0]) + P[:, 1], [0.0, 0.0], [3.0, 2.0], [9, 5])
        path = tmp_path / "g.bin"
        g.to_binary(path)
        back = GridFunction.from_binary(path)
        np.testing.assert_array_equal(back.values, g.values)
        np.testing.assert_array_equal(back.lower, g.lower)
        np.testing.assert_array_equal(back.upper, g.upper)
        assert back.n_points == g.n_points

    def test_binary_is_little_endian_float64(self, tmp_path):
        g = GridFunction.geometry([0.0], [1.0], [3])
        g.values = np.array([1.0, 2.0, 3.0])
        path = tmp_path / "payload.bin"
        g.to_binary(path)
        raw = path.read_bytes()
        # header: uint32 dim + 2 float64 bounds + uint32 count
        assert len(raw) == 4 + 8 + 8 + 4 + 3 * 8
        np.testing.assert_array_equal(np.frombuffer(raw[-24:], dtype="<f8"), [1.0, 2.0, 3.0])
