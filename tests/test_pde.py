"""PDE lab solvers against closed forms and brute-force oracles."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import iv, logsumexp

from pdeopt import pde_lab
from pdeopt.grid import GridFunction, gaussian_density, interior_max_second_difference
from pdeopt.objectives import (
    DoubleWell,
    Rugged1D,
    get_entry,
    make_quadratic,
)
from pdeopt.pde_lab import (
    CflError,
    PdeSolveConfig,
    evolve_fokker_planck,
    prox_point,
    solve_heat,
    solve_hj_hopf_lax,
    solve_hj_monotone_fd,
    solve_pde,
    solve_viscous_hj_cole_hopf,
)

from custom_objective import CustomObjective
from oracles import burgers_characteristic_check, shock_time


def brute_force_infconv(objective, xs, t, search_lo, search_hi, n_search):
    """Independent oracle: direct O(N^2) minimization over a search grid."""
    ys = np.linspace(search_lo, search_hi, n_search)
    fv = objective.value_batch(ys[:, None])
    return np.min(fv[None, :] + (xs[:, None] - ys[None, :]) ** 2 / (2.0 * t), axis=1)


def sin_objective():
    return CustomObjective(1, None, lambda x: np.cos(x),
                           hessian_fn=lambda x: -np.sin(x).reshape(1, 1),
                           value_batch_fn=lambda X: np.sin(X[:, 0]))


def cos_objective(dim):
    """f = sum_i cos x_i."""
    return CustomObjective(dim, None, lambda x: -np.sin(x),
                           value_batch_fn=lambda X: np.cos(X).sum(axis=1))


def cos_cole_hopf(x, beta_inv, t, n_terms=60):
    """Cole-Hopf smoothing of f = cos x by its Bessel series:
    exp(-beta cos y) = I0(beta) + 2 sum_n (-1)^n In(beta) cos ny, and the heat
    flow damps mode n by exp(-n^2 sigma^2 / 2)."""
    beta, sigma2 = 1.0 / beta_inv, beta_inv * t
    n = np.arange(1, n_terms)
    modes = (-1.0) ** n * iv(n, beta) * np.exp(-n**2 * sigma2 / 2) * np.cos(np.multiply.outer(x, n))
    return -beta_inv * np.log(iv(0, beta) + 2 * modes.sum(axis=-1))


def quadratic_129(beta_inv, t):
    """quadratic_c1_n2 on its box at 129^2, with |x|^2 and the |x_i| <= 1 mask."""
    entry = get_entry("quadratic_c1_n2")
    grid = GridFunction.geometry(*entry.domain_box, [129, 129])
    pts = grid.points()
    return entry.objective, grid, (pts**2).sum(axis=1), (np.abs(pts) <= 1.0).all(axis=1)


class TestColeHopf:
    def test_quadratic_closed_form(self):
        # u(x,t) = x^2/(2(t+1)) + (beta_inv/2) log(1+t) for unit curvature
        q = make_quadratic(1.0, 0.0, 1)
        grid = GridFunction.geometry([-2.0], [2.0], [513])
        cfg = PdeSolveConfig(beta_inv=0.1, t_final=0.5)
        u = solve_viscous_hj_cole_hopf(q, cfg, grid)
        xs = grid.axes()[0]
        exact = xs**2 / (2 * 1.5) + 0.05 * np.log(1.5)
        assert u.interp([1.0]) == pytest.approx(1.0 / 3.0 + 0.05 * math.log(1.5), abs=1e-9)
        np.testing.assert_allclose(u.values, exact, atol=1e-9)

    def test_initial_condition_limit(self):
        q = make_quadratic(1.0, 0.0, 1)
        grid = GridFunction.geometry([-2.0], [2.0], [257])
        cfg = PdeSolveConfig(beta_inv=0.1, t_final=1e-8)
        u = solve_viscous_hj_cole_hopf(q, cfg, grid)
        np.testing.assert_allclose(u.values, q.value_batch(grid.points()), atol=1e-4)

    def test_rugged_semiconcave(self):
        obj = Rugged1D(7, 5)
        grid = GridFunction.geometry([-3.0], [3.0], [513])
        t = 0.2
        cfg = PdeSolveConfig(beta_inv=0.1, t_final=t)
        u = solve_viscous_hj_cole_hopf(obj, cfg, grid)
        assert interior_max_second_difference(u) <= 1.0 / t + 10 * grid.spacing[0]

    def test_zero_viscosity_routes_to_hopf_lax(self):
        q = make_quadratic(1.0, 0.0, 1)
        grid = GridFunction.geometry([-2.0], [2.0], [129])
        cfg = PdeSolveConfig(beta_inv=0.0, t_final=1.0)
        u = solve_viscous_hj_cole_hopf(q, cfg, grid)
        uhl = solve_hj_hopf_lax(q, 1.0, grid)
        np.testing.assert_array_equal(u.values, uhl.values)

    def test_2d_quadratic(self):
        q = make_quadratic(1.0, 0.0, 2)
        grid = GridFunction.geometry([-1.5, -1.5], [1.5, 1.5], [65, 65])
        cfg = PdeSolveConfig(beta_inv=0.1, t_final=0.5)
        u = solve_viscous_hj_cole_hopf(q, cfg, grid)
        pts = grid.points()
        exact = (pts**2).sum(axis=1) / (2 * 1.5) + 0.1 * 2 / 2 * np.log(1.5)
        np.testing.assert_allclose(u.values, exact, atol=1e-6)

    def test_2d_kernel_narrower_than_grid(self):
        # sigma = 0.022 < 3h = 0.094: the nodes must be refined on both axes
        q, grid, r2, inner = quadratic_129(0.01, 0.05)
        u = solve_viscous_hj_cole_hopf(q, PdeSolveConfig(beta_inv=0.01, t_final=0.05), grid)
        exact = r2 / (2 * 1.05) + 0.01 * math.log(1.05)
        assert np.abs(u.values - exact)[inner].max() <= 1e-10

    def test_evaluates_nodes_then_padded_sample(self):
        obj = Rugged1D(7, 5)
        seen = []

        def value_batch(X):
            seen.append(X[:, 0].copy())
            return obj.value_batch(X)

        counted = CustomObjective(1, None, obj.grad, value_batch_fn=value_batch)
        grid = GridFunction.geometry([-3.0], [3.0], [513])
        solve_viscous_hj_cole_hopf(counted, PdeSolveConfig(beta_inv=0.1, t_final=0.5), grid)
        # the grid nodes, whose range sets the reach, then the padded sample,
        # which evaluates each of its points once, the nodes among them
        nodes, padded = seen
        assert nodes.tobytes() == grid.points()[:, 0].tobytes()
        assert len(padded) == len(np.unique(padded))
        assert np.isin(nodes, padded).all()


class TestHopfLax:
    def test_quadratic_values(self):
        q = make_quadratic(1.0, 0.0, 1)
        grid = GridFunction.geometry([-2.0], [2.0], [257])
        t = 1.0
        u = solve_hj_hopf_lax(q, t, grid)
        assert u.values[-1] == pytest.approx(1.0, abs=1e-9)  # u(2, 1) = 4/(2*2)
        xs = grid.axes()[0]
        # grid minimization overshoots by at most (h/2)^2 (c + 1/t) / 2
        h = grid.spacing[0]
        bias = (h / 2) ** 2 * (1.0 + 1.0 / t)
        assert np.all(u.values >= xs**2 / 4.0 - 1e-12)
        np.testing.assert_allclose(u.values, xs**2 / 4.0, atol=bias)

    def test_convex_argmin_preserved(self):
        q = make_quadratic(2.0, 1.0, 1)  # minimum at -1/2
        grid = GridFunction.geometry([-2.0], [2.0], [401])
        u = solve_hj_hopf_lax(q, 0.7, grid)
        xs = grid.axes()[0]
        assert xs[np.argmin(u.values)] == pytest.approx(-0.5, abs=grid.spacing[0])

    def test_double_well_minima_preserved_small_t(self):
        dw = DoubleWell(1.0)
        grid = GridFunction.geometry([-2.0], [2.0], [401])
        u = solve_hj_hopf_lax(dw, 0.05, grid)
        assert abs(u.interp([1.0])) < 1e-12
        assert abs(u.interp([-1.0])) < 1e-12

    def test_matches_brute_force(self):
        # the envelope algorithm must agree exactly with direct O(N^2)
        # minimization over the identical search nodes
        obj = Rugged1D(3, 6)
        grid = GridFunction.geometry([-3.0], [3.0], [201])
        t = 0.3
        u = solve_hj_hopf_lax(obj, t, grid)
        xs = grid.axes()[0]
        h = grid.spacing[0]
        # minimizers lie within sqrt(2 t range f) of x, range f on the nodes
        radius = math.sqrt(2.0 * t * np.ptp(obj.value_batch(grid.points())))
        pad = int(math.ceil(radius / h))
        ys = -3.0 - pad * h + h * np.arange(201 + 2 * pad)
        fv = obj.value_batch(ys[:, None])
        brute = np.min(fv[None, :] + (xs[:, None] - ys[None, :]) ** 2 / (2 * t), axis=1)
        np.testing.assert_allclose(u.values, brute, atol=1e-10)
        # and track the continuum solution to within the grid-minimization bias
        fine = brute_force_infconv(obj, xs, t, -6.0, 6.0, 24001)
        fpp_max = max(float(obj.hessian(np.array([x]))[0, 0]) for x in np.linspace(-4, 4, 801))
        bias = (h / 2) ** 2 * (fpp_max + 1.0 / t)
        np.testing.assert_allclose(u.values, fine, atol=bias)

    def test_never_above_initial(self):
        obj = Rugged1D(5, 5)
        grid = GridFunction.geometry([-3.0], [3.0], [301])
        u = solve_hj_hopf_lax(obj, 0.4, grid)
        f = obj.value_batch(grid.points())
        assert np.all(u.values <= f + 1e-12)

    def test_2d_separable_matches_brute(self):
        q = make_quadratic(1.0, 0.0, 2)
        grid = GridFunction.geometry([-1.0, -1.0], [1.0, 1.0], [41, 41])
        t = 0.5
        u = solve_hj_hopf_lax(q, t, grid)
        pts = grid.points()
        exact = (pts**2).sum(axis=1) / (2 * 1.5)
        h = grid.spacing[0]
        bias = 2 * (h / 2) ** 2 * (1.0 + 1.0 / t)  # per-axis grid bias
        assert np.all(u.values >= exact - 1e-12)
        np.testing.assert_allclose(u.values, exact, atol=bias)

    def test_rejects_nonpositive_t(self):
        q = make_quadratic(1.0, 0.0, 1)
        grid = GridFunction.geometry([-1.0], [1.0], [33])
        with pytest.raises(ValueError):
            solve_hj_hopf_lax(q, 0.0, grid)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_t_returns_f(self):
        # 1 / (2t) overflows to inf; the centre's 0 * inf made every value NaN
        dw = DoubleWell(1.0)
        grid = GridFunction.geometry([-2.0], [2.0], [33])
        u = solve_hj_hopf_lax(dw, 5e-324, grid)
        np.testing.assert_array_equal(u.values, dw.value_batch(grid.points()))

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_t_not_positive_and_finite_refused_before_f(self, t):
        # a NaN or infinite t used to fail in the window sizing, naming no key
        def unread(X):
            raise AssertionError("f evaluated")

        grid = GridFunction.geometry([-2.0], [2.0], [33])
        with pytest.raises(ValueError, match=f"^t={t:g}: t must be positive and finite$"):
            solve_hj_hopf_lax(CustomObjective(1, None, unread, value_batch_fn=unread), t, grid)


class TestProx:
    def test_quadratic_closed_form(self):
        q = make_quadratic(1.0, 0.0, 1)
        res = prox_point(q, np.array([2.0]), 1.0)
        assert res.y[0] == pytest.approx(1.0, abs=1e-9)
        assert res.grad_u[0] == pytest.approx(1.0, abs=1e-9)
        assert not res.non_unique

    def test_gradient_consistency_double_well(self):
        dw = DoubleWell(1.0)
        for x in (0.6, 1.4, -0.8):
            res = prox_point(dw, np.array([x]), 0.1)
            assert np.linalg.norm(res.grad_u - dw.grad(res.y)) <= 1e-6

    def test_symmetric_nonuniqueness(self):
        # at the barrier top, beyond the crossing time the minimizers split
        dw = DoubleWell(1.0)
        res = prox_point(dw, np.array([0.0]), 0.5)
        assert res.non_unique
        assert abs(res.y[0]) == pytest.approx(math.sqrt(0.5), abs=1e-6)

    def test_unique_before_crossing_time(self):
        dw = DoubleWell(1.0)
        res = prox_point(dw, np.array([0.0]), 0.2)
        assert not res.non_unique
        assert res.y[0] == pytest.approx(0.0, abs=1e-8)

    def test_one_dimension_only(self):
        with pytest.raises(ValueError, match="1D"):
            prox_point(make_quadratic(1.0, 0.0, 2), np.zeros(2), 1.0)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_rejects_nonpositive_t(self, t):
        with pytest.raises(ValueError, match="t must be positive"):
            prox_point(DoubleWell(1.0), np.array([0.5]), t)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_nonfinite_t_by_name(self, t):
        # inf used to return garbage with RuntimeWarnings, NaN to blame x0's slope
        with pytest.raises(ValueError, match=f"^t={t:g}: t must be positive and finite$"):
            prox_point(DoubleWell(1.0), np.array([0.5]), t)

    def test_quadratic_closed_form_beyond_the_scan(self):
        # h(y) = y^2/2 + 100 y + y^2/2 is least at y* = -50, far outside the
        # scan of x +- R: only the polish started at x reaches it
        res = prox_point(make_quadratic(1.0, 100.0, 1), np.array([0.0]), 1.0)
        assert res.y[0] == pytest.approx(-50.0, abs=1e-9)
        assert res.grad_u[0] == pytest.approx(50.0, abs=1e-9)
        assert not res.non_unique

    @settings(max_examples=180, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["rugged_s7_m5", "rugged_s3_m6", "double_well_a1"]), u=st.floats(0.0, 1.0),
           t=st.floats(0.01, 2.0))
    def test_value_is_the_global_minimum(self, name, u, t):
        # brute-force oracle: the least h(y) = f(y) + |x-y|^2/(2t) on a dense
        # grid bounds min h from above, and the prox value is h at its y, so
        # it bounds min h from below; a merely local minimizer exceeds the
        # grid's least value
        entry = get_entry(name)
        lo, hi = entry.domain_box
        x = lo + u * (hi - lo)
        f = entry.objective
        res = prox_point(f, x, t)
        assert res.value == pytest.approx(f.value(res.y) + float((res.y[0] - x[0]) ** 2) / (2 * t), abs=1e-12)
        ys = np.linspace(lo[0] - 2.0, hi[0] + 2.0, 200_001)[:, None]
        brute = float((f.value_batch(ys) + (ys[:, 0] - x[0]) ** 2 / (2 * t)).min())
        assert res.value <= brute + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["rugged_s7_m5", "double_well_a1"]), u=st.floats(0.0, 1.0),
           t=st.floats(0.01, 2.0))
    def test_consistency_gap_small_where_unique(self, name, u, t):
        # at a unique minimizer y of f(y) + |x-y|^2/(2t), grad u(x) = (x-y)/t
        # equals grad f(y)
        entry = get_entry(name)
        lo, hi = entry.domain_box
        res = prox_point(entry.objective, lo + u * (hi - lo), t)
        if not res.non_unique:
            assert np.linalg.norm(res.grad_u - entry.objective.grad(res.y)) <= 1e-6


class TestMonotoneFd:
    def test_quadratic_zero_viscosity(self):
        q = make_quadratic(1.0, 0.0, 1)
        grid = GridFunction.geometry([-2.0], [2.0], [513])
        cfg = PdeSolveConfig(beta_inv=0.0, t_final=1.0, scheme="monotone_fd")
        u = solve_hj_monotone_fd(q, cfg, grid)
        xs = grid.axes()[0]
        inner = np.abs(xs) < 1.5
        err = np.abs(u.values - xs**2 / 4.0)[inner].max()
        assert err < 5.0 * grid.spacing[0]  # first-order accurate

    def test_first_order_convergence_to_cole_hopf(self):
        obj = Rugged1D(7, 5)
        errs = []
        for n in (129, 257, 513):
            lo, hi = -3.0, 3.0
            h = (hi - lo) / (n - 1)
            pad = int(round(1.5 / h))
            gpad = GridFunction.geometry([lo - pad * h], [hi + pad * h], [n + 2 * pad])
            cfg = PdeSolveConfig(beta_inv=0.1, t_final=0.5, scheme="monotone_fd")
            ufd = solve_hj_monotone_fd(obj, cfg, gpad)
            grid = GridFunction.geometry([lo], [hi], [n])
            uch = solve_viscous_hj_cole_hopf(obj, PdeSolveConfig(beta_inv=0.1, t_final=0.5), grid)
            errs.append(np.abs(ufd.array[pad : pad + n] - uch.values).max())
        assert errs[0] > errs[1] > errs[2]
        slope = np.polyfit(np.log([1, 2, 4]), np.log(errs), 1)[0]
        assert -slope >= 0.85

    def test_zero_time_returns_initial(self):
        q = make_quadratic(1.0, 0.0, 1)
        grid = GridFunction.geometry([-1.0], [1.0], [65])
        cfg = PdeSolveConfig(beta_inv=0.1, t_final=1e-12, scheme="monotone_fd")
        u = solve_hj_monotone_fd(q, cfg, grid)
        np.testing.assert_allclose(u.values, q.value_batch(grid.points()), atol=1e-10)

    def test_cfl_violation_rejected(self):
        q = make_quadratic(1.0, 0.0, 1)
        grid = GridFunction.geometry([-2.0], [2.0], [129])
        cfg = PdeSolveConfig(beta_inv=0.5, t_final=0.5, dt=1.0, scheme="monotone_fd")
        with pytest.raises(CflError):
            solve_hj_monotone_fd(q, cfg, grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_initial_values_named(self, bad):
        grid = GridFunction.geometry([-1.0], [1.0], [33])
        u0 = np.zeros(33)
        u0[5] = bad
        f = CustomObjective(1, None, lambda x: np.zeros(1), value_batch_fn=lambda X: u0)
        cfg = PdeSolveConfig(beta_inv=0.1, t_final=0.1, scheme="monotone_fd")
        with pytest.raises(CflError, match="stability limit .* not finite and positive"):
            solve_hj_monotone_fd(f, cfg, grid)

    def test_2d_quadratic(self):
        q = make_quadratic(1.0, 0.0, 2)
        grid = GridFunction.geometry([-1.5, -1.5], [1.5, 1.5], [49, 49])
        cfg = PdeSolveConfig(beta_inv=0.0, t_final=0.5, scheme="monotone_fd")
        u = solve_hj_monotone_fd(q, cfg, grid)
        pts = grid.points()
        exact = (pts**2).sum(axis=1) / 3.0
        interior = (np.abs(pts) < 1.0).all(axis=1)
        assert np.abs(u.values - exact)[interior].max() < 10 * grid.spacing[0]

    def test_node_step_budget_refused_before_stepping(self):
        # 2,505,104 steps of 8193 nodes: 2.1e10 node-steps, minutes of stepping
        objective, grid = corpus_grid("rugged_s3_m6", 8193)
        cfg = PdeSolveConfig(beta_inv=0.1, t_final=10.0, scheme="monotone_fd")
        refused_by_step_budget(lambda: solve_pde(objective, cfg, grid), 10.0, 8193, 0.1)


def wavy(P):
    """A smooth non-polynomial field, so that reordered arithmetic shows."""
    return (np.sin(2.1 * P) + 0.3 * P**2).sum(axis=1)


def refused_by_step_budget(solve, t, grid_n, beta_inv):
    """Run ``solve``, which must be refused by the node-step budget of the
    explicit solvers, raised by the step count before any step is taken."""
    with pytest.raises(ValueError, match="node-steps, over the budget") as exc:
        solve()
    assert exc.traceback[-1].name == "_time_steps"
    assert f"beta_inv={beta_inv:g}, t={t:g}, grid_n={grid_n} " in str(exc.value)


class TestUpwindStencil:
    """The monotone scheme against a reference loop of its update, bit for bit,
    and against the ghost-cell form of the same scheme within rounding."""

    BETA_INV, DT = 0.2, 2.0**-8
    # ids by dimension; h is not a power of 2, and the end faces of the last
    # two are views strided by n - 2 = 1 and by unequal n per axis
    SHAPES = {"1": (31,), "2": (31, 31), "1_3_nodes": (3,), "2_33x17": (33, 17)}

    @classmethod
    def _face_step(cls, u, h):
        # faces from np.diff, the end faces copied from their neighbours, the
        # Godunov and Laplacian terms scaled per axis and summed, one update
        change = 0.0
        for axis in range(u.ndim):
            d = np.diff(u, axis=axis)
            D = np.concatenate([np.take(d, [0], axis=axis), d, np.take(d, [-1], axis=axis)], axis=axis)
            below, above = np.delete(D, -1, axis=axis), np.delete(D, 0, axis=axis)
            scale = 0.5 * cls.DT / h[axis] ** 2
            ham = (np.maximum(below, 0.0) ** 2 + np.minimum(above, 0.0) ** 2) * -scale
            lap = (above - below) * (cls.BETA_INV * scale)
            change = ham + lap if axis == 0 else change + ham + lap
        return u + change

    @staticmethod
    def _sides(u, axis):
        # linear-extrapolation ghost cells on every axis, then the neighbours
        for ax in range(u.ndim):
            lo = 2.0 * np.take(u, 0, axis=ax) - np.take(u, 1, axis=ax)
            hi = 2.0 * np.take(u, -1, axis=ax) - np.take(u, -2, axis=ax)
            u = np.concatenate([np.expand_dims(lo, ax), u, np.expand_dims(hi, ax)], axis=ax)
        inner = u[(slice(1, -1),) * u.ndim]
        shift = lambda k: np.roll(u, k, axis=axis)[(slice(1, -1),) * u.ndim]
        return shift(1), inner, shift(-1)

    @classmethod
    def _ghost_step(cls, u, h):
        ham, lap = np.zeros_like(u), np.zeros_like(u)
        for axis in range(u.ndim):
            um, uc, up = cls._sides(u, axis)
            dm, dp = (uc - um) / h[axis], (up - uc) / h[axis]
            ham += 0.5 * (np.maximum(dm, 0.0) ** 2 + np.minimum(dp, 0.0) ** 2)
            lap += (up - 2.0 * uc + um) / h[axis] ** 2
        return u + cls.DT * (-ham + 0.5 * cls.BETA_INV * lap)

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_monotone_fd_matches_reference(self, shape):
        grid = GridFunction.geometry([-2.0] * len(shape), [2.0] * len(shape), shape)
        u = ghost = wavy(grid.points()).reshape(grid.n_points)
        h = grid.spacing
        # 130 steps pass the solver's every-64-steps NaN check twice after step 0
        for n in range(1, 131):
            u, ghost = self._face_step(u, h), self._ghost_step(ghost, h)
            if n in (20, 130):
                cfg = PdeSolveConfig(beta_inv=self.BETA_INV, t_final=n * self.DT, dt=self.DT, scheme="monotone_fd")
                u0 = wavy(grid.points())
                f = CustomObjective(len(shape), None, lambda x: np.zeros(len(shape)), value_batch_fn=lambda X: u0)
                got = solve_hj_monotone_fd(f, cfg, grid)
                assert got.values.tobytes() == u.ravel().tobytes(), n
                # the solver steps its own buffers, never the values f returned
                assert u0.tobytes() == wavy(grid.points()).tobytes()
                # the ghost-cell form differs by rounding only
                assert np.abs(u - ghost).max() <= 4e-15, n


class TestHeat:
    def test_affine_reproduced_exactly(self):
        lin = CustomObjective(1, None, lambda x: np.array([3.0]),
                              value_batch_fn=lambda X: 3.0 * X[:, 0])
        grid = GridFunction.geometry([-2.0], [2.0], [257])
        cfg = PdeSolveConfig(beta_inv=0.3, t_final=1.0, scheme="heat")
        v = solve_heat(lin, cfg, grid)
        from pdeopt.grid import gradient
        np.testing.assert_allclose(gradient(v).values, 3.0, atol=1e-10)

    def test_quadratic_gaussian_moment(self):
        # oracle: E[(x+Z)^2/2] = x^2/2 + var/2 for Z ~ N(0, beta_inv * t)
        q = make_quadratic(1.0, 0.0, 1)
        grid = GridFunction.geometry([-2.0], [2.0], [257])
        cfg = PdeSolveConfig(beta_inv=0.1, t_final=0.5, scheme="heat")
        v = solve_heat(q, cfg, grid)
        xs = grid.axes()[0]
        np.testing.assert_allclose(v.values, xs**2 / 2 + 0.1 * 0.5 / 2, atol=1e-10)

    def test_sin_eigenfunction_decay_periodic(self):
        grid = GridFunction.geometry([0.0], [2 * np.pi], [257])
        cfg = PdeSolveConfig(beta_inv=0.1, t_final=1.0, scheme="heat", boundary="periodic")
        v = solve_heat(sin_objective(), cfg, grid)
        exact = math.exp(-0.1 * 1.0 / 2) * np.sin(grid.axes()[0])
        np.testing.assert_allclose(v.values, exact, atol=1e-6)

    def test_requires_positive_viscosity(self):
        q = make_quadratic(1.0, 0.0, 1)
        grid = GridFunction.geometry([-1.0], [1.0], [33])
        with pytest.raises(ValueError):
            solve_heat(q, PdeSolveConfig(beta_inv=0.0, t_final=1.0, scheme="hopf_lax"), grid)

    def test_2d_kernel_narrower_than_grid(self):
        q, grid, r2, inner = quadratic_129(0.01, 0.05)
        v = solve_heat(q, PdeSolveConfig(beta_inv=0.01, t_final=0.05, scheme="heat"), grid)
        assert np.abs(v.values - (r2 / 2 + 0.01 * 0.05))[inner].max() <= 1e-10


class TestPeriodic:
    """Quadrature on a periodic box: the last node of each axis repeats the first."""

    @pytest.mark.parametrize("beta_inv,t", [(0.5, 0.5), (1.0, 2.0), (0.2, 0.05)])
    def test_cole_hopf_bessel_series(self, beta_inv, t):
        # (0.2, 0.05): sigma = 0.1 < 3h, so the quadrature nodes are refined
        grid = GridFunction.geometry([0.0], [2 * np.pi], [129])
        cfg = PdeSolveConfig(beta_inv=beta_inv, t_final=t, boundary="periodic")
        u = solve_viscous_hj_cole_hopf(cos_objective(1), cfg, grid)
        np.testing.assert_allclose(u.values, cos_cole_hopf(grid.axes()[0], beta_inv, t), atol=1e-10)
        assert u.values[-1] == u.values[0]

    def test_cole_hopf_honours_pad_sigmas(self, monkeypatch):
        # on constant f the result is f - beta_inv log(kernel mass kept), so a
        # window of one standard deviation shows in the answer
        const = CustomObjective(1, None, lambda x: 0.0 * x,
                                value_batch_fn=lambda X: np.ones(len(X)))
        grid = GridFunction.geometry([0.0], [2 * np.pi], [129])
        beta_inv, t = 0.1, 0.5
        monkeypatch.setattr(pde_lab, "PAD_SIGMAS", 1.0)
        cfg = PdeSolveConfig(beta_inv=beta_inv, t_final=t, boundary="periodic")
        u = solve_viscous_hj_cole_hopf(const, cfg, grid)
        sigma = math.sqrt(beta_inv * t)  # >= 3h: nodes are the grid's
        h = grid.spacing[0]
        offs = h * np.arange(-math.ceil(sigma / h), math.ceil(sigma / h) + 1)
        mass = (h * np.exp(-offs**2 / (2 * sigma**2))).sum() / math.sqrt(2 * math.pi * sigma**2)
        assert mass < 0.8
        np.testing.assert_allclose(u.values, 1.0 - beta_inv * math.log(mass), atol=1e-13)

    @pytest.mark.parametrize("beta_inv,t", [(0.5, 0.5), (0.2, 0.05)])
    def test_2d_separable_cosines(self, beta_inv, t):
        grid = GridFunction.geometry([0.0, 0.0], [2 * np.pi, 2 * np.pi], [65, 65])
        x, y = grid.points().T
        cfg = PdeSolveConfig(beta_inv=beta_inv, t_final=t, boundary="periodic")
        u = solve_viscous_hj_cole_hopf(cos_objective(2), cfg, grid)
        exact = cos_cole_hopf(x, beta_inv, t) + cos_cole_hopf(y, beta_inv, t)
        np.testing.assert_allclose(u.values, exact, atol=1e-10)
        v = solve_heat(cos_objective(2), PdeSolveConfig(beta_inv=beta_inv, t_final=t, scheme="heat",
                                                        boundary="periodic"), grid)
        np.testing.assert_allclose(v.values, math.exp(-beta_inv * t / 2) * (np.cos(x) + np.cos(y)),
                                   atol=1e-12)


def _box(lo, hi, n, dim=1):
    return GridFunction.geometry([lo] * dim, [hi] * dim, [n] * dim)


def wavy_objective():
    return CustomObjective(2, None, None, value_batch_fn=wavy)


class TestLabGoldenReplay:
    """Small solves replay bit for bit: a digest of each solution's bytes, as
    recorded when the padded sample reused f's values on the grid nodes.
    Spacings of 1/32 and 1/16 put padded samples on the nodes exactly;
    0.02 and 0.015 do not."""

    RUGGED = Rugged1D(7, 5)
    CASES = {
        "cole_hopf_1d_dyadic": (DoubleWell(1.0), _box(-2.0, 2.0, 129), dict(beta_inv=0.1, t_final=0.5)),
        "cole_hopf_1d": (RUGGED, _box(-3.0, 3.0, 301), dict(beta_inv=0.1, t_final=0.5)),
        "cole_hopf_periodic": (cos_objective(1), _box(0.0, 2 * np.pi, 129),
                               dict(beta_inv=0.5, t_final=0.5, boundary="periodic")),
        # refined and through the log-sum-exp fallback
        "cole_hopf_refined": (RUGGED, _box(-3.0, 3.0, 401), dict(beta_inv=0.01, t_final=0.05)),
        "cole_hopf_2d": (wavy_objective(), _box(-2.0, 2.0, 65, 2), dict(beta_inv=0.1, t_final=0.5)),
        "hopf_lax_1d": (RUGGED, _box(-3.0, 3.0, 301), dict(beta_inv=0.0, t_final=0.3, scheme="hopf_lax")),
        "hopf_lax_2d": (wavy_objective(), _box(-2.0, 2.0, 65, 2),
                        dict(beta_inv=0.0, t_final=0.2, scheme="hopf_lax")),
        "heat_periodic_1d": (sin_objective(), _box(0.0, 2 * np.pi, 129),
                             dict(beta_inv=0.1, t_final=1.0, scheme="heat", boundary="periodic")),
        "heat_periodic_2d": (cos_objective(2), _box(0.0, 2 * np.pi, 65, 2),
                             dict(beta_inv=0.5, t_final=0.5, scheme="heat", boundary="periodic")),
        "fd_1d_inviscid": (RUGGED, _box(-3.0, 3.0, 201), dict(beta_inv=0.0, t_final=0.1, scheme="monotone_fd")),
        "fd_1d": (RUGGED, _box(-3.0, 3.0, 201), dict(beta_inv=0.1, t_final=0.1, scheme="monotone_fd")),
        "fd_2d": (wavy_objective(), _box(-2.0, 2.0, 33, 2), dict(beta_inv=0.1, t_final=0.1, scheme="monotone_fd")),
    }
    GOLDEN = {
        "cole_hopf_1d_dyadic": "858df8af8dfa912a",
        "cole_hopf_1d": "1045681b070d3b2f",
        "cole_hopf_periodic": "d74e94147efc8c10",
        "cole_hopf_refined": "adebc71917d8b78d",
        "cole_hopf_2d": "48a8995220a68049",
        "hopf_lax_1d": "61d251510793e201",
        "hopf_lax_2d": "16650e406c11743a",
        "heat_periodic_1d": "03870c15bece390b",
        "heat_periodic_2d": "f1edd80f565c8279",
        "fd_1d_inviscid": "90908bda8c36845d",
        "fd_1d": "68ba51eff0c6cc20",
        "fd_2d": "1e15629280b034dd",
    }

    @pytest.mark.parametrize("case", CASES)
    def test_replays_recorded_solve(self, case):
        objective, grid, cfg = self.CASES[case]
        u = solve_pde(objective, PdeSolveConfig(**cfg), grid)
        assert hashlib.sha256(u.values.tobytes()).hexdigest()[:16] == self.GOLDEN[case]


# seeded landscapes for the property tests: rugged_s<seed>_m<modes> on
# [-3, 3] and double wells on [-max(2, 2a), max(2, 2a)]
landscapes = st.one_of(
    st.builds(lambda s, m: f"rugged_s{s}_m{m}", st.integers(0, 40), st.integers(2, 8)),
    st.builds(lambda a: f"double_well_a{a}", st.sampled_from(["0.5", "0.8", "1", "1.3"])),
)


def corpus_grid(name, n):
    entry = get_entry(name)
    return entry.objective, GridFunction.geometry(*entry.domain_box, [n])


def log_sum_exp_cole_hopf(objective, cfg, grid):
    """Reference Cole-Hopf quadrature on the solver's own samples and windows,
    each window's exponents combined by scipy's log-sum-exp."""
    beta, t = 1.0 / cfg.beta_inv, cfg.t_final
    sigma = math.sqrt(cfg.beta_inv * t)
    r = pde_lab._refinement(grid, sigma)
    spread = pde_lab._search_radius(objective.value_batch(grid.points()), t)
    K = pde_lab._windows(grid, r, pde_lab.PAD_SIGMAS * sigma + spread, False, cfg.beta_inv, t)
    F = -beta * pde_lab._sample_padded(objective, grid, K, r, False)
    log_norm = 0.0
    for axis, (h, k, rd) in enumerate(zip(grid.spacing / r, K, r)):
        log_k = -beta * (h * np.arange(-k, k + 1)) ** 2 / (2.0 * t)
        win = sliding_window_view(np.moveaxis(F, axis, -1), 2 * k + 1, axis=-1)[..., ::rd, :]
        F = np.moveaxis(logsumexp(win + log_k, axis=-1), -1, axis)
        log_norm += math.log(h) - 0.5 * math.log(2.0 * math.pi * sigma * sigma)
    return -(F.ravel() + log_norm) / beta


def spy_logsumexp(monkeypatch, allowed=True):
    """Count the solver's log-sum-exp calls; with allowed=False any call fails."""
    calls = []

    def spy(*args, **kwargs):
        assert allowed, "the log-sum-exp fallback ran"
        calls.append(1)
        return logsumexp(*args, **kwargs)

    monkeypatch.setattr(pde_lab, "logsumexp", spy)
    return calls


class TestLinearColeHopf:
    """Cole-Hopf's axis passes in linear space (exp, window dot, log) against
    the windowed log-sum-exp they replace."""

    @settings(max_examples=25, deadline=None)
    @given(name=st.one_of(landscapes, st.builds(lambda c, d: f"quadratic_c{c}_n{d}",
                                                 st.sampled_from(["0.5", "1", "2"]), st.sampled_from([1, 2]))),
           beta_inv=st.floats(0.05, 0.5), t=st.floats(0.05, 0.5))
    def test_matches_log_sum_exp(self, name, beta_inv, t):
        entry = get_entry(name)
        dim = len(entry.domain_box[0])
        grid = GridFunction.geometry(*entry.domain_box, [257 if dim == 1 else 33] * dim)
        cfg = PdeSolveConfig(beta_inv=beta_inv, t_final=t)
        u = solve_viscous_hj_cole_hopf(entry.objective, cfg, grid)
        np.testing.assert_allclose(u.values, log_sum_exp_cole_hopf(entry.objective, cfg, grid), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name,n,beta_inv,t", [("rugged_s7_m5", 2049, 0.01, 0.05),
                                                    ("quadratic_c1_n2", 17, 0.002, 0.2)])
    def test_wide_lines_fall_back_to_log_sum_exp(self, name, n, beta_inv, t, monkeypatch):
        # beta * range(f) over the window centres is far above 700
        entry = get_entry(name)
        grid = GridFunction.geometry(*entry.domain_box, [n] * len(entry.domain_box[0]))
        cfg = PdeSolveConfig(beta_inv=beta_inv, t_final=t)
        calls = spy_logsumexp(monkeypatch)
        u = solve_viscous_hj_cole_hopf(entry.objective, cfg, grid)
        assert calls and np.isfinite(u.values).all()
        np.testing.assert_allclose(u.values.ravel(), log_sum_exp_cole_hopf(entry.objective, cfg, grid),
                                   rtol=0, atol=1e-12)

    def test_per_line_shift_keeps_2d_passes_linear(self, monkeypatch):
        # each line of a pass is shifted by its own maximum; one shift by the
        # maximum of the whole 2D sample puts window centres 700 or more below
        # it, and that variant log-sum-exps 7 blocks here
        entry = get_entry("quadratic_c1_n2")
        grid = GridFunction.geometry(*entry.domain_box, [17, 17])
        cfg = PdeSolveConfig(beta_inv=0.005, t_final=0.05)
        spy_logsumexp(monkeypatch, allowed=False)
        u = solve_viscous_hj_cole_hopf(entry.objective, cfg, grid)
        np.testing.assert_allclose(u.values.ravel(), log_sum_exp_cole_hopf(entry.objective, cfg, grid),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name,n", [("rugged_s7_m5", 2049), ("quadratic_c1_n2", 129)])
    def test_smooth_lab_cases_stay_linear(self, name, n, monkeypatch):
        entry = get_entry(name)
        grid = GridFunction.geometry(*entry.domain_box, [n] * len(entry.domain_box[0]))
        spy_logsumexp(monkeypatch, allowed=False)
        u = solve_viscous_hj_cole_hopf(entry.objective, PdeSolveConfig(beta_inv=0.1, t_final=0.5), grid)
        assert np.isfinite(u.values).all()

    @pytest.mark.parametrize("name,beta_inv", [("double_well_a1", 0.2), ("double_well_a1", 1.0),
                                               ("double_well_a1.3", 0.2), ("double_well_a0.5", 0.2)])
    def test_double_wells_stay_linear(self, name, beta_inv, monkeypatch):
        # the padded lines reach |x| = 8, where beta (x^2 - a^2)^2 is in the
        # thousands; only the window centres, the grid nodes, set the range
        entry = get_entry(name)
        grid = GridFunction.geometry(*entry.domain_box, [401])
        cfg = PdeSolveConfig(beta_inv=beta_inv, t_final=0.5)
        spy_logsumexp(monkeypatch, allowed=False)
        u = solve_viscous_hj_cole_hopf(entry.objective, cfg, grid)
        np.testing.assert_allclose(u.values, log_sum_exp_cole_hopf(entry.objective, cfg, grid), rtol=0, atol=1e-12)


class TestWorkBudget:
    """Quadratures whose padded sample or window sums exceed the budget are
    refused by name before the padded sample is taken."""

    @staticmethod
    def counted(objective, calls):
        return CustomObjective(objective.dim, None, objective.grad,
                               value_batch_fn=lambda X: calls.append(len(X)) or objective.value_batch(X))

    @pytest.mark.parametrize("scheme", ["cole_hopf", "heat"])
    def test_rejects_before_any_evaluation(self, scheme):
        # solve-pde --objective quadratic_c1_n2 --grid-n 129 --beta-inv 1e-4 --t 0.05:
        # the kernel alone refines each axis 42-fold, 29 M samples
        q, grid, _, _ = quadratic_129(1e-4, 0.05)
        calls = []
        with pytest.raises(ValueError, match=r"beta_inv=0\.0001, t=0\.05, grid_n=129 .*budget.*hopf_lax"):
            solve_pde(self.counted(q, calls), PdeSolveConfig(beta_inv=1e-4, t_final=0.05, scheme=scheme), grid)
        assert calls == []

    @pytest.mark.parametrize("scheme", ["cole_hopf", "heat"])
    def test_kernel_width_underflowing_to_zero_is_refused(self, scheme):
        # beta_inv * t = 0.5 * 5e-324 rounds to 0: the refinement 3h / sigma
        # overflowed math.ceil before the budget was checked
        q, grid, _, _ = quadratic_129(0.5, 5e-324)
        with pytest.raises(ValueError, match=r"grid_n=129 needs .*budget.*hopf_lax"):
            solve_pde(q, PdeSolveConfig(beta_inv=0.5, t_final=5e-324, scheme=scheme), grid)

    def test_hopf_lax_reach_is_budgeted(self):
        # t = 1000 reaches 89 past the box: K = 2863, a sample of 5855^2 nodes
        q, grid, _, _ = quadratic_129(0.1, 0.5)
        calls = []
        with pytest.raises(ValueError, match=r"t=1000, grid_n=129"):
            solve_hj_hopf_lax(self.counted(q, calls), 1000.0, grid)
        assert calls == [129 * 129]  # the grid nodes that set the reach, no more

    def test_hopf_lax_grid_over_budget_refused_before_f(self, monkeypatch):
        # the 129^2 grid nodes alone are over a budget of 1,000 samples
        monkeypatch.setattr(pde_lab, "_MAX_SAMPLES", 1000)
        q, grid, _, _ = quadratic_129(0.1, 0.5)
        calls = []
        with pytest.raises(ValueError, match=r"t=0\.5, grid_n=129 needs 16,641 samples"):
            solve_hj_hopf_lax(self.counted(q, calls), 0.5, grid)
        assert calls == []

    @pytest.mark.parametrize("solve", [
        lambda q, grid: solve_pde(q, PdeSolveConfig(beta_inv=0.1, t_final=0.5, scheme="monotone_fd"), grid),
        lambda q, grid: solve_pde(q, PdeSolveConfig(beta_inv=0.0, t_final=0.5, scheme="monotone_fd"), grid),
        lambda q, grid: pde_lab.solve_hjb_backward(q, 1.0, 0.5, grid),
    ], ids=["monotone_fd", "monotone_fd_inviscid", "hjb_backward"])
    def test_explicit_solver_grid_over_budget_refused_before_its_nodes(self, solve, monkeypatch):
        # solve-pde --scheme fd --objective quadratic_c1_n2 --grid-n 4097: 16.8 M nodes, and f
        # on them (and grad f for the backward solver) would take hundreds of MB
        def nodes(self):
            raise AssertionError("grid nodes built before the grid was checked")
        monkeypatch.setattr(GridFunction, "points", nodes)
        q, grid = get_entry("quadratic_c1_n2").objective, GridFunction.geometry([-2.0] * 2, [2.0] * 2, [4097] * 2)
        with pytest.raises(ValueError, match=r"^grid_n=4097 has 16,785,409 nodes, over the budget of 8,388,608"):
            solve(q, grid)

    def test_2d_grid_above_257_within_budget(self):
        # refused by a fixed 257-points-per-axis limit before the budget
        q = get_entry("quadratic_c1_n2").objective
        grid = GridFunction.geometry([-2.0, -2.0], [2.0, 2.0], [301, 301])
        t, h = 0.05, grid.spacing[0]
        u = solve_hj_hopf_lax(q, t, grid)
        pts = grid.points()
        inner = (np.abs(pts) <= 1.0).all(axis=1)
        err = np.abs(u.values - (pts**2).sum(axis=1) / (2 * (1 + t)))[inner].max()
        assert err <= 2 * (h / 2) ** 2 * (1 + 1 / t)


class TestQuadratureProperties:
    @settings(max_examples=25, deadline=None)
    @given(name=landscapes, t=st.floats(0.01, 2.0))
    def test_hopf_lax_never_above_f(self, name, t):
        obj, grid = corpus_grid(name, 257)
        u = solve_hj_hopf_lax(obj, t, grid)
        assert np.isfinite(u.values).all()
        assert np.all(u.values <= obj.value_batch(grid.points()) + 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(name=landscapes, t=st.floats(0.01, 1.0), later=st.floats(1.01, 4.0))
    def test_hopf_lax_non_increasing_in_t(self, name, t, later):
        obj, grid = corpus_grid(name, 257)
        u1 = solve_hj_hopf_lax(obj, t, grid).values
        u2 = solve_hj_hopf_lax(obj, t * later, grid).values
        assert np.isfinite(u2).all()
        assert np.all(u2 <= u1 + 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(dim=st.sampled_from([1, 2]), c=st.floats(0.5, 2.0), p=st.floats(-0.5, 0.5),
           beta_inv=st.floats(0.05, 0.5), t=st.floats(0.1, 1.0))
    def test_cole_hopf_minus_hopf_lax_on_quadratics(self, dim, c, p, beta_inv, t):
        # f = c|x|^2/2 + p.x: u_CH - u_HL = (beta_inv/2) log(1 + ct) per
        # dimension; grid minimization lifts u_HL by at most
        # (h/2)^2 (c + 1/t) / 2 per axis
        q = make_quadratic(c, p, dim)
        n = 129 if dim == 1 else 65
        grid = GridFunction.geometry([-2.0] * dim, [2.0] * dim, [n] * dim)
        u_ch = solve_viscous_hj_cole_hopf(q, PdeSolveConfig(beta_inv=beta_inv, t_final=t), grid)
        u_hl = solve_hj_hopf_lax(q, t, grid)
        assert np.isfinite(u_ch.values).all()
        gap = u_ch.values - u_hl.values - dim * beta_inv / 2 * math.log1p(c * t)
        bias = dim * (grid.spacing[0] / 2) ** 2 * (c + 1.0 / t) / 2
        assert np.all(gap <= 1e-9) and np.all(gap >= -bias - 1e-9)

    @settings(max_examples=20, deadline=None)
    @given(dim=st.sampled_from([1, 2]), a=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
           b=st.floats(-5.0, 5.0), beta_inv=st.floats(0.01, 1.0), t=st.floats(0.01, 1.0))
    def test_heat_reproduces_affine(self, dim, a, b, beta_inv, t):
        slope = np.array(a[:dim])
        lin = CustomObjective(dim, None, lambda x: slope,
                              value_batch_fn=lambda X: X @ slope + b)
        n = 129 if dim == 1 else 65
        grid = GridFunction.geometry([-2.0] * dim, [2.0] * dim, [n] * dim)
        v = solve_heat(lin, PdeSolveConfig(beta_inv=beta_inv, t_final=t, scheme="heat"), grid)
        np.testing.assert_allclose(v.values, lin.value_batch(grid.points()), atol=1e-12 * (1 + abs(b) + 6 * np.abs(slope).sum()))


class TestMaximumPrinciple:
    """f1 <= f2 pointwise implies u1 <= u2 for every solver."""

    @staticmethod
    def _pair():
        f1 = Rugged1D(4, 5)
        f2 = CustomObjective(
            1, None,
            lambda x: f1.grad(x) + 0.6 * np.cos(3 * x),
            value_batch_fn=lambda X: f1.value_batch(X) + 0.5 + 0.2 * np.sin(3 * X[:, 0]),
        )
        return f1, f2

    @pytest.mark.parametrize("scheme", ["cole_hopf", "hopf_lax", "monotone_fd", "heat"])
    def test_comparison(self, scheme):
        f1, f2 = self._pair()
        grid = GridFunction.geometry([-3.0], [3.0], [257])
        cfg = PdeSolveConfig(beta_inv=0.1, t_final=0.3, scheme=scheme)
        u1 = solve_pde(f1, cfg, grid)
        u2 = solve_pde(f2, cfg, grid)
        assert np.all(u1.values <= u2.values + 1e-10)


class TestFokkerPlanck:
    def test_pure_diffusion_variance_growth(self):
        grid = GridFunction.geometry([-6.0], [6.0], [401])
        rho0 = gaussian_density(grid, [0.0], 0.25)
        drift = grid.with_values(np.zeros(401))
        beta_inv, t = 0.5, 2.0
        rho = evolve_fokker_planck(drift, rho0, beta_inv, t)
        xs = grid.axes()[0]
        w = np.gradient(xs)

        def var(r):
            m = (r.values * w).sum()
            mu = (r.values * xs * w).sum() / m
            return (r.values * (xs - mu) ** 2 * w).sum() / m

        growth = var(rho) - var(rho0)
        assert growth == pytest.approx(beta_inv * t, rel=0.02)

    def test_mass_conserved_and_nonnegative(self):
        obj = DoubleWell(1.0)
        grid = GridFunction.geometry([-3.0], [3.0], [301])
        rho0 = gaussian_density(grid, [0.3], 0.15)
        drift = grid.with_values(obj.grad_batch(grid.points())[:, 0])
        rho = evolve_fokker_planck(drift, rho0, 0.1, 3.0)
        assert abs(rho.integral() - rho0.integral()) < 1e-8 * 3.0
        assert rho.values.min() >= -1e-12

    def test_gibbs_stationary_quadratic(self):
        # flux balance of d/dx(x rho) + (beta_inv/2) rho'' = 0 gives
        # rho ~ exp(-x^2 / beta_inv); KL small after long evolution
        q = make_quadratic(1.0, 0.0, 1)
        grid = GridFunction.geometry([-4.0], [4.0], [513])
        rho0 = gaussian_density(grid, [1.0], 0.4)
        drift = grid.with_values(q.grad_batch(grid.points())[:, 0])
        beta_inv = 1.0
        rho = evolve_fokker_planck(drift, rho0, beta_inv, 20.0)
        xs = grid.axes()[0]
        target = np.exp(-xs**2 / beta_inv)
        target /= np.trapezoid(target, xs)
        ratio = np.log(np.maximum(rho.values, 1e-300) / np.maximum(target, 1e-300))
        kl = float(np.trapezoid(rho.values * ratio, xs))
        assert kl <= 1e-3

    @pytest.mark.parametrize("case, message", [
        ("negative_t", "t_final must be >= 0"),
        ("two_drifts_1d", "one drift component per axis"),
        ("drift_on_another_grid", "drift and density must share the grid"),
        # refused before the stability limit, which reads a negative or NaN
        # beta_inv as a fault of the drift or not at all
        ("negative_beta_inv", r"beta_inv=-0.0001: the diffusion must be >= 0"),
        ("nan_beta_inv", r"beta_inv=nan: the diffusion must be >= 0"),
        ("infinite_t", r"t=inf: an explicit solve needs a finite horizon"),
        ("nan_t", r"t=nan: an explicit solve needs a finite horizon"),
    ])
    def test_rejects_bad_inputs(self, case, message):
        grid = GridFunction.geometry([-1.0], [1.0], [33])
        rho0 = gaussian_density(grid, [0.0], 0.05)
        zero = grid.with_values(np.zeros(33))
        ramp = grid.with_values(3.0 * grid.axes()[0])
        drift, beta_inv, t = {"negative_t": (zero, 0.1, -0.1), "two_drifts_1d": ([zero, zero], 0.1, 0.1),
                              "drift_on_another_grid": (GridFunction.geometry([-1.0], [1.0], [17]), 0.1, 0.1),
                              "negative_beta_inv": (ramp, -1e-4, 0.5), "nan_beta_inv": (ramp, math.nan, 0.5),
                              "infinite_t": (ramp, 0.1, math.inf), "nan_t": (ramp, 0.1, math.nan)}[case]
        with pytest.raises(ValueError, match=message):
            evolve_fokker_planck(drift, rho0, beta_inv, t)

    @pytest.mark.parametrize("dt", [None, 1e-3])
    @pytest.mark.parametrize("safety", [0.0, -1.0, 1.5, 2.0, math.nan, math.inf])
    def test_cfl_safety_outside_the_unit_interval_refused(self, safety, dt):
        # 2.0 stepped past the stability limit; -1 and inf took one step of the
        # whole horizon; 0 and NaN failed on int(ceil(t / dt)) naming nothing
        grid = GridFunction.geometry([-1.0], [1.0], [33])
        rho0 = gaussian_density(grid, [0.0], 0.05)
        drift = grid.with_values(3.0 * grid.axes()[0])
        with pytest.raises(ValueError, match=f"^cfl_safety={safety:g}: the share of the stability limit"):
            evolve_fokker_planck(drift, rho0, 0.1, 0.5, dt=dt, cfl_safety=safety)

    @pytest.mark.parametrize("safety", [0.25, 1.0])
    def test_cfl_safety_in_the_unit_interval_runs(self, safety):
        grid = GridFunction.geometry([-1.0], [1.0], [33])
        rho0 = gaussian_density(grid, [0.0], 0.05)
        drift = grid.with_values(3.0 * grid.axes()[0])
        rho = evolve_fokker_planck(drift, rho0, 0.1, 0.5, cfl_safety=safety)
        assert rho.values.min() >= -1e-12
        assert abs(rho.values.sum() - rho0.values.sum()) < 1e-12

    def test_rejects_bad_density(self):
        grid = GridFunction.geometry([-1.0], [1.0], [33])
        drift = grid.with_values(np.zeros(33))
        bad = grid.with_values(np.ones(33))  # integral = 2
        with pytest.raises(ValueError):
            evolve_fokker_planck(drift, bad, 0.1, 1.0)

    def test_cfl_validation(self):
        grid = GridFunction.geometry([-1.0], [1.0], [101])
        rho0 = gaussian_density(grid, [0.0], 0.05)
        drift = grid.with_values(np.zeros(101))
        with pytest.raises(CflError):
            evolve_fokker_planck(drift, rho0, 1.0, 0.1, dt=0.5)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
    def test_dt_not_positive_and_finite_refused(self, dt):
        grid = GridFunction.geometry([-1.0], [1.0], [101])
        rho0 = gaussian_density(grid, [0.0], 0.05)
        drift = grid.with_values(np.zeros(101))
        with pytest.raises(ValueError, match=f"dt={dt:g}: an explicit time step must be positive"):
            evolve_fokker_planck(drift, rho0, 1.0, 0.1, dt=dt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_drift_named(self, bad):
        grid = GridFunction.geometry([-1.0], [1.0], [33])
        rho0 = gaussian_density(grid, [0.0], 0.05)
        b = np.zeros(33)
        b[7] = bad
        with pytest.raises(CflError, match="stability limit .* drifts are not finite"):
            evolve_fokker_planck(grid.with_values(b), rho0, 0.1, 0.1)

    def test_node_step_budget_refused_before_stepping(self, monkeypatch):
        # 32,768,000 steps of 0.8 h^2 = 3e-6 up to t = 100 on 4097 nodes: 1.3e11 node-steps
        monkeypatch.setattr(pde_lab, "_Generator", None)
        grid = GridFunction.geometry([-4.0], [4.0], [4097])
        rho0 = gaussian_density(grid, [0.0], 0.5)
        drift = grid.with_values(np.zeros(4097))
        refused_by_step_budget(lambda: evolve_fokker_planck(drift, rho0, 1.0, 100.0), 100.0, 4097, 1.0)

    def test_2d_mass_and_diffusion(self):
        grid = GridFunction.geometry([-5.0, -5.0], [5.0, 5.0], [101, 101])
        rho0 = gaussian_density(grid, [0.0, 0.0], 0.2)
        zero = grid.with_values(np.zeros(101 * 101))
        rho = evolve_fokker_planck([zero, zero], rho0, 0.4, 1.0)
        assert abs(rho.integral() - 1.0) < 1e-8
        pts = grid.points()
        w = rho.values / rho.integral()
        # second moment grows by beta_inv * t per axis
        var0 = 0.2
        cell = grid.spacing.prod()
        var_x = float((w * pts[:, 0] ** 2).sum() * cell)
        assert var_x == pytest.approx(var0 + 0.4, rel=0.03)


@st.composite
def diffusions(draw, dims=(1, 2)):
    """Random drift components, spacing and viscosity on a small grid of one
    of ``dims`` dimensions."""
    dim = draw(st.sampled_from(dims))
    shape = tuple(draw(st.integers(3, 9)) for _ in range(dim))
    drifts = [draw(arrays(np.float64, shape, elements=st.floats(-10.0, 10.0))) for _ in range(dim)]
    spacing = np.array([draw(st.floats(0.05, 1.0)) for _ in range(dim)])
    return drifts, spacing, draw(st.floats(0.01, 1.0))


def sparse_generator(drifts, spacing, beta_inv):
    """Reference: the generator as a scipy CSR matrix, rates listed face by
    face and each diagonal entry minus its row's sum."""
    from scipy import sparse

    shape = drifts[0].shape
    size = math.prod(shape)
    idx = np.arange(size).reshape(shape)
    D = 0.5 * beta_inv
    rows, cols, rates = [], [], []
    for axis, (b, h) in enumerate(zip(drifts, spacing)):
        ia = np.moveaxis(idx, axis, 0)
        ba = np.moveaxis(b, axis, 0)
        bf = (0.5 * (ba[:-1] + ba[1:])).ravel()
        left, right = ia[:-1].ravel(), ia[1:].ravel()
        rows += [left, right]
        cols += [right, left]
        rates += [(D / h - np.minimum(bf, 0.0)) / h, (D / h + np.maximum(bf, 0.0)) / h]
    jumps = sparse.csr_matrix((np.concatenate(rates), (np.concatenate(rows), np.concatenate(cols))),
                              shape=(size, size))
    return (jumps - sparse.diags(np.asarray(jumps.sum(axis=1)).ravel())).tocsr()


class TestGenerator:
    """The reflecting generator shared by Fokker-Planck and the backward HJB."""

    @settings(max_examples=60, deadline=None)
    @given(case=diffusions(), seed=st.integers(0, 2**16))
    def test_matches_the_sparse_reference_byte_for_byte(self, case, seed):
        G = pde_lab._Generator(*case)
        ref = sparse_generator(*case)
        v = np.random.default_rng(seed).standard_normal(ref.shape[0])
        assert G.diagonal.tobytes() == ref.diagonal().tobytes()
        assert G.matvec(v).tobytes() == (ref @ v).tobytes()
        assert G.rmatvec(v).tobytes() == (ref.T @ v).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(case=diffusions())
    def test_rows_sum_to_zero_and_rates_are_nonnegative(self, case):
        G = pde_lab._Generator(*case)
        dense = np.column_stack([G.matvec(e) for e in np.eye(G.diagonal.size)])
        assert np.all(dense[~np.eye(len(dense), dtype=bool)] >= 0.0)
        assert np.all(np.abs(dense.sum(axis=1)) <= 1e-12 * np.abs(G.diagonal).max())

    @settings(max_examples=30, deadline=None)
    @given(case=diffusions(), t=st.floats(0.0, 0.2), seed=st.integers(0, 2**16))
    def test_fokker_planck_conserves_sum_and_sign(self, case, t, seed):
        drifts, spacing, beta_inv = case
        shape = drifts[0].shape
        grid = GridFunction.geometry([0.0] * len(shape), (np.array(shape) - 1) * spacing, shape)
        rho0 = grid.with_values(np.random.default_rng(seed).random(grid.values.size)).normalized()
        rho = evolve_fokker_planck([grid.with_values(b) for b in drifts], rho0, beta_inv, t)
        assert abs(rho.values.sum() - rho0.values.sum()) <= 1e-12 * rho0.values.sum()
        assert rho.values.min() >= -1e-12

    @settings(max_examples=40, deadline=None)
    @given(case=diffusions(), seed=st.integers(0, 2**16))
    def test_backward_step_at_the_limit_is_a_convex_combination(self, case, seed):
        drifts, spacing, beta_inv = case
        phi = np.random.default_rng(seed).random(drifts[0].size)
        step = pde_lab.fp_cfl_limit(drifts, spacing, beta_inv)
        nxt = phi + step * pde_lab._Generator(drifts, spacing, beta_inv).matvec(phi)
        tol = 1e-12 * phi.max()
        assert np.all(nxt >= phi.min() - tol) and np.all(nxt <= phi.max() + tol)

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33])
    @pytest.mark.parametrize("shape", [(17,), (7, 9)], ids=["1d", "2d"])
    @pytest.mark.parametrize("transpose", [False, True], ids=["G", "GT"])
    def test_in_place_steps_equal_the_product_steps(self, n, shape, transpose):
        # 2D steps replay the product steps bit for bit; 1D blocks of steps
        # are banded products, which round differently
        rng = np.random.default_rng(len(shape) * 100 + n)
        drifts = [3.0 * rng.standard_normal(shape) for _ in shape]
        spacing, beta_inv = np.array([0.3, 0.2][: len(shape)]), 0.4
        step = 0.9 * pde_lab.fp_cfl_limit(drifts, spacing, beta_inv)
        reference = pde_lab._Generator(drifts, spacing, beta_inv)
        product = reference.rmatvec if transpose else reference.matvec
        v0 = rng.random(math.prod(shape))
        expected = [v0.copy()]
        for _ in range(n + 2):
            expected.append(expected[-1] + step * product(expected[-1]))

        def assert_steps(v, k):
            if len(shape) == 1:
                assert np.abs(v - expected[k]).max() <= 1e-12 * np.abs(expected[k]).max()
            else:
                assert v.tobytes() == expected[k].tobytes()

        G = pde_lab._Generator(drifts, spacing, beta_inv)
        v = G.evolve(v0, step, n, transpose=transpose)
        assert_steps(v, n)
        assert v0.tobytes() == expected[0].tobytes()     # the input is untouched
        # the returned view is taken back and stepped on without a copy
        assert G.evolve(v, step, 2, transpose=transpose) is v
        assert_steps(v, n + 2)

    @settings(max_examples=40, deadline=None)
    @given(case=diffusions(dims=(1,)), n=st.sampled_from([0, 1, 15, 16, 17, 33, 100]),
           share=st.floats(0.01, 1.0), transpose=st.booleans(), seed=st.integers(0, 2**16))
    def test_banded_blocks_match_single_steps(self, case, n, share, transpose, seed):
        # 1D: blocks of up to 16 steps, each one product with the band of
        # (I + step G)^m, against the steps v + step * G v taken one at a time
        drifts, spacing, beta_inv = case
        step = share * pde_lab.fp_cfl_limit(drifts, spacing, beta_inv)
        reference = pde_lab._Generator(*case)
        product = reference.rmatvec if transpose else reference.matvec
        v = np.random.default_rng(seed).standard_normal(drifts[0].size)
        expected = v.copy()
        for _ in range(n):
            expected = expected + step * product(expected)
        got = pde_lab._Generator(*case).evolve(v, step, n, transpose=transpose)
        scale = max(np.abs(v).max(), np.abs(expected).max())
        assert np.abs(got - expected).max() <= 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(case=diffusions(dims=(1,)), m=st.integers(1, 16), share=st.floats(0.01, 1.0))
    def test_band_is_the_power_of_a_stochastic_step(self, case, m, share):
        # under fp_cfl_limit, I + step G is row-stochastic and its transpose
        # column-stochastic, and so are their m-th powers
        drifts, spacing, beta_inv = case
        step = share * pde_lab.fp_cfl_limit(drifts, spacing, beta_inv)
        G = pde_lab._Generator(*case)
        size = drifts[0].size
        one = np.eye(size) + step * np.column_stack([G.matvec(e) for e in np.eye(size)])
        for transpose, power in ((False, np.linalg.matrix_power(one, m)),
                                 (True, np.linalg.matrix_power(one.T, m))):
            band = G._band(step, m, transpose)[0]
            assert band.shape == (size, 2 * m + 1)
            dense = np.zeros((size, size + 2 * m))       # [i, m + j]: band[i, m + j - i]
            for i in range(size):
                dense[i, i : i + 2 * m + 1] = band[i]
            assert not dense[:, :m].any() and not dense[:, m + size :].any()   # nothing across a wall
            dense = dense[:, m : m + size]
            assert np.all(band >= 0.0)
            assert np.abs(dense - power).max() <= 1e-13
            sums = dense.sum(axis=0 if transpose else 1)
            assert np.abs(sums - 1.0).max() <= 1e-13


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestGeneratorGolden:
    """Solves through the reflected generator replay bit for bit: sha256 of
    the backward HJB's gradient slices and of Fokker-Planck densities.  The
    2D digests were recorded when the generator was a scipy CSR matrix, the
    1D ones when its steps became banded blocks."""

    HJB = {  # (upper corner, nodes per axis, tilt, T) of OU quadratics on [-upper, upper]
        "1d_129": (([2.0], [129], 0.0, 1.0), "d9da29e34789b59541f3fc7f156aa7465aa36601f2173085cca8ba04490fd935"),
        "1d_257": (([2.0], [257], 0.0, 1.0), "f2490e75e88680a016bb0586101f81fa69c93fda420be2b56858c6fb8cbcd39b"),
        "2d_65": (([2.0, 2.0], [65, 65], 0.0, 1.0),
                  "90331de8fae133c1d695887e80095b730c582f3a30b9e8b040e77265552234aa"),
        "2d_tilted": (([2.0, 1.5], [33, 17], [0.4, -0.7], 0.5),
                      "0e5f7eafa9bb33b2a934d3eba4f8e3e59ad9d980f0e8220628b428ab5baee0c3"),
    }

    @pytest.mark.parametrize("case", HJB)
    def test_hjb_gradients(self, case):
        (upper, n, tilt, T), digest = self.HJB[case]
        grid = GridFunction.geometry([-u for u in upper], upper, n)
        field = pde_lab.solve_hjb_backward(make_quadratic(1.0, tilt, len(n)), T, 0.3, grid)
        assert _sha256(field.gradients) == digest

    def test_fokker_planck_1d(self):
        grid = GridFunction.geometry([-3.0], [3.0], [301])
        rho0 = gaussian_density(grid, [0.3], 0.15)
        drift = grid.with_values(DoubleWell(1.0).grad_batch(grid.points())[:, 0])
        rho = evolve_fokker_planck(drift, rho0, 0.1, 3.0)
        assert _sha256(rho.values) == "fa968e5effda16a90c3489d3615662ccb3a62db0435e560afbd30f4faecbcc44"

    def test_fokker_planck_2d(self):
        grid = GridFunction.geometry([-2.0, -1.5], [2.0, 1.5], [33, 17])
        P = grid.points()
        b = 2.1 * np.cos(2.1 * P) + 0.6 * P + np.array([0.4, -0.7])
        rho0 = gaussian_density(grid, [0.2, -0.1], 0.3)
        rho = evolve_fokker_planck([grid.with_values(b[:, 0]), grid.with_values(b[:, 1])], rho0, 0.2, 0.5)
        assert _sha256(rho.values) == "ca4049648e47b3db570f2166adb421dadff2f686e297ddaf90c2044ecefc46df"


class TestHjbBackward:
    @staticmethod
    def riccati(c, q, tau):
        """a(tau) with a' = -2ca - a^2, a(0) = q."""
        e = math.exp(-2.0 * c * tau)
        return q * e / (1.0 + q * (1.0 - e) / (2.0 * c))

    @pytest.mark.parametrize("dim,n", [(1, 129), (1, 257), (2, 65)])
    def test_ou_riccati_closed_form(self, dim, n):
        # f = c|x|^2/2 and V = q|x|^2/2 give grad u(x, s) = a(T - s) x; the
        # terminal cost is f, so q = c; the scheme is first order in h
        c = q = T = 1.0
        grid = GridFunction.geometry([-2.0] * dim, [2.0] * dim, [n] * dim)
        field = pde_lab.solve_hjb_backward(make_quadratic(c, 0.0, dim), T, 0.3, grid)
        pts = grid.points()
        inner = pts[(np.abs(pts) <= 1.0).all(axis=1)]
        for s in (0.0, T / 2):
            err = np.abs(field.alpha(inner, s) - self.riccati(c, q, T - s) * inner).max()
            assert err <= 0.1 * grid.spacing[0]

    @pytest.mark.parametrize("beta_inv", [0.0, -0.1])
    def test_rejects_nonpositive_beta_inv(self, beta_inv):
        dw = DoubleWell(1.0)
        grid = GridFunction.geometry([-2.5], [2.5], [65])
        with pytest.raises(ValueError, match="beta_inv"):
            pde_lab.solve_hjb_backward(dw, 1.0, beta_inv, grid)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_horizon_not_positive_and_finite_before_f(self, T):
        # at T = 0 both slices would share s = 0 and alpha read NaN; T = -1
        # would step diffusion backward; NaN and inf reached int(ceil(T / dt))
        def unread(X):
            raise AssertionError("f evaluated")

        grid = GridFunction.geometry([-2.0], [2.0], [65])
        with pytest.raises(ValueError, match=f"T={T:g}: the horizon must be positive and finite"):
            pde_lab.solve_hjb_backward(CustomObjective(1, None, unread, value_batch_fn=unread), T, 0.2, grid)

    @pytest.mark.parametrize("bad_step", [0, 1, 200, 407, 1000])
    def test_nan_abort_names_the_first_bad_kept_step(self, monkeypatch, bad_step):
        # the finite check runs over blocks of slices and still names the
        # first kept reversed step whose phi is not finite
        evolve = pde_lab._Generator.evolve
        reached = [0]

        def poisoned(self, v, step, n, transpose=False):
            reached[0] += n
            out = evolve(self, v, step, n, transpose)
            if reached[0] >= bad_step:
                out[3] = math.nan
            return out

        monkeypatch.setattr(pde_lab._Generator, "evolve", poisoned)
        grid = GridFunction.geometry([-2.0], [2.0], [129])
        n_steps, _ = pde_lab._time_steps(1.0, None, pde_lab.CFL_SAFETY,
                                         pde_lab.fp_cfl_limit([DoubleWell(1.0).grad_batch(grid.points())[:, 0]],
                                                              grid.spacing, 0.3), grid.n_points, 0.3)
        keep_every = math.ceil((n_steps + 1) / pde_lab.HJB_MAX_SLICES)
        first = min(math.ceil(bad_step / keep_every) * keep_every, n_steps)
        with pytest.raises(pde_lab.NanAbort, match=f"at reversed step {first}$"):
            pde_lab.solve_hjb_backward(DoubleWell(1.0), 1.0, 0.3, grid)

    def test_node_step_budget_refused_before_stepping(self, monkeypatch):
        # at T = 2 this solve takes 48,128 steps of 1025 nodes (4.9e7
        # node-steps); at T = 100, 2,406,400 steps (2.5e9)
        monkeypatch.setattr(pde_lab, "_Generator", None)
        grid = GridFunction.geometry([-2.0], [2.0], [1025])
        refused_by_step_budget(lambda: pde_lab.solve_hjb_backward(DoubleWell(1.0), 100.0, 0.2, grid),
                               100.0, 1025, 0.2)

    def test_rejects_underflowing_log_transform(self):
        # range(V) = 27.56 on the grid over [-2.5, 2.5]: beta * range = 919 > 700
        dw = DoubleWell(1.0)
        grid = GridFunction.geometry([-2.5], [2.5], [65])
        with pytest.raises(ValueError, match="beta_inv"):
            pde_lab.solve_hjb_backward(dw, 1.0, 0.03, grid)


# ---------------------------------------------------------------------------
# a sweep of valid inputs: each solve returns finite values or is refused by name


def refused(exc: Exception) -> bool:
    """A refusal by name: a CflError, a NanAbort, or another ValueError
    naming beta_inv (a work budget, heat's viscosity, the log transform's
    range)."""
    return isinstance(exc, (CflError, pde_lab.NanAbort)) or "beta_inv" in str(exc)


@st.composite
def pde_solves(draw):
    """A valid ``solve_pde`` input: a corpus objective on a grid of 3 to 65
    nodes per axis, any scheme, a boundary the scheme takes, beta_inv in
    [0, 1] and t in (0, 2]."""
    entry = get_entry(draw(st.sampled_from(["double_well_a1", "rugged_s3_m6", "quadratic_c1_n1",
                                            "quadratic_c1_n2"])))
    grid = GridFunction.geometry(*entry.domain_box, [draw(st.integers(3, 65))] * entry.objective.dim)
    scheme = draw(st.sampled_from(pde_lab.SCHEMES))
    beta_inv = draw(st.floats(0.0, 1.0))
    periodic = scheme == "heat" or scheme == "cole_hopf" and beta_inv > 0
    boundary = draw(st.sampled_from(pde_lab.BOUNDARIES if periodic else ["extrapolating"]))
    t = draw(st.floats(0.0, 2.0, exclude_min=True))
    return entry.objective, PdeSolveConfig(beta_inv=beta_inv, t_final=t, scheme=scheme, boundary=boundary), grid


@st.composite
def diffusions_on_grids(draw, positive_horizon=False):
    """A 1D or 2D grid over [-2, 2]^dim of 3 to 33 nodes per axis, a
    viscosity beta_inv in [0, 1] and a horizon in [0, 2], or in (0, 2] with
    ``positive_horizon`` (the backward HJB refuses T = 0)."""
    dim = draw(st.sampled_from([1, 2]))
    grid = GridFunction.geometry([-2.0] * dim, [2.0] * dim, [draw(st.integers(3, 33))] * dim)
    return grid, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 2.0, exclude_min=positive_horizon))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSolverSweep:
    """Valid inputs of the solvers either return finite values within the
    work budgets or are refused by name: never a hang, never a silent NaN or
    overflow.  Hypothesis draws subnormal t and beta_inv * t early, where
    1 / (2t) and the kernel refinement 3h / sigma overflow."""

    @settings(max_examples=80, deadline=None)
    @given(case=pde_solves())
    def test_solve_pde(self, case):
        objective, cfg, grid = case
        sampled = []
        counted = CustomObjective(objective.dim, None, objective.grad,
                                  value_batch_fn=lambda X: sampled.append(len(X)) or objective.value_batch(X))
        try:
            u = solve_pde(counted, cfg, grid)
        except (ValueError, pde_lab.NanAbort) as exc:
            assert refused(exc), exc
            return
        assert np.isfinite(u.values).all()
        assert sum(sampled) <= pde_lab._MAX_SAMPLES + grid.values.size

    @settings(max_examples=40, deadline=None)
    @given(case=diffusions_on_grids(), data=st.data())
    def test_evolve_fokker_planck(self, case, data):
        grid, beta_inv, t = case
        drifts = [grid.with_values(data.draw(arrays(np.float64, grid.values.shape, elements=st.floats(-5.0, 5.0))))
                  for _ in range(grid.dim)]
        rho0 = gaussian_density(grid, data.draw(arrays(np.float64, grid.dim, elements=st.floats(-1.0, 1.0))),
                                data.draw(st.floats(0.05, 1.0)))
        try:
            rho = evolve_fokker_planck(drifts, rho0, beta_inv, t)
        except (ValueError, pde_lab.NanAbort) as exc:
            assert refused(exc), exc
            return
        assert np.isfinite(rho.values).all() and rho.values.min() >= -1e-12
        assert rho.values.sum() == pytest.approx(rho0.values.sum(), rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(case=diffusions_on_grids(positive_horizon=True), curvature=st.floats(0.1, 3.0),
           double_well=st.booleans())
    def test_solve_hjb_backward(self, case, curvature, double_well):
        grid, beta_inv, T = case
        objective = DoubleWell(curvature) if double_well and grid.dim == 1 else make_quadratic(curvature, 0.0, grid.dim)
        try:
            field = pde_lab.solve_hjb_backward(objective, T, beta_inv, grid)
        except (ValueError, pde_lab.NanAbort) as exc:
            assert refused(exc), exc
            return
        assert np.isfinite(field.gradients).all()
        assert field.times[0] == pytest.approx(0.0, abs=1e-12) and field.times[-1] == T
        assert len(field.times) <= pde_lab.HJB_MAX_SLICES + 1


class TestBurgers:
    def test_quadratic_fixed_point(self):
        q = make_quadratic(1.0, 0.0, 1)
        p, ok = burgers_characteristic_check(q, 2.0, 1.0)
        assert ok and p == pytest.approx(1.0, abs=1e-10)

    def test_zero_time(self):
        dw = DoubleWell(1.0)
        p, ok = burgers_characteristic_check(dw, 0.7, 0.0)
        assert ok and p == dw.grad(np.array([0.7]))[0]

    def test_shock_time_double_well(self):
        dw = DoubleWell(1.0)
        assert shock_time(dw, (-2.0, 2.0)) == pytest.approx(0.25, rel=1e-3)

    def test_flag_false_past_shock(self):
        dw = DoubleWell(1.0)
        t_star = shock_time(dw, (-2.0, 2.0))
        _, ok = burgers_characteristic_check(dw, 0.0, t_star * 1.2)
        assert not ok
        _, ok_pre = burgers_characteristic_check(dw, 0.0, t_star * 0.5)
        assert ok_pre

    def test_matches_hopf_lax_derivative(self):
        dw = DoubleWell(1.0)
        grid = GridFunction.geometry([-2.0], [2.0], [801])
        t = 0.1
        u = solve_hj_hopf_lax(dw, t, grid)
        xs = grid.axes()[0]
        h = grid.spacing[0]
        for x in (-1.3, -0.6, 0.8, 1.5):
            i = int(round((x - xs[0]) / h))
            du = (u.values[i + 1] - u.values[i - 1]) / (2 * h)
            p, ok = burgers_characteristic_check(dw, xs[i], t)
            assert ok
            assert abs(p - du) < 10 * h


class TestConfigValidation:
    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            PdeSolveConfig(beta_inv=0.1, t_final=1.0, scheme="spectral")

    def test_bad_time(self):
        with pytest.raises(ValueError):
            PdeSolveConfig(beta_inv=0.1, t_final=0.0)

    def test_bad_boundary(self):
        with pytest.raises(ValueError):
            PdeSolveConfig(beta_inv=0.1, t_final=1.0, boundary="dirichlet")

    def test_negative_beta_inv(self):
        with pytest.raises(ValueError, match="beta_inv must be >= 0"):
            PdeSolveConfig(beta_inv=-0.1, t_final=1.0)

    @pytest.mark.parametrize("scheme", ["cole_hopf", "heat", "hopf_lax", "monotone_fd"])
    @pytest.mark.parametrize("key, value, rule", [
        ("beta_inv", -0.1, ">= 0 and finite"), ("beta_inv", math.inf, ">= 0 and finite"),
        ("beta_inv", math.nan, ">= 0 and finite"), ("t_final", 0.0, "positive and finite"),
        ("t_final", -1.0, "positive and finite"), ("t_final", math.inf, "positive and finite"),
        ("t_final", math.nan, "positive and finite"),
    ])
    def test_input_outside_its_range_refused_by_name(self, scheme, key, value, rule):
        # a non-finite t_final (or beta_inv for cole_hopf and heat) used to fail
        # in the solve's window sizing naming no key; hopf_lax solved at any beta_inv
        with pytest.raises(ValueError, match=f"^{key}={value:g}: {key} must be {rule}$"):
            PdeSolveConfig(**{"beta_inv": 0.1, "t_final": 1.0, key: value}, scheme=scheme)

    def test_cfl_safety_is_read_not_set(self):
        assert PdeSolveConfig(beta_inv=0.1, t_final=1.0).cfl_safety == pde_lab.CFL_SAFETY
        with pytest.raises(TypeError):
            PdeSolveConfig(beta_inv=0.1, t_final=1.0, cfl_safety=0.5)
