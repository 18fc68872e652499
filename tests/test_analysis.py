"""Theory checks: invariant measures, homogenization, control, spectra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdeopt import analysis
from pdeopt.grid import GridFunction, interior_max_second_difference
from pdeopt.objectives import (
    DoubleWell,
    Quadratic,
    make_quadratic,
)
from pdeopt.optimizers import OptimizerConfig, init_state, step
from pdeopt.pde_lab import PdeSolveConfig, prox_point, solve_heat, solve_viscous_hj_cole_hopf

from custom_objective import CustomObjective


def gauss_quadrature_moments(Q, p, x, gamma, beta):
    """Oracle: mean/cov of exp(-beta [f(y) + |y-x|^2/(2 gamma)]) by direct
    numerical integration (1D only)."""
    ys = np.linspace(-10, 10, 200_001)
    f = p * ys + 0.5 * Q * ys**2
    w = np.exp(-beta * (f + (ys - x) ** 2 / (2 * gamma)))
    w /= np.trapezoid(w, ys)
    mean = np.trapezoid(w * ys, ys)
    var = np.trapezoid(w * (ys - mean) ** 2, ys)
    return mean, var


class TestQuadraticClosedForm:
    def test_symmetry_gives_zero_mean(self):
        m = analysis.quadratic_invariant_closed_form(np.eye(2), np.zeros(2), np.zeros(2), 0.5, 2.0)
        np.testing.assert_allclose(m.mean, 0.0, atol=1e-15)

    def test_reference_case(self):
        m = analysis.quadratic_invariant_closed_form(np.eye(3), np.zeros(3),
                                                     2.0 * np.eye(3)[0], 1.0, 1.0)
        np.testing.assert_allclose(m.mean, [1.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(m.covariance, 0.5 * np.eye(3), atol=1e-14)

    def test_matches_numerical_integration(self):
        # independent quadrature oracle in 1D, nontrivial p and x
        Q, p, x, gamma, beta = 1.7, 0.3, -0.8, 0.6, 2.0
        mean_o, var_o = gauss_quadrature_moments(Q, p, x, gamma, beta)
        m = analysis.quadratic_invariant_closed_form(
            np.array([[Q]]), np.array([p]), np.array([x]), gamma, beta)
        assert m.mean[0] == pytest.approx(mean_o, abs=1e-8)
        assert m.covariance[0, 0] == pytest.approx(var_o, abs=1e-8)

    def test_singular_precision_rejected(self):
        with pytest.raises(ValueError):
            analysis.quadratic_invariant_closed_form(-10.0 * np.eye(1), [0.0], [0.0], 1.0, 1.0)


class TestSampleInvariantMeasure:
    def test_quadratic_reference(self):
        q = make_quadratic(1.0, 0.0, 1)
        est = analysis.sample_invariant_measure(q, np.array([2.0]), 1.0, 1.0,
                                                n_steps=200_000, burn_in=2000, seed=42)
        assert abs(est.mean[0] - 1.0) <= 3 * est.mean_stderr[0]
        assert abs(est.covariance[0, 0] - 0.5) <= 3 * est.variance_stderr[0]

    def test_free_particle_ornstein_uhlenbeck(self):
        zero = CustomObjective(1, None, lambda x: np.zeros(1),
                               value_batch_fn=lambda X: np.zeros(len(X)))
        zero.grad_batch = lambda X: np.zeros_like(np.atleast_2d(X))
        est = analysis.sample_invariant_measure(zero, np.array([0.5]), 2.0, 0.25,
                                                n_steps=200_000, burn_in=2000, seed=1)
        assert est.covariance[0, 0] == pytest.approx(0.25 * 2.0, rel=0.05)
        assert est.mean[0] == pytest.approx(0.5, abs=4 * est.mean_stderr[0])

    def test_low_temperature_concentrates_at_prox(self):
        dw = DoubleWell(1.0)
        x, gamma = np.array([1.2]), 0.2
        est = analysis.sample_invariant_measure(dw, x, gamma, 1e-3,
                                                n_steps=100_000, burn_in=5000, seed=3,
                                                step_size=2e-3)
        y_star = prox_point(dw, x, gamma).y
        assert est.mean[0] == pytest.approx(y_star[0], abs=0.01)

    def test_matches_closed_form_random_spd(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 3))
        Q = A @ A.T + 0.5 * np.eye(3)
        p = rng.standard_normal(3)
        x = rng.standard_normal(3)
        obj = Quadratic(Q, p)
        cf = analysis.quadratic_invariant_closed_form(Q, p, x, 0.8, 2.0)
        est = analysis.sample_invariant_measure(obj, x, 0.8, 0.5,
                                                n_steps=400_000, burn_in=3000, seed=7)
        assert np.all(np.abs(est.mean - cf.mean) <= 3 * est.mean_stderr)
        assert np.all(np.abs(np.diag(est.covariance) - np.diag(cf.covariance))
                      <= 3 * est.variance_stderr)

    def test_divergence_detected(self):
        # concave objective overwhelms the coupling: gamma too large
        bad = CustomObjective(1, None, lambda x: -10.0 * x,
                              value_batch_fn=lambda X: -5.0 * X[:, 0] ** 2)
        bad.grad_batch = lambda X: -10.0 * np.atleast_2d(X)
        with pytest.raises(RuntimeError):
            analysis.sample_invariant_measure(bad, np.array([0.1]), 10.0, 0.01,
                                              n_steps=200_000, burn_in=100, seed=0)

    def test_late_divergence_detected(self):
        # 64 steps per chain: only step 0 meets the check every 256th step,
        # and the rows pass 1e6 after it, so only the kept samples show it
        with pytest.raises(RuntimeError, match="diverged"):
            analysis.sample_invariant_measure(Quadratic([[-3.0]], [0.0]), [0.1], gamma=1.0, beta_inv=0.01,
                                              n_steps=2048, burn_in=0, seed=0, n_chains=32, step_size=0.5)

    def test_burn_in_validation(self):
        # a burn-in of n_steps or more is fine: n_steps counts samples over all
        # chains, the burn-in steps per chain; no sample at all cannot run
        q = make_quadratic(1.0, 0.0, 1)
        with pytest.raises(ValueError, match="n_steps=0"):
            analysis.sample_invariant_measure(q, np.array([0.0]), 1.0, 1.0,
                                              n_steps=0, burn_in=100, seed=0)

    def test_negative_burn_in_refused_by_name(self):
        # a negative burn-in would leave rows of the sample array unwritten
        q = make_quadratic(1.0, 0.0, 1)
        with pytest.raises(ValueError, match="burn_in=-100"):
            analysis.sample_invariant_measure(q, np.array([0.0]), 1.0, 1.0,
                                              n_steps=3200, burn_in=-100, seed=0)


class TestAutocorrelation:
    def test_iid_series_time_is_one(self):
        rng = np.random.default_rng(0)
        tau = analysis.integrated_autocorrelation_time(rng.standard_normal(20_000))
        assert tau == pytest.approx(1.0, abs=0.2)

    def test_ar1_series(self):
        rng = np.random.default_rng(1)
        phi = 0.95
        x = np.empty(200_000)
        x[0] = 0.0
        eps = rng.standard_normal(len(x))
        for i in range(1, len(x)):
            x[i] = phi * x[i - 1] + eps[i]
        tau = analysis.integrated_autocorrelation_time(x)
        expected = (1 + phi) / (1 - phi)  # = 39
        assert tau == pytest.approx(expected, rel=0.2)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["walk", "double_walk", "ar1", "constant"]), n=st.integers(1, 1000),
           phi=st.floats(0.0, 0.999), seed=st.integers(0, 2**16))
    def test_never_exceeds_the_window_bound(self, kind, n, phi, seed):
        # a demeaned series' autocorrelations sum to zero, so tau(n - 1) = 0
        # and the window rule M >= ACT_WINDOW_C * tau(M) holds by M = n - 1:
        # tau <= max(1, (n - 1) / ACT_WINDOW_C), whatever the correlation
        eps = np.random.default_rng(seed).standard_normal(n)
        if kind == "walk":
            x = np.cumsum(eps)
        elif kind == "double_walk":
            x = np.cumsum(np.cumsum(eps))
        elif kind == "ar1":
            x = eps.copy()
            for i in range(1, n):
                x[i] += phi * x[i - 1]
        else:
            x = np.full(n, 3.7)
        tau = analysis.integrated_autocorrelation_time(x)
        # the bound times ACT_WINDOW_C, the product the estimator compares
        assert analysis.ACT_WINDOW_C * tau <= max(analysis.ACT_WINDOW_C, n - 1)


class TestHomogenization:
    def test_double_well_drift_matches_smoothed_gradient(self):
        dw = DoubleWell(1.0)
        probes = [-1.6, -0.75, 0.55, 1.35]
        table = analysis.verify_homogenization(dw, probes, gamma=0.3, beta_inv=1e-8,
                                               epsilons=[1e-1, 1e-2], n_seeds=8, seed=0)
        assert table.rows[-1].max_rel_deviation <= 0.05
        assert table.is_monotone()

    def test_quadratic_closed_form_reference(self):
        q = make_quadratic(1.0, 0.0, 1)
        table = analysis.verify_homogenization(q, [2.0], gamma=1.0, beta_inv=1e-10,
                                               epsilons=[1e-2, 1e-3], n_seeds=4, seed=0)
        # the smoothed-gradient at x=2, gamma=1 is 2/(1+1) = 1
        assert table.reference_grad[0] == pytest.approx(1.0, abs=1e-6)
        assert table.rows[-1].max_rel_deviation <= 0.02

    def test_seed_rows_match_one_state_per_seed(self):
        dw = DoubleWell(1.0)
        probes, eps, gamma, beta_inv = [0.55, 1.35], [0.2, 0.05], 0.3, 0.05
        table = analysis.verify_homogenization(dw, probes, gamma=gamma, beta_inv=beta_inv,
                                               epsilons=eps, n_seeds=3, seed=2)
        for ei, e in enumerate(sorted(eps, reverse=True)):
            L = int(round(1 / e))
            cfg = OptimizerConfig(eta=0.1, eta_y=0.1, L=L, gamma0=gamma, gamma1=0.0,
                                  beta_inv_ex=beta_inv, alpha=0.75, delta=0.0)
            for pi, p in enumerate(probes):
                for si in range(3):
                    state = init_state(dw, np.array([p]), cfg, seed=2000 + si, algo="entropy_sgd")
                    for _ in range(L):
                        step(state)
                    assert table.drift_samples[ei, pi, si] == (state.x[0, 0] - p) / cfg.eta

    def test_zero_objective_deviation_within_noise(self):
        zero = CustomObjective(1, None, lambda x: np.zeros(1),
                               value_batch_fn=lambda X: np.zeros(len(X)))
        n_seeds = 8
        table = analysis.verify_homogenization(zero, [0.3], gamma=0.5, beta_inv=1e-6,
                                               epsilons=[1e-1, 1e-2], n_seeds=n_seeds, seed=0)
        assert np.allclose(table.reference_grad, 0.0)
        # the signed seed-averaged drift must vanish within its sampling error
        for ei in range(2):
            samples = table.drift_samples[ei, 0]
            se = samples.std(ddof=1) / np.sqrt(n_seeds)
            assert abs(samples.mean()) <= max(3 * se, 1e-9)

    def test_two_dimensional_objective_refused(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            analysis.verify_homogenization(make_quadratic(1.0, 0.0, 2), [0.5], gamma=0.3, beta_inv=1e-8,
                                           epsilons=[0.1])

    def test_nan_epsilon_refused(self):
        # sorted() does not order a NaN, so every epsilon is checked
        dw = DoubleWell(1.0)
        for eps in ([0.1, np.nan], [np.nan, 0.1]):
            with pytest.raises(ValueError, match="epsilons holds nan"):
                analysis.verify_homogenization(dw, [0.55], gamma=0.3, beta_inv=1e-8, epsilons=eps)


class TestControlImprovement:
    def test_nan_horizon_refused(self):
        grid = GridFunction.geometry([-2.5], [2.5], [257])
        with pytest.raises(ValueError, match="T=nan"):
            analysis.control_improvement_experiment(DoubleWell(1.0), T=float("nan"), beta_inv=0.2,
                                                    n_paths=500, seed=0, x0=np.array([0.0]), grid=grid)

    def test_zero_horizon_trivial(self):
        dw = DoubleWell(1.0)
        grid = GridFunction.geometry([-2.5], [2.5], [257])
        comp = analysis.control_improvement_experiment(
            dw, T=0.0, beta_inv=0.2, n_paths=500, seed=0,
            x0=np.array([0.4]), grid=grid)
        assert comp.terminal_ctrl == comp.terminal_plain == pytest.approx(dw.value(np.array([0.4])))
        assert comp.control_energy == 0.0

    def test_quadratic_strict_improvement(self):
        q = make_quadratic(1.0, 0.0, 1)
        grid = GridFunction.geometry([-3.0], [3.0], [513])
        comp = analysis.control_improvement_experiment(
            q, T=1.0, beta_inv=0.3, n_paths=4000, seed=1,
            x0=np.array([1.0]), grid=grid)
        assert comp.improvement_holds
        assert comp.strict_gap
        assert comp.gap > 0

    def test_double_well_improvement(self):
        dw = DoubleWell(1.0)
        grid = GridFunction.geometry([-2.5], [2.5], [513])
        comp = analysis.control_improvement_experiment(
            dw, T=1.0, beta_inv=0.2, n_paths=3000, seed=2,
            x0=np.array([0.0]), grid=grid)
        assert comp.improvement_holds
        assert comp.gap > 0
        assert comp.exit_fraction <= 0.01

    @staticmethod
    def _run_in_box(half_width):
        dw = DoubleWell(1.0)
        grid = GridFunction.geometry([-half_width], [half_width], [257])
        return analysis.control_improvement_experiment(
            dw, T=1.0, beta_inv=0.2, n_paths=400, seed=0,
            x0=np.array([0.0]), grid=grid)

    def test_paths_reflect_at_the_walls(self):
        # on [-1.3, 1.3] a few paths reach a wall and are reflected back in
        assert 0.0 < self._run_in_box(1.3).exit_fraction <= 0.01

    def test_too_many_exits_refused(self):
        # on [-1.1, 1.1] about half of the paths reach a wall
        with pytest.raises(RuntimeError, match="left the box"):
            self._run_in_box(1.1)


class TestSemiconcavity:
    """Curvature of smoothed losses against the decay bound 1/(C^-1 + t),
    C the initial curvature, measured as the largest interior second
    difference."""

    def test_quadratic_meets_bound_with_equality(self):
        q = make_quadratic(1.0, 0.0, 1)
        grid = GridFunction.geometry([-2.0], [2.0], [513])
        h = grid.spacing[0]
        C = interior_max_second_difference(grid.with_values(q.value_batch(grid.points())))
        assert C == pytest.approx(1.0, abs=1e-6)
        for t in (0.25, 0.5, 1.0):
            u = solve_viscous_hj_cole_hopf(q, PdeSolveConfig(beta_inv=0.1, t_final=t), grid)
            measured, bound = interior_max_second_difference(u), 1.0 / (1.0 / C + t)
            # exact solution attains 1/(1 + t), so it meets the bound within 10 h
            assert measured == pytest.approx(bound, abs=10 * h)

    def test_heat_flow_decays_slower(self):
        # eigenfunction decay exp(-beta_inv t / 2) stays above the 1/(1/C0+t)
        # curve for small t, so the heat flow breaks the curvature bound
        sin_obj = CustomObjective(1, None, lambda x: np.cos(x),
                                  value_batch_fn=lambda X: np.sin(X[:, 0]))
        grid = GridFunction.geometry([0.0], [2 * np.pi], [513])
        beta_inv = 0.1
        for t in (0.5, 1.0):
            cfg = PdeSolveConfig(beta_inv=beta_inv, t_final=t, scheme="heat", boundary="periodic")
            measured = interior_max_second_difference(solve_heat(sin_obj, cfg, grid))
            assert measured == pytest.approx(math.exp(-beta_inv * t / 2), abs=1e-3)
            # slower decay than the 1/(C^-1+t) rate, by more than one spacing
            assert measured > 1.0 / (1.0 + t) + grid.spacing[0]


class TestHarmonicMean:
    def test_constant_vector(self):
        assert analysis.harmonic_mean([1.0, 1.0, 1.0]) == 1.0

    def test_two_values(self):
        assert analysis.harmonic_mean([1.0, 3.0]) == pytest.approx(1.5)

    def test_sandwich_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.uniform(0.01, 10.0, size=rng.integers(2, 20))
            hm = analysis.harmonic_mean(v)
            assert v.min() - 1e-12 <= hm <= len(v) * v.min() + 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            analysis.harmonic_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            analysis.harmonic_mean([1.0, -2.0])


class TestSpectrumSummary:
    def test_2x2_closed_form(self):
        obj = Quadratic(np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros(2))
        s = analysis.spectrum_summary(obj, np.zeros(2))
        np.testing.assert_allclose(s.eigenvalues, [1.0, 3.0], atol=1e-12)
        assert s.hm_lambda == pytest.approx(1.5)
        assert s.hm_diag == pytest.approx(2.0)
        assert s.satisfies_eig_diag

    def test_diagonal_hessian_equality(self):
        obj = Quadratic(np.diag([0.5, 2.0, 4.0]), np.zeros(3))
        s = analysis.spectrum_summary(obj, np.zeros(3))
        assert s.hm_lambda == pytest.approx(s.hm_diag)

    def test_random_spd_100_draws(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            A = rng.standard_normal((8, 8))
            obj = Quadratic(A @ A.T + 0.1 * np.eye(8), np.zeros(8))
            s = analysis.spectrum_summary(obj, np.zeros(8))
            assert s.satisfies_eig_diag

    def test_indefinite_warns_and_flags(self):
        obj = Quadratic(np.diag([1.0, -0.5]), np.zeros(2))
        with pytest.warns(UserWarning):
            s = analysis.spectrum_summary(obj, np.zeros(2))
        assert s.indefinite

    def test_rejects_noncritical_point(self):
        obj = make_quadratic(1.0, 0.0, 2)
        with pytest.raises(ValueError):
            analysis.spectrum_summary(obj, np.array([1.0, 0.0]))
