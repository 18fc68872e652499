"""Objective corpus: exact derivatives, noise models, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdeopt.objectives import (
    CustomObjective,
    Quadratic,
    get_entry,
    global_minimum,
    make_double_well,
    make_quadratic,
    make_rugged_1d,
    make_tiny_mlp,
)


def central_diff_grad(obj, x, h=1e-5):
    g = np.empty(obj.dim)
    for i in range(obj.dim):
        e = np.zeros(obj.dim)
        e[i] = h
        g[i] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
    return g


class TestQuadratic:
    def test_value_grad_hessian(self):
        q = make_quadratic(1.0, 0.0, 1)
        assert q.value(np.array([2.0])) == 2.0
        assert q.grad(np.array([2.0]))[0] == 2.0
        q3 = make_quadratic(2.0, 0.0, 3)
        np.testing.assert_allclose(q3.hessian(np.zeros(3)), 2.0 * np.eye(3))

    def test_rejects_nonpositive_curvature(self):
        with pytest.raises(ValueError):
            make_quadratic(0.0, 0.0, 1)
        with pytest.raises(ValueError):
            make_quadratic(-1.0, 0.0, 2)

    def test_general_form_minimizer(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3))
        Q = A @ A.T + 0.5 * np.eye(3)
        p = rng.standard_normal(3)
        obj = Quadratic(Q, p)
        m = obj.minimizer()
        assert np.linalg.norm(obj.grad(m)) < 1e-10

    def test_batch_matches_scalar(self):
        q = make_quadratic(1.5, 0.3, 2)
        X = np.random.default_rng(1).standard_normal((20, 2))
        np.testing.assert_allclose(q.value_batch(X), [q.value(x) for x in X])
        np.testing.assert_allclose(q.grad_batch(X), [q.grad(x) for x in X])


class TestDoubleWell:
    def test_known_values(self):
        dw = make_double_well(1.0)
        assert dw.value(np.array([1.0])) == 0.0
        assert dw.value(np.array([0.0])) == 1.0
        assert dw.grad(np.array([0.5]))[0] == pytest.approx(-1.5)

    def test_minima_and_saddle(self):
        a = 1.3
        dw = make_double_well(a)
        for s in (-1, 1):
            assert dw.value(np.array([s * a])) == pytest.approx(0.0, abs=1e-14)
            assert abs(dw.grad(np.array([s * a]))[0]) < 1e-12
        assert dw.value(np.array([0.0])) == pytest.approx(a**4)

    def test_precondition(self):
        with pytest.raises(ValueError):
            make_double_well(-0.5)


class TestRugged:
    def test_deterministic_from_seed(self):
        xs = np.linspace(-3, 3, 100)[:, None]
        a = make_rugged_1d(7, 5).value_batch(xs)
        b = make_rugged_1d(7, 5).value_batch(xs)
        np.testing.assert_array_equal(a, b)
        c = make_rugged_1d(8, 5).value_batch(xs)
        assert not np.allclose(a, c)

    def test_mode_count(self):
        # n_modes=5 needs at least 9 sign changes of the gradient
        obj = make_rugged_1d(7, 5)
        xs = np.linspace(-3, 3, 4001)
        g = obj.grad_batch(xs[:, None])[:, 0]
        sign_changes = int((np.diff(np.sign(g)) != 0).sum())
        assert sign_changes >= 9

    def test_gradient_matches_finite_differences(self):
        obj = make_rugged_1d(3, 6)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(-3, 3, size=1)
            fd = central_diff_grad(obj, x)
            g = obj.grad(x)
            assert abs(fd[0] - g[0]) <= 1e-5 * max(1.0, abs(g[0]))

    def test_requires_two_modes(self):
        with pytest.raises(ValueError):
            make_rugged_1d(0, 1)


class TestTinyMLP:
    def test_full_batch_equals_exact(self):
        mlp = make_tiny_mlp(0, 8, 200)
        x = mlp.initial_point()
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(mlp.minibatch_grad(x, rng, 200), mlp.grad(x))

    def test_loss_finite_positive(self):
        mlp = make_tiny_mlp(1, 8, 100)
        loss = mlp.value(mlp.initial_point())
        assert np.isfinite(loss) and loss > 0

    def test_minibatch_mean_converges(self):
        mlp = make_tiny_mlp(0, 8, 200)
        x = mlp.initial_point()
        rng = np.random.default_rng(2)
        mean = np.mean([mlp.minibatch_grad(x, rng, 32) for _ in range(10_000)], axis=0)
        full = mlp.grad(x)
        assert np.linalg.norm(mean - full) <= 0.03 * np.linalg.norm(full)

    def test_covariance_trace_decreases_with_batch(self):
        mlp = make_tiny_mlp(0, 8, 200)
        x = mlp.initial_point()
        traces = []
        for b in (10, 25, 50, 100, 200):
            rng = np.random.default_rng(11)
            draws = np.stack([mlp.minibatch_grad(x, rng, b) for _ in range(400)])
            traces.append(draws.var(axis=0).sum())
        assert all(a >= b - 1e-12 for a, b in zip(traces, traces[1:]))

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            make_tiny_mlp(0, 8, 50, batch_size=64)
        mlp = make_tiny_mlp(0, 8, 50, batch_size=16)
        with pytest.raises(ValueError):
            mlp.minibatch_grad(mlp.initial_point(), np.random.default_rng(0), 51)

    def test_gradient_matches_finite_differences(self):
        mlp = make_tiny_mlp(0, 4, 40)
        x = mlp.initial_point()
        fd = central_diff_grad(mlp, x)
        g = mlp.grad(x)
        np.testing.assert_allclose(fd, g, rtol=1e-4, atol=1e-7)

    def test_parameter_count(self):
        mlp = make_tiny_mlp(0, 8, 200)
        assert mlp.dim == 8 * 2 + 8 + 2 * 8 + 2


class TestStackedMinibatchGrad:
    """Rows of x, shape (R, dim), each with its own generator, get the
    gradients their single-row calls would, bit for bit."""

    MLP = make_tiny_mlp(0, 8, 200)

    @settings(max_examples=80, deadline=None)
    @given(R=st.integers(1, 8), batch=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.01, 10.0))
    def test_rows_match_single_calls(self, R, batch, seed, scale):
        mlp = self.MLP
        x = scale * np.random.default_rng(seed).standard_normal((R, mlp.dim))
        rngs = [np.random.default_rng([seed, r]) for r in range(R)]
        twins = [np.random.default_rng([seed, r]) for r in range(R)]
        g = mlp.minibatch_grad(x, rngs, batch)
        assert g.shape == (R, mlp.dim)
        for r in range(R):
            assert g[r].tobytes() == mlp.minibatch_grad(x[r].copy(), twins[r], batch).tobytes()
            assert rngs[r].bit_generator.state == twins[r].bit_generator.state

    def test_full_batch_draws_nothing(self):
        mlp = self.MLP
        x = np.tile(mlp.initial_point(), (3, 1))
        rngs = [np.random.default_rng(r) for r in range(3)]
        before = [r.bit_generator.state for r in rngs]
        g = mlp.minibatch_grad(x, rngs, mlp.n_samples)
        assert [r.bit_generator.state for r in rngs] == before
        for row in g:
            np.testing.assert_array_equal(row, mlp.grad(mlp.initial_point()))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["quadratic", "double_well", "rugged"]), param=st.integers(0, 40),
           R=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 5.0),
           noise=st.sampled_from([0.0, 0.3]))
    def test_stacked_grad_matches_row_loop(self, kind, param, R, seed, scale, noise):
        # objectives whose grad_batch rows equal grad take one grad_batch call
        obj = {"quadratic": lambda: make_quadratic(0.5 + param / 10, param / 20 - 1, 1),
               "double_well": lambda: make_double_well(0.5 + param / 40),
               "rugged": lambda: make_rugged_1d(param, 2 + param % 7)}[kind]()
        obj.noise_scale = noise
        assert obj.grad_batch_exact
        x = scale * np.random.default_rng(seed).standard_normal((R, 1))
        rngs = [np.random.default_rng([seed, r]) for r in range(R)]
        twins = [np.random.default_rng([seed, r]) for r in range(R)]
        g = obj.minibatch_grad(x, rngs)
        assert g.shape == (R, 1)
        for r in range(R):
            assert g[r].tobytes() == obj.stochastic_grad(x[r].copy(), twins[r]).tobytes()
            assert rngs[r].bit_generator.state == twins[r].bit_generator.state

    def test_base_objective_loops_rows(self):
        q = make_quadratic(2.0, 0.5, 3)
        q.noise_scale = 0.1
        x = np.random.default_rng(0).standard_normal((4, 3))
        assert not q.grad_batch_exact  # matmul and matvec may sum in different orders
        g = q.minibatch_grad(x, [np.random.default_rng(r) for r in range(4)], 16)
        for r in range(4):
            np.testing.assert_array_equal(g[r], q.stochastic_grad(x[r], np.random.default_rng(r)))


class TestNoiseModel:
    def test_additive_noise_unbiased(self):
        q = make_quadratic(1.0, 0.0, 2)
        q.noise_scale = 0.05
        x = np.array([0.7, -0.2])
        rng = np.random.default_rng(9)
        draws = np.stack([q.stochastic_grad(x, rng) for _ in range(20_000)])
        np.testing.assert_allclose(draws.mean(axis=0), q.grad(x), atol=0.01)
        np.testing.assert_allclose(draws.var(axis=0), 0.05, rtol=0.1)

    def test_zero_noise_is_exact(self):
        q = make_quadratic(1.0, 0.0, 2)
        x = np.array([0.3, 0.4])
        np.testing.assert_array_equal(q.stochastic_grad(x, np.random.default_rng(0)), q.grad(x))


class TestCorpus:
    @pytest.mark.parametrize("name", ["quadratic_c1_n1", "double_well_a1", "rugged_s7_m5"])
    def test_entries_resolve(self, name):
        entry = get_entry(name)
        assert entry.name == name
        assert entry.objective.dim >= 1

    def test_known_minima_are_critical(self):
        for name in ("double_well_a1", "rugged_s7_m5", "quadratic_c1_n2"):
            entry = get_entry(name)
            for x, _ in entry.known_minima:
                assert np.linalg.norm(entry.objective.grad(x)) <= 1e-8

    def test_mlp_entry(self):
        entry = get_entry("mlp_h8_n200")
        assert entry.objective.dim == 42

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_entry("nonsense_x1")

    def test_gradient_invariant_100_points(self):
        # every analytic corpus entry: grad vs central differences
        rng = np.random.default_rng(17)
        for name in ("quadratic_c1_n2", "double_well_a1", "rugged_s7_m5"):
            entry = get_entry(name)
            obj = entry.objective
            lo, hi = entry.domain_box
            for _ in range(100):
                x = rng.uniform(lo, hi)
                scale = max(1.0, float(np.abs(x).max()))
                fd = central_diff_grad(obj, x, h=1e-5 * scale)
                g = obj.grad(x)
                denom = max(1.0, float(np.linalg.norm(g)))
                assert np.linalg.norm(fd - g) / denom <= 1e-4

    def test_hessian_matches_grad_differences(self):
        for name in ("quadratic_c1_n2", "double_well_a1", "rugged_s3_m5"):
            obj = get_entry(name).objective
            x = np.full(obj.dim, 0.37)
            H = obj.hessian(x)
            np.testing.assert_allclose(H, H.T)
            h = 1e-6
            for i in range(obj.dim):
                e = np.zeros(obj.dim)
                e[i] = h
                col = (obj.grad(x + e) - obj.grad(x - e)) / (2 * h)
                np.testing.assert_allclose(H[:, i], col, rtol=1e-4, atol=1e-6)

    def test_global_minimum_helper(self):
        entry = get_entry("rugged_s3_m6")
        x_star = global_minimum(entry)
        vals = [v for _, v in entry.known_minima]
        assert entry.objective.value(x_star) == min(vals)


class TestCustomObjective:
    def test_wraps_callables(self):
        obj = CustomObjective(1, lambda x: float(np.sin(x[0])), lambda x: np.cos(x),
                              value_batch_fn=lambda X: np.sin(X[:, 0]))
        assert obj.value(np.array([0.3])) == pytest.approx(np.sin(0.3))
        np.testing.assert_allclose(obj.value_batch(np.array([[0.1], [0.2]])), np.sin([0.1, 0.2]))
        with pytest.raises(NotImplementedError):
            obj.hessian(np.array([0.0]))
