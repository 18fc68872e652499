"""Objective corpus: exact derivatives, minibatch gradients, determinism."""

import inspect
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdeopt import objectives
from pdeopt import optimizers as opt
from pdeopt.objectives import (
    DoubleWell,
    Objective,
    Quadratic,
    Rugged1D,
    TinyMLP,
    get_entry,
    global_minimum,
    make_quadratic,
)

from custom_objective import CustomObjective


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

    @pytest.mark.parametrize("Q, p, message", [
        (np.ones((2, 3)), np.zeros(2), "square"),
        (np.eye(2), np.zeros(3), "square"),
        ([[1.0, 0.5], [0.0, 1.0]], np.zeros(2), "symmetric"),
    ], ids=["not_square", "p_mismatch", "asymmetric"])
    def test_rejects_bad_Q(self, Q, p, message):
        with pytest.raises(ValueError, match=f"Q must be {message}"):
            Quadratic(Q, p)

    def test_general_form_minimizer(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3))
        Q = A @ A.T + 0.5 * np.eye(3)
        p = rng.standard_normal(3)
        obj = Quadratic(Q, p)
        m = np.linalg.solve(Q, -p)
        assert np.linalg.norm(obj.grad(m)) < 1e-10

    def test_batch_matches_scalar(self):
        q = make_quadratic(1.5, 0.3, 2)
        X = np.random.default_rng(1).standard_normal((20, 2))
        np.testing.assert_allclose(q.value_batch(X), [q.value(x) for x in X])
        np.testing.assert_allclose(q.grad_batch(X), [q.grad(x) for x in X])


class TestDoubleWell:
    def test_known_values(self):
        dw = DoubleWell(1.0)
        assert dw.value(np.array([1.0])) == 0.0
        assert dw.value(np.array([0.0])) == 1.0
        assert dw.grad(np.array([0.5]))[0] == pytest.approx(-1.5)

    def test_minima_and_saddle(self):
        a = 1.3
        dw = DoubleWell(a)
        for s in (-1, 1):
            assert dw.value(np.array([s * a])) == pytest.approx(0.0, abs=1e-14)
            assert abs(dw.grad(np.array([s * a]))[0]) < 1e-12
        assert dw.value(np.array([0.0])) == pytest.approx(a**4)

    def test_precondition(self):
        with pytest.raises(ValueError):
            DoubleWell(-0.5)


class TestRugged:
    def test_deterministic_from_seed(self):
        xs = np.linspace(-3, 3, 100)[:, None]
        a = Rugged1D(7, 5).value_batch(xs)
        b = Rugged1D(7, 5).value_batch(xs)
        np.testing.assert_array_equal(a, b)
        c = Rugged1D(8, 5).value_batch(xs)
        assert not np.allclose(a, c)

    def test_mode_count(self):
        # n_modes=5 needs at least 9 sign changes of the gradient
        obj = Rugged1D(7, 5)
        xs = np.linspace(-3, 3, 4001)
        g = obj.grad_batch(xs[:, None])[:, 0]
        sign_changes = int((np.diff(np.sign(g)) != 0).sum())
        assert sign_changes >= 9

    def test_gradient_matches_finite_differences(self):
        obj = Rugged1D(3, 6)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(-3, 3, size=1)
            fd = central_diff_grad(obj, x)
            g = obj.grad(x)
            assert abs(fd[0] - g[0]) <= 1e-5 * max(1.0, abs(g[0]))

    def test_requires_two_modes(self):
        with pytest.raises(ValueError):
            Rugged1D(0, 1)


class TestTinyMLP:
    def test_full_batch_equals_exact(self):
        # on every sample once, the minibatch is the full batch
        mlp = TinyMLP(0, 8, 200)
        x = mlp.initial_point()
        every = np.arange(mlp.n_samples)[None]
        np.testing.assert_array_equal(mlp.minibatch_grad(x[None], every)[0], mlp.grad(x))
        np.testing.assert_array_equal(mlp.grad_batch(x[None])[0], mlp.grad(x))

    def test_loss_finite_positive(self):
        mlp = TinyMLP(1, 8, 100)
        loss = mlp.value(mlp.initial_point())
        assert np.isfinite(loss) and loss > 0

    def test_minibatch_mean_converges(self):
        mlp = TinyMLP(0, 8, 200)
        x = mlp.initial_point()
        rng = np.random.default_rng(2)
        mean = np.mean([mlp.minibatch_grad(x[None], opt._indices([rng], mlp.n_samples, 32, 1)[:, 0])[0]
                        for _ in range(10_000)], axis=0)
        full = mlp.grad(x)
        assert np.linalg.norm(mean - full) <= 0.03 * np.linalg.norm(full)

    def test_covariance_trace_decreases_with_batch(self):
        mlp = TinyMLP(0, 8, 200)
        x = mlp.initial_point()
        traces = []
        for b in (10, 25, 50, 100, 200):
            rng = np.random.default_rng(11)
            draws = np.stack([mlp.minibatch_grad(x[None], opt._indices([rng], mlp.n_samples, b, 1)[:, 0])[0]
                              for _ in range(400)])
            traces.append(draws.var(axis=0).sum())
        assert all(a >= b - 1e-12 for a, b in zip(traces, traces[1:]))

    @pytest.mark.parametrize("hidden, n_samples, message", [(1, 50, "hidden must be >= 2"),
                                                            (8, 19, "n_samples must be >= 20")])
    def test_rejects_small_network_or_dataset(self, hidden, n_samples, message):
        with pytest.raises(ValueError, match=message):
            TinyMLP(0, hidden, n_samples)

    def test_batch_size_validation(self):
        def plan(obj, **keys):
            cfg = opt.default_config("sgd", **keys)
            return opt.init_state(obj, obj.initial_point(), cfg, seed=0, algo="sgd").plan

        def resolved(p):
            return p.batch, p.epoch, p.draw

        mlp = TinyMLP(0, 8, 50)
        assert resolved(plan(mlp)) == (opt.BATCH_SIZE, 50, True)
        assert resolved(plan(mlp, batch_size=50)) == (50, 50, False)
        with pytest.raises(ValueError, match="batch_size cannot exceed n_samples"):
            plan(mlp, batch_size=51)
        # the default batch on a dataset smaller than 32 is the whole dataset
        assert resolved(plan(TinyMLP(0, 8, 20))) == (20, 20, False)

    def test_objectives_take_no_streams(self):
        # objectives are pure: no public method of any objective takes a generator
        classes = [c for c in vars(objectives).values()
                   if inspect.isclass(c) and issubclass(c, Objective) and c.__module__ == objectives.__name__]
        assert Objective in classes and TinyMLP in classes
        for cls in classes:
            for name, fn in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                for param in list(inspect.signature(fn).parameters)[1:]:
                    assert "rng" not in param and "stream" not in param and "generator" not in param, \
                        f"{cls.__name__}.{name} takes {param!r}"

    def test_gradient_matches_finite_differences(self):
        mlp = TinyMLP(0, 4, 40)
        x = mlp.initial_point()
        fd = central_diff_grad(mlp, x)
        g = mlp.grad(x)
        np.testing.assert_allclose(fd, g, rtol=1e-4, atol=1e-7)

    def test_parameter_count(self):
        mlp = TinyMLP(0, 8, 200)
        assert mlp.dim == 8 * 2 + 8 + 2 * 8 + 2


class TestStackedMinibatchGrad:
    """Rows of x, shape (R, dim), each with its own generator, get the
    gradients their own one-row batches would, bit for bit."""

    MLP = TinyMLP(0, 8, 200)

    @settings(max_examples=80, deadline=None)
    @given(R=st.integers(1, 8), batch=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.01, 10.0))
    def test_rows_match_single_calls(self, R, batch, seed, scale):
        mlp = self.MLP
        x = scale * np.random.default_rng(seed).standard_normal((R, mlp.dim))
        rngs = [np.random.default_rng([seed, r]) for r in range(R)]
        twins = [np.random.default_rng([seed, r]) for r in range(R)]
        g = mlp.minibatch_grad(x, opt._indices(rngs, mlp.n_samples, batch, 1)[:, 0])
        assert g.shape == (R, mlp.dim)
        for r in range(R):
            idx = opt._indices([twins[r]], mlp.n_samples, batch, 1)[:, 0]
            assert g[r].tobytes() == mlp.minibatch_grad(x[r:r + 1].copy(), idx)[0].tobytes()
            assert rngs[r].bit_generator.state == twins[r].bit_generator.state

    def test_full_batch_draws_nothing(self):
        mlp = self.MLP
        x = np.tile(mlp.initial_point(), (3, 1))
        for row in mlp.grad_batch(x):
            np.testing.assert_array_equal(row, mlp.grad(mlp.initial_point()))
        # a batch of the whole dataset plans no draw, and hj's rows draw nothing else
        cfg = opt.default_config("hj", batch_size=mlp.n_samples)
        state = opt.init_state(mlp, mlp.initial_point(), cfg, seed=0, algo="hj", repeats=3)
        before = [r.bit_generator.state for r in state.rngs]
        for _ in range(7):
            opt.step(state)
        assert not state.plan.draw and state.plan.grad == mlp.grad_batch
        assert [r.bit_generator.state for r in state.rngs] == before

    def test_value_and_grad_batch_is_both_bit_for_bit(self):
        # TinyMLP's takes both from one forward pass, the base class calls the two
        for obj in (self.MLP, DoubleWell(0.8)):
            X = np.random.default_rng(3).standard_normal((4, obj.dim))
            values, grads = obj.value_and_grad_batch(X)
            assert values.tobytes() == obj.value_batch(X).tobytes()
            assert grads.tobytes() == obj.grad_batch(X).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["quadratic", "double_well", "rugged"]), param=st.integers(0, 40),
           R=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 5.0))
    def test_stacked_grad_matches_row_loop(self, kind, param, R, seed, scale):
        obj = {"quadratic": lambda: make_quadratic(0.5 + param / 10, param / 20 - 1, 1),
               "double_well": lambda: DoubleWell(0.5 + param / 40),
               "rugged": lambda: Rugged1D(param, 2 + param % 7)}[kind]()
        x = scale * np.random.default_rng(seed).standard_normal((R, 1))
        g = obj.grad_batch(x)
        assert g.shape == (R, 1)
        for r in range(R):
            assert g[r].tobytes() == obj.grad_batch(x[r:r + 1].copy())[0].tobytes()


def _stream_state(rng):
    """A generator's full state.  The buffered half ``uinteger`` is stale,
    and not compared, while ``has_uint32`` is 0."""
    s = rng.bit_generator.state
    return s["state"], s["has_uint32"], s["uinteger"] if s["has_uint32"] else None


class TestChunkedIndexDraws:
    """One ``integers(0, n, size=k*b)`` call draws the values of k calls of
    size b and leaves the stream where they do, so minibatch indices can be
    drawn k steps ahead when a stream draws nothing else in between.  At
    n = 2^31 + 1 about half the 32-bit draws are rejected and redrawn."""

    MLP = TinyMLP(0, 8, 200)

    @pytest.mark.parametrize("n, b", [(200, 32), (200, 31), (2**31 + 1, 8), (2**31 + 1, 7)])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40), lead=st.integers(0, 1))
    def test_one_call_is_k_calls(self, n, b, seed, k, lead):
        chunked, stepped = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (chunked, stepped):    # an odd lead leaves a buffered half to start from
            rng.integers(0, n, size=lead)
        values = chunked.integers(0, n, size=k * b)
        steps = [stepped.integers(0, n, size=b) for _ in range(k)]
        assert values.tobytes() == np.concatenate(steps).tobytes()
        assert _stream_state(chunked) == _stream_state(stepped)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 20), b=st.integers(1, 199), R=st.integers(1, 4))
    def test_minibatch_indices_ahead(self, seed, k, b, R):
        n = self.MLP.n_samples
        ahead = [np.random.default_rng([seed, r]) for r in range(R)]
        stepped = [np.random.default_rng([seed, r]) for r in range(R)]
        idx = opt._indices(ahead, n, b, k)
        assert idx.shape == (R, k, b)
        for j in range(k):
            assert idx[:, j].tobytes() == opt._indices(stepped, n, b, 1)[:, 0].tobytes()
        assert [_stream_state(g) for g in ahead] == [_stream_state(g) for g in stepped]

    def test_interleaved_normal_breaks_it(self):
        # a noisy row draws a normal between its index draws: drawn ahead,
        # its second step's indices would come from other bits
        chunked, stepped = np.random.default_rng(5), np.random.default_rng(5)
        values = chunked.integers(0, 200, size=2 * 32)
        first = stepped.integers(0, 200, size=32)
        stepped.normal(0.0, 1.0, 3)
        second = stepped.integers(0, 200, size=32)
        assert values[:32].tobytes() == first.tobytes()
        assert values[32:].tobytes() != second.tobytes()


class TestOneDefinition:
    """Each objective is defined once, on rows: a point's value and gradient
    are its row of the batch, bit for bit, and each row of a stacked
    minibatch gradient is its own one-row call."""

    KINDS = ["quadratic", "spd3", "double_well", "rugged", "mlp", "custom"]
    MLP = TinyMLP(0, 8, 200)

    @classmethod
    def build(cls, kind, param):
        if kind == "quadratic":
            return get_entry(f"quadratic_c{0.5 + param / 10:g}_n{1 + param % 3}").objective
        if kind == "spd3":
            A = np.random.default_rng(param).standard_normal((3, 3))
            return Quadratic(A @ A.T + 0.1 * np.eye(3), np.random.default_rng(param + 1).standard_normal(3))
        if kind == "double_well":
            return get_entry(f"double_well_a{0.5 + param / 40:g}").objective
        if kind == "rugged":
            return Rugged1D(param, 2 + param % 7)
        if kind == "mlp":
            return cls.MLP
        return CustomObjective(2, lambda x: float(np.sin(x[0]) * x[1] + 0.1 * x[1] ** 3),
                               lambda x: np.array([np.cos(x[0]) * x[1], np.sin(x[0]) + 0.3 * x[1] ** 2]))

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(KINDS), param=st.integers(0, 40), R=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 5.0))
    def test_point_is_its_row(self, kind, param, R, seed, scale):
        obj = self.build(kind, param)
        x = scale * np.random.default_rng(seed).standard_normal((R, obj.dim))
        values, grads = obj.value_batch(x), obj.grad_batch(x)
        for r in range(R):
            assert np.float64(obj.value(x[r].copy())).tobytes() == values[r].tobytes()
            assert obj.grad(x[r].copy()).tobytes() == grads[r].tobytes()
        if obj.n_samples is None:      # no dataset: the optimizers take grad_batch
            return
        rngs = [np.random.default_rng([seed, r]) for r in range(R)]
        twins = [np.random.default_rng([seed, r]) for r in range(R)]

        def draw(streams):      # the mlp's minibatch, drawn as the optimizer draws it
            return opt._indices(streams, obj.n_samples, opt.BATCH_SIZE, 1)[:, 0]

        g = obj.minibatch_grad(x, draw(rngs))
        assert g.shape == (R, obj.dim)
        for r in range(R):
            assert g[r].tobytes() == obj.minibatch_grad(x[r:r + 1].copy(), draw([twins[r]]))[0].tobytes()
            assert rngs[r].bit_generator.state == twins[r].bit_generator.state


class TestRowBlocks:
    """A large batch runs in blocks of rows that keep the bytes of one call
    and bound the memory by a few blocks, whatever the objective's width."""

    OBJECTIVES = {
        "quadratic": lambda: Quadratic(np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]]),
                                       np.array([0.1, -0.4, 0.7])),
        "double_well": lambda: DoubleWell(1.3),
        "rugged": lambda: Rugged1D(7, 5),
        "mlp": lambda: TinyMLP(0, 4, 40),
    }
    BLOCK = 5

    @staticmethod
    def whole(obj, method):
        """The method's formula, called once on every row."""
        if method == "value_and_grad_batch" and method not in vars(type(obj)):
            value, grad = (getattr(type(obj), m).__wrapped__ for m in ("value_batch", "grad_batch"))
            return lambda X: (value(obj, X), grad(obj, X))
        return partial(getattr(type(obj), method).__wrapped__, obj)

    @pytest.mark.parametrize("method", ["value_batch", "grad_batch", "value_and_grad_batch"])
    @pytest.mark.parametrize("kind", OBJECTIVES)
    def test_blocks_keep_the_bytes(self, kind, method, monkeypatch):
        obj = self.OBJECTIVES[kind]()
        monkeypatch.setattr(objectives, "_BLOCK_BYTES", 8 * obj._row_width * self.BLOCK)
        whole = self.whole(obj, method)
        b = self.BLOCK
        for rows in (b - 1, b, b + 1, 2 * b + 1):
            X = np.random.default_rng(rows).standard_normal((rows, obj.dim))
            got, ref = getattr(obj, method)(X), whole(X.copy())
            if method != "value_and_grad_batch":
                got, ref = (got,), (ref,)
            for g, r in zip(got, ref, strict=True):
                assert g.shape == r.shape and g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("kind", OBJECTIVES)
    def test_blocks_call_the_formula(self, kind, monkeypatch):
        # a tracer wraps the public method: a blocked call is still one call of it
        obj = self.OBJECTIVES[kind]()
        monkeypatch.setattr(objectives, "_BLOCK_BYTES", 8 * obj._row_width * self.BLOCK)
        calls = []

        def traced(method):
            public = getattr(type(obj), method)

            def wrapper(self_, X):
                calls.append(method)
                return public(self_, X)
            return wrapper

        for method in ("value_batch", "grad_batch"):
            monkeypatch.setattr(type(obj), method, traced(method))
        obj.value_batch(np.ones((3 * self.BLOCK, obj.dim)))
        obj.grad_batch(np.ones((3 * self.BLOCK, obj.dim)))
        assert calls == ["value_batch", "grad_batch"]

    @staticmethod
    def peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_blocks_bound_the_memory(self):
        # unblocked, 1M rugged rows peak at 45.8 MiB and 2,000 mlp_h8_n200
        # rows at 79 MiB; blocked, a call holds its output and the few
        # temporaries of one block: two (rows, 3) waves for Rugged1D (sin's
        # argument and result), and for TinyMLP z1 and a1 plus the narrower
        # inputs, logits and probabilities
        block = objectives._BLOCK_BYTES
        rugged = Rugged1D(7, 5)
        X = np.linspace(-3.0, 3.0, 1_000_000)[:, None]
        out, peak = self.peak_bytes(rugged.value_batch, X)
        assert peak < out.nbytes + 2 * block + (1 << 20)     # 1 MiB: numpy's iteration buffers
        mlp = get_entry("mlp_h8_n200").objective
        X = np.random.default_rng(0).standard_normal((2_000, mlp.dim))
        out, peak = self.peak_bytes(mlp.value_batch, X)
        assert peak < out.nbytes + 4 * block


class TestCorpus:
    @pytest.mark.parametrize("name", ["quadratic_c1_n1", "double_well_a1", "rugged_s7_m5"])
    def test_entries_resolve(self, name):
        entry = get_entry(name)
        assert entry.name == name
        assert entry.objective.dim >= 1

    def test_known_minima_are_critical(self):
        for name in ("double_well_a1", "rugged_s3_m6", "rugged_s7_m5", "quadratic_c1_n2"):
            entry = get_entry(name)
            for x, _ in entry.known_minima:
                assert np.linalg.norm(entry.objective.grad(x)) <= 1e-12

    def test_mlp_entry(self):
        entry = get_entry("mlp_h8_n200")
        assert entry.objective.dim == 42

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_entry("nonsense_x1")

    def test_zero_dimensional_quadratic_refused(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            get_entry("quadratic_c1_n0")

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

    def test_rugged_minima_found_on_first_read(self, monkeypatch):
        polished = []
        polish = objectives._polish_minimum
        monkeypatch.setattr(objectives, "_polish_minimum", lambda obj, x0: polished.append(x0) or polish(obj, x0))
        entry = get_entry("rugged_s3_m6")
        assert polished == []
        minima = entry.known_minima
        assert len(polished) == len(minima) >= 6
        assert entry.known_minima is minima and len(polished) == len(minima)   # found once
        assert [v for _, v in minima] == sorted(v for _, v in minima)

    def test_global_minimum_helper(self):
        entry = get_entry("rugged_s3_m6")
        x_star = global_minimum(entry)
        vals = [v for _, v in entry.known_minima]
        assert entry.objective.value(x_star) == min(vals)
        with pytest.raises(ValueError, match="mlp_h4_n20 has no catalogued minima"):
            global_minimum(get_entry("mlp_h4_n20"))


class TestPolishMinimum:
    @pytest.mark.parametrize("name", ["rugged_s3_m6", "rugged_s7_m5"])
    def test_agrees_with_bfgs_from_the_same_starts(self, monkeypatch, name):
        # oracle: scipy's BFGS, which polished the corpus minima before, run
        # from each start the scan hands the polish
        from scipy.optimize import minimize

        starts = []
        polish = objectives._polish_minimum
        monkeypatch.setattr(objectives, "_polish_minimum", lambda obj, x0: starts.append(x0) or polish(obj, x0))
        entry = get_entry(name)
        f = entry.objective
        minima = entry.known_minima
        bfgs = [minimize(f.value, x0, jac=f.grad, method="BFGS", options={"gtol": 1e-12, "maxiter": 500}).x
                for x0 in starts]
        assert len(bfgs) == len(minima) >= 5
        assert sorted(float(x[0]) for x, _ in minima) == pytest.approx(sorted(float(x[0]) for x in bfgs), abs=5e-9)
        for x, _ in minima:
            assert f.hessian(x)[0, 0] > 0

    def test_walks_to_a_minimum_beyond_the_first_steps(self):
        q = make_quadratic(2.0, -150.0, 1)     # least at 75, about 16 doublings away
        assert objectives._polish_minimum(q, np.array([0.0]))[0] == pytest.approx(75.0, abs=1e-12)

    def test_returns_a_critical_start(self):
        assert objectives._polish_minimum(DoubleWell(1.0), np.array([0.0])).tolist() == [0.0]

    def test_no_minimum_downhill_refused(self):
        line = CustomObjective(1, lambda x: float(x[0]), lambda x: np.ones(1))
        with pytest.raises(ValueError, match=r"x0=\[0.5\]: no minimum downhill"):
            objectives._polish_minimum(line, np.array([0.5]))

    def test_nan_slope_at_the_start_refused(self):
        hole = CustomObjective(1, lambda x: float(x[0] ** 2), lambda x: np.full(1, np.nan) if x[0] == 1.0 else 2 * x)
        with pytest.raises(ValueError, match=r"x0=\[1.\]: the slope there is nan"):
            objectives._polish_minimum(hole, np.array([1.0]))


class TestCustomObjective:
    def test_wraps_callables(self):
        obj = CustomObjective(1, None, lambda x: np.cos(x),
                              value_batch_fn=lambda X: np.sin(X[:, 0]))
        assert obj.value(np.array([0.3])) == pytest.approx(np.sin(0.3))
        np.testing.assert_allclose(obj.value_batch(np.array([[0.1], [0.2]])), np.sin([0.1, 0.2]))
        with pytest.raises(NotImplementedError):
            obj.hessian(np.array([0.0]))

    @pytest.mark.parametrize("given", ["both", "neither"])
    def test_takes_exactly_one_value_source(self, given):
        # with both, value_fn would never be called; with neither, there is no value
        value_fn, batch_fn = ((lambda x: float(np.sin(x[0])), lambda X: np.sin(X[:, 0]))
                              if given == "both" else (None, None))
        with pytest.raises(ValueError, match="exactly one of value_fn and value_batch_fn"):
            CustomObjective(1, value_fn, lambda x: np.cos(x), value_batch_fn=batch_fn)
