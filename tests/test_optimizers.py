"""Optimizer update rules: fixed points, drifts, equivalences, replay."""

import hashlib
import re
from dataclasses import fields

import numpy as np
import pytest

from pdeopt import optimizers as opt
from pdeopt.grid import GridFunction, gradient
from pdeopt.objectives import DoubleWell, Quadratic, TinyMLP, get_entry, make_quadratic
from pdeopt.pde_lab import PdeSolveConfig, solve_heat
from pdeopt.rng import substream

from custom_objective import CustomObjective
from test_objectives import _stream_state


def zero_objective(dim=1):
    return CustomObjective(dim, None, lambda x: np.zeros(dim),
                           value_batch_fn=lambda X: np.zeros(len(np.atleast_2d(X))))


def linear_objective(slope=3.0):
    return CustomObjective(1, None, lambda x: np.array([slope]),
                           value_batch_fn=lambda X: slope * X[:, 0])


def heat_outer_step(st, cfg, n_calls=None):
    # heat spends one gradient per call; L calls make one outer step
    for _ in range(cfg.L if n_calls is None else n_calls):
        opt.step(st)


class TestSgdStep:
    def test_zero_gradient_fixed_point(self):
        obj = zero_objective()
        cfg = opt.default_config("sgd")
        st = opt.init_state(obj, np.array([1.3]), cfg, seed=0, algo="sgd")
        opt.step(st)
        assert st.x[0] == 1.3

    def test_quadratic_contraction(self):
        q = make_quadratic(1.0, 0.0, 1)
        cfg = opt.default_config("sgd", eta=0.1)
        st = opt.init_state(q, np.array([1.0]), cfg, seed=0, algo="sgd")
        opt.step(st)
        assert st.x[0] == pytest.approx(0.9, abs=1e-15)

    def test_extrinsic_noise_variance(self):
        dw = DoubleWell(1.0)
        cfg = opt.default_config("sgd", eta=0.1, beta_inv_ex=0.01)
        xs = np.empty(10_000)
        for s in range(len(xs)):
            st = opt.init_state(dw, np.array([0.5]), cfg, seed=s, algo="sgd")
            opt.step(st)
            xs[s] = st.x[0, 0]
        assert xs.var() == pytest.approx(0.1 * 0.01, rel=0.05)

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError, match="step sizes"):
            opt.OptimizerConfig(eta=0.0)


class TestEntropyStep:
    def test_zero_gradient_fixed_point(self):
        obj = zero_objective()
        cfg = opt.default_config("entropy_sgd", beta_inv_ex=0.0, L=5, gamma0=1.0,
                                 gamma1=0.0, delta=0.0)
        st = opt.init_state(obj, np.array([2.0]), cfg, seed=0, algo="entropy_sgd")
        for _ in range(3 * cfg.L):
            opt.step(st)
        assert st.x[0] == pytest.approx(2.0, abs=1e-14)
        assert st.y_avg[0] == pytest.approx(2.0, abs=1e-14)

    def test_outer_drift_matches_smoothed_gradient(self):
        # drift estimated over many inner steps approaches -x/(1+gamma) / gamma * ... = -x/2
        q = make_quadratic(1.0, 0.0, 1)
        cfg = opt.default_config("entropy_sgd", beta_inv_ex=0.0, L=400, gamma0=1.0,
                                 gamma1=0.0, delta=0.0, eta=0.1, eta_y=0.05)
        st = opt.init_state(q, np.array([1.0]), cfg, seed=0, algo="entropy_sgd")
        for _ in range(cfg.L):
            opt.step(st)
        drift = (st.x[0] - 1.0) / cfg.eta
        assert drift == pytest.approx(-0.5, rel=0.05)

    def test_averaging_resets_on_outer_update(self):
        q = make_quadratic(1.0, 0.0, 1)
        cfg = opt.default_config("entropy_sgd", L=4, gamma0=0.5, gamma1=0.0, delta=0.0)
        st = opt.init_state(q, np.array([1.0]), cfg, seed=0, algo="entropy_sgd")
        for _ in range(cfg.L):
            opt.step(st)
        assert st.k % cfg.L == 0
        np.testing.assert_array_equal(st.rows, st.x)
        np.testing.assert_array_equal(st.y_avg, st.x)

    def test_gamma_must_be_positive(self):
        q = make_quadratic(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            opt.default_config("entropy_sgd", gamma0=0.0)


class TestHjStep:
    @pytest.mark.parametrize("variant", ["hj", "hj2"])
    def test_stationary_at_zero_gradient(self, variant):
        obj = zero_objective()
        cfg = opt.default_config(variant, gamma0=0.5, gamma1=0.0, delta=0.0)
        st = opt.init_state(obj, np.array([1.5]), cfg, seed=0, algo=variant)
        for _ in range(2 * cfg.L):
            opt.step(st)
        assert st.x[0] == pytest.approx(1.5, abs=1e-14)

    @pytest.mark.parametrize("variant", ["hj", "hj2"])
    def test_drift_toward_minimum(self, variant):
        q = make_quadratic(1.0, 0.0, 1)
        cfg = opt.default_config(variant, gamma0=0.5, gamma1=0.0, delta=0.0, eta=0.05)
        st = opt.init_state(q, np.array([1.0]), cfg, seed=0, algo=variant)
        for _ in range(cfg.L):
            opt.step(st)
        assert st.x[0] < 1.0  # moves toward 0, same sign as the proximal drift

    def test_default_L_is_five(self):
        assert opt.default_config("hj").L == 5
        assert opt.default_config("hj").beta_inv_ex == 0.0

    def test_entropy_defaults(self):
        cfg = opt.default_config("entropy_sgd")
        assert cfg.L == 20
        assert cfg.alpha == 0.75
        assert cfg.eta_y == 0.1
        assert cfg.beta_inv_ex == 1e-8

    def test_hj_ignores_extrinsic_noise(self):
        q = make_quadratic(1.0, 0.0, 1)
        cfg = opt.default_config("hj", beta_inv_ex=0.5, gamma0=0.5, gamma1=0.0, delta=0.0)
        st1 = opt.init_state(q, np.array([1.0]), cfg, seed=0, algo="hj")
        st2 = opt.init_state(q, np.array([1.0]), cfg, seed=1, algo="hj")
        for _ in range(cfg.L):
            opt.step(st1)
            opt.step(st2)
        assert st1.x[0] == st2.x[0]  # no noise enters despite beta_inv_ex > 0

    def test_unknown_variant(self):
        q = make_quadratic(1.0, 0.0, 1)
        with pytest.raises(ValueError, match="hj3"):
            opt.init_state(q, np.ones(1), opt.default_config("hj"), 0, algo="hj3")


class TestHeatStep:
    def test_gamma_to_zero_reduces_to_sgd(self):
        q = make_quadratic(1.0, 0.0, 1)
        cfg = opt.default_config("heat", L=20, gamma0=1e-12, gamma1=0.0, delta=0.0, eta=0.1)
        st = opt.init_state(q, np.array([1.0]), cfg, seed=0, algo="heat")
        heat_outer_step(st, cfg)
        assert abs(st.x[0] - 0.9) <= 1e-6

    def test_linear_gradient_exact(self):
        obj = linear_objective(3.0)
        cfg = opt.default_config("heat", L=20, gamma0=1.0, gamma1=0.0, delta=0.0, eta=0.1)
        st = opt.init_state(obj, np.array([0.0]), cfg, seed=0, algo="heat")
        heat_outer_step(st, cfg)
        assert st.x[0] == pytest.approx(-0.3, abs=1e-12)

    def test_unbiased_for_quadratics(self):
        q = make_quadratic(1.0, 0.0, 1)
        cfg = opt.default_config("heat", L=20, gamma0=1.0, gamma1=0.0, delta=0.0, eta=0.1)
        updates = np.empty(10_000)
        for s in range(len(updates)):
            st = opt.init_state(q, np.array([1.0]), cfg, seed=s, algo="heat")
            heat_outer_step(st, cfg)
            updates[s] = st.x[0, 0] - 1.0
        assert updates.mean() == pytest.approx(-0.1 * 1.0, rel=0.03)

    def test_outer_step_spends_L_gradients(self):
        q = make_quadratic(1.0, 0.0, 1)
        cfg = opt.default_config("heat", L=7, gamma0=0.5, gamma1=0.0, delta=0.0)
        st = opt.init_state(q, np.ones(1), cfg, seed=0, algo="heat")
        opt.step(st)
        # one gradient of one epoch (no dataset), and no outer update yet
        assert opt._epochs(st) == 1 and st.x[0, 0] == 1.0
        heat_outer_step(st, cfg, cfg.L - 1)
        assert opt._epochs(st) == 7 and st.x[0, 0] != 1.0

    def test_drift_is_the_heat_solution_gradient(self):
        # heat's outer direction averages f' at z + sqrt(gamma) N: the gradient
        # of G_gamma * f, the lab's heat solution at beta_inv * t = gamma, and
        # not f' itself on the nonconvex double well
        entry = get_entry("double_well_a1")
        cfg = opt.default_config("heat", L=20, gamma0=0.1, gamma1=0.0, eta=0.1)
        grid = GridFunction.geometry(*entry.domain_box, 2049)
        smoothed = gradient(solve_heat(entry.objective, PdeSolveConfig(beta_inv=1.0, t_final=cfg.gamma0), grid))
        for p in (-1.35, -0.75, -0.35, 0.35, 0.75, 1.35):
            records = opt.run("heat", entry.objective, cfg, 0, 1, x0=[p], repeats=256)
            drift = (p - np.array([rec.terminal_x[0] for rec in records])) / cfg.eta
            se = drift.std(ddof=1) / np.sqrt(len(drift))
            assert abs(drift.mean() - smoothed.interp(p)) <= 3.0 * se
            assert abs(drift.mean() - entry.objective.grad([p])[0]) >= 10.0 * se


class TestElasticStep:
    def test_all_stationary_without_noise(self):
        obj = zero_objective()
        cfg = opt.default_config("elastic", n_workers=3, beta_inv_ex=0.0, L=4,
                                 gamma0=1.0, gamma1=0.0, delta=0.0)
        st = opt.init_state(obj, np.array([0.7]), cfg, seed=0, algo="elastic")
        for _ in range(2 * cfg.L):
            opt.step(st)
        assert st.x[0] == pytest.approx(0.7, abs=1e-14)
        for w in st.rows:
            assert w[0] == pytest.approx(0.7, abs=1e-14)

    def test_identical_workers_reduce_to_entropy_sgd(self):
        dw = DoubleWell(1.0)
        kw = dict(L=4, gamma0=0.7, gamma1=0.0, delta=0.0, beta_inv_ex=0.01,
                  eta=0.1, eta_y=0.1, alpha=0.75)
        cfg_el = opt.default_config("elastic", n_workers=3, **kw)
        st_el = opt.init_state(dw, np.array([0.8]), cfg_el, seed=5, algo="elastic")
        st_el.rngs = [substream(123, "twin") for _ in range(3)]
        cfg_en = opt.default_config("entropy_sgd", **kw)
        st_en = opt.init_state(dw, np.array([0.8]), cfg_en, seed=5, algo="entropy_sgd")
        st_en.rngs = [substream(123, "twin")]
        for _ in range(3 * cfg_el.L):
            opt.step(st_el)
            opt.step(st_en)
        np.testing.assert_array_equal(st_el.x, st_en.x)

    def test_center_drift_matches_entropy_drift(self):
        # one outer update on the quadratic: paired Monte Carlo comparison
        q = make_quadratic(1.0, 0.0, 1)
        kw = dict(L=30, gamma0=1.0, gamma1=0.0, delta=0.0, beta_inv_ex=0.02,
                  eta=0.1, eta_y=0.05, alpha=0.75)
        drifts_el, drifts_en = [], []
        for s in range(64):
            cfg_el = opt.default_config("elastic", n_workers=8, **kw)
            st = opt.init_state(q, np.array([1.0]), cfg_el, seed=s, algo="elastic")
            for _ in range(cfg_el.L):
                opt.step(st)
            drifts_el.append(st.x[0] - 1.0)
            cfg_en = opt.default_config("entropy_sgd", **kw)
            st = opt.init_state(q, np.array([1.0]), cfg_en, seed=s, algo="entropy_sgd")
            for _ in range(cfg_en.L):
                opt.step(st)
            drifts_en.append(st.x[0] - 1.0)
        m_el, m_en = np.mean(drifts_el), np.mean(drifts_en)
        assert m_el == pytest.approx(m_en, rel=0.05)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            opt.OptimizerConfig(n_workers=0)


# one refused value of each field of OptimizerConfig
BAD_CONFIG = {"eta": -1.0, "eta_y": 0.0, "L": 0, "gamma0": 0.0, "gamma1": 1.0, "beta_inv_ex": -0.5, "alpha": 1.5,
              "delta": -0.1, "n_workers": 0, "batch_size": 0, "anneal_factor": 0.0, "anneal_period": -1.0}


class TestConfigValidation:
    @pytest.mark.parametrize("key", BAD_CONFIG)
    def test_refusal_names_its_key_and_value(self, key):
        value = BAD_CONFIG[key]
        with pytest.raises(ValueError, match=f"^{re.escape(f'{key}={value}: ')}"):
            opt.OptimizerConfig(**{key: value})

    def test_every_field_has_a_refusal_case(self):
        assert set(BAD_CONFIG) == {f.name for f in fields(opt.OptimizerConfig)}

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_rejects_empty_batch(self, batch_size):
        # a zero batch would make every minibatch gradient zero
        with pytest.raises(ValueError, match="batch_size"):
            opt.OptimizerConfig(batch_size=batch_size)

    @pytest.mark.parametrize("factor", [0.0, -2.0])
    def test_rejects_nonpositive_anneal_factor(self, factor):
        with pytest.raises(ValueError, match="anneal_factor"):
            opt.OptimizerConfig(anneal_factor=factor, anneal_period=1.0)

    @pytest.mark.parametrize("period", [0.0, -1.0])
    def test_rejects_nonpositive_anneal_period(self, period):
        with pytest.raises(ValueError, match="anneal_period"):
            opt.OptimizerConfig(anneal_factor=10.0, anneal_period=period)

    def test_long_annealing_underflows_instead_of_raising(self):
        obj = get_entry("mlp_h8_n200").objective
        cfg = opt.default_config("sgd", batch_size=32, anneal_factor=10.0, anneal_period=1.0)
        (rec,) = opt.run("sgd", obj, cfg, seed=0, n_outer_steps=3000, record_every=500)
        assert not rec.aborted
        assert rec.rows[-1]["effective_epoch"] == 480.0
        # the step size is 0.0 once 10^-drops underflows: the iterate stops
        assert rec.rows[-1]["loss"] == rec.rows[-2]["loss"]


class TestMomentum:
    def test_delta_zero_identity(self):
        # without lookahead the anchor z is the outer iterate itself
        dw = DoubleWell(1.0)
        for algo in opt.ALGORITHMS:
            cfg = opt.default_config(algo, delta=0.0, gamma0=0.5, beta_inv_ex=0.01, n_workers=2)
            st = opt.init_state(dw, np.array([0.3]), cfg, seed=0, algo=algo)
            for _ in range(3 * cfg.L):
                opt.step(st)
            assert st.k == 3 * st.plan.every
            np.testing.assert_array_equal(st.z, st.x)

    def test_momentum_accelerates_on_quadratic(self):
        q = make_quadratic(1.0, 0.0, 1)

        def steps_to_converge(delta):
            cfg = opt.default_config("entropy_sgd", delta=delta, gamma0=1.0, gamma1=0.0,
                                     beta_inv_ex=0.0, eta=0.1)
            (rec,) = opt.run("entropy_sgd", q, cfg, seed=0, n_outer_steps=220, x0=np.array([1.0]))
            for i, row in enumerate(rec.rows):
                if row["loss"] <= 0.5e-6:  # |x| <= 1e-3
                    return i + 1
            return len(rec.rows) + 1

        assert steps_to_converge(0.9) < steps_to_converge(0.0)

    def test_config_validates_delta(self):
        with pytest.raises(ValueError, match="delta"):
            opt.OptimizerConfig(delta=1.0)


class TestGammaSchedule:
    def test_initial_value(self):
        cfg = opt.OptimizerConfig(gamma0=0.25, gamma1=0.1, L=5)
        assert opt.gamma_schedule(0, cfg) == 0.25

    def test_known_value(self):
        cfg = opt.OptimizerConfig(gamma0=0.1, gamma1=1e-3, L=1)
        assert opt.gamma_schedule(100, cfg) == pytest.approx(0.090479, abs=1e-6)

    def test_non_increasing(self):
        cfg = opt.OptimizerConfig(gamma0=0.1, gamma1=1e-3, L=4)
        vals = [opt.gamma_schedule(k, cfg) for k in range(0, 400)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_negative_k_rejected(self):
        cfg = opt.OptimizerConfig()
        with pytest.raises(ValueError):
            opt.gamma_schedule(-1, cfg)

    def test_sgd_logs_an_underflowed_schedule(self):
        # sgd never divides by gamma: its rows log the schedule, 0 once it underflows
        q = make_quadratic(1.0, 0.0, 1)
        cfg = opt.default_config("sgd", gamma1=0.9)
        (rec,) = opt.run("sgd", q, cfg, seed=0, n_outer_steps=400, x0=np.ones(1))
        assert rec.rows[-1]["gamma"] == 0.0

    def test_underflow_to_zero_fails_loudly(self):
        q = make_quadratic(1.0, 0.0, 1)
        cfg = opt.default_config("entropy_sgd", L=1, gamma1=0.9)
        with pytest.raises(ValueError, match="gamma underflowed"):
            opt.run("entropy_sgd", q, cfg, seed=0, n_outer_steps=400, x0=np.ones(1))


class TestRun:
    def test_replay_identical(self):
        dw = DoubleWell(1.0)
        cfg = opt.default_config("entropy_sgd", L=5)
        (r1,) = opt.run("entropy_sgd", dw, cfg, seed=7, n_outer_steps=20, x0=np.array([0.3]))
        (r2,) = opt.run("entropy_sgd", dw, cfg, seed=7, n_outer_steps=20, x0=np.array([0.3]))
        assert [r["loss"] for r in r1.rows] == [r["loss"] for r in r2.rows]
        np.testing.assert_array_equal(r1.terminal_x, r2.terminal_x)

    def test_sgd_converges_on_quadratic(self):
        q = make_quadratic(1.0, 0.0, 1)
        cfg = opt.default_config("sgd", eta=0.1)
        (rec,) = opt.run("sgd", q, cfg, seed=0, n_outer_steps=500, x0=np.array([1.0]))
        assert rec.final_loss <= 1e-6

    @pytest.mark.parametrize("batch, epochs", [(8, 4.0), (32, 16.0), (200, 100.0)])
    def test_effective_epochs_follow_the_batch(self, batch, epochs):
        # epochs = gradient evaluations * batch / n_samples
        obj = get_entry("mlp_h8_n200").objective
        cfg = opt.default_config("sgd", batch_size=batch)
        (rec,) = opt.run("sgd", obj, cfg, seed=0, n_outer_steps=100, record_every=100)
        assert rec.rows[-1]["effective_epoch"] == epochs

    def test_effective_epoch_accounting(self):
        q = make_quadratic(1.0, 0.0, 1)
        budget = 200
        (rec_sgd,) = opt.run("sgd", q, opt.default_config("sgd"), 0, budget, x0=np.ones(1))
        cfg_e = opt.default_config("entropy_sgd", L=20)
        (rec_ent,) = opt.run("entropy_sgd", q, cfg_e, 0, budget // 20, x0=np.ones(1))
        assert len(rec_sgd.rows) == 20 * len(rec_ent.rows)
        assert rec_sgd.rows[-1]["effective_epoch"] == rec_ent.rows[-1]["effective_epoch"]

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_aborts_with_flag(self):
        # gradient explodes: step size far beyond stability
        q = make_quadratic(1.0, 0.0, 1)
        bad = CustomObjective(1, None, lambda x: np.array([3e100 * x[0] ** 2]),
                              value_batch_fn=lambda X: 1e100 * X[:, 0] ** 3)
        cfg = opt.default_config("sgd", eta=1e200)
        (rec,) = opt.run("sgd", bad, cfg, seed=0, n_outer_steps=10, x0=np.array([1.0]))
        assert rec.aborted

    def test_unknown_algorithm(self):
        q = make_quadratic(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            opt.run("adam", q, None, 0, 10)

    def test_csv_roundtrip(self, tmp_path):
        q = make_quadratic(1.0, 0.0, 1)
        (rec,) = opt.run("sgd", q, opt.default_config("sgd"), 3, 25, x0=np.ones(1))
        path = tmp_path / "run.csv"
        rec.to_csv(path)
        back = opt.RunRecord.from_csv(path, algo="sgd", seed=3)
        assert [r["k"] for r in back.rows] == [r["k"] for r in rec.rows]
        np.testing.assert_allclose(back.column("loss"), rec.column("loss"))

    def test_rows_strictly_increasing_in_k(self):
        q = make_quadratic(1.0, 0.0, 1)
        (rec,) = opt.run("entropy_sgd", q, opt.default_config("entropy_sgd", L=3), 0, 15, x0=np.ones(1))
        ks = [r["k"] for r in rec.rows]
        assert all(a < b for a, b in zip(ks, ks[1:]))


class TestRepeats:
    """Seeds run as rows of one batched state record what one-seed runs do."""

    @staticmethod
    def assert_same_records(batched, singles, tmp_path):
        assert [r.seed for r in batched] == [r.seed for r in singles]
        for rec, single in zip(batched, singles):
            rec.to_csv(tmp_path / "batched.csv")
            single.to_csv(tmp_path / "single.csv")
            assert (tmp_path / "batched.csv").read_bytes() == (tmp_path / "single.csv").read_bytes()
            assert rec.aborted == single.aborted
            assert rec.terminal_x.tobytes() == single.terminal_x.tobytes()

    @pytest.mark.parametrize("algo", opt.ALGORITHMS)
    def test_batched_matches_sequential(self, algo, tmp_path):
        obj = get_entry("mlp_h8_n200").objective
        cfg = opt.default_config(algo, batch_size=32, n_workers=3, beta_inv_ex=1e-4,
                                 anneal_factor=2.0, anneal_period=0.5)
        batched = opt.run(algo, obj, cfg, seed=7, n_outer_steps=5, record_every=2, repeats=3)
        singles = [opt.run(algo, obj, cfg, seed=s, n_outer_steps=5, record_every=2, repeats=1)[0]
                   for s in (7, 8, 9)]
        self.assert_same_records(batched, singles, tmp_path)
        assert [len(r.rows) for r in batched] == [3, 3, 3]

    def test_rejects_zero_repeats(self):
        q = make_quadratic(1.0, 0.0, 1)
        with pytest.raises(ValueError, match="repeats"):
            opt.run("sgd", q, None, seed=0, n_outer_steps=3, repeats=0)

    def test_one_seed_is_a_one_record_list(self):
        q = make_quadratic(1.0, 0.0, 1)
        records = opt.run("sgd", q, None, seed=5, n_outer_steps=3, x0=np.ones(1))
        assert isinstance(records, list) and [r.seed for r in records] == [5]

    @pytest.mark.parametrize("x0", [np.zeros(2), np.zeros((1, 1)), 0.0], ids=["too_long", "2d", "scalar"])
    def test_init_state_refuses_a_wrong_shaped_start(self, x0):
        with pytest.raises(ValueError, match="state vectors must match the objective dimension"):
            opt.init_state(make_quadratic(1.0, 0.0, 1), x0, opt.default_config("sgd"), seed=0, algo="sgd")

    def test_init_state_refuses_a_batch_above_the_dataset(self):
        obj = get_entry("mlp_h8_n200").objective
        cfg = opt.default_config("sgd", batch_size=201)
        with pytest.raises(ValueError, match="batch_size cannot exceed n_samples"):
            opt.init_state(obj, obj.initial_point(), cfg, seed=0, algo="sgd")

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_aborted_row_stops_alone(self, tmp_path):
        # started near the edge of stability, seed 1 is kicked past it by
        # sgd's extrinsic noise and diverges while seeds 0 and 2 settle
        quartic = CustomObjective(1, lambda x: x[0] ** 4, lambda x: np.array([4 * x[0] ** 3]))
        cfg = opt.default_config("sgd", eta=0.1, beta_inv_ex=0.4)
        x0 = np.array([2.2])
        batched = opt.run("sgd", quartic, cfg, seed=0, n_outer_steps=30, x0=x0, repeats=3)
        singles = [opt.run("sgd", quartic, cfg, seed=s, n_outer_steps=30, x0=x0)[0] for s in (0, 1, 2)]
        assert [r.aborted for r in batched] == [False, True, False]
        assert [len(r.rows) for r in batched] == [30, 9, 30] and not np.isfinite(batched[1].final_loss)
        self.assert_same_records(batched, singles, tmp_path)


class TestLockstep:
    """Runs stepped in lockstep, one stacked gradient call per inner step,
    record what each records in its own one-run ``run``, bit for bit."""

    def spy_rows(self, obj, name):
        """Count the rows of each call of the objective's ``name`` method."""
        self.rows, real = [], getattr(obj, name)

        def spy(X, *idx):
            self.rows.append(len(X))
            return real(X, *idx)

        setattr(obj, name, spy)

    def assert_each_as_alone(self, obj, specs, x0, tmp_path):
        together = opt.run_lockstep(obj, specs, seed=11, x0=x0, repeats=2)
        self.calls = list(self.rows)
        for spec, records in zip(specs, together):
            alone = opt.run(spec.algo, obj, spec.cfg, 11, spec.n_outer_steps, x0=x0,
                            record_every=spec.record_every, repeats=2)
            TestRepeats.assert_same_records(records, alone, tmp_path)
        return together

    def test_minibatch_runs_match_their_own_runs(self, tmp_path):
        # entropy_sgd's extrinsic noise makes it draw per step; elastic, with
        # 3 workers per repeat, spends its 3 outer steps in 60 of the 200
        # inner steps and leaves the stack
        obj = TinyMLP(0, 8, 200)
        specs = [
            opt.RunSpec("sgd", opt.default_config("sgd", batch_size=32), 200, 7),
            opt.RunSpec("entropy_sgd", opt.default_config("entropy_sgd", batch_size=32, beta_inv_ex=1e-4), 10, 3),
            opt.RunSpec("elastic", opt.default_config("elastic", batch_size=32, n_workers=3), 3, 1),
            opt.RunSpec("hj2", opt.default_config("hj2", batch_size=32), 40, 6),
            opt.RunSpec("heat", opt.default_config("heat", batch_size=32), 10, 4),
        ]
        self.spy_rows(obj, "minibatch_grad")
        together = self.assert_each_as_alone(obj, specs, None, tmp_path)
        assert self.calls == [2 + 2 + 6 + 2 + 2] * 60 + [2 + 2 + 2 + 2] * 140
        assert [recs[0].rows[-1]["k"] for recs in together] == [200, 200, 60, 200, 200]

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_diverged_run_leaves_while_the_others_run_on(self, tmp_path):
        # from x = 1, sgd's step of 1 on x^4 overshoots to -3, then 105, and
        # both its seeds abort when x^4 overflows, at their sixth update; hj
        # and the noisy entropy_sgd step on without it
        quartic = CustomObjective(1, lambda x: x[0] ** 4, lambda x: np.array([4 * x[0] ** 3]))
        specs = [
            opt.RunSpec("sgd", opt.default_config("sgd", eta=1.0), 50, 1),
            opt.RunSpec("hj", opt.default_config("hj", eta_y=0.01), 8, 1),
            opt.RunSpec("entropy_sgd", opt.default_config("entropy_sgd", eta=0.1, eta_y=0.01,
                                                          beta_inv_ex=1e-3), 2, 1),
        ]
        self.spy_rows(quartic, "grad_batch")
        sgd, hj, ent = self.assert_each_as_alone(quartic, specs, np.ones(1), tmp_path)
        assert all(r.aborted for r in sgd) and not any(r.aborted for r in hj + ent)
        assert [len(r.rows) for r in sgd] == [6, 6]
        # hj and entropy_sgd both take 40 inner steps; the logging calls take
        # one run's two rows, the stepping calls more
        assert [n for n in self.calls if n > 2] == [6] * 6 + [4] * 34

    def test_runs_of_two_batch_sizes_refused(self):
        obj = TinyMLP(0, 8, 200)
        specs = [opt.RunSpec(algo, opt.default_config(algo, batch_size=b), 2) for algo, b in (("sgd", 32), ("hj", 16))]
        with pytest.raises(ValueError, match="same objective and batch size"):
            opt.run_lockstep(obj, specs, seed=0)


class TestIndicesDrawnAhead:
    """Inside ``run``, rows that draw only minibatch indices draw them up to
    128 steps ahead.  Across two chunk boundaries and a short last chunk,
    the run records what a loop of direct steps (one draw per step) and
    one-point ``value``/``grad`` logging records, bit for bit, and leaves
    every stream in the same state."""

    @pytest.mark.parametrize("L, n_outer", [(1, 2 * 128 + 37), (5, 59)])
    @pytest.mark.parametrize("algo", ["sgd", "hj", "hj2", "elastic"])
    def test_run_matches_step_loop(self, algo, L, n_outer, monkeypatch, tmp_path):
        obj = get_entry("mlp_h8_n200").objective
        cfg = opt.default_config(algo, batch_size=32, beta_inv_ex=0.0, n_workers=3, L=L)
        seed, repeats, record_every = 4, 2, 10
        made, real_init = [], opt.init_state

        def init_state(*args):
            made.append(real_init(*args))
            return made[-1]

        monkeypatch.setattr(opt, "init_state", init_state)
        records = opt.run(algo, obj, cfg, seed, n_outer, record_every=record_every, repeats=repeats)
        (ran,) = made
        assert ran.plan.draw and ran.indices.shape[1] == n_outer * L - 2 * 128

        st = real_init(obj, obj.initial_point(), cfg, seed, algo, repeats)
        looped = [opt.RunRecord(algo=algo, seed=seed + r) for r in range(repeats)]
        for outer in range(n_outer):
            for _ in range(L):
                opt.step(st)
            if (outer + 1) % record_every == 0 or outer == n_outer - 1:
                for r, rec in enumerate(looped):
                    x = st.x[r]
                    rec.rows.append(dict(
                        k=st.k, effective_epoch=st.k * (3 if algo == "elastic" else 1) * 32 / 200,
                        loss=obj.value(x),
                        grad_norm=float(np.linalg.norm(obj.grad(x))),
                        gamma=opt.gamma_schedule(max(st.k - 1, 0), cfg),
                        control_energy=float(st.control_energy[r])))
        assert st.indices is None
        for r, (rec, ref) in enumerate(zip(records, looped)):
            assert not rec.aborted and len(rec.rows) == n_outer // record_every + 1
            rec.to_csv(tmp_path / "run.csv")
            ref.to_csv(tmp_path / "loop.csv")
            assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
            assert rec.terminal_x.tobytes() == st.x[r].tobytes()
        assert [_stream_state(g) for g in ran.rngs] == [_stream_state(g) for g in st.rngs]


class TestInnerContraction:
    def test_exponential_rate_on_convex_coupling(self):
        # inner problem f(y) + |y-x|^2/(2 gamma) is (lam_min(Q) + 1/gamma)-convex
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3))
        Q = A @ A.T + 0.5 * np.eye(3)
        obj = Quadratic(Q, np.zeros(3))
        gamma = 0.4
        lam = np.linalg.eigvalsh(Q).min() + 1.0 / gamma
        x = np.array([1.0, -0.5, 0.3])
        y_star = np.linalg.solve(Q + np.eye(3) / gamma, x / gamma)
        eta_y = 0.01
        cfg = opt.default_config("entropy_sgd", eta_y=eta_y, gamma0=gamma, gamma1=0.0,
                                 beta_inv_ex=0.0, L=10**9, delta=0.0)
        st = opt.init_state(obj, x, cfg, seed=0, algo="entropy_sgd")
        dists = []
        n_steps = 300
        for _ in range(n_steps):
            opt.step(st)
            dists.append(np.linalg.norm(st.rows[0] - y_star))
        s = np.arange(1, n_steps + 1) * eta_y  # time axis of the inner flow
        fitted = -np.polyfit(s, np.log(dists), 1)[0]
        assert fitted >= 0.9 * lam


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()[:16]


class TestGoldenReplay:
    """Runs on ``mlp_h8_n200`` (batch 32, no annealing; sgd with extrinsic
    noise and no lookahead, the others with lookahead 0.9) replay bit for bit:
    final loss, a digest of the terminal iterate's bytes and a digest of the
    k, loss, gamma and control-energy columns, as recorded when each
    algorithm had its own step function."""

    GOLDEN = {
        "sgd": (0.24590692473778045, "80808afb4b6c7489", "b21d3e6c492b54d9"),
        "entropy_sgd": (0.083909711824003, "05169697e0e99a47", "1e085808f7a3bbea"),
        "hj": (0.08074758139603422, "bf775f20022fd4f7", "e004ae6b0a5e7392"),
        "hj2": (0.08074758139603423, "0c74bf2e2dad19bc", "e415c4aa546da2d7"),
        "heat": (0.08162504829803507, "46da6acca40511e7", "0f06f4bd6e5d05a0"),
        "elastic": (0.0828067485290235, "f9519b43877e024d", "4f3b30dd8316b426"),
    }

    @pytest.mark.parametrize("algo", opt.ALGORITHMS)
    def test_replays_recorded_run(self, algo):
        obj = get_entry("mlp_h8_n200").objective
        extra = dict(delta=0.0, beta_inv_ex=1e-6) if algo == "sgd" else dict(delta=0.9)
        cfg = opt.default_config(algo, batch_size=32, **extra)
        (rec,) = opt.run(algo, obj, cfg, seed=3, n_outer_steps=12)
        cols = np.array([rec.column(c) for c in ("k", "loss", "gamma", "control_energy")])
        assert (rec.final_loss, _digest(rec.terminal_x), _digest(cols)) == self.GOLDEN[algo]
