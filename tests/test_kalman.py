import numpy as np
import pytest

from headtrack.kalman import (
    FilterDivergence,
    IllConditionedUpdate,
    IteratedUpdateConfig,
    KalmanConfig,
    KalmanModel,
    KalmanState,
    constant_velocity_model,
    initiate,
    initiate_rows,
    iterated_update,
    predict,
    predict_rows,
    update,
    update_rows,
)


def make_state(x=None, P=None):
    if x is None:
        x = np.array([10.0, 20.0, 0.5, 100.0, 0, 0, 0, 0])
    if P is None:
        P = np.eye(8)
    return KalmanState(x=np.asarray(x, float), P=np.asarray(P, float))


def zero_noise_model():
    m = constant_velocity_model(100.0)
    return KalmanModel(F=m.F, H=m.H, Q=np.zeros((8, 8)), R=m.R)


def random_state(rng):
    x = np.concatenate([rng.uniform(0, 500, 2), [rng.uniform(0.3, 0.8)], [rng.uniform(40, 200)], rng.normal(0, 2, 4)])
    A = rng.normal(0, 1, (8, 8))
    P = A @ A.T + np.eye(8)
    return KalmanState(x=x, P=P)


class TestPredict:
    def test_zero_velocity_keeps_position(self):
        st = predict(make_state(), zero_noise_model())
        assert np.allclose(st.x[:4], [10, 20, 0.5, 100])

    def test_constant_velocity_step(self):
        st0 = make_state(x=[10, 20, 0.5, 100, 2, -1, 0, 0])
        st = predict(st0, zero_noise_model())
        assert np.allclose(st.x, [12, 19, 0.5, 100, 2, -1, 0, 0])

    def test_covariance_product(self):
        # P = I, Q = 0: the explicit F P F^T picks up the velocity coupling
        st = predict(make_state(), zero_noise_model())
        assert st.P[0, 0] == pytest.approx(2.0)
        assert st.P[0, 4] == pytest.approx(1.0)

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            st = random_state(rng)
            out = predict(st, constant_velocity_model(st.x[3]))
            assert np.max(np.abs(out.P - out.P.T)) < 1e-9

    def test_nonfinite_raises(self):
        st = make_state(x=[np.inf, 0, 0.5, 100, 0, 0, 0, 0])
        with pytest.raises(FilterDivergence):
            predict(st, zero_noise_model())

    def test_height_clamped(self):
        st = make_state(x=[0, 0, 0.5, 2.0, 0, 0, 0, -5.0])
        out = predict(st, zero_noise_model(), h_min=1.0)
        assert out.x[3] == 1.0


class TestUpdate:
    def test_zero_innovation_keeps_state_and_shrinks_covariance(self):
        st = make_state()
        m = constant_velocity_model(100.0)
        z = m.H @ st.x
        out = update(st, z, m)
        assert np.allclose(out.x, st.x)
        assert np.trace(out.P) < np.trace(st.P)

    def test_measurement_trust_limit(self):
        st = make_state()
        m = constant_velocity_model(100.0)
        tight = KalmanModel(F=m.F, H=m.H, Q=m.Q, R=np.eye(4) * 1e-12)
        z = np.array([15.0, 25.0, 0.6, 110.0])
        out = update(st, z, tight)
        assert np.max(np.abs(out.x[:4] - z)) < 1e-6

    def test_scalar_gain_analogue(self):
        # P = I, R = I on the measured block: gain 0.5, so a residual of 2
        # corrects the first component by exactly 1
        st = make_state()
        m = constant_velocity_model(100.0)
        unit_r = KalmanModel(F=m.F, H=m.H, Q=m.Q, R=np.eye(4))
        z = m.H @ st.x + np.array([2.0, 0, 0, 0])
        out = update(st, z, unit_r)
        assert out.x[0] - st.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            st = random_state(rng)
            m = constant_velocity_model(st.x[3])
            z = m.H @ st.x + rng.normal(0, 1, 4)
            out = update(st, z, m)
            assert np.max(np.abs(out.P - out.P.T)) < 1e-9

    def test_singular_innovation_raises(self):
        st = make_state(P=np.zeros((8, 8)))
        m = zero_noise_model()
        degenerate = KalmanModel(F=m.F, H=m.H, Q=m.Q, R=np.zeros((4, 4)))
        with pytest.raises(IllConditionedUpdate):
            update(st, np.array([10.0, 20.0, 0.5, 100.0]), degenerate)

    def test_jittered_retry_recovers(self):
        st = make_state(P=np.zeros((8, 8)))
        m = zero_noise_model()
        jittered = KalmanModel(F=m.F, H=m.H, Q=m.Q, R=np.eye(4) * 1e-9)
        out = update(st, np.array([10.0, 20.0, 0.5, 100.0]), jittered)
        assert np.all(np.isfinite(out.x))

    def test_rejects_nonfinite_measurement(self):
        with pytest.raises(ValueError):
            update(make_state(), np.array([np.nan, 0, 0, 0]), zero_noise_model())


def test_predict_update_consistency():
    # measuring exactly H F x leaves no innovation along measured dims
    rng = np.random.default_rng(9)
    for _ in range(50):
        st = random_state(rng)
        m = constant_velocity_model(st.x[3])
        pred = predict(st, m)
        z = m.H @ m.F @ st.x
        out = update(pred, z, m)
        assert np.max(np.abs(out.x[:4] - z)) < 1e-9


class TestIteratedUpdate:
    def test_linear_matches_standard(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            st = random_state(rng)
            m = constant_velocity_model(st.x[3])
            z = m.H @ st.x + rng.normal(0, 3, 4)
            base = update(st, z, m)
            res = iterated_update(st, z, m)
            assert res.iterations == 1
            assert res.converged
            assert np.max(np.abs(res.state.x - base.x)) < 1e-9
            assert np.max(np.abs(res.state.P - base.P)) < 1e-9

    def test_zero_residual_stays_put(self):
        st = make_state()
        m = constant_velocity_model(100.0)
        res = iterated_update(st, m.H @ st.x, m)
        assert res.iterations == 1
        assert np.allclose(res.state.x, st.x)

    def test_nonlinear_beats_single_step(self):
        rng = np.random.default_rng(42)

        def log_h(s):
            return np.array([s[0], s[1], s[2], np.log(s[3])])

        better = 0
        for _ in range(100):
            x = np.array(
                [*rng.uniform(0, 1000, 2), rng.uniform(0.3, 0.7), rng.uniform(50, 200),
                 *rng.normal(0, 2, 4)]
            )
            P = np.diag([4.0, 4.0, 0.01, 4.0, 1.0, 1.0, 0.01, 1.0])
            st = KalmanState(x=x, P=P)
            m = constant_velocity_model(x[3])
            z = log_h(x + rng.normal(0, [3, 3, 0.05, 3, 0, 0, 0, 0]))
            res = iterated_update(st, z, m, h_fn=log_h)
            S = m.H @ P @ m.H.T + m.R
            K = P @ m.H.T @ np.linalg.inv(S)
            x_single = x + K @ (z - log_h(x))
            r_iter = np.linalg.norm(z - log_h(res.state.x))
            r_single = np.linalg.norm(z - log_h(x_single))
            if r_iter <= r_single + 1e-12:
                better += 1
        assert better >= 95

    def test_iteration_cap_and_flag(self):
        # oscillatory measurement keeps the fixed-point map from contracting
        def wobble(s):
            return np.array([s[0] + 30 * np.sin(s[0]), s[1], s[2], s[3]])

        st = KalmanState(x=np.array([50.0, 20, 0.5, 100, 0, 0, 0, 0]), P=np.eye(8) * 100)
        m = constant_velocity_model(100.0)
        cfg = IteratedUpdateConfig(epsilon_conv=0.001, max_iters=5)
        res = iterated_update(st, np.array([55.0, 20, 0.5, 100]), m, h_fn=wobble, cfg=cfg)
        assert res.iterations == 5
        assert not res.converged
        assert np.all(np.isfinite(res.state.x))

    def test_iterations_never_exceed_cap(self):
        rng = np.random.default_rng(23)

        def log_h(s):
            return np.array([s[0], s[1], s[2], np.log(s[3])])

        for max_iters in (1, 2, 4, 10):
            cfg = IteratedUpdateConfig(max_iters=max_iters)
            st = random_state(rng)
            m = constant_velocity_model(st.x[3])
            z = log_h(st.x) + rng.normal(0, 0.5, 4)
            res = iterated_update(st, z, m, h_fn=log_h, cfg=cfg)
            assert 1 <= res.iterations <= max_iters


class TestConfigs:
    def test_iterated_config_validation(self):
        with pytest.raises(ValueError):
            IteratedUpdateConfig(epsilon_conv=0.0)
        with pytest.raises(ValueError):
            IteratedUpdateConfig(max_iters=0)

    def test_model_shapes(self):
        m = constant_velocity_model(80.0)
        assert m.F.shape == (8, 8)
        assert m.H.shape == (4, 8)
        assert np.allclose(m.Q, m.Q.T)
        assert np.allclose(m.R, m.R.T)
        assert np.all(np.linalg.eigvalsh(m.Q) >= 0)

    def test_noise_scales_with_height(self):
        small = constant_velocity_model(10.0)
        large = constant_velocity_model(100.0)
        assert large.Q[0, 0] == pytest.approx(100 * small.Q[0, 0])

    def test_initiate_covariance(self):
        cfg = KalmanConfig()
        st = initiate(np.array([5.0, 6.0, 0.5, 80.0]), cfg)
        assert np.allclose(st.x[:4], [5, 6, 0.5, 80])
        assert np.allclose(st.x[4:], 0)
        pos = (2 * cfg.meas_std_weight * 80) ** 2
        vel = (10 * cfg.vel_std_weight * 80) ** 2
        assert st.P[0, 0] == pytest.approx(pos)
        assert st.P[4, 4] == pytest.approx(vel)


    @pytest.mark.parametrize(
        "kw",
        [
            dict(h_min=0.0),
            dict(h_min=-5.0),
            dict(h_min=np.nan),
            dict(h_min=np.inf),
            dict(h_min=1e-300),  # (meas_std_weight * h_min)^2 underflows to 0
            dict(meas_std_weight=0.0),
            dict(pos_std_weight=-1.0),
            dict(vel_std_weight=np.inf),
        ],
    )
    def test_kalman_config_rejects_non_positive_noise(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            KalmanConfig(**kw)


def kron_cov(pcv):
    p, c, v = pcv
    return np.kron(np.array([[p, c], [c, v]]), np.eye(4))


class TestRows:
    """The whole-array forms against the matrix forms, bit for bit."""

    CONFIGS = (
        KalmanConfig(),
        KalmanConfig(pos_std_weight=0.08, vel_std_weight=0.013, meas_std_weight=0.031, h_min=5.0),
    )

    @staticmethod
    def pow_sensitive_heights(rng, cfg, n):
        """Heights where some (weight * h)^2 differs between C pow and a * a."""
        h = rng.uniform(cfg.h_min, 400, 400_000)
        hit = np.zeros(len(h), dtype=bool)
        for w in (cfg.pos_std_weight, cfg.vel_std_weight, cfg.meas_std_weight):
            s = w * h
            hit |= np.array([v**2 for v in s.tolist()]) != s * s
        assert hit.sum() >= n
        return h[hit][:n]

    @classmethod
    def rows(cls, rng, n, cfg):
        x = np.column_stack([
            rng.uniform(-100, 4000, (n, 2)), rng.uniform(0.2, 1.0, n),
            rng.uniform(0.3, 400, n), rng.normal(0, 3, (n, 4)),  # some heights below h_min
        ])
        # an eighth keep their height through the predict, at heights where
        # squaring with a * a instead of pow would change the result
        x[: n // 8, 3] = cls.pow_sensitive_heights(rng, cfg, n // 8)
        x[: n // 8, 7] = 0.0
        p, v = rng.uniform(0.01, 500, n), rng.uniform(1e-3, 50, n)
        c = rng.uniform(-0.95, 0.95, n) * np.sqrt(p * v)
        z = x[:, :4] + rng.normal(0, 5, (n, 4))
        z[:, 2:] = np.abs(z[:, 2:]) + 0.01
        return x, np.column_stack([p, c, v]), z

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_predict_and_update_rows_equal_matrix_forms(self, cfg):
        rng = np.random.default_rng(17)
        x, pcv, z = self.rows(rng, 2000, cfg)
        x_pred, pcv_pred = predict_rows(x, pcv, cfg)
        x_post, pcv_post = update_rows(x_pred, pcv_pred, z, cfg)
        for i in range(len(x)):
            st = KalmanState(x=x[i], P=kron_cov(pcv[i]))
            st = predict(st, constant_velocity_model(x[i, 3], cfg), h_min=cfg.h_min)
            assert np.array_equal(st.x, x_pred[i]) and np.array_equal(st.P, kron_cov(pcv_pred[i]))
            st = update(st, z[i], constant_velocity_model(st.x[3], cfg), h_min=cfg.h_min)
            assert np.array_equal(st.x, x_post[i]) and np.array_equal(st.P, kron_cov(pcv_post[i]))

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_initiate_rows_equals_diagonal_birth(self, cfg):
        z = np.column_stack([np.full(500, 7.0), np.full(500, -3.0), np.full(500, 0.4),
                             np.random.default_rng(3).uniform(0.1, 400, 500)])
        x, pcv = initiate_rows(z, cfg)
        for i in range(len(z)):
            h = max(float(z[i, 3]), cfg.h_min)
            pos, vel = 2.0 * cfg.meas_std_weight * h, 10.0 * cfg.vel_std_weight * h
            P = np.diag([pos**2] * 4 + [vel**2] * 4)
            assert np.array_equal(x[i], [7.0, -3.0, 0.4, h, 0, 0, 0, 0])
            assert np.array_equal(kron_cov(pcv[i]), P)
            assert np.array_equal(initiate(z[i], cfg).P, P)

    def test_innovation_variance_stays_positive(self):
        # S = p + r of every update: r >= (meas_std_weight * h_min)^2 > 0 for
        # every accepted config, and a predicted p is never below 0, even when
        # heights collapse towards a tiny h_min
        rng = np.random.default_rng(9)
        for cfg in self.CONFIGS + (KalmanConfig(h_min=1e-150), KalmanConfig(meas_std_weight=1e-3)):
            z = np.column_stack([rng.uniform(0, 500, (200, 2)), rng.uniform(0.2, 1, 200),
                                 rng.uniform(1e-160, 300, 200)])
            x, pcv = initiate_rows(z, cfg)
            for _ in range(60):
                x, pcv = predict_rows(x, pcv, cfg)
                r = (cfg.meas_std_weight * np.maximum(x[:, 3], cfg.h_min)) ** 2
                assert (pcv[:, 0] >= 0).all() and (pcv[:, 0] + r > 0).all()
                hit = rng.uniform(size=len(x)) < 0.6
                z = x[:, :4] + rng.normal(0, 3, (len(x), 4))
                z[:, 2:] = np.abs(z[:, 2:]) + 1e-160
                x[hit], pcv[hit] = update_rows(x[hit], pcv[hit], z[hit], cfg)
                assert np.isfinite(x).all() and np.isfinite(pcv).all()

    def test_rounding_below_zero_keeps_innovation_positive(self):
        # p + 2c + v one ulp below 0, as rounding leaves it, at a height whose
        # Q cannot lift it: the predicted p is 0, not negative, so S = r > 0
        cfg = KalmanConfig(h_min=1e-12)
        x = np.array([[10.0, 20.0, 0.5, 1e-10, 0, 0, 0, 0]])
        x_pred, pcv_pred = predict_rows(x, np.array([[1.0, -(1.0 + 2.0**-52), 1.0]]), cfg)
        assert pcv_pred[0, 0] == 0.0
        x_post, pcv_post = update_rows(x_pred, pcv_pred, np.array([[11.0, 20.0, 0.5, 1e-10]]), cfg)
        assert np.isfinite(x_post).all() and np.isfinite(pcv_post).all()
