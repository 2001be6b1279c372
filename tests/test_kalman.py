import numpy as np
import pytest

from vloc.errors import SingularInnovationError
from vloc.geodesy import GeoPoint
from vloc.kalman import FilterConfig, FilterState, init_filter, predict, step, update


def test_filter_config_validates():
    # the time step is an argument, checked where it is used
    with pytest.raises(ValueError):
        predict(init_filter(GeoPoint(0.0, 0.0), FilterConfig()), 0.0, FilterConfig())
    with pytest.raises(ValueError):
        FilterConfig(sigma_r=-1.0)
    with pytest.raises(ValueError):
        FilterConfig(p0_scale=0.0)
    with pytest.raises(ValueError):
        FilterConfig(q_scale=-1e-9)
    # non-finite values are named, whatever the field's own range check
    for name in ("sigma_r", "p0_scale", "q_scale"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                FilterConfig(**{name: bad})


def test_filter_state_validates():
    with pytest.raises(ValueError):
        FilterState(np.zeros(3), np.eye(4))
    with pytest.raises(ValueError):
        FilterState(np.zeros(4), np.eye(3))
    asym = np.eye(4)
    asym[0, 1] = 1.0
    with pytest.raises(ValueError):
        FilterState(np.zeros(4), asym)
    with pytest.raises(ValueError):
        FilterState(np.array([np.nan, 0, 0, 0]), np.eye(4))


def test_init_filter_zero_velocity():
    cfg = FilterConfig()
    st = init_filter(GeoPoint(49.0, 8.0), cfg)
    assert st.position() == GeoPoint(49.0, 8.0)
    assert st.velocity() == (0.0, 0.0)
    assert np.array_equal(st.p, np.eye(4) * cfg.p0_scale)


def test_predict_covariance_frozen():
    # hand-computed F P F^T for P = 1000 I, q = 0, dt = 1:
    # position variance 2000, position/velocity cross 1000, velocity 1000
    cfg = FilterConfig(q_scale=0.0)
    st = predict(init_filter(GeoPoint(0.0, 0.0), cfg), 1.0, cfg)
    expected = np.array(
        [
            [2000.0, 0.0, 1000.0, 0.0],
            [0.0, 2000.0, 0.0, 1000.0],
            [1000.0, 0.0, 1000.0, 0.0],
            [0.0, 1000.0, 0.0, 1000.0],
        ]
    )
    assert np.allclose(st.p, expected, atol=1e-9)


def test_predict_moves_position_by_velocity():
    cfg = FilterConfig()
    st = FilterState(np.array([49.0, 8.0, 1e-4, -2e-4]), np.eye(4))
    out = predict(st, 2.0, cfg)
    assert out.x[0] == pytest.approx(49.0 + 2e-4, abs=1e-15)
    assert out.x[1] == pytest.approx(8.0 - 4e-4, abs=1e-15)
    assert out.velocity() == st.velocity()


def test_update_with_diffuse_prior_lands_on_measurement():
    cfg = FilterConfig()  # p0 1000, sigma_r 1e-4
    st = init_filter(GeoPoint(49.0, 8.0), cfg)
    z = GeoPoint(49.001, 8.002)
    post = update(st, z, cfg)
    assert post.position().lat == pytest.approx(z.lat, abs=1e-9)
    assert post.position().lon == pytest.approx(z.lon, abs=1e-9)


def test_update_shrinks_position_variance():
    cfg = FilterConfig()
    st = init_filter(GeoPoint(0.0, 0.0), cfg)
    post = update(st, GeoPoint(0.0, 0.0), cfg)
    assert post.p[0, 0] < st.p[0, 0]
    assert post.p[1, 1] < st.p[1, 1]
    # velocity is unobserved by a single update
    assert post.p[2, 2] == pytest.approx(st.p[2, 2], rel=1e-12)


def test_velocity_emerges_from_two_fixes():
    cfg = FilterConfig(q_scale=0.0)
    z1 = GeoPoint(49.0, 8.0)
    z2 = GeoPoint(49.001, 8.0005)
    st = update(init_filter(z1, cfg), z1, cfg)
    st = step(st, z2, 1.0, cfg)
    vlat, vlon = st.velocity()
    assert vlat == pytest.approx(0.001, rel=1e-5)
    assert vlon == pytest.approx(0.0005, rel=1e-5)
    assert st.position().lat == pytest.approx(z2.lat, abs=1e-8)


def test_step_is_predict_then_update():
    cfg = FilterConfig()
    st = update(init_filter(GeoPoint(49.0, 8.0), cfg), GeoPoint(49.0, 8.0), cfg)
    z = GeoPoint(49.0003, 8.0004)
    a = step(st, z, 1.0, cfg)
    b = update(predict(st, 1.0, cfg), z, cfg)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.p, b.p)


def outcome(fn):
    """The state a call returns, or the message of the ValueError it raises."""
    try:
        st = fn()
    except ValueError as exc:
        return str(exc)
    return st.x.tolist(), st.p.tolist()


def test_step_checks_the_prediction_as_predict_does():
    # large covariances round f P f^T or the Joseph form out of symmetry,
    # and a huge velocity overflows the prediction: step raises where
    # update(predict(...)) does, with the same message, or returns its state
    rng = np.random.default_rng(12)
    cfg = FilterConfig()
    z = GeoPoint(49.0, 8.0)
    states = []
    for scale in (1e3, 1e8, 1e10, 1e12):
        a = rng.standard_normal((4, 4))
        states.append((FilterState(np.array([49.0, 8.0, 1e-4, 1e-4]), a @ a.T * scale), 1.0))
    states.append((FilterState(np.array([49.0, 8.0, 1e300, 0.0]), np.eye(4)), 1e10))
    seen = []
    with np.errstate(over="ignore", invalid="ignore"):
        for st, dt in states:
            got = outcome(lambda: step(st, z, dt, cfg))
            assert got == outcome(lambda: update(predict(st, dt, cfg), z, cfg))
            seen.append(got if isinstance(got, str) else "ok")
    assert "ok" in seen and "state must be finite" in seen and any(s.startswith("covariance asymmetry") for s in seen)


def test_update_rejects_singular_innovation():
    cfg = FilterConfig(sigma_r=1e-300)
    st = FilterState(np.zeros(4), np.zeros((4, 4)))
    with pytest.raises(SingularInnovationError):
        update(st, GeoPoint(0.0, 0.0), cfg)


def test_covariance_stays_symmetric_psd():
    rng = np.random.default_rng(11)
    cfg = FilterConfig()
    st = init_filter(GeoPoint(49.0, 8.0), cfg)
    lat, lon = 49.0, 8.0
    for _ in range(300):
        lat += float(rng.normal(0, 1e-4))
        lon += float(rng.normal(0, 1e-4))
        st = step(st, GeoPoint(lat, lon), 1.0, cfg)
        assert np.array_equal(st.p, st.p.T)
        assert np.linalg.eigvalsh(st.p).min() > -1e-12


def test_noiseless_track_error_decays_to_zero():
    # exact constant-velocity fixes with q = 0: a deliberately offset prior
    # is pulled onto the track and stays there
    cfg = FilterConfig(sigma_r=1e-4, p0_scale=1000.0, q_scale=0.0)
    dlat = 18.0 / 111_320.0
    truth = [np.array([49.0 + i * dlat, 8.0, dlat, 0.0]) for i in range(12)]

    x0 = truth[0] + np.array([5e-3, -5e-3, 0.0, 0.0])
    state = FilterState(x0, np.eye(4) * cfg.p0_scale)
    errs = []
    for t in truth:
        state = step(state, GeoPoint(t[0], t[1]), 1.0, cfg)
        errs.append(float(np.hypot(state.x[0] - t[0], state.x[1] - t[1])))

    for prev, cur in zip(errs[2:], errs[3:]):
        assert cur <= prev * (1 + 1e-12)
    assert errs[-1] < 1e-12


def test_gain_limits():
    cfg_base = dict(p0_scale=1000.0, q_scale=1e-10)
    state = FilterState(np.array([49.0, 8.0, 1e-4, -1e-4]), np.eye(4) * 0.01)
    z = GeoPoint(49.002, 8.001)

    # tiny measurement noise: the posterior sits on the measurement
    tight = update(predict(state, 1.0, FilterConfig(sigma_r=1e-9, **cfg_base)), z, FilterConfig(sigma_r=1e-9, **cfg_base))
    assert tight.x[0] == pytest.approx(z.lat, abs=1e-9)
    assert tight.x[1] == pytest.approx(z.lon, abs=1e-9)

    # huge measurement noise: the posterior keeps the prediction
    loose_cfg = FilterConfig(sigma_r=1e3, **cfg_base)
    pred = predict(state, 1.0, loose_cfg)
    loose = update(pred, z, loose_cfg)
    assert loose.x[0] == pytest.approx(pred.x[0], abs=1e-9)
    assert loose.x[1] == pytest.approx(pred.x[1], abs=1e-9)


def test_filter_beats_raw_measurements_on_noisy_track():
    # i.i.d. Gaussian position noise on a straight constant-velocity run:
    # by step 6 the filtered error must undercut the raw measurement error
    cfg = FilterConfig(sigma_r=1e-4, p0_scale=1000.0, q_scale=1e-10)
    dlat = 18.0 / 111_320.0
    sigma_m = 1.5e-4  # ~17 m, the scale retrieval actually delivers
    rng = np.random.default_rng(77)

    meas_err = np.empty(1000)
    est_err = np.empty(1000)
    for trial in range(1000):
        state = None
        for i in range(6):
            t = np.array([49.0 + i * dlat, 8.0])
            z = t + rng.standard_normal(2) * sigma_m
            zp = GeoPoint(z[0], z[1])
            state = init_filter(zp, cfg) if state is None else step(state, zp, 1.0, cfg)
        meas_err[trial] = np.hypot(*(z - t))
        est_err[trial] = np.hypot(state.x[0] - t[0], state.x[1] - t[1])

    assert est_err.mean() < meas_err.mean()
