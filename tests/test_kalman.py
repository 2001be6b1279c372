import math

import numpy as np
import pytest

from vloc.errors import SingularInnovationError
from vloc.geodesy import M_PER_DEG, GeoPoint, from_plane, haversine_m, to_plane
from vloc.kalman import FilterConfig, FilterState, init_filter, predict, step, update

ORIGIN = GeoPoint(49.0, 8.0)


def state(e=0.0, n=0.0, v_e=0.0, v_n=0.0, p=(1.0, 0.0, 1.0), origin=ORIGIN):
    """A state about origin with per-axis covariance p = (p_pp, p_pv, p_vv)."""
    return FilterState(origin, e, n, v_e, v_n, *p)


def fix(origin, e, n):
    """The GeoPoint e meters east and n meters north of origin on its tangent plane."""
    lat, lon = from_plane(origin, e, n)
    return GeoPoint(float(lat), float(lon))


def test_filter_config_validates():
    # the time step is an argument, checked where it is used
    with pytest.raises(ValueError):
        predict(init_filter(GeoPoint(0.0, 0.0), FilterConfig()), 0.0, FilterConfig())
    with pytest.raises(ValueError):
        FilterConfig(sigma_r=-1.0)
    with pytest.raises(ValueError):
        FilterConfig(p0_scale=0.0)
    with pytest.raises(ValueError):
        FilterConfig(q=-1e-9)
    # non-finite values are named, whatever the field's own range check
    for name in ("sigma_r", "p0_scale", "q"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                FilterConfig(**{name: bad})


def test_filter_state_validates():
    for i in range(7):
        for bad in (float("nan"), float("inf")):
            fields = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0]
            fields[i] = bad
            with pytest.raises(ValueError, match="state must be finite"):
                FilterState(ORIGIN, *fields)
    st = state()
    with pytest.raises(AttributeError):
        st.e = 1.0


def test_init_filter_zero_velocity():
    cfg = FilterConfig()
    st = init_filter(GeoPoint(49.0, 8.0), cfg)
    assert st.origin == GeoPoint(49.0, 8.0)
    assert st.position() == GeoPoint(49.0, 8.0)
    assert (st.v_e, st.v_n) == (0.0, 0.0)
    assert (st.p_pp, st.p_pv, st.p_vv) == (cfg.p0_scale, 0.0, cfg.p0_scale)


def test_predict_covariance_frozen():
    # hand-computed F P F^T for P = 1000 I, q = 0, dt = 1:
    # position variance 2000, position/velocity cross 1000, velocity 1000
    cfg = FilterConfig(p0_scale=1000.0, q=0.0)
    st = predict(init_filter(GeoPoint(0.0, 0.0), cfg), 1.0, cfg)
    assert (st.p_pp, st.p_pv, st.p_vv) == (2000.0, 1000.0, 1000.0)
    # white-noise acceleration alone: q [[dt^3/3, dt^2/2], [dt^2/2, dt]]
    st = predict(state(p=(0.0, 0.0, 0.0)), 2.0, FilterConfig(q=3.0))
    assert (st.p_pp, st.p_pv, st.p_vv) == (8.0, 6.0, 6.0)


def test_predict_moves_position_by_velocity():
    cfg = FilterConfig()
    st = state(e=10.0, n=-4.0, v_e=3.0, v_n=-2.0)
    out = predict(st, 2.0, cfg)
    assert (out.e, out.n) == (16.0, -8.0)
    assert (out.v_e, out.v_n) == (st.v_e, st.v_n)
    assert out.origin == st.origin


def test_update_with_diffuse_prior_lands_on_measurement():
    cfg = FilterConfig()
    st = init_filter(GeoPoint(49.0, 8.0), cfg)
    z = GeoPoint(49.001, 8.002)
    post = update(st, z, cfg)
    assert post.position().lat == pytest.approx(z.lat, abs=1e-9)
    assert post.position().lon == pytest.approx(z.lon, abs=1e-9)


def test_update_shrinks_position_variance():
    cfg = FilterConfig()
    st = init_filter(GeoPoint(0.0, 0.0), cfg)
    post = update(st, GeoPoint(0.0, 0.0), cfg)
    assert post.p_pp < st.p_pp
    # velocity is unobserved by a single update
    assert post.p_vv == st.p_vv


def test_velocity_emerges_from_two_fixes():
    cfg = FilterConfig(q=0.0)
    z1 = GeoPoint(49.0, 8.0)
    z2 = GeoPoint(49.001, 8.0005)
    st = update(init_filter(z1, cfg), z1, cfg)
    st = step(st, z2, 1.0, cfg)
    assert st.v_n == pytest.approx(0.001 * M_PER_DEG, rel=1e-5)
    assert st.v_e == pytest.approx(0.0005 * M_PER_DEG * math.cos(math.radians(49.0)), rel=1e-5)
    assert st.position().lat == pytest.approx(z2.lat, abs=1e-8)


def test_step_is_predict_then_update():
    cfg = FilterConfig()
    st = update(init_filter(GeoPoint(49.0, 8.0), cfg), GeoPoint(49.0, 8.0), cfg)
    z = GeoPoint(49.0003, 8.0004)
    assert step(st, z, 1.0, cfg) == update(predict(st, 1.0, cfg), z, cfg)


def outcome(fn):
    """The state a call returns, or the message of the ValueError it raises."""
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


def test_step_checks_the_prediction_as_predict_does():
    # a huge velocity or covariance overflows the prediction: step raises
    # where update(predict(...)) does, with the same message, or returns its state
    cfg = FilterConfig()
    z = GeoPoint(49.0, 8.0)
    cases = [
        (state(v_e=5.0, p=(1e3, 10.0, 1e2)), 1.0),
        (state(p=(1e300, 1e300, 1e300)), 1e10),
        (state(v_e=1e300), 1e10),
    ]
    seen = []
    for st, dt in cases:
        got = outcome(lambda: step(st, z, dt, cfg))
        assert got == outcome(lambda: update(predict(st, dt, cfg), z, cfg))
        seen.append(got if isinstance(got, str) else "ok")
    assert seen == ["ok", "state must be finite", "state must be finite"]


def test_update_rejects_singular_innovation():
    # sigma_r**2 underflows to 0, and the prior holds no position variance
    cfg = FilterConfig(sigma_r=1e-300)
    st = state(p=(0.0, 0.0, 0.0))
    with pytest.raises(SingularInnovationError, match="innovation variance 0.0 is not positive"):
        update(st, GeoPoint(49.0, 8.0), cfg)


def test_covariance_stays_symmetric_psd():
    # one covariance held as three floats is symmetric by construction;
    # it stays positive semidefinite across a noisy track
    rng = np.random.default_rng(11)
    cfg = FilterConfig()
    st = init_filter(GeoPoint(49.0, 8.0), cfg)
    lat, lon = 49.0, 8.0
    for _ in range(300):
        lat += float(rng.normal(0, 1e-4))
        lon += float(rng.normal(0, 1e-4))
        st = step(st, GeoPoint(lat, lon), 1.0, cfg)
        assert st.p_pp > 0.0 and st.p_vv > 0.0
        assert np.linalg.eigvalsh([[st.p_pp, st.p_pv], [st.p_pv, st.p_vv]]).min() > 0.0


def test_noiseless_track_error_decays_to_zero():
    # exact constant-velocity fixes with q = 0: a deliberately offset prior
    # is pulled onto the track and stays there
    cfg = FilterConfig(q=0.0)
    truth = [(0.0, 18.0 * i) for i in range(12)]
    st = state(e=500.0, n=-500.0, p=(cfg.p0_scale, 0.0, cfg.p0_scale))
    errs = []
    for e, n in truth:
        st = step(st, fix(ORIGIN, e, n), 1.0, cfg)
        errs.append(math.hypot(st.e - e, st.n - n))

    for prev, cur in zip(errs[2:], errs[3:]):
        assert cur <= prev * (1 + 1e-12)
    assert errs[-1] < 1e-6


def test_uneven_gaps_with_exact_fixes_decay_to_zero():
    # exact fixes on a 12 m/s north-east track 1, 2 and 5 s apart, twice
    # over: the filter predicts across each measured gap, not one fixed step
    cfg = FilterConfig()
    t = np.cumsum([0.0, 1.0, 2.0, 5.0, 1.0, 2.0, 5.0])
    track = [fix(ORIGIN, 10.0 + 12.0 * s, -3.0 + 5.0 * s) for s in t]
    st = update(init_filter(track[0], cfg), track[0], cfg)
    errs = []
    for prev_t, cur_t, z in zip(t, t[1:], track[1:]):
        st = step(st, z, float(cur_t - prev_t), cfg)
        errs.append(haversine_m(st.position(), z))
    assert errs[-1] < 1e-6 and max(errs[2:]) < 1e-3
    assert (st.v_e, st.v_n) == pytest.approx((12.0, 5.0), rel=1e-6)
    # a gap of 0 s is still no time step
    with pytest.raises(ValueError, match="dt must be positive, got 0.0"):
        step(st, track[-1], 0.0, cfg)


def test_antimeridian_crossing_tracks_its_fixes():
    # lon 179.9996 -> 179.9998 -> -179.9998 at 0, 1 and 3 s is 0.0002 deg/s
    # due east across the antimeridian; a filter in degrees put the last
    # estimate at lon -120.3, 6,638 km off
    cfg = FilterConfig()
    fixes = [(0.0, GeoPoint(49.0, 179.9996)), (1.0, GeoPoint(49.0, 179.9998)), (3.0, GeoPoint(49.0, -179.9998))]
    st = update(init_filter(fixes[0][1], cfg), fixes[0][1], cfg)
    for (t0, _), (t1, z) in zip(fixes, fixes[1:]):
        st = step(st, z, t1 - t0, cfg)
        assert haversine_m(st.position(), z) < 1.0
    assert st.position().lon < -179.9
    # and on along the same line: the next second lands at -179.9996
    st = step(st, GeoPoint(49.0, -179.9996), 1.0, cfg)
    assert haversine_m(st.position(), GeoPoint(49.0, -179.9996)) < 1.0


@pytest.mark.parametrize("lat", [89.9, -89.9])
def test_filter_tracks_near_a_pole(lat):
    # 1 s fixes moving 10 m north-east (from the pole's view) at |lat| = 89.9,
    # where a degree of longitude is 194 m
    cfg = FilterConfig()
    origin = GeoPoint(lat, 30.0)
    track = [fix(origin, 7.0 * i, 7.0 * i) for i in range(8)]
    st = update(init_filter(track[0], cfg), track[0], cfg)
    for z in track[1:]:
        st = step(st, z, 1.0, cfg)
    assert haversine_m(st.position(), track[-1]) < 1e-3
    assert (st.v_e, st.v_n) == pytest.approx((7.0, 7.0), rel=1e-6)


def test_gain_limits():
    st = state(e=3.0, n=-2.0, v_e=1.0, v_n=-1.0, p=(100.0, 0.0, 100.0))
    z = fix(ORIGIN, 40.0, 30.0)

    # tiny measurement noise: the posterior sits on the measurement
    tight_cfg = FilterConfig(sigma_r=1e-6, q=1.24)
    tight = update(predict(st, 1.0, tight_cfg), z, tight_cfg)
    assert (tight.e, tight.n) == pytest.approx((40.0, 30.0), abs=1e-6)

    # huge measurement noise: the posterior keeps the prediction
    loose_cfg = FilterConfig(sigma_r=1e8, q=1.24)
    pred = predict(st, 1.0, loose_cfg)
    loose = update(pred, z, loose_cfg)
    assert (loose.e, loose.n) == pytest.approx((pred.e, pred.n), abs=1e-6)


def test_filter_beats_raw_measurements_on_noisy_track():
    # i.i.d. Gaussian position noise on a straight constant-velocity run:
    # by step 6 the filtered error must undercut the raw measurement error
    cfg = FilterConfig()
    sigma_m = 17.0  # the scale retrieval actually delivers
    rng = np.random.default_rng(77)

    meas_err = np.empty(1000)
    est_err = np.empty(1000)
    for trial in range(1000):
        st = None
        for i in range(6):
            t = np.array([0.0, 18.0 * i])
            z = t + rng.standard_normal(2) * sigma_m
            zp = fix(ORIGIN, *z)
            st = init_filter(zp, cfg) if st is None else step(st, zp, 1.0, cfg)
        meas_err[trial] = np.hypot(*(z - t))
        est = st.position()
        est_err[trial] = np.hypot(*(np.array(to_plane(ORIGIN, est.lat, est.lon)) - t))

    assert est_err.mean() < meas_err.mean()
