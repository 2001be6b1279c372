import math
import re

import numpy as np
import pytest

from vloc import kalman, pipeline
from vloc.database import ScanConfig, scan
from vloc.errors import EmptyCandidatesError, NoMatchError, SingularInnovationError
from vloc.geodesy import M_PER_DEG, GeoPoint, haversine_m
from vloc.kalman import FilterConfig, init_filter, step, update
from vloc.matching import DESCRIPTOR_DIM, DescriptorSet, MatchConfig
from vloc.pipeline import (
    ERRORS_CSV_HEADER,
    ErrorStats,
    Query,
    TraceStep,
    evaluate,
    export_report,
    localize_sequence,
)
from vloc.synthworld import T0_NS, WorldConfig, gen_queries, gen_world, position_at


@pytest.fixture(scope="module")
def world():
    cfg = WorldConfig(seed=123)
    return cfg, gen_world(cfg)


def run_default(world_cfg, db, start_s=2.0, steps=4):
    queries = gen_queries(db, T0_NS + int(start_s * 1e9), steps, 1.0, world_cfg)
    return queries, localize_sequence(
        db, queries, ScanConfig(window_s=20.0, exclusion_s=1.0), MatchConfig(), FilterConfig()
    )


def test_trace_shape_and_numbering(world):
    cfg, db = world
    queries, trace = run_default(cfg, db)
    assert len(trace) == 4
    assert [s.step for s in trace] == [1, 2, 3, 4]
    assert [s.query_ts for s in trace] == [q.timestamp_ns for q in queries]


def test_measurement_is_matched_geotag(world):
    cfg, db = world
    _, trace = run_default(cfg, db)
    for s in trace:
        frame = db.frame_by_id(s.matched_frame_id)
        assert s.measurement == frame.geotag


def test_first_estimate_equals_first_measurement(world):
    cfg, db = world
    _, trace = run_default(cfg, db)
    assert trace[0].estimate == trace[0].measurement


def test_errors_present_when_truth_known(world):
    cfg, db = world
    _, trace = run_default(cfg, db)
    for s in trace:
        assert s.truth is not None
        assert s.meas_err_m == pytest.approx(haversine_m(s.measurement, s.truth))
        assert s.est_err_m == pytest.approx(haversine_m(s.estimate, s.truth))
        assert s.meas_err_m > 0.0


def test_exclusion_keeps_matches_away_from_query(world):
    cfg, db = world
    queries, trace = run_default(cfg, db)
    for s in trace:
        frame = db.frame_by_id(s.matched_frame_id)
        assert abs(frame.timestamp_ns - s.query_ts) > int(1.0 * 1e9)


def test_no_exclusion_matches_the_nearest_frame(world):
    cfg, db = world
    queries = gen_queries(db, T0_NS + 2_000_000_000, 3, 1.0, cfg)
    trace = localize_sequence(db, queries, ScanConfig(), MatchConfig(), FilterConfig())
    for q, s in zip(queries, trace):
        frame = db.frame_by_id(s.matched_frame_id)
        assert frame.timestamp_ns == q.timestamp_ns
        assert s.meas_err_m == pytest.approx(0.0, abs=1e-9)


def test_empty_queries_rejected(world):
    cfg, db = world
    with pytest.raises(ValueError):
        localize_sequence(db, [], ScanConfig(), MatchConfig(), FilterConfig())


def test_no_match_raises(monkeypatch):
    rng = np.random.default_rng(40)
    cfg = WorldConfig(seed=3, duration_s=2.0)
    db = gen_world(cfg)
    # descriptors unrelated to every frame: matching finds nothing anywhere
    alien = rng.standard_normal((20, DESCRIPTOR_DIM)).astype(np.float32)
    alien /= np.linalg.norm(alien, axis=1, keepdims=True)
    q = Query(DescriptorSet(alien), T0_NS + 1_000_000_000, None)
    with pytest.raises(NoMatchError, match="step 1"):
        localize_sequence(db, [q], ScanConfig(), MatchConfig(), FilterConfig())

    # an exclusion wider than the drive leaves the first scan no candidate
    queries = gen_queries(db, T0_NS + 500_000_000, 3, 0.5, cfg)
    with pytest.raises(EmptyCandidatesError, match=r"^step 1: no candidate frames for query_ts=\d+ ") as caught:
        localize_sequence(db, queries, ScanConfig(exclusion_s=1e6), MatchConfig(), FilterConfig())
    assert type(caught.value) is EmptyCandidatesError

    # a later scan left with no candidate names its own step
    def empty_at_step_3(db, descriptors, query_ts, *args, center_ts=None):
        if query_ts == queries[2].timestamp_ns:
            raise EmptyCandidatesError("no candidate frames")
        return scan(db, descriptors, query_ts, *args, center_ts=center_ts)

    monkeypatch.setattr(pipeline, "scan", empty_at_step_3)
    with pytest.raises(EmptyCandidatesError, match="^step 3: no candidate frames$"):
        localize_sequence(db, queries, ScanConfig(), MatchConfig(), FilterConfig())


def test_a_filter_failure_names_its_step(monkeypatch):
    # a q this large takes the predicted covariance past float range over
    # the 1500 s between the two queries
    cfg = WorldConfig(duration_s=2000, db_hz=1, keypoints_per_frame=20)
    db = gen_world(cfg)
    queries = gen_queries(db, T0_NS + 100 * 10**9, 2, 1500.0, cfg)
    run = lambda: localize_sequence(db, queries, ScanConfig(window_s=float("inf")), MatchConfig(), FilterConfig(q=1e300))
    with pytest.raises(ValueError, match="^step 2: state must be finite$") as caught:
        run()
    assert type(caught.value) is ValueError and str(caught.value.__cause__) == "state must be finite"

    def singular(*args):
        raise SingularInnovationError("innovation variance 0.0 is not positive")

    monkeypatch.setattr(kalman, "step", singular)
    with pytest.raises(SingularInnovationError, match="^step 2: innovation variance 0.0 is not positive$"):
        run()


def exact_queries(db, indices):
    """Queries that are copies of the given frames, at their times, with their geotags as truth."""
    return [Query(db.frames[i].descriptors, db.frames[i].timestamp_ns, db.frames[i].geotag) for i in indices]


def test_uneven_query_gaps_are_tracked_exactly(world):
    # exact fixes at 0, 1, 2 and 5 s (10 Hz frames): the filter must predict
    # across the 3 s gap, not one fixed step
    _, db = world
    trace = localize_sequence(db, exact_queries(db, [10, 20, 30, 60]), ScanConfig(), MatchConfig(), FilterConfig())
    assert [s.meas_err_m for s in trace] == [0.0] * 4
    assert trace[-1].est_err_m < 1e-6


def test_velocity_is_per_second_at_any_query_spacing(world):
    cfg, db = world
    trace = localize_sequence(db, exact_queries(db, range(10, 35, 5)), ScanConfig(), MatchConfig(), FilterConfig())
    a, b = position_at(cfg, T0_NS), position_at(cfg, T0_NS + 1_000_000_000)
    assert trace[-1].vel_lat_dps == pytest.approx(b.lat - a.lat, rel=1e-6)
    assert trace[-1].vel_lon_dps == pytest.approx(b.lon - a.lon, rel=1e-6)


def test_a_drive_across_the_antimeridian_is_localized_end_to_end():
    # 18 m/s due east from lon 179.9995 at 49 N crosses 180 two seconds in;
    # queries from 1 s to 6 s match their own frames and the filter tracks them
    cfg = WorldConfig(start_lon=179.9995, heading_deg=90.0, seed=11)
    db = gen_world(cfg)
    assert db.frames[0].geotag.lon > 179.0 and db.frames[-1].geotag.lon < -179.0
    queries = gen_queries(db, T0_NS + 10**9, 6, 1.0, cfg)
    trace = localize_sequence(db, queries, ScanConfig(), MatchConfig(), FilterConfig())
    assert [db.frame_by_id(s.matched_frame_id).timestamp_ns for s in trace] == [q.timestamp_ns for q in queries]
    assert [s.meas_err_m for s in trace] == [0.0] * 6
    assert max(s.est_err_m for s in trace) < 1e-3
    assert trace[0].estimate.lon > 179.0 and trace[-1].estimate.lon < -179.0
    east_dps = cfg.speed_mps / (M_PER_DEG * math.cos(math.radians(cfg.start_lat)))
    assert trace[-1].vel_lon_dps == pytest.approx(east_dps, rel=1e-6)


@pytest.mark.parametrize("indices", [[10, 20, 20], [10, 20, 15]])
def test_non_increasing_query_timestamp_raises(world, indices):
    _, db = world
    with pytest.raises(ValueError, match="step 3"):
        localize_sequence(db, exact_queries(db, indices), ScanConfig(), MatchConfig(), FilterConfig())


def make_trace(meas_errs, est_errs):
    lat0 = 49.0
    steps = []
    for i, (me, ee) in enumerate(zip(meas_errs, est_errs)):
        truth = GeoPoint(lat0, 8.0)
        steps.append(
            TraceStep(
                step=i + 1,
                query_ts=i,
                matched_frame_id=i,
                measurement=GeoPoint(lat0 + me / 111_320.0, 8.0),
                estimate=GeoPoint(lat0 + ee / 111_320.0, 8.0),
                vel_lat_dps=0.0,
                vel_lon_dps=0.0,
                truth=truth,
                meas_err_m=me,
                est_err_m=ee,
            )
        )
    return tuple(steps)


def test_evaluate_means_and_stds():
    t1 = make_trace([10.0, 20.0], [10.0, 4.0])
    t2 = make_trace([30.0, 20.0], [10.0, 8.0])
    stats = evaluate([t1, t2])
    assert stats.n_traces == 2
    assert stats.n_steps == 2
    assert stats.mean_meas_m == pytest.approx([20.0, 20.0])
    assert stats.mean_est_m == pytest.approx([10.0, 6.0])
    assert stats.std_meas_m == pytest.approx([10.0, 0.0])
    assert stats.std_est_m == pytest.approx([0.0, 2.0])
    assert stats.final_mean_est_m == pytest.approx(6.0)
    assert stats.final_mean_meas_m == pytest.approx(20.0)


def test_evaluate_rejects_ragged_or_truthless():
    t1 = make_trace([10.0], [10.0])
    t2 = make_trace([10.0, 20.0], [10.0, 4.0])
    with pytest.raises(ValueError):
        evaluate([t1, t2])
    bare = TraceStep(
        step=1,
        query_ts=0,
        matched_frame_id=0,
        measurement=GeoPoint(49.0, 8.0),
        estimate=GeoPoint(49.0, 8.0),
        vel_lat_dps=0.0,
        vel_lon_dps=0.0,
    )
    with pytest.raises(ValueError):
        evaluate([(bare,)])
    with pytest.raises(ValueError):
        evaluate([])
    with pytest.raises(ValueError, match="evaluate needs non-empty traces"):
        evaluate([[]])


def test_export_report_writes_csv_and_svg(tmp_path):
    stats = evaluate([make_trace([10.0, 20.0, 15.0], [10.0, 5.0, 2.5])])
    csv_path, svg_path = export_report(stats, tmp_path)
    assert csv_path.name == "errors.csv"
    assert svg_path.name == "errors.svg"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(ERRORS_CSV_HEADER)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == 10.0
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 2
    # errors of 0 everywhere (a vehicle standing still) still get a y axis, up to 1
    _, svg_path = export_report(ErrorStats(*[np.zeros(3)] * 4, n_traces=1), tmp_path / "zero")
    ticks = re.findall(r'text-anchor="end">([^<]*)<', svg_path.read_text())
    assert ticks == ["0", "0.2", "0.4", "0.6", "0.8", "1"]
    empty = ErrorStats(*[np.empty(0)] * 4, n_traces=1)
    with pytest.raises(ValueError, match="cannot export empty statistics"):
        export_report(empty, tmp_path / "empty")
    assert not (tmp_path / "empty").exists()


def test_export_report_round_trips_float_text(tmp_path):
    stats = evaluate([make_trace([1.0 / 3.0], [2.0 / 7.0])])
    csv_path, _ = export_report(stats, tmp_path)
    row = csv_path.read_text().strip().splitlines()[1].split(",")
    assert float(row[1]) == stats.mean_meas_m[0]
    assert float(row[3]) == stats.mean_est_m[0]


def test_window_centers_on_previous_match(world, monkeypatch):
    # step 1 scans the whole database; each later step scans the window around the previous step's match
    cfg, db = world
    window_s = 3.0
    centers = []

    def recording_scan(*args, center_ts=None):
        centers.append(center_ts)
        return scan(*args, center_ts=center_ts)

    monkeypatch.setattr(pipeline, "scan", recording_scan)
    queries = gen_queries(db, T0_NS + int(2.5e9), 4, 1.0, cfg)
    trace = localize_sequence(
        db, queries, ScanConfig(window_s=window_s, exclusion_s=1.0), MatchConfig(), FilterConfig()
    )
    matched_ts = [db.frame_by_id(s.matched_frame_id).timestamp_ns for s in trace]
    assert centers == [None, *matched_ts[:-1]]
    for prev, ts in zip(matched_ts, matched_ts[1:]):
        assert abs(ts - prev) <= window_s * 1e9


def test_window_follows_the_vehicle_past_its_first_width():
    # 40 queries, 1 s apart from 10 s on a 100 s drive: by step 23 the
    # vehicle is 22 s past its first match, beyond a window fixed on it
    cfg = WorldConfig(seed=7, duration_s=100.0)
    db = gen_world(cfg)
    queries = gen_queries(db, T0_NS + 10 * 10**9, 40, 1.0, cfg)
    trace = localize_sequence(db, queries, ScanConfig(window_s=20.0), MatchConfig(), FilterConfig())
    # each query is a noisy copy of the frame captured at its own time
    assert [db.frame_by_id(s.matched_frame_id).timestamp_ns for s in trace] == [q.timestamp_ns for q in queries]


def test_narrow_window_reaches_the_last_frame(world):
    # a 2 s window following the vehicle to the end of the drive, where it
    # holds frames on one side of its center only
    cfg, db = world
    last = db.frames[-1]
    queries = gen_queries(db, last.timestamp_ns - 6 * 10**9, 7, 1.0, cfg)
    trace = localize_sequence(db, queries, ScanConfig(window_s=2.0), MatchConfig(), FilterConfig())
    assert trace[-1].matched_frame_id == last.frame_id
    assert trace[-1].meas_err_m == 0.0


def test_estimates_replay_through_filter(world):
    # the trace is retrieval plus a plain filter pass; replaying the recorded
    # measurements standalone must reproduce every estimate bit for bit
    cfg, db = world
    _, trace = run_default(cfg, db, steps=5)
    fcfg = FilterConfig()
    state = None
    for prev, s in zip([None, *trace], trace):
        if state is None:
            state = update(init_filter(s.measurement, fcfg), s.measurement, fcfg)
        else:
            state = step(state, s.measurement, (s.query_ts - prev.query_ts) / 1e9, fcfg)
        assert state.position() == s.estimate
        # the filter's m/s in degrees per second at its origin
        m_per_deg_lon = M_PER_DEG * math.cos(math.radians(state.origin.lat))
        assert (state.v_n / M_PER_DEG, state.v_e / m_per_deg_lon) == (s.vel_lat_dps, s.vel_lon_dps)
