import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vloc import synthworld
from vloc.database import Database, GeoFrame, ScanConfig
from vloc.geodesy import GeoPoint
from vloc.geodesy import M_PER_DEG, haversine_m
from vloc.kalman import FilterConfig
from vloc.matching import DESCRIPTOR_DIM, DescriptorSet, MatchConfig
from vloc.pipeline import evaluate
from vloc.synthworld import (
    T0_NS,
    WorldConfig,
    _run_trial,
    _trial_seed,
    gen_queries,
    gen_world,
    position_at,
    run_monte_carlo,
)


def test_world_config_validates():
    with pytest.raises(ValueError):
        WorldConfig(speed_mps=-1.0)
    with pytest.raises(ValueError):
        WorldConfig(db_hz=-1.0)
    with pytest.raises(ValueError):
        WorldConfig(landmark_overlap=1.5)
    with pytest.raises(ValueError):
        WorldConfig(distractor_fraction=-0.1)
    with pytest.raises(ValueError):
        WorldConfig(keypoints_per_frame=1)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        WorldConfig(seed=-1)
    with pytest.raises(ValueError, match="duration_s must be positive, got 0"):
        WorldConfig(duration_s=0)
    with pytest.raises(ValueError, match="query_noise_sigma must be non-negative, got -1"):
        WorldConfig(query_noise_sigma=-1)
    for field in ("speed_mps", "db_hz", "duration_s", "start_lat", "query_noise_sigma"):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                WorldConfig(**{field: value})
    with pytest.raises(ValueError, match="rounds to 0 ns"):
        WorldConfig(db_hz=3e9)


@pytest.mark.parametrize(
    "db_hz, duration_s",
    [
        (1e-300, 8.0),  # a period of 1e309 ns, inf as a float
        (1e-290, 8.0),  # a period past int64, with no second frame
        (1e-10, 1e12),  # 100 frames 1e19 ns apart
        (10.0, 1e12),  # 1e13 frames 0.1 s apart
        (1e300, 1e300),  # a frame count of inf
    ],
)
def test_world_config_rejects_frame_timestamps_past_int64(db_hz, duration_s):
    with pytest.raises(ValueError, match=re.escape(f"db_hz={db_hz} and duration_s={duration_s} put frame timestamps past the int64")):
        WorldConfig(db_hz=db_hz, duration_s=duration_s)


def test_world_config_takes_frame_timestamps_up_to_the_int64_edge():
    # 1 Hz frames: the last frame of a drive of n seconds is at T0_NS + (n - 1) s
    # (standing still, as a moving drive that long would leave the globe)
    n = (2**63 - 1 - T0_NS) // 10**9 + 1
    WorldConfig(db_hz=1.0, duration_s=float(n), speed_mps=0.0)
    with pytest.raises(ValueError, match="past the int64"):
        WorldConfig(db_hz=1.0, duration_s=float(n + 1), speed_mps=0.0)


@pytest.mark.parametrize(
    "start, heading_deg, edge, beyond, wrapped",
    [
        ((83.0, 8.4), 0.0, (90.0, 8.4), (83.5, 8.4), None),
        ((-83.0, 8.4), 180.0, (-90.0, 8.4), (-83.5, 8.4), None),
        ((0.0, 173.0), 90.0, (0.0, 180.0), (0.0, 173.5), (0.0, -179.5)),
        ((0.0, -173.0), -90.0, (0.0, -180.0), (0.0, -173.5), (0.0, 179.5)),
    ],
    ids=["north", "south", "east", "west"],
)
def test_world_config_takes_a_drive_up_to_the_edge_of_the_globe(start, heading_deg, edge, beyond, wrapped):
    # 1 degree per second for 7 s (8 frames at 1 Hz), from 7 degrees inside
    # an edge: the last frame lands on it. From half a degree further out a
    # drive past a pole is rejected, and one across the antimeridian wraps.
    kw = dict(speed_mps=M_PER_DEG, heading_deg=heading_deg, db_hz=1.0, duration_s=8.0)
    db = gen_world(WorldConfig(start_lat=start[0], start_lon=start[1], **kw))
    assert (db._table["lat"][-1], db._table["lon"][-1]) == pytest.approx(edge, abs=1e-12)
    assert abs(db._table["lat"][-1]) <= 90.0 and abs(db._table["lon"][-1]) <= 180.0
    if wrapped is None:
        message = f"speed_mps={M_PER_DEG}, heading_deg={heading_deg} and duration_s=8.0 from {beyond} take the drive to ("
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            WorldConfig(start_lat=beyond[0], start_lon=beyond[1], **kw)
        assert str(info.value).endswith("outside latitude [-90, 90] or longitude [-180, 180]")
    else:
        db = gen_world(WorldConfig(start_lat=beyond[0], start_lon=beyond[1], **kw))
        assert (db._table["lat"][-1], db._table["lon"][-1]) == pytest.approx(wrapped, abs=1e-12)
        assert np.all(np.abs(db._table["lon"]) <= 180.0)
        # every second is a degree on the ground, across the antimeridian too
        gaps = [haversine_m(a.geotag, b.geotag) for a, b in zip(db.frames, db.frames[1:])]
        assert gaps == pytest.approx([M_PER_DEG] * 7, rel=1e-9)


def test_world_config_rejects_a_start_off_the_globe():
    with pytest.raises(ValueError, match=re.escape("from (91.0, 8.4) take the drive to (91.0, 8.4), outside latitude")):
        WorldConfig(start_lat=91.0, speed_mps=0.0)


def test_gen_world_layout():
    cfg = WorldConfig(seed=1)
    db = gen_world(cfg)
    # 8 s at 10 Hz, one frame per period
    assert len(db) == 80
    period = round(1e9 / cfg.db_hz)
    for i, frame in enumerate(db.frames):
        assert frame.frame_id == i
        assert frame.timestamp_ns == T0_NS + i * period
        assert len(frame.descriptors) == cfg.keypoints_per_frame
    norms = np.linalg.norm(db.frames[0].descriptors.array, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-5)


def test_gen_world_is_deterministic():
    a = gen_world(WorldConfig(seed=9))
    b = gen_world(WorldConfig(seed=9))
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.descriptors.array, fb.descriptors.array)
    c = gen_world(WorldConfig(seed=10))
    assert not np.array_equal(a.frames[0].descriptors.array, c.frames[0].descriptors.array)


def test_landmarks_slide_linearly():
    cfg = WorldConfig(seed=2)
    db = gen_world(cfg)
    k = cfg.keypoints_per_frame
    fresh = k - round(k * cfg.landmark_overlap)
    a0 = db.frames[0].descriptors.array
    for d in (1, 5, 11, 20):
        ad = db.frames[d].descriptors.array
        shared = k - fresh * d
        # frame d drops the first fresh*d rows of frame 0 and appends new ones
        assert np.array_equal(a0[fresh * d :], ad[: shared])
        # and shares nothing beyond that block
        assert shared + fresh * d == k


def test_geotags_follow_straight_line():
    cfg = WorldConfig(seed=3)
    db = gen_world(cfg)
    lats = np.array([f.geotag.lat for f in db.frames])
    lons = np.array([f.geotag.lon for f in db.frames])
    dlat = np.diff(lats)
    dlon = np.diff(lons)
    assert np.allclose(dlat, dlat[0], rtol=0, atol=1e-12)
    assert np.allclose(dlon, dlon[0], rtol=0, atol=1e-12)
    # consecutive frames sit speed/db_hz apart on the ground: the drive is
    # laid out on haversine's own sphere, flat about its start
    gap = haversine_m(db.frames[0].geotag, db.frames[1].geotag)
    assert gap == pytest.approx(cfg.speed_mps / cfg.db_hz, rel=1e-6)


def test_position_at_matches_frame_geotags():
    cfg = WorldConfig(seed=4)
    db = gen_world(cfg)
    for frame in db.frames[:: 20]:
        p = position_at(cfg, frame.timestamp_ns)
        assert p == frame.geotag


def test_gen_queries_noise_free_copies():
    cfg = WorldConfig(seed=5, query_noise_sigma=0.0, distractor_fraction=0.0)
    db = gen_world(cfg)
    qs = gen_queries(db, T0_NS + 2_000_000_000, 2, 1.0, cfg)
    for q in qs:
        base = next(f for f in db.frames if f.timestamp_ns == q.timestamp_ns)
        assert np.array_equal(q.descriptors.array, base.descriptors.array)
        assert q.truth == base.geotag


def test_gen_queries_deterministic_and_noisy():
    cfg = WorldConfig(seed=6)
    db = gen_world(cfg)
    a = gen_queries(db, T0_NS + 2_000_000_000, 3, 1.0, cfg)
    b = gen_queries(db, T0_NS + 2_000_000_000, 3, 1.0, cfg)
    for qa, qb in zip(a, b):
        assert np.array_equal(qa.descriptors.array, qb.descriptors.array)
    base = db.frames[20].descriptors.array
    assert not np.array_equal(a[0].descriptors.array, base)


def test_gen_queries_rejects_out_of_range():
    cfg = WorldConfig(seed=7)
    db = gen_world(cfg)
    with pytest.raises(ValueError):
        gen_queries(db, T0_NS - 1_000_000_000, 1, 1.0, cfg)
    with pytest.raises(ValueError):
        gen_queries(db, T0_NS + 6_000_000_000, 5, 1.0, cfg)
    with pytest.raises(ValueError, match="need at least one query, got 0"):
        gen_queries(db, T0_NS, 0, 1.0, cfg)
    # a drive shorter than one frame period has no frames
    for empty in (gen_world(WorldConfig(duration_s=0.04)), Database([])):
        with pytest.raises(ValueError, match="needs a database with frames, got none"):
            gen_queries(empty, T0_NS, 1, 1.0, cfg)


@pytest.mark.parametrize("sigma", [1e38, 1e39])
def test_gen_queries_names_noise_past_float32_range(sigma):
    # WorldConfig takes any finite sigma; the noised rows overflowing
    # float32 (1e38), or sigma itself (1e39), name the setting, and no
    # RuntimeWarning (an error under the test run's filters) escapes
    cfg = WorldConfig(seed=7, query_noise_sigma=sigma)
    db = gen_world(cfg)
    with pytest.raises(ValueError) as caught:
        gen_queries(db, T0_NS, 2, 1.0, cfg)
    assert str(caught.value) == f"query 0: query_noise_sigma={sigma} takes its noised rows outside float32's range"


def frames_at(rng, timestamps, rows):
    """A database of one frame per timestamp, frame i of id i holding rows[i] random rows of its own."""
    return Database(
        GeoFrame(i, int(t), GeoPoint(49.0, 8.4), DescriptorSet(rng.standard_normal((k, DESCRIPTOR_DIM))))
        for i, (t, k) in enumerate(zip(timestamps, rows))
    )


def test_a_query_copies_the_frame_nearest_in_time_the_first_on_a_tie():
    # timestamps with repeats and gaps, a query at each nanosecond from the
    # first to the last; argmin of the distances is the reference, so the
    # first of the frames nearest in (timestamp, id) order on a tie
    cfg = WorldConfig(query_noise_sigma=0.0, distractor_fraction=0.0)
    rng = np.random.default_rng(70)
    cases = [np.array([0, 10, 10, 20])]
    cases += [np.sort(rng.integers(0, 40, size=int(rng.integers(1, 12)))) for _ in range(60)]
    for offsets in cases:
        ts = T0_NS + offsets
        db = frames_at(rng, ts, rng.integers(2, 5, size=len(ts)))
        queries = gen_queries(db, int(ts[0]), int(ts[-1] - ts[0]) + 1, 1e-9, cfg)
        for q in queries:
            want = db.frames[int(np.argmin(np.abs(ts - q.timestamp_ns)))]
            assert np.array_equal(q.descriptors.array, want.descriptors.array)


def test_gen_queries_takes_the_distractor_count_from_each_frame():
    # round(rows * distractor_fraction) per frame, not per keypoints_per_frame
    rng = np.random.default_rng(71)
    db = frames_at(rng, T0_NS + np.arange(4) * 10**9, [10, 10, 4, 30])
    cfg = WorldConfig(query_noise_sigma=0.0, distractor_fraction=0.3)
    queries = gen_queries(db, T0_NS, 4, 1.0, cfg)
    replaced = [int((q.descriptors.array != f.descriptors.array).any(axis=1).sum()) for q, f in zip(queries, db.frames)]
    assert replaced == [3, 3, 1, 9]
    assert len(gen_queries(db, T0_NS, 4, 1.0, WorldConfig())) == 4


def spawned_seeds(master_seed, trials):
    """(world_seed, start_seed) per trial from SeedSequence.spawn, as the seeds were first defined."""
    return [tuple(int(v) for v in c.generate_state(2)) for c in np.random.SeedSequence(master_seed).spawn(trials)]


def test_trial_seeds_unique_and_stable():
    a = [_trial_seed(0, i) for i in range(50)]
    assert a == [_trial_seed(0, i) for i in range(50)]
    assert len({ws for ws, _ in a}) == 50
    assert [_trial_seed(1, i) for i in range(50)] != a


@pytest.mark.parametrize("master_seed", [0, 1, 2**40 + 3])
def test_trial_seeds_on_demand_equal_spawned_ones(master_seed):
    # criterion 6's 1000 trials among them (master seed 0)
    assert [_trial_seed(master_seed, i) for i in range(1000)] == spawned_seeds(master_seed, 1000)


def test_run_monte_carlo_equals_evaluate_of_the_traces():
    world = WorldConfig(seed=5)
    scan_cfg = ScanConfig(window_s=20.0, exclusion_s=1.0)
    traces = [
        _run_trial(world, scan_cfg, MatchConfig(), FilterConfig(), 4, 1.0, ws, ss) for ws, ss in spawned_seeds(5, 20)
    ]
    want = evaluate(traces)
    got = run_monte_carlo(world, scan_cfg, MatchConfig(), FilterConfig(), trials=20, steps=4)
    assert got.n_traces == want.n_traces == 20
    for name in ("mean_meas_m", "std_meas_m", "mean_est_m", "std_est_m"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_run_monte_carlo_memory_does_not_grow_with_trials():
    # each trial keeps only its error row: 2 x steps float64, not its trace
    # or its seeds (about 4.3 KiB per trial when traces were kept)
    args = (WorldConfig(seed=9, keypoints_per_frame=8), ScanConfig(window_s=20.0), MatchConfig(), FilterConfig())
    peaks = {}
    for trials in (50, 200):
        tracemalloc.start()
        try:
            run_monte_carlo(*args, trials=trials, steps=6)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[200] - peaks[50]) / 150 < 512, peaks


def test_run_monte_carlo_smoke():
    stats = run_monte_carlo(
        WorldConfig(seed=8),
        ScanConfig(window_s=20.0, exclusion_s=1.0),
        MatchConfig(),
        FilterConfig(),
        trials=3,
        steps=4,
    )
    assert stats.n_traces == 3
    assert stats.n_steps == 4
    assert all(m > 0 for m in stats.mean_meas_m)
    assert all(np.isfinite(stats.mean_est_m))


def test_run_monte_carlo_rejects_bad_counts():
    with pytest.raises(ValueError):
        run_monte_carlo(
            WorldConfig(seed=8), ScanConfig(), MatchConfig(), FilterConfig(), trials=0
        )
    for period_s in (float("inf"), float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="period_s"):
            run_monte_carlo(WorldConfig(seed=8), ScanConfig(), MatchConfig(), FilterConfig(), trials=1, period_s=period_s)


def test_run_monte_carlo_rejects_steps_under_one_before_any_trial(monkeypatch):
    # without the check, 0 steps built a world and -1 reached numpy's "negative dimensions"
    monkeypatch.setattr(synthworld, "gen_world", lambda cfg: pytest.fail("a world was built"))
    for steps in (0, -1):
        with pytest.raises(ValueError, match=f"^steps must be positive, got {steps}$"):
            run_monte_carlo(WorldConfig(seed=8), ScanConfig(), MatchConfig(), FilterConfig(), trials=1, steps=steps)


def test_run_monte_carlo_rejects_a_period_under_1_ns_before_any_trial(monkeypatch):
    # 0.4 ns rounds to 0 ns and 0.6 ns puts queries 1 and 2 both at 1 ns
    monkeypatch.setattr(synthworld, "gen_world", lambda cfg: pytest.fail("a world was built"))
    for period_s in (4e-10, 6e-10):
        with pytest.raises(ValueError, match=f"period_s={period_s} is under the 1 ns resolution"):
            run_monte_carlo(WorldConfig(seed=8), ScanConfig(), MatchConfig(), FilterConfig(), trials=1, period_s=period_s)


def test_run_monte_carlo_rejects_a_short_drive_before_any_trial(monkeypatch):
    # 10**12 trials' error rows could not be allocated: the check comes first
    monkeypatch.setattr(synthworld, "gen_world", lambda cfg: pytest.fail("a world was built"))
    with pytest.raises(ValueError, match="too short for 100 queries"):
        run_monte_carlo(WorldConfig(seed=8), ScanConfig(), MatchConfig(), FilterConfig(), trials=10**12, steps=100)
    # a query count past float range
    with pytest.raises(ValueError, match=f"too short for {10**400} queries at 1.0 s spacing"):
        run_monte_carlo(WorldConfig(seed=8), ScanConfig(), MatchConfig(), FilterConfig(), trials=1, steps=10**400)
    # an exclusion margin that is infinite, past float range once in
    # nanoseconds, far past the drive, and wider than the 80-frame drive
    # leaves either side of 6 queries
    for exclusion_s in (float("inf"), 1e300, 1e12, 4.0):
        message = f"duration_s=8.0 at db_hz=10.0 too short for 6 queries at 1.0 s spacing with exclusion_s={exclusion_s}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_monte_carlo(WorldConfig(seed=8), ScanConfig(exclusion_s=exclusion_s), MatchConfig(), FilterConfig(), trials=1)


def test_import_loads_no_process_pool():
    # the harness runs its trials in the calling process
    src = str(Path(synthworld.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import vloc; print(sorted({{'multiprocessing', 'concurrent.futures'}} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
