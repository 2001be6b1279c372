import itertools
import math
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from candidates import columns
from vloc import database, matching
from vloc.database import (
    CSV_MANIFEST_HEADER,
    Database,
    GeoFrame,
    ScanConfig,
    ingest_csv,
    ingest_kitti,
    load_db,
    read_desc_file,
    save_db,
    scan,
    write_desc_file,
)
from vloc.errors import DatabaseFormatError, EmptyCandidatesError, IngestError
from vloc.geodesy import GeoPoint
from vloc.matching import _E_BYTES, DESCRIPTOR_DIM, DescriptorSet, MatchConfig, _counts, best_match
from vloc.kalman import FilterConfig
from vloc.synthworld import T0_NS, WorldConfig, _run_trial, _trial_seed, gen_queries, gen_world

# plain fixture coordinates for the 3-frame ingestion tests
FIXTURE_GEO = [
    (49.01494, 8.43413),
    (49.01500, 8.43429),
    (49.01489, 8.43398),
]
FIXTURE_STAMPS = [
    "2011-09-26 13:02:25.594360375",
    "2011-09-26 13:02:25.697858896",
    "2011-09-26 13:02:25.801318268",
]


def unit_rows(rng, n):
    a = rng.standard_normal((n, DESCRIPTOR_DIM)).astype(np.float32)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def make_frame(rng, fid, ts, lat=49.0, lon=8.0, k=8):
    return GeoFrame(fid, ts, GeoPoint(lat, lon), DescriptorSet(unit_rows(rng, k)))


def make_db(rng, n=5, period_ns=100_000_000):
    frames = [make_frame(rng, i, i * period_ns, 49.0 + i * 1e-4, 8.0 + i * 1e-4) for i in range(n)]
    return Database(frames, source="test", camera="cam0")


def v1_bytes(db):
    """A database in format version 1, which the package reads but no longer writes."""
    out = [struct.pack("<4sII", b"VLDB", 1, len(db))]
    for f in db:
        arr = f.descriptors.array
        out.append(struct.pack("<QqddI", f.frame_id, f.timestamp_ns, f.geotag.lat, f.geotag.lon, len(arr)))
        out.append(arr.astype("<f4").tobytes())
    return b"".join(out)


def v2_layout(raw):
    """Offsets of the frame table and the descriptor block in version-2 bytes."""
    count, rows, camera_len = struct.unpack_from("<IQI", raw, 8)
    table = 24 + camera_len
    return table, table + 48 * count


def owned_copy(db):
    """The same frames, each holding a copy of its rows (Database packs copies) rather than rows it shares."""
    return Database(list(db), source=db.source, camera=db.camera)


def write_kitti_tree(root, stamps, coords, descriptor_sets):
    (root / "oxts" / "data").mkdir(parents=True)
    (root / "descriptors").mkdir()
    (root / "oxts" / "timestamps.txt").write_text("".join(s + "\n" for s in stamps))
    for i, ((lat, lon), ds) in enumerate(zip(coords, descriptor_sets)):
        # oxts rows carry far more fields; only lat/lon lead
        extras = "0.0 " * 28
        (root / "oxts" / "data" / f"{i:010d}.txt").write_text(f"{lat} {lon} {extras}\n")
        write_desc_file(root / "descriptors" / f"{i:010d}.desc", GeoFrame(i, 0, GeoPoint(lat, lon), ds))


def test_database_sorts_by_timestamp():
    rng = np.random.default_rng(20)
    frames = [make_frame(rng, 2, 300), make_frame(rng, 0, 100), make_frame(rng, 1, 200)]
    db = Database(frames)
    assert [f.frame_id for f in db.frames] == [0, 1, 2]
    assert [f.timestamp_ns for f in db.frames] == [100, 200, 300]


def test_database_rejects_duplicate_ids():
    rng = np.random.default_rng(21)
    with pytest.raises(ValueError, match="duplicate"):
        Database([make_frame(rng, 1, 100), make_frame(rng, 1, 200)])


def test_database_rejects_timestamps_outside_int64():
    rng = np.random.default_rng(21)
    for ts in (2**63, -(2**63) - 1):
        with pytest.raises(ValueError, match="frame 4: timestamp_ns"):
            Database([make_frame(rng, 1, 100), make_frame(rng, 4, ts)])


def test_frame_rejects_ids_outside_uint64():
    rng = np.random.default_rng(21)
    for fid in (-1, 2**64):
        with pytest.raises(ValueError, match=f"frame_id {fid} outside the uint64 range"):
            make_frame(rng, fid, 0)


def test_frame_by_id():
    rng = np.random.default_rng(22)
    db = make_db(rng)
    assert db.frame_by_id(3).timestamp_ns == 300_000_000
    with pytest.raises(KeyError):
        db.frame_by_id(99)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    db = make_db(rng, n=4)
    path = tmp_path / "db.vldb"
    save_db(db, path)
    loaded = load_db(path)
    assert len(loaded) == len(db)
    for a, b in zip(db.frames, loaded.frames):
        assert a.frame_id == b.frame_id
        assert a.timestamp_ns == b.timestamp_ns
        assert a.geotag == b.geotag
        assert np.array_equal(a.descriptors.array, b.descriptors.array)


def test_save_load_empty_frame(tmp_path):
    frame = GeoFrame(0, 0, GeoPoint(0.0, 0.0), DescriptorSet.empty())
    path = tmp_path / "empty.vldb"
    save_db(Database([frame]), path)
    loaded = load_db(path)
    assert len(loaded.frames[0].descriptors) == 0


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.vldb"
    path.write_bytes(b"NOPE" + bytes(8))
    with pytest.raises(DatabaseFormatError, match=f"^{re.escape(str(path))}: bad magic b'NOPE', not a descriptor database$"):
        load_db(path)


def test_load_rejects_bad_version(tmp_path):
    rng = np.random.default_rng(24)
    path = tmp_path / "v9.vldb"
    for raw in (v1_bytes(make_db(rng, n=1)), None):
        if raw is None:
            save_db(make_db(rng, n=1), path)
            raw = path.read_bytes()
        raw = bytearray(raw)
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(DatabaseFormatError, match=f"^{re.escape(str(path))}: unsupported format version 9$"):
            load_db(path)


def test_read_desc_file_errors_start_with_its_path(tmp_path):
    rng = np.random.default_rng(24)
    desc = tmp_path / "frame.desc"
    write_desc_file(desc, make_frame(rng, 7, 1, 48.5, 8.5, k=3))
    raw = desc.read_bytes()
    desc.write_bytes(raw[:20])
    with pytest.raises(DatabaseFormatError) as err:
        read_desc_file(desc)
    assert str(err.value) == f"{desc}: truncated file: expected 36 bytes for frame header, got 20"
    desc.write_bytes(raw[:16] + np.float64(100.0).tobytes() + raw[24:])
    with pytest.raises(DatabaseFormatError) as err:
        read_desc_file(desc)
    assert str(err.value) == f"{desc}: frame 7: latitude 100.0 outside [-90, 90]"


def test_load_rejects_truncation_and_trailing(tmp_path):
    rng = np.random.default_rng(25)
    path = tmp_path / "t.vldb"
    raw = v1_bytes(make_db(rng, n=2))
    cuts = {
        7: "expected 12 bytes for header, got 7",
        len(raw) - 7: f"expected {8 * DESCRIPTOR_DIM * 4} bytes for descriptors of frame 1, got {8 * DESCRIPTOR_DIM * 4 - 7}",
    }
    for cut, message in cuts.items():
        path.write_bytes(raw[:cut])
        with pytest.raises(DatabaseFormatError) as err:
            load_db(path)
        assert str(err.value) == f"{path}: truncated file: {message}"
    path.write_bytes(raw + b"\x00")
    with pytest.raises(DatabaseFormatError) as err:
        load_db(path)
    assert str(err.value) == f"{path}: trailing bytes after last frame"


def test_load_rejects_truncated_or_padded_v2(tmp_path):
    rng = np.random.default_rng(25)
    path = tmp_path / "t.vldb"
    save_db(make_db(rng, n=3), path)
    raw = path.read_bytes()
    table, block = v2_layout(raw)
    row = DESCRIPTOR_DIM * 4
    cuts = {
        20: "12 bytes for header",
        table - 2: "4 bytes for the camera name",
        table + 48 + 7: "frame table holds 1 of 3 frame records",
        block: "frame 0 needs rows up to 8, but the descriptor block holds 0 of",
        block + 16 * row + 3: f"frame 2 needs rows up to 24, but the descriptor block holds {16 * row + 3} of {24 * row} bytes",
        len(raw) - 1: "frame 2 needs rows up to 24",
    }
    for cut, message in cuts.items():
        path.write_bytes(raw[:cut])
        with pytest.raises(DatabaseFormatError, match="truncated") as err:
            load_db(path)
        assert message in str(err.value)
        assert str(path) in str(err.value)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(DatabaseFormatError, match=f"{path}: trailing bytes "):
        load_db(path)


def test_desc_file_round_trip(tmp_path):
    rng = np.random.default_rng(26)
    frame = make_frame(rng, 7, 123456789, 48.5, 8.5, k=3)
    path = tmp_path / "frame.desc"
    write_desc_file(path, frame)
    back = read_desc_file(path)
    assert back.frame_id == 7
    assert back.timestamp_ns == 123456789
    assert back.geotag == frame.geotag
    assert np.array_equal(back.descriptors.array, frame.descriptors.array)


def test_desc_file_rejects_oversized_count_and_bad_values(tmp_path):
    rng = np.random.default_rng(30)
    path = tmp_path / "frame.desc"
    write_desc_file(path, make_frame(rng, 7, 1, 48.5, 8.5, k=3))
    raw = path.read_bytes()
    # k sits after id/ts/lat/lon; the file holds 3 rows, not 2**32 - 1
    path.write_bytes(raw[:32] + (2**32 - 1).to_bytes(4, "little") + raw[36:])
    with pytest.raises(DatabaseFormatError, match="frame 7"):
        read_desc_file(path)
    # a latitude of 100 degrees, then a non-finite component
    path.write_bytes(raw[:16] + np.float64(100.0).tobytes() + raw[24:])
    with pytest.raises(DatabaseFormatError, match="latitude"):
        read_desc_file(path)
    path.write_bytes(raw[:36] + np.float32(np.nan).tobytes() + raw[40:])
    with pytest.raises(DatabaseFormatError, match="finite"):
        read_desc_file(path)


def test_scan_respects_window():
    rng = np.random.default_rng(27)
    db = make_db(rng, n=20)
    query = DescriptorSet(db.frames[10].descriptors.array)
    center_ts = db.frames[10].timestamp_ns
    frame, count = scan(db, query, center_ts, ScanConfig(window_s=0.15), MatchConfig(), center_ts=center_ts)
    assert abs(frame.timestamp_ns - center_ts) <= int(0.15 * 1e9)
    assert frame.frame_id == 10
    assert count == len(query)


def test_scan_exclusion_removes_boundary():
    rng = np.random.default_rng(28)
    db = make_db(rng, n=20)  # 0.1 s spacing
    target = db.frames[10]
    query = DescriptorSet(target.descriptors.array)
    # 0.2 s radius: frames 8..12 are gone, including the exact boundary
    cfg = ScanConfig(exclusion_s=0.2)
    frame, _ = scan(db, query, target.timestamp_ns, cfg, MatchConfig())
    assert abs(frame.timestamp_ns - target.timestamp_ns) > int(0.2 * 1e9)


def test_scan_filters_like_a_list_filter_at_every_boundary(monkeypatch):
    # frames near 1.5e18 ns, where a float64 is only 256 ns fine, at, one
    # inside and one outside each radius of a center; the window's radius,
    # 123456789.1234 ns, is not a whole number of nanoseconds
    t0 = 1_500_000_000_000_000_000
    window_s, exclusion_s = 0.1234567891234, 0.05
    radii = [math.floor(window_s * 1e9), math.floor(exclusion_s * 1e9), 0]
    offsets = sorted({sign * (r + d) for r in radii for d in (-1, 0, 1) for sign in (-1, 1)})
    frames = [GeoFrame(i, t0 + off, GeoPoint(0.0, 0.0), DescriptorSet.empty()) for i, off in enumerate(offsets)]
    db = Database(frames)
    seen = []

    def record(query, candidates, cfg):
        seen.append(candidates.ids.tolist())
        return int(candidates.ids[0]), 0

    monkeypatch.setattr(database, "best_match", record)
    # every frame's time and its neighbours, and times outside the drive
    times = sorted({f.timestamp_ns + d for f in frames for d in (-1, 0, 1)} | {t0 - 10**9, t0 + 10**9, 0})
    query = DescriptorSet.empty()
    for win in (window_s, 1e-9, float("inf")):
        # an exclusion under 1 ns drops only the frames at the query's own nanosecond
        for excl in (0.0, 1e-10, exclusion_s, 1e300):
            cfg = ScanConfig(window_s=win, exclusion_s=excl)
            for center in [None] + times[::3]:
                for query_ts in times[::5]:
                    want = [
                        f.frame_id
                        for f in frames
                        if (center is None or abs(f.timestamp_ns - center) <= win * 1e9)
                        and (excl == 0 or abs(f.timestamp_ns - query_ts) > excl * 1e9)
                    ]
                    if not want:
                        with pytest.raises(EmptyCandidatesError):
                            scan(db, query, query_ts, cfg, MatchConfig(), center_ts=center)
                        continue
                    scan(db, query, query_ts, cfg, MatchConfig(), center_ts=center)
                    assert seen.pop() == want


def traced_scan(*args, **kwargs):
    """scan(*args, **kwargs) and its traced peak.

    This thread's scratch product buffer is freed first, so the scan
    allocates it inside the trace whatever ran before it in the process.
    """
    matching._scratch.product = None
    tracemalloc.start()
    try:
        frame, count = scan(*args, **kwargs)
        return frame, count, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_unwindowed_scan_of_a_loaded_drive_has_bounded_memory(tmp_path):
    # 2000 frames of 64 keypoints: one product over all of them would be
    # 32 MiB, many times what the chunked scan holds at once. Each frame
    # owns its rows, as ingested frames do; a drive's shared pool would
    # load as a few thousand rows, all in one chunk
    cfg = WorldConfig(duration_s=200.0, keypoints_per_frame=64)
    world = gen_world(cfg)
    query = gen_queries(world, T0_NS + 100 * 10**9, 1, 1.0, cfg)[0]
    save_db(owned_copy(world), tmp_path / "drive.vldb")
    del world
    db = load_db(tmp_path / "drive.vldb")
    assert len(db) == 2000 and len(db._block) == 2000 * 64 and np.shares_memory(db.frames[0].descriptors.array, db._block.array)
    frame, count, peak = traced_scan(db, query.descriptors, query.timestamp_ns, ScanConfig(), MatchConfig())
    assert frame.timestamp_ns == query.timestamp_ns and count > 0
    assert peak <= 3 * _E_BYTES


def test_scan_of_a_loaded_drive_holds_no_more_than_before(tmp_path):
    # 2000 frames of 200 keypoints, each owning its rows, unwindowed. With
    # tau2 <= 0 the gate's bound screens in nearly every entry, so the
    # per-entry arrays grow with the chunk. The bounds are the traced peaks
    # of the full-segment top-2 this scan replaced, measured the same way
    # (57.8 and 12.6 MiB)
    cfg = WorldConfig(duration_s=200.0)
    world = gen_world(cfg)
    query = gen_queries(world, T0_NS + 100 * 10**9, 1, 1.0, cfg)[0]
    save_db(owned_copy(world), tmp_path / "drive.vldb")
    del world
    db = load_db(tmp_path / "drive.vldb")
    assert len(db._block) == 2000 * 200 and np.shares_memory(db.frames[0].descriptors.array, db._block.array)
    for tau2, bound_mib in ((-0.5, 57.9), (MatchConfig().tau2, 12.7)):
        frame, count, peak = traced_scan(db, query.descriptors, query.timestamp_ns, ScanConfig(), MatchConfig(tau2=tau2))
        assert frame.timestamp_ns == query.timestamp_ns and count > 0
        assert peak <= bound_mib * 2**20, f"tau2={tau2}: traced peak {peak / 2**20:.1f} MiB"


def test_scan_of_a_synthetic_drive_holds_no_more_than_before():
    # all 80 frames of a synthetic drive, overlapping windows of one pool,
    # with the 1 s exclusion gap. The bounds are the traced peaks of the
    # all-pairs range search and match matrix this scan replaced, measured
    # the same way (6.28 and 1.78 MiB)
    cfg = WorldConfig()
    for tau2, bound_mib in ((-0.5, 6.3), (MatchConfig().tau2, 1.8)):
        world = gen_world(cfg)
        query = gen_queries(world, T0_NS + 4 * 10**9, 1, 1.0, cfg)[0]
        assert len(world) == 80
        frame, count, peak = traced_scan(world, query.descriptors, query.timestamp_ns, ScanConfig(exclusion_s=1.0), MatchConfig(tau2=tau2))
        assert abs(frame.timestamp_ns - query.timestamp_ns) > 10**9 and count > 0
        assert peak <= bound_mib * 2**20, f"tau2={tau2}: traced peak {peak / 2**20:.2f} MiB"


def test_windowed_scan_of_a_drive_compares_few_of_its_columns(monkeypatch):
    # a 20 s window of a 100 s drive: the query's correspondences sit in
    # the few hundred rows of its source frame and its neighbours, so the
    # per-row compare runs on a small share of the columns multiplied
    cols = {"product": 0, "compared": 0}
    screen = matching._screen

    def counted(p, fnorms, bound):
        cols["product"] += p.shape[0]
        with mock.patch.object(np, "greater_equal", wraps=np.greater_equal) as ge:
            out = screen(p, fnorms, bound)
        cols["compared"] += sum(call.args[0].shape[0] for call in ge.call_args_list)
        return out

    cfg = WorldConfig(duration_s=100.0)
    db = gen_world(cfg)
    first, second = gen_queries(db, T0_NS + 50 * 10**9, 2, 1.0, cfg)
    center, _ = scan(db, first.descriptors, first.timestamp_ns, ScanConfig(), MatchConfig())
    monkeypatch.setattr(matching, "_screen", counted)
    frame, count = scan(db, second.descriptors, second.timestamp_ns, ScanConfig(window_s=20.0), MatchConfig(), center_ts=center.timestamp_ns)
    assert frame.timestamp_ns == second.timestamp_ns and count > 0
    assert 0 < cols["compared"] <= 0.1 * cols["product"], cols


def test_generated_drives_settle_every_screened_entry_once(monkeypatch):
    # a generated drive scanned unwindowed, then windowed around the first
    # match, and criterion-6 trials under their 1 s exclusion: every query
    # row holding a screened entry holds one in each frame holding it, so
    # the lone-entry pass settles every entry and no (row, frame) pair is
    # formed
    entries = []
    settle = matching._settle_lone

    def every_entry_settled(flat, *args):
        out = settle(flat, *args)
        assert len(out[0]) == 0, f"{len(out[0])} of {len(flat)} entries left for the pairs"
        entries.append(len(flat))
        return out

    monkeypatch.setattr(matching, "_settle_lone", every_entry_settled)
    monkeypatch.setattr(matching, "_held_pairs", lambda *a: pytest.fail("a (row, frame) pair was formed"))
    cfg = WorldConfig(duration_s=60.0, seed=3)
    db = gen_world(cfg)
    queries = gen_queries(db, T0_NS + 30 * 10**9, 4, 1.0, cfg)
    first, count = scan(db, queries[0].descriptors, queries[0].timestamp_ns, ScanConfig(), MatchConfig())
    assert first.timestamp_ns == queries[0].timestamp_ns and count > 0
    for q in queries[1:]:
        frame, _ = scan(db, q.descriptors, q.timestamp_ns, ScanConfig(window_s=20.0), MatchConfig(), center_ts=first.timestamp_ns)
        assert frame.timestamp_ns == q.timestamp_ns
    drive = len(entries)
    assert drive >= 4
    for i in range(5):
        trace = _run_trial(WorldConfig(), ScanConfig(window_s=20.0, exclusion_s=1.0), MatchConfig(), FilterConfig(), 6, 1.0, *_trial_seed(0, i))
        assert len(trace) == 6
    assert len(entries) >= drive + 30 and min(entries) > 0


def test_scan_empty_candidates():
    rng = np.random.default_rng(29)
    db = make_db(rng, n=3)
    query = DescriptorSet(db.frames[0].descriptors.array)
    cfg = ScanConfig(exclusion_s=10.0)
    with pytest.raises(EmptyCandidatesError):
        scan(db, query, db.frames[0].timestamp_ns, cfg, MatchConfig())


def test_scan_config_validates():
    with pytest.raises(ValueError):
        ScanConfig(window_s=-1.0)
    with pytest.raises(ValueError):
        ScanConfig(exclusion_s=-1.0)
    with pytest.raises(ValueError):
        ScanConfig(exclusion_s=float("nan"))
    # inf, not None, is the whole database; 0, not None, is no exclusion
    for bad in ({"window_s": None}, {"exclusion_s": None}):
        with pytest.raises(TypeError):
            ScanConfig(**bad)


def test_ingest_kitti_fixture(tmp_path):
    rng = np.random.default_rng(30)
    sets = [DescriptorSet(unit_rows(rng, 4)) for _ in FIXTURE_GEO]
    write_kitti_tree(tmp_path, FIXTURE_STAMPS, FIXTURE_GEO, sets)
    db = ingest_kitti(tmp_path)
    assert len(db) == 3
    for frame, (lat, lon) in zip(db.frames, FIXTURE_GEO):
        assert frame.geotag.lat == lat
        assert frame.geotag.lon == lon
    # timestamps preserve order and sub-second digits
    deltas = np.diff([f.timestamp_ns for f in db.frames])
    assert (deltas > 0).all()
    assert db.frames[0].timestamp_ns % 1_000_000_000 == 594_360_375


def test_ingest_kitti_count_mismatch(tmp_path):
    rng = np.random.default_rng(31)
    sets = [DescriptorSet(unit_rows(rng, 4)) for _ in FIXTURE_GEO]
    write_kitti_tree(tmp_path, FIXTURE_STAMPS + ["2011-09-26 13:02:25.901000000"], FIXTURE_GEO, sets)
    with pytest.raises(IngestError, match="count"):
        ingest_kitti(tmp_path)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda root: (root / "descriptors" / "0000000001.desc").unlink(), "frame 0000000001: an oxts record but no descriptor file"),
        (
            lambda root: (root / "descriptors" / "0000000003.desc").write_bytes((root / "descriptors" / "0000000000.desc").read_bytes()),
            "frame 0000000003: a descriptor file but no oxts record",
        ),
    ],
    ids=["missing-desc", "extra-desc"],
)
def test_ingest_kitti_names_a_frame_on_one_side_only(tmp_path, change, message):
    rng = np.random.default_rng(31)
    write_kitti_tree(tmp_path, FIXTURE_STAMPS, FIXTURE_GEO, [DescriptorSet(unit_rows(rng, 4)) for _ in FIXTURE_GEO])
    change(tmp_path)
    with pytest.raises(IngestError, match=f"^{message}$"):
        ingest_kitti(tmp_path)


def test_ingest_kitti_missing_dirs(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest_kitti(tmp_path / "nope")
    (tmp_path / "oxts").mkdir()
    (tmp_path / "oxts" / "timestamps.txt").write_text("2011-09-26 13:02:25.594360375\n")
    with pytest.raises(FileNotFoundError):
        ingest_kitti(tmp_path)


def test_ingest_kitti_bad_oxts(tmp_path):
    # each bad record fails naming its frame
    rng = np.random.default_rng(32)
    sets = [DescriptorSet(unit_rows(rng, 4)) for _ in FIXTURE_GEO]
    cases = [
        ("data/0000000001.txt", "not-a-number 8.4", r"frame 0000000001: non-numeric lat/lon in 0000000001\.txt$"),
        ("data/0000000001.txt", "49.0", "frame 0000000001: oxts record has 1 fields, need at least 2$"),
        ("data/0000000002.txt", "91.0 8.4", r"frame 0000000002: latitude 91\.0 outside \[-90, 90\]$"),
        ("data/0000000002.txt", "49.0 181.0", r"frame 0000000002: longitude 181\.0 outside \[-180, 180\]$"),
        ("timestamps.txt", "\n".join([FIXTURE_STAMPS[0], "2011-09-26 25:02:25.6", FIXTURE_STAMPS[2]]), "frame 0000000001: bad timestamp '2011-09-26 25:02:25.6'$"),
    ]
    for i, (name, text, message) in enumerate(cases):
        root = tmp_path / str(i)
        write_kitti_tree(root, FIXTURE_STAMPS, FIXTURE_GEO, sets)
        (root / "oxts" / name).write_text(text + "\n")
        with pytest.raises(IngestError, match=f"^{message}"):
            ingest_kitti(root)
    # a record that cannot be read: a directory in the file's place
    root = tmp_path / "unreadable"
    write_kitti_tree(root, FIXTURE_STAMPS, FIXTURE_GEO, sets)
    record = root / "oxts" / "data" / "0000000001.txt"
    record.unlink()
    record.mkdir()
    with pytest.raises(IngestError, match=rf"^frame 0000000001: \[Errno 21\] Is a directory: '{re.escape(str(record))}'$"):
        ingest_kitti(root)


@pytest.mark.parametrize(
    "name, line, message",
    [("timestamps.txt", 1, "timestamps.txt:2: "), ("data/0000000001.txt", 0, "0000000001.txt:1: ")],
)
def test_ingest_kitti_names_the_file_of_text_that_is_not_utf8(tmp_path, name, line, message):
    rng = np.random.default_rng(32)
    write_kitti_tree(tmp_path, FIXTURE_STAMPS, FIXTURE_GEO, [DescriptorSet(unit_rows(rng, 4)) for _ in FIXTURE_GEO])
    path = tmp_path / "oxts" / name
    lines = path.read_bytes().split(b"\n")
    lines[line] += b" \xff"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(IngestError, match=f"^{re.escape(message)}not UTF-8: invalid start byte at byte 0xff$"):
        ingest_kitti(tmp_path)


@pytest.mark.parametrize("frac", ["-5", "+5", "1_5", " 5", "\u0663"])
def test_ingest_kitti_rejects_a_fraction_that_is_not_ascii_digits(tmp_path, frac):
    # int() takes each of these: ".-5" would put frame 1 at 13:02:24.95, before frame 0
    rng = np.random.default_rng(32)
    stamps = [FIXTURE_STAMPS[0], f"2011-09-26 13:02:25.{frac}", FIXTURE_STAMPS[2]]
    write_kitti_tree(tmp_path, FIXTURE_STAMPS, FIXTURE_GEO, [DescriptorSet(unit_rows(rng, 4)) for _ in FIXTURE_GEO])
    (tmp_path / "oxts" / "timestamps.txt").write_bytes("\n".join(stamps).encode())
    with pytest.raises(IngestError, match=f"^{re.escape(f'frame 0000000001: bad timestamp {stamps[1]!r}')}$"):
        ingest_kitti(tmp_path)


def test_ingest_kitti_reads_nine_digit_short_and_empty_fractions(tmp_path):
    rng = np.random.default_rng(32)
    stamps = ["2011-09-26 13:02:25.594360375", "2011-09-26 13:02:26.6", "2011-09-26 13:02:27.", "2011-09-26 13:02:28"]
    coords = [(49.0, 8.4 + i * 1e-4) for i in range(4)]
    write_kitti_tree(tmp_path, stamps, coords, [DescriptorSet(unit_rows(rng, 4)) for _ in coords])
    base = 1_317_042_145 * 10**9  # 2011-09-26 13:02:25 UTC
    assert ingest_kitti(tmp_path)._table["timestamp_ns"].tolist() == [base + 594_360_375, base + 1_600_000_000, base + 2 * 10**9, base + 3 * 10**9]


@pytest.mark.parametrize("stem", ["1" + "0" * 20, "x1"])
def test_ingest_kitti_rejects_frame_indices_outside_the_file_format(tmp_path, stem):
    rng = np.random.default_rng(32)
    write_kitti_tree(tmp_path, FIXTURE_STAMPS[:1], FIXTURE_GEO[:1], [DescriptorSet(unit_rows(rng, 4))])
    for sub, ext in (("oxts/data", "txt"), ("descriptors", "desc")):
        (tmp_path / sub / f"{0:010d}.{ext}").rename(tmp_path / sub / f"{stem}.{ext}")
    with pytest.raises(IngestError, match=f"frame {stem}: file name is not a frame index"):
        ingest_kitti(tmp_path)


def test_ingest_kitti_pairs_each_timestamp_with_its_frame_in_numeric_order(tmp_path):
    # unpadded indices 0-11, whose string order (0, 1, 10, 11, 2, ...) is
    # not their frame order; line i of timestamps.txt is frame i, 1 s apart
    rng = np.random.default_rng(34)
    coords = [(49.0 + i * 1e-4, 8.0) for i in range(12)]
    stamps = [f"2011-09-26 13:02:{25 + i}.5" for i in range(12)]
    write_kitti_tree(tmp_path, stamps, coords, [DescriptorSet(unit_rows(rng, 4)) for _ in coords])
    for sub, ext in (("oxts/data", "txt"), ("descriptors", "desc")):
        for i in range(12):
            (tmp_path / sub / f"{i:010d}.{ext}").rename(tmp_path / sub / f"{i}.{ext}")
    db = ingest_kitti(tmp_path)
    t0 = db.frames[0].timestamp_ns
    assert [(f.frame_id, f.timestamp_ns - t0, (f.geotag.lat, f.geotag.lon)) for f in db] == [
        (i, i * 10**9, coords[i]) for i in range(12)
    ]


def test_ingest_kitti_rejects_two_file_names_of_one_frame_index(tmp_path):
    rng = np.random.default_rng(35)
    write_kitti_tree(tmp_path, FIXTURE_STAMPS, FIXTURE_GEO, [DescriptorSet(unit_rows(rng, 4)) for _ in FIXTURE_GEO])
    for sub, ext in (("oxts/data", "txt"), ("descriptors", "desc")):
        (tmp_path / sub / f"1.{ext}").write_bytes((tmp_path / sub / f"{2:010d}.{ext}").read_bytes())
        (tmp_path / sub / f"{2:010d}.{ext}").unlink()
        (tmp_path / sub / f"01.{ext}").write_bytes((tmp_path / sub / f"{1:010d}.{ext}").read_bytes())
    with pytest.raises(IngestError, match="^frames 0000000001 and 01: two file names for frame index 1$"):
        ingest_kitti(tmp_path)


def test_ingest_of_no_frames_is_an_empty_database(tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(",".join(CSV_MANIFEST_HEADER) + "\n")
    write_kitti_tree(tmp_path / "kitti", [], [], [])
    query = DescriptorSet(unit_rows(np.random.default_rng(45), 3))
    # and so is one built of no frames, whose block packs no rows
    for name, db, camera in (("csv", ingest_csv(manifest), ""), ("kitti", ingest_kitti(tmp_path / "kitti"), "kitti"), ("built", Database([]), "")):
        assert (len(db), list(db), db.camera, len(db._block)) == (0, [], camera, 0)
        path = tmp_path / f"{name}.vldb"
        save_db(db, path)
        loaded = load_db(path)
        assert (len(loaded), loaded.camera) == (0, camera)
        save_db(loaded, tmp_path / "again.vldb")
        assert (tmp_path / "again.vldb").read_bytes() == path.read_bytes()
        for d in (db, loaded):
            with pytest.raises(EmptyCandidatesError):
                scan(d, query, 0, ScanConfig(exclusion_s=1.0), MatchConfig())


def test_ingest_csv_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    frames = [make_frame(rng, i, 1_000_000_000 * i, 49.0 + i * 1e-3, 8.0) for i in range(3)]
    lines = [",".join(CSV_MANIFEST_HEADER)]
    for f in frames:
        desc_name = f"f{f.frame_id}.desc"
        write_desc_file(tmp_path / desc_name, f)
        lines.append(f"{f.frame_id},{f.timestamp_ns},{f.geotag.lat!r},{f.geotag.lon!r},{desc_name}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("".join(line + "\n" for line in lines))
    db = ingest_csv(manifest)
    assert len(db) == 3
    for a, b in zip(frames, db.frames):
        assert a.geotag == b.geotag
        assert np.array_equal(a.descriptors.array, b.descriptors.array)


def test_ingest_csv_rejects_bad_header(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("frame,ts\n1,2\n")
    with pytest.raises(IngestError, match="header"):
        ingest_csv(manifest)


@pytest.mark.parametrize(
    "fid, ts",
    [("0", "notanint"), ("-1", "0"), (str(2**64), "0"), ("0", str(2**63)), ("0", str(-(2**63) - 1))],
)
def test_ingest_csv_reports_line_numbers(tmp_path, fid, ts):
    rng = np.random.default_rng(34)
    frame = make_frame(rng, 0, 0)
    write_desc_file(tmp_path / "f0.desc", frame)
    manifest = tmp_path / "m.csv"
    manifest.write_text(",".join(CSV_MANIFEST_HEADER) + f"\n{fid},{ts},49.0,8.0,f0.desc\n")
    with pytest.raises(IngestError, match=r"m\.csv:2"):
        ingest_csv(manifest)


def test_ingest_csv_names_the_line_of_a_duplicate_frame_id(tmp_path):
    rng = np.random.default_rng(36)
    write_desc_file(tmp_path / "f0.desc", make_frame(rng, 0, 0))
    rows = ["5,0,49.0,8.0,f0.desc", "6,1,49.0,8.0,f0.desc", "5,2,49.0,8.0,f0.desc"]
    manifest = tmp_path / "m.csv"
    manifest.write_text("".join(line + "\n" for line in [",".join(CSV_MANIFEST_HEADER), *rows]))
    with pytest.raises(IngestError, match=r"^m\.csv:4: duplicate frame_id 5$"):
        ingest_csv(manifest)


def test_ingest_csv_names_the_line_that_is_not_utf8(tmp_path):
    # lines ending in a bare \r, which csv reads as line ends too
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(",".join(CSV_MANIFEST_HEADER).encode() + b"\r0,0,49.0,8.0,f\x800.desc\r")
    with pytest.raises(IngestError, match=r"m\.csv:2: not UTF-8: invalid start byte at byte 0x80"):
        ingest_csv(manifest)


def test_ingest_kitti_is_deterministic(tmp_path):
    rng = np.random.default_rng(31)
    sets = [DescriptorSet(unit_rows(rng, k)) for k in (4, 9, 2)]
    write_kitti_tree(tmp_path, FIXTURE_STAMPS, FIXTURE_GEO, sets)

    first = ingest_kitti(tmp_path)
    second = ingest_kitti(tmp_path)
    assert len(first.frames) == len(second.frames)
    for a, b in zip(first.frames, second.frames):
        assert a.frame_id == b.frame_id
        assert a.timestamp_ns == b.timestamp_ns
        assert a.geotag == b.geotag
        assert np.array_equal(a.descriptors.array, b.descriptors.array)

    # and the on-disk serialization of both is byte-identical
    save_db(first, tmp_path / "a.db")
    save_db(second, tmp_path / "b.db")
    assert (tmp_path / "a.db").read_bytes() == (tmp_path / "b.db").read_bytes()


def write_manifest(root, frames, order):
    """A CSV manifest listing the frames in the given order, one .desc file each."""
    lines = [",".join(CSV_MANIFEST_HEADER)]
    for i in order:
        f = frames[i]
        write_desc_file(root / f"f{f.frame_id}.desc", f)
        lines.append(f"{f.frame_id},{f.timestamp_ns},{f.geotag.lat!r},{f.geotag.lon!r},f{f.frame_id}.desc")
    manifest = root / "manifest.csv"
    manifest.write_text("".join(line + "\n" for line in lines))
    return manifest


def test_ingest_saves_the_bytes_of_a_database_of_read_desc_file_frames(tmp_path):
    rng = np.random.default_rng(35)
    # frames 3 and 4 share a timestamp; some hold no or one descriptor
    frames = [make_frame(rng, i, 10**8 * min(i, 9 - i), 49.0 + i * 1e-4, 8.0, k=k) for i, k in enumerate([5, 0, 3, 1, 4, 7])]
    saved = {}
    for name, order in (("sorted", range(6)), ("shuffled", rng.permutation(6))):
        manifest = write_manifest(tmp_path, frames, order)
        save_db(ingest_csv(manifest), tmp_path / f"{name}.vldb")
        saved[name] = (tmp_path / f"{name}.vldb").read_bytes()
    reference = Database([read_desc_file(tmp_path / f"f{f.frame_id}.desc") for f in frames])
    save_db(reference, tmp_path / "reference.vldb")
    assert saved["sorted"] == saved["shuffled"] == (tmp_path / "reference.vldb").read_bytes()

    # KITTI trees take timestamps and geotags from oxts, not from the .desc files
    root = tmp_path / "kitti"
    sets = [f.descriptors for f in frames[:3]]
    write_kitti_tree(root, FIXTURE_STAMPS, FIXTURE_GEO, sets)
    db = ingest_kitti(root)
    save_db(db, tmp_path / "kitti.vldb")
    descs = [read_desc_file(root / "descriptors" / f"{i:010d}.desc").descriptors for i in range(3)]
    reference = Database([GeoFrame(i, f.timestamp_ns, f.geotag, d) for i, (f, d) in enumerate(zip(db, descs))], camera="kitti")
    save_db(reference, tmp_path / "kitti_reference.vldb")
    assert (tmp_path / "kitti.vldb").read_bytes() == (tmp_path / "kitti_reference.vldb").read_bytes()


def test_ingest_reads_each_descriptor_once_into_the_block_it_keeps(tmp_path):
    rng = np.random.default_rng(36)
    frames = [make_frame(rng, i, 10**8 * i, k=256) for i in range(64)]
    manifest = write_manifest(tmp_path, frames, rng.permutation(64))
    tracemalloc.start()
    try:
        db = ingest_csv(manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = db._block.array
    assert block.nbytes == 64 * 256 * DESCRIPTOR_DIM * 4
    # the frames are windows of the block they were read into, in frame order
    assert all(np.shares_memory(f.descriptors.array, block) for f in db)
    assert peak <= 1.1 * block.nbytes


def test_ingest_csv_names_the_line_of_a_path_that_cannot_be_opened(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text(",".join(CSV_MANIFEST_HEADER) + "\n0,0,49.0,8.0,f\x000.desc\n")
    with pytest.raises(IngestError, match=r"m\.csv:2: unreadable descriptors: embedded null byte"):
        ingest_csv(manifest)


def test_loaded_frames_are_windows_of_one_block(tmp_path):
    rng = np.random.default_rng(27)
    frames = [make_frame(rng, i, i * 100_000_000, k=int(rng.integers(0, 12))) for i in range(6)]
    path = tmp_path / "db.vldb"
    save_db(Database(frames), path)
    loaded = load_db(path)
    arrays = [f.descriptors.array for f in loaded.frames if len(f.descriptors)]
    assert all(np.shares_memory(arrays[0].base, a) for a in arrays)
    for a, b in zip(frames, loaded.frames):
        assert np.array_equal(a.descriptors.array, b.descriptors.array)
        assert np.array_equal(a.descriptors.norms, b.descriptors.norms)
        with pytest.raises(ValueError):
            b.descriptors.array[:1] = 0.0


def test_load_rejects_oversized_count_and_non_finite(tmp_path):
    rng = np.random.default_rng(28)
    path = tmp_path / "db.vldb"
    raw = v1_bytes(make_db(rng, n=3))
    # k of the first frame sits after magic/version/count and id/ts/lat/lon
    k_at = 12 + 32
    bad = bytearray(raw)
    bad[k_at : k_at + 4] = (2**32 - 1).to_bytes(4, "little")
    path.write_bytes(bytes(bad))
    with pytest.raises(DatabaseFormatError, match="frame 0"):
        load_db(path)
    bad = bytearray(raw)
    first_row_of_frame_1 = k_at + 4 + 8 * DESCRIPTOR_DIM * 4 + 36
    bad[first_row_of_frame_1 : first_row_of_frame_1 + 4] = np.float32(np.inf).tobytes()
    path.write_bytes(bytes(bad))
    with pytest.raises(DatabaseFormatError, match="frame 1: .*finite"):
        load_db(path)
    # frame 1's latitude, 100 degrees
    bad = bytearray(raw)
    lat_of_frame_1 = k_at + 4 + 8 * DESCRIPTOR_DIM * 4 + 16
    bad[lat_of_frame_1 : lat_of_frame_1 + 8] = np.float64(100.0).tobytes()
    path.write_bytes(bytes(bad))
    with pytest.raises(DatabaseFormatError, match="frame 1: latitude"):
        load_db(path)


def test_load_rejects_bad_ranges_geotags_rows_and_ids_in_v2(tmp_path):
    # a 6-frame drive of overlapping windows: frame i holds pool rows
    # [2i, 2i + 8), so pool row 9 is held by frames 1, 2, 3 and 4
    cfg = WorldConfig(duration_s=0.6, keypoints_per_frame=8, landmark_overlap=0.75)
    path = tmp_path / "db.vldb"
    save_db(gen_world(cfg), path)
    raw = path.read_bytes()
    table, block = v2_layout(raw)
    assert block + 18 * DESCRIPTOR_DIM * 4 == len(raw)

    def rejects(message, *edits):
        bad = bytearray(raw)
        for offset, value in edits:
            bad[offset : offset + len(value)] = value
        path.write_bytes(bytes(bad))
        with pytest.raises(DatabaseFormatError, match=message):
            load_db(path)

    def u64(v):
        return v.to_bytes(8, "little")

    record = [table + 48 * i for i in range(6)]
    nan = np.float32(np.nan).tobytes()
    rejects(rf"{path}: frame 3: rows \[6, 19\) are not a range of a 18-row block", (record[3] + 40, u64(19)))
    rejects(r"frame 4: rows \[17, 16\) are not a range", (record[4] + 32, u64(17)))
    rejects("frame 2: ", (record[2] + 32, u64(2**64 - 1)))
    rejects(rf"{path}: frame 5: latitude -90.5 outside", (record[5] + 16, np.float64(-90.5).tobytes()))
    rejects("frame 1: .*finite", (record[1] + 24, np.float64(np.nan).tobytes()))
    rejects(rf"{path}: frame 1: .*finite", (block + 9 * DESCRIPTOR_DIM * 4 + 4 * 77, nan))
    rejects(rf"{path}: duplicate frame_id 2", (record[4], u64(2)))
    # a non-finite row that no frame holds once frame 5 ends at row 16
    rejects(rf"{path}: descriptor row 17: .*finite", (record[5] + 40, u64(16)), (block + 17 * DESCRIPTOR_DIM * 4, nan))
    # the untouched bytes load
    path.write_bytes(raw)
    assert len(load_db(path)) == 6


def test_load_sorts_frames_and_copies_rows_whose_ranges_start_earlier(tmp_path):
    # a version-1 file listing frames latest first: sorted by time, each
    # frame's rows start before the previous frame's, so the loaded block
    # is a copy of the rows in frame order
    rng = np.random.default_rng(43)
    frames = [make_frame(rng, i, i * 100_000_000, 49.0 + i * 1e-4, k=int(rng.integers(0, 6))) for i in range(5)]
    path = tmp_path / "v1.vldb"
    path.write_bytes(v1_bytes(frames[::-1]))
    db = load_db(path)
    assert [f.frame_id for f in db] == [0, 1, 2, 3, 4]
    assert np.all(np.diff(db._table["start"].astype(np.int64)) >= 0)
    for a, b in zip(frames, db.frames):
        assert a.geotag == b.geotag and np.array_equal(a.descriptors.array, b.descriptors.array)
    save_db(db, tmp_path / "v2.vldb")
    raw = (tmp_path / "v2.vldb").read_bytes()
    assert raw[v2_layout(raw)[1] :] == b"".join(f.descriptors.array.tobytes() for f in frames)


def test_camera_survives_save_and_load(tmp_path):
    rng = np.random.default_rng(40)
    for camera in ("cam0", "", "Kamera vorn links · été"):
        db = make_db(rng, n=2)
        db.camera = camera
        save_db(db, tmp_path / "db.vldb")
        assert load_db(tmp_path / "db.vldb").camera == camera
    (tmp_path / "v1.vldb").write_bytes(v1_bytes(make_db(rng, n=2)))
    assert load_db(tmp_path / "v1.vldb").camera == ""


def test_v1_file_loads_and_saves_as_v2(tmp_path):
    rng = np.random.default_rng(41)
    frames = [make_frame(rng, i, i * 100_000_000, k=int(rng.integers(0, 12))) for i in range(7)]
    db = Database(frames, camera="cam0")
    (tmp_path / "v1.vldb").write_bytes(v1_bytes(db))
    from_v1 = load_db(tmp_path / "v1.vldb")
    save_db(from_v1, tmp_path / "v2.vldb")
    raw = (tmp_path / "v2.vldb").read_bytes()
    assert struct.unpack_from("<I", raw, 4) == (2,)
    # frames that own their rows are written in the same order as in version 1
    table, block = v2_layout(raw)
    assert raw[block:] == b"".join(f.descriptors.array.tobytes() for f in db)
    again = load_db(tmp_path / "v2.vldb")
    for a, b, c in zip(db.frames, from_v1.frames, again.frames):
        assert a.frame_id == b.frame_id == c.frame_id
        assert a.timestamp_ns == b.timestamp_ns == c.timestamp_ns
        assert a.geotag == b.geotag == c.geotag
        assert np.array_equal(a.descriptors.array, b.descriptors.array)
        assert np.array_equal(a.descriptors.array, c.descriptors.array)
    save_db(again, tmp_path / "again.vldb")
    assert (tmp_path / "again.vldb").read_bytes() == raw


def test_loaded_drive_holds_each_pool_row_once_and_counts_as_in_memory(tmp_path):
    cfg = WorldConfig(duration_s=30.0, keypoints_per_frame=40)
    world = gen_world(cfg)
    path = tmp_path / "drive.vldb"
    save_db(world, path)
    pool_rows = len(world._block)
    assert pool_rows == 40 + 2 * 299
    camera = len(world.camera.encode())
    assert path.stat().st_size == 24 + camera + 48 * len(world) + pool_rows * DESCRIPTOR_DIM * 4
    db = load_db(path)
    assert len(db._block) == pool_rows and np.shares_memory(db.frames[0].descriptors.array, db._block.array)
    save_db(db, tmp_path / "again.vldb")
    assert (tmp_path / "again.vldb").read_bytes() == path.read_bytes()

    queries = gen_queries(world, T0_NS + 5 * 10**9, 20, 1.0, cfg)
    for tau2 in (-0.5, MatchConfig().tau2):
        match_cfg = MatchConfig(tau2=tau2)
        for q in queries:
            center = int(np.searchsorted(db._table["timestamp_ns"], q.timestamp_ns))
            # unwindowed, a 5 s window, and the window with a 1 s exclusion gap
            for lo, hi, gap in ((0, len(db), 0), (center - 50, center + 51, 0), (center - 50, center + 51, 10)):
                keep = [i for i in range(max(lo, 0), min(hi, len(db))) if abs(i - center) > gap or not gap]
                loaded = _counts(q.descriptors, *columns(db._block, db._table["start"][keep], db._table["stop"][keep]), match_cfg)
                in_memory = _counts(q.descriptors, *columns(world._block, world._table["start"][keep], world._table["stop"][keep]), match_cfg)
                assert np.array_equal(loaded, in_memory)
                assert loaded.max() > 0


def test_a_database_of_a_drives_frames_copies_their_rows_and_scans_as_the_drive(tmp_path):
    # a drive's frames share the rows of its pool; Database(frames) copies
    # each frame's rows, one frame after another, into a block of its own.
    # Its scans, and those of it saved and loaded, must give the drive's
    # (frame, count): unwindowed, in a 5 s window, and in that window with
    # a 1 s exclusion
    cfg = WorldConfig(duration_s=30.0, keypoints_per_frame=40)
    world = gen_world(cfg)
    db = Database(list(world.frames), source=world.source, camera=world.camera)
    assert len(db._block) == 40 * len(world) > len(world._block)
    assert not np.shares_memory(db._block.array, world._block.array)
    save_db(db, tmp_path / "copied.vldb")
    loaded = load_db(tmp_path / "copied.vldb")
    settings = ((ScanConfig(window_s=float("inf")), False), (ScanConfig(window_s=5.0), True), (ScanConfig(window_s=5.0, exclusion_s=1.0), True))
    matched = 0
    for q in gen_queries(world, T0_NS + 5 * 10**9, 20, 1.0, cfg):
        for scan_cfg, windowed in settings:
            center = q.timestamp_ns if windowed else None
            frame, count = scan(world, q.descriptors, q.timestamp_ns, scan_cfg, MatchConfig(), center_ts=center)
            for d in (db, loaded):
                got, got_count = scan(d, q.descriptors, q.timestamp_ns, scan_cfg, MatchConfig(), center_ts=center)
                assert (got.frame_id, got_count) == (frame.frame_id, count)
            matched += count > 0
    assert matched == 3 * 20


def test_frame_ids_above_int64_survive_save_load_and_scan(tmp_path):
    # ids 2**63 and 2**64 - 1 are valid u64 frame ids; frames 1 and 2 hold
    # the same rows, so their counts tie and the lower id must win
    rng = np.random.default_rng(42)
    rows = unit_rows(rng, 10)
    ids = [5, 2**64 - 1, 2**63, 7]
    frames = [
        GeoFrame(fid, i * 100_000_000, GeoPoint(49.0 + i * 1e-4, 8.0), DescriptorSet(rows if i in (1, 2) else unit_rows(rng, 10)))
        for i, fid in enumerate(ids)
    ]
    path = tmp_path / "db.vldb"
    save_db(Database(frames), path)
    db = load_db(path)
    assert [f.frame_id for f in db] == ids
    assert db.frame_by_id(2**64 - 1).timestamp_ns == 100_000_000
    query = DescriptorSet(rows)
    # the twin at frame 2 excluded, frame 1 (id 2**64 - 1) wins alone
    frame, count = scan(db, query, 200_000_000, ScanConfig(exclusion_s=0.05), MatchConfig())
    assert (frame.frame_id, count) == (2**64 - 1, 10)
    # both twins: the tie goes to the lower id, 2**63
    frame, count = scan(db, query, 0, ScanConfig(), MatchConfig())
    assert (frame.frame_id, count) == (2**63, 10)
    for missing in (-1, 2**64, 6):
        with pytest.raises(KeyError):
            db.frame_by_id(missing)


def test_scan_hands_best_match_one_sequence_of_candidate_pairs(monkeypatch, tmp_path):
    # the contract the benchmark's tracer relies on: one call per scan, with
    # candidates whose len is their count and whose iteration yields
    # (int id, DescriptorSet) pairs holding their rows, returning
    # (frame_id, count); ids are uint64 and row bounds int64, for the
    # generated drive and for a loaded file whose ids reach 2**64 - 1
    world = gen_world(WorldConfig())
    query = gen_queries(world, T0_NS + 4 * 10**9, 1, 1.0, WorldConfig())[0]
    high = [GeoFrame(2**64 - len(world) + f.frame_id, f.timestamp_ns, f.geotag, f.descriptors) for f in world.frames]
    save_db(Database(high), tmp_path / "high.vldb")
    calls = []

    def spy(query, candidates, cfg):
        result = best_match(query, candidates, cfg)
        calls.append((candidates, result))
        return result

    monkeypatch.setattr(database, "best_match", spy)
    center = T0_NS + 3 * 10**9
    settings = (
        (ScanConfig(exclusion_s=1.0), None),
        (ScanConfig(window_s=2.0, exclusion_s=0.5), center),
        (ScanConfig(), None),
        (ScanConfig(window_s=2.0), center),
    )
    for db, (cfg, center) in itertools.product((world, load_db(tmp_path / "high.vldb")), settings):
        frame, count = scan(db, query.descriptors, query.timestamp_ns, cfg, MatchConfig(), center_ts=center)
        assert len(calls) == 1
        candidates, result = calls.pop()
        assert candidates.ids.dtype == np.uint64
        assert candidates.starts.dtype == candidates.stops.dtype == np.int64
        # without an exclusion the candidates are one run of frames, handed over as views of the table
        assert np.shares_memory(candidates.ids, db._table) == (not cfg.exclusion_s)
        want = [
            f
            for f in db.frames
            if (center is None or abs(f.timestamp_ns - center) <= cfg.window_s * 1e9)
            and (not cfg.exclusion_s or abs(f.timestamp_ns - query.timestamp_ns) > cfg.exclusion_s * 1e9)
        ]
        assert len(candidates) == len(want)
        pairs = list(candidates)
        assert all(type(fid) is int and isinstance(ds, DescriptorSet) for fid, ds in pairs)
        assert [fid for fid, _ in pairs] == [f.frame_id for f in want]
        assert sum(len(ds) for _, ds in candidates) == sum(len(f.descriptors) for f in want)
        assert pairs[3][0] == want[3].frame_id and np.array_equal(pairs[3][1].array, want[3].descriptors.array)
        assert type(result) is tuple and result == (frame.frame_id, count)


def test_every_constructor_holds_one_sorted_read_only_frame_table(tmp_path):
    # frames 1, 3 and 6 share a timestamp, so the id orders them
    rng = np.random.default_rng(44)
    stamps = [300, 100, 200, 100, 0, 400, 100]
    frames = [make_frame(rng, i, ts * 10**6, 49.0 + i * 1e-4, k=int(rng.integers(0, 4))) for i, ts in enumerate(stamps)]
    shuffled = [frames[i] for i in rng.permutation(len(frames))]
    built = Database(shuffled)
    (tmp_path / "v1.vldb").write_bytes(v1_bytes(shuffled))
    save_db(built, tmp_path / "v2.vldb")
    world = gen_world(WorldConfig())
    save_db(world, tmp_path / "world.vldb")
    dbs = {
        "gen_world": world,
        "Database(frames)": built,
        "load_db v1": load_db(tmp_path / "v1.vldb"),
        "load_db v2": load_db(tmp_path / "v2.vldb"),
        "ingest_csv": ingest_csv(write_manifest(tmp_path, frames, rng.permutation(len(frames)))),
    }
    for name, db in dbs.items():
        table = db._table
        assert table.dtype == database._TABLE and not table.flags.writeable, name
        assert np.array_equal(np.lexsort((table["frame_id"], table["timestamp_ns"])), np.arange(len(db))), name
    assert dbs["Database(frames)"]._table["frame_id"].tolist() == [4, 1, 3, 6, 2, 0, 5]
    for db, loaded in ((built, dbs["load_db v2"]), (world, load_db(tmp_path / "world.vldb"))):
        for field in database._TABLE.names:
            assert np.array_equal(loaded._table[field], db._table[field]), field


def test_frames_are_built_on_demand_as_windows_of_the_block():
    world = gen_world(WorldConfig())
    block = world._block
    assert len(block) == 200 + 10 * 79
    picked = [world.frames[7], world.frames[-1], *world.frames[::9], *world.frames, *world]
    assert len(picked) == 2 + 9 + 80 + 80
    for f in picked:
        assert isinstance(f, GeoFrame)
        assert np.shares_memory(f.descriptors.array, block.array)
        assert np.array_equal(f.descriptors.array, block.array[10 * f.frame_id : 10 * f.frame_id + 200])
    assert [f.frame_id for f in world.frames[::9]] == list(range(0, 80, 9))
    assert world.frames[-1].timestamp_ns == world.frame_by_id(79).timestamp_ns == int(world._table["timestamp_ns"][-1])
    with pytest.raises(IndexError):
        world.frames[80]
    # the database is the sequence of its frames
    direct = [world[7], world[-1], *world[::9], *list(world)]
    assert [f.frame_id for f in direct] == [7, 79, *range(0, 80, 9), *range(80)]
    for f in direct:
        assert isinstance(f, GeoFrame)
        assert np.shares_memory(f.descriptors.array, block.array)
        assert np.array_equal(f.descriptors.array, block.array[10 * f.frame_id : 10 * f.frame_id + 200])
    assert world.frames is world
    with pytest.raises(IndexError):
        world[80]


def test_save_db_writes_back_block_rows_that_no_frame_covers(tmp_path):
    # a version-2 file from elsewhere whose block holds 3 rows before the
    # first frame's and 2 after the last frame's: the database holds the
    # block as read, and saves it so
    cfg = WorldConfig(duration_s=2.0, keypoints_per_frame=8)
    drive = gen_world(cfg)
    rng = np.random.default_rng(48)
    table = drive._table.copy()
    table["start"] += 3
    table["stop"] += 3
    block = np.concatenate([unit_rows(rng, 3), drive._block.array, unit_rows(rng, 2)])
    camera = drive.camera.encode()
    path = tmp_path / "foreign.vldb"
    head = struct.pack("<4sIIQI", b"VLDB", 2, len(table), len(block), len(camera))
    path.write_bytes(head + camera + table.tobytes() + block.astype("<f4").tobytes())
    db = load_db(path)
    assert np.array_equal(db._block.array, block)
    save_db(db, tmp_path / "again.vldb")
    assert (tmp_path / "again.vldb").read_bytes() == path.read_bytes()
    again = load_db(tmp_path / "again.vldb")
    settings = ((ScanConfig(), None), (ScanConfig(window_s=0.5), T0_NS + 10**9), (ScanConfig(exclusion_s=0.2), None))
    for q in gen_queries(drive, T0_NS + 3 * 10**8, 12, 0.1, cfg):
        for scan_cfg, center in settings:
            want, want_count = scan(drive, q.descriptors, q.timestamp_ns, scan_cfg, MatchConfig(), center_ts=center)
            for loaded in (db, again):
                got, got_count = scan(loaded, q.descriptors, q.timestamp_ns, scan_cfg, MatchConfig(), center_ts=center)
                assert (got.frame_id, got_count) == (want.frame_id, want_count)
                assert np.array_equal(got.descriptors.array, want.descriptors.array)


def test_every_builder_saves_the_bytes_of_its_reloaded_database(tmp_path):
    rng = np.random.default_rng(49)
    frames = [make_frame(rng, i, 10**8 * i, 49.0 + i * 1e-4, k=int(rng.integers(0, 6))) for i in range(7)]
    built = Database(frames, camera="cam0")
    (tmp_path / "v1.vldb").write_bytes(v1_bytes(built))
    save_db(built, tmp_path / "v2.vldb")
    builders = {
        "gen_world": gen_world(WorldConfig(duration_s=3.0, keypoints_per_frame=16)),
        "Database(frames)": built,
        "ingest_csv": ingest_csv(write_manifest(tmp_path, frames, rng.permutation(7))),
        "load_db v1": load_db(tmp_path / "v1.vldb"),
        "load_db v2": load_db(tmp_path / "v2.vldb"),
    }
    for name, db in builders.items():
        save_db(db, tmp_path / "first.vldb")
        save_db(load_db(tmp_path / "first.vldb"), tmp_path / "second.vldb")
        assert (tmp_path / "second.vldb").read_bytes() == (tmp_path / "first.vldb").read_bytes(), name
