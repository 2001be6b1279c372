import dataclasses
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vloc
from vloc import cli, synthworld
from vloc.cli import _FLAGS, _cfg, _read_query_manifest, build_parser, main
from vloc.database import CSV_MANIFEST_HEADER, Database, GeoFrame, ScanConfig, load_db, save_db, write_desc_file
from vloc.geodesy import GeoPoint
from vloc.kalman import FilterConfig
from vloc.matching import DESCRIPTOR_DIM, DescriptorSet, MatchConfig
from vloc.pipeline import export_trace, localize_sequence
from vloc.synthworld import WorldConfig


def unit_rows(rng, n):
    a = rng.standard_normal((n, DESCRIPTOR_DIM)).astype(np.float32)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


@pytest.fixture
def dataset(tmp_path):
    """CSV-manifest dataset: 6 frames on a line, 0.5 s apart."""
    rng = np.random.default_rng(50)
    frames = []
    lines = [",".join(CSV_MANIFEST_HEADER)]
    for i in range(6):
        geo = GeoPoint(49.0 + i * 5e-5, 8.0)
        frame = GeoFrame(i, 500_000_000 * i, geo, DescriptorSet(unit_rows(rng, 12)))
        write_desc_file(tmp_path / f"f{i}.desc", frame)
        lines.append(f"{i},{frame.timestamp_ns},{geo.lat!r},{geo.lon!r},f{i}.desc")
        frames.append(frame)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("".join(line + "\n" for line in lines))
    return tmp_path, manifest, frames


def build_db(dataset):
    tmp_path, manifest, frames = dataset
    db_path = tmp_path / "drive.vldb"
    assert main(["build-db", "--csv", str(manifest), "--out", str(db_path)]) == 0
    return db_path


def test_build_db_from_csv(dataset, capsys):
    tmp_path, manifest, frames = dataset
    db_path = build_db(dataset)
    assert "6 frames" in capsys.readouterr().out
    db = load_db(db_path)
    assert len(db) == 6
    assert db.frames[2].geotag == frames[2].geotag


def test_build_db_from_a_manifest_of_no_frames(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(",".join(CSV_MANIFEST_HEADER) + "\n")
    db_path = tmp_path / "empty.vldb"
    assert main(["build-db", "--csv", str(manifest), "--out", str(db_path)]) == 0
    assert capsys.readouterr().out == f"wrote 0 frames to {db_path}\n"
    assert len(load_db(db_path)) == 0


def test_build_db_names_the_line_of_a_field_over_the_csv_limit(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_text(",".join(CSV_MANIFEST_HEADER) + "\n0,0,49.0,8.0," + "x" * 131073 + ".desc\n")
    assert main(["build-db", "--csv", str(manifest), "--out", str(tmp_path / "o.vldb")]) == 1
    assert capsys.readouterr().err == "error: m.csv:2: field larger than field limit (131072)\n"
    assert not (tmp_path / "o.vldb").exists()


def test_build_db_requires_exactly_one_source(dataset, capsys):
    tmp_path, manifest, _ = dataset
    assert main(["build-db", "--out", str(tmp_path / "x.vldb")]) == 2
    assert (
        main(
            [
                "build-db",
                "--kitti",
                str(tmp_path),
                "--csv",
                str(manifest),
                "--out",
                str(tmp_path / "x.vldb"),
            ]
        )
        == 2
    )


def test_build_db_missing_manifest(tmp_path):
    code = main(["build-db", "--csv", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o.vldb")])
    assert code == 1


@pytest.mark.parametrize("field, value", [("timestamp_ns", 2**70), ("timestamp_ns", -(2**63) - 1), ("frame_id", 2**64)])
def test_build_db_rejects_integers_outside_the_file_format(dataset, capsys, field, value):
    tmp_path, manifest, _ = dataset
    lines = manifest.read_text().splitlines()
    row = lines[1].split(",")
    row[CSV_MANIFEST_HEADER.index(field)] = str(value)
    manifest.write_text("\n".join([lines[0], ",".join(row)]) + "\n")
    out = tmp_path / "o.vldb"
    assert main(["build-db", "--csv", str(manifest), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"manifest.csv:2: {field} {value} outside" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_build_db_names_the_line_of_a_missing_or_non_finite_desc(dataset, capsys):
    tmp_path, manifest, _ = dataset
    # rows in reverse, so line 3 (frame 4) is not the second frame read
    header, *rows = manifest.read_text().splitlines()
    manifest.write_text("".join(line + "\n" for line in [header, *reversed(rows)]))
    desc = tmp_path / "f4.desc"
    raw = desc.read_bytes()
    out = tmp_path / "o.vldb"
    desc.unlink()
    for message in ("No such file", f"{desc}: frame 4: descriptor components must be finite"):
        assert main(["build-db", "--csv", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: manifest.csv:3: unreadable descriptors: ") and message in err
        assert not out.exists()
        # then a NaN in the first row
        desc.write_bytes(raw[:36] + np.float32(np.nan).tobytes() + raw[40:])


def nan_geotag(desc):
    """Overwrite the header latitude of a .desc file with NaN, which GeoPoint rejects."""
    raw = desc.read_bytes()
    desc.write_bytes(raw[:16] + np.float64(np.nan).tobytes() + raw[24:])


def test_build_db_from_csv_ignores_the_desc_header_geotag(dataset):
    # the manifest's geotag is the one kept, so the header's is not checked
    tmp_path, _, frames = dataset
    nan_geotag(tmp_path / "f0.desc")
    db = load_db(build_db(dataset))
    assert db.frame_by_id(0).geotag == frames[0].geotag


def write_kitti(root, stamps):
    """A KITTI-raw style tree of one frame per timestamp, 0.1 s and 1e-5 degrees apart."""
    rng = np.random.default_rng(52)
    (root / "oxts" / "data").mkdir(parents=True)
    (root / "descriptors").mkdir()
    (root / "oxts" / "timestamps.txt").write_text("".join(s + "\n" for s in stamps))
    for i in range(len(stamps)):
        geo = GeoPoint(49.0 + i * 1e-5, 8.0)
        (root / "oxts" / "data" / f"{i:010d}.txt").write_text(f"{geo.lat} {geo.lon} 0.0\n")
        write_desc_file(root / "descriptors" / f"{i:010d}.desc", GeoFrame(i, 0, geo, DescriptorSet(unit_rows(rng, 6))))


STAMPS = [f"2011-09-26 13:02:25.{i}00000000" for i in range(4)]


def test_build_db_rejects_a_kitti_timestamp_outside_int64(tmp_path, capsys):
    root = tmp_path / "drive"
    write_kitti(root, ["2300-01-01 00:00:00", *STAMPS[1:]])
    # a dangling descriptor link shows that no payload is read before the timestamps are checked
    desc = root / "descriptors" / f"{2:010d}.desc"
    desc.unlink()
    desc.symlink_to(tmp_path / "elsewhere.desc")
    out = tmp_path / "o.vldb"
    assert main(["build-db", "--kitti", str(root), "--out", str(out)]) == 1
    assert "error: frame 0000000000: timestamp_ns 10413792000000000000 outside the int64 range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, line, where", [("timestamps.txt", 1, "timestamps.txt:2"), ("data/0000000001.txt", 0, "0000000001.txt:1")]
)
def test_build_db_names_the_kitti_file_that_is_not_utf8(tmp_path, capsys, name, line, where):
    root = tmp_path / "drive"
    write_kitti(root, STAMPS[:3])
    path = root / "oxts" / name
    lines = path.read_bytes().split(b"\n")
    lines[line] += b" \xff"
    path.write_bytes(b"\n".join(lines))
    out = tmp_path / "o.vldb"
    assert main(["build-db", "--kitti", str(root), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {where}: not UTF-8: invalid start byte at byte 0xff\n"
    assert not out.exists()


def test_build_db_names_the_kitti_frame_of_a_missing_or_non_finite_desc(tmp_path, capsys):
    root = tmp_path / "drive"
    write_kitti(root, STAMPS)
    desc = root / "descriptors" / f"{2:010d}.desc"
    raw = desc.read_bytes()
    out = tmp_path / "o.vldb"
    # a dangling link leaves the file listed but missing
    desc.unlink()
    desc.symlink_to(tmp_path / "elsewhere.desc")
    for message in ("No such file", f"{desc}: frame 2: descriptor components must be finite"):
        assert main(["build-db", "--kitti", str(root), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: frame 0000000002: unreadable descriptors: ") and message in err
        assert not out.exists()
        # then a NaN in the first row
        desc.unlink()
        desc.write_bytes(raw[:36] + np.float32(np.nan).tobytes() + raw[40:])


def test_build_db_from_kitti_ignores_the_desc_header_geotag(tmp_path):
    root = tmp_path / "drive"
    write_kitti(root, STAMPS)
    nan_geotag(root / "descriptors" / f"{1:010d}.desc")
    out = tmp_path / "o.vldb"
    assert main(["build-db", "--kitti", str(root), "--out", str(out)]) == 0
    assert load_db(out).frame_by_id(1).geotag == GeoPoint(49.0 + 1e-5, 8.0)


def test_query_end_to_end(dataset, capsys):
    tmp_path, manifest, frames = dataset
    db_path = build_db(dataset)

    # query descriptors: noisy copies of frames 1..3, truths on the line
    rng = np.random.default_rng(51)
    qlines = ["timestamp_ns,descriptor_path,truth_lat,truth_lon"]
    for i in (1, 2, 3):
        base = frames[i]
        noisy = base.descriptors.array + rng.standard_normal((12, DESCRIPTOR_DIM)).astype(np.float32) * np.float32(0.01)
        qframe = GeoFrame(100 + i, base.timestamp_ns, base.geotag, DescriptorSet(noisy))
        write_desc_file(tmp_path / f"q{i}.desc", qframe)
        qlines.append(f"{base.timestamp_ns},q{i}.desc,{base.geotag.lat!r},{base.geotag.lon!r}")
    qmanifest = tmp_path / "queries.csv"
    qmanifest.write_text("".join(line + "\n" for line in qlines))

    out_dir = tmp_path / "out"
    code = main(
        ["query", "--db", str(db_path), "--queries", str(qmanifest), "--out-dir", str(out_dir)]
    )
    assert code == 0
    shown = capsys.readouterr().out
    assert "meas_err_m" in shown

    trace_csv = out_dir / "trace.csv"
    rows = trace_csv.read_text().strip().splitlines()
    assert rows[0].startswith("step,query_ts,matched_frame_id")
    assert len(rows) == 4
    # no exclusion by default: each query matches its own frame exactly
    first = rows[1].split(",")
    assert first[2] == "1"
    assert float(first[9]) == pytest.approx(0.0, abs=1e-9)


def test_query_window_of_inf_scans_the_whole_database(dataset, capsys):
    # queries copying frames 5, 0 and 3, 2.5 s apart on the drive: a 1 s
    # window centered on frame 5 cannot reach frame 0, an infinite one can
    tmp_path, manifest, frames = dataset
    db_path = build_db(dataset)
    qlines = ["timestamp_ns,descriptor_path"]
    for step, i in enumerate((5, 0, 3)):
        write_desc_file(tmp_path / f"q{i}.desc", GeoFrame(100 + i, 0, frames[i].geotag, frames[i].descriptors))
        qlines.append(f"{step * 10**9},q{i}.desc")
    qmanifest = tmp_path / "queries.csv"
    qmanifest.write_text("".join(line + "\n" for line in qlines))
    whole = localize_sequence(load_db(db_path), _read_query_manifest(qmanifest), ScanConfig(window_s=float("inf")), MatchConfig(), FilterConfig())
    assert [s.matched_frame_id for s in whole] == [5, 0, 3]
    want = export_trace(whole, tmp_path).read_bytes()
    args = ["query", "--db", str(db_path), "--queries", str(qmanifest), "--out-dir", str(tmp_path / "out"), "--window-s"]
    assert main(args + ["inf"]) == 0
    assert (tmp_path / "out" / "trace.csv").read_bytes() == want
    assert main(args + ["1"]) == 1
    assert "step 2: no correspondences" in capsys.readouterr().err


def test_query_names_the_step_of_a_filter_failure(tmp_path, capsys):
    # a q this large takes the predicted covariance past float range over
    # the 1500 s between the two queries
    cfg = WorldConfig(duration_s=2000, db_hz=1, keypoints_per_frame=20)
    db = synthworld.gen_world(cfg)
    save_db(db, tmp_path / "drive.vldb")
    qlines = ["timestamp_ns,descriptor_path"]
    for i, q in enumerate(synthworld.gen_queries(db, synthworld.T0_NS + 100 * 10**9, 2, 1500.0, cfg)):
        write_desc_file(tmp_path / f"q{i}.desc", GeoFrame(i, q.timestamp_ns, q.truth, q.descriptors))
        qlines.append(f"{q.timestamp_ns},q{i}.desc")
    (tmp_path / "queries.csv").write_text("".join(line + "\n" for line in qlines))
    args = ["query", "--db", str(tmp_path / "drive.vldb"), "--queries", str(tmp_path / "queries.csv"), "--out-dir", str(tmp_path)]
    assert main(args + ["--window-s", "inf", "--q", "1e300"]) == 1
    assert capsys.readouterr().err == "error: step 2: state must be finite\n"
    assert not (tmp_path / "trace.csv").exists()


def test_query_names_the_step_that_has_no_candidate(dataset, capsys):
    tmp_path, _, _ = dataset
    db_path = build_db(dataset)
    (tmp_path / "queries.csv").write_text("timestamp_ns,descriptor_path\n0,f0.desc\n")
    args = ["query", "--db", str(db_path), "--queries", str(tmp_path / "queries.csv"), "--out-dir", str(tmp_path / "out")]
    assert main(args + ["--exclusion-s", "1e6"]) == 1
    assert capsys.readouterr().err.startswith("error: step 1: no candidate frames for query_ts=0 ")
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_query_empty_manifest_is_usage_error(dataset, capsys):
    tmp_path, manifest, _ = dataset
    db_path = build_db(dataset)
    qmanifest = tmp_path / "queries.csv"
    qmanifest.write_text("timestamp_ns,descriptor_path\n")
    code = main(["query", "--db", str(db_path), "--queries", str(qmanifest)])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


PLAIN = "timestamp_ns,descriptor_path"
WITH_TRUTH = PLAIN + ",truth_lat,truth_lon"


def write_query(dataset, header, rows):
    """Database, one query descriptor file q.desc (a copy of frame 1) and a manifest."""
    tmp_path, _, frames = dataset
    db_path = build_db(dataset)
    write_desc_file(tmp_path / "q.desc", frames[1])
    qmanifest = tmp_path / "queries.csv"
    qmanifest.write_text("".join(line + "\n" for line in [header, *rows]))
    return db_path, qmanifest


@pytest.mark.parametrize(
    "header, row, message",
    [
        (PLAIN, "500000000", "expected 2 fields, got 1"),
        (PLAIN, "5e8,q.desc", "bad timestamp_ns '5e8'"),
        (PLAIN, "99999999999999999999,q.desc", "outside the int64 range"),
        (WITH_TRUTH, "500000000,q.desc", "expected 4 fields, got 2"),
        (WITH_TRUTH, "500000000,q.desc,49.0", "expected 4 fields, got 3"),
        (WITH_TRUTH, "500000000,q.desc,49.0,", "both be given or both be empty"),
        (WITH_TRUTH, "500000000,q.desc,,8.0", "both be given or both be empty"),
        (WITH_TRUTH, "500000000,q.desc,91.0,8.0", "latitude 91.0"),
    ],
)
def test_query_rejects_malformed_manifest_row(dataset, capsys, header, row, message):
    good = {PLAIN: "0,q.desc", WITH_TRUTH: "0,q.desc,49.0,8.0"}[header]
    db_path, qmanifest = write_query(dataset, header, [good, row])
    assert main(["query", "--db", str(db_path), "--queries", str(qmanifest)]) == 2
    err = capsys.readouterr().err
    assert "queries.csv:3:" in err and message in err


def test_query_accepts_row_without_truth(dataset, capsys):
    db_path, qmanifest = write_query(dataset, WITH_TRUTH, ["500000000,q.desc,,"])
    assert main(["query", "--db", str(db_path), "--queries", str(qmanifest), "--out-dir", str(db_path.parent)]) == 0
    assert (db_path.parent / "trace.csv").read_text().splitlines()[1].endswith(",,,,")


def test_query_ignores_the_desc_header_geotag(dataset, capsys):
    # only a query file's descriptors are used: q.desc (frame 1's) localizes to frame 1
    db_path, qmanifest = write_query(dataset, PLAIN, ["500000000,q.desc"])
    nan_geotag(db_path.parent / "q.desc")
    assert main(["query", "--db", str(db_path), "--queries", str(qmanifest), "--out-dir", str(db_path.parent)]) == 0
    assert (db_path.parent / "trace.csv").read_text().splitlines()[1].split(",")[2] == "1"


def test_query_rejects_oversized_desc_count(dataset, capsys):
    db_path, qmanifest = write_query(dataset, PLAIN, ["500000000,q.desc"])
    desc = db_path.parent / "q.desc"
    raw = desc.read_bytes()
    desc.write_bytes(raw[:32] + (2**32 - 1).to_bytes(4, "little") + raw[36:])
    assert main(["query", "--db", str(db_path), "--queries", str(qmanifest)]) == 1
    assert f"queries.csv:2: {desc}: truncated file" in capsys.readouterr().err


def test_query_names_the_line_of_a_missing_desc(dataset, capsys):
    db_path, qmanifest = write_query(dataset, PLAIN, ["0,q.desc", "500000000,absent.desc"])
    assert main(["query", "--db", str(db_path), "--queries", str(qmanifest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: queries.csv:3: [Errno 2] No such file") and f"'{qmanifest.parent / 'absent.desc'}'" in err


def test_build_db_names_a_cut_desc(dataset, capsys):
    tmp_path, manifest, _ = dataset
    desc = tmp_path / "f1.desc"
    desc.write_bytes(desc.read_bytes()[:20])
    assert main(["build-db", "--csv", str(manifest), "--out", str(tmp_path / "o.vldb")]) == 1
    assert capsys.readouterr().err == (
        f"error: manifest.csv:3: unreadable descriptors: {desc}: truncated file: expected 36 bytes for frame header, got 20\n"
    )


def test_query_names_a_desc_path_once(dataset, capsys):
    # a manifest in a subdirectory, naming a padded .desc beside it and an empty path
    tmp_path, _, frames = dataset
    db_path = build_db(dataset)
    pad = tmp_path / "pad.desc"
    write_desc_file(pad, frames[1])
    pad.write_bytes(pad.read_bytes() + b"\x00")
    (tmp_path / "sub").mkdir()
    qmanifest = tmp_path / "sub" / "m.csv"
    qmanifest.write_text("timestamp_ns,descriptor_path\n0,../pad.desc\n")
    assert main(["query", "--db", str(db_path), "--queries", str(qmanifest)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: m.csv:2: {tmp_path / 'sub' / '..' / 'pad.desc'}: trailing bytes\n"
    # an empty cell is a malformed row, not the manifest's directory
    qmanifest.write_text("timestamp_ns,descriptor_path\n0,\n")
    assert main(["query", "--db", str(db_path), "--queries", str(qmanifest)]) == 2
    assert capsys.readouterr().err == "usage error: m.csv:2: empty descriptor_path\n"
    manifest = tmp_path / "sub" / "b.csv"
    manifest.write_text(",".join(CSV_MANIFEST_HEADER) + "\n0,0,49.0,8.0,\n")
    assert main(["build-db", "--csv", str(manifest), "--out", str(tmp_path / "o.vldb")]) == 1
    assert capsys.readouterr().err == "error: b.csv:2: empty descriptor_path\n"
    # a cell of spaces names a file like any other
    write_desc_file(tmp_path / "sub" / " ", frames[0])
    manifest.write_text(",".join(CSV_MANIFEST_HEADER) + "\n0,0,49.0,8.0, \n")
    assert main(["build-db", "--csv", str(manifest), "--out", str(tmp_path / "o.vldb")]) == 0


def test_query_and_build_db_name_the_line_of_a_desc_path_that_is_a_directory(dataset, capsys, monkeypatch):
    # stat succeeds on a directory, and opening it fails
    tmp_path, _, _ = dataset
    db_path = build_db(dataset)
    (tmp_path / "sub" / "d.desc").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    Path("m.csv").write_text("timestamp_ns,descriptor_path\n0,sub/d.desc\n")
    capsys.readouterr()
    assert main(["query", "--db", str(db_path), "--queries", "m.csv"]) == 1
    assert capsys.readouterr().err == "error: m.csv:2: [Errno 21] Is a directory: 'sub/d.desc'\n"
    Path("b.csv").write_text(",".join(CSV_MANIFEST_HEADER) + "\n0,0,49.0,8.0,f0.desc\n1,1,49.0,8.0,sub/d.desc\n")
    assert main(["build-db", "--csv", "b.csv", "--out", "o.vldb"]) == 1
    assert capsys.readouterr().err == "error: b.csv:3: unreadable descriptors: [Errno 21] Is a directory: 'sub/d.desc'\n"
    assert not Path("o.vldb").exists()


def test_query_names_a_database_whose_camera_name_is_not_utf8(dataset, capsys, monkeypatch):
    tmp_path, manifest, frames = dataset
    monkeypatch.chdir(tmp_path)
    save_db(Database(frames, camera="cam0"), "badcam.vldb")
    raw = bytearray(Path("badcam.vldb").read_bytes())
    # the camera name follows the 24-byte header
    raw[24] = 0xFF
    Path("badcam.vldb").write_bytes(bytes(raw))
    assert main(["query", "--db", "badcam.vldb", "--queries", str(manifest)]) == 1
    message = "camera name is not UTF-8 ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)"
    assert capsys.readouterr().err == f"error: badcam.vldb: {message}\n"


def test_query_missing_db(dataset, tmp_path):
    _, manifest, _ = dataset
    code = main(["query", "--db", str(tmp_path / "none.vldb"), "--queries", str(manifest)])
    assert code == 1


def test_query_names_the_frame_of_a_corrupt_database(dataset, capsys):
    _, manifest, _ = dataset
    db_path = build_db(dataset)
    db = load_db(db_path)
    raw = bytearray(db_path.read_bytes())
    # frame 3's latitude, in the fourth record of the table after the header and camera name
    lat_at = 24 + len(db.camera) + 48 * 3 + 16
    raw[lat_at : lat_at + 8] = np.float64(91.0).tobytes()
    db_path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["query", "--db", str(db_path), "--queries", str(manifest)]) == 1
    assert f"error: {db_path}: frame 3: latitude 91.0 outside [-90, 90]" in capsys.readouterr().err
    # intact, the database loads and the run goes on to reject the manifest, which lists frames
    save_db(db, db_path)
    assert main(["query", "--db", str(db_path), "--queries", str(manifest)]) == 2
    assert "header must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, code, message",
    [("--exclusion-s", "-0.5", 1, "exclusion_s must be non-negative, got -0.5"), ("--q", "inf", 1, "q must be finite")],
)
def test_query_rejects_bad_settings_before_reading_the_database(dataset, tmp_path, capsys, flag, value, code, message):
    _, manifest, _ = dataset
    assert main(["query", "--db", str(tmp_path / "none.vldb"), "--queries", str(manifest), flag, value]) == code
    err = capsys.readouterr().err
    assert message in err and "none.vldb" not in err


def test_simulate_writes_reports(tmp_path, capsys):
    out_dir = tmp_path / "report"
    code = main(
        [
            "simulate",
            "--trials",
            "2",
            "--seed",
            "3",
            "--steps",
            "3",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "errors.csv").exists()
    assert (out_dir / "errors.svg").exists()
    shown = capsys.readouterr().out
    assert "mean_est_m" in shown
    rows = (out_dir / "errors.csv").read_text().strip().splitlines()
    assert len(rows) == 4


def test_simulate_rejects_nonpositive_trials(tmp_path, capsys):
    code = main(["simulate", "--trials", "0", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "trials must be positive, got 0" in capsys.readouterr().err


def test_simulate_has_no_workers_flag(tmp_path, capsys):
    # trials run in the calling process, with no pool to size
    assert main(["simulate", "--trials", "1", "--workers", "2", "--out-dir", str(tmp_path)]) == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (tmp_path / "errors.csv").exists()


@pytest.mark.parametrize(
    "flag, value, code, message",
    [
        ("--period-s", "inf", 1, "period_s must be positive and finite"),
        ("--duration-s", "inf", 1, "duration_s must be finite"),
        ("--db-hz", "inf", 1, "db_hz must be finite"),
        ("--db-hz", "3e9", 1, "frame period that rounds to 0 ns"),
        # frame timestamps past int64: the period itself, and the last frame's
        ("--db-hz", "1e-300", 1, "db_hz=1e-300 and duration_s=8.0 put frame timestamps past the int64"),
        ("--duration-s", "1e12", 1, "db_hz=10.0 and duration_s=1000000000000.0 put frame timestamps past the int64"),
        # a drive whose last frame leaves the globe names the inputs, not a frame
        ("--speed-mps", "1e9", 1, "speed_mps=1000000000.0, heading_deg=45.0 and duration_s=8.0 from (49.0, 8.4) take the drive to (50286.3"),
        ("--duration-s", "1e9", 1, "speed_mps=18.0, heading_deg=45.0 and duration_s=1000000000.0 from (49.0, 8.4) take the drive to"),
        # two queries 0.4 ns apart would share a timestamp
        ("--period-s", "4e-10", 1, "period_s=4e-10 is under the 1 ns resolution"),
        # numpy's SeedSequence would reject it naming no flag
        ("--seed", "-1", 1, "seed must be non-negative, got -1"),
        # a NaN or negative exclusion would otherwise turn the handicap off
        ("--exclusion-s", "nan", 1, "exclusion_s must be non-negative, got nan"),
        ("--exclusion-s", "-3", 1, "exclusion_s must be non-negative, got -3.0"),
        # an exclusion margin wider than the drive, infinite or past float range in frames
        ("--exclusion-s", "inf", 1, "duration_s=8.0 at db_hz=10.0 too short for 6 queries at 1.0 s spacing with exclusion_s=inf"),
        ("--exclusion-s", "1e300", 1, "duration_s=8.0 at db_hz=10.0 too short for 6 queries at 1.0 s spacing with exclusion_s=1e+300"),
        ("--exclusion-s", "1e12", 1, "duration_s=8.0 at db_hz=10.0 too short for 6 queries at 1.0 s spacing with exclusion_s=1000000000000.0"),
        ("--period-s", "1e300", 1, "duration_s=8.0 at db_hz=10.0 too short for 6 queries at 1e+300 s spacing with exclusion_s=1.0"),
        ("--q", "nan", 1, "q must be finite, got nan"),
        ("--p0-scale", "inf", 1, "p0_scale must be finite, got inf"),
        ("--sigma-r", "inf", 1, "sigma_r must be finite, got inf"),
        ("--steps", "0", 1, "steps must be positive, got 0"),
    ],
)
def test_simulate_rejects_unusable_numbers(tmp_path, capsys, flag, value, code, message):
    assert main(["simulate", "--trials", "1", "--out-dir", str(tmp_path), flag, value]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "errors.csv").exists()


def test_zero_exclusion_means_off():
    args = build_parser().parse_args(["simulate", "--trials", "1", "--exclusion-s", "0"])
    assert _cfg(ScanConfig, args).exclusion_s == 0.0
    args = build_parser().parse_args(["simulate", "--trials", "1"])
    assert _cfg(ScanConfig, args).exclusion_s == 1.0


def test_simulate_reports_running_out_of_memory(tmp_path, capsys, monkeypatch):
    # as numpy does for --keypoints-per-frame 1000000000, without the allocation
    def gen_world(cfg):
        raise MemoryError(f"Unable to allocate an array for {cfg.keypoints_per_frame} keypoints per frame")

    monkeypatch.setattr(synthworld, "gen_world", gen_world)
    assert main(["simulate", "--trials", "1", "--out-dir", str(tmp_path), "--keypoints-per-frame", "1000000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "1000000000 keypoints" in err


def test_simulate_seed_repeatable(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["simulate", "--trials", "2", "--seed", "7", "--steps", "3", "--out-dir", str(d)]) == 0
    assert (d1 / "errors.csv").read_bytes() == (d2 / "errors.csv").read_bytes()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "build-db" in capsys.readouterr().out


def test_every_config_field_has_a_flag():
    # a config field added later cannot miss the CLI unnoticed
    off_cli = {WorldConfig: {"start_lat", "start_lon"}}  # deliberately not flags
    assert set(_FLAGS) == {MatchConfig, ScanConfig, FilterConfig, WorldConfig}
    for cls, names in _FLAGS.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        assert set(names) <= fields, cls
        assert fields - set(names) == off_cli.get(cls, set()), cls


def test_python_dash_m_vloc_runs_main(tmp_path):
    # the package's own source, wherever the tests run from
    env = {**os.environ, "PYTHONPATH": str(Path(vloc.__file__).parents[1])}
    run = lambda *args: subprocess.run([sys.executable, "-m", "vloc", *args], cwd=tmp_path, env=env, capture_output=True, text=True)
    shown = run("--help")
    assert shown.returncode == 0 and "build-db" in shown.stdout
    rejected = run("simulate", "--trials", "0")
    assert rejected.returncode == 1
    assert "trials must be positive, got 0" in rejected.stderr and "Traceback" not in rejected.stderr
    # noise past float32's range names its setting, with no numpy overflow warning
    rejected = run("simulate", "--trials", "3", "--query-noise-sigma", "1e38")
    assert rejected.returncode == 1 and "Warning" not in rejected.stderr
    assert rejected.stderr == "error: query 0: query_noise_sigma=1e+38 takes its noised rows outside float32's range\n"


def test_flag_defaults_match_library_pins():
    # the CLI must default to exactly the library's pinned configuration
    parser = build_parser()
    q = parser.parse_args(["query", "--db", "x.db", "--queries", "m.csv"])
    mc, fc = MatchConfig(), FilterConfig()
    assert (q.tau1, q.tau2) == (mc.tau1, mc.tau2)
    assert (q.sigma_r, q.p0_scale, q.q) == (fc.sigma_r, fc.p0_scale, fc.q)
    assert q.window_s == 20.0
    assert q.exclusion_s == 0.0  # off unless asked for

    s = parser.parse_args(["simulate", "--trials", "1"])
    wc = WorldConfig(seed=0)
    assert (s.speed_mps, s.heading_deg, s.db_hz, s.duration_s) == (
        wc.speed_mps,
        wc.heading_deg,
        wc.db_hz,
        wc.duration_s,
    )
    assert (s.keypoints_per_frame, s.landmark_overlap) == (wc.keypoints_per_frame, wc.landmark_overlap)
    assert (s.query_noise_sigma, s.distractor_fraction) == (wc.query_noise_sigma, wc.distractor_fraction)
    assert s.exclusion_s == 1.0  # the evaluation handicap stays on here
    assert (s.steps, s.period_s, s.seed) == (6, 1.0, 0)


def test_query_rejects_a_manifest_that_is_not_utf8(dataset, capsys):
    # byte 0x80 in the third line, after lines ending \r\n
    db_path, qmanifest = write_query(dataset, PLAIN, ["0,q.desc"])
    qmanifest.write_bytes(b"timestamp_ns,descriptor_path\r\n0,q.desc\r\n500000000,q\x80.desc\r\n")
    assert main(["query", "--db", str(db_path), "--queries", str(qmanifest)]) == 2
    err = capsys.readouterr().err
    assert "usage error: queries.csv:3: not UTF-8" in err and "0x80" in err
    assert "Traceback" not in err


def test_query_a_database_holding_the_largest_frame_id(tmp_path, capsys):
    # frame ids above the int64 range, which every input format accepts
    rng = np.random.default_rng(52)
    ids = [2**64 - 1, 2**63, 3]
    frames = [GeoFrame(fid, i * 500_000_000, GeoPoint(49.0 + i * 5e-5, 8.0), DescriptorSet(unit_rows(rng, 12))) for i, fid in enumerate(ids)]
    save_db(Database(frames), tmp_path / "db.vldb")
    write_desc_file(tmp_path / "q.desc", frames[0])
    (tmp_path / "q.csv").write_text("timestamp_ns,descriptor_path\n0,q.desc\n")
    out_dir = tmp_path / "out"
    assert main(["query", "--db", str(tmp_path / "db.vldb"), "--queries", str(tmp_path / "q.csv"), "--out-dir", str(out_dir)]) == 0
    assert str(2**64 - 1) in capsys.readouterr().out
    assert (out_dir / "trace.csv").read_text().splitlines()[1].split(",")[2] == str(2**64 - 1)


BOM = b"\xef\xbb\xbf"


def test_query_and_build_db_accept_a_utf8_bom(dataset, capsys):
    # as Excel's "CSV UTF-8" and Windows Notepad write them
    tmp_path, manifest, _ = dataset
    manifest.write_bytes(BOM + manifest.read_bytes())
    db_path, qmanifest = write_query(dataset, PLAIN, ["500000000,q.desc"])
    qmanifest.write_bytes(BOM + qmanifest.read_bytes())
    assert main(["query", "--db", str(db_path), "--queries", str(qmanifest), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "trace.csv").read_text().splitlines()[1].split(",")[2] == "1"


def test_a_bom_manifest_names_the_line_and_byte_that_are_not_utf8(dataset, capsys):
    db_path, qmanifest = write_query(dataset, PLAIN, ["0,q.desc"])
    qmanifest.write_bytes(BOM + b"timestamp_ns,descriptor_path\n0,q.desc\n500000000,q\xfe.desc\n")
    assert main(["query", "--db", str(db_path), "--queries", str(qmanifest)]) == 2
    assert capsys.readouterr().err == "usage error: queries.csv:3: not UTF-8: invalid start byte at byte 0xfe\n"


def test_an_unusable_out_dir_fails_before_the_run(dataset, capsys, monkeypatch):
    tmp_path, manifest, _ = dataset
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    ran = []
    for name in ("run_monte_carlo", "load_db"):
        # wraps keeps the signature, which the parser reads run_monte_carlo's defaults from
        spy = functools.wraps(getattr(cli, name))(lambda *a, name=name, **k: ran.append(name))
        monkeypatch.setattr(cli, name, spy)
    for args in (["simulate", "--trials", "200"], ["query", "--db", "drive.vldb", "--queries", str(manifest)]):
        assert main(args + ["--out-dir", str(blocker)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 17] File exists") and str(blocker) in err
    assert ran == []
