"""Bounded fuzzing of the inputs read from outside the program.

Any bytes or manifest rows must either work or fail with one of the
package's error types (the CLI: exit code 1 or 2), never with another
exception or an allocation sized by a corrupt header. Examples are drawn
from a fixed seed so the suite stays repeatable.
"""

import contextlib
import csv
import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vloc.cli import main
from vloc.database import (
    _FRAME_HEAD,
    CSV_MANIFEST_HEADER,
    Database,
    GeoFrame,
    ingest_csv,
    load_db,
    read_desc_file,
    save_db,
    write_desc_file,
)
from vloc.errors import DatabaseFormatError, VlocError
from vloc.geodesy import GeoPoint
from vloc.matching import DESCRIPTOR_DIM, DescriptorSet

SEED = 32
"""Hypothesis seed of FUZZ."""


def FUZZ(test):
    """200 examples from a fixed seed, the same whatever the test's source: an edit to the test keeps the examples it drew.

    Derandomized examples are keyed on the test's source, comments aside, so any edit to its code redrew them all.
    """
    return seed(SEED)(settings(max_examples=200, deadline=None, database=None)(test))


@st.composite
def desc_bytes(draw):
    """A frame header with any field values, cut short or followed by any payload."""
    head = _FRAME_HEAD.pack(
        draw(st.integers(0, 2**64 - 1)),
        draw(st.integers(-(2**63), 2**63 - 1)),
        draw(st.floats(allow_nan=True, allow_infinity=True)),
        draw(st.floats(allow_nan=True, allow_infinity=True)),
        draw(st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1))),
    )
    rows = draw(st.integers(0, 4))
    payload = draw(st.binary(min_size=rows * DESCRIPTOR_DIM * 4, max_size=rows * DESCRIPTOR_DIM * 4 + 8))
    return head[: draw(st.integers(0, len(head)))] if draw(st.booleans()) else head + payload


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 6-frame database, a query copy of frame 2, empty and corrupt .desc files and a directory for fuzzed files."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(60)
    frames = []
    for i in range(6):
        rows = rng.standard_normal((12, DESCRIPTOR_DIM)).astype(np.float32)
        frames.append(GeoFrame(i, 500_000_000 * i, GeoPoint(49.0 + i * 5e-5, 8.0), DescriptorSet(rows)))
    save_db(Database(frames), root / "drive.vldb")
    write_desc_file(root / "q.desc", frames[2])
    (root / "empty.desc").write_bytes(b"")
    (root / "bad.desc").write_bytes(b"\x01" * 40)
    return root


@FUZZ
@given(data=st.one_of(st.binary(max_size=600), desc_bytes()))
def test_read_desc_file_returns_or_raises_vloc_error(files, data):
    path = files / "fuzzed.desc"
    path.write_bytes(data)
    try:
        frame = read_desc_file(path)
    except (VlocError, OSError) as exc:
        # the reader names the file once, before the problem
        assert not isinstance(exc, DatabaseFormatError) or str(exc).startswith(f"{path}: ")
        return
    assert isinstance(frame, GeoFrame)


PLAIN = "timestamp_ns,descriptor_path"
WITH_TRUTH = PLAIN + ",truth_lat,truth_lon"
FIELD = st.one_of(
    st.sampled_from(["q.desc", "empty.desc", "absent.desc", "", "nan", "-1"]),
    st.integers(-(2**70), 2**70).map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)


def mostly(good, other=FIELD):
    """Draws from good three times in four, else from other."""
    return st.integers(0, 3).flatmap(lambda i: good if i else other)


@st.composite
def manifests(draw):
    """Mostly well-formed manifests, so the checks past the first field and
    the localization behind them run too."""
    header = draw(mostly(st.sampled_from([PLAIN, WITH_TRUTH])))
    width = header.count(",") + 1
    rows = []
    for i in range(draw(st.integers(0, 5))):
        row = [
            # strictly increasing: row i falls in second i
            draw(mostly(st.integers(0, 10**9 - 1).map(lambda t, i=i: str(i * 10**9 + t)))),
            draw(mostly(st.just("q.desc"))),
            draw(mostly(st.sampled_from(["", "49.0", "49.0001"]))),
            draw(mostly(st.sampled_from(["", "8.0", "8.0001"]))),
            draw(FIELD),
        ]
        rows.append(row[: draw(mostly(st.just(width), st.integers(0, len(row))))])
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    body = draw(mostly(st.just(out.getvalue()), st.text(max_size=80)))
    return header + "\n" + body


@FUZZ
@given(manifest=manifests())
def test_query_exits_cleanly_on_any_manifest(files, manifest):
    path = files / "queries.csv"
    path.write_text(manifest, encoding="utf-8")
    argv = ["query", "--db", str(files / "drive.vldb"), "--queries", str(path), "--out-dir", str(files / "out")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)


@st.composite
def vldb_bytes(draw):
    """Version 1 or 2 database bytes: half well-formed, half with mutated counts,
    row ranges, geotags and payloads, cut anywhere or followed by stray bytes."""
    corrupt = draw(st.booleans())

    def field(true, other):
        return draw(mostly(st.just(true), other)) if corrupt else true

    def size(true, big):
        # a count or length kept half the time, else mostly one that an
        # allocation could still take, or any value up to big, or one near it
        if not corrupt or draw(st.booleans()):
            return true
        return draw(mostly(st.integers(2**16, 2**24), st.one_of(st.integers(0, big), st.integers(big - 2**20, big))))

    def payload(rows):
        finite = np.full(rows * DESCRIPTOR_DIM, draw(st.floats(-1.0, 1.0, width=32)), dtype="<f4").tobytes()
        return field(finite, st.binary(min_size=len(finite), max_size=len(finite)))

    version = field(draw(st.sampled_from([1, 2])), st.integers(0, 2**32 - 1))
    n = draw(st.integers(0, 4))
    frames = [
        (
            field(i, st.integers(0, 2**64 - 1)),
            draw(st.integers(-(2**63), 2**63 - 1)),
            field(49.0 + i * 1e-4, st.floats()),
            field(8.0, st.floats()),
        )
        for i in range(n)
    ]
    out = io.BytesIO()
    if version == 2:
        rows = draw(st.integers(0, 6))
        camera = field(b"cam0", st.binary(max_size=6))
        out.write(struct.pack("<4sIIQI", b"VLDB", version, size(n, 2**32 - 1), size(rows, 2**64 - 1), size(len(camera), 2**32 - 1)))
        out.write(camera)
        for fid, ts, lat, lon in frames:
            start = draw(st.integers(0, rows))
            stop = draw(st.integers(start, rows))
            out.write(struct.pack("<QqddQQ", fid, ts, lat, lon, size(start, 2**64 - 1), size(stop, 2**64 - 1)))
        out.write(payload(rows))
    else:
        out.write(struct.pack("<4sII", b"VLDB", version, size(n, 2**32 - 1)))
        for fid, ts, lat, lon in frames:
            k = draw(st.integers(0, 3))
            out.write(_FRAME_HEAD.pack(fid, ts, lat, lon, size(k, 2**32 - 1)))
            out.write(payload(k))
    data = out.getvalue()
    return data[: field(len(data), st.integers(0, len(data)))] + field(b"", st.binary(min_size=1, max_size=8))


@FUZZ
@given(data=vldb_bytes())
def test_load_db_returns_or_raises_vloc_error(files, data):
    path = files / "fuzzed.vldb"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        db = load_db(path)
    except (VlocError, OSError) as exc:
        assert not isinstance(exc, DatabaseFormatError) or str(exc).startswith(f"{path}: ")
        db = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # every allocation is bounded by the file, none by a header's count alone
    assert peak <= 2**20 + 4 * len(data)
    assert db is None or isinstance(db, Database)


@st.composite
def db_manifests(draw):
    """build-db manifests over good, empty, corrupt and absent .desc files:
    half well-formed, half with fields, rows, text or bytes replaced."""
    corrupt = draw(st.booleans())

    def field(true, other=FIELD):
        return draw(mostly(st.just(true), other)) if corrupt else true

    rows = []
    for i in range(draw(st.integers(0, 4))):
        row = [
            field(str(i)),
            field(str(i * 10**8)),
            field("49.0"),
            field("8.0"),
            field("q.desc", st.one_of(st.sampled_from(["bad.desc", "empty.desc", "absent.desc"]), FIELD)),
        ]
        rows.append(row[: field(5, st.integers(0, 5))])
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    text = field(",".join(CSV_MANIFEST_HEADER), st.text(max_size=40)) + "\n" + field(out.getvalue(), st.text(max_size=80))
    return field(text.encode("utf-8"), st.binary(max_size=80))


@FUZZ
@given(manifest=db_manifests())
def test_ingest_csv_returns_or_raises_vloc_error(files, manifest):
    path = files / "frames.csv"
    path.write_bytes(manifest)
    try:
        db = ingest_csv(path)
    except (VlocError, OSError):
        return
    assert isinstance(db, Database)
