"""Geotagged descriptor database: storage, ingestion, windowed retrieval.

In memory a Database is one read-only frame table, the version-2 file's
(_TABLE), over one read-only descriptor block: per frame, in (timestamp,
id) order, a uint64 id, an int64 timestamp, a float64 latitude and
longitude, and the row range [start, stop) of the block that holds its
descriptors. Starts do not decrease; ranges may overlap or touch. The
table is the only record of which rows a frame holds. A drive's block is
its landmark pool, a loaded database's the file's block and an ingested
one's the block that its .desc payloads were read into, in frame order;
all are held as they are. Database(frames) copies the frames' rows into a
new block in frame order (_pack). A scan slices its candidates' ids and
row ranges from the table's fields, gathering them only around an
exclusion gap, and scores the block's rows in chunks, without a GeoFrame
per frame; GeoFrames, each viewing its rows of the block, are built only
when one is asked for (the winner of a scan, db[i], ``frame_by_id``).

On-disk container format, version 2 (little-endian throughout):

    magic        4 bytes  b"VLDB"
    version      u32      2
    count        u32      number of frames
    rows         u64      rows of the descriptor block
    camera_len   u32      then camera_len bytes of UTF-8 camera name
    then one 48-byte record per frame:
        frame_id     u64
        timestamp_ns i64
        lat          f64 decimal degrees
        lon          f64 decimal degrees
        start, stop  u64 the frame's descriptors are rows [start, stop)
    then the descriptor block: rows * 128 * f32

``save_db`` writes the database's table and block as it holds them, so
rows that frames share (a drive's) are written once and frame ranges may
overlap. Frames that owned their rows, as ingested frames do, were packed
one after another, and the block then holds the same rows in the same
order as version 1.

``save_db`` always writes version 2. ``load_db`` also reads version 1,
which has no row count, table or camera name; after its header come, per
frame:

    frame_id u64, timestamp_ns i64, lat f64, lon f64, k u32,
    then k * 128 * f32 descriptors

A standalone ``.desc`` file is one version-1 frame record without the
container header. Descriptor extraction runs out-of-process (any
SIFT-style frontend works); this module only consumes its output.
"""

import codecs
import csv
import io
import logging
import math
import os
import re
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional

import numpy as np

from .errors import DatabaseFormatError, EmptyCandidatesError, IngestError
from .geodesy import GeoPoint
from .matching import DESCRIPTOR_DIM, DescriptorSet, MatchConfig, _Candidates, best_match

logger = logging.getLogger(__name__)

MAGIC = b"VLDB"
FORMAT_VERSION = 2

_HEADER = struct.Struct("<4sII")
"""Magic, version and frame count: the head of either version."""
_V2_HEAD = struct.Struct("<QI")
"""Block rows and camera name length, after _HEADER in version 2."""
_TABLE = np.dtype(
    [("frame_id", "<u8"), ("timestamp_ns", "<i8"), ("lat", "<f8"), ("lon", "<f8"), ("start", "<u8"), ("stop", "<u8")]
)
"""One version-2 frame record."""
_FRAME_HEAD = struct.Struct("<QqddI")
"""Head of a version-1 frame record and of a .desc file."""
_ROW_BYTES = DESCRIPTOR_DIM * 4

_CHECK_ROWS = 4096
"""Rows per finiteness check of a loaded block, bounding its temporary."""

CSV_MANIFEST_HEADER = ["frame_id", "timestamp_ns", "lat_deg", "lon_deg", "descriptor_path"]

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class GeoFrame:
    """One database image: identity, capture time, geotag, descriptors."""

    frame_id: int
    timestamp_ns: int
    geotag: GeoPoint
    descriptors: DescriptorSet

    def __post_init__(self):
        if not 0 <= self.frame_id < 2**64:
            raise ValueError(f"frame_id {self.frame_id} outside the uint64 range")
        if not _I64_MIN <= self.timestamp_ns <= _I64_MAX:
            raise ValueError(f"frame {self.frame_id}: timestamp_ns {self.timestamp_ns} outside the int64 range")


class Database(Sequence):
    """Geotagged frames as one table sorted by (timestamp_ns, frame_id), indexed as a sequence, with provenance.

    Row i of the read-only frame table (_TABLE, the record of the .vldb
    version-2 table) is frame i: its uint64 id, int64 capture time, float64
    geotag and the rows [start, stop) of one read-only block that hold its
    descriptors. Starts do not decrease; ranges may overlap or touch, as a
    drive's frames share the rows of its landmark pool. Frame ids must be
    unique; frames are sorted at construction, so ingest order does not
    matter. Database(frames) copies the frames' rows into a new block in
    frame order, so frames share rows only where a table built directly
    says so (a drive, a loaded file). A GeoFrame is built only when one is
    asked for: db[i] builds frame i, a slice a tuple of frames, and
    iteration each frame in turn; ``frames`` is the database itself.
    """

    def __init__(self, frames: Iterable[GeoFrame], source: str = "", camera: str = ""):
        frames = sorted(frames, key=lambda f: (f.timestamp_ns, f.frame_id))
        table = np.array([(f.frame_id, f.timestamp_ns, f.geotag.lat, f.geotag.lon, 0, 0) for f in frames], dtype=_TABLE)
        block, table["start"], table["stop"] = _pack([f.descriptors.array for f in frames])
        self._init(table, block, source, camera)

    @classmethod
    def _from_table(cls, table: np.ndarray, block: DescriptorSet, source: str = "", camera: str = "") -> "Database":
        """A database of a _TABLE frame table in any order, its ranges rows of block, as _init takes them."""
        db = cls.__new__(cls)
        db._init(table, block, source, camera)
        return db

    def _init(self, table: np.ndarray, block: DescriptorSet, source: str, camera: str) -> None:
        """Row i of the _TABLE table is a frame, its descriptors rows start:stop of block; rows in any order.

        A sorted copy of the table is kept, frozen. Frames whose starts
        decrease once sorted have their rows copied, in frame order, into a
        new block (_pack). Raises ValueError for a duplicate id. The
        geotags are not checked here: every caller has built them as
        GeoPoints or checked them (_check_geotags).
        """
        table = table[np.lexsort((table["frame_id"], table["timestamp_ns"]))]
        start, stop = table["start"], table["stop"]
        if (start[1:] < start[:-1]).any():
            block, table["start"], table["stop"] = _pack([block.array[a:b] for a, b in zip(start.tolist(), stop.tolist())])
        id_order = np.argsort(table["frame_id"], kind="stable")
        sorted_ids = table["frame_id"][id_order]
        twin = np.flatnonzero(sorted_ids[1:] == sorted_ids[:-1])
        if twin.size:
            raise ValueError(f"duplicate frame_id {sorted_ids[twin[0]]}")
        table.setflags(write=False)
        id_order.setflags(write=False)
        self._table, self._block = table, block
        # frame_by_id binary-searches the ids in this order
        self._id_order = id_order
        self.source = source
        self.camera = camera

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        fid, ts, lat, lon, start, stop = self._table[i].tolist()
        return GeoFrame(fid, ts, GeoPoint(lat, lon), DescriptorSet._wrap(self._block.array[start:stop]))

    def __len__(self) -> int:
        return len(self._table)

    @property
    def frames(self) -> "Database":
        """The database itself, the sequence of its frames."""
        return self

    def frame_by_id(self, frame_id: int) -> GeoFrame:
        if 0 <= frame_id < 2**64:
            ids = self._table["frame_id"]
            j = int(ids.searchsorted(np.uint64(frame_id), sorter=self._id_order))
            if j < len(self) and ids[self._id_order[j]] == frame_id:
                return self[self._id_order[j]]
        raise KeyError(frame_id)

    def __repr__(self) -> str:
        return f"Database(frames={len(self)}, source={self.source!r}, camera={self.camera!r})"


def _pack(arrays: Sequence[np.ndarray]) -> tuple[DescriptorSet, np.ndarray, np.ndarray]:
    """A new block of the arrays' rows, copied in order, and each array's rows of it: array i is rows starts[i]:stops[i]."""
    widths = np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays))
    # the empty head keeps concatenate from raising on no arrays
    block = np.concatenate([np.empty((0, DESCRIPTOR_DIM), dtype=np.float32), *arrays])
    block.setflags(write=False)
    stops = np.cumsum(widths)
    return DescriptorSet._wrap(block), stops - widths, stops


@dataclass(frozen=True)
class ScanConfig:
    """Controls which frames a scan may consider.

    window_s restricts candidates to within that many seconds of the scan's
    center_ts; inf, or a scan without a center (as on the first query of a
    sequence), considers the whole database. exclusion_s drops frames within
    that many seconds of the query's own timestamp; that is an evaluation
    handicap for databases recorded on the same drive as the queries, and 0,
    the default, turns it off. A value under 1 ns drops only frames at the
    query's own nanosecond.
    """

    window_s: float = 20.0
    exclusion_s: float = 0.0

    def __post_init__(self):
        if not self.window_s > 0:
            raise ValueError(f"window_s must be positive, got {self.window_s}")
        if not self.exclusion_s >= 0:
            raise ValueError(f"exclusion_s must be non-negative, got {self.exclusion_s}")


def scan(
    db: Database,
    query: DescriptorSet,
    query_ts: int,
    cfg: ScanConfig,
    match_cfg: MatchConfig,
    center_ts: Optional[int] = None,
) -> tuple[GeoFrame, int]:
    """Best-matching frame among those passing the window and exclusion filters.

    The window is centered on center_ts; without one the scan is unwindowed.
    A frame is inside the window when |timestamp_ns - center_ts| <=
    window_s * 1e9, and, unless exclusion_s is 0, excluded when
    |timestamp_ns - query_ts| <= exclusion_s * 1e9, so the candidates are
    at most two runs of consecutive frames. Returns (frame,
    correspondence_count). Raises EmptyCandidatesError when filtering
    leaves nothing to score.
    """
    table = db._table
    lo, hi = 0, len(db)
    if center_ts is not None:
        lo, hi = _within(table["timestamp_ns"], center_ts, cfg.window_s)
    keep = slice(lo, hi)
    if cfg.exclusion_s:
        cut_lo, cut_hi = _within(table["timestamp_ns"], query_ts, cfg.exclusion_s)
        keep = np.arange(lo, hi)
        keep = keep[(keep < cut_lo) | (keep >= cut_hi)]
    candidates = _Candidates(table["frame_id"][keep], db._block, table["start"][keep], table["stop"][keep])
    if not len(candidates):
        raise EmptyCandidatesError(
            f"no candidate frames for query_ts={query_ts} "
            f"(window_s={cfg.window_s}, center_ts={center_ts}, exclusion_s={cfg.exclusion_s})"
        )
    fid, count = best_match(query, candidates, match_cfg)
    return db.frame_by_id(fid), count


def _within(timestamps: np.ndarray, center: int, seconds: float) -> tuple[int, int]:
    """Index range of the sorted timestamps within seconds of center, ends included.

    The bounds are whole nanoseconds, floor(seconds * 1e9) either side:
    exactly what comparing the integer distance with the float radius
    gives. A float bound would not do, as a float near 1.5e18 ns is only
    256 ns fine.
    """
    radius = math.floor(min(seconds * 1e9, 2**64))  # 2**64 ns spans every int64 pair
    lo = min(max(int(center) - radius, _I64_MIN), _I64_MAX)
    hi = min(max(int(center) + radius, _I64_MIN), _I64_MAX)
    return int(timestamps.searchsorted(lo, "left")), int(timestamps.searchsorted(hi, "right"))


# ---------------------------------------------------------------------------
# binary serialization


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise DatabaseFormatError(f"truncated file: expected {n} bytes for {what}, got {len(buf)}")
    return buf


def save_db(db: Database, path) -> None:
    """Serialize a database in format version 2; the result round-trips bit-exactly.

    The frame table and the block written are the database's, as it holds
    them, rows that no frame covers included.
    """
    camera = db.camera.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(db)) + _V2_HEAD.pack(len(db._block), len(camera)) + camera)
        fh.write(db._table.tobytes())
        fh.write(db._block.array.astype("<f4", copy=False))


def load_db(path) -> Database:
    """Read a database written by save_db, in format version 2 or 1.

    All descriptors are read into one read-only block, which becomes the
    database's block, as the frame table becomes its table, so scans score runs
    of consecutive frames without copying them, and rows that version-2
    frames share only once. Every size is checked against the file's
    before anything is allocated for it, and the file is checked whole
    before the database is built. Each DatabaseFormatError starts "path: ".
    """
    with open(path, "rb") as fh:
        try:
            size = os.fstat(fh.fileno()).st_size
            magic, version, count = _HEADER.unpack(_read_exact(fh, _HEADER.size, "header"))
            if magic != MAGIC:
                raise DatabaseFormatError(f"bad magic {magic!r}, not a descriptor database")
            if version == 1:
                table, block, camera = _read_v1(fh, size, count)
            elif version == 2:
                table, block, camera = _read_v2(fh, size, count)
            else:
                raise DatabaseFormatError(f"unsupported format version {version}")
            block = block.astype(np.float32, copy=False)
            for lo in range(0, len(block), _CHECK_ROWS):
                finite = np.isfinite(block[lo : lo + _CHECK_ROWS]).all(axis=1)
                if not finite.all():
                    bad = lo + int(np.argmin(finite))
                    held = np.flatnonzero((table["start"] <= bad) & (bad < table["stop"]))
                    where = f"frame {table['frame_id'][held[0]]}" if held.size else f"descriptor row {bad}"
                    raise DatabaseFormatError(f"{where}: descriptor components must be finite")
            block.setflags(write=False)
            return Database._from_table(table, DescriptorSet._wrap(block), source=str(path), camera=camera)
        # the ValueError is a duplicate frame id, which the database rejects
        except (DatabaseFormatError, ValueError) as exc:
            raise DatabaseFormatError(f"{path}: {exc}") from None


def _read_record(fh: BinaryIO, size: int, raw: memoryview, row: int) -> tuple:
    """Read the version-1 frame record at fh's position, its k descriptors into raw as rows from row on.

    Returns (frame_id, timestamp_ns, lat, lon, row, row + k); k is checked
    against the bytes left in the size-byte file before any row is read.
    """
    fid, ts, lat, lon, k = _FRAME_HEAD.unpack(_read_exact(fh, _FRAME_HEAD.size, "frame header"))
    want, left = k * _ROW_BYTES, size - fh.tell()
    got = fh.readinto(raw[row * _ROW_BYTES :][:want]) if want <= left else left
    if got != want:
        raise DatabaseFormatError(f"truncated file: expected {want} bytes for descriptors of frame {fid}, got {got}")
    return fid, ts, lat, lon, row, row + k


def _read_v1(fh: BinaryIO, size: int, count: int) -> tuple[np.ndarray, np.ndarray, str]:
    """Frame table, descriptor block and (empty) camera name of a version-1 file, read frame by frame."""
    block = np.empty(((size - fh.tell()) // _ROW_BYTES, DESCRIPTOR_DIM), dtype="<f4")
    heads, rows = [], 0
    with memoryview(block.view(np.uint8).reshape(-1)) as raw:
        for _ in range(count):
            heads.append(_read_record(fh, size, raw, rows))
            rows = heads[-1][-1]
    if fh.read(1):
        raise DatabaseFormatError("trailing bytes after last frame")
    table = np.array(heads, dtype=_TABLE)
    _check_geotags(table)
    return table, block[:rows], ""


def _read_v2(fh: BinaryIO, size: int, count: int) -> tuple[np.ndarray, np.ndarray, str]:
    """Frame table, descriptor block and camera name of a version-2 file.

    Sizes, row ranges and geotags are checked on the whole table before
    the block is allocated; the block is then read in one call.
    """
    rows, camera_len = _V2_HEAD.unpack(_read_exact(fh, _V2_HEAD.size, "header"))
    left = size - fh.tell()
    if camera_len > left:
        raise DatabaseFormatError(f"truncated file: expected {camera_len} bytes for the camera name, got {left}")
    try:
        camera = _read_exact(fh, camera_len, "the camera name").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatabaseFormatError(f"camera name is not UTF-8 ({exc})") from None
    left -= camera_len
    if count * _TABLE.itemsize > left:
        raise DatabaseFormatError(f"truncated file: frame table holds {left // _TABLE.itemsize} of {count} frame records")
    table = np.frombuffer(_read_exact(fh, count * _TABLE.itemsize, "the frame table"), dtype=_TABLE)
    left -= count * _TABLE.itemsize
    start, stop = table["start"], table["stop"]
    bad = (start > stop) | (stop > rows)
    if bad.any():
        i = int(np.argmax(bad))
        raise DatabaseFormatError(
            f"frame {table['frame_id'][i]}: rows [{start[i]}, {stop[i]}) are not a range of a {rows}-row block"
        )
    if left < rows * _ROW_BYTES:
        cut = np.flatnonzero(stop > left // _ROW_BYTES)
        who = f"frame {table['frame_id'][cut[0]]} needs rows up to {stop[cut[0]]}, but " if cut.size else ""
        raise DatabaseFormatError(f"truncated file: {who}the descriptor block holds {left} of {rows * _ROW_BYTES} bytes")
    if left > rows * _ROW_BYTES:
        raise DatabaseFormatError("trailing bytes after the descriptor block")
    _check_geotags(table)
    block = np.empty((rows, DESCRIPTOR_DIM), dtype="<f4")
    with memoryview(block.view(np.uint8).reshape(-1)) as raw:
        got = fh.readinto(raw)
    if got != left:
        raise DatabaseFormatError(f"truncated file: expected {left} bytes for the descriptor block, got {got}")
    return table, block, camera


def _check_geotags(table: np.ndarray) -> None:
    """Raise DatabaseFormatError naming the first frame of the table whose geotag GeoPoint rejects."""
    lat, lon = table["lat"], table["lon"]
    ok = (np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0)  # false for NaN
    if not ok.all():
        i = int(np.argmin(ok))
        try:
            GeoPoint(float(lat[i]), float(lon[i]))
        except ValueError as exc:
            raise DatabaseFormatError(f"frame {table['frame_id'][i]}: {exc}") from None


def write_desc_file(path, frame: GeoFrame) -> None:
    """Write one frame as a standalone .desc record."""
    arr = frame.descriptors.array
    with open(path, "wb") as fh:
        fh.write(_FRAME_HEAD.pack(frame.frame_id, frame.timestamp_ns, frame.geotag.lat, frame.geotag.lon, len(arr)))
        fh.write(arr.astype("<f4", copy=False).tobytes())


def read_desc_file(path) -> GeoFrame:
    """Read one .desc record (a frame without the container header), checked as _read_desc_files checks it.

    Its header geotag, which only this reader returns, must be one GeoPoint
    accepts (DatabaseFormatError naming the frame otherwise).
    """
    ((fid, ts, lat, lon, _, _),), block = _read_desc_files([path])
    try:
        geotag = GeoPoint(lat, lon)
    except ValueError as exc:
        raise DatabaseFormatError(f"{path}: frame {fid}: {exc}") from None
    return GeoFrame(fid, ts, geotag, block)


def _read_desc_files(paths: Sequence, error=lambda i, exc: exc) -> tuple[list[tuple], DescriptorSet]:
    """The records of the .desc files at paths, read in order into one read-only block.

    Record i is (frame_id, timestamp_ns, lat, lon, start, stop) of paths[i],
    its descriptors rows [start, stop) of the block, which is sized from the
    files' sizes. Each file's trailing bytes and descriptors' finiteness are
    checked once its record is read; its header geotag is returned as it is,
    unchecked, as ingest and queries ignore it. A DatabaseFormatError of
    paths[i], prefixed with the path, or an OSError or ValueError (a path
    that cannot be opened) as Python raised it, raises error(i, exc).
    """
    rows = 0
    for i, path in enumerate(paths):
        try:
            rows += max(os.stat(path).st_size - _FRAME_HEAD.size, 0) // _ROW_BYTES
        except (OSError, ValueError) as exc:
            raise error(i, exc) from None
    block = np.empty((rows, DESCRIPTOR_DIM), dtype="<f4")
    records, rows = [], 0
    with memoryview(block.view(np.uint8).reshape(-1)) as raw:
        for i, path in enumerate(paths):
            try:
                with open(path, "rb") as fh:
                    fid, ts, lat, lon, start, rows = _read_record(fh, os.fstat(fh.fileno()).st_size, raw, rows)
                    if fh.read(1):
                        raise DatabaseFormatError("trailing bytes")
                if not np.isfinite(block[start:rows]).all():
                    raise DatabaseFormatError(f"frame {fid}: descriptor components must be finite")
            except DatabaseFormatError as exc:
                raise error(i, DatabaseFormatError(f"{path}: {exc}")) from None
            except (OSError, ValueError) as exc:
                raise error(i, exc) from None
            records.append((fid, ts, lat, lon, start, rows))
    block = block[:rows].astype(np.float32, copy=False)
    block.setflags(write=False)
    return records, DescriptorSet._wrap(block)


# ---------------------------------------------------------------------------
# ingestion


def _parse_kitti_timestamp(line: str, where: str) -> int:
    # "2011-09-26 13:02:25.594360375" with nanosecond fraction, taken as UTC
    text = line.strip()
    base, _, frac = text.partition(".")
    try:
        dt = datetime.strptime(base, "%Y-%m-%d %H:%M:%S").replace(tzinfo=timezone.utc)
        # int() would also take a sign, "_", spaces or another script's digits
        if frac and not (frac.isascii() and frac.isdigit()):
            raise ValueError(f"fraction {frac!r} is not digits")
    except ValueError as exc:
        raise IngestError(f"{where}: bad timestamp {text!r}") from exc
    ns = int(frac.ljust(9, "0")[:9]) + int(dt.timestamp()) * 1_000_000_000
    if not _I64_MIN <= ns <= _I64_MAX:
        raise IngestError(f"{where}: timestamp_ns {ns} outside the int64 range")
    return ns


def _parse_oxts_latlon(path: Path, index: str) -> GeoPoint:
    try:
        tokens = _manifest_text(path, IngestError).split()
    except OSError as exc:
        raise IngestError(f"frame {index}: {exc}") from exc
    if len(tokens) < 2:
        raise IngestError(f"frame {index}: oxts record has {len(tokens)} fields, need at least 2")
    try:
        lat, lon = float(tokens[0]), float(tokens[1])
    except ValueError:
        raise IngestError(f"frame {index}: non-numeric lat/lon in {path.name}") from None
    try:
        return GeoPoint(lat, lon)
    except ValueError as exc:
        raise IngestError(f"frame {index}: {exc}") from None


def ingest_kitti(root) -> Database:
    """Build a database from a KITTI-raw style directory.

    Expects oxts/timestamps.txt, oxts/data/<index>.txt (lat and lon in the
    first two fields) and descriptors/<index>.desc, one of each per frame.
    Line i of timestamps.txt belongs to the i-th frame in numeric index
    order, so indices need not be zero-padded; two file names of one index
    (1 and 01) are rejected. The oxts records are authoritative for
    timestamps and geotags; only the descriptor payload of each .desc file
    is used.
    """
    root = Path(root)
    ts_path = root / "oxts" / "timestamps.txt"
    if not ts_path.is_file():
        raise FileNotFoundError(f"missing {ts_path}")
    data_dir = root / "oxts" / "data"
    desc_dir = root / "descriptors"
    for d in (data_dir, desc_dir):
        if not d.is_dir():
            raise FileNotFoundError(f"missing directory {d}")

    lines = [ln for ln in _manifest_text(ts_path, IngestError).splitlines() if ln.strip()]
    data_stems = {p.stem for p in data_dir.glob("*.txt")}
    desc_stems = {p.stem for p in desc_dir.glob("*.desc")}
    if data_stems != desc_stems:
        index = min(data_stems ^ desc_stems)
        has, lacks = ("an oxts record", "descriptor file") if index in data_stems else ("a descriptor file", "oxts record")
        raise IngestError(f"frame {index}: {has} but no {lacks}")
    for index in sorted(data_stems):
        if not (index.isascii() and index.isdigit() and int(index) < 2**64):
            raise IngestError(f"frame {index}: file name is not a frame index in [0, 2**64)")
    # numeric order, which string order is only for stems of one width
    stems = sorted(sorted(data_stems), key=int)
    for a, b in zip(stems, stems[1:]):
        if int(a) == int(b):
            raise IngestError(f"frames {a} and {b}: two file names for frame index {int(a)}")
    if len(lines) != len(stems):
        raise IngestError(f"count mismatch: {len(lines)} timestamps for {len(stems)} frames")

    frames = []
    for line, index in zip(lines, stems):
        where = f"frame {index}"
        ts = _parse_kitti_timestamp(line, where)
        frames.append((int(index), ts, _parse_oxts_latlon(data_dir / f"{index}.txt", index), desc_dir / f"{index}.desc", where))
    db = _ingest(frames, source=str(root), camera="kitti")
    logger.info("ingested %d KITTI frames from %s", len(db), root)
    return db


def _ingest(frames: list[tuple], source: str, camera: str) -> Database:
    """A database of (frame_id, timestamp_ns, geotag, .desc path, where) frames.

    The frames are sorted first and their descriptors read in that order
    into one block, which the database keeps as it is, each frame's rows
    being those its .desc payload was read into. Only the payload of each
    .desc file is used; a file that cannot be read raises IngestError
    naming its frame's where.
    """
    frames = sorted(frames, key=lambda f: (f[1], f[0]))
    records, block = _read_desc_files(
        [f[3] for f in frames], lambda i, exc: IngestError(f"{frames[i][4]}: unreadable descriptors: {exc}")
    )
    table = np.array([(f[0], f[1], f[2].lat, f[2].lon, r[4], r[5]) for f, r in zip(frames, records)], dtype=_TABLE)
    return Database._from_table(table, block, source=source, camera=camera)


def _manifest_text(path: Path, error) -> str:
    """The text of a UTF-8 manifest less one leading byte-order mark; bytes that are not UTF-8 raise error naming file:line."""
    # a BOM holds no line end, so lines and bytes are counted the same past it
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end where csv, reading with newline="", ends them
        line = 1 + len(re.findall(rb"\r\n|\r|\n", data[: exc.start]))
        raise error(f"{path.name}:{line}: not UTF-8: {exc.reason} at byte {data[exc.start]:#04x}") from None


def _manifest_rows(path: Path, headers: list[list[str]], error) -> Iterator[tuple[str, list[str]]]:
    """("file:line", fields) of each non-blank record of a UTF-8 CSV manifest.

    The header must be one of headers and each record must have as many
    fields as it. Text that is not UTF-8 or not CSV, another header or
    another field count raises error naming the file and, past the header,
    the line.
    """
    with io.StringIO(_manifest_text(path, error), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise error(f"{path.name}: empty manifest")
            if header not in headers:
                raise error(f"{path.name}: header must be {' or '.join(map(','.join, headers))}")
            for fields in filter(None, reader):
                where = f"{path.name}:{reader.line_num}"
                if len(fields) != len(header):
                    raise error(f"{where}: expected {len(header)} fields, got {len(fields)}")
                yield where, fields
        except csv.Error as exc:
            raise error(f"{path.name}:{reader.line_num}: {exc}") from None


def ingest_csv(manifest) -> Database:
    """Build a database from a CSV manifest.

    Header must be exactly frame_id,timestamp_ns,lat_deg,lon_deg,
    descriptor_path. Relative descriptor paths resolve against the manifest
    directory. Rows may be in any order; duplicate frame ids are rejected.
    """
    manifest = Path(manifest)
    frames = []
    seen: set[int] = set()
    for where, row in _manifest_rows(manifest, [CSV_MANIFEST_HEADER], IngestError):
        try:
            fid, ts = int(row[0]), int(row[1])
            geotag = GeoPoint(float(row[2]), float(row[3]))
        except ValueError as exc:
            raise IngestError(f"{where}: {exc}") from None
        if not 0 <= fid < 2**64:
            raise IngestError(f"{where}: frame_id {fid} outside [0, 2**64)")
        if not _I64_MIN <= ts <= _I64_MAX:
            raise IngestError(f"{where}: timestamp_ns {ts} outside the int64 range")
        if fid in seen:
            raise IngestError(f"{where}: duplicate frame_id {fid}")
        if not row[4]:
            raise IngestError(f"{where}: empty descriptor_path")
        seen.add(fid)
        frames.append((fid, ts, geotag, manifest.parent / row[4], where))
    return _ingest(frames, source=str(manifest), camera="")
