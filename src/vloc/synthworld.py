"""Synthetic drives for calibrating and stress-testing the pipeline.

The generated vehicle moves at constant speed along a straight line in
meters on the plane tangent at its start (so a drive may cross the
antimeridian), photographing at a fixed rate. Scene content is modelled as
a pool of landmark descriptors: each frame sees a contiguous slice of the
pool, and the slice advances a few landmarks per frame. Two frames
therefore share descriptors in linear proportion to their time
difference, which mimics real image overlap decay and is exactly
symmetric in both directions.

Queries replay positions on the same path: each takes the nearest frame's
descriptors, perturbed per component with Gaussian noise, with a fraction
replaced by random distractor vectors.
"""

from dataclasses import dataclass, replace
import math
from math import cos, radians, sin

import numpy as np

from .database import _TABLE, Database, ScanConfig
from .geodesy import GeoPoint, from_plane
from .kalman import FilterConfig
from .matching import DESCRIPTOR_DIM, DescriptorSet, MatchConfig
from .pipeline import ErrorStats, Query, TraceStep, evaluate, localize_sequence

T0_NS = 1_500_000_000_000_000_000
"""Epoch of every synthetic drive."""


@dataclass(frozen=True)
class WorldConfig:
    """Parameters of a synthetic drive and its query model."""

    speed_mps: float = 18.0
    heading_deg: float = 45.0
    db_hz: float = 10.0
    duration_s: float = 8.0
    keypoints_per_frame: int = 200
    landmark_overlap: float = 0.95
    query_noise_sigma: float = 0.01
    distractor_fraction: float = 0.1
    start_lat: float = 49.0
    start_lon: float = 8.4
    seed: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.speed_mps < 0:
            raise ValueError(f"speed_mps must be non-negative, got {self.speed_mps}")
        if not self.db_hz > 0:
            raise ValueError(f"db_hz must be positive, got {self.db_hz}")
        if not self.duration_s > 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if not _timestamps_fit(self):
            raise ValueError(
                f"db_hz={self.db_hz} and duration_s={self.duration_s} put frame timestamps past the int64 nanosecond range"
            )
        if _frame_period_ns(self) == 0:
            raise ValueError(f"db_hz={self.db_hz} gives a frame period that rounds to 0 ns")
        # the path is straight on the plane tangent at the start, so latitude and
        # the unwrapped longitude move linearly: the drive stays on the globe if
        # its start and last frame do, its longitude wrapping within one turn
        lat, lon = self.start_lat, self.start_lon
        if abs(lat) <= 90.0 and abs(lon) <= 180.0:
            lat, lon = _lat_lon(self, T0_NS + max(_frame_count(self) - 1, 0) * _frame_period_ns(self))
        if not (abs(lat) <= 90.0 and abs(lon) <= 180.0):
            raise ValueError(
                f"speed_mps={self.speed_mps}, heading_deg={self.heading_deg} and duration_s={self.duration_s} "
                f"from ({self.start_lat}, {self.start_lon}) take the drive to ({lat}, {lon}), "
                "outside latitude [-90, 90] or longitude [-180, 180]"
            )
        if self.keypoints_per_frame < 2:
            raise ValueError(f"keypoints_per_frame must be at least 2, got {self.keypoints_per_frame}")
        if not 0.0 <= self.landmark_overlap <= 1.0:
            raise ValueError(f"landmark_overlap must be in [0, 1], got {self.landmark_overlap}")
        if self.query_noise_sigma < 0:
            raise ValueError(f"query_noise_sigma must be non-negative, got {self.query_noise_sigma}")
        if not 0.0 <= self.distractor_fraction <= 1.0:
            raise ValueError(f"distractor_fraction must be in [0, 1], got {self.distractor_fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def position_at(cfg: WorldConfig, ts_ns: int) -> GeoPoint:
    """Exact trajectory position at a timestamp."""
    return GeoPoint(*_lat_lon(cfg, ts_ns))


def _lat_lon(cfg: WorldConfig, ts_ns):
    """Trajectory latitude and longitude at a timestamp, or at each of an int64 array of them.

    The drive is a straight line in meters on the plane tangent at its start.
    """
    t = (ts_ns - T0_NS) / 1e9
    heading = radians(cfg.heading_deg)
    east, north = cfg.speed_mps * sin(heading), cfg.speed_mps * cos(heading)
    return from_plane(GeoPoint(cfg.start_lat, cfg.start_lon), east * t, north * t)


def _frame_count(cfg: WorldConfig) -> int:
    return int(round(cfg.duration_s * cfg.db_hz))


def _frame_period_ns(cfg: WorldConfig) -> int:
    return int(round(1e9 / cfg.db_hz))


def _timestamps_fit(cfg: WorldConfig) -> bool:
    """Whether T0_NS + i * period is an int64 for every frame i, and for i = 1, so that the period is one too."""
    frames, period = cfg.duration_s * cfg.db_hz, 1e9 / cfg.db_hz
    if not (frames < 2**63 and period < 2**63):
        return False
    return T0_NS + max(_frame_count(cfg) - 1, 1) * _frame_period_ns(cfg) < 2**63


def _unit_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    rows = rng.standard_normal((n, DESCRIPTOR_DIM), dtype=np.float32)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    rows /= norms
    return rows


def gen_world(cfg: WorldConfig) -> Database:
    """Generate the database side of a synthetic drive.

    Bit-identical for a fixed config. Consecutive frames share
    round(k * landmark_overlap) descriptors; the shared fraction decays
    linearly with frame distance and hits zero at k / (k - shared) frames.
    """
    n = _frame_count(cfg)
    k = cfg.keypoints_per_frame
    fresh = k - int(round(k * cfg.landmark_overlap))
    rng = np.random.default_rng([cfg.seed, 0])
    pool = _unit_rows(rng, k + fresh * max(0, n - 1))
    pool.setflags(write=False)

    i = np.arange(n, dtype=np.int64)
    table = np.empty(n, dtype=_TABLE)
    table["frame_id"], table["timestamp_ns"] = i, T0_NS + i * _frame_period_ns(cfg)
    table["lat"], table["lon"] = _lat_lon(cfg, table["timestamp_ns"])
    table["start"], table["stop"] = i * fresh, i * fresh + k
    return Database._from_table(
        table, DescriptorSet._wrap(pool), source=f"synthetic drive seed={cfg.seed}", camera="synthetic"
    )


def gen_queries(
    db: Database,
    start_ts: int,
    n: int,
    period_s: float,
    cfg: WorldConfig,
) -> list[Query]:
    """Queries along the drive: nearest-frame descriptors, noised, with truth.

    The nearest frame is the first nearest in time; round(rows *
    distractor_fraction) of its rows become distractors. Raises ValueError
    for a database of no frames, a query timestamp outside its range, or
    query_noise_sigma taking a query's noised rows outside float32's range.
    """
    if n < 1:
        raise ValueError(f"need at least one query, got {n}")
    if not len(db):
        raise ValueError("gen_queries needs a database with frames, got none")
    frame_ts = db._table["timestamp_ns"]  # sorted
    first, last = int(frame_ts[0]), int(frame_ts[-1])

    rng = np.random.default_rng([cfg.seed, 1])
    queries = []
    for i in range(n):
        ts = start_ts + int(round(i * period_s * 1e9))
        if not first <= ts <= last:
            raise ValueError(f"query {i} at {ts} outside database range [{first}, {last}]")
        nearest = int(np.abs(frame_ts - ts).argmin())
        base = db[nearest].descriptors.array
        if cfg.query_noise_sigma > 0:
            arr = rng.standard_normal(base.shape, dtype=np.float32)
            try:
                with np.errstate(over="raise"):
                    arr *= np.float32(cfg.query_noise_sigma)
                    arr += base
            except FloatingPointError:
                sigma = cfg.query_noise_sigma
                raise ValueError(f"query {i}: query_noise_sigma={sigma} takes its noised rows outside float32's range") from None
        else:
            arr = base.copy()
        n_distract = int(round(len(base) * cfg.distractor_fraction))
        if n_distract > 0:
            rows = rng.choice(len(base), size=n_distract, replace=False)
            arr[rows] = _unit_rows(rng, n_distract)
        queries.append(Query(DescriptorSet(arr), ts, position_at(cfg, ts)))
    return queries


def _trial_seed(master_seed: int, i: int) -> tuple[int, int]:
    """(world_seed, start_seed) of trial i: from the i-th child of SeedSequence(master_seed).spawn, made on demand."""
    child = np.random.SeedSequence(master_seed, spawn_key=(i,))
    return tuple(int(v) for v in child.generate_state(2))


def _start_range(cfg: WorldConfig, scan_cfg: ScanConfig, steps: int, period_s: float) -> tuple[int, int]:
    """Least and greatest frame index a trial's first query may start on.

    Raises ValueError when the drive is too short for the queries and the
    exclusion margin either side of them. The range depends on the
    configs, not on the trial's seeds.
    """
    period_ns = _frame_period_ns(cfg)
    frames = _frame_count(cfg)
    margin = (scan_cfg.exclusion_s + 2.0 / cfg.db_hz) * 1e9 / period_ns
    # a drive has under 2**63 frames and queries are at least 1 ns apart, so
    # 2**1023 queries, near the largest float, already span past any drive
    span = min(steps - 1, 2**1023) * period_s * 1e9 / period_ns
    # compared in float frames first: an infinite margin or span, or one
    # past the drive, has no frame count to round to
    if margin <= frames and span <= frames:
        lo = math.ceil(margin)
        hi = frames - 1 - round(span) - lo
        if lo <= hi:
            return lo, hi
    raise ValueError(
        f"duration_s={cfg.duration_s} at db_hz={cfg.db_hz} too short for {steps} queries at {period_s} s spacing "
        f"with exclusion_s={scan_cfg.exclusion_s}"
    )


def _run_trial(world_cfg, scan_cfg, match_cfg, filter_cfg, steps, period_s, world_seed, start_seed) -> tuple[TraceStep, ...]:
    cfg = replace(world_cfg, seed=world_seed)
    lo, hi = _start_range(cfg, scan_cfg, steps, period_s)
    db = gen_world(cfg)

    # Start on the frame grid: queries sample the same camera stream as the
    # database, and a grid-aligned query sees equally distant candidate
    # frames on both sides of the exclusion gap.
    start_idx = int(np.random.default_rng(start_seed).integers(lo, hi + 1))
    start_ts = T0_NS + start_idx * _frame_period_ns(cfg)

    queries = gen_queries(db, start_ts, steps, period_s, cfg)
    return localize_sequence(db, queries, scan_cfg, match_cfg, filter_cfg)


def run_monte_carlo(
    world_cfg: WorldConfig,
    scan_cfg: ScanConfig,
    match_cfg: MatchConfig,
    filter_cfg: FilterConfig,
    trials: int,
    steps: int = 6,
    period_s: float = 1.0,
) -> ErrorStats:
    """Repeated synthetic drives, each localized end to end.

    Trials 0 .. trials - 1 run in order in the calling process. Every trial
    generates a fresh world and query start from a per-trial stream spawned
    off world_cfg.seed. Returns evaluate of the trials' traces, which it
    reads as each trial ends: seeds are made as each trial starts and only
    per-step errors are kept, so memory grows by two floats per step and
    trial.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    if not (math.isfinite(period_s) and period_s > 0):
        raise ValueError(f"period_s must be positive and finite, got {period_s}")
    if period_s * 1e9 < 1.0:
        # queries are i * period_s apart rounded to whole ns, so closer ones would share timestamps
        raise ValueError(f"period_s={period_s} is under the 1 ns resolution of query timestamps")
    _start_range(world_cfg, scan_cfg, steps, period_s)  # a drive too short fails before any trial
    seeds = (_trial_seed(world_cfg.seed, i) for i in range(trials))
    return evaluate(_run_trial(world_cfg, scan_cfg, match_cfg, filter_cfg, steps, period_s, *s) for s in seeds)
