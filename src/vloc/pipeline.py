"""Query-sequence localization and its evaluation harness.

A sequence run takes n timestamped query descriptor sets. The first query
is matched against the whole database; each match's timestamp becomes the
window center for the next query, so later scans only consider frames
recorded near the last established location, and the window follows the
vehicle along the drive. Each matched geotag is fed as-is to the
constant-velocity filter, which predicts across the time between
consecutive queries; the filter posterior is the position estimate
reported for that step.
"""

import csv
import math
from array import array
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import kalman
from .database import Database, ScanConfig, scan
from .errors import NoMatchError, VlocError
from .geodesy import M_PER_DEG, GeoPoint, haversine_m
from .kalman import FilterConfig
from .matching import DescriptorSet, MatchConfig


@dataclass(frozen=True)
class Query:
    """One localization request: descriptors, capture time, optional truth."""

    descriptors: DescriptorSet
    timestamp_ns: int
    truth: Optional[GeoPoint] = None


@dataclass(frozen=True)
class TraceStep:
    """Everything recorded for one step of a sequence run."""

    step: int
    query_ts: int
    matched_frame_id: int
    measurement: GeoPoint
    estimate: GeoPoint
    vel_lat_dps: float
    vel_lon_dps: float
    truth: Optional[GeoPoint] = None
    meas_err_m: Optional[float] = None
    est_err_m: Optional[float] = None


TRACE_COLUMNS: dict[str, Callable[[TraceStep], object]] = {
    "step": attrgetter("step"),
    "query_ts": attrgetter("query_ts"),
    "matched_frame_id": attrgetter("matched_frame_id"),
    "meas_lat": attrgetter("measurement.lat"),
    "meas_lon": attrgetter("measurement.lon"),
    "est_lat": attrgetter("estimate.lat"),
    "est_lon": attrgetter("estimate.lon"),
    "truth_lat": lambda s: s.truth.lat if s.truth else None,
    "truth_lon": lambda s: s.truth.lon if s.truth else None,
    "meas_err_m": attrgetter("meas_err_m"),
    "est_err_m": attrgetter("est_err_m"),
}
"""The columns of trace.csv, in order, each with its value for a step; None where the step has none."""


def _make_step(index: int, query: Query, frame, state) -> TraceStep:
    measurement = frame.geotag
    estimate = state.position()
    # the filter's m/s in degrees per second at the scale of its plane's origin
    vlat, vlon = state.v_n / M_PER_DEG, state.v_e / (M_PER_DEG * math.cos(math.radians(state.origin.lat)))
    meas_err = est_err = None
    if query.truth is not None:
        meas_err = haversine_m(measurement, query.truth)
        est_err = haversine_m(estimate, query.truth)
    return TraceStep(
        step=index,
        query_ts=query.timestamp_ns,
        matched_frame_id=frame.frame_id,
        measurement=measurement,
        estimate=estimate,
        vel_lat_dps=vlat,
        vel_lon_dps=vlon,
        truth=query.truth,
        meas_err_m=meas_err,
        est_err_m=est_err,
    )


def localize_sequence(
    db: Database,
    queries: Sequence[Query],
    scan_cfg: ScanConfig,
    match_cfg: MatchConfig,
    filter_cfg: FilterConfig,
) -> tuple[TraceStep, ...]:
    """Run retrieval plus filtering over a query sequence.

    The first scan is unwindowed (exclusion still applies when configured);
    each later scan centers the search window on the previous step's match.
    The filter predicts across each gap between consecutive query
    timestamps, which must strictly increase (ValueError naming the step
    otherwise). A step whose best candidate has zero correspondences raises
    NoMatchError. Any error of a step (no candidate, no match, a filter
    failure) is raised again as its own type, naming the step.
    """
    if len(queries) == 0:
        raise ValueError("localize_sequence needs at least one query")
    for i in range(1, len(queries)):
        prev_ts, ts = queries[i - 1].timestamp_ns, queries[i].timestamp_ns
        if ts <= prev_ts:
            raise ValueError(f"step {i + 1}: query timestamp {ts} is not after step {i}'s {prev_ts}")

    steps = []
    center: Optional[int] = None
    state = None
    for i, (prev, query) in enumerate(zip([None, *queries], queries), start=1):
        try:
            frame, count = scan(db, query.descriptors, query.timestamp_ns, scan_cfg, match_cfg, center_ts=center)
            if count == 0:
                raise NoMatchError("no correspondences against any candidate frame")
            if state is None:
                state = kalman.update(kalman.init_filter(frame.geotag, filter_cfg), frame.geotag, filter_cfg)
            else:
                dt = (query.timestamp_ns - prev.timestamp_ns) / 1e9
                state = kalman.step(state, frame.geotag, dt, filter_cfg)
            steps.append(_make_step(i, query, frame, state))
        except (VlocError, ValueError) as exc:
            raise type(exc)(f"step {i}: {exc}") from exc
        center = frame.timestamp_ns
    return tuple(steps)


@dataclass(frozen=True)
class ErrorStats:
    """Per-step error statistics over a batch of traces, in meters."""

    mean_meas_m: np.ndarray
    std_meas_m: np.ndarray
    mean_est_m: np.ndarray
    std_est_m: np.ndarray
    n_traces: int

    @property
    def n_steps(self) -> int:
        return len(self.mean_meas_m)

    @property
    def final_mean_est_m(self) -> float:
        return float(self.mean_est_m[-1])

    @property
    def final_mean_meas_m(self) -> float:
        return float(self.mean_meas_m[-1])

    def rows(self):
        """(step, *stats) of each step, counting steps from 1 and giving the stats in STEP_STATS order."""
        return zip(range(1, self.n_steps + 1), *(getattr(self, name) for name in STEP_STATS))


STEP_STATS = tuple(f.name for f in fields(ErrorStats) if f.type is np.ndarray)
"""ErrorStats' per-step fields in order: the columns after step in errors.csv and in vloc simulate's table."""

ERRORS_CSV_HEADER = ["step", *STEP_STATS]


def evaluate(traces: Iterable[Sequence[TraceStep]]) -> ErrorStats:
    """Elementwise error statistics across traces of equal length.

    traces is read one trace at a time and only each step's two errors are
    kept, so a generator of traces takes about 16 bytes per step. Every
    step of every trace must carry ground truth. Standard deviations are
    population standard deviations, zero for a single trace.
    """
    meas, est = array("d"), array("d")
    n = None
    for t, trace in enumerate(traces):
        if n is None:
            n = len(trace)
            if n == 0:
                raise ValueError("evaluate needs non-empty traces")
        elif len(trace) != n:
            raise ValueError(f"trace {t} has {len(trace)} steps, expected {n}")
        for s in trace:
            if s.truth is None:
                raise ValueError(f"trace {t} step {s.step} has no ground truth")
            meas.append(s.meas_err_m)
            est.append(s.est_err_m)
    if n is None:
        raise ValueError("evaluate needs at least one trace")
    meas, est = (np.frombuffer(a).reshape(-1, n) for a in (meas, est))
    return ErrorStats(meas.mean(axis=0), meas.std(axis=0), est.mean(axis=0), est.std(axis=0), n_traces=len(meas))


def _nice_ceiling(v: float) -> float:
    if v <= 0:
        return 1.0
    exp = np.floor(np.log10(v))
    for mult in (1.0, 2.0, 5.0, 10.0):
        candidate = mult * 10.0**exp
        if candidate >= v:
            return candidate
    return 10.0 ** (exp + 1)


def _svg_plot(stats: ErrorStats) -> str:
    width, height = 640, 420
    left, right, top, bottom = 62, 18, 20, 48
    pw, ph = width - left - right, height - top - bottom
    n = stats.n_steps
    ymax = _nice_ceiling(1.05 * max(stats.mean_meas_m.max(), stats.mean_est_m.max()))

    def sx(step: float) -> float:
        if n == 1:
            return left + pw / 2
        return left + (step - 1) / (n - 1) * pw

    def sy(v: float) -> float:
        return top + ph - v / ymax * ph

    def polyline(values, color):
        pts = " ".join(f"{sx(i + 1):.2f},{sy(v):.2f}" for i, v in enumerate(values))
        circles = "".join(
            f'<circle cx="{sx(i + 1):.2f}" cy="{sy(v):.2f}" r="3" fill="{color}"/>'
            for i, v in enumerate(values)
        )
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{pts}"/>{circles}'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top + ph}" x2="{left + pw}" y2="{top + ph}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + ph}" stroke="black"/>',
    ]
    for i in range(n):
        x = sx(i + 1)
        parts.append(f'<line x1="{x:.2f}" y1="{top + ph}" x2="{x:.2f}" y2="{top + ph + 4}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{top + ph + 18}" text-anchor="middle">{i + 1}</text>')
    for j in range(6):
        v = ymax * j / 5
        y = sy(v)
        parts.append(f'<line x1="{left - 4}" y1="{y:.2f}" x2="{left}" y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end">{v:g}</text>')
    parts.append(
        f'<text x="{left + pw / 2}" y="{height - 10}" text-anchor="middle">query step</text>'
    )
    parts.append(
        f'<text x="16" y="{top + ph / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + ph / 2})">mean error [m]</text>'
    )
    parts.append(polyline(stats.mean_meas_m, "#d62728"))
    parts.append(polyline(stats.mean_est_m, "#1f77b4"))
    lx = left + pw - 150
    parts.append(f'<line x1="{lx}" y1="{top + 12}" x2="{lx + 24}" y2="{top + 12}" stroke="#d62728" stroke-width="1.8"/>')
    parts.append(f'<text x="{lx + 30}" y="{top + 16}">measurement</text>')
    parts.append(f'<line x1="{lx}" y1="{top + 30}" x2="{lx + 24}" y2="{top + 30}" stroke="#1f77b4" stroke-width="1.8"/>')
    parts.append(f'<text x="{lx + 30}" y="{top + 34}">estimation</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _cell(value):
    """A report's CSV cell: an int as written, a float in shortest round-trip form, None as empty."""
    if value is None:
        return ""
    return value if isinstance(value, (int, np.integer)) else repr(float(value))


def _write_csv(path: Path, header, rows) -> Path:
    """Write header, then each row's cells as _cell gives them, to path, making its directory; returns path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(_cell, row) for row in rows)
    return path


def export_trace(trace: Sequence[TraceStep], out_dir) -> Path:
    """Write trace.csv under out_dir, a row of TRACE_COLUMNS per step; returns its path."""
    return _write_csv(Path(out_dir) / "trace.csv", TRACE_COLUMNS, ([value(s) for value in TRACE_COLUMNS.values()] for s in trace))


def export_report(stats: ErrorStats, out_dir) -> tuple[Path, Path]:
    """Write errors.csv and errors.svg under out_dir; returns their paths.

    CSV floats use shortest round-trip formatting, so reading the file back
    recovers the statistics exactly. The plot is plain hand-assembled SVG.
    """
    if stats.n_steps == 0:
        raise ValueError("cannot export empty statistics")
    csv_path = _write_csv(Path(out_dir) / "errors.csv", ERRORS_CSV_HEADER, stats.rows())
    svg_path = csv_path.parent / "errors.svg"
    svg_path.write_text(_svg_plot(stats))
    return csv_path, svg_path
