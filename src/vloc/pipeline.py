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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import kalman
from .database import Database, ScanConfig, scan
from .errors import NoMatchError, SingularInnovationError
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
    NoMatchError naming the step, and a filter step that fails raises its
    error (ValueError, SingularInnovationError) again, naming the step.
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
        frame, count = scan(db, query.descriptors, query.timestamp_ns, scan_cfg, match_cfg, center_ts=center)
        if count == 0:
            raise NoMatchError(f"step {i}: no correspondences against any candidate frame")
        try:
            if state is None:
                state = kalman.update(kalman.init_filter(frame.geotag, filter_cfg), frame.geotag, filter_cfg)
            else:
                dt = (query.timestamp_ns - prev.timestamp_ns) / 1e9
                state = kalman.step(state, frame.geotag, dt, filter_cfg)
        except (ValueError, SingularInnovationError) as exc:
            raise type(exc)(f"step {i}: {exc}") from exc
        center = frame.timestamp_ns
        steps.append(_make_step(i, query, frame, state))
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


def evaluate(traces: Sequence[Sequence[TraceStep]]) -> ErrorStats:
    """Elementwise error statistics across traces of equal length.

    Every step of every trace must carry ground truth. Standard deviations
    are population standard deviations, zero for a single trace.
    """
    if len(traces) == 0:
        raise ValueError("evaluate needs at least one trace")
    n = len(traces[0])
    if n == 0:
        raise ValueError("evaluate needs non-empty traces")
    for t, trace in enumerate(traces):
        if len(trace) != n:
            raise ValueError(f"trace {t} has {len(trace)} steps, expected {n}")
        for s in trace:
            if s.truth is None:
                raise ValueError(f"trace {t} step {s.step} has no ground truth")

    meas = np.array([[s.meas_err_m for s in trace] for trace in traces], dtype=np.float64)
    est = np.array([[s.est_err_m for s in trace] for trace in traces], dtype=np.float64)
    return _error_stats(meas, est)


def _error_stats(meas: np.ndarray, est: np.ndarray) -> ErrorStats:
    """Per-step statistics of (traces, steps) float64 measurement and estimate errors in meters."""
    return ErrorStats(
        mean_meas_m=meas.mean(axis=0),
        std_meas_m=meas.std(axis=0),
        mean_est_m=est.mean(axis=0),
        std_est_m=est.std(axis=0),
        n_traces=len(meas),
    )


ERRORS_CSV_HEADER = ["step", "mean_meas_m", "std_meas_m", "mean_est_m", "std_est_m"]


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


def export_report(stats: ErrorStats, out_dir) -> tuple[Path, Path]:
    """Write errors.csv and errors.svg under out_dir; returns their paths.

    CSV floats use shortest round-trip formatting, so reading the file back
    recovers the statistics exactly. The plot is plain hand-assembled SVG.
    """
    if stats.n_steps == 0:
        raise ValueError("cannot export empty statistics")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "errors.csv"
    svg_path = out_dir / "errors.svg"

    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ERRORS_CSV_HEADER)
        for i in range(stats.n_steps):
            writer.writerow(
                [
                    i + 1,
                    repr(float(stats.mean_meas_m[i])),
                    repr(float(stats.std_meas_m[i])),
                    repr(float(stats.mean_est_m[i])),
                    repr(float(stats.std_est_m[i])),
                ]
            )
    svg_path.write_text(_svg_plot(stats))
    return csv_path, svg_path
