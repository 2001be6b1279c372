"""Command line front end.

Exit codes: 0 success, 1 data or runtime failure, 2 usage error.
"""

import argparse
import csv
import inspect
import sys
from pathlib import Path

from .database import ScanConfig, _manifest_rows, ingest_csv, ingest_kitti, load_db, read_desc_file, save_db
from .errors import DatabaseFormatError, VlocError
from .geodesy import GeoPoint
from .kalman import FilterConfig
from .matching import MatchConfig
from .pipeline import Query, export_report, localize_sequence
from .synthworld import WorldConfig, run_monte_carlo

QUERY_MANIFEST_COLUMNS = ["timestamp_ns", "descriptor_path"]
QUERY_MANIFEST_TRUTH_COLUMNS = QUERY_MANIFEST_COLUMNS + ["truth_lat", "truth_lon"]

TRACE_CSV_HEADER = [
    "step",
    "query_ts",
    "matched_frame_id",
    "meas_lat",
    "meas_lon",
    "est_lat",
    "est_lon",
    "truth_lat",
    "truth_lon",
    "meas_err_m",
    "est_err_m",
]


class _UsageError(Exception):
    pass


def _flag(p: argparse.ArgumentParser, name: str, default, text: str) -> None:
    """A flag typed by its default, which its help shows."""
    p.add_argument(name, type=type(default), default=default, help=f"{text} (default %(default)s)")


def _add_match_flags(p: argparse.ArgumentParser) -> None:
    _flag(p, "--tau1", MatchConfig.tau1, "distance ratio threshold")
    _flag(p, "--tau2", MatchConfig.tau2, "cosine similarity threshold")


def _add_scan_flags(p: argparse.ArgumentParser, default_exclusion) -> None:
    _flag(p, "--window-s", ScanConfig.window_s, "search window half-width in seconds")
    p.add_argument("--no-window", action="store_true", help="scan the whole database on every query")
    p.add_argument(
        "--exclusion-s",
        type=float,
        default=default_exclusion,
        help="ignore frames within this many seconds of the query timestamp, 0 = off"
        + (" (default %(default)s, the evaluation handicap)" if default_exclusion is not None else " (default off)"),
    )


def _add_filter_flags(p: argparse.ArgumentParser) -> None:
    _flag(p, "--sigma-r", FilterConfig.sigma_r, "measurement noise std per axis in meters")
    _flag(p, "--p0-scale", FilterConfig.p0_scale, "initial variance of each position (m^2) and velocity (m^2/s^2) component")
    _flag(p, "--q", FilterConfig.q, "white-noise acceleration density in m^2/s^3")


def _match_cfg(args) -> MatchConfig:
    return MatchConfig(tau1=args.tau1, tau2=args.tau2)


def _scan_cfg(args) -> ScanConfig:
    window = None if args.no_window else args.window_s
    if args.exclusion_s is not None and not args.exclusion_s >= 0:
        raise _UsageError(f"--exclusion-s must be 0 (off) or positive, got {args.exclusion_s}")
    return ScanConfig(window_s=window, exclusion_s=args.exclusion_s or None)


def _filter_cfg(args) -> FilterConfig:
    return FilterConfig(sigma_r=args.sigma_r, p0_scale=args.p0_scale, q=args.q)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vloc",
        description="Camera-only vehicle localization: descriptor retrieval fused with a constant-velocity filter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build-db", help="convert a dataset into a descriptor database")
    src = p_build.add_mutually_exclusive_group(required=True)
    src.add_argument("--kitti", metavar="DIR", help="KITTI-raw style directory")
    src.add_argument("--csv", metavar="FILE", help="CSV manifest (frame_id,timestamp_ns,lat_deg,lon_deg,descriptor_path)")
    p_build.add_argument("--out", required=True, metavar="FILE", help="output database path")
    p_build.set_defaults(func=_cmd_build_db)

    p_query = sub.add_parser("query", help="localize a sequence of query images against a database")
    p_query.add_argument("--db", required=True, metavar="FILE", help="database built by build-db")
    p_query.add_argument(
        "--queries",
        required=True,
        metavar="FILE",
        help="CSV manifest: timestamp_ns,descriptor_path[,truth_lat,truth_lon]",
    )
    _flag(p_query, "--out-dir", ".", "directory for trace.csv")
    _add_match_flags(p_query)
    _add_scan_flags(p_query, default_exclusion=None)
    _add_filter_flags(p_query)
    p_query.set_defaults(func=_cmd_query)

    p_sim = sub.add_parser("simulate", help="synthetic Monte-Carlo evaluation of the full pipeline")
    p_sim.add_argument("--trials", type=int, required=True, help="number of synthetic drives")
    mc = inspect.signature(run_monte_carlo).parameters
    _flag(p_sim, "--seed", WorldConfig.seed, "master seed")
    _flag(p_sim, "--steps", mc["steps"].default, "queries per drive")
    _flag(p_sim, "--period-s", mc["period_s"].default, "query spacing in seconds")
    _flag(p_sim, "--workers", mc["workers"].default, "worker processes, 0 = all cores")
    _flag(p_sim, "--out-dir", ".", "directory for errors.csv / errors.svg")
    _flag(p_sim, "--speed-mps", WorldConfig.speed_mps, "vehicle speed")
    _flag(p_sim, "--heading-deg", WorldConfig.heading_deg, "drive heading")
    _flag(p_sim, "--db-hz", WorldConfig.db_hz, "database frame rate")
    _flag(p_sim, "--duration-s", WorldConfig.duration_s, "drive length in seconds")
    _flag(p_sim, "--keypoints-per-frame", WorldConfig.keypoints_per_frame, "descriptors per frame")
    _flag(p_sim, "--landmark-overlap", WorldConfig.landmark_overlap, "shared fraction between neighbours")
    _flag(p_sim, "--query-noise-sigma", WorldConfig.query_noise_sigma, "per-component query noise")
    _flag(p_sim, "--distractor-fraction", WorldConfig.distractor_fraction, "replaced query descriptors")
    _add_match_flags(p_sim)
    _add_scan_flags(p_sim, default_exclusion=1.0)
    _add_filter_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def _cmd_build_db(args) -> int:
    db = ingest_kitti(args.kitti) if args.kitti else ingest_csv(args.csv)
    save_db(db, args.out)
    print(f"wrote {len(db)} frames to {args.out}")
    return 0


def _parse_query_row(row: list[str], where: str, base: Path) -> Query:
    try:
        ts = int(row[0])
    except ValueError:
        raise _UsageError(f"{where}: bad timestamp_ns {row[0]!r}") from None
    if not -(2**63) <= ts < 2**63:
        raise _UsageError(f"{where}: timestamp_ns {ts} outside the int64 range")
    truth = None
    if len(row) == len(QUERY_MANIFEST_TRUTH_COLUMNS):
        lat, lon = row[2].strip(), row[3].strip()
        if bool(lat) != bool(lon):
            raise _UsageError(f"{where}: truth_lat and truth_lon must both be given or both be empty")
        if lat:
            try:
                truth = GeoPoint(float(lat), float(lon))
            except ValueError as exc:
                raise _UsageError(f"{where}: bad truth: {exc}") from None
    desc_path = base / row[1]
    try:
        record = read_desc_file(desc_path)
    except (DatabaseFormatError, OSError, ValueError) as exc:
        raise DatabaseFormatError(f"{where}: {desc_path.name}: {exc}") from None
    return Query(record.descriptors, ts, truth)


def _read_query_manifest(path: Path) -> list[Query]:
    """Queries of a manifest; a malformed row, or text that is not UTF-8, is a usage error naming file:line."""
    headers = [QUERY_MANIFEST_COLUMNS, QUERY_MANIFEST_TRUTH_COLUMNS]
    queries = [_parse_query_row(row, where, path.parent) for where, row in _manifest_rows(path, headers, _UsageError)]
    if not queries:
        raise _UsageError(f"{path.name}: query manifest has no rows")
    return queries


def _fmt_opt(value) -> str:
    return "" if value is None else repr(float(value))


def _write_trace_csv(trace, out_dir: Path) -> Path:
    out = out_dir / "trace.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_CSV_HEADER)
        for s in trace:
            writer.writerow(
                [
                    s.step,
                    s.query_ts,
                    s.matched_frame_id,
                    repr(s.measurement.lat),
                    repr(s.measurement.lon),
                    repr(s.estimate.lat),
                    repr(s.estimate.lon),
                    _fmt_opt(s.truth.lat if s.truth else None),
                    _fmt_opt(s.truth.lon if s.truth else None),
                    _fmt_opt(s.meas_err_m),
                    _fmt_opt(s.est_err_m),
                ]
            )
    return out


def _cmd_query(args) -> int:
    # bad settings fail before the database is read
    cfgs = _scan_cfg(args), _match_cfg(args), _filter_cfg(args)
    db = load_db(args.db)
    queries = _read_query_manifest(Path(args.queries))
    trace = localize_sequence(db, queries, *cfgs)

    has_truth = any(s.truth is not None for s in trace)
    head = f"{'step':>4} {'frame':>7} {'meas_lat':>11} {'meas_lon':>11} {'est_lat':>11} {'est_lon':>11}"
    if has_truth:
        head += f" {'meas_err_m':>10} {'est_err_m':>10}"
    print(head)
    for s in trace:
        line = (
            f"{s.step:>4} {s.matched_frame_id:>7} "
            f"{s.measurement.lat:>11.6f} {s.measurement.lon:>11.6f} "
            f"{s.estimate.lat:>11.6f} {s.estimate.lon:>11.6f}"
        )
        if has_truth:
            line += (
                f" {s.meas_err_m if s.meas_err_m is not None else float('nan'):>10.2f}"
                f" {s.est_err_m if s.est_err_m is not None else float('nan'):>10.2f}"
            )
        print(line)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = _write_trace_csv(trace, out_dir)
    print(f"trace written to {out}")
    return 0


def _cmd_simulate(args) -> int:
    if args.trials < 1:
        raise _UsageError(f"--trials must be positive, got {args.trials}")
    if args.steps < 1:
        raise _UsageError(f"--steps must be positive, got {args.steps}")
    if args.workers < 0:
        raise _UsageError(f"--workers must be 0 (all cores) or positive, got {args.workers}")
    world = WorldConfig(
        speed_mps=args.speed_mps,
        heading_deg=args.heading_deg,
        db_hz=args.db_hz,
        duration_s=args.duration_s,
        keypoints_per_frame=args.keypoints_per_frame,
        landmark_overlap=args.landmark_overlap,
        query_noise_sigma=args.query_noise_sigma,
        distractor_fraction=args.distractor_fraction,
        seed=args.seed,
    )
    stats = run_monte_carlo(
        world,
        _scan_cfg(args),
        _match_cfg(args),
        _filter_cfg(args),
        trials=args.trials,
        steps=args.steps,
        period_s=args.period_s,
        workers=args.workers,
    )
    print(f"{args.trials} trials, {stats.n_steps} steps")
    print(f"{'step':>4} {'mean_meas_m':>12} {'std_meas_m':>12} {'mean_est_m':>12} {'std_est_m':>12}")
    for i in range(stats.n_steps):
        print(
            f"{i + 1:>4} {stats.mean_meas_m[i]:>12.3f} {stats.std_meas_m[i]:>12.3f} "
            f"{stats.mean_est_m[i]:>12.3f} {stats.std_est_m[i]:>12.3f}"
        )
    csv_path, svg_path = export_report(stats, args.out_dir)
    print(f"report written to {csv_path} and {svg_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (VlocError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
