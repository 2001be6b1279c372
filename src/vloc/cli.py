"""Command line front end.

Exit codes: 0 success; 2 when the command line does not parse or the query
manifest is malformed; 1 when a config or run rejects a value, or the data
or run fails. Each value is checked once, by its config or by
run_monte_carlo, not here.
"""

import argparse
import inspect
import sys
from pathlib import Path

from .database import ScanConfig, _manifest_rows, _read_desc_files, ingest_csv, ingest_kitti, load_db, save_db
from .errors import DatabaseFormatError, VlocError
from .geodesy import GeoPoint
from .kalman import FilterConfig
from .matching import MatchConfig
from .pipeline import STEP_STATS, TRACE_COLUMNS, Query, export_report, export_trace, localize_sequence
from .synthworld import WorldConfig, run_monte_carlo

QUERY_MANIFEST_COLUMNS = ["timestamp_ns", "descriptor_path"]
QUERY_MANIFEST_TRUTH_COLUMNS = QUERY_MANIFEST_COLUMNS + ["truth_lat", "truth_lon"]

QUERY_TABLE = {
    "step": ("step", 4, ""),
    "matched_frame_id": ("frame", 7, ""),
    "meas_lat": ("meas_lat", 11, ".6f"),
    "meas_lon": ("meas_lon", 11, ".6f"),
    "est_lat": ("est_lat", 11, ".6f"),
    "est_lon": ("est_lon", 11, ".6f"),
    "meas_err_m": ("meas_err_m", 10, ".2f"),
    "est_err_m": ("est_err_m", 10, ".2f"),
}
"""The trace.csv columns vloc query prints, each with its title, width and format."""


class _UsageError(Exception):
    pass


def _flag(p: argparse.ArgumentParser, name: str, default, text: str) -> None:
    """A flag typed by its default, which its help shows."""
    p.add_argument(name, type=type(default), default=default, help=f"{text} (default %(default)s)")


_FLAGS = {
    MatchConfig: {"tau1": "distance ratio threshold", "tau2": "cosine similarity threshold"},
    ScanConfig: {
        "window_s": "search window half-width in seconds, inf = the whole database",
        "exclusion_s": "ignore frames within this many seconds of the query timestamp, 0 = off",
    },
    FilterConfig: {
        "sigma_r": "measurement noise std per axis in meters",
        "p0_scale": "initial variance of each position (m^2) and velocity (m^2/s^2) component",
        "q": "white-noise acceleration density in m^2/s^3",
    },
    WorldConfig: {
        "seed": "master seed",
        "speed_mps": "vehicle speed",
        "heading_deg": "drive heading",
        "db_hz": "database frame rate",
        "duration_s": "drive length in seconds",
        "keypoints_per_frame": "descriptors per frame",
        "landmark_overlap": "shared fraction between neighbours",
        "query_noise_sigma": "per-component query noise",
        "distractor_fraction": "replaced query descriptors",
    },
}
"""The help text of each config field that is a flag; WorldConfig's start_lat and start_lon are not."""


def _add_flags(p: argparse.ArgumentParser, cls, **defaults) -> None:
    """A --field-name flag per field of cls in _FLAGS, defaulting to defaults[field] or else the field's default."""
    for name, text in _FLAGS[cls].items():
        _flag(p, "--" + name.replace("_", "-"), defaults.get(name, getattr(cls, name)), text)


def _cfg(cls, args):
    """The cls that the parsed flags of _add_flags(p, cls) give."""
    return cls(**{name: getattr(args, name) for name in _FLAGS[cls]})


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
    for cls in (MatchConfig, ScanConfig, FilterConfig):
        _add_flags(p_query, cls)
    p_query.set_defaults(func=_cmd_query)

    p_sim = sub.add_parser("simulate", help="synthetic Monte-Carlo evaluation of the full pipeline")
    p_sim.add_argument("--trials", type=int, required=True, help="number of synthetic drives")
    mc = inspect.signature(run_monte_carlo).parameters
    _flag(p_sim, "--steps", mc["steps"].default, "queries per drive")
    _flag(p_sim, "--period-s", mc["period_s"].default, "query spacing in seconds")
    _flag(p_sim, "--out-dir", ".", "directory for errors.csv / errors.svg")
    _add_flags(p_sim, WorldConfig)
    _add_flags(p_sim, MatchConfig)
    _add_flags(p_sim, ScanConfig, exclusion_s=1.0)  # the evaluation handicap
    _add_flags(p_sim, FilterConfig)
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
    if not row[1]:
        raise _UsageError(f"{where}: empty descriptor_path")
    # only the payload is used; the header's frame id, time and geotag are ignored
    _, payload = _read_desc_files([base / row[1]], lambda i, exc: DatabaseFormatError(f"{where}: {exc}"))
    return Query(payload, ts, truth)


def _read_query_manifest(path: Path) -> list[Query]:
    """Queries of a manifest; a malformed row, or text that is not UTF-8, is a usage error naming file:line."""
    headers = [QUERY_MANIFEST_COLUMNS, QUERY_MANIFEST_TRUTH_COLUMNS]
    queries = [_parse_query_row(row, where, path.parent) for where, row in _manifest_rows(path, headers, _UsageError)]
    if not queries:
        raise _UsageError(f"{path.name}: query manifest has no rows")
    return queries


def _print_trace(trace) -> None:
    """QUERY_TABLE's columns of the trace, less those no step has a value in; None shows as nan."""
    shown = [
        (title, width, fmt, TRACE_COLUMNS[name])
        for name, (title, width, fmt) in QUERY_TABLE.items()
        if any(TRACE_COLUMNS[name](s) is not None for s in trace)
    ]
    print(" ".join(f"{title:>{width}}" for title, width, _, _ in shown))
    for s in trace:
        cells = [(value(s), width, fmt) for _, width, fmt, value in shown]
        print(" ".join(f"{float('nan') if v is None else v:>{width}{fmt}}" for v, width, fmt in cells))


def _cmd_query(args) -> int:
    # bad settings fail before the database is read, an unusable --out-dir before the run
    cfgs = [_cfg(cls, args) for cls in (ScanConfig, MatchConfig, FilterConfig)]
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    db = load_db(args.db)
    queries = _read_query_manifest(Path(args.queries))
    trace = localize_sequence(db, queries, *cfgs)
    _print_trace(trace)
    print(f"trace written to {export_trace(trace, args.out_dir)}")
    return 0


def _cmd_simulate(args) -> int:
    cfgs = [_cfg(cls, args) for cls in (WorldConfig, ScanConfig, MatchConfig, FilterConfig)]
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)  # before the trials, which an unusable one would waste
    stats = run_monte_carlo(*cfgs, trials=args.trials, steps=args.steps, period_s=args.period_s)
    print(f"{args.trials} trials, {stats.n_steps} steps")
    print(f"{'step':>4}" + "".join(f" {name:>12}" for name in STEP_STATS))
    for step, *values in stats.rows():
        print(f"{step:>4}" + "".join(f" {v:>12.3f}" for v in values))
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
