"""Camera-only vehicle localization.

Retrieval of geotagged descriptor frames followed by a constant-velocity
Kalman filter over the matched geotags.
"""

from .database import Database, GeoFrame, ScanConfig, ingest_csv, ingest_kitti, load_db, read_desc_file, save_db, write_desc_file
from .errors import (
    DatabaseFormatError,
    EmptyCandidatesError,
    FrameTooSmallError,
    IngestError,
    NoMatchError,
    SingularInnovationError,
    VlocError,
)
from .geodesy import GeoPoint
from .kalman import FilterConfig
from .matching import DescriptorSet, MatchConfig, count_correspondences
from .pipeline import Query, evaluate, export_report, localize_sequence
from .synthworld import WorldConfig, gen_queries, gen_world, run_monte_carlo

__version__ = "0.1.0"

__all__ = [
    "Database",
    "DatabaseFormatError",
    "DescriptorSet",
    "EmptyCandidatesError",
    "FilterConfig",
    "FrameTooSmallError",
    "GeoFrame",
    "GeoPoint",
    "IngestError",
    "MatchConfig",
    "NoMatchError",
    "Query",
    "ScanConfig",
    "SingularInnovationError",
    "VlocError",
    "WorldConfig",
    "count_correspondences",
    "evaluate",
    "export_report",
    "gen_queries",
    "gen_world",
    "ingest_csv",
    "ingest_kitti",
    "load_db",
    "localize_sequence",
    "read_desc_file",
    "run_monte_carlo",
    "save_db",
    "write_desc_file",
]
