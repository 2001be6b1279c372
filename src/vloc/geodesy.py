"""Great-circle distance and a local tangent plane on a spherical Earth model.

Distances and plane coordinates are in meters. Latitudes and longitudes are WGS-ish
decimal degrees, but no ellipsoidal correction is applied: the sphere is
good to ~0.5% which is far below the noise of image retrieval.
"""

import math
from dataclasses import dataclass

EARTH_RADIUS_M = 6_371_000.0
"""Mean Earth radius in meters, shared by the distance function and the tangent plane."""

M_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0
"""Meters per degree of latitude on that sphere (111,194.9 m)."""


@dataclass(frozen=True)
class GeoPoint:
    """A geographic coordinate in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"coordinates must be finite, got ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in meters.

    Exact on the sphere for antipodal and identical points alike; the
    half-angle form keeps precision for the sub-meter separations that
    consecutive camera frames produce.
    """
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    sin_dlat_half = math.sin(math.radians(b.lat - a.lat) / 2.0)
    sin_dlon_half = math.sin(math.radians(b.lon - a.lon) / 2.0)
    h = sin_dlat_half**2 + math.cos(lat1) * math.cos(lat2) * sin_dlon_half**2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def to_plane(origin: GeoPoint, lat, lon):
    """East and north meters of (lat, lon) on the plane tangent at origin.

    An equirectangular projection about origin: a degree of latitude is
    M_PER_DEG meters, a degree of longitude M_PER_DEG * cos(origin.lat).
    The longitude difference is wrapped into [-180, 180], so a point just
    across the antimeridian lands beside origin. Accurate to well under
    0.2% for a few kilometers away from the poles. lat and lon may be
    floats or numpy arrays.
    """
    east_per_deg = M_PER_DEG * math.cos(math.radians(origin.lat))
    return east_per_deg * _wrapped(lon - origin.lon), M_PER_DEG * (lat - origin.lat)


def from_plane(origin: GeoPoint, east_m, north_m):
    """Latitude and longitude of a point on the plane tangent at origin: the inverse of :func:`to_plane`.

    The longitude is wrapped into [-180, 180]; east_m must lie within one
    turn of longitude of origin. east_m and north_m may be floats or numpy
    arrays.
    """
    east_per_deg = M_PER_DEG * math.cos(math.radians(origin.lat))
    return origin.lat + north_m / M_PER_DEG, _wrapped(origin.lon + east_m / east_per_deg)


def _wrapped(lon):
    """lon in [-540, 540] wrapped into [-180, 180], exactly: a value already there is returned as it is."""
    return lon - 360.0 * (lon > 180.0) + 360.0 * (lon < -180.0)
