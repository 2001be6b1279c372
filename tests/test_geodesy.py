import math

import numpy as np
import pytest

from vloc.geodesy import EARTH_RADIUS_M, M_PER_DEG, GeoPoint, from_plane, haversine_m, to_plane

# Frozen against an independent atan2 great-circle formulation.
KNOWN_DISTANCES = [
    (GeoPoint(49.0, 8.0), GeoPoint(49.0, 8.001), 72.9504356),
    (GeoPoint(49.0, 8.0), GeoPoint(49.001, 8.0), 111.1949266),
    (GeoPoint(49.01494, 8.43413), GeoPoint(49.01500, 8.43429), 13.4412366),
]


@pytest.mark.parametrize("a, b, expected", KNOWN_DISTANCES)
def test_haversine_known_values(a, b, expected):
    assert haversine_m(a, b) == pytest.approx(expected, abs=1e-4)


def test_haversine_antipodal():
    # half the circumference, exactly pi * R
    d = haversine_m(GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0))
    assert d == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-12)


def test_haversine_identity_and_symmetry():
    a = GeoPoint(49.0, 8.0)
    b = GeoPoint(48.123456, 8.654321)
    assert haversine_m(a, a) == 0.0
    assert haversine_m(a, b) == haversine_m(b, a)


def test_equirect_close_to_haversine_at_short_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        lat = float(rng.uniform(-60.0, 60.0))
        lon = float(rng.uniform(-179.0, 179.0))
        # offset well under 5 km
        east_m = float(rng.uniform(-3000.0, 3000.0))
        north_m = float(rng.uniform(-3000.0, 3000.0))
        a = GeoPoint(lat, lon)
        b = GeoPoint(
            lat + north_m / 111_320.0,
            lon + east_m / (111_320.0 * math.cos(math.radians(lat))),
        )
        h = haversine_m(a, b)
        e = math.hypot(*to_plane(a, b.lat, b.lon))
        assert e == pytest.approx(h, rel=2e-3, abs=1e-6)


def test_tangent_plane_round_trips_and_wraps_at_the_antimeridian():
    origin = GeoPoint(49.0, 179.9999)
    # a degree of latitude is M_PER_DEG meters, of longitude that times cos(lat)
    assert to_plane(origin, 50.0, 179.9999) == pytest.approx((0.0, M_PER_DEG), abs=1e-9)
    # 0.0002 degrees east of origin lies across the antimeridian
    east, north = to_plane(origin, 49.0, -179.9999)
    assert east == pytest.approx(0.0002 * M_PER_DEG * math.cos(math.radians(49.0)), rel=1e-9) and north == 0.0
    assert from_plane(origin, east, north) == pytest.approx((49.0, -179.9999), abs=1e-12)
    # the origin maps to (0, 0) and back to itself exactly
    assert to_plane(origin, origin.lat, origin.lon) == (0.0, 0.0)
    assert from_plane(origin, 0.0, 0.0) == (origin.lat, origin.lon)
    # up to a turn east or west, the longitude wraps once
    assert from_plane(GeoPoint(0.0, 170.0), 300.0 * M_PER_DEG, 0.0) == pytest.approx((0.0, 110.0), abs=1e-9)
    assert from_plane(GeoPoint(0.0, -170.0), -300.0 * M_PER_DEG, 0.0) == pytest.approx((0.0, -110.0), abs=1e-9)


def test_tangent_plane_takes_arrays_as_it_takes_floats():
    rng = np.random.default_rng(2)
    origin = GeoPoint(-33.9, -179.95)
    lat = rng.uniform(-34.0, -33.8, 50)
    lon = rng.uniform(-180.0, 180.0, 50)
    east, north = to_plane(origin, lat, lon)
    assert np.all(np.abs(east) <= math.pi * EARTH_RADIUS_M)
    assert [to_plane(origin, float(a), float(o)) for a, o in zip(lat, lon)] == list(zip(east, north))
    back = from_plane(origin, east, north)
    assert [from_plane(origin, float(e), float(n)) for e, n in zip(east, north)] == list(zip(*back))
    assert np.allclose(back[0], lat, rtol=0, atol=1e-9)
    # a longitude round-trips to itself or across the antimeridian to its twin
    assert np.allclose((back[1] - lon + 180.0) % 360.0 - 180.0, 0.0, atol=1e-9)


def test_triangle_inequality():
    rng = np.random.default_rng(1)
    for _ in range(300):
        pts = [
            GeoPoint(float(rng.uniform(-80.0, 80.0)), float(rng.uniform(-180.0, 180.0)))
            for _ in range(3)
        ]
        ab = haversine_m(pts[0], pts[1])
        bc = haversine_m(pts[1], pts[2])
        ac = haversine_m(pts[0], pts[2])
        assert min(ab, bc, ac) >= 0.0
        assert ac <= ab + bc + 1e-6


def test_geopoint_validates_ranges():
    with pytest.raises(ValueError):
        GeoPoint(90.5, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, -180.5)
    with pytest.raises(ValueError):
        GeoPoint(float("nan"), 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, float("inf"))


def test_geopoint_is_frozen():
    p = GeoPoint(1.0, 2.0)
    with pytest.raises(AttributeError):
        p.lat = 3.0
