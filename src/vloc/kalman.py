"""Constant-velocity Kalman filter on a local tangent plane.

The state is a position in meters east and north of the first fix, on the
plane tangent there (:func:`vloc.geodesy.to_plane`), and a velocity in
meters per second, under the constant-velocity model with white-noise
acceleration of Bar-Shalom, Li & Kirubarajan (2001, §6.2). Measurement
noise, initial covariance and process noise are the same on both axes, so
east and north never couple: the filter is two 2-state filters sharing one
(position, velocity) covariance, held as three floats. Longitudes wrap on
the way in and out, so a drive may cross the antimeridian.

Filter states are immutable values: every operation returns a new state and
never mutates its inputs.
"""

import math
from dataclasses import dataclass

from .errors import SingularInnovationError
from .geodesy import GeoPoint, from_plane, to_plane


@dataclass(frozen=True)
class FilterConfig:
    """Tuning constants for the filter.

    sigma_r is the measurement noise standard deviation per axis in meters,
    p0_scale the initial variance of each position (m²) and velocity
    (m²/s²) component, and q the white-noise acceleration density in
    m²/s³: a prediction of dt seconds adds q·[[dt³/3, dt²/2], [dt²/2, dt]]
    to each axis' covariance. sigma_r is the measured fix error under the
    1 s evaluation exclusion: every fix is the frame 1.1 s (19.8 m at 18
    m/s) behind or ahead along the track, so the mean squared error over
    both axes is 19.8² and each axis' rms is 19.8/√2 = 14.0 m. On data with
    no exclusion a fix errs by about half the frame spacing, so such data
    needs a sigma_r of its own. p0_scale and q are the filter's earlier
    degree values converted at 111,195 m per degree: 1000 deg² and 1e-10
    deg² per 1 s step. The time step is not configured: the pipeline
    takes it from the query timestamps.
    """

    sigma_r: float = 14.0
    p0_scale: float = 1.24e13
    q: float = 1.24

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.sigma_r > 0:
            raise ValueError(f"sigma_r must be positive, got {self.sigma_r}")
        if not self.p0_scale > 0:
            raise ValueError(f"p0_scale must be positive, got {self.p0_scale}")
        if self.q < 0:
            raise ValueError(f"q must be non-negative, got {self.q}")


@dataclass(frozen=True, slots=True)
class FilterState:
    """Immutable filter state on the plane tangent at origin.

    (e, n) is the position in meters east and north of origin and (v_e, v_n)
    the velocity in m/s. Each axis' (position, velocity) covariance is
    [[p_pp, p_pv], [p_pv, p_vv]].
    """

    origin: GeoPoint
    e: float
    n: float
    v_e: float
    v_n: float
    p_pp: float
    p_pv: float
    p_vv: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.e, self.n, self.v_e, self.v_n, self.p_pp, self.p_pv, self.p_vv))):
            raise ValueError("state must be finite")

    def position(self) -> GeoPoint:
        return GeoPoint(*from_plane(self.origin, self.e, self.n))


def init_filter(meas: GeoPoint, cfg: FilterConfig) -> FilterState:
    """State at the first measurement, which becomes the plane's origin: zero velocity, wide P."""
    return FilterState(meas, 0.0, 0.0, 0.0, 0.0, cfg.p0_scale, 0.0, cfg.p0_scale)


def predict(state: FilterState, dt: float, cfg: FilterConfig) -> FilterState:
    """Propagate the state dt seconds under the constant-velocity model."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    # F P F^T + Q(dt) with F = [[1, dt], [0, 1]]; products, not powers, so an overflow is inf, not an exception
    p_pv = state.p_pv + dt * state.p_vv
    return FilterState(
        state.origin, state.e + dt * state.v_e, state.n + dt * state.v_n, state.v_e, state.v_n,
        state.p_pp + dt * (state.p_pv + p_pv) + cfg.q * dt * dt * dt / 3.0,
        p_pv + cfg.q * dt * dt / 2.0,
        state.p_vv + cfg.q * dt,
    )


def update(state: FilterState, meas: GeoPoint, cfg: FilterConfig) -> FilterState:
    """Condition the state on a position measurement, one axis at a time.

    Uses the Joseph-form covariance update, which stays positive
    semidefinite under roundoff where the plain form can drift. Raises
    SingularInnovationError when the innovation variance is not positive,
    as when sigma_r**2 underflows on an exact prior.
    """
    z_e, z_n = to_plane(state.origin, meas.lat, meas.lon)
    y_e, y_n = z_e - state.e, z_n - state.n
    r = cfg.sigma_r * cfg.sigma_r
    var = state.p_pp + r
    if not var > 0:
        raise SingularInnovationError(f"innovation variance {var} is not positive")
    k_p, k_v = state.p_pp / var, state.p_pv / var

    # Joseph form (I - K H) P (I - K H)^T + r K K^T with H = [1, 0];
    # keep and cross are the first column of (I - K H) P
    keep = (1.0 - k_p) * state.p_pp
    cross = state.p_pv - k_v * state.p_pp
    return FilterState(
        state.origin, state.e + k_p * y_e, state.n + k_p * y_n, state.v_e + k_v * y_e, state.v_n + k_v * y_n,
        (1.0 - k_p) * keep + r * k_p * k_p,
        (1.0 - k_p) * cross + r * k_p * k_v,
        state.p_vv - k_v * state.p_pv - k_v * cross + r * k_v * k_v,
    )


def step(state: FilterState, meas: GeoPoint, dt: float, cfg: FilterConfig) -> FilterState:
    """One filter cycle: predict dt seconds ahead, then update with the measurement."""
    return _update(_predict(state, dt, cfg), meas, cfg)


# step's own references: a profiler that wraps the public names sees a step as one call
_predict, _update = predict, update
