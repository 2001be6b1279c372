"""Constant-velocity Kalman filter over geographic coordinates.

State vector is [lat, lon, vlat, vlon] in decimal degrees and degrees per
second. Working directly in degrees keeps the filter linear; at vehicle
scale the meters-per-degree factor is locally constant, so the model error
is negligible next to retrieval noise.

Filter states are immutable values: every operation returns a new state and
never mutates its inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularInnovationError
from .geodesy import GeoPoint

STATE_DIM = 4
_SYM_TOL = 1e-9


@dataclass(frozen=True)
class FilterConfig:
    """Tuning constants for the filter.

    sigma_r is the measurement noise standard deviation in degrees,
    p0_scale the initial covariance diagonal, q_scale the process noise
    added to every diagonal entry per prediction, whatever its time step.
    The time step is not configured: the pipeline takes it from the query
    timestamps.
    """

    sigma_r: float = 1e-4
    p0_scale: float = 1000.0
    q_scale: float = 1e-10

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.sigma_r > 0:
            raise ValueError(f"sigma_r must be positive, got {self.sigma_r}")
        if not self.p0_scale > 0:
            raise ValueError(f"p0_scale must be positive, got {self.p0_scale}")
        if self.q_scale < 0:
            raise ValueError(f"q_scale must be non-negative, got {self.q_scale}")


class FilterState:
    """Immutable filter state: mean vector x and covariance P."""

    __slots__ = ("_x", "_p")

    def __init__(self, x, p):
        x = np.array(x, dtype=np.float64, copy=True).reshape(-1)
        p = np.array(p, dtype=np.float64, copy=True)
        if x.shape != (STATE_DIM,) or p.shape != (STATE_DIM, STATE_DIM):
            raise ValueError(f"state must be ({STATE_DIM},) with ({STATE_DIM}, {STATE_DIM}) covariance")
        self._x, self._p = _settled(x, p)

    @classmethod
    def _of(cls, x: np.ndarray, p: np.ndarray) -> "FilterState":
        """State of freshly computed (4,) and (4, 4) float64 arrays that nothing else holds: checked, not copied."""
        obj = cls.__new__(cls)
        obj._x, obj._p = _settled(x, p)
        return obj

    @property
    def x(self) -> np.ndarray:
        return self._x

    @property
    def p(self) -> np.ndarray:
        return self._p

    def position(self) -> GeoPoint:
        return GeoPoint(float(self._x[0]), float(self._x[1]))

    def velocity(self) -> tuple[float, float]:
        """(vlat, vlon) in degrees per second."""
        return float(self._x[2]), float(self._x[3])

    def __repr__(self) -> str:
        return f"FilterState(x={self._x.tolist()})"


def _settled(x: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and P as a state holds them: finite, P symmetric within _SYM_TOL, then exactly; read-only."""
    if not (np.isfinite(x).all() and np.isfinite(p).all()):
        raise ValueError("state must be finite")
    skew = np.abs(p - p.T).max()
    if skew > _SYM_TOL:
        raise ValueError(f"covariance asymmetry {skew:.3e} exceeds {_SYM_TOL}")
    p = (p + p.T) / 2.0
    x.setflags(write=False)
    p.setflags(write=False)
    return x, p


_EYE = np.eye(STATE_DIM)
_EYE.setflags(write=False)

_H = np.zeros((2, STATE_DIM))
_H[0, 0] = 1.0
_H[1, 1] = 1.0


def init_filter(meas: GeoPoint, cfg: FilterConfig) -> FilterState:
    """State at the first measurement: its position, zero velocity, wide P."""
    x = np.array([meas.lat, meas.lon, 0.0, 0.0])
    p = cfg.p0_scale * np.eye(STATE_DIM)
    return FilterState(x, p)


def _predicted(x: np.ndarray, p: np.ndarray, dt: float, cfg: FilterConfig) -> tuple[np.ndarray, np.ndarray]:
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    f = _EYE.copy()
    f[0, 2] = dt
    f[1, 3] = dt
    return f @ x, f @ p @ f.T + cfg.q_scale * _EYE


def _updated(x: np.ndarray, p: np.ndarray, meas: GeoPoint, cfg: FilterConfig) -> tuple[np.ndarray, np.ndarray]:
    z = np.array([meas.lat, meas.lon])
    r = cfg.sigma_r**2 * np.eye(2)

    # innovation and its covariance
    y = z - _H @ x
    s = _H @ p @ _H.T + r
    try:
        gain = np.linalg.solve(s, _H @ p).T  # K = P H^T S^-1
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationError(f"innovation covariance not invertible: {exc}") from exc

    ikh = _EYE - gain @ _H
    return x + gain @ y, ikh @ p @ ikh.T + gain @ r @ gain.T


def predict(state: FilterState, dt: float, cfg: FilterConfig) -> FilterState:
    """Propagate the state dt seconds under the constant-velocity model."""
    return FilterState._of(*_predicted(state.x, state.p, dt, cfg))


def update(state: FilterState, meas: GeoPoint, cfg: FilterConfig) -> FilterState:
    """Condition the state on a position measurement.

    Uses the Joseph-form covariance update, which stays symmetric positive
    semidefinite under roundoff where the plain form can drift.
    """
    return FilterState._of(*_updated(state.x, state.p, meas, cfg))


def step(state: FilterState, meas: GeoPoint, dt: float, cfg: FilterConfig) -> FilterState:
    """One filter cycle: predict dt seconds ahead, then update with the measurement.

    The prediction is checked and symmetrized as predict's state would be,
    without building that state.
    """
    x, p = _settled(*_predicted(state.x, state.p, dt, cfg))
    return FilterState._of(*_updated(x, p, meas, cfg))
