"""EKF multi-target tracker with gated Hungarian association.

State per track is [x, y, vx, vy] in Cartesian coordinates (x
cross-range, y down-range).  Measurements are native polar (range,
bearing); the nonlinearity lives in the measurement map and the EKF
linearizes it about the predicted state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    ConfigError,
    NumericalError,
    SingularGeometryError,
    StreamError,
    require_int,
    require_real,
)


class TrackStatus(enum.Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    DEAD = "dead"


@dataclass(frozen=True)
class TrackerConfig:
    q_accel: float = 1.0          # white-acceleration spectral density, m^2/s^3
    r_range_var: float = 0.09     # (0.3 m)^2, about one range bin
    r_angle_var: float = 1.2184e-3  # (2 deg)^2 in rad^2
    gate_m: float = 2.0
    confirm_m: int = 3
    confirm_n: int = 4
    max_misses: int = 5
    p0_pos_var: float = 1.0
    p0_vel_var: float = 25.0

    def __post_init__(self):
        for name in ("q_accel", "r_range_var", "r_angle_var", "gate_m",
                     "p0_pos_var", "p0_vel_var"):
            require_real(name, getattr(self, name))
        for name, low in (("confirm_m", 1), ("confirm_n", 1),
                          ("max_misses", 0)):
            require_int(name, getattr(self, name), low)
        if self.confirm_m > self.confirm_n:
            raise ConfigError("confirm_m must be <= confirm_n")


@dataclass(frozen=True, slots=True)
class TrackState:
    """One track as Tracker.step reports it for one sweep."""

    id: int
    x: np.ndarray                 # [x, y, vx, vy]
    P: np.ndarray                 # 4x4 covariance
    status: TrackStatus
    age: int                      # sweeps since spawn, 1 in the spawn sweep


def polar_to_cartesian(r, theta):
    """(range, bearing from +y toward +x, radians) -> (x, y), for
    scalars or broadcasting arrays alike."""
    if np.any(np.less(r, 0)):
        raise ConfigError("range must be >= 0")
    return r * np.sin(theta), r * np.cos(theta)


def transition_matrices(dt: float, q_accel: float) -> tuple[np.ndarray, np.ndarray]:
    """Constant-velocity F and white-acceleration Q for step dt."""
    F = np.eye(4)
    F[0, 2] = dt
    F[1, 3] = dt
    d3, d2 = dt**3 / 3.0, dt**2 / 2.0
    Q = q_accel * np.array(
        [
            [d3, 0.0, d2, 0.0],
            [0.0, d3, 0.0, d2],
            [d2, 0.0, dt, 0.0],
            [0.0, d2, 0.0, dt],
        ]
    )
    return F, Q


def ekf_predict(
    x: np.ndarray, P: np.ndarray, dt_s: float, cfg: TrackerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Extrapolate states x (..., 4) and covariances P (..., 4, 4) by
    dt_s, as new arrays: one call predicts a whole track table."""
    if dt_s <= 0:
        raise ConfigError("dt_s must be > 0")
    F, Q = transition_matrices(dt_s, cfg.q_accel)
    P = F @ P @ F.T + Q
    return (np.einsum("ij,...j->...i", F, x),
            0.5 * (P + np.swapaxes(P, -1, -2)))


def measurement_model(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar measurement h(x) = (r, theta) and its 2x4 Jacobian.

    theta is measured from the +y axis toward +x, matching
    polar_to_cartesian.
    """
    px, py = x[0], x[1]
    r = float(np.hypot(px, py))
    if r == 0.0:
        raise SingularGeometryError("measurement model undefined at the origin")
    h = np.array([r, np.arctan2(px, py)])
    H = np.array(
        [
            [px / r, py / r, 0.0, 0.0],
            [py / r**2, -px / r**2, 0.0, 0.0],
        ]
    )
    return h, H


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = (a + np.pi) % (2.0 * np.pi) - np.pi
    return np.pi if a == -np.pi else a


def ekf_update(
    x: np.ndarray, P: np.ndarray, z: tuple[float, float], cfg: TrackerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Joseph-form update of one state x (4,) and covariance P (4, 4)
    with z = (range_m, bearing_rad), as new arrays."""
    h, H = measurement_model(x)
    R = np.diag([cfg.r_range_var, cfg.r_angle_var])
    innovation = np.array([z[0] - h[0], wrap_angle(z[1] - h[1])])
    S = H @ P @ H.T + R
    try:
        S_inv = np.linalg.inv(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"innovation covariance not invertible: {exc}")
    K = P @ H.T @ S_inv
    A = np.eye(4) - K @ H
    P = A @ P @ A.T + K @ R @ K.T
    return x + K @ innovation, 0.5 * (P + P.T)


def hungarian(cost: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Minimum-cost one-to-one assignment of min(n, m) pairs."""
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return [], 0.0
    rows, cols = linear_sum_assignment(cost)
    pairs = sorted(zip(rows.tolist(), cols.tolist()))
    return pairs, float(cost[rows, cols].sum())


def gated_pairs(dist: np.ndarray, gate: float) -> list[tuple[int, int]]:
    """Minimum-cost (row, col) pairs among entries with dist <= gate.

    Entries beyond the gate get a sentinel cost of 1e6 * max(gate, 1),
    so the solver prefers any in-gate pair, and the pairs it is forced
    through a sentinel are stripped, so gating is exact.
    """
    gated = dist <= gate
    pairs, _ = hungarian(np.where(gated, dist, 1e6 * max(gate, 1.0)))
    return [(i, j) for i, j in pairs if gated[i, j]]


def associate(
    track_xy: np.ndarray, meas_xy: np.ndarray, cfg: TrackerConfig
) -> tuple[list[tuple[int, int]], list[int]]:
    """Gated global-nearest-neighbor association.

    Cost is the Euclidean distance between each predicted track
    position (the rows of track_xy, shape (n, 2)) and each Cartesian
    measurement (the rows of meas_xy, shape (m, 2)), gated at gate_m.

    Returns (matched (track_idx, meas_idx) pairs, unmatched measurement
    indices).
    """
    matched = []
    if len(track_xy) and len(meas_xy):
        dist = np.linalg.norm(
            track_xy[:, None, :] - meas_xy[None, :, :], axis=-1)
        matched = gated_pairs(dist, cfg.gate_m)
    used_m = {j for _, j in matched}
    return matched, [j for j in range(len(meas_xy)) if j not in used_m]


_STATUSES = (TrackStatus.TENTATIVE, TrackStatus.CONFIRMED, TrackStatus.DEAD)
_COLUMNS = ("ids", "x", "P", "confirmed", "misses", "age", "window")


class Tracker:
    """Single-writer track table stepped once per sweep.

    One row per live track, held as arrays: ids, states x (n, 4),
    covariances P (n, 4, 4), confirmed, misses, age and the M-of-N hit
    window (n, w). The window's last column is each track's hit or miss
    this sweep, the columns before it the sweeps before (False before
    its spawn), and w <= min(confirm_n, sweeps stepped).
    """

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self._next_id = 0
        self._last_t: float | None = None
        for name, col in zip(_COLUMNS, self._new_rows(np.empty((0, 2)), 0)):
            setattr(self, name, col)

    def step(self, measurements, t_s: float) -> list[TrackState]:
        """Advance one sweep with an (m, 2) array of (range_m,
        bearing_rad) measurement rows; a list of pairs also works.

        Returns one record per live track, in table order (tracks
        spawned this sweep last), then one per track that died this
        sweep (emitted once with status DEAD).
        """
        cfg = self.cfg
        z = np.asarray(measurements, dtype=float)
        if z.shape == (0,):  # an empty list
            z = np.empty((0, 2))
        if z.ndim != 2 or z.shape[1] != 2:
            raise StreamError(
                f"measurements must be an (m, 2) array, got shape {z.shape}")
        if not math.isfinite(t_s):
            raise StreamError(f"timestamp must be finite, got {t_s}")
        if self._last_t is not None:
            if t_s <= self._last_t:
                raise StreamError(
                    f"timestamps must be strictly increasing: "
                    f"{t_s} after {self._last_t}"
                )
            self.x, self.P = ekf_predict(
                self.x, self.P, t_s - self._last_t, cfg)
        self._last_t = t_s

        meas_xy = np.column_stack(polar_to_cartesian(z[:, 0], z[:, 1]))
        matched, un_meas = associate(self.x[:, :2], meas_xy, cfg)
        hit = np.zeros(len(self.ids), dtype=bool)
        for ti, mi in matched:
            self.x[ti], self.P[ti] = ekf_update(
                self.x[ti], self.P[ti], z[mi], cfg)
            hit[ti] = True
        self.misses = np.where(hit, 0, self.misses + 1)
        self.age += 1
        w = self.window.shape[1]
        self.window = np.column_stack(
            (self.window[:, w - min(cfg.confirm_n - 1, w):], hit))
        self.confirmed |= self.window.sum(axis=1) >= cfg.confirm_m

        # a measurement at range 0 has no bearing: it may update a
        # track but never starts one at the singular origin
        spawn = [mi for mi in un_meas if z[mi, 0] != 0.0]
        if spawn:
            new = self._new_rows(meas_xy[spawn], self.window.shape[1])
            for name, col in zip(_COLUMNS, new):
                setattr(self, name, np.concatenate((getattr(self, name), col)))

        dead = self.misses > cfg.max_misses
        rows = np.argsort(dead, kind="stable")  # live rows, then dead
        codes = np.where(dead, 2, self.confirmed)[rows].tolist()
        out = [
            TrackState(i, x, P, _STATUSES[c], a) for i, x, P, c, a in zip(
                self.ids[rows].tolist(), self.x[rows], self.P[rows], codes,
                self.age[rows].tolist())
        ]
        for name in _COLUMNS:
            setattr(self, name, getattr(self, name)[~dead])
        return out

    def _new_rows(self, xy: np.ndarray, w: int) -> tuple[np.ndarray, ...]:
        """The _COLUMNS of one tentative track per spawn position xy
        (k, 2), hit in the last of w window columns."""
        cfg, k = self.cfg, len(xy)
        window = np.zeros((k, w), dtype=bool)
        window[:, -1:] = True
        p0 = np.diag([cfg.p0_pos_var] * 2 + [cfg.p0_vel_var] * 2)
        self._next_id += k
        return (np.arange(self._next_id - k, self._next_id),
                np.column_stack((xy, np.zeros((k, 2)))),
                np.tile(p0, (k, 1, 1)), np.zeros(k, dtype=bool),
                np.zeros(k, dtype=np.int64), np.ones(k, dtype=np.int64),
                window)
