"""EKF multi-target tracker with gated Hungarian association.

State per track is [x, y, vx, vy] in Cartesian coordinates (x
cross-range, y down-range).  Measurements are native polar (range,
bearing); the nonlinearity lives in the measurement map and the EKF
linearizes it about the predicted state.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, field

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


@dataclass
class TrackState:
    id: int
    x: np.ndarray                 # [x, y, vx, vy]
    P: np.ndarray                 # 4x4 covariance
    status: TrackStatus = TrackStatus.TENTATIVE
    hits: int = 0
    misses: int = 0
    age: int = 0
    history: deque = field(default_factory=lambda: deque(maxlen=4))

    def snapshot(self, x=None, P=None) -> "TrackState":
        """A copy sharing no mutable state with self (x, P as given)."""
        return TrackState(
            id=self.id, x=self.x.copy() if x is None else x,
            P=self.P.copy() if P is None else P, status=self.status,
            hits=self.hits, misses=self.misses, age=self.age,
            history=deque(self.history, maxlen=self.history.maxlen),
        )


def polar_to_cartesian(r: float, theta: float) -> tuple[float, float]:
    """(range, bearing from +y toward +x, radians) -> (x, y)."""
    if r < 0:
        raise ConfigError("range must be >= 0")
    return r * np.sin(theta), r * np.cos(theta)


@functools.lru_cache(maxsize=8)
def transition_matrices(dt: float, q_accel: float) -> tuple[np.ndarray, np.ndarray]:
    """Constant-velocity F and white-acceleration Q for step dt, cached
    (one build per tracker step) and read-only."""
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
    F.flags.writeable = Q.flags.writeable = False
    return F, Q


def ekf_predict(track: TrackState, dt_s: float, cfg: TrackerConfig) -> TrackState:
    """Extrapolate one track forward by dt_s, as a new TrackState."""
    if dt_s <= 0:
        raise ConfigError("dt_s must be > 0")
    F, Q = transition_matrices(dt_s, cfg.q_accel)
    P = F @ track.P @ F.T + Q
    return track.snapshot(x=F @ track.x, P=0.5 * (P + P.T))


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
    track: TrackState, z: tuple[float, float], cfg: TrackerConfig
) -> TrackState:
    """Joseph-form measurement update with z = (range_m, bearing_rad)."""
    h, H = measurement_model(track.x)
    R = np.diag([cfg.r_range_var, cfg.r_angle_var])
    innovation = np.array([z[0] - h[0], wrap_angle(z[1] - h[1])])
    S = H @ track.P @ H.T + R
    try:
        S_inv = np.linalg.inv(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"innovation covariance not invertible: {exc}")
    K = track.P @ H.T @ S_inv
    A = np.eye(4) - K @ H
    P = A @ track.P @ A.T + K @ R @ K.T
    out = track.snapshot(x=track.x + K @ innovation, P=0.5 * (P + P.T))
    out.hits += 1
    return out


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
    tracks: list[TrackState],
    measurements: list[tuple[float, float]],
    cfg: TrackerConfig,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Gated global-nearest-neighbor association.

    Cost is the Euclidean distance between each predicted track
    position and each measurement converted to Cartesian, gated at
    gate_m.

    Returns (matched (track_idx, meas_idx) pairs, unmatched track
    indices, unmatched measurement indices).
    """
    n, m = len(tracks), len(measurements)
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    meas_xy = np.array([polar_to_cartesian(r, th) for r, th in measurements])
    track_xy = np.array([t.x[:2] for t in tracks])
    dist = np.linalg.norm(track_xy[:, None, :] - meas_xy[None, :, :], axis=-1)
    matched = gated_pairs(dist, cfg.gate_m)
    used_t = {i for i, _ in matched}
    used_m = {j for _, j in matched}
    return (
        matched,
        [i for i in range(n) if i not in used_t],
        [j for j in range(m) if j not in used_m],
    )


class Tracker:
    """Single-writer track table stepped once per sweep."""

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self.tracks: list[TrackState] = []
        self._ids = itertools.count()
        self._last_t: float | None = None

    def step(
        self, measurements: list[tuple[float, float]], t_s: float
    ) -> list[TrackState]:
        """Advance one sweep with (range_m, bearing_rad) measurements.

        Returns snapshots of all live tracks plus any track that died
        this sweep (emitted once with status DEAD).
        """
        cfg = self.cfg
        if not math.isfinite(t_s):
            raise StreamError(f"timestamp must be finite, got {t_s}")
        if self._last_t is not None:
            if t_s <= self._last_t:
                raise StreamError(
                    f"timestamps must be strictly increasing: "
                    f"{t_s} after {self._last_t}"
                )
            dt = t_s - self._last_t
            self.tracks = [ekf_predict(t, dt, cfg) for t in self.tracks]
        self._last_t = t_s

        matched, un_tracks, un_meas = associate(self.tracks, measurements, cfg)

        for ti, mi in matched:
            updated = ekf_update(self.tracks[ti], measurements[mi], cfg)
            updated.misses = 0
            updated.history.append(True)
            self.tracks[ti] = updated
        for ti in un_tracks:
            self.tracks[ti].misses += 1
            self.tracks[ti].history.append(False)

        for t in self.tracks:
            t.age += 1
            if (
                t.status is TrackStatus.TENTATIVE
                and sum(t.history) >= cfg.confirm_m
            ):
                t.status = TrackStatus.CONFIRMED

        dead = [t for t in self.tracks if t.misses > cfg.max_misses]
        self.tracks = [t for t in self.tracks if t.misses <= cfg.max_misses]
        for t in dead:
            t.status = TrackStatus.DEAD

        # a measurement at range 0 has no bearing: it may update a
        # track but never starts one at the singular origin
        for mi in un_meas:
            if measurements[mi][0] != 0.0:
                self.tracks.append(self._spawn(measurements[mi]))

        out = [t.snapshot() for t in self.tracks]
        out.extend(t.snapshot() for t in dead)
        return out

    def _spawn(self, z: tuple[float, float]) -> TrackState:
        cfg = self.cfg
        px, py = polar_to_cartesian(*z)
        track = TrackState(
            id=next(self._ids),
            x=np.array([px, py, 0.0, 0.0]),
            P=np.diag([cfg.p0_pos_var, cfg.p0_pos_var,
                       cfg.p0_vel_var, cfg.p0_vel_var]),
            hits=1,
            age=1,
            history=deque([True], maxlen=cfg.confirm_n),
        )
        return track
