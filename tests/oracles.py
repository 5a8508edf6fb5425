"""Independent brute-force references used by the test suite only."""

import itertools
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from ratrack import (
    ConfigError,
    FrameError,
    StreamError,
    TrackerConfig,
    TrackStatus,
    WaveformConfig,
    measurement_model,
    polar_to_cartesian,
)
from ratrack.tracker import gated_pairs, transition_matrices, wrap_angle
from ratrack.waveform import C_LIGHT


def brute_force_assignment(cost: np.ndarray) -> float:
    """Exhaustive minimum total cost over all one-to-one assignments."""
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    if n > m:
        return brute_force_assignment(cost.T)
    best = np.inf
    for perm in itertools.permutations(range(m), n):
        total = sum(cost[i, j] for i, j in enumerate(perm))
        best = min(best, total)
    return best


def reference_dbscan(points: np.ndarray, eps: float, min_pts: int):
    """Straightforward DBSCAN: core points from neighbor counts, clusters
    as connected components of the core-point graph, border points
    attached to any reachable core cluster.

    Returns (core_labels: dict point_idx -> cluster_id for core points,
    n_clusters, noise: set of indices).
    """
    n = len(points)
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    nbrs = [set(np.nonzero(row <= eps**2)[0].tolist()) for row in d2]
    core = [i for i in range(n) if len(nbrs[i]) >= min_pts]
    core_set = set(core)

    # union-find over core points
    parent = {i: i for i in core}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in core:
        for j in nbrs[i]:
            if j in core_set:
                parent[find(i)] = find(j)

    roots = sorted({find(i) for i in core})
    label = {r: k for k, r in enumerate(roots)}
    core_labels = {i: label[find(i)] for i in core}

    noise = {
        i
        for i in range(n)
        if i not in core_set and not (nbrs[i] & core_set)
    }
    return core_labels, len(roots), noise


def bfs_dbscan(idx, cfg):
    """Breadth-first DBSCAN on a dense n x n distance matrix.

    Same contract as ratrack.dbscan, with members and noise as lists:
    points are the (n, 3) index rows idx scaled per axis, seeded in
    ascending row order; each cluster grows to completion before the
    next one starts, and a border point joins the first cluster that
    reaches it.  Memory is O(n^2); keep n small.
    """
    n = len(idx)
    if n == 0:
        return [], []
    pts = np.array(
        [
            (r * cfg.range_scale, t * cfg.tx_scale, x * cfg.rx_scale)
            for r, t, x in np.asarray(idx).tolist()
        ]
    )
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    neighbors = [np.nonzero(row <= cfg.eps**2)[0] for row in d2]
    is_core = np.array([len(nb) >= cfg.min_pts for nb in neighbors])

    labels = np.full(n, -1)
    cluster_id = 0
    for p in range(n):
        if labels[p] != -1 or not is_core[p]:
            continue
        # grow a new cluster from this core point
        labels[p] = cluster_id
        frontier = deque(neighbors[p])
        while frontier:
            q = frontier.popleft()
            if labels[q] != -1:
                continue
            labels[q] = cluster_id
            if is_core[q]:
                frontier.extend(neighbors[q])
        cluster_id += 1

    clusters = [
        [i for i in range(n) if labels[i] == c] for c in range(cluster_id)
    ]
    noise = [i for i in range(n) if labels[i] == -1]
    return clusters, noise


def gather_ca_cfar(tensor, cfg):
    """CA-CFAR with the clipped window bounds gathered by fancy index.

    Same contract as ratrack.ca_cfar, input checks aside: a float64
    prefix sum along range, training sums formed as
    (left_hi - left_lo) + (right_hi - right_lo), factor
    pfa^(-1/count) - 1 for each cell's own training count, and a hit
    where power exceeds the threshold strictly.
    """
    n = tensor.n_range
    power = tensor.power.astype(np.float64)
    cs = np.concatenate(
        [np.zeros((1,) + power.shape[1:]), np.cumsum(power, axis=0)], axis=0
    )
    i = np.arange(n)
    left_lo = np.clip(i - cfg.n_guard - cfg.n_train, 0, n)
    left_hi = np.clip(i - cfg.n_guard, 0, n)  # exclusive
    right_lo = np.clip(i + cfg.n_guard + 1, 0, n)
    right_hi = np.clip(i + cfg.n_guard + cfg.n_train + 1, 0, n)  # exclusive
    counts = (left_hi - left_lo) + (right_hi - right_lo)
    train_sum = (cs[left_hi] - cs[left_lo]) + (cs[right_hi] - cs[right_lo])
    factor = cfg.pfa ** (-1.0 / counts) - 1.0
    threshold = factor[:, None, None] * train_sum
    return np.argwhere(power > threshold)


@dataclass(frozen=True)
class Detection:
    """One CFAR hit as a Python object: how ratrack once passed hits
    from CA-CFAR to DBSCAN and the centroids."""

    range_idx: int
    tx_idx: int
    rx_idx: int
    power: float


def make_cluster(members, tensor):
    """(range_m, angle_deg, total_power) power-weighted centroid of a
    Detection group, built member by member from Python objects.

    The bearing of one detection is the mean of its tx and rx steering
    angles.
    """
    powers = np.array([d.power for d in members])
    ranges = np.array([d.range_idx * tensor.bin_size_m for d in members])
    angles = np.array(
        [
            0.5 * (tensor.tx_angles_deg[d.tx_idx] + tensor.rx_angles_deg[d.rx_idx])
            for d in members
        ]
    )
    total = float(powers.sum())
    return (
        float(np.dot(powers, ranges) / total),
        float(np.dot(powers, angles) / total),
        total,
    )


def object_clusters(tensor, cfar_cfg, dbscan_cfg):
    """Centroid tuples of the object path: one Detection per CA-CFAR
    hit, grouped by breadth-first DBSCAN, one make_cluster per group."""
    idx = gather_ca_cfar(tensor, cfar_cfg)
    dets = [
        Detection(r, t, x, float(tensor.power[r, t, x]))
        for r, t, x in idx.tolist()
    ]
    members, _ = bfs_dbscan(idx, dbscan_cfg)
    return [make_cluster([dets[i] for i in m], tensor) for m in members]


def finite_difference_jacobian(fn, x: np.ndarray, step: float = 1e-6):
    """Central-difference Jacobian of fn at x."""
    fx = np.asarray(fn(x))
    J = np.zeros((fx.size, x.size))
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        J[:, i] = (np.asarray(fn(hi)) - np.asarray(fn(lo))) / (2 * step)
    return J


# -- per-row channel reference -------------------------------------------
#
# The channel model as it was before ChannelPlan: every tx row recomputes
# each path's delay ramp and takes one scalar array factor per beam.
# ChannelPlan's rows and array-factor tables must equal these bit for bit.


def scalar_array_factor(
    steer_deg: float,
    target_deg: float,
    n_elements: int = 8,
    spacing: float = 0.5,
) -> complex:
    """Normalized ULA array factor of one beam at one bearing."""
    u = np.sin(np.radians(target_deg)) - np.sin(np.radians(steer_deg))
    m = np.arange(n_elements)
    return complex(np.mean(np.exp(1j * 2.0 * np.pi * m * spacing * u)))


def row_channel_response(scene, codebook, tx_idx, n_subcarriers, scs_hz):
    """Noiseless channel from tx beam tx_idx to every rx beam,
    [n_rx x n_subcarriers], built from scratch for this one row."""
    if not 0 <= tx_idx < len(codebook.tx_angles_deg):
        raise ConfigError(f"tx_idx {tx_idx} out of range")
    tx_deg = codebook.tx_angles_deg[tx_idx]
    n, spacing = codebook.n_elements, codebook.element_spacing_wavelengths
    k = np.arange(n_subcarriers)

    def ramp(range_m: float) -> np.ndarray:
        tau = 2.0 * range_m / C_LIGHT
        return np.exp(-1j * 2.0 * np.pi * k * scs_hz * tau)

    h = np.zeros(
        (len(codebook.rx_angles_deg), n_subcarriers), dtype=np.complex128
    )
    for target in scene.targets:
        x, y = target.pos
        bearing = float(np.degrees(np.arctan2(x, y)))
        g_tx = target.reflectivity * scalar_array_factor(
            tx_deg, bearing, n, spacing
        )
        gains = np.array([
            g_tx * scalar_array_factor(rx_deg, bearing, n, spacing)
            for rx_deg in codebook.rx_angles_deg
        ])
        h += gains[:, None] * ramp(float(np.hypot(x, y)))
    if scene.leakage_amplitude > 0:
        h += scene.leakage_amplitude * ramp(scene.leakage_range_m)
    return h


# -- CP-OFDM time-domain reference --------------------------------------
#
# The simulator works in the frequency domain: it never builds a grid or
# samples, models a path's delay as a phase ramp across subcarriers, and
# draws each pair's symbol-averaged noise directly.  These functions are
# the transmit grid and time-domain transceiver that shortcut stands in
# for, with the unitary DFT convention (1/sqrt(N) both ways) so energy
# bookkeeping is symmetric.

QPSK_ALPHABET = np.array(
    [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128
) / np.sqrt(2.0)


@dataclass(frozen=True)
class ResourceGrid:
    """Frequency-domain symbol grid, [active_subcarriers x n_symbols]."""

    data: np.ndarray
    config: WaveformConfig = field(repr=False)

    def __post_init__(self):
        expected = (self.config.active_subcarriers, self.config.n_symbols)
        if self.data.shape != expected:
            raise FrameError(f"grid shape {self.data.shape}, expected {expected}")


def build_grid(cfg: WaveformConfig) -> ResourceGrid:
    """Draw a uniform random QPSK grid, deterministic per cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    idx = rng.integers(0, 4, size=(cfg.active_subcarriers, cfg.n_symbols))
    return ResourceGrid(data=QPSK_ALPHABET[idx], config=cfg)


@dataclass(frozen=True)
class IqFrame:
    """Time-domain samples for one dwell: n_symbols * (fft_size + cp_len)."""

    samples: np.ndarray
    sample_rate_hz: float


def _subcarrier_map(cfg: WaveformConfig) -> np.ndarray:
    """FFT-bin index of each active subcarrier (centered around DC)."""
    k = np.arange(cfg.active_subcarriers) - cfg.active_subcarriers // 2
    return np.mod(k, cfg.fft_size)


def modulate(grid: ResourceGrid, cp_len: int) -> IqFrame:
    """CP-OFDM modulation: per-symbol unitary IDFT plus a cyclic prefix
    of cp_len samples, at scs_hz * fft_size samples per second."""
    cfg = grid.config
    spectrum = np.zeros((cfg.fft_size, cfg.n_symbols), dtype=np.complex128)
    spectrum[_subcarrier_map(cfg), :] = grid.data
    body = np.fft.ifft(spectrum, axis=0, norm="ortho")
    if cp_len > 0:
        body = np.concatenate([body[-cp_len:, :], body], axis=0)
    return IqFrame(
        samples=body.T.reshape(-1), sample_rate_hz=cfg.scs_hz * cfg.fft_size
    )


def demodulate(
    frame: IqFrame, cfg: WaveformConfig, cp_len: int
) -> ResourceGrid:
    """Inverse of :func:`modulate`: strip CP, unitary DFT, extract actives."""
    sym_len = cfg.fft_size + cp_len
    expected = cfg.n_symbols * sym_len
    if frame.samples.shape != (expected,):
        raise FrameError(
            f"frame length {frame.samples.shape}, expected ({expected},)"
        )
    body = frame.samples.reshape(cfg.n_symbols, sym_len)[:, cp_len:].T
    spectrum = np.fft.fft(body, axis=0, norm="ortho")
    return ResourceGrid(data=spectrum[_subcarrier_map(cfg), :], config=cfg)


# -- N-tap MTI reference ---------------------------------------------------
#
# The MTI filter as it was before the fixed two-pulse canceller: a
# slow-time FIR over the last len(taps) amplitude frames.  With taps
# (1, -1), ratrack.MtiFilter must give the same bytes and warm-up flags.


class FirMti:
    """Slow-time FIR clutter canceller over the sweep stream.

    Taps must sum to zero so static returns cancel exactly.  Until the
    history fills, the output is all-zero and flagged warm-up.
    """

    def __init__(self, taps):
        taps = tuple(float(t) for t in taps)
        if len(taps) < 2:
            raise ConfigError("MTI needs at least 2 taps")
        if abs(sum(taps)) > 1e-12:
            raise ConfigError(f"MTI taps must sum to 0, got {sum(taps)}")
        self.taps = taps
        self._history = deque(maxlen=len(taps) - 1)
        self._shape = None

    def apply(self, tensor):
        """Filter one sweep; returns (filtered tensor, warm_up flag)."""
        if self._shape is None:
            self._shape = tensor.power.shape
        elif tensor.power.shape != self._shape:
            raise StreamError(
                f"tensor shape changed mid-stream: {tensor.power.shape} "
                f"vs {self._shape}"
            )
        amplitude = np.sqrt(tensor.power)
        if len(self._history) < len(self.taps) - 1:
            self._history.append(amplitude)
            out = np.zeros_like(tensor.power)
            return replace(tensor, power=out), True

        filtered = self.taps[0] * amplitude
        # history[-1] is the previous sweep: tap i pairs with sweep k-i
        for i, tap in enumerate(self.taps[1:], start=1):
            filtered = filtered + tap * self._history[-i]
        filtered *= filtered
        self._history.append(amplitude)
        out = filtered.astype(tensor.power.dtype, copy=False)
        return replace(tensor, power=out), False


# -- per-track tracker reference -------------------------------------------
#
# The tracker as it was before the track table: one object per track,
# predicted and updated one at a time, each step copying every track.
# ratrack.tracker.Tracker must report the same ids, statuses and ages,
# and the same x and P bytes, sweep for sweep.


@dataclass
class ObjectTrack:
    id: int
    x: np.ndarray                 # [x, y, vx, vy]
    P: np.ndarray                 # 4x4 covariance
    status: TrackStatus = TrackStatus.TENTATIVE
    misses: int = 0
    age: int = 0
    history: deque = field(default_factory=deque)

    def snapshot(self, x=None, P=None) -> "ObjectTrack":
        """A copy sharing no mutable state with self (x, P as given)."""
        return ObjectTrack(
            id=self.id, x=self.x.copy() if x is None else x,
            P=self.P.copy() if P is None else P, status=self.status,
            misses=self.misses, age=self.age,
            history=deque(self.history, maxlen=self.history.maxlen),
        )


def object_predict(track, dt_s, cfg):
    F, Q = transition_matrices(dt_s, cfg.q_accel)
    P = F @ track.P @ F.T + Q
    return track.snapshot(x=F @ track.x, P=0.5 * (P + P.T))


def object_update(track, z, cfg):
    h, H = measurement_model(track.x)
    R = np.diag([cfg.r_range_var, cfg.r_angle_var])
    innovation = np.array([z[0] - h[0], wrap_angle(z[1] - h[1])])
    S = H @ track.P @ H.T + R
    K = track.P @ H.T @ np.linalg.inv(S)
    A = np.eye(4) - K @ H
    P = A @ track.P @ A.T + K @ R @ K.T
    return track.snapshot(x=track.x + K @ innovation, P=0.5 * (P + P.T))


class ObjectTracker:
    """Tracker.step over a list of ObjectTrack, one object per track."""

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg or TrackerConfig()
        self.tracks: list[ObjectTrack] = []
        self._ids = itertools.count()
        self._last_t = None

    def step(self, measurements, t_s):
        cfg = self.cfg
        if self._last_t is not None:
            dt = t_s - self._last_t
            self.tracks = [object_predict(t, dt, cfg) for t in self.tracks]
        self._last_t = t_s

        n, m = len(self.tracks), len(measurements)
        matched = []
        if n and m:
            meas_xy = np.array([polar_to_cartesian(*z) for z in measurements])
            track_xy = np.array([t.x[:2] for t in self.tracks])
            dist = np.linalg.norm(
                track_xy[:, None, :] - meas_xy[None, :, :], axis=-1)
            matched = gated_pairs(dist, cfg.gate_m)
        used_t = {i for i, _ in matched}
        used_m = {j for _, j in matched}

        for ti, mi in matched:
            updated = object_update(self.tracks[ti], measurements[mi], cfg)
            updated.misses = 0
            updated.history.append(True)
            self.tracks[ti] = updated
        for ti in set(range(n)) - used_t:
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

        for mi in range(m):
            if mi not in used_m and measurements[mi][0] != 0.0:
                px, py = polar_to_cartesian(*measurements[mi])
                self.tracks.append(ObjectTrack(
                    id=next(self._ids),
                    x=np.array([px, py, 0.0, 0.0]),
                    P=np.diag([cfg.p0_pos_var, cfg.p0_pos_var,
                               cfg.p0_vel_var, cfg.p0_vel_var]),
                    age=1,
                    history=deque([True], maxlen=cfg.confirm_n),
                ))

        out = [t.snapshot() for t in self.tracks]
        out.extend(t.snapshot() for t in dead)
        return out
