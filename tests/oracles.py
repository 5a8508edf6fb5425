"""Independent brute-force references used by the test suite only."""

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from ratrack import FrameError, ResourceGrid, WaveformConfig


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


# -- CP-OFDM time-domain reference --------------------------------------
#
# The simulator works in the frequency domain: it never builds samples,
# and models a path's delay as a phase ramp across subcarriers.  These
# functions are the time-domain transceiver that shortcut stands in for,
# with the unitary DFT convention (1/sqrt(N) both ways) so energy
# bookkeeping is symmetric.


@dataclass(frozen=True)
class IqFrame:
    """Time-domain samples for one dwell: n_symbols * (fft_size + cp_len)."""

    samples: np.ndarray
    sample_rate_hz: float


def _subcarrier_map(cfg: WaveformConfig) -> np.ndarray:
    """FFT-bin index of each active subcarrier (centered around DC)."""
    k = np.arange(cfg.active_subcarriers) - cfg.active_subcarriers // 2
    return np.mod(k, cfg.fft_size)


def modulate(grid: ResourceGrid) -> IqFrame:
    """CP-OFDM modulation: per-symbol unitary IDFT plus cyclic prefix."""
    cfg = grid.config
    spectrum = np.zeros((cfg.fft_size, cfg.n_symbols), dtype=np.complex128)
    spectrum[_subcarrier_map(cfg), :] = grid.data
    body = np.fft.ifft(spectrum, axis=0, norm="ortho")
    if cfg.cp_len > 0:
        body = np.concatenate([body[-cfg.cp_len :, :], body], axis=0)
    return IqFrame(
        samples=body.T.reshape(-1), sample_rate_hz=cfg.sample_rate_hz
    )


def demodulate(frame: IqFrame, cfg: WaveformConfig) -> ResourceGrid:
    """Inverse of :func:`modulate`: strip CP, unitary DFT, extract actives."""
    sym_len = cfg.fft_size + cfg.cp_len
    expected = cfg.n_symbols * sym_len
    if frame.samples.shape != (expected,):
        raise FrameError(
            f"frame length {frame.samples.shape}, expected ({expected},)"
        )
    body = frame.samples.reshape(cfg.n_symbols, sym_len)[:, cfg.cp_len :].T
    spectrum = np.fft.fft(body, axis=0, norm="ortho")
    return ResourceGrid(data=spectrum[_subcarrier_map(cfg), :], config=cfg)
