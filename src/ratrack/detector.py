"""Static clutter suppression, CFAR detection and clustering.

The MTI filter runs in the amplitude domain along slow time and its
output is re-squared, so CFAR downstream always sees a power tensor.
CA-CFAR is 1-D along range, applied independently per beam pair; the
angle axes are clustered afterwards by DBSCAN.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import ConfigError, StreamError, require_int, require_real
from .receiver import RaTensor


@dataclass(frozen=True)
class CfarConfig:
    n_train: int = 8
    n_guard: int = 2
    pfa: float = 1e-3

    def __post_init__(self):
        require_int("n_train", self.n_train, 1)
        require_int("n_guard", self.n_guard, 0)
        if not 0.0 < self.pfa < 1.0:
            raise ConfigError("pfa must be in (0, 1)")
        try:  # an edge cell's n_train cells need the largest factor
            math.pow(self.pfa, -1.0 / self.n_train)
        except OverflowError:
            raise ConfigError(f"pfa {self.pfa!r} with n_train "
                              f"{self.n_train}: CFAR threshold overflows")


@dataclass(frozen=True)
class Cluster:
    """Power-weighted centroid measurement of one DBSCAN cluster."""

    centroid_range_m: float
    centroid_angle_deg: float
    total_power: float


class MtiFilter:
    """Slow-time FIR clutter canceller over the sweep stream.

    Taps must sum to zero so static returns cancel exactly.  Until the
    history fills, the output is all-zero and flagged warm-up.
    """

    def __init__(self, taps=(1.0, -1.0)):
        taps = tuple(float(t) for t in taps)
        if len(taps) < 2:
            raise ConfigError("MTI needs at least 2 taps")
        if abs(sum(taps)) > 1e-12:
            raise ConfigError(f"MTI taps must sum to 0, got {sum(taps)}")
        self.taps = taps
        self._history: deque[np.ndarray] = deque(maxlen=len(taps) - 1)
        self._shape: tuple[int, ...] | None = None

    @property
    def settled(self) -> bool:
        return len(self._history) == len(self.taps) - 1

    def apply(self, tensor: RaTensor) -> tuple[RaTensor, bool]:
        """Filter one sweep; returns (filtered tensor, warm_up flag)."""
        if self._shape is None:
            self._shape = tensor.power.shape
        elif tensor.power.shape != self._shape:
            raise StreamError(
                f"tensor shape changed mid-stream: {tensor.power.shape} "
                f"vs {self._shape}"
            )
        amplitude = np.sqrt(tensor.power)
        if not self.settled:
            self._history.append(amplitude)
            out = np.zeros_like(tensor.power)
            return replace(tensor, power=out), True

        # taps too large for float32 leave inf or NaN here without a
        # numpy warning; ca_cfar rejects such a sweep with a ConfigError
        with np.errstate(over="ignore", invalid="ignore"):
            filtered = self.taps[0] * amplitude
            # history[-1] is the previous sweep: tap i pairs with sweep k-i
            for i, tap in enumerate(self.taps[1:], start=1):
                filtered = filtered + tap * self._history[-i]
            filtered *= filtered
        self._history.append(amplitude)
        out = filtered.astype(tensor.power.dtype, copy=False)
        return replace(tensor, power=out), False


def ca_cfar(tensor: RaTensor, cfg: CfarConfig) -> np.ndarray:
    """1-D CA-CFAR along range, independently per beam pair.

    Returns the hits as an (n, 3) integer array of (range_idx, tx_idx,
    rx_idx) rows in ascending flat order.  Edge cells use only the
    training cells that exist, with the threshold factor recomputed for
    the reduced count so the design pfa holds there too.
    """
    n = tensor.n_range
    g, w = cfg.n_guard, cfg.n_guard + cfg.n_train
    if 2 * w + 1 > n:
        raise ConfigError(
            f"CFAR window {2 * w + 1} exceeds range axis length {n}"
        )
    power = tensor.power
    # padded float64 prefix sum along range: cs[w + j] is the sum of
    # power[:clip(j, 0, n)], so every clipped window bound is a slice
    cs = np.empty((n + 1 + 2 * w,) + power.shape[1:])
    cs[: w + 1] = 0.0
    np.cumsum(power, axis=0, dtype=np.float64, out=cs[w + 1 : w + 1 + n])
    # cs[w + n] holds each beam pair's total: one inf or NaN cell would
    # turn the rest of its thresholds into NaN and drop its hits
    if not np.isfinite(cs[w + n]).all():
        raise ConfigError(
            f"sweep {tensor.sweep_index}: MTI output is not finite; "
            "run.mti_taps are too large for the float32 power tensor"
        )
    cs[w + 1 + n :] = cs[w + n]
    i = np.arange(n)
    counts = (np.clip(i - g, 0, n) - np.clip(i - w, 0, n)) + (
        np.clip(i + w + 1, 0, n) - np.clip(i + g + 1, 0, n)
    )
    # threshold = alpha * mean = (pfa^(-1/cnt) - 1) * training sum, the
    # sum formed as (left_hi - left_lo) + (right_hi - right_lo)
    threshold = np.subtract(cs[cfg.n_train : cfg.n_train + n], cs[:n])
    threshold += np.subtract(cs[2 * w + 1 :], cs[w + g + 1 : w + g + 1 + n])
    threshold *= (cfg.pfa ** (-1.0 / counts) - 1.0)[:, None, None]
    # float32 power promotes exactly to float64 in the comparison
    hits = np.flatnonzero(power > threshold)
    return np.column_stack(np.unravel_index(hits, power.shape))


@dataclass(frozen=True)
class DbscanConfig:
    eps: float = 3.0
    min_pts: int = 3
    range_scale: float = 1.0
    tx_scale: float = 2.0
    rx_scale: float = 2.0

    def __post_init__(self):
        # capped so squared distances of scaled indices stay finite
        for name in ("eps", "range_scale", "tx_scale", "rx_scale"):
            require_real(name, getattr(self, name), high=1e6)
        require_int("min_pts", self.min_pts, 1)


def dbscan(
    idx: np.ndarray, cfg: DbscanConfig
) -> tuple[list[np.ndarray], np.ndarray]:
    """DBSCAN over the (n, 3) index rows of CFAR hits, each axis scaled
    by its DbscanConfig scale.

    Returns (clusters as arrays of row numbers into idx, noise rows),
    each in ascending order.  Neighbour pairs come from a KD-tree
    query, so cost is O(n log n + pairs) and memory O(n + pairs).
    Clusters are the connected components of the core-point graph,
    numbered by their lowest-index core point; a border point joins
    the lowest-numbered cluster among its core neighbours.  That is
    the labeling of a breadth-first DBSCAN that grows one cluster at a
    time from seeds taken in ascending index order.
    """
    n = len(idx)
    if n == 0:
        return [], np.empty(0, dtype=np.intp)
    pts = idx * np.array([cfg.range_scale, cfg.tx_scale, cfg.rx_scale], float)
    # the tree's radius has a hair of slack; the exact squared-distance
    # test decides pairs that sit on the eps boundary
    pairs = cKDTree(pts).query_pairs(
        cfg.eps * (1 + 1e-9), output_type="ndarray"
    )
    d2 = np.sum((pts[pairs[:, 0]] - pts[pairs[:, 1]]) ** 2, axis=-1)
    i, j = pairs[d2 <= cfg.eps**2].T
    # every point is its own neighbour
    n_nbrs = np.bincount(np.concatenate([i, j]), minlength=n) + 1
    is_core = n_nbrs >= cfg.min_pts

    both = is_core[i] & is_core[j]
    graph = coo_matrix(
        (np.ones(int(both.sum())), (i[both], j[both])), shape=(n, n)
    )
    n_comp, comp = connected_components(graph, directed=False)
    core_idx = np.flatnonzero(is_core)
    _, first = np.unique(comp[core_idx], return_index=True)
    n_clusters = len(first)
    # non-core points are singleton components and keep label -1
    cluster_of_comp = np.full(n_comp, -1)
    cluster_of_comp[comp[core_idx[np.sort(first)]]] = np.arange(n_clusters)
    labels = cluster_of_comp[comp]

    # a border point joins the lowest cluster id among its core neighbours
    border = np.full(n, n_clusters)
    for core, other in ((i, j), (j, i)):
        sel = is_core[core] & ~is_core[other]
        np.minimum.at(border, other[sel], labels[core[sel]])
    labels = np.where(border < n_clusters, border, labels)

    order = np.argsort(labels, kind="stable")
    cuts = np.searchsorted(labels[order], np.arange(n_clusters))
    noise, *clusters = np.split(order, cuts)
    return clusters, noise


def cluster_detections(
    idx: np.ndarray, cfg: DbscanConfig, tensor: RaTensor
) -> tuple[list[Cluster], np.ndarray]:
    """Run DBSCAN over the CFAR hits idx and form each cluster's
    power-weighted centroid; returns (clusters, noise rows of idx).

    The bearing of one hit is the mean of its tx and rx steering
    angles (colocated arrays see the same true bearing).
    """
    members, noise = dbscan(idx, cfg)
    r, t, x = idx.T
    powers = tensor.power[r, t, x].astype(np.float64)
    ranges = r * tensor.bin_size_m
    angles = 0.5 * (
        np.asarray(tensor.tx_angles_deg)[t] + np.asarray(tensor.rx_angles_deg)[x]
    )
    clusters = []
    for m in members:
        p = powers[m]
        total = float(p.sum())
        clusters.append(Cluster(
            centroid_range_m=float(np.dot(p, ranges[m]) / total),
            centroid_angle_deg=float(np.dot(p, angles[m]) / total),
            total_power=total,
        ))
    return clusters, noise
