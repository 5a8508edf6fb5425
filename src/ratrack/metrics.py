"""Scoring of tracker output against simulator ground truth."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tracker import TrackStatus, gated_pairs, polar_to_cartesian


@dataclass(frozen=True)
class TruthEntry:
    target_key: int
    x: float
    y: float
    vx: float
    vy: float


# per sweep_index: list of entries
TruthLog = dict[int, list[TruthEntry]]


@dataclass
class RunReport:
    pos_rmse_m: float = float("nan")
    vel_rmse_mps: float = float("nan")
    id_switch_count: int = 0
    false_track_count: int = 0
    track_fragmentation: int = 0
    mean_confirm_delay_sweeps: float = float("nan")
    empirical_pfa: float | None = None
    latency_ms: dict[str, float] = field(default_factory=dict)
    n_confirmed_tracks: int = 0
    per_track_pos_rmse_m: dict[int, float] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            "run report",
            "----------",
            f"confirmed tracks:        {self.n_confirmed_tracks}",
            f"position RMSE [m]:       {self.pos_rmse_m:.4f}",
            f"velocity RMSE [m/s]:     {self.vel_rmse_mps:.4f}",
            f"ID switches:             {self.id_switch_count}",
            f"false tracks:            {self.false_track_count}",
            f"track fragmentation:     {self.track_fragmentation}",
            f"mean confirm delay [sw]: {self.mean_confirm_delay_sweeps:.2f}",
        ]
        if self.empirical_pfa is not None:
            lines.append(f"empirical pfa:           {self.empirical_pfa:.3e}")
        for name, ms in sorted(self.latency_ms.items()):
            lines.append(f"latency {name} [ms]:".ljust(25) + f"{ms:.2f}")
        for tid, rmse in sorted(self.per_track_pos_rmse_m.items()):
            lines.append(f"  track {tid} pos RMSE [m]: {rmse:.4f}")
        return "\n".join(lines) + "\n"

    def to_csv_line(self) -> str:
        header = (
            "n_confirmed,pos_rmse_m,vel_rmse_mps,id_switches,false_tracks,"
            "fragmentation,mean_confirm_delay,empirical_pfa"
        )
        pfa = "" if self.empirical_pfa is None else f"{self.empirical_pfa:.6e}"
        row = (
            f"{self.n_confirmed_tracks},{self.pos_rmse_m:.6f},"
            f"{self.vel_rmse_mps:.6f},{self.id_switch_count},"
            f"{self.false_track_count},{self.track_fragmentation},"
            f"{self.mean_confirm_delay_sweeps:.4f},{pfa}"
        )
        return header + "\n" + row + "\n"


def match_to_truth(tracks, truths: list[TruthEntry], radius_m: float):
    """Match one sweep's confirmed tracks to its truth entries.

    Returns (track, truth entry, distance_m) for the pairs of least
    total distance among those within radius_m, in track order.
    """
    confirmed = [t for t in tracks if t.status is TrackStatus.CONFIRMED]
    if not confirmed or not truths:
        return []
    track_xy = np.array([t.x[:2] for t in confirmed])
    truth_xy = np.array([(g.x, g.y) for g in truths])
    diff = track_xy[:, None, :] - truth_xy[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    return [
        (confirmed[i], truths[j], float(dist[i, j]))
        for i, j in gated_pairs(dist, radius_m)
    ]


class Scorer:
    """Run report as a fold over the stream of per-sweep results.

    Each sweep's truth is looked up in truth_log when the sweep is
    added, so the log may fill while the run streams (e2e records sweep
    k's truth just before tracking it).  A run scores against truth if
    the log holds anything by the time report() is called.
    """

    def __init__(self, truth_log: TruthLog, radius_m: float):
        self.truth_log = truth_log
        self.radius_m = radius_m
        self.n_detections = 0
        self.n_cells = 0
        self.detect_s: list[float] = []
        self.track_s: list[float] = []
        self.confirm_sweeps: dict[int, int] = {}  # track id -> first sweep
        self.first_detections: dict[int, int] = {}  # target -> first sweep
        self.pos_sq: list[float] = []
        self.vel_sq: list[float] = []
        self.per_track_sq: dict[int, list[float]] = {}
        self.matched_ids: dict[int, list[int]] = {}  # target -> track ids

    def add(self, result) -> None:
        """Fold in one pipeline.SweepResult."""
        k = result.sweep_index
        self.n_detections += result.n_detections
        self.n_cells += result.n_cells
        self.detect_s.append(result.detect_s)
        self.track_s.append(result.track_s)
        for t in result.tracks:
            if t.status is TrackStatus.CONFIRMED:
                self.confirm_sweeps.setdefault(t.id, k)
        truths = self.truth_log.get(k)
        if not truths:
            return
        c = result.clusters
        x, y = polar_to_cartesian(c[:, 0], np.radians(c[:, 1]))
        for g in truths:
            if (g.target_key not in self.first_detections
                    and (np.hypot(x - g.x, y - g.y) <= self.radius_m).any()):
                self.first_detections[g.target_key] = k
        for t, g, _ in match_to_truth(result.tracks, truths, self.radius_m):
            tx, ty, tvx, tvy = (float(v) for v in t.x)
            e2 = (tx - g.x) ** 2 + (ty - g.y) ** 2
            self.pos_sq.append(e2)
            self.vel_sq.append((tvx - g.vx) ** 2 + (tvy - g.vy) ** 2)
            self.per_track_sq.setdefault(t.id, []).append(e2)
            self.matched_ids.setdefault(g.target_key, []).append(t.id)

    def report(self) -> RunReport:
        """RMSE, identity, lifecycle, false-alarm and latency summary."""
        report = RunReport(n_confirmed_tracks=len(self.confirm_sweeps))
        if self.truth_log:
            self._score_truth(report)
        if self.n_cells:
            report.empirical_pfa = self.n_detections / self.n_cells
        if self.detect_s:
            detect, track = np.asarray(self.detect_s), np.asarray(self.track_s)
            report.latency_ms = {
                "detect_median": 1e3 * float(np.median(detect)),
                "detect_max": 1e3 * float(np.max(detect)),
                "track_median": 1e3 * float(np.median(track)),
                "track_max": 1e3 * float(np.max(track)),
                "sweep_median": 1e3 * float(np.median(detect + track)),
            }
        return report

    def _score_truth(self, report: RunReport) -> None:
        if self.pos_sq:
            report.pos_rmse_m = float(np.sqrt(np.mean(self.pos_sq)))
            report.vel_rmse_mps = float(np.sqrt(np.mean(self.vel_sq)))
            report.per_track_pos_rmse_m = {
                tid: float(np.sqrt(np.mean(v)))
                for tid, v in self.per_track_sq.items()
            }
        delays = []
        for key, ids in self.matched_ids.items():
            report.id_switch_count += sum(
                1 for a, b in zip(ids, ids[1:]) if a != b
            )
            report.track_fragmentation += len(set(ids)) - 1
            first_det = self.first_detections.get(key)
            confirmed_at = self.confirm_sweeps.get(ids[0])
            if first_det is not None and confirmed_at is not None:
                delays.append(confirmed_at - first_det)
        if delays:
            report.mean_confirm_delay_sweeps = float(np.mean(delays))
        report.false_track_count = len(
            self.confirm_sweeps.keys() - self.per_track_sq.keys()
        )
