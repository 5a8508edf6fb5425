"""End-to-end orchestration: simulate sweeps, detect, track, score.

run_tracking yields one SweepResult per input sweep; the CSV row
serializers below and metrics.Scorer are its consumers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .channel import advance
from .config import PipelineConfig
from .detector import MtiFilter, ca_cfar, cluster_detections
from .errors import ConfigError
from .metrics import RunReport, Scorer, TruthEntry, TruthLog
from .receiver import RaTensor, sweep, sweep_pool
from .tracker import Tracker, TrackState

FLOAT_FMT = "%.9g"

DETECTIONS_HEADER = "sweep_index,range_m,angle_deg,power,cluster_id"
TRACKS_HEADER = (
    "sweep_index,t_s,track_id,status,x,y,vx,vy,pos_std_x,pos_std_y"
)
TRUTH_HEADER = "sweep_index,target_key,x,y,vx,vy"


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep produced, in the order the stages ran."""

    sweep_index: int
    t_start_s: float
    # float64 (k, 3): one (range_m, angle_deg, total_power) row per
    # DBSCAN cluster, in cluster_id order
    clusters: np.ndarray
    # Tracker.step records: live tracks, then tracks that died this
    # sweep (emitted once with status DEAD)
    tracks: tuple[TrackState, ...]
    n_cells: int  # cells CFAR tested; 0 during the MTI warm-up
    n_detections: int
    detect_s: float  # MTI + CFAR + DBSCAN
    track_s: float


def simulate_sweeps(
    cfg: PipelineConfig,
) -> Iterator[tuple[RaTensor, list[TruthEntry]]]:
    """Yield (tensor, frozen truth) per sweep, advancing the scene
    between; one sweep pool serves the run until the stream closes."""
    scene = cfg.scene
    with sweep_pool(cfg.codebook) as pool:
        for k in range(cfg.run.n_sweeps):
            truth = [TruthEntry(i, *t.pos, *t.vel)
                     for i, t in enumerate(scene.targets)]
            tensor = sweep(
                scene, cfg.codebook, cfg.waveform,
                sweep_index=k, n_range=cfg.run.n_range, pool=pool,
            )
            yield tensor, truth
            scene = advance(scene, scene.sweep_period_s)


def run_tracking(
    tensors: Iterable[RaTensor], cfg: PipelineConfig
) -> Iterator[SweepResult]:
    """Stream tensors through MTI -> CFAR -> DBSCAN -> tracker.

    Yields each sweep's result as soon as that sweep is tracked.
    """
    mti = MtiFilter()
    tracker = Tracker(cfg.tracker)
    for tensor in tensors:
        t0 = time.perf_counter()
        filtered, warm_up = mti.apply(tensor)
        if warm_up:
            clusters, n_cells, n_detections = np.empty((0, 3)), 0, 0
        else:
            hits = ca_cfar(filtered, cfg.cfar)
            n_cells, n_detections = filtered.power.size, len(hits)
            clusters, _noise = cluster_detections(hits, cfg.dbscan, filtered)
        t1 = time.perf_counter()
        tracks = tracker.step(
            np.column_stack((clusters[:, 0], np.radians(clusters[:, 1]))),
            tensor.t_start_s,
        )
        t2 = time.perf_counter()
        yield SweepResult(
            sweep_index=tensor.sweep_index,
            t_start_s=tensor.t_start_s,
            clusters=clusters,
            tracks=tuple(tracks),
            n_cells=n_cells,
            n_detections=n_detections,
            detect_s=t1 - t0,
            track_s=t2 - t1,
        )


def build_report(scorer: Scorer) -> RunReport:
    """The run report, built once after the sweep stream has ended."""
    return scorer.report()


# -- CSV rows: each serializer returns newline-terminated lines ----------

_DETECTION_FLOATS_FMT = ",".join([FLOAT_FMT] * 3)
_TRACK_FLOATS_FMT = ",".join([FLOAT_FMT] * 6)


def detection_rows(result: SweepResult) -> str:
    k = result.sweep_index
    return "".join(
        f"{k},{_DETECTION_FLOATS_FMT % tuple(row)},{cid}\n"
        for cid, row in enumerate(result.clusters.tolist())
    )


def track_rows(result: SweepResult) -> str:
    head = f"{result.sweep_index},{FLOAT_FMT % result.t_start_s},"
    return "".join(
        f"{head}{t.id},{t.status.value},"
        + _TRACK_FLOATS_FMT % (
            *t.x, math.sqrt(t.P[0, 0]), math.sqrt(t.P[1, 1])
        )
        + "\n"
        for t in result.tracks
    )


def truth_rows(sweep_index: int, truths: list[TruthEntry]) -> str:
    return "".join(
        f"{sweep_index},{g.target_key},{FLOAT_FMT % g.x},{FLOAT_FMT % g.y},"
        f"{FLOAT_FMT % g.vx},{FLOAT_FMT % g.vy}\n"
        for g in truths
    )


def read_truth(path: str | Path) -> TruthLog:
    """Parse a truth CSV as written by simulate or e2e.

    A row with the wrong field count, a non-numeric value or a
    non-finite coordinate is a ConfigError naming the file and line; an
    unreadable file raises OSError.
    """
    log: TruthLog = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line == TRUTH_HEADER:
                continue
            fields = line.split(",")
            try:
                k, key = int(fields[0]), int(fields[1])
                x, y, vx, vy = (float(v) for v in fields[2:])
            except (ValueError, IndexError):
                raise ConfigError(
                    f"{path}:{lineno}: expected {TRUTH_HEADER} with numeric"
                    f" values, got {line!r}"
                )
            if not all(map(math.isfinite, (x, y, vx, vy))):
                raise ConfigError(
                    f"{path}:{lineno}: non-finite value in {line!r}"
                )
            log.setdefault(k, []).append(
                TruthEntry(target_key=key, x=x, y=y, vx=vx, vy=vy)
            )
    return log
