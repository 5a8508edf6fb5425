"""One benchmark run of one workload, in this process.

``run.py`` starts this script in a child process with thread counts
pinned and ``src`` on the import path.  The script sets up the
workload's inputs from the seed, runs the workload's ``ratrack``
commands through ``ratrack.cli.main`` in rounds until the time is used
up, checks every round's outputs, and writes one JSON record (metrics
plus details) to ``--result``.

- Set-up is the import of ratrack (timed ``IMPORT_REPEATS`` times in
  fresh interpreters) plus config load and input generation/writing
  (done ``SETUP_REPEATS`` times); the two medians are added.
- A round is one invocation of the workload's command(s) on the same
  input.  A new round starts only if the previous round's length
  still fits in ``--seconds``; at least one round always runs.
- With ``--trace 0`` a fixed reference kernel is timed through the run,
  and the timings are reported at the reference host speed (see
  ``HostSpeed``).
- With ``--trace 1`` layer spans are recorded on odd sweeps, and the
  untraced even sweeps around each give the reference for the trace
  check and the tracing overhead (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import yaml

import ratrack.cli
import ratrack.config
import ratrack.pipeline
import ratrack.tensorfile
from ratrack.receiver import RaTensor

from run import THREAD_VARS
from spans import SweepClock, Tracer

IMPORT_REPEATS = 5
SETUP_REPEATS = 3
# what a user of the CLI imports; timed in fresh interpreters
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ratrack.cli; "
    "print(time.perf_counter() - t)"
)
SWEEP_PERIOD_S = 0.2  # SceneConfig default; the synthetic files use it too
PAPER_BIN_M = 299_792_458.0 / (2.0 * 120e3 * 4096)  # paper range bin
CONSISTENCY_TOL = 0.05  # traced layer sum vs untraced sweep time
# the reference host speed: the one at which HostSpeed.kernel takes this
REFERENCE_KERNEL_S = 0.030
CALIBRATE_EVERY_S = 1.0

# tracking config shared by every workload: that of the paper scenario
TRACKER = {"q_accel": 0.1}


@dataclass(frozen=True)
class Target:
    """Planted point target moving radially at a fixed bearing."""

    range_m: float
    bearing_deg: float
    speed_mps: float  # radial, positive outward

    def at(self, k: int) -> tuple[float, float, float, float]:
        """(x, y, vx, vy) at sweep k, in the ratrack sensor frame."""
        r = self.range_m + self.speed_mps * SWEEP_PERIOD_S * k
        s, c = math.sin(math.radians(self.bearing_deg)), math.cos(
            math.radians(self.bearing_deg))
        return r * s, r * c, self.speed_mps * s, self.speed_mps * c


@dataclass(frozen=True)
class Spec:
    """One workload: ``simulate`` runs the simulator on ``sim_doc``;
    ``replay`` tracks a tensor file generated by ``synthetic_sweeps``."""

    kind: str  # "simulate" or "replay"
    n_sweeps: int
    n_range: int = 512
    span_deg: float = 50.0
    pfa: float | None = 1e-6  # None: the CfarConfig default (1e-3)
    # sweep_ms_tail: the highest of p50/p75/p90/p95 with at least 10
    # sweeps beyond it in a run of BENCHMARK.json's run_seconds; fixed
    # per workload so that it does not jump with the round count
    tail_pct: float = 50.0
    targets: tuple[Target, ...] = ()
    target_amplitude: float = 0.0
    leakage_amplitude: float = 0.0
    sim_doc: dict = field(default_factory=dict)

    @property
    def n_targets(self) -> int:
        return len(self.targets) or len(
            self.sim_doc.get("scene", {}).get("targets", ()))


# Paper scenario (acceptance criterion 6): 21 x 21 beam pairs, 3300
# subcarriers, 7 symbols, 512 range bins, noise 400, 2 targets, pfa 1e-6.
PAPER_SIM_DOC = {
    "waveform": {"n_symbols": 7},
    "codebook": {"span_deg": 50.0, "step_deg": 5.0},
    "scene": {
        "targets": [
            {"pos": [-3.0, 8.0], "vel": [0.3, 1.3]},
            {"pos": [5.0, 20.0], "vel": [-0.3, -1.3]},
        ],
        "leakage_amplitude": 30.0,
        "leakage_range_m": 0.5,
        "noise_power": 400.0,
    },
    "cfar": {"pfa": 1e-6},
    "tracker": TRACKER,
}

# Two targets at the bearings and ranges of the paper scenario, peak
# post-MTI SNR about 24 dB (amplitude 11; the mean post-MTI power of unit
# exponential noise is 2 - pi/2 = 0.43), inside the 15-28 dB band that
# acceptance criterion 6 asserts.  Each moves just over one range bin
# per sweep, so the two-tap MTI keeps it.
PLANTED = (
    Target(range_m=8.0, bearing_deg=-20.6, speed_mps=1.6),
    Target(range_m=24.0, bearing_deg=14.0, speed_mps=-1.6),
)
PLANTED_AMPLITUDE = 11.0

WORKLOADS = {
    "paper-sim": Spec(kind="simulate", n_sweeps=10, sim_doc=PAPER_SIM_DOC),
    "replay-paper": Spec(
        kind="replay", n_sweeps=50, targets=PLANTED,
        target_amplitude=PLANTED_AMPLITUDE, leakage_amplitude=30.0,
        tail_pct=95.0,
    ),
    "clutter-stress": Spec(kind="replay", n_sweeps=20, pfa=None,
                           tail_pct=75.0),
}

# Small variants for the harness self-test (selftest.py): 11 x 11 beams.
TINY = {
    "paper-sim": Spec(
        kind="simulate", n_sweeps=6, sim_doc={
            **PAPER_SIM_DOC,
            "codebook": {"span_deg": 25.0, "step_deg": 5.0},
            "run": {"n_range": 128},
        }),
    "replay-paper": Spec(
        kind="replay", n_sweeps=12, n_range=128, span_deg=25.0,
        targets=PLANTED, target_amplitude=PLANTED_AMPLITUDE,
        leakage_amplitude=30.0,
    ),
    "clutter-stress": Spec(
        kind="replay", n_sweeps=6, n_range=128, span_deg=25.0, pfa=None),
}


# -- inputs -----------------------------------------------------------------

def _array_factor(steer_deg: np.ndarray, bearing_deg: float) -> np.ndarray:
    """8-element half-wavelength ULA gain of each steering angle."""
    u = np.sin(np.radians(bearing_deg)) - np.sin(np.radians(steer_deg))
    m = np.arange(8)
    return np.exp(1j * np.pi * np.outer(u, m)).mean(axis=1)


def beam_angles(spec: Spec) -> tuple[float, ...]:
    return tuple(np.arange(-spec.span_deg, spec.span_deg + 2.5, 5.0))


def synthetic_sweeps(spec: Spec, seed: int):
    """Yield (power tensor, truth CSV rows) per sweep of a replay file.

    Each cell is |s + w|^2 with w unit complex Gaussian noise, so
    noise-only cells are unit exponential.  s holds a static leakage
    ridge at 0.5 m (cancelled by MTI) and the planted targets, each a
    sinc range response at its fractional bin times the tx and rx
    array gains at its bearing.
    """
    rng = np.random.default_rng(seed)
    angles = np.array(beam_angles(spec))
    shape = (spec.n_range, len(angles), len(angles))
    bins = np.arange(spec.n_range, dtype=float)
    static = np.zeros(shape, dtype=np.complex128)
    static += (spec.leakage_amplitude
               * np.sinc(bins - 0.5 / PAPER_BIN_M))[:, None, None]
    gains = [_array_factor(angles, t.bearing_deg) for t in spec.targets]
    for k in range(spec.n_sweeps):
        s = static.copy()
        truth = []
        for key, (t, g) in enumerate(zip(spec.targets, gains)):
            x, y, vx, vy = t.at(k)
            profile = spec.target_amplitude * np.sinc(
                bins - math.hypot(x, y) / PAPER_BIN_M)
            s += profile[:, None, None] * np.multiply.outer(g, g)[None]
            truth.append(f"{k},{key},{x!r},{y!r},{vx!r},{vy!r}")
        w = rng.standard_normal(shape + (2,)).view(np.complex128)[..., 0]
        w *= math.sqrt(0.5)
        yield np.abs(s + w).astype(np.float32) ** 2, truth


class HostSpeed:
    """Host speed through one run, from timings of a reference kernel.

    The benchmark shares a 2-vCPU host whose speed shifts by 20-40% for
    minutes at a time; the same sweep took 0.79 s in one run and 1.32 s
    in another.  The sweep clocks time the kernel at most every
    CALIBRATE_EVERY_S of the timed part, outside every timed interval,
    and ``factor`` scales a time measured in the run to the reference
    host speed.  Over two sets of 10 runs per workload, scaling cut the
    widest spread of a timing between runs from 16% to 12.5%.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = -math.inf
        # the kernel allocates no arrays, so that its time does not
        # depend on the heap the workload leaves behind; they add 3 MB
        # to the peak RSS
        self.x = np.empty(1 << 16)
        self.sorted = np.empty_like(self.x)
        self.z = np.empty(1 << 16, dtype=np.complex128)
        self.spectrum = np.empty_like(self.z)

    def kernel(self) -> None:
        """Fixed work that runs no ratrack code: numpy random draws,
        complex exponentials, an FFT and a sort, then a pure-Python dict
        loop, about the mix of the simulator and detect+track."""
        np.random.default_rng(0).standard_normal(out=self.x)
        np.multiply(1j, self.x, out=self.z)
        np.exp(self.z, out=self.z)
        np.fft.ifft(self.z, out=self.spectrum)
        np.copyto(self.sorted, self.x)
        self.sorted.sort()
        acc: dict[int, float] = {}
        for i in range(80_000):
            acc[i % 997] = acc.get(i % 997, 0.0) + i * 0.5

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)
        self.spent += self.last - t0

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.sample()

    def factor(self) -> float:
        return REFERENCE_KERNEL_S / median(self.samples)


def import_seconds() -> float:
    """Median time to import ratrack.cli in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        times.append(float(out.stdout))
    return median(times)


def write_inputs(spec: Spec, seed: int, work: Path, tracer: Tracer) -> None:
    """Write config.yaml (and for replay specs tensors.ratn, truth.csv)."""
    work.mkdir(parents=True, exist_ok=True)
    if spec.kind == "simulate":
        sub = np.random.SeedSequence(seed).generate_state(2)
        doc = json.loads(json.dumps(spec.sim_doc))
        doc["waveform"]["seed"] = int(sub[0])
        doc["scene"]["seed"] = int(sub[1])
        doc.setdefault("run", {})["n_sweeps"] = spec.n_sweeps
    else:
        doc = {"tracker": TRACKER, "run": {"n_sweeps": spec.n_sweeps}}
        if spec.pfa is not None:
            doc["cfar"] = {"pfa": spec.pfa}
    (work / "config.yaml").write_text(yaml.safe_dump(doc))
    ratrack.config.load(work / "config.yaml")
    if spec.kind == "simulate":
        return
    rows = ["sweep_index,target_key,x,y,vx,vy"]
    angles = beam_angles(spec)
    with open(work / "tensors.ratn", "wb") as fh:
        writer = ratrack.tensorfile.TensorWriter(
            fh, spec.n_range, angles, angles, PAPER_BIN_M)
        for k, (power, truth) in enumerate(synthetic_sweeps(spec, seed)):
            tracer.sweep = k
            writer.write(RaTensor(
                power=power, tx_angles_deg=angles, rx_angles_deg=angles,
                sweep_index=k, t_start_s=k * SWEEP_PERIOD_S,
                bin_size_m=PAPER_BIN_M,
            ))
            rows.extend(truth)
    tracer.sweep = None
    if spec.targets:
        (work / "truth.csv").write_text("\n".join(rows) + "\n")


# -- tracing ----------------------------------------------------------------

# (attribute the pipeline calls, span name, counter hook name, per sweep)
LAYERS = (
    ("ratrack.cli.main", "cli.main", None, False),
    ("ratrack.pipeline.build_report", "metrics.score", None, False),
    ("ratrack.pipeline.sweep", "receiver.sweep", None, True),
    ("ratrack.receiver.build_grid", "waveform.build_grid", None, True),
    ("ratrack.receiver.propagate", "channel.propagate", None, True),
    ("ratrack.receiver.channel_response", "channel.channel_response", None,
     True),
    ("ratrack.channel.channel_response", "channel.channel_response", None,
     True),
    ("ratrack.receiver.estimate_channel", "receiver.estimate_channel", None,
     True),
    ("ratrack.receiver.range_profile", "receiver.range_profile", None, True),
    ("ratrack.tensorfile.TensorWriter.write", "tensorfile.write", None, True),
    ("ratrack.detector.MtiFilter.apply", "detector.mti", None, True),
    ("ratrack.pipeline.ca_cfar", "detector.cfar", "_on_cfar", True),
    ("ratrack.pipeline.cluster_detections", "detector.cluster_detections",
     "_on_clusters", True),
    ("ratrack.detector.dbscan", "detector.dbscan", "_on_dbscan", True),
    ("ratrack.detector.make_cluster", "detector.make_cluster", None, True),
    ("ratrack.tracker.Tracker.step", "tracker.step", "_on_step", True),
    ("ratrack.tracker.ekf_predict", "tracker.ekf_predict", None, True),
    ("ratrack.tracker.associate", "tracker.associate", "_on_associate", True),
    ("ratrack.tracker.ekf_update", "tracker.ekf_update", None, True),
)


class Probe:
    """Sweep clocks (always) and layer spans (``--trace 1`` only)."""

    def __init__(self, traced: bool, pause=None):
        self.tracer = t = Tracer()
        self.sim_clocks: list[SweepClock] = []
        self.track_clocks: list[SweepClock] = []
        self.confirmed_ids: set[tuple[int, int]] = set()

        def clocked_tracking(orig):
            def run_tracking(tensors, cfg):
                clock = SweepClock(t, "tensorfile.read", "pipeline.sweep",
                                   pause)
                self.track_clocks.append(clock)
                return orig(clock.wrap(tensors), cfg)
            return t.wrap("pipeline.run_tracking", run_tracking,
                          per_sweep=False)

        def clocked_simulation(orig):
            def simulate_sweeps(cfg):
                clock = SweepClock(
                    t, "pipeline.simulate_sweeps", "cli.simulate_loop", pause)
                self.sim_clocks.append(clock)
                return clock.wrap(orig(cfg))
            return simulate_sweeps

        t.replace("ratrack.pipeline.run_tracking", clocked_tracking)
        t.replace("ratrack.pipeline.simulate_sweeps", clocked_simulation)
        if traced:
            for target, name, hook, per_sweep in LAYERS:
                t.patch(target, name, hook and getattr(self, hook), per_sweep)

    @staticmethod
    def _on_cfar(t, args, out):
        t.count("detector.cfar.cells", args[0].power.size)
        t.count("detector.cfar.detections", len(out))

    @staticmethod
    def _on_clusters(t, args, out):
        t.count("pipeline.clusters", len(out[0]))

    @staticmethod
    def _on_dbscan(t, args, out):
        t.count("detector.dbscan.points", len(args[0]))
        t.count("detector.dbscan.clusters", len(out[0]))
        t.count("detector.dbscan.noise_points", len(out[1]))

    @staticmethod
    def _on_associate(t, args, out):
        t.count("tracker.measurements", len(args[1]))
        t.count("tracker.matched", len(out[0]))

    def _on_step(self, t, args, out):
        """Lifecycle counts from the snapshots Tracker.step returns: a
        track spawned this sweep has age 1; a dead one is emitted once."""
        t.count("pipeline.snapshots", len(out))
        for snap in out:
            status = snap.status.value
            if status == "dead":
                t.count("tracker.deleted")
                continue
            t.count("tracker.tracks_live")
            if snap.age == 1:
                t.count("tracker.spawned")
            if status == "confirmed":
                self.confirmed_ids.add((id(args[0]), snap.id))

    def start_round(self) -> None:
        self.tracer.stack.clear()
        self.tracer.sweep = None
        self.tracer.sweep_on = True
        self.sim_clocks.clear()
        self.track_clocks.clear()
        self.confirmed_ids.clear()


# -- checks -----------------------------------------------------------------

DET_COLS = ("sweep_index", "range_m", "angle_deg", "power", "cluster_id")
TRK_COLS = ("sweep_index", "t_s", "track_id", "status", "x", "y", "vx", "vy",
            "pos_std_x", "pos_std_y")
STATUSES = {"tentative", "confirmed", "dead"}


def parse_csv(path: Path, cols: tuple[str, ...], errors: list[str]):
    """Rows of an output CSV as dicts.  Missing columns, unparsable or
    non-finite numbers and unknown track statuses are errors."""
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = set(cols) - set(reader.fieldnames or ())
            if missing:
                errors.append(f"{path.name}: missing columns {sorted(missing)}")
                return rows
            for line, raw in enumerate(reader, start=2):
                row = {}
                for c in cols:
                    if c == "status":
                        if raw[c] not in STATUSES:
                            errors.append(f"{path.name}:{line} status {raw[c]!r}")
                        row[c] = raw[c]
                        continue
                    row[c] = float(raw[c])
                    if not math.isfinite(row[c]):
                        errors.append(f"{path.name}:{line} {c}={raw[c]}")
                rows.append(row)
    except (OSError, ValueError, TypeError) as exc:
        errors.append(f"{path.name}: {exc}")
    return rows


def read_summary(path: Path, errors: list[str]) -> dict[str, float]:
    try:
        with open(path, newline="") as fh:
            row = next(csv.DictReader(fh))
        return {k: float(v) if v else math.nan for k, v in row.items()}
    except (OSError, StopIteration, ValueError) as exc:
        errors.append(f"{path.name}: {exc}")
        return {}


def sha256(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return ""


def rows_per_sweep(rows) -> dict[int, int]:
    out: dict[int, int] = {}
    for r in rows:
        out[int(r["sweep_index"])] = out.get(int(r["sweep_index"]), 0) + 1
    return out


def check_round(spec: Spec, out: Path, traced_counts, errors, misses):
    """Check one round's outputs.

    ``errors`` get malformed or inconsistent output: unparsable or
    non-finite CSV values, and CSV row counts that disagree with the
    clusters and track snapshots counted on traced sweeps.  ``misses``
    get tracking outcomes the workload should reach and did not: every
    target confirmed by exactly one track, with no ID switch, no
    fragmentation and no false track (the acceptance criterion 6
    outcome).  Returns the output digests and the report row.
    """
    dets = parse_csv(out / "detections.csv", DET_COLS, errors)
    trks = parse_csv(out / "tracks.csv", TRK_COLS, errors)
    summary = read_summary(out / "report_summary.csv", errors)
    if spec.n_targets:
        want = {"n_confirmed": spec.n_targets, "false_tracks": 0,
                "id_switches": 0, "fragmentation": 0}
        for key, value in want.items():
            if summary.get(key) != value:
                misses.append(
                    f"report {key}={summary.get(key)}, expected {value}")
        rmse = summary.get("pos_rmse_m", math.nan)
        if not math.isfinite(rmse):
            misses.append(f"report pos_rmse_m={rmse}")
    if traced_counts is not None:
        clusters, snapshots = traced_counts
        got = rows_per_sweep(dets)
        if any(got.get(k, 0) != n for k, n in clusters.items()):
            errors.append("detections.csv rows disagree with traced clusters")
        got = rows_per_sweep(trks)
        if any(got.get(k, 0) != n for k, n in snapshots.items()):
            errors.append("tracks.csv rows disagree with traced tracker output")
    return {
        "detections_sha256": sha256(out / "detections.csv"),
        "tracks_sha256": sha256(out / "tracks.csv"),
        "summary": summary,
    }


# -- aggregation ------------------------------------------------------------

def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(samples: list[float], p: float) -> tuple[float, int]:
    """(value, samples beyond it) of the p-th percentile."""
    return (float(np.percentile(samples, p)),
            int(len(samples) * (1.0 - p / 100.0)))


class LayerStats:
    """Per-layer samples gathered over the traced sweeps of all rounds."""

    def __init__(self):
        self.sweep: dict[str, list[list[float]]] = {}  # name -> [[ms, self, calls]]
        self.run: dict[str, list[list[float]]] = {}  # name -> per-round totals
        self.counts: dict[str, list[float]] = {}  # counter -> nonzero values
        self.n_counted = 0  # traced sweeps whose counters were folded in

    def add(self, tracer: Tracer, sweeps: list[int],
            counted: bool = True) -> dict[int, float]:
        """Fold in the spans recorded so far, keeping the given sweeps and
        per-run spans, and, if ``counted``, the sweeps' counters.  Returns
        sweep -> summed self ms of all its spans."""
        keep = set(sweeps)
        layer_sum: dict[int, float] = {}
        for name, by_sweep in tracer.per_sweep().items():
            for k, acc in by_sweep.items():
                if k is None:
                    self.run.setdefault(name, []).append(acc)
                elif k in keep:
                    self.sweep.setdefault(name, []).append(acc)
                    layer_sum[k] = layer_sum.get(k, 0.0) + acc[1]
        if counted:
            for c in {c for c, _ in tracer.counts}:
                self.counts.setdefault(c, []).extend(
                    v for k in sweeps if (v := tracer.counts.get((c, k), 0)))
            self.n_counted += len(sweeps)
        tracer.spans.clear()
        tracer.counts.clear()
        return layer_sum

    def ms(self, name: str, col: int = 0) -> float:
        """Median per sweep over the traced sweeps in which it ran."""
        return median(acc[col] for acc in self.sweep.get(name, ()))

    def per_run(self, name: str, col: int = 0) -> float:
        return median(acc[col] for acc in self.run.get(name, ()))

    def count(self, name: str) -> float:
        """Median per traced sweep, a sweep without the counter being 0."""
        values = self.counts.get(name, [])
        return median(values + [0.0] * (self.n_counted - len(values)))

    def total(self, name: str) -> float:
        return float(sum(self.counts.get(name, ())))


def layer_metrics(st: LayerStats, bytes_per_sweep: float,
                  confirmed_per_run: float) -> dict[str, float]:
    read_ms = st.ms("tensorfile.read")
    cells = st.total("detector.cfar.cells")
    points = st.total("detector.dbscan.points")
    measured = st.total("tracker.measurements")
    return {
        "waveform.build_grid.ms": st.ms("waveform.build_grid"),
        "channel.channel_response.ms": st.ms("channel.channel_response"),
        "channel.channel_response.calls": st.ms("channel.channel_response", 2),
        "channel.propagate.self_ms": st.ms("channel.propagate", 1),
        "channel.propagate.calls": st.ms("channel.propagate", 2),
        "receiver.estimate_channel.ms": st.ms("receiver.estimate_channel"),
        "receiver.range_profile.ms": st.ms("receiver.range_profile"),
        "receiver.range_profile.calls": st.ms("receiver.range_profile", 2),
        "receiver.sweep.ms": st.ms("receiver.sweep"),
        "receiver.sweep.self_ms": st.ms("receiver.sweep", 1),
        "tensorfile.write.ms": st.ms("tensorfile.write"),
        "tensorfile.read.ms": read_ms,
        "tensorfile.read.mb_per_s": (
            bytes_per_sweep / 1e3 / read_ms if read_ms else 0.0),
        "tensorfile.bytes_per_sweep": bytes_per_sweep,
        "detector.mti.ms": st.ms("detector.mti"),
        "detector.cfar.ms": st.ms("detector.cfar"),
        "detector.cfar.cells": st.count("detector.cfar.cells"),
        "detector.cfar.detections": st.count("detector.cfar.detections"),
        "detector.cfar.realized_pfa": (
            st.total("detector.cfar.detections") / cells if cells else 0.0),
        "detector.dbscan.ms": st.ms("detector.dbscan"),
        "detector.dbscan.clusters": st.count("detector.dbscan.clusters"),
        "detector.dbscan.noise_points": st.count("detector.dbscan.noise_points"),
        "detector.dbscan.clustered_frac": (
            1.0 - st.total("detector.dbscan.noise_points") / points
            if points else 0.0),
        "detector.make_cluster.ms": st.ms("detector.make_cluster"),
        "tracker.step.ms": st.ms("tracker.step"),
        "tracker.step.self_ms": st.ms("tracker.step", 1),
        "tracker.ekf_predict.ms": st.ms("tracker.ekf_predict"),
        "tracker.ekf_predict.calls": st.ms("tracker.ekf_predict", 2),
        "tracker.associate.ms": st.ms("tracker.associate"),
        "tracker.associate.calls": st.ms("tracker.associate", 2),
        "tracker.ekf_update.ms": st.ms("tracker.ekf_update"),
        "tracker.ekf_update.calls": st.ms("tracker.ekf_update", 2),
        "tracker.tracks_live": st.count("tracker.tracks_live"),
        "tracker.spawned": st.count("tracker.spawned"),
        "tracker.confirmed": confirmed_per_run,
        "tracker.deleted": st.count("tracker.deleted"),
        "tracker.matched_frac": (
            st.total("tracker.matched") / measured if measured else 0.0),
        "pipeline.run_tracking.self_ms": st.ms("pipeline.sweep", 1),
        "metrics.score.ms": st.per_run("metrics.score"),
        "cli.self_ms": st.per_run("cli.main", 1),
    }


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("bytes_per_sweep"):
        return "bytes"
    if name.endswith(("_frac", "_pfa", "_ratio")):
        return "ratio"
    return "count"


def trace_consistency(rounds: list[dict]) -> dict:
    """Compare each traced sweep's summed layer self times with the
    untraced sweeps on either side of it in the same round.

    The check passes unless the median ratio is off by more than
    CONSISTENCY_TOL beyond two standard errors: sweep times on a shared
    machine scatter by several percent, so a median of a few dozen
    ratios is not exact.  Sweeps 0 and 1 are left out: sweep 0 is the
    MTI warm-up, cheaper than the rest, and sweep 1's only earlier
    neighbour is sweep 0.
    """
    ratios, traced, plain = [], [], []
    for r in rounds:
        total = r["sweep_total_ms"]
        for k, ms in total.items():
            if k < 2:
                continue
            if k in r["layer_sum_ms"]:
                traced.append(ms)
                near = [total[j] for j in (k - 1, k + 1) if j in total]
                ratios.append(r["layer_sum_ms"][k] / (sum(near) / len(near)))
            else:
                plain.append(ms)
    ratio = median(ratios)
    stderr = math.inf
    if len(ratios) >= 4:
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        # standard error of a median, with sigma estimated from the IQR
        stderr = 1.2533 * (q3 - q1) / 1.349 / math.sqrt(len(ratios))
    base = median(plain)
    return {
        "layer_sum_ratio": ratio,
        "layer_sum_ratio_stderr": stderr,
        "traced_sweeps": len(ratios),
        "consistent": abs(ratio - 1.0) - 2.0 * stderr <= CONSISTENCY_TOL,
        "overhead_ratio": median(traced) / base if base else 0.0,
        "base_untraced_sweep_ms": base,
        "base_untraced_sweeps": len(plain),
    }


# -- run --------------------------------------------------------------------

def run(args) -> dict:
    spec = (TINY if args.tiny else WORKLOADS)[args.workload]
    work = Path(args.work)
    traced = bool(args.trace)
    host = None if traced else HostSpeed()
    probe = Probe(traced, host and host.sample_if_due)
    tracer = probe.tracer
    stats = LayerStats()
    spans: list[dict] = []  # every traced round's spans, written at the end

    # set-up, repeated; in a traced run it also times tensorfile.write
    tracer.active = traced
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        write_inputs(spec, args.seed, work / "in", tracer)
        setup_times.append(time.perf_counter() - t0)
    stats.add(tracer, list(range(spec.n_sweeps)), counted=False)
    import_s = import_seconds() if host else 0.0

    cfg = str(work / "in" / "config.yaml")
    out = work / "out"
    commands = []
    if spec.kind == "simulate":
        commands.append(["simulate", "--config", cfg, "--out", str(out)])
        tensors, truth = out / "tensors.ratn", out / "truth.csv"
    else:
        tensors, truth = work / "in" / "tensors.ratn", work / "in" / "truth.csv"
    track = ["track", "--tensors", str(tensors), "--config", cfg,
             "--out", str(out)]
    commands.append(track + (["--truth", str(truth)] if spec.n_targets else []))

    rounds: list[dict] = []
    used = last = 0.0
    if host:
        host.sample()  # a factor even if no command reaches a sweep
    while not rounds or used + last <= args.seconds:
        probe.start_round()
        errors: list[str] = []
        misses: list[str] = []
        crashed = ""
        t0 = time.perf_counter()
        spent = host.spent if host else 0.0
        for argv in commands:
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stderr(stderr):
                    rc = ratrack.cli.main(argv)
            except Exception as exc:  # a crash fails the round, not the run
                rc = repr(exc)
            if rc != 0:
                crashed = (f"{argv[0]} ended with {rc}: "
                           f"{stderr.getvalue().strip()[-300:]}")
                break
        last = time.perf_counter() - t0
        used += last
        # the sweep clocks' kernel timings are not the workload's time
        spent = host.spent - spent if host else 0.0

        clocks = probe.sim_clocks[-1:] + probe.track_clocks[-1:]
        sweep_total: dict[int, float] = {}
        for clock in clocks:
            for k, ms in enumerate(clock.total_ms()):
                sweep_total[k] = sweep_total.get(k, 0.0) + ms
        ids = probe.track_clocks[-1].sweep_ids if probe.track_clocks else []
        traced_sweeps = list(range(1, len(ids), 2)) if traced else []
        counts = None
        layer_sum: dict[int, float] = {}
        if traced and not crashed:
            counts = tuple(
                {ids[k]: tracer.counts.get((name, k), 0) for k in traced_sweeps}
                for name in ("pipeline.clusters", "pipeline.snapshots"))
            spans.extend(
                {"round": len(rounds), "name": name, "start": start,
                 "end": end, "parent": parent, "sweep": sweep}
                for name, start, end, parent, sweep in tracer.spans)
            layer_sum = stats.add(tracer, traced_sweeps)
        # a crashed round leaves spans open: its trace is dropped
        tracer.spans.clear()
        tracer.counts.clear()
        rounds.append({
            "seconds": last - spent,
            "sweeps": len(ids),
            "sweep_total_ms": sweep_total,
            "layer_sum_ms": layer_sum,
            "confirmed": len(probe.confirmed_ids),
            "crashed": crashed,
            "errors": errors,
            "misses": misses,
        })
        if not crashed:
            rounds[-1].update(check_round(spec, out, counts, errors, misses))

    # every round replays the same input, so its outputs must not change
    digests = {(r["detections_sha256"], r["tracks_sha256"])
               for r in rounds if "detections_sha256" in r}
    if len(digests) > 1:
        for r in rounds:
            r["errors"].append("outputs differ between rounds")
    # a command that ends non-zero or raises is a failed operation; wrong
    # output (an error) makes the whole result incorrect
    failed = sum(1 for r in rounds if r["crashed"] or r["errors"] or r["misses"])
    correct = not any(r["errors"] for r in rounds)

    # a sweep's time is all a user waits for it: simulate (paper-sim),
    # then read, detect and track
    samples = [ms for r in rounds for ms in r["sweep_total_ms"].values()]
    wall = sum(r["seconds"] for r in rounds)
    tail_ms, tail_beyond = tail(samples, spec.tail_pct) if samples else (0.0, 0)
    first = next((r for r in rounds if "summary" in r), {})
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": bool(args.tiny),
        "trace": traced,
        "rounds": len(rounds),
        "round_seconds": [round(r["seconds"], 4) for r in rounds],
        "sweeps": sum(r["sweeps"] for r in rounds),
        "sweep_ms_tail": {"percentile": spec.tail_pct, "samples": len(samples),
                          "samples_beyond": tail_beyond},
        "setup": {"import_s": import_s, "repeats_s": setup_times},
        "detections_sha256": first.get("detections_sha256"),
        "tracks_sha256": first.get("tracks_sha256"),
        "report": first.get("summary", {}),
        # quality, checked per round rather than bounded (README.md)
        "pos_rmse_m": first.get("summary", {}).get("pos_rmse_m"),
        "false_tracks": first.get("summary", {}).get("false_tracks"),
        "failed_frac": failed / len(rounds),
        "errors": sorted({e for r in rounds for e in r["errors"]}),
        "command_failures": sorted({r["crashed"] for r in rounds} - {""}),
        "outcome_misses": sorted({m for r in rounds for m in r["misses"]}),
    }
    if not traced:
        raw = {
            "setup_s": import_s + median(setup_times),
            "sweeps_per_s": detail["sweeps"] / wall,
            "sweep_ms_p50": median(samples),
            "sweep_ms_tail": tail_ms,
        }
        f = host.factor()
        detail["host_speed"] = {
            "reference_kernel_s": REFERENCE_KERNEL_S,
            "kernel_s_median": median(host.samples),
            "samples": len(host.samples),
            "factor": f,
            "unscaled": raw,
        }
        metrics = {
            "setup_s": (f * raw["setup_s"], "s"),
            "sweeps_per_s": (raw["sweeps_per_s"] / f, "1/s"),
            "sweep_ms_p50": (f * raw["sweep_ms_p50"], "ms"),
            "sweep_ms_tail": (f * raw["sweep_ms_tail"], "ms"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        bytes_per_sweep = 0.0
        if tensors.exists():
            with open(tensors, "rb") as fh:
                header = ratrack.tensorfile.read_header(fh)[-1]
            bytes_per_sweep = (tensors.stat().st_size - header) / spec.n_sweeps
        layers = layer_metrics(stats, bytes_per_sweep,
                               median(r["confirmed"] for r in rounds))
        consistency = trace_consistency(rounds)
        # tiny sweeps last a millisecond or two, so fixed per-span costs
        # dominate them: the self-test reports the check but is not gated
        if not consistency["consistent"] and not args.tiny:
            correct = False
            detail["errors"].append(
                "traced layer self times sum to "
                f"{consistency['layer_sum_ratio']:.3f} "
                f"+- {consistency['layer_sum_ratio_stderr']:.3f} x the "
                f"untraced sweep time (allowed 1 +- {CONSISTENCY_TOL})")
        layers["trace.layer_sum_ratio"] = consistency["layer_sum_ratio"]
        layers["trace.overhead_ratio"] = consistency["overhead_ratio"]
        metrics = {n: (v, layer_unit(n)) for n, v in layers.items()}
        spans_path = work.parent / f"{work.name}.spans.jsonl"
        with open(spans_path, "w") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in spans)
        detail["spans_file"] = str(spans_path.relative_to(Path.cwd()))
        detail["trace_check"] = {
            **consistency,
            "absent": sorted(set(tracer.absent)),
            "idle": sorted(n for n, v in layers.items() if v == 0.0),
        }
    return {"correct": correct, "attempted": len(rounds), "failed": failed,
            "metrics": metrics, "detail": detail}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    result = run(args)
    result["detail"]["env"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in Path("src").rglob("*.py")),
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
