"""YAML pipeline configuration.

Every paper-of-record parameter and every declared default from the
individual stages surfaces here so a single document drives a run.
Unknown keys are rejected to catch typos early.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .channel import BeamCodebook, SceneConfig, TargetTruth, default_codebook
from .detector import CfarConfig, DbscanConfig
from .errors import ConfigError, require_fits, require_int, require_real
from .receiver import DEFAULT_N_RANGE
from .tensorfile import _MAX_ABS_T_S, _MAX_RANGE_M
from .tracker import TrackerConfig
from .waveform import WaveformConfig


@dataclass(frozen=True)
class RunConfig:
    n_sweeps: int = 50
    n_range: int = DEFAULT_N_RANGE
    score_radius_m: float = 2.0

    def __post_init__(self):
        require_int("n_sweeps", self.n_sweeps, 1)
        require_int("n_range", self.n_range, 1)
        require_real("score_radius_m", self.score_radius_m)


@dataclass(frozen=True)
class PipelineConfig:
    waveform: WaveformConfig = field(default_factory=WaveformConfig)
    codebook: BeamCodebook = field(default_factory=default_codebook)
    scene: SceneConfig = field(default_factory=SceneConfig)
    cfar: CfarConfig = field(default_factory=CfarConfig)
    dbscan: DbscanConfig = field(default_factory=DbscanConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    run: RunConfig = field(default_factory=RunConfig)


def _build(cls, section: dict, name: str):
    if not isinstance(section, dict):
        raise ConfigError(f"[{name}] must be a mapping, got {section!r}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")
    try:
        return cls(**section)
    except TypeError as exc:
        raise ConfigError(f"invalid [{name}] section: {exc}")


def _build_codebook(section: dict) -> BeamCodebook:
    """Angle tables from span/step (default_codebook's, if neither is
    given) unless the section lists them explicitly."""
    section = dict(section)
    span_step = {
        k: section.pop(k) for k in ("span_deg", "step_deg") if k in section
    }
    explicit = "tx_angles_deg" in section or "rx_angles_deg" in section
    if span_step and explicit:
        raise ConfigError(
            "codebook: give span/step or explicit angle tables, not both"
        )
    if not explicit:
        book = default_codebook(**span_step)
        section["tx_angles_deg"] = book.tx_angles_deg
        section["rx_angles_deg"] = book.rx_angles_deg
    return _build(BeamCodebook, section, "codebook")


def _build_scene(section: dict) -> SceneConfig:
    section = dict(section)
    targets = section.pop("targets", [])
    if not isinstance(targets, list):
        raise ConfigError(f"scene targets must be a list, got {targets!r}")
    section["targets"] = tuple(
        _build(TargetTruth, t, f"scene target {i}")
        for i, t in enumerate(targets)
    )
    return _build(SceneConfig, section, "scene")


def from_dict(doc: dict) -> PipelineConfig:
    doc = dict(doc or {})
    known = {"waveform", "codebook", "scene", "cfar", "dbscan", "tracker", "run"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown top-level sections: {sorted(unknown)}")
    for name, section in doc.items():
        if not isinstance(section, dict):
            raise ConfigError(f"[{name}] must be a mapping, got {section!r}")
    cfg = PipelineConfig(
        waveform=_build(WaveformConfig, doc.get("waveform", {}), "waveform"),
        codebook=_build_codebook(doc.get("codebook", {})),
        scene=_build_scene(doc.get("scene", {})),
        cfar=_build(CfarConfig, doc.get("cfar", {}), "cfar"),
        dbscan=_build(DbscanConfig, doc.get("dbscan", {}), "dbscan"),
        tracker=_build(TrackerConfig, doc.get("tracker", {}), "tracker"),
        run=_build(RunConfig, doc.get("run", {}), "run"),
    )
    # sweep k starts at k * sweep_period_s; the last start must fit the
    # tensor file's time field, or simulate writes a file track rejects
    if cfg.run.n_sweeps - 1 > _MAX_ABS_T_S / cfg.scene.sweep_period_s:
        raise ConfigError(
            f"run.n_sweeps {cfg.run.n_sweeps} at scene.sweep_period_s "
            f"{cfg.scene.sweep_period_s:g} starts the last sweep after "
            f"{_MAX_ABS_T_S:g} s"
        )
    bin_m = cfg.waveform.range_bin_m  # and the last bin must fit its range
    if bin_m > _MAX_RANGE_M / cfg.run.n_range:
        raise ConfigError(
            f"{cfg.run.n_range} range bins of {bin_m:g} m (waveform.scs_hz "
            f"x fft_size too small) pass the tensor file's {_MAX_RANGE_M:g} m"
        )
    # a tx row's range IFFT and the sweep's tensor, before either exists
    n_tx, n_rx = len(cfg.codebook.tx_angles_deg), len(cfg.codebook.rx_angles_deg)
    fft, n_range = cfg.waveform.fft_size, cfg.run.n_range
    require_fits(f"{n_rx} x {fft} complex128 row IFFT", 16 * n_rx * fft)
    require_fits(f"{n_range} x {n_tx} x {n_rx} float32 tensor",
                 4 * n_range * n_tx * n_rx)
    return cfg


def load(path: str | Path) -> PipelineConfig:
    """Read and build a YAML config; an unreadable file raises OSError."""
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config {path} is not valid YAML: {exc}")
    if doc is not None and not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a mapping")
    return from_dict(doc or {})
