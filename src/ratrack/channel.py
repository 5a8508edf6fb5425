"""Backscatter channel: point targets through tx/rx array patterns.

The tx and rx beamformers are modeled as colocated (monostatic ranges)
uniform linear arrays in azimuth.  Each target contributes a single
frequency-domain path with a linear phase ramp across subcarriers that
encodes its round-trip delay.  Intra-sweep Doppler is omitted: targets
are quasi-static within one sweep and move only between sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .waveform import C_LIGHT, ResourceGrid


@dataclass(frozen=True)
class TargetTruth:
    """Ground-truth point target in the sensor frame.

    x is cross-range (positive to the right of boresight), y is
    down-range.  Reflectivity is a linear amplitude gain; path loss is
    folded into it so per-target SNR is directly controllable.
    """

    pos: tuple[float, float]
    vel: tuple[float, float] = (0.0, 0.0)
    reflectivity: float = 1.0

    def __post_init__(self):
        if self.pos[1] <= 0:
            raise ConfigError("target must be in front of the array (y > 0)")
        if self.reflectivity <= 0:
            raise ConfigError("reflectivity must be > 0")

    def at(self, t_s: float) -> tuple[float, float]:
        """Position after t_s seconds of constant-velocity motion."""
        return (self.pos[0] + self.vel[0] * t_s, self.pos[1] + self.vel[1] * t_s)


@dataclass(frozen=True)
class SceneConfig:
    targets: tuple[TargetTruth, ...] = ()
    leakage_amplitude: float = 0.0
    leakage_range_m: float = 0.5
    noise_power: float = 0.0
    sweep_period_s: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.sweep_period_s <= 0:
            raise ConfigError("sweep_period_s must be > 0")
        if self.noise_power < 0:
            raise ConfigError("noise_power must be >= 0")
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True)
class BeamCodebook:
    """Steering-angle tables for the sweep, degrees off boresight."""

    tx_angles_deg: tuple[float, ...]
    rx_angles_deg: tuple[float, ...]
    n_elements: int = 8
    element_spacing_wavelengths: float = 0.5

    def __post_init__(self):
        tx = tuple(sorted(float(a) for a in self.tx_angles_deg))
        rx = tuple(sorted(float(a) for a in self.rx_angles_deg))
        if not tx or not rx:
            raise ConfigError("codebook needs at least one tx and one rx angle")
        for a in tx + rx:
            if not -90.0 < a < 90.0:
                raise ConfigError(f"steering angle {a} outside (-90, 90)")
        object.__setattr__(self, "tx_angles_deg", tx)
        object.__setattr__(self, "rx_angles_deg", rx)

    @property
    def n_beam_pairs(self) -> int:
        return len(self.tx_angles_deg) * len(self.rx_angles_deg)


def default_codebook(
    span_deg: float = 50.0, step_deg: float = 5.0
) -> BeamCodebook:
    """Symmetric azimuth sweep, 21 x 21 beams by default.

    span_deg 0 gives the single boresight beam.
    """
    try:
        finite = math.isfinite(span_deg) and math.isfinite(step_deg)
    except TypeError:
        finite = False
    if not finite or step_deg <= 0 or span_deg < 0:
        raise ConfigError(
            f"codebook needs finite span_deg >= 0 and step_deg > 0, got "
            f"span_deg {span_deg!r}, step_deg {step_deg!r}"
        )
    angles = tuple(np.arange(-span_deg, span_deg + step_deg / 2, step_deg))
    return BeamCodebook(tx_angles_deg=angles, rx_angles_deg=angles)


def array_factor(
    steer_deg: float,
    target_deg: float,
    n_elements: int = 8,
    spacing: float = 0.5,
) -> complex:
    """Normalized ULA array factor for a beam steered at steer_deg
    evaluated at a target bearing target_deg.

    Magnitude is <= 1 with equality iff sin(steer) == sin(target).
    """
    u = np.sin(np.radians(target_deg)) - np.sin(np.radians(steer_deg))
    m = np.arange(n_elements)
    return complex(np.mean(np.exp(1j * 2.0 * np.pi * m * spacing * u)))


def _path_coefficient(
    amplitude: float,
    range_m: float,
    bearing_deg: float | None,
    codebook: BeamCodebook,
    tx_deg: float,
    rx_deg: float,
    scs_hz: float,
    n_subcarriers: int,
) -> np.ndarray:
    """Per-subcarrier complex channel of a single path.

    bearing_deg None means unit beam gains (leakage path).
    """
    gain = amplitude
    if bearing_deg is not None:
        g_tx = array_factor(
            tx_deg, bearing_deg, codebook.n_elements,
            codebook.element_spacing_wavelengths,
        )
        g_rx = array_factor(
            rx_deg, bearing_deg, codebook.n_elements,
            codebook.element_spacing_wavelengths,
        )
        gain = amplitude * g_tx * g_rx
    tau = 2.0 * range_m / C_LIGHT
    k = np.arange(n_subcarriers)
    return gain * np.exp(-1j * 2.0 * np.pi * k * scs_hz * tau)


def channel_response(
    scene: SceneConfig,
    codebook: BeamCodebook,
    tx_idx: int,
    rx_idx: int,
    n_subcarriers: int,
    scs_hz: float,
    t_s: float = 0.0,
) -> np.ndarray:
    """Noiseless per-subcarrier channel for one beam pair."""
    if not 0 <= tx_idx < len(codebook.tx_angles_deg):
        raise ConfigError(f"tx_idx {tx_idx} out of range")
    if not 0 <= rx_idx < len(codebook.rx_angles_deg):
        raise ConfigError(f"rx_idx {rx_idx} out of range")
    tx_deg = codebook.tx_angles_deg[tx_idx]
    rx_deg = codebook.rx_angles_deg[rx_idx]

    h = np.zeros(n_subcarriers, dtype=np.complex128)
    for target in scene.targets:
        x, y = target.at(t_s)
        r = float(np.hypot(x, y))
        bearing = float(np.degrees(np.arctan2(x, y)))
        h += _path_coefficient(
            target.reflectivity, r, bearing, codebook, tx_deg, rx_deg,
            scs_hz, n_subcarriers,
        )
    if scene.leakage_amplitude > 0:
        h += _path_coefficient(
            scene.leakage_amplitude, scene.leakage_range_m, None,
            codebook, tx_deg, rx_deg, scs_hz, n_subcarriers,
        )
    return h


def propagate(
    grid: ResourceGrid,
    scene: SceneConfig,
    codebook: BeamCodebook,
    tx_idx: int,
    rx_idx: int,
    t_s: float = 0.0,
    sweep_index: int = 0,
) -> np.ndarray:
    """Received frequency-domain grid for one beam pair.

    Y[k, l] = sum_p a_p G_tx G_rx X[k, l] exp(-j 2 pi k scs tau_p) + W,
    with complex AWGN of variance scene.noise_power.  Noise is derived
    from (seed, sweep_index, tx_idx, rx_idx) so beam pairs can be
    computed in any order or in parallel with identical results.
    """
    cfg = grid.config
    h = channel_response(
        scene, codebook, tx_idx, rx_idx,
        cfg.active_subcarriers, cfg.scs_hz, t_s,
    )
    rx = grid.data * h[:, None]
    if scene.noise_power > 0:
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=scene.seed, spawn_key=(sweep_index, tx_idx, rx_idx)
            )
        )
        scale = np.sqrt(scene.noise_power / 2.0)
        noise = rng.standard_normal(
            (cfg.active_subcarriers, cfg.n_symbols, 2)
        )
        rx = rx + scale * (noise[..., 0] + 1j * noise[..., 1])
    return rx


def advance(scene: SceneConfig, dt_s: float) -> SceneConfig:
    """Move every target by vel * dt_s; everything else unchanged."""
    if dt_s < 0:
        raise ConfigError("dt_s must be >= 0")
    moved = tuple(
        replace(t, pos=t.at(dt_s)) for t in scene.targets
    )
    return replace(scene, targets=moved)
