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

from .errors import ConfigError, finite_floats, require_int, require_real
from .waveform import C_LIGHT


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
        for name in ("pos", "vel"):
            xy = finite_floats(f"target {name}", getattr(self, name), 2)
            object.__setattr__(self, name, xy)
        if self.pos[1] <= 0:
            raise ConfigError("target must be in front of the array (y > 0)")
        require_real("reflectivity", self.reflectivity)
        object.__setattr__(self, "reflectivity", float(self.reflectivity))

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
        for name in ("leakage_amplitude", "leakage_range_m", "noise_power"):
            require_real(name, getattr(self, name), strict=False)
        require_real("sweep_period_s", self.sweep_period_s)
        require_int("seed", self.seed, 0)
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True)
class BeamCodebook:
    """Steering-angle tables for the sweep, degrees off boresight."""

    tx_angles_deg: tuple[float, ...]
    rx_angles_deg: tuple[float, ...]
    n_elements: int = 8
    element_spacing_wavelengths: float = 0.5

    def __post_init__(self):
        tx = tuple(sorted(finite_floats("tx_angles_deg", self.tx_angles_deg)))
        rx = tuple(sorted(finite_floats("rx_angles_deg", self.rx_angles_deg)))
        require_int("n_elements", self.n_elements, 1)
        require_real(
            "element_spacing_wavelengths", self.element_spacing_wavelengths
        )
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


def channel_response(
    scene: SceneConfig,
    codebook: BeamCodebook,
    tx_idx: int,
    n_subcarriers: int,
    scs_hz: float,
) -> np.ndarray:
    """Noiseless per-subcarrier channel from tx beam tx_idx to every rx
    beam, [n_rx x n_subcarriers].

    H[rx, k] = sum_p a_p G_tx[p] G_rx[p] exp(-j 2 pi k scs tau_p), summed
    over the targets and then the leakage path, which has unit beam
    gains.
    """
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
        g_tx = target.reflectivity * array_factor(tx_deg, bearing, n, spacing)
        gains = np.array([
            g_tx * array_factor(rx_deg, bearing, n, spacing)
            for rx_deg in codebook.rx_angles_deg
        ])
        h += gains[:, None] * ramp(float(np.hypot(x, y)))
    if scene.leakage_amplitude > 0:
        h += scene.leakage_amplitude * ramp(scene.leakage_range_m)
    return h


def advance(scene: SceneConfig, dt_s: float) -> SceneConfig:
    """Move every target by vel * dt_s; everything else unchanged."""
    if dt_s < 0:
        raise ConfigError("dt_s must be >= 0")
    moved = tuple(
        replace(t, pos=t.at(dt_s)) for t in scene.targets
    )
    return replace(scene, targets=moved)
