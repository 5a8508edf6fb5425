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

from .errors import (
    ConfigError, finite_floats, require_fits, require_int, require_real,
)
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
    n = 2 * span_deg / step_deg + 1  # angles per side, not yet built
    require_fits(f"a {n:.4g} x {n:.4g} beam codebook's tensor", 4 * n * n)
    angles = tuple(np.arange(-span_deg, span_deg + step_deg / 2, step_deg))
    return BeamCodebook(tx_angles_deg=angles, rx_angles_deg=angles)


def array_factor(steer_deg, target_deg, n_elements: int = 8,
                 spacing: float = 0.5):
    """Normalized ULA array factor for a beam steered at steer_deg
    evaluated at a target bearing target_deg; the angles broadcast.

    Magnitude is <= 1 with equality iff sin(steer) == sin(target).
    """
    u = np.sin(np.radians(target_deg)) - np.sin(np.radians(steer_deg))
    m = np.arange(n_elements)
    phase = 1j * 2.0 * np.pi * m * spacing * np.expand_dims(u, -1)
    return np.mean(np.exp(phase), axis=-1)


class ChannelPlan:
    """One sweep's noiseless channel from the terms no tx beam changes:
    each target's delay ramp exp(-j 2 pi k scs tau) and its array
    factors toward every tx and rx beam (one evaluation per codebook
    side), and the leakage path's scaled ramp (unit beam gains)."""

    def __init__(self, scene: SceneConfig, codebook: BeamCodebook,
                 n_subcarriers: int, scs_hz: float):
        k = np.arange(n_subcarriers)

        def ramp(range_m: float) -> np.ndarray:
            tau = 2.0 * range_m / C_LIGHT
            return np.exp(-1j * 2.0 * np.pi * k * scs_hz * tau)

        xy = [t.pos for t in scene.targets]
        bearings = [float(np.degrees(np.arctan2(x, y))) for x, y in xy]
        n, d = codebook.n_elements, codebook.element_spacing_wavelengths
        tx, rx = (array_factor(np.array(a)[:, None], bearings, n, d)
                  for a in (codebook.tx_angles_deg, codebook.rx_angles_deg))
        # [beam][target] as Python complex: the pair gain g_tx * g_rx
        # must be a Python product (numpy's complex scalar-times-array
        # product can differ in the last bit)
        self.g_tx = [[t.reflectivity * g for t, g in zip(scene.targets, row)]
                     for row in tx.tolist()]
        self.g_rx = rx.T.tolist()
        self.ramps = [ramp(float(np.hypot(x, y))) for x, y in xy]
        self.leakage = (scene.leakage_amplitude * ramp(scene.leakage_range_m)
                        if scene.leakage_amplitude > 0 else None)
        self.shape = (len(codebook.rx_angles_deg), n_subcarriers)

    def row(self, tx_idx: int) -> np.ndarray:
        """Channel from tx beam tx_idx to every rx beam, [n_rx x K]:
        H[rx, k] = sum_p a_p G_tx[p] G_rx[p] exp(-j 2 pi k scs tau_p),
        over the targets in scene order and then the leakage path."""
        if not 0 <= tx_idx < len(self.g_tx):
            raise ConfigError(f"tx_idx {tx_idx} out of range")
        h = np.zeros(self.shape, dtype=np.complex128)
        for g, g_rx, ramp in zip(self.g_tx[tx_idx], self.g_rx, self.ramps):
            h += np.array([g * gr for gr in g_rx])[:, None] * ramp
        if self.leakage is not None:
            h += self.leakage
        return h


def advance(scene: SceneConfig, dt_s: float) -> SceneConfig:
    """Move every target by vel * dt_s; everything else unchanged."""
    if dt_s < 0:
        raise ConfigError("dt_s must be >= 0")
    moved = tuple(
        replace(t, pos=t.at(dt_s)) for t in scene.targets
    )
    return replace(scene, targets=moved)
