"""Range profiles and the per-sweep range-angle power tensor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BeamCodebook, SceneConfig, channel_response, propagate
from .errors import ConfigError, FrameError
from .waveform import WaveformConfig, build_grid

DEFAULT_N_RANGE = 512


@dataclass(frozen=True)
class RaTensor:
    """One sweep's power tensor, [n_range x n_tx x n_rx], float32.

    float32 matches the on-disk format exactly, so in-process and
    file-replay pipelines are bit-identical.
    """

    power: np.ndarray
    tx_angles_deg: tuple[float, ...]
    rx_angles_deg: tuple[float, ...]
    sweep_index: int
    t_start_s: float
    bin_size_m: float

    def __post_init__(self):
        expected = (
            self.power.shape[0],
            len(self.tx_angles_deg),
            len(self.rx_angles_deg),
        )
        if self.power.shape != expected:
            raise FrameError(
                f"tensor shape {self.power.shape} inconsistent with "
                f"angle tables {expected}"
            )

    @property
    def n_range(self) -> int:
        return self.power.shape[0]


def estimate_channel(rx_grid: np.ndarray, tx_grid: np.ndarray) -> np.ndarray:
    """Least-squares per-element channel estimate H = Y / X."""
    if rx_grid.shape != tx_grid.shape:
        raise FrameError(
            f"rx grid {rx_grid.shape} vs tx grid {tx_grid.shape}"
        )
    return rx_grid / tx_grid


def range_profile(H: np.ndarray, cfg: WaveformConfig) -> np.ndarray:
    """Coherent symbol average, zero-pad to fft_size, IDFT, power.

    Returns the linear power of all fft_size bins, cfg.range_bin_m
    apart.

    Symbols are averaged before the IFFT: intra-dwell Doppler is zero by
    construction, so coherent averaging gives the full SNR gain.
    """
    h_bar = H.mean(axis=1) if H.ndim == 2 else H
    padded = np.zeros(cfg.fft_size, dtype=np.complex128)
    padded[: h_bar.shape[0]] = h_bar
    return np.abs(np.fft.ifft(padded)) ** 2


def sweep(
    scene: SceneConfig,
    codebook: BeamCodebook,
    wf_cfg: WaveformConfig,
    sweep_index: int = 0,
    n_range: int = DEFAULT_N_RANGE,
) -> RaTensor:
    """Run one full beam sweep and stack the range profiles.

    The scene is frozen at the sweep start for every beam pair
    (quasi-static within a sweep); the caller advances the scene
    between sweeps.  One grid is built per sweep and shared by all
    beam pairs.
    """
    if n_range < 1 or n_range > wf_cfg.fft_size:
        raise ConfigError(f"n_range {n_range} outside [1, fft_size]")
    grid = build_grid(wf_cfg)
    n_tx = len(codebook.tx_angles_deg)
    n_rx = len(codebook.rx_angles_deg)
    power = np.empty((n_range, n_tx, n_rx), dtype=np.float32)

    noiseless = scene.noise_power == 0
    for ti in range(n_tx):
        for ri in range(n_rx):
            if noiseless:
                # H is the channel itself; skip the grid multiply/divide.
                h = channel_response(
                    scene, codebook, ti, ri,
                    wf_cfg.active_subcarriers, wf_cfg.scs_hz,
                )
                profile = range_profile(h, wf_cfg)
            else:
                rx = propagate(
                    grid, scene, codebook, ti, ri,
                    sweep_index=sweep_index,
                )
                H = estimate_channel(rx, grid.data)
                profile = range_profile(H, wf_cfg)
            power[:, ti, ri] = profile[:n_range].astype(np.float32)

    return RaTensor(
        power=power,
        tx_angles_deg=codebook.tx_angles_deg,
        rx_angles_deg=codebook.rx_angles_deg,
        sweep_index=sweep_index,
        t_start_s=sweep_index * scene.sweep_period_s,
        bin_size_m=wf_cfg.range_bin_m,
    )
