"""OFDM transmit grid generation.

The transmit payload is uniform random QPSK on every active subcarrier:
the sensing receiver only needs a *known* unit-magnitude grid to divide
out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FrameError, require_int, require_real

C_LIGHT = 299_792_458.0

QPSK_ALPHABET = np.array(
    [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128
) / np.sqrt(2.0)


@dataclass(frozen=True)
class WaveformConfig:
    """OFDM numerology for one beam dwell.

    Defaults match a 400 MHz FR2 carrier: 275 resource blocks at
    120 kHz subcarrier spacing (3300 active subcarriers, 396 MHz
    occupied).
    """

    n_rb: int = 275
    scs_hz: float = 120e3
    n_symbols: int = 14
    fft_size: int = 4096
    cp_len: int = 288
    carrier_hz: float = 28e9
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_rb", 1), ("n_symbols", 1), ("fft_size", 1),
                          ("cp_len", 0), ("seed", 0)):
            require_int(name, getattr(self, name), low)
        require_real("scs_hz", self.scs_hz)
        require_real("carrier_hz", self.carrier_hz)
        if self.active_subcarriers > self.fft_size:
            raise ConfigError(
                f"12*n_rb = {self.active_subcarriers} exceeds fft_size {self.fft_size}"
            )

    @property
    def active_subcarriers(self) -> int:
        return 12 * self.n_rb

    @property
    def bandwidth_hz(self) -> float:
        return self.active_subcarriers * self.scs_hz

    @property
    def sample_rate_hz(self) -> float:
        return self.scs_hz * self.fft_size

    @property
    def range_bin_m(self) -> float:
        """Width of one range bin after the range IFFT."""
        return C_LIGHT / (2.0 * self.scs_hz * self.fft_size)


@dataclass(frozen=True)
class ResourceGrid:
    """Frequency-domain symbol grid, [active_subcarriers x n_symbols]."""

    data: np.ndarray
    config: WaveformConfig = field(repr=False)

    def __post_init__(self):
        expected = (self.config.active_subcarriers, self.config.n_symbols)
        if self.data.shape != expected:
            raise FrameError(f"grid shape {self.data.shape}, expected {expected}")


def build_grid(cfg: WaveformConfig) -> ResourceGrid:
    """Draw a uniform random QPSK grid, deterministic per cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    idx = rng.integers(0, 4, size=(cfg.active_subcarriers, cfg.n_symbols))
    return ResourceGrid(data=QPSK_ALPHABET[idx], config=cfg)
