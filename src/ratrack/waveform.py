"""OFDM numerology of one beam dwell.

The simulator never forms the transmitted grid: its channel estimate
divides out a known unit-magnitude grid, so only the numerology below
matters to it (see receiver.sweep).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, require_int, require_real

C_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class WaveformConfig:
    """OFDM numerology for one beam dwell.

    Defaults match a 400 MHz FR2 carrier: 275 resource blocks at
    120 kHz subcarrier spacing (3300 active subcarriers, 396 MHz
    occupied).  seed is the QPSK payload seed of the transmitted frame;
    only the test suite's reference grid reads it, and it leaves once
    the benchmark stops writing it (ROADMAP item 7).
    """

    n_rb: int = 275
    scs_hz: float = 120e3
    n_symbols: int = 14
    fft_size: int = 4096
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_rb", 1), ("n_symbols", 1), ("fft_size", 1),
                          ("seed", 0)):
            require_int(name, getattr(self, name), low)
        require_real("scs_hz", self.scs_hz)
        if self.active_subcarriers > self.fft_size:
            raise ConfigError(
                f"12*n_rb = {self.active_subcarriers} exceeds fft_size {self.fft_size}"
            )

    @property
    def active_subcarriers(self) -> int:
        return 12 * self.n_rb

    @property
    def range_bin_m(self) -> float:
        """Width of one range bin after the range IFFT."""
        return C_LIGHT / (2.0 * self.scs_hz * self.fft_size)
