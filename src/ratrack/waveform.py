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
    occupied).  cp_len and seed describe the transmitted CP-OFDM frame
    (cyclic prefix length, QPSK payload seed); the simulator reads
    neither.
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
