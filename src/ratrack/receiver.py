"""Range profiles and the per-sweep range-angle power tensor."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import BeamCodebook, SceneConfig, channel_response
from .errors import ConfigError, FrameError
from .waveform import WaveformConfig

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


def range_profile(h_bar: np.ndarray, cfg: WaveformConfig) -> np.ndarray:
    """Zero-pad each symbol-averaged channel row to fft_size, IDFT, power.

    Takes [..., active_subcarriers] and returns the linear power of all
    fft_size bins, cfg.range_bin_m apart, along the last axis.
    """
    p = np.abs(np.fft.ifft(h_bar, n=cfg.fft_size, axis=-1))
    return np.square(p, out=p)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has
    one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
    between sweeps.  Per tx beam, the channel to every rx beam is built
    at once.  Each pair's estimate is the symbol average of Y / X for
    Y = X H + W, with a known unit-modulus grid X and complex AWGN W of
    variance scene.noise_power: intra-dwell Doppler is zero by
    construction, so that average is H plus mean(W / X).  W / X has
    W's circular law whatever X is, so the average's noise is exactly
    CN(0, noise_power / n_symbols) per subcarrier, and it is drawn as
    such from (seed, sweep_index, tx, rx), independent of evaluation
    order.  Without noise the estimate is the channel itself.

    Tx rows run concurrently, one worker per usable CPU; each row owns
    its channel, noise streams and buffers and writes only its own
    slice power[:, tx, :], so the tensor is the same for any worker
    count and finishing order.  A tensor that is not finite in float32
    raises ConfigError.
    """
    if n_range < 1 or n_range > wf_cfg.fft_size:
        raise ConfigError(f"n_range {n_range} outside [1, fft_size]")
    n_tx = len(codebook.tx_angles_deg)
    n_rx = len(codebook.rx_angles_deg)
    power = np.empty((n_range, n_tx, n_rx), dtype=np.float32)
    scale = np.sqrt(scene.noise_power / (2.0 * wf_cfg.n_symbols))

    def row(ti: int) -> None:
        # overflow shows as a non-finite tensor, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            h_bar = channel_response(
                scene, codebook, ti, wf_cfg.active_subcarriers, wf_cfg.scs_hz,
            )
            if scene.noise_power > 0:
                w = np.empty((wf_cfg.active_subcarriers, 2))
                for ri in range(n_rx):
                    rng = np.random.default_rng(np.random.SeedSequence(
                        entropy=scene.seed, spawn_key=(sweep_index, ti, ri)
                    ))
                    rng.standard_normal(out=w)
                    # (re, im) pairs read as complex: w[:, 0] + 1j w[:, 1]
                    h_bar[ri] += scale * w.view(np.complex128)[:, 0]
            power[:, ti, :] = range_profile(h_bar, wf_cfg)[:, :n_range].T

    with ThreadPoolExecutor(max_workers=min(n_tx, _usable_cpus())) as pool:
        list(pool.map(row, range(n_tx)))  # re-raises a row's exception
    if not np.isfinite(power).all():
        raise ConfigError(
            f"sweep {sweep_index}: power tensor not finite in float32; "
            "scene.noise_power, scene.leakage_amplitude or a target's "
            "reflectivity or range is too large"
        )

    return RaTensor(
        power=power,
        tx_angles_deg=codebook.tx_angles_deg,
        rx_angles_deg=codebook.rx_angles_deg,
        sweep_index=sweep_index,
        t_start_s=sweep_index * scene.sweep_period_s,
        bin_size_m=wf_cfg.range_bin_m,
    )
