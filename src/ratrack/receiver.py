"""Range profiles and the per-sweep range-angle power tensor."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import BeamCodebook, ChannelPlan, SceneConfig
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


def range_profile(h_bar: np.ndarray, cfg: WaveformConfig,
                  n_range: int | None = None) -> np.ndarray:
    """Zero-pad each symbol-averaged channel row to fft_size, IDFT, power.

    Takes [..., active_subcarriers] and returns the linear power of the
    first n_range bins (default all fft_size), cfg.range_bin_m apart,
    along the last axis.
    """
    p = np.abs(np.fft.ifft(h_bar, n=cfg.fft_size, axis=-1)[..., :n_range])
    return np.square(p, out=p)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has
    one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def sweep_pool(codebook: BeamCodebook) -> ThreadPoolExecutor:
    """Threads for sweep's tx rows: one per usable CPU and tx beam."""
    return ThreadPoolExecutor(min(len(codebook.tx_angles_deg), _usable_cpus()))


def sweep(
    scene: SceneConfig,
    codebook: BeamCodebook,
    wf_cfg: WaveformConfig,
    sweep_index: int = 0,
    n_range: int = DEFAULT_N_RANGE,
    pool: ThreadPoolExecutor | None = None,
) -> RaTensor:
    """Run one full beam sweep and stack the range profiles.

    The scene is frozen at the sweep start for every beam pair
    (quasi-static within a sweep); the caller advances the scene
    between sweeps.  The sweep's ChannelPlan builds the path terms
    once, and each tx row sums its channel to every rx beam.  Each
    pair's estimate is the symbol average of Y / X for Y = X H + W on a
    known unit-modulus grid X with complex AWGN W of variance
    scene.noise_power: W / X has W's circular law, so that average is
    H + CN(0, noise_power / n_symbols) per subcarrier, drawn as such
    from (seed, sweep_index, tx, rx), independent of evaluation order.

    Tx rows run concurrently on pool (a sweep_pool for this call if
    None); each row owns its noise streams and buffers and writes only
    its own slice power[:, tx, :], so the tensor is the same for any
    worker count and finishing order.  A tensor that is not finite in
    float32 raises ConfigError.
    """
    if n_range < 1 or n_range > wf_cfg.fft_size:
        raise ConfigError(f"n_range {n_range} outside [1, fft_size]")
    if pool is None:
        with sweep_pool(codebook) as pool:
            return sweep(scene, codebook, wf_cfg, sweep_index, n_range, pool)
    n_tx, n_rx = len(codebook.tx_angles_deg), len(codebook.rx_angles_deg)
    K = wf_cfg.active_subcarriers
    power = np.empty((n_range, n_tx, n_rx), dtype=np.float32)
    scale = np.sqrt(scene.noise_power / (2.0 * wf_cfg.n_symbols))

    def row(ti: int) -> None:
        # overflow shows as a non-finite tensor, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            h_bar = plan.row(ti)
            if scene.noise_power > 0:
                w = np.empty((K, 2))
                for ri in range(n_rx):
                    rng = np.random.default_rng(np.random.SeedSequence(
                        entropy=scene.seed, spawn_key=(sweep_index, ti, ri)
                    ))
                    rng.standard_normal(out=w)
                    # (re, im) pairs read as complex: w[:, 0] + 1j w[:, 1]
                    h_bar[ri] += scale * w.view(np.complex128)[:, 0]
            power[:, ti, :] = range_profile(h_bar, wf_cfg, n_range).T

    with np.errstate(over="ignore", invalid="ignore"):  # as in row
        plan = ChannelPlan(scene, codebook, K, wf_cfg.scs_hz)
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
