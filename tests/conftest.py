import numpy as np
import pytest

from ratrack import BeamCodebook, SceneConfig, TargetTruth, WaveformConfig


@pytest.fixture
def wf_small():
    """Fast numerology for unit tests: 144 subcarriers, fft 256."""
    return WaveformConfig(
        n_rb=12, scs_hz=120e3, n_symbols=4, fft_size=256, seed=5
    )


@pytest.fixture
def wf_paper():
    return WaveformConfig()


@pytest.fixture
def boresight_codebook():
    return BeamCodebook(tx_angles_deg=(0.0,), rx_angles_deg=(0.0,))


@pytest.fixture
def small_codebook():
    angles = (-10.0, -5.0, 0.0, 5.0, 10.0)
    return BeamCodebook(tx_angles_deg=angles, rx_angles_deg=angles)


def single_target_scene(range_m, bearing_deg=0.0, vel=(0.0, 0.0), **kw):
    x = range_m * np.sin(np.radians(bearing_deg))
    y = range_m * np.cos(np.radians(bearing_deg))
    return SceneConfig(
        targets=(TargetTruth(pos=(x, y), vel=vel),), **kw
    )


# scenario used by the end-to-end acceptance run: two reflectors at
# roughly 20 dB post-MTI SNR, mostly radial motion so the two-pulse
# canceller retains them, 50 sweeps at 0.2 s
E2E_SCENARIO = {
    "waveform": {"seed": 7, "n_symbols": 7},
    "scene": {
        "targets": [
            {"pos": [-3.0, 8.0], "vel": [0.3, 1.3]},
            {"pos": [5.0, 20.0], "vel": [-0.3, -1.3]},
        ],
        "leakage_amplitude": 30.0,
        "leakage_range_m": 0.5,
        "noise_power": 400.0,
        "seed": 3,
    },
    "cfar": {"pfa": 1e-6},
    "tracker": {"q_accel": 0.1},
    "run": {"n_sweeps": 50},
}
