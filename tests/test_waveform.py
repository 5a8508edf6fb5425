import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratrack import (
    ConfigError,
    FrameError,
    SceneConfig,
    TargetTruth,
    WaveformConfig,
)
from ratrack.channel import ChannelPlan
from ratrack.waveform import C_LIGHT

from oracles import (
    QPSK_ALPHABET,
    IqFrame,
    ResourceGrid,
    build_grid,
    demodulate,
    modulate,
)

CP_LEN = 16  # cyclic prefix, in samples, of the small-numerology frames


def test_paper_numerology():
    cfg = WaveformConfig()
    assert cfg.n_rb == 275
    assert cfg.scs_hz == 120e3
    assert cfg.active_subcarriers == 3300
    # occupied bandwidth: 396 MHz inside the 400 MHz FR2 channel
    assert cfg.active_subcarriers * cfg.scs_hz == pytest.approx(396e6)


def test_grid_shape_and_alphabet(wf_small):
    grid = build_grid(wf_small)
    assert grid.data.shape == (144, 4)
    assert np.allclose(np.abs(grid.data), 1.0)
    # every entry is one of the four QPSK points
    flat = grid.data.ravel()
    dists = np.min(np.abs(flat[:, None] - QPSK_ALPHABET[None, :]), axis=1)
    assert np.max(dists) < 1e-12


def test_grid_deterministic(wf_small):
    a = build_grid(wf_small)
    b = build_grid(wf_small)
    assert np.array_equal(a.data, b.data)


def test_different_seed_differs(wf_small):
    from dataclasses import replace

    other = build_grid(replace(wf_small, seed=wf_small.seed + 1))
    assert not np.array_equal(build_grid(wf_small).data, other.data)


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        WaveformConfig(n_rb=275, fft_size=2048)  # 3300 > 2048
    with pytest.raises(ConfigError):
        WaveformConfig(seed=-1)
    with pytest.raises(ConfigError):
        WaveformConfig(scs_hz=0)


def test_zero_grid_modulates_to_zero(wf_small):
    grid = ResourceGrid(
        data=np.zeros((144, 4), dtype=complex), config=wf_small
    )
    frame = modulate(grid, CP_LEN)
    assert np.all(frame.samples == 0)
    back = demodulate(frame, wf_small, CP_LEN)
    assert np.all(back.data == 0)


def test_single_tone_constant_magnitude():
    cfg = WaveformConfig(n_rb=12, fft_size=256, n_symbols=1, seed=0)
    data = np.zeros((144, 1), dtype=complex)
    data[0, 0] = 1.0
    frame = modulate(ResourceGrid(data=data, config=cfg), 0)
    mags = np.abs(frame.samples)
    assert np.allclose(mags, mags[0])


def test_round_trip(wf_small):
    grid = build_grid(wf_small)
    back = demodulate(modulate(grid, CP_LEN), wf_small, CP_LEN)
    assert np.max(np.abs(back.data - grid.data)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    cp_len=st.integers(0, 64),
    n_symbols=st.integers(1, 6),
)
def test_round_trip_property(seed, cp_len, n_symbols):
    cfg = WaveformConfig(n_rb=6, fft_size=128, n_symbols=n_symbols, seed=seed)
    grid = build_grid(cfg)
    back = demodulate(modulate(grid, cp_len), cfg, cp_len)
    assert np.max(np.abs(back.data - grid.data)) < 1e-9


def test_parseval_no_cp():
    cfg = WaveformConfig(n_rb=12, fft_size=256, n_symbols=4, seed=1)
    grid = build_grid(cfg)
    frame = modulate(grid, 0)
    e_time = np.sum(np.abs(frame.samples) ** 2)
    e_grid = np.sum(np.abs(grid.data) ** 2)
    assert e_time == pytest.approx(e_grid, rel=1e-9)


def test_parseval_with_cp(wf_small):
    # the CP copies real samples, so the exact identity is
    # frame energy = grid energy + energy of the copied segments;
    # the (1 + cp/N) form holds only in expectation for random payloads
    grid = build_grid(wf_small)
    frame = modulate(grid, CP_LEN)
    cfg = wf_small
    sym_len = cfg.fft_size + CP_LEN
    body = frame.samples.reshape(cfg.n_symbols, sym_len)[:, CP_LEN:]
    cp = frame.samples.reshape(cfg.n_symbols, sym_len)[:, :CP_LEN]
    e_grid = np.sum(np.abs(grid.data) ** 2)
    assert np.sum(np.abs(body) ** 2) == pytest.approx(e_grid, rel=1e-9)
    e_time = np.sum(np.abs(frame.samples) ** 2)
    assert e_time == pytest.approx(
        e_grid + np.sum(np.abs(cp) ** 2), rel=1e-12
    )
    assert e_time == pytest.approx(
        e_grid * (1 + CP_LEN / cfg.fft_size), rel=0.2
    )


def test_cyclic_delay_phase_ramp(wf_small, boresight_codebook):
    # CP-OFDM modulate -> circular delay of d samples -> demodulate equals
    # the simulator's frequency-domain model of a boresight target at the
    # range of that delay, up to the constant phase exp(j 2 pi (K//2) d / N)
    # that the centred subcarrier map puts on bin 0
    cfg = wf_small
    grid = build_grid(cfg)
    frame = modulate(grid, CP_LEN)
    d = 5
    sym_len = cfg.fft_size + CP_LEN
    shifted = frame.samples.reshape(cfg.n_symbols, sym_len).copy()
    # cyclic shift within each symbol body (CP consistent with shift)
    body = np.roll(shifted[:, CP_LEN:], d, axis=1)
    shifted[:, CP_LEN:] = body
    shifted[:, :CP_LEN] = body[:, -CP_LEN:]
    back = demodulate(
        IqFrame(samples=shifted.reshape(-1), sample_rate_hz=frame.sample_rate_hz),
        cfg, CP_LEN,
    )
    range_m = d * C_LIGHT / (2 * frame.sample_rate_hz)
    scene = SceneConfig(targets=(TargetTruth(pos=(0.0, range_m)),))
    h = ChannelPlan(
        scene, boresight_codebook, cfg.active_subcarriers, cfg.scs_hz
    ).row(0)[0]
    K = cfg.active_subcarriers
    h = h * np.exp(1j * 2 * np.pi * (K // 2) * d / cfg.fft_size)
    assert np.max(np.abs(back.data - grid.data * h[:, None])) < 1e-9


def test_demodulate_length_mismatch(wf_small):
    frame = IqFrame(samples=np.zeros(10, dtype=complex), sample_rate_hz=1.0)
    with pytest.raises(FrameError):
        demodulate(frame, wf_small, CP_LEN)
