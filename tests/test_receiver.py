import hashlib
import sys
import time
import tracemalloc

import numpy as np
import pytest

from ratrack import (
    BeamCodebook,
    ConfigError,
    SceneConfig,
    TargetTruth,
    WaveformConfig,
    range_profile,
    sweep,
)
from ratrack import receiver
from ratrack.channel import ChannelPlan
from ratrack.config import from_dict
from ratrack.waveform import C_LIGHT

from conftest import E2E_SCENARIO, single_target_scene
from oracles import build_grid, row_channel_response


def expected_bin(range_m, cfg):
    return round(2 * range_m / C_LIGHT * cfg.scs_hz * cfg.fft_size)


def test_sweep_noiseless_single_path(wf_small, boresight_codebook):
    # without noise the channel estimate is the path's phase ramp itself
    t = sweep(
        single_target_scene(40.0), boresight_codebook, wf_small, 0,
        n_range=wf_small.fft_size,
    )
    tau = 2 * 40.0 / C_LIGHT
    k = np.arange(wf_small.active_subcarriers)
    ramp = np.exp(-1j * 2 * np.pi * k * wf_small.scs_hz * tau)
    expected = np.abs(np.fft.ifft(ramp, n=wf_small.fft_size)) ** 2
    assert np.allclose(t.power[:, 0, 0], expected, rtol=1e-6, atol=1e-12)


def test_sweep_noise_deterministic(wf_small, small_codebook):
    scene = single_target_scene(30.0, noise_power=0.5, seed=11)
    a = sweep(scene, small_codebook, wf_small, 4, n_range=64).power
    b = sweep(scene, small_codebook, wf_small, 4, n_range=64).power
    c = sweep(scene, small_codebook, wf_small, 5, n_range=64).power
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_range_profile_peak_at_50m(wf_paper):
    tau = 2 * 50.0 / C_LIGHT
    k = np.arange(wf_paper.active_subcarriers)
    h = np.exp(-1j * 2 * np.pi * k * wf_paper.scs_hz * tau)
    power = range_profile(h, wf_paper)
    bin_m = wf_paper.range_bin_m
    assert np.argmax(power) == 164
    assert bin_m == pytest.approx(0.30496, abs=1e-4)
    assert 164 * bin_m == pytest.approx(50.0, abs=bin_m / 2)


def test_range_profile_zero_delay(wf_small):
    h = np.ones(wf_small.active_subcarriers, dtype=complex)
    assert np.argmax(range_profile(h, wf_small)) == 0


def test_range_profile_homogeneity(wf_small):
    rng = np.random.default_rng(3)
    H = rng.standard_normal((2, 144)) + 1j * rng.standard_normal((2, 144))
    p1 = range_profile(H, wf_small)
    p9 = range_profile(3 * H, wf_small)
    assert np.allclose(p9, 9 * p1)


def test_range_profile_rows_match_single_rows(wf_small):
    # the batched transform of a tx row is bit-identical per rx beam
    rng = np.random.default_rng(4)
    H = rng.standard_normal((5, 144)) + 1j * rng.standard_normal((5, 144))
    batch = range_profile(H, wf_small)
    assert batch.shape == (5, wf_small.fft_size)
    for row, h in zip(batch, H):
        assert np.array_equal(row, range_profile(h, wf_small))


def test_sweep_dims_and_beam_count(wf_small):
    from ratrack import default_codebook

    cb = default_codebook()
    assert cb.n_beam_pairs == 441
    assert cb.n_beam_pairs > 400
    t = sweep(single_target_scene(30.0), cb, wf_small, 0, n_range=64)
    assert t.power.shape == (64, 21, 21)
    assert t.power.dtype == np.float32


def test_sweep_empty_scene_zero(wf_small, small_codebook):
    t = sweep(SceneConfig(), small_codebook, wf_small, 0, n_range=64)
    assert np.all(t.power == 0)


def test_sweep_boresight_argmax(wf_paper, small_codebook):
    t = sweep(
        single_target_scene(30.0), small_codebook, wf_paper, 0, n_range=256
    )
    r, ti, ri = np.unravel_index(np.argmax(t.power), t.power.shape)
    assert r == expected_bin(30.0, wf_paper)
    assert small_codebook.tx_angles_deg[ti] == 0.0
    assert small_codebook.rx_angles_deg[ri] == 0.0


def test_sweep_timestamp_and_index(wf_small, boresight_codebook):
    scene = SceneConfig(sweep_period_s=0.2)
    t = sweep(scene, boresight_codebook, wf_small, 7, n_range=32)
    assert t.sweep_index == 7
    assert t.t_start_s == pytest.approx(1.4)


def test_sweep_n_range_validation(wf_small, boresight_codebook):
    with pytest.raises(ConfigError):
        sweep(SceneConfig(), boresight_codebook, wf_small, 0, n_range=0)
    with pytest.raises(ConfigError):
        sweep(SceneConfig(), boresight_codebook, wf_small, 0, n_range=10_000)


def test_range_accuracy_within_one_bin(wf_paper, boresight_codebook):
    rng = np.random.default_rng(42)
    for r in rng.uniform(2.0, 150.0, size=8):
        t = sweep(
            single_target_scene(float(r)), boresight_codebook, wf_paper, 0
        )
        peak = int(np.argmax(t.power[:, 0, 0]))
        assert abs(peak * t.bin_size_m - r) <= t.bin_size_m


def test_two_target_resolution(wf_paper, boresight_codebook):
    # separations: 0.75 m resolved, 0.30 m not
    def n_peaks(sep):
        scene = SceneConfig(
            targets=(
                TargetTruth(pos=(0.0, 50.0)),
                TargetTruth(pos=(0.0, 50.0 + sep)),
            )
        )
        t = sweep(scene, boresight_codebook, wf_paper, 0)
        p = t.power[:, 0, 0]
        lo, hi = 150, 180
        seg = p[lo:hi]
        local_max = [
            i
            for i in range(1, len(seg) - 1)
            if seg[i] > seg[i - 1] and seg[i] >= seg[i + 1]
            and seg[i] > 0.05 * seg.max()
        ]
        return len(local_max)

    assert n_peaks(0.75) >= 2
    assert n_peaks(0.30) == 1


def test_tensor_transpose_symmetry(wf_small):
    # colocated monostatic channel: swapping tx and rx angle tables
    # transposes the angle axes
    a = (-10.0, 0.0)
    b = (5.0, 15.0)
    scene = single_target_scene(20.0, bearing_deg=4.0)
    t_ab = sweep(
        scene,
        BeamCodebook(tx_angles_deg=a, rx_angles_deg=b),
        wf_small, 0, n_range=64,
    )
    t_ba = sweep(
        scene,
        BeamCodebook(tx_angles_deg=b, rx_angles_deg=a),
        wf_small, 0, n_range=64,
    )
    assert np.allclose(t_ab.power, np.transpose(t_ba.power, (0, 2, 1)))


# SHA-256 of sweep(...).power.tobytes(): the simulator's output bytes must
# not move when its internals are restructured
TENSOR_DIGESTS = {
    "noisy":
        "acbbb240a0ec0b577d39c6d86cd977b18a59de8893b6e90c487d68dce4464df6",
    "noiseless":
        "5a71cd8420bf27beacf356712720734f985a1c28ead815d871749e31dac0025d",
    "e2e":
        "b408627aede7fd4a65911ceaf72bf928c1fea17071bc5455cd24b753f91b2d23",
}


@pytest.mark.parametrize("case", sorted(TENSOR_DIGESTS))
def test_sweep_tensor_digest(case, wf_small):
    digest = hashlib.sha256()
    if case == "e2e":
        cfg = from_dict(E2E_SCENARIO)
        digest.update(sweep(
            cfg.scene, cfg.codebook, cfg.waveform, 0, n_range=cfg.run.n_range,
        ).power.tobytes())
    else:
        # non-square codebook, unequal targets, leakage
        codebook = BeamCodebook(
            tx_angles_deg=(-10.0, 0.0, 7.5), rx_angles_deg=(-3.0, 4.0)
        )
        scene = SceneConfig(
            targets=(
                TargetTruth(pos=(-2.0, 15.0)),
                TargetTruth(pos=(4.0, 30.0), reflectivity=0.3),
            ),
            leakage_amplitude=5.0,
            noise_power=0.01 if case == "noisy" else 0.0,
            seed=9,
        )
        for k in range(4):
            digest.update(
                sweep(scene, codebook, wf_small, k, n_range=64).power.tobytes()
            )
    assert digest.hexdigest() == TENSOR_DIGESTS[case]


def noisy_digest_scene():
    """The noisy scene and codebook of test_sweep_tensor_digest."""
    codebook = BeamCodebook(
        tx_angles_deg=(-10.0, 0.0, 7.5), rx_angles_deg=(-3.0, 4.0)
    )
    scene = SceneConfig(
        targets=(
            TargetTruth(pos=(-2.0, 15.0)),
            TargetTruth(pos=(4.0, 30.0), reflectivity=0.3),
        ),
        leakage_amplitude=5.0,
        noise_power=0.01,
        seed=9,
    )
    return scene, codebook


def test_sweep_independent_of_row_order(wf_small, monkeypatch):
    # tx rows run on worker threads; delaying row ti by (n_tx - ti) * 5 ms
    # makes later rows finish first wherever two or more workers run, and
    # the bytes must not move
    scene, codebook = noisy_digest_scene()
    expected = sweep(scene, codebook, wf_small, 2, n_range=64).power.tobytes()
    n_tx = len(codebook.tx_angles_deg)
    original = ChannelPlan.row
    finished = []

    def slow(plan, ti):
        time.sleep((n_tx - ti) * 0.005)
        out = original(plan, ti)
        finished.append(ti)
        return out

    monkeypatch.setattr(ChannelPlan, "row", slow)
    got = sweep(scene, codebook, wf_small, 2, n_range=64).power.tobytes()
    assert sorted(finished) == list(range(n_tx))
    assert got == expected


def test_sweep_many_workers_fast_switching(wf_small, monkeypatch):
    # more workers than cores, switching threads every microsecond: a
    # row that wrote outside its slice or shared a buffer would show
    scene, _ = noisy_digest_scene()
    angles = tuple(np.linspace(-20.0, 20.0, 8))
    codebook = BeamCodebook(tx_angles_deg=angles, rx_angles_deg=angles[:3])
    monkeypatch.setattr(receiver, "_usable_cpus", lambda: 1)
    expected = sweep(scene, codebook, wf_small, 1, n_range=64).power
    monkeypatch.setattr(receiver, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sweep(scene, codebook, wf_small, 1, n_range=64).power
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == expected.tobytes()


def test_sweep_row_error_propagates(wf_small, monkeypatch):
    scene, codebook = noisy_digest_scene()
    original = ChannelPlan.row

    def failing(plan, ti):
        if ti == 1:
            raise RuntimeError("row 1 failed")
        return original(plan, ti)

    monkeypatch.setattr(ChannelPlan, "row", failing)
    with pytest.raises(RuntimeError, match="row 1 failed"):
        sweep(scene, codebook, wf_small, 0, n_range=64)


def test_sweep_memory_bounded(monkeypatch):
    # paper-config rows in flight stay near one row's working set
    # (~3 MB) each; even 21 workers stay below the (n_tx, n_rx, K)
    # array (~45 MB) that is never built
    cfg = from_dict(E2E_SCENARIO)
    for workers, bound_mb in ((2, 12), (21, 45)):
        monkeypatch.setattr(receiver, "_usable_cpus", lambda: workers)
        tracemalloc.start()
        try:
            sweep(cfg.scene, cfg.codebook, cfg.waveform, 0, cfg.run.n_range)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20, workers


@pytest.mark.parametrize("n_symbols", [1, 2, 7])
@pytest.mark.parametrize("noise_power", [0.01, 400.0])
def test_direct_noise_matches_explicit_average(
    monkeypatch, n_symbols, noise_power
):
    # sweep draws each pair's symbol-averaged noise directly; the
    # explicit receiver forms Y = X H + W on a QPSK grid X, with W drawn
    # per symbol, and averages Y / X.  Both must be CN(0, v) per
    # subcarrier, v = noise_power / n_symbols: same mean, variance and
    # circularity (E[z^2] = 0) within 4 standard errors
    wf = WaveformConfig(
        n_rb=25, n_symbols=n_symbols, fft_size=512, seed=n_symbols
    )
    K = wf.active_subcarriers
    codebook = BeamCodebook(
        tx_angles_deg=(-8.0, 0.0, 8.0), rx_angles_deg=(-4.0, 0.0, 4.0)
    )
    scene = single_target_scene(
        20.0, bearing_deg=3.0, leakage_amplitude=2.0,
        noise_power=noise_power, seed=n_symbols,
    )
    noiseless = np.stack([
        row_channel_response(scene, codebook, ti, K, wf.scs_hz)
        for ti in range(3)
    ])
    rows = []
    original = receiver.range_profile

    def capture(h_bar, cfg, n_range):
        rows.append(h_bar.copy())
        return original(h_bar, cfg, n_range)

    # one worker: the tx rows reach range_profile in order
    monkeypatch.setattr(receiver, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(receiver, "range_profile", capture)
    sweep(scene, codebook, wf, 0, n_range=64)
    direct = (np.stack(rows) - noiseless).ravel()

    rng = np.random.default_rng(100 + n_symbols)
    X = build_grid(wf).data
    explicit = []
    for H in noiseless.reshape(-1, K):
        W = np.sqrt(noise_power / 2) * (
            rng.standard_normal((K, n_symbols))
            + 1j * rng.standard_normal((K, n_symbols))
        )
        Y = X * H[:, None] + W
        explicit.append((Y / X).mean(axis=1) - H)
    explicit = np.concatenate(explicit)

    v = noise_power / n_symbols
    n = direct.size
    assert explicit.size == n
    stats = {}
    for name, z in (("direct", direct), ("explicit", explicit)):
        mean, var, circ = z.mean(), np.mean(np.abs(z) ** 2), np.mean(z**2)
        # |mean|^2 has expectation v / n, E|z^2|^2 = 2 v^2, and |z|^2 is
        # exponential with standard deviation v
        assert abs(mean) < 4 * np.sqrt(v / n), name
        assert abs(var - v) < 4 * v / np.sqrt(n), name
        assert abs(circ) < 4 * np.sqrt(2 / n) * v, name
        stats[name] = (mean, var, circ)
    (m1, v1, c1), (m2, v2, c2) = stats["direct"], stats["explicit"]
    assert abs(m1 - m2) < 4 * np.sqrt(2 * v / n)
    assert abs(v1 - v2) < 4 * v * np.sqrt(2 / n)
    assert abs(c1 - c2) < 4 * np.sqrt(4 / n) * v
