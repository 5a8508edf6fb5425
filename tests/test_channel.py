import numpy as np
import pytest

from ratrack import (
    BeamCodebook,
    ConfigError,
    SceneConfig,
    TargetTruth,
    advance,
    array_factor,
)
from ratrack.channel import ChannelPlan
from ratrack.waveform import C_LIGHT

from conftest import single_target_scene
from oracles import row_channel_response, scalar_array_factor


def test_array_factor_boresight():
    assert array_factor(0.0, 0.0, n_elements=8) == pytest.approx(1.0)


def test_array_factor_matched_any_angle():
    assert abs(array_factor(23.0, 23.0)) == pytest.approx(1.0)


def test_array_factor_first_null():
    # first null of an 8-element half-wavelength array: sin(theta) = 1/4
    theta = np.degrees(np.arcsin(0.25))
    assert abs(array_factor(0.0, theta, 8, 0.5)) < 1e-12


def test_array_factor_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s, t = rng.uniform(-80, 80, size=2)
        assert abs(array_factor(s, t)) == pytest.approx(abs(array_factor(t, s)))
        assert abs(array_factor(-s, -t)) == pytest.approx(
            abs(array_factor(s, t))
        )


def test_array_factor_magnitude_bounded():
    rng = np.random.default_rng(1)
    for _ in range(50):
        s, t = rng.uniform(-89, 89, size=2)
        assert abs(array_factor(s, t)) <= 1.0 + 1e-12


# plan tables and rows against the per-row oracle: 0, 1 and 3 targets
# (unequal reflectivity, both sides of boresight), with and without
# leakage, on a non-square codebook with uneven angles
PLAN_TARGETS = (
    TargetTruth(pos=(-2.0, 15.0)),
    TargetTruth(pos=(4.0, 30.0), reflectivity=0.3),
    TargetTruth(pos=(11.5, 7.25), reflectivity=2.5),
)
PLAN_ARRAYS = [(1, 0.5), (8, 0.5), (8, 0.7), (12, 0.7), (16, 0.5), (16, 0.7)]


def plan_codebook(n_elements, spacing):
    return BeamCodebook(
        tx_angles_deg=(-37.5, -10.0, 0.0, 7.5),
        rx_angles_deg=(-60.0, -3.0, 4.0, 21.25, 44.0, 71.0),
        n_elements=n_elements,
        element_spacing_wavelengths=spacing,
    )


@pytest.mark.parametrize("n_elements,spacing", PLAN_ARRAYS)
@pytest.mark.parametrize("n_targets", [0, 1, 3])
def test_plan_array_factor_tables_match_scalar(n_targets, n_elements, spacing):
    codebook = plan_codebook(n_elements, spacing)
    targets = PLAN_TARGETS[:n_targets]
    plan = ChannelPlan(SceneConfig(targets=targets), codebook, 16, 120e3)
    bearings = [float(np.degrees(np.arctan2(*t.pos))) for t in targets]

    def table(angles):  # [beam][target], one scalar call per entry
        return [
            [scalar_array_factor(a, b, n_elements, spacing) for b in bearings]
            for a in angles
        ]

    def same(got, expected):  # bit-identical, as complex128
        got, expected = (
            np.array(v, dtype=np.complex128).reshape(-1)
            for v in (got, expected)
        )
        return got.tobytes() == expected.tobytes()

    tx, rx = table(codebook.tx_angles_deg), table(codebook.rx_angles_deg)
    steer = np.array(codebook.tx_angles_deg)[:, None]
    assert same(array_factor(steer, bearings, n_elements, spacing), tx)
    # the plan keeps reflectivity * tx gain and the transposed rx table
    assert same(
        plan.g_tx,
        [[t.reflectivity * g for t, g in zip(targets, r)] for r in tx],
    )
    assert same(plan.g_rx, [list(c) for c in zip(*rx)])


@pytest.mark.parametrize("n_elements,spacing", PLAN_ARRAYS)
@pytest.mark.parametrize("leakage", [0.0, 5.0])
@pytest.mark.parametrize("n_targets", [0, 1, 3])
def test_plan_rows_match_per_row_oracle(
    wf_small, n_targets, leakage, n_elements, spacing
):
    codebook = plan_codebook(n_elements, spacing)
    scene = SceneConfig(
        targets=PLAN_TARGETS[:n_targets], leakage_amplitude=leakage
    )
    K, scs = wf_small.active_subcarriers, wf_small.scs_hz
    plan = ChannelPlan(scene, codebook, K, scs)
    for ti in range(len(codebook.tx_angles_deg)):
        expected = row_channel_response(scene, codebook, ti, K, scs)
        assert plan.row(ti).tobytes() == expected.tobytes(), ti


def test_empty_scene_zero(wf_small, small_codebook):
    h = ChannelPlan(
        SceneConfig(), small_codebook, 144, wf_small.scs_hz
    ).row(2)
    assert h.shape == (5, 144)
    assert np.all(h == 0)


def test_single_path_magnitude_and_phase(wf_small, boresight_codebook):
    r = 50.0
    h = ChannelPlan(
        single_target_scene(r), boresight_codebook,
        wf_small.active_subcarriers, wf_small.scs_hz,
    ).row(0)[0]
    assert np.allclose(np.abs(h), 1.0)
    # linear phase slope -2 pi scs 2r/c per subcarrier
    tau = 2 * r / C_LIGHT
    slope = np.angle(h[1] / h[0])
    expected = -2 * np.pi * wf_small.scs_hz * tau
    assert slope == pytest.approx(expected, rel=1e-9)


def test_superposition(wf_small, small_codebook):
    a = single_target_scene(20.0, leakage_amplitude=2.0)
    b = single_target_scene(35.0, bearing_deg=3.0)
    both = SceneConfig(targets=a.targets + b.targets, leakage_amplitude=2.0)

    def h(scene, tx_idx):
        return ChannelPlan(scene, small_codebook, 144, 120e3).row(tx_idx)

    for tx_idx in range(5):
        assert np.allclose(h(both, tx_idx), h(a, tx_idx) + h(b, tx_idx))


def test_channel_response_index_out_of_range(boresight_codebook):
    for tx_idx in (-1, 1):
        with pytest.raises(ConfigError):
            ChannelPlan(SceneConfig(), boresight_codebook, 8, 1.0).row(tx_idx)


def test_channel_response_rows_are_rx_beams(wf_small):
    # row r is the pair (tx_idx, rx beam r)
    codebook = BeamCodebook(
        tx_angles_deg=(-10.0, 5.0), rx_angles_deg=(-20.0, 0.0, 4.0)
    )
    r = 25.0
    scene = single_target_scene(r, bearing_deg=4.0)
    h = ChannelPlan(scene, codebook, 144, wf_small.scs_hz).row(1)
    k = np.arange(144)
    ramp = np.exp(-1j * 2 * np.pi * k * wf_small.scs_hz * 2 * r / C_LIGHT)
    for row, rx_deg in zip(h, codebook.rx_angles_deg):
        gain = array_factor(5.0, 4.0) * array_factor(rx_deg, 4.0)
        assert np.allclose(row, gain * ramp)


def test_quasi_static_within_sweep(wf_small, small_codebook):
    # a moving target's delay is identical for every beam pair of a sweep
    scene = single_target_scene(25.0, vel=(0.0, 3.0))
    plan = ChannelPlan(scene, small_codebook, 144, wf_small.scs_hz)
    h1, h2 = plan.row(0)[1], plan.row(3)[4]
    # same phase ramp (delay), different complex gain
    slope1 = np.angle(h1[1] / h1[0])
    slope2 = np.angle(h2[1] / h2[0])
    assert slope1 == pytest.approx(slope2, abs=1e-12)


def test_advance_basic():
    scene = SceneConfig(targets=(TargetTruth(pos=(0.0, 5.0), vel=(1.0, 0.0)),))
    out = advance(scene, 0.2)
    assert out.targets[0].pos == pytest.approx((0.2, 5.0))
    assert out.targets[0].vel == scene.targets[0].vel


def test_advance_zero_dt_identity():
    scene = single_target_scene(12.0, vel=(1.0, -0.5))
    out = advance(scene, 0.0)
    assert out.targets[0].pos == scene.targets[0].pos


def test_advance_composes():
    scene = single_target_scene(12.0, vel=(0.7, -0.3))
    one = advance(scene, 0.4)
    two = advance(advance(scene, 0.2), 0.2)
    assert one.targets[0].pos == pytest.approx(two.targets[0].pos)


def test_target_validation():
    with pytest.raises(ConfigError):
        TargetTruth(pos=(1.0, -2.0))
    with pytest.raises(ConfigError):
        TargetTruth(pos=(1.0, 2.0), reflectivity=0.0)


def test_codebook_validation():
    with pytest.raises(ConfigError):
        BeamCodebook(tx_angles_deg=(), rx_angles_deg=(0.0,))
    with pytest.raises(ConfigError):
        BeamCodebook(tx_angles_deg=(95.0,), rx_angles_deg=(0.0,))
    cb = BeamCodebook(tx_angles_deg=(10.0, -10.0, 0.0), rx_angles_deg=(0.0,))
    assert cb.tx_angles_deg == (-10.0, 0.0, 10.0)  # sorted
