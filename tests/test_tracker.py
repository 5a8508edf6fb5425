import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratrack.pipeline
from ratrack import (
    ConfigError,
    SingularGeometryError,
    StreamError,
    Tracker,
    TrackerConfig,
    TrackStatus,
    associate,
    ekf_predict,
    ekf_update,
    hungarian,
    measurement_model,
    polar_to_cartesian,
)
from ratrack.config import from_dict
from ratrack.pipeline import run_tracking
from ratrack.receiver import RaTensor
from ratrack.tracker import gated_pairs, wrap_angle

from oracles import (
    ObjectTracker,
    brute_force_assignment,
    finite_difference_jacobian,
)


def make_track(x, p=1.0):
    """(x, P) of one track at state x with covariance p * I."""
    return np.asarray(x, dtype=float), p * np.eye(4)


# ------------------------------------------------- coordinate mapping


def test_polar_to_cartesian_boresight():
    assert polar_to_cartesian(5.0, 0.0) == pytest.approx((0.0, 5.0))


def test_polar_to_cartesian_diagonal():
    x, y = polar_to_cartesian(np.sqrt(2.0), np.pi / 4)
    assert (x, y) == pytest.approx((1.0, 1.0))


@settings(max_examples=50, deadline=None)
@given(
    r=st.floats(0.0, 1e3, allow_nan=False),
    th=st.floats(-np.pi, np.pi, allow_nan=False),
)
def test_polar_to_cartesian_radius_identity(r, th):
    x, y = polar_to_cartesian(r, th)
    assert x * x + y * y == pytest.approx(r * r, abs=1e-6)


def test_polar_to_cartesian_broadcasts_like_scalars():
    # the tracker converts a sweep's measurements as one array: the
    # same bytes as one scalar call per measurement
    r, th = np.array([0.0, 3.0, 12.5]), np.array([0.3, -1.2, 2.0])
    want = [polar_to_cartesian(float(a), float(b)) for a, b in zip(r, th)]
    assert np.array_equal(np.column_stack(polar_to_cartesian(r, th)), want)
    with pytest.raises(ConfigError):
        polar_to_cartesian(np.array([1.0, -1.0]), np.zeros(2))


# --------------------------------------------------------- prediction


def test_predict_constant_velocity():
    x, _ = ekf_predict(*make_track([0.0, 0.0, 1.0, 1.0]), 0.2,
                       TrackerConfig())
    assert x == pytest.approx([0.2, 0.2, 1.0, 1.0])


def test_predict_zero_process_noise_exact():
    cfg = TrackerConfig(q_accel=1e-300)
    x, P = make_track([1.0, 2.0, 0.5, -0.5], p=2.0)
    _, out_P = ekf_predict(x, P, 0.3, cfg)
    F = np.eye(4)
    F[0, 2] = F[1, 3] = 0.3
    assert np.allclose(out_P, F @ P @ F.T, atol=1e-12)


def test_predict_halves_compose():
    cfg = TrackerConfig(q_accel=1e-300)
    x, P = make_track([1.0, 2.0, 0.5, -0.5])
    one, _ = ekf_predict(x, P, 0.4, cfg)
    two, _ = ekf_predict(*ekf_predict(x, P, 0.2, cfg), 0.2, cfg)
    assert np.allclose(one, two)


def test_predict_covariance_symmetric():
    _, P = ekf_predict(*make_track([3.0, 4.0, 0.0, 0.0], p=5.0), 0.2,
                       TrackerConfig())
    assert np.array_equal(P, P.T)
    assert np.min(np.linalg.eigvalsh(P)) >= -1e-9


def test_predict_shares_no_state_with_input():
    x, P = make_track([3.0, 4.0, 1.0, 0.0])
    x0, P0 = x.copy(), P.copy()
    out_x, out_P = ekf_predict(x, P, 0.2, TrackerConfig())
    assert not np.shares_memory(out_x, x)
    assert not np.shares_memory(out_P, P)
    assert np.array_equal(x, x0) and np.array_equal(P, P0)


def test_predict_table_equals_rows_bytes():
    # one call over an (n, 4) / (n, 4, 4) table gives each row the bytes
    # of predicting that row alone
    rng = np.random.default_rng(4)
    x = rng.uniform(-30.0, 30.0, (50, 4))
    A = rng.normal(size=(50, 4, 4))
    P = A @ np.swapaxes(A, 1, 2) + np.eye(4)
    cfg = TrackerConfig(q_accel=0.7)
    tx, tP = ekf_predict(x, P, 0.2, cfg)
    assert tx.shape == (50, 4) and tP.shape == (50, 4, 4)
    for i in range(50):
        rx, rP = ekf_predict(x[i], P[i], 0.2, cfg)
        assert tx[i].tobytes() == rx.tobytes()
        assert tP[i].tobytes() == rP.tobytes()


# -------------------------------------------------- measurement model


def test_measurement_model_boresight():
    h, H = measurement_model(np.array([0.0, 5.0, 0.0, 0.0]))
    assert h == pytest.approx([5.0, 0.0])
    assert H[0] == pytest.approx([0.0, 1.0, 0.0, 0.0])


def test_measurement_model_diagonal():
    h, _ = measurement_model(np.array([1.0, 1.0, 0.0, 0.0]))
    assert h == pytest.approx([np.sqrt(2.0), np.pi / 4])


def test_measurement_model_origin_singular():
    with pytest.raises(SingularGeometryError):
        measurement_model(np.zeros(4))


def test_measurement_jacobian_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.uniform([-50, 1, -5, -5], [50, 100, 5, 5])

        def h_only(v):
            return measurement_model(v)[0]

        _, H = measurement_model(x)
        H_fd = finite_difference_jacobian(h_only, x, step=1e-6)
        assert np.allclose(H, H_fd, rtol=1e-6, atol=1e-6)


# ------------------------------------------------------------- update


def test_update_zero_innovation_keeps_state_shrinks_cov():
    cfg = TrackerConfig()
    x, P = make_track([3.0, 10.0, 0.5, 0.5], p=4.0)
    h, _ = measurement_model(x)
    out_x, out_P = ekf_update(x, P, (h[0], h[1]), cfg)
    assert np.allclose(out_x, x, atol=1e-12)
    assert np.trace(out_P) < np.trace(P)


def test_update_noise_free_velocity_convergence():
    cfg = TrackerConfig()
    track = None
    pos0 = np.array([-2.0, 10.0])
    vel = np.array([1.0, 0.5])
    for k in range(11):
        t = 0.2 * k
        p = pos0 + vel * t
        r, th = np.hypot(*p), np.arctan2(p[0], p[1])
        if track is None:
            track = make_track([p[0], p[1], 0.0, 0.0], p=25.0)
            continue
        track = ekf_predict(*track, 0.2, cfg)
        track = ekf_update(*track, (r, th), cfg)
    x, _ = track
    assert np.hypot(x[2] - 1.0, x[3] - 0.5) < 0.05


def test_update_uninformative_measurement():
    cfg = TrackerConfig(r_range_var=1e12, r_angle_var=1e12)
    x, P = make_track([3.0, 10.0, 0.5, 0.5], p=1.0)
    out_x, out_P = ekf_update(x, P, (50.0, 1.0), cfg)
    assert np.allclose(out_x, x, rtol=1e-3, atol=1e-3)
    assert np.allclose(out_P, P, rtol=1e-3, atol=1e-3)


def test_update_joseph_symmetry():
    cfg = TrackerConfig()
    _, P = ekf_update(*make_track([3.0, 10.0, 0.0, 0.0], p=9.0),
                      (11.0, 0.4), cfg)
    assert np.array_equal(P, P.T)
    assert np.min(np.linalg.eigvalsh(P)) >= -1e-9


def test_update_angle_wrap_near_pi():
    # target almost behind: theta near pi; measurement just past -pi
    cfg = TrackerConfig()
    x, P = make_track([0.1, -10.0, 0.0, 0.0], p=1.0)
    h, _ = measurement_model(x)
    z_theta = wrap_angle(h[1] + 0.2)
    out_x, _ = ekf_update(x, P, (h[0], z_theta), cfg)
    # wrapped innovation must be small, so the state moves only a little
    assert np.linalg.norm(out_x[:2] - x[:2]) < 5.0


def test_wrap_angle_range():
    rng = np.random.default_rng(1)
    for a in rng.uniform(-20, 20, 200):
        w = wrap_angle(a)
        assert -np.pi < w <= np.pi


# ---------------------------------------------------------- hungarian


def test_hungarian_simple():
    pairs, cost = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert pairs == [(0, 0), (1, 1)]
    assert cost == pytest.approx(2.0)


def test_hungarian_cross():
    pairs, cost = hungarian(np.array([[4.0, 1.0], [2.0, 8.0]]))
    assert pairs == [(0, 1), (1, 0)]
    assert cost == pytest.approx(3.0)


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n, m = rng.integers(1, 7, size=2)
        c = rng.uniform(0, 10, size=(n, m))
        _, cost = hungarian(c)
        assert cost == pytest.approx(brute_force_assignment(c))


def test_hungarian_empty():
    assert hungarian(np.zeros((0, 3))) == ([], 0.0)


# ---------------------------------------------------------- associate


def test_gated_pairs_strips_sentinel_pairs():
    # row 1 has no entry in the gate: the solver is forced through a
    # sentinel there, and that pair is dropped
    dist = np.array([[1.0, 9.0], [9.0, 9.0]])
    assert gated_pairs(dist, 2.0) == [(0, 0)]


def test_gated_pairs_prefers_more_pairs_in_gate():
    # (0, 0) alone is cheaper than (0, 1) + (1, 0), but leaves row 1
    # on a sentinel
    dist = np.array([[1.0, 1.5], [0.2, 9.0]])
    assert gated_pairs(dist, 2.0) == [(0, 1), (1, 0)]
    assert gated_pairs(np.empty((0, 3)), 2.0) == []


def test_associate_no_tracks():
    matched, um = associate(np.empty((0, 2)), np.ones((3, 2)),
                            TrackerConfig())
    assert matched == [] and um == [0, 1, 2]


def test_associate_no_measurements():
    matched, um = associate(np.ones((2, 2)), np.empty((0, 2)),
                            TrackerConfig())
    assert matched == [] and um == []


def test_associate_nearest():
    cfg = TrackerConfig(gate_m=2.0)
    tracks = np.array([[0.0, 5.0], [0.0, 10.0]])
    meas = np.array([[0.1, 5.0], [-0.1, 10.0]])
    matched, um = associate(tracks, meas, cfg)
    assert sorted(matched) == [(0, 0), (1, 1)]
    assert um == []


def test_associate_all_gated_out():
    cfg = TrackerConfig(gate_m=2.0)
    tracks = np.array([[0.0, 5.0], [0.0, 10.0]])
    far = np.column_stack(polar_to_cartesian(np.array([50.0, 60.0]),
                                             np.array([1.0, -1.0])))
    matched, um = associate(tracks, far, cfg)
    assert matched == [] and um == [0, 1]


def test_associate_partial_matching_property():
    rng = np.random.default_rng(3)
    cfg = TrackerConfig(gate_m=3.0)
    for _ in range(20):
        tracks = rng.uniform(1, 30, size=(4, 2))
        meas = np.column_stack(polar_to_cartesian(
            rng.uniform(1, 40, 5), rng.uniform(-1, 1, 5)))
        matched, um = associate(tracks, meas, cfg)
        t_used = [i for i, _ in matched]
        m_used = [j for _, j in matched]
        assert len(set(t_used)) == len(t_used)
        assert len(set(m_used)) == len(m_used)
        assert sorted(m_used + um) == list(range(5))
        assert all(np.hypot(*(tracks[i] - meas[j])) <= cfg.gate_m
                   for i, j in matched)


# ---------------------------------------------------------- lifecycle


def meas_at(x, y):
    return (float(np.hypot(x, y)), float(np.arctan2(x, y)))


def test_fresh_tracker_spawns_tentative():
    tr = Tracker(TrackerConfig())
    out = tr.step([meas_at(1.0, 8.0)], 0.0)
    assert len(out) == 1
    assert out[0].status is TrackStatus.TENTATIVE
    assert out[0].x[:2] == pytest.approx([1.0, 8.0])
    assert out[0].x[2:] == pytest.approx([0.0, 0.0])


def test_confirm_after_three_hits():
    tr = Tracker(TrackerConfig(confirm_m=3, confirm_n=4))
    statuses = []
    for k in range(3):
        out = tr.step([meas_at(1.0, 8.0 + 0.1 * k)], 0.2 * k)
        statuses.append(out[0].status)
    assert statuses == [
        TrackStatus.TENTATIVE, TrackStatus.TENTATIVE, TrackStatus.CONFIRMED
    ]


def test_track_coasts_and_dies():
    cfg = TrackerConfig(max_misses=5)
    tr = Tracker(cfg)
    for k in range(5):
        out = tr.step([meas_at(0.5, 10.0 + 0.2 * k)], 0.2 * k)
    assert out[0].status is TrackStatus.CONFIRMED
    vy = out[0].x[3]
    assert vy > 0.5  # roughly 1 m/s down-range
    # target disappears; track must coast for max_misses sweeps and die
    # on the (max_misses + 1)-th missed sweep
    death_sweep = None
    for j in range(10):
        out = tr.step([], 0.2 * (5 + j))
        dead = [t for t in out if t.status is TrackStatus.DEAD]
        if dead:
            death_sweep = j
            coasted = dead[0]
            break
    assert death_sweep == 5  # 6th missed sweep (0-based)
    assert coasted.x[1] > 10.8  # kept moving on prediction


def test_ids_never_reused():
    tr = Tracker(TrackerConfig(max_misses=0))
    a = tr.step([meas_at(0.0, 5.0)], 0.0)[0].id
    tr.step([], 0.2)  # track dies
    b = tr.step([meas_at(0.0, 5.0)], 0.4)[0].id
    assert b != a


def test_zero_range_measurement_never_spawns():
    # range 0 has no bearing; a track spawned there would sit at the
    # singular origin of the measurement model
    tr = Tracker(TrackerConfig())
    target = meas_at(1.0, 8.0)
    origin = (0.0, 0.3)
    snapshots = tr.step([origin, target], 0.0)
    snapshots += tr.step([target, origin], 0.2)
    assert len({t.id for t in snapshots}) == 1
    assert all(np.hypot(*t.x[:2]) > 1.0 for t in snapshots)


def test_zero_range_measurement_updates_nearby_track():
    tr = Tracker(TrackerConfig())
    first = tr.step([meas_at(0.3, 0.5)], 0.0)[0]
    out = tr.step([(0.0, 0.0)], 0.2)
    assert [t.id for t in out] == [first.id]
    assert np.hypot(*out[0].x[:2]) < np.hypot(*first.x[:2])


@pytest.mark.parametrize("bad", [
    np.zeros(4), np.zeros((2, 3)), np.zeros((3, 1)), np.zeros((1, 2, 1)),
    np.zeros((0, 3)), [(10.0, 0.1, 2.0)],
])
def test_measurements_not_m_by_2_rejected(bad):
    tr = Tracker(TrackerConfig())
    tr.step([(10.0, 0.0)], 0.0)
    with pytest.raises(StreamError, match=r"\(m, 2\)"):
        tr.step(bad, 0.2)
    # the table is untouched: the next well-formed step still tracks
    out = tr.step(np.array([(10.0, 0.0)]), 0.2)
    assert [t.age for t in out] == [2]


def test_non_monotone_time_rejected():
    tr = Tracker(TrackerConfig())
    tr.step([], 0.2)
    with pytest.raises(StreamError):
        tr.step([], 0.2)


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("t_bad", [np.nan, np.inf, -np.inf])
def test_non_finite_time_rejected(first, t_bad):
    tr = Tracker(TrackerConfig())
    if not first:
        tr.step([(10.0, 0.0)], 0.0)
    with pytest.raises(StreamError):
        tr.step([(10.0, 0.0)], t_bad)
    # the table is untouched: the next finite step still tracks
    out = tr.step([(10.0, 0.0)], 0.2)
    assert all(np.all(np.isfinite(t.x)) for t in out)


def test_identity_stability_two_targets():
    cfg = TrackerConfig(gate_m=2.0)
    tr = Tracker(cfg)
    ids_per_sweep = []
    for k in range(30):
        t = 0.2 * k
        m1 = meas_at(-3.0 + 0.3 * t, 8.0 + 0.5 * t)
        m2 = meas_at(4.0 - 0.3 * t, 20.0 - 0.5 * t)  # separation >> 2*gate
        out = tr.step([m1, m2], t)
        ids_per_sweep.append(sorted(tt.id for tt in out))
    assert all(ids == ids_per_sweep[0] for ids in ids_per_sweep)


def test_coasting_continuity():
    # a single missed sweep must not degrade position error by more
    # than 2x versus an uninterrupted track (noiseless CV target)
    def run(miss_sweep):
        cfg = TrackerConfig()
        tr = Tracker(cfg)
        err = None
        for k in range(12):
            t = 0.2 * k
            p = (1.0 + 0.8 * t, 10.0 + 0.6 * t)
            meas = [] if k == miss_sweep else [meas_at(*p)]
            out = tr.step(meas, t)
            if k == 11:
                err = np.hypot(out[0].x[0] - p[0], out[0].x[1] - p[1])
        return err

    e_miss = run(miss_sweep=9)
    e_clean = run(miss_sweep=None)
    assert e_miss <= 2 * max(e_clean, 1e-3)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrackerConfig(q_accel=0.0)
    with pytest.raises(ConfigError):
        TrackerConfig(confirm_m=5, confirm_n=4)


@pytest.mark.parametrize(
    "field",
    ["q_accel", "r_range_var", "r_angle_var", "gate_m", "p0_pos_var",
     "p0_vel_var"],
)
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_config_rejects_non_finite_or_non_positive(field, value):
    with pytest.raises(ConfigError):
        TrackerConfig(**{field: value})


@pytest.mark.parametrize(
    "kw",
    [{"confirm_m": 0}, {"confirm_m": -1}, {"confirm_n": 0},
     {"max_misses": -1}, {"max_misses": np.nan}, {"confirm_m": 2.5}],
)
def test_config_rejects_integer_out_of_range(kw):
    with pytest.raises(ConfigError):
        TrackerConfig(**kw)


def test_config_integer_lower_bounds_accepted():
    cfg = TrackerConfig(confirm_m=1, confirm_n=1, max_misses=0)
    tr = Tracker(cfg)
    tr.step([(10.0, 0.0)], 0.0)
    out = tr.step([(10.0, 0.0)], 0.2)
    assert out[0].status is TrackStatus.CONFIRMED
    assert tr.step([], 0.4)[0].status is TrackStatus.DEAD


# ------------------------------------------------------ track table


def test_step_records_are_frozen_and_kept():
    # a record is read-only, and later steps leave it as it was
    tr = Tracker(TrackerConfig())
    first = tr.step([meas_at(1.0, 8.0)], 0.0)[0]
    x, P = first.x.copy(), first.P.copy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.age = 5
    for k in range(1, 4):
        tr.step([meas_at(1.0, 8.0 + 0.1 * k)], 0.2 * k)
    assert first.age == 1 and first.status is TrackStatus.TENTATIVE
    assert np.array_equal(first.x, x) and np.array_equal(first.P, P)


@pytest.mark.parametrize("confirm_n,width", [(1, 1), (4, 4), (10**6, 7),
                                             (2**70, 7)])
def test_hit_window_bounded(confirm_n, width):
    # the M-of-N window holds min(confirm_n, sweeps stepped) columns
    tr = Tracker(TrackerConfig(confirm_m=1, confirm_n=confirm_n))
    for k in range(7):
        out = tr.step([meas_at(1.0, 8.0)], 0.2 * k)
    assert tr.window.shape == (1, width)
    assert out[0].status is TrackStatus.CONFIRMED


def assert_same_records(got, want):
    assert [(t.id, t.status, t.age) for t in got] == \
        [(t.id, t.status, t.age) for t in want]
    for a, b in zip(got, want):
        assert a.x.tobytes() == b.x.tobytes()
        assert a.P.tobytes() == b.P.tobytes()


def clutter_tensors(n_sweeps=20, seed=21):
    # pure exponential noise: at the default pfa 1e-3 the realized pfa
    # after MTI is ~1e-2, so each sweep spawns, matches and kills tracks
    rng = np.random.default_rng(seed)
    angles = tuple(np.arange(-25.0, 26.0, 5.0))
    for k in range(n_sweeps):
        yield RaTensor(
            power=rng.exponential(1.0, (128, 11, 11)).astype(np.float32),
            tx_angles_deg=angles, rx_angles_deg=angles, sweep_index=k,
            t_start_s=0.2 * k, bin_size_m=0.3049,
        )


EDGE_TRACKERS = [
    {}, {"confirm_m": 1, "confirm_n": 1}, {"max_misses": 0},
    {"confirm_m": 2, "confirm_n": 6, "gate_m": 4.0},
]


@pytest.mark.parametrize("tracker_doc", EDGE_TRACKERS)
def test_tracker_matches_object_oracle_on_clutter(monkeypatch, tracker_doc):
    # the track table steps through run_tracking exactly as the
    # per-track tracker does: same records, same x and P bytes
    cfg = from_dict({"tracker": tracker_doc})
    got = [r.tracks for r in run_tracking(clutter_tensors(), cfg)]
    monkeypatch.setattr(ratrack.pipeline, "Tracker", ObjectTracker)
    want = [r.tracks for r in run_tracking(clutter_tensors(), cfg)]
    assert sum(map(len, want)) > 100
    assert any(t.status is TrackStatus.CONFIRMED for ts in want for t in ts)
    assert any(t.status is TrackStatus.DEAD for ts in want for t in ts)
    for a, b in zip(got, want, strict=True):
        assert_same_records(a, b)


@pytest.mark.parametrize("tracker_doc", EDGE_TRACKERS)
def test_tracker_matches_object_oracle_on_stream(tracker_doc):
    # two movers, one near the origin, with clutter, dropouts and
    # range-0 measurements, stepped directly
    cfg = from_dict({"tracker": tracker_doc}).tracker
    rng = np.random.default_rng(5)
    table, oracle = Tracker(cfg), ObjectTracker(cfg)
    for k in range(40):
        t = 0.2 * k
        meas = [meas_at(0.4 + 0.1 * t, 0.6 - 0.05 * t),
                meas_at(-3.0 + 0.3 * t, 12.0 + 0.5 * t)]
        meas = [z for z in meas if rng.random() < 0.8]
        meas += [(0.0, float(th)) for th in rng.uniform(-1, 1, k % 3)]
        meas += [(float(r), float(th)) for r, th in zip(
            rng.uniform(1, 30, 4), rng.uniform(-1, 1, 4))]
        meas = [meas[i] for i in rng.permutation(len(meas))]
        assert_same_records(table.step(meas, t), oracle.step(meas, t))
