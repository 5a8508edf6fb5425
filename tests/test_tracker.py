import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratrack import (
    ConfigError,
    SingularGeometryError,
    StreamError,
    Tracker,
    TrackerConfig,
    TrackState,
    TrackStatus,
    associate,
    ekf_predict,
    ekf_update,
    hungarian,
    measurement_model,
    polar_to_cartesian,
)
from ratrack.tracker import gated_pairs, transition_matrices, wrap_angle

from oracles import brute_force_assignment, finite_difference_jacobian


def make_track(x, p=1.0, tid=0):
    return TrackState(id=tid, x=np.asarray(x, dtype=float), P=p * np.eye(4))


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


# --------------------------------------------------------- prediction


def test_predict_constant_velocity():
    t = make_track([0.0, 0.0, 1.0, 1.0])
    out = ekf_predict(t, 0.2, TrackerConfig())
    assert out.x == pytest.approx([0.2, 0.2, 1.0, 1.0])


def test_predict_zero_process_noise_exact():
    cfg = TrackerConfig(q_accel=1e-300)
    t = make_track([1.0, 2.0, 0.5, -0.5], p=2.0)
    out = ekf_predict(t, 0.3, cfg)
    F = np.eye(4)
    F[0, 2] = F[1, 3] = 0.3
    assert np.allclose(out.P, F @ t.P @ F.T, atol=1e-12)


def test_predict_halves_compose():
    cfg = TrackerConfig(q_accel=1e-300)
    t = make_track([1.0, 2.0, 0.5, -0.5])
    one = ekf_predict(t, 0.4, cfg)
    two = ekf_predict(ekf_predict(t, 0.2, cfg), 0.2, cfg)
    assert np.allclose(one.x, two.x)


def test_predict_covariance_symmetric():
    t = make_track([3.0, 4.0, 0.0, 0.0], p=5.0)
    out = ekf_predict(t, 0.2, TrackerConfig())
    assert np.array_equal(out.P, out.P.T)
    assert np.min(np.linalg.eigvalsh(out.P)) >= -1e-9


def test_predict_shares_no_state_with_input():
    t = make_track([3.0, 4.0, 1.0, 0.0])
    t.history.append(True)
    out = ekf_predict(t, 0.2, TrackerConfig())
    out.history.append(False)
    assert not np.shares_memory(out.x, t.x)
    assert not np.shares_memory(out.P, t.P)
    assert list(t.history) == [True]


def test_transition_matrices_cached_read_only():
    F, Q = transition_matrices(0.2, 1.0)
    assert transition_matrices(0.2, 1.0)[0] is F
    with pytest.raises(ValueError):
        F[0, 2] = 1.0
    with pytest.raises(ValueError):
        Q[0, 0] = 1.0


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
    t = make_track([3.0, 10.0, 0.5, 0.5], p=4.0)
    h, _ = measurement_model(t.x)
    out = ekf_update(t, (h[0], h[1]), cfg)
    assert np.allclose(out.x, t.x, atol=1e-12)
    assert np.trace(out.P) < np.trace(t.P)


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
        track = ekf_predict(track, 0.2, cfg)
        track = ekf_update(track, (r, th), cfg)
    assert np.hypot(track.x[2] - 1.0, track.x[3] - 0.5) < 0.05


def test_update_uninformative_measurement():
    cfg = TrackerConfig(r_range_var=1e12, r_angle_var=1e12)
    t = make_track([3.0, 10.0, 0.5, 0.5], p=1.0)
    out = ekf_update(t, (50.0, 1.0), cfg)
    assert np.allclose(out.x, t.x, rtol=1e-3, atol=1e-3)
    assert np.allclose(out.P, t.P, rtol=1e-3, atol=1e-3)


def test_update_joseph_symmetry():
    cfg = TrackerConfig()
    t = make_track([3.0, 10.0, 0.0, 0.0], p=9.0)
    out = ekf_update(t, (11.0, 0.4), cfg)
    assert np.array_equal(out.P, out.P.T)
    assert np.min(np.linalg.eigvalsh(out.P)) >= -1e-9


def test_update_angle_wrap_near_pi():
    # target almost behind: theta near pi; measurement just past -pi
    cfg = TrackerConfig()
    t = make_track([0.1, -10.0, 0.0, 0.0], p=1.0)
    h, _ = measurement_model(t.x)
    z_theta = wrap_angle(h[1] + 0.2)
    out = ekf_update(t, (h[0], z_theta), cfg)
    # wrapped innovation must be small, so the state moves only a little
    assert np.linalg.norm(out.x[:2] - t.x[:2]) < 5.0


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
    matched, ut, um = associate([], [(5.0, 0.0)] * 3, TrackerConfig())
    assert matched == [] and ut == [] and um == [0, 1, 2]


def test_associate_nearest():
    cfg = TrackerConfig(gate_m=2.0)
    tracks = [make_track([0.0, 5.0, 0, 0], tid=0),
              make_track([0.0, 10.0, 0, 0], tid=1)]
    z1 = (np.hypot(0.1, 5.0), np.arctan2(0.1, 5.0))
    z2 = (np.hypot(-0.1, 10.0), np.arctan2(-0.1, 10.0))
    matched, ut, um = associate(tracks, [z1, z2], cfg)
    assert sorted(matched) == [(0, 0), (1, 1)]
    assert ut == [] and um == []


def test_associate_all_gated_out():
    cfg = TrackerConfig(gate_m=2.0)
    tracks = [make_track([0.0, 5.0, 0, 0]), make_track([0.0, 10.0, 0, 0])]
    far = [(50.0, 1.0), (60.0, -1.0)]
    matched, ut, um = associate(tracks, far, cfg)
    assert matched == []
    assert ut == [0, 1] and um == [0, 1]


def test_associate_partial_matching_property():
    rng = np.random.default_rng(3)
    cfg = TrackerConfig(gate_m=3.0)
    for _ in range(20):
        tracks = [
            make_track([x, y, 0, 0], tid=i)
            for i, (x, y) in enumerate(rng.uniform(1, 30, size=(4, 2)))
        ]
        meas = [
            (float(r), float(th))
            for r, th in zip(rng.uniform(1, 40, 5), rng.uniform(-1, 1, 5))
        ]
        matched, ut, um = associate(tracks, meas, cfg)
        t_used = [i for i, _ in matched]
        m_used = [j for _, j in matched]
        assert len(set(t_used)) == len(t_used)
        assert len(set(m_used)) == len(m_used)
        assert sorted(t_used + ut) == list(range(4))
        assert sorted(m_used + um) == list(range(5))


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
        tr.step([meas_at(0.5, 10.0 + 0.2 * k)], 0.2 * k)
    assert tr.tracks[0].status is TrackStatus.CONFIRMED
    vy = tr.tracks[0].x[3]
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
    assert out[0].hits == 2
    assert np.hypot(*out[0].x[:2]) < np.hypot(*first.x[:2])


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
