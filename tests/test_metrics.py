import numpy as np
import pytest

from ratrack import Scorer, TrackState, TrackStatus
from ratrack.detector import Cluster
from ratrack.metrics import TruthEntry, match_to_truth
from ratrack.pipeline import SweepResult

from oracles import brute_force_assignment


def truth(key, x, y, vx=0.0, vy=0.0):
    return TruthEntry(target_key=key, x=x, y=y, vx=vx, vy=vy)


def track(tid, x, y, vx=0.0, vy=0.0, status=TrackStatus.CONFIRMED):
    return TrackState(
        id=tid, x=np.array([x, y, vx, vy], dtype=float), P=np.eye(4),
        status=status,
    )


def cluster_at(x, y):
    return Cluster(
        centroid_range_m=float(np.hypot(x, y)),
        centroid_angle_deg=float(np.degrees(np.arctan2(x, y))),
        total_power=1.0,
    )


def result(k, tracks=(), clusters=()):
    return SweepResult(
        sweep_index=k, t_start_s=0.2 * k, clusters=tuple(clusters),
        tracks=tuple(tracks), n_cells=0, n_detections=0,
        detect_s=0.0, track_s=0.0,
    )


def score(tracks_log, truth_log, radius_m=2.0, clusters_log=None):
    scorer = Scorer(truth_log, radius_m)
    for k in sorted(set(tracks_log) | set(clusters_log or {})):
        scorer.add(result(k, tracks_log.get(k, ()),
                          (clusters_log or {}).get(k, ())))
    return scorer.report()


def matched(tracks, truths, radius_m=2.0):
    return [
        (t.id, g.target_key, d)
        for t, g, d in match_to_truth(tracks, truths, radius_m)
    ]


def test_exact_match():
    assert matched([track(7, 3.0, 10.0)], [truth(0, 3.0, 10.0)]) == [
        (7, 0, 0.0)
    ]


def test_out_of_radius_unmatched():
    assert matched(
        [track(7, 3.0, 20.0)], [truth(0, 3.0, 10.0)], radius_m=2.0
    ) == []


def test_tentative_tracks_not_scored():
    assert matched(
        [track(7, 3.0, 10.0, status=TrackStatus.TENTATIVE)],
        [truth(0, 3.0, 10.0)],
    ) == []


def test_crossing_matching_cost_optimal():
    rng = np.random.default_rng(0)
    for _ in range(20):
        tps = rng.uniform(0, 10, size=(2, 2))
        gps = rng.uniform(0, 10, size=(2, 2))
        pairs = matched(
            [track(i, *p) for i, p in enumerate(tps)],
            [truth(j, *g) for j, g in enumerate(gps)],
            radius_m=100.0,
        )
        got = sum(d for _, _, d in pairs)
        cost = np.array(
            [[np.hypot(*(tp - gp)) for gp in gps] for tp in tps]
        )
        assert got == pytest.approx(brute_force_assignment(cost))


def test_perfect_tracking_report():
    tracks_log = {
        k: [track(1, 0.1 * k, 10.0, 0.5, 0.0)] for k in range(5)
    }
    truth_log = {k: [truth(0, 0.1 * k, 10.0, 0.5, 0.0)] for k in range(5)}
    rep = score(tracks_log, truth_log)
    assert rep.pos_rmse_m == pytest.approx(0.0)
    assert rep.vel_rmse_mps == pytest.approx(0.0)
    assert rep.id_switch_count == 0
    assert rep.false_track_count == 0
    assert rep.track_fragmentation == 0
    assert rep.n_confirmed_tracks == 1


def test_constant_offset_rmse():
    tracks_log = {k: [track(1, 0.3, 10.0)] for k in range(10)}
    truth_log = {k: [truth(0, 0.0, 10.0)] for k in range(10)}
    rep = score(tracks_log, truth_log)
    assert rep.pos_rmse_m == pytest.approx(0.3)


def test_id_switch_counted():
    tracks_log = {
        0: [track(1, 0.0, 10.0)],
        1: [track(1, 0.0, 10.0)],
        2: [track(2, 0.0, 10.0)],  # identity changes here
        3: [track(2, 0.0, 10.0)],
    }
    truth_log = {k: [truth(0, 0.0, 10.0)] for k in range(4)}
    rep = score(tracks_log, truth_log)
    assert rep.id_switch_count == 1
    assert rep.track_fragmentation == 1


def test_false_track_counted():
    tracks_log = {
        k: [track(1, 0.0, 10.0), track(9, 30.0, 40.0)] for k in range(4)
    }
    truth_log = {k: [truth(0, 0.0, 10.0)] for k in range(4)}
    rep = score(tracks_log, truth_log)
    assert rep.false_track_count == 1
    assert rep.n_confirmed_tracks == 2


def test_no_truth_counts_no_false_tracks():
    tracks_log = {k: [track(1, 0.0, 10.0)] for k in range(4)}
    rep = score(tracks_log, {})
    assert rep.n_confirmed_tracks == 1
    assert rep.false_track_count == 0
    assert np.isnan(rep.pos_rmse_m)


def test_truth_may_arrive_while_streaming():
    # e2e records sweep k's truth only just before it tracks sweep k
    tracks_log = {
        k: [track(1, 0.2, 10.0), track(9, 30.0, 40.0)] for k in range(4)
    }
    full = {k: [truth(0, 0.0, 10.0)] for k in range(4)}
    live: dict = {}
    scorer = Scorer(live, 2.0)
    for k in range(4):
        live[k] = full[k]
        scorer.add(result(k, tracks_log[k]))
    assert scorer.report().to_text() == score(tracks_log, full).to_text()
    assert scorer.report().false_track_count == 1


def test_no_switch_when_single_id_per_target():
    tracks_log = {k: [track(5, 1.0 * k, 10.0)] for k in range(6)}
    truth_log = {k: [truth(3, 1.0 * k, 10.0)] for k in range(6)}
    rep = score(tracks_log, truth_log)
    assert rep.id_switch_count == 0


def test_rmse_invariant_to_id_relabeling():
    tracks_a = {k: [track(1, 0.2, 10.0)] for k in range(5)}
    tracks_b = {k: [track(42, 0.2, 10.0)] for k in range(5)}
    truth_log = {k: [truth(0, 0.0, 10.0)] for k in range(5)}
    rep_a = score(tracks_a, truth_log)
    rep_b = score(tracks_b, truth_log)
    assert rep_a.pos_rmse_m == pytest.approx(rep_b.pos_rmse_m)


def test_confirm_delay():
    # a cluster falls near the target at sweep 0; track 1 is first
    # confirmed at sweep 2
    tracks_log = {k: [track(1, 0.0, 10.0)] for k in range(2, 6)}
    truth_log = {k: [truth(0, 0.0, 10.0)] for k in range(6)}
    rep = score(tracks_log, truth_log,
                clusters_log={0: [cluster_at(0.5, 10.0)]})
    assert rep.mean_confirm_delay_sweeps == pytest.approx(2.0)


def test_report_serialization_roundtrip_fields():
    rep = score({0: [track(1, 0.0, 10.0)]}, {0: [truth(0, 0.0, 10.0)]})
    text = rep.to_text()
    assert "position RMSE" in text
    csv = rep.to_csv_line()
    assert csv.splitlines()[0].startswith("n_confirmed,")
    assert len(csv.splitlines()) == 2
