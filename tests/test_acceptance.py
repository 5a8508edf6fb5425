"""Acceptance gate: one test per criterion, each printing a PASS line
with its measured values (run with -s or -v to see them)."""

import hashlib
import io
import time

import numpy as np
import pytest
import yaml

from ratrack import (
    BeamCodebook,
    CfarConfig,
    DbscanConfig,
    FormatError,
    MtiFilter,
    SceneConfig,
    TargetTruth,
    Tracker,
    TrackerConfig,
    TrackStatus,
    WaveformConfig,
    ca_cfar,
    dbscan,
    hungarian,
    measurement_model,
    sweep,
)
from ratrack.channel import advance
from ratrack.cli import main as cli_main
from ratrack.config import from_dict
from ratrack.metrics import Scorer
from ratrack.pipeline import (
    DETECTIONS_HEADER,
    TRACKS_HEADER,
    TRUTH_HEADER,
    build_report,
    detection_rows,
    run_tracking,
    simulate_sweeps,
    track_rows,
    truth_rows,
)
from ratrack.receiver import RaTensor
from ratrack.tensorfile import TensorWriter, read_sweeps
from ratrack.waveform import C_LIGHT

from conftest import E2E_SCENARIO, single_target_scene
from oracles import (
    brute_force_assignment,
    finite_difference_jacobian,
    reference_dbscan,
)

BORESIGHT = BeamCodebook(tx_angles_deg=(0.0,), rx_angles_deg=(0.0,))


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# SHA-256 of the `ratrack e2e` outputs on the criterion-6 and criterion-9
# scenarios (taken under numpy 2.4.6); the pipeline must reproduce them
# byte for byte
E2E_DIGESTS = {
    "detections.csv":
        "94757d0294adbfab9230634aaa71c196242b03b5a680b683e9502651ec3dd97a",
    "tracks.csv":
        "40774a012c296715517ede8adef545cf9df77d1d20f89a92da182dd88da232ef",
    "truth.csv":
        "9b7731826eb31ff5552ffc69695a70bc53248b94793c6b1087b04549f621b2ec",
    "report_summary.csv":
        "b08322af9e560a408ff383bbccba9a19216498815878bf5372f6fe9d7f23e1b7",
}
SMALL_DIGESTS = {
    "detections.csv":
        "642d3d394d6fb758d5b830afdffc05beac5e02f18f3776f19d9b0f6f6e3ede27",
    "tracks.csv":
        "d6ea686f65b2483c71ebf46bc64c4ecd1925de2e9daae0b921e8540696ca1924",
    "truth.csv":
        "4b5b376e601cb7ac26105cdccdcd49d60a31cef34342773f34d62085c13e4fdf",
    "report_summary.csv":
        "706a8932e7df23e62048829736ed3d6853cfc539e6bda470e383e9d2e35ff8e5",
}


def report(criterion, detail, elapsed, budget):
    assert elapsed < budget, (
        f"criterion {criterion} exceeded runtime budget: "
        f"{elapsed:.1f}s >= {budget}s"
    )
    print(f"\nACCEPTANCE {criterion}: PASS ({detail}; {elapsed:.1f}s)")


def test_criterion_1_waveform_and_range_accuracy():
    t0 = time.perf_counter()
    cfg = WaveformConfig()
    assert cfg.active_subcarriers == 275 * 12 == 3300
    assert cfg.scs_hz == 120e3
    assert cfg.active_subcarriers * cfg.scs_hz <= 400e6
    assert cfg.range_bin_m == pytest.approx(0.3049, abs=5e-4)

    rng = np.random.default_rng(2024)
    worst = 0.0
    for r in rng.uniform(2.0, 200.0, size=20):
        t = sweep(single_target_scene(float(r)), BORESIGHT, cfg, 0,
                  n_range=cfg.fft_size)
        peak = int(np.argmax(t.power[:, 0, 0]))
        err = abs(peak * t.bin_size_m - r)
        worst = max(worst, err)
        assert err <= t.bin_size_m
    report(1, f"20 ranges, worst error {worst:.3f} m <= 1 bin",
           time.perf_counter() - t0, 10.0)


def test_criterion_2_resolution():
    t0 = time.perf_counter()
    cfg = WaveformConfig()

    def n_peaks(sep):
        scene = SceneConfig(
            targets=(
                TargetTruth(pos=(0.0, 50.0)),
                TargetTruth(pos=(0.0, 50.0 + sep)),
            )
        )
        t = sweep(scene, BORESIGHT, cfg, 0, n_range=256)
        p = t.power[140:200, 0, 0]
        return sum(
            1
            for i in range(1, len(p) - 1)
            if p[i] > p[i - 1] and p[i] >= p[i + 1] and p[i] > 0.05 * p.max()
        )

    resolved = n_peaks(0.75)
    merged = n_peaks(0.30)
    assert resolved >= 2
    assert merged == 1
    report(2, f"0.75 m -> {resolved} maxima, 0.30 m -> {merged}",
           time.perf_counter() - t0, 5.0)


def test_criterion_3_mti_exactness_and_retention():
    t0 = time.perf_counter()
    cfg = WaveformConfig(n_symbols=2, seed=3)
    # static scene with strong leakage: exact zero after settling
    scene = single_target_scene(30.0, leakage_amplitude=30.0)
    static = [sweep(scene, BORESIGHT, cfg, k, n_range=512) for k in range(2)]
    assert np.array_equal(static[0].power, static[1].power)
    mti = MtiFilter()
    mti.apply(static[0])
    out, warm = mti.apply(static[1])
    assert not warm
    assert np.all(out.power == 0.0)

    # one bin per sweep motion: filtered peak keeps >= 50% power
    bin_rate = cfg.range_bin_m / 0.2
    scene = single_target_scene(164 * cfg.range_bin_m, vel=(0.0, bin_rate))
    mti = MtiFilter()
    tensors = []
    for k in range(2):
        tensors.append(sweep(scene, BORESIGHT, cfg, k, n_range=512))
        scene = advance(scene, 0.2)
    mti.apply(tensors[0])
    filtered, _ = mti.apply(tensors[1])
    ratio = filtered.power.max() / tensors[1].power.max()
    assert ratio >= 0.5
    report(3, f"static exactly 0, moving retention {ratio:.2f}",
           time.perf_counter() - t0, 5.0)


def test_criterion_4_cfar_calibration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    shape = (512, 45, 45)  # 1,036,800 cells
    tensor = RaTensor(
        power=rng.exponential(1.0, shape).astype(np.float32),
        tx_angles_deg=tuple(range(shape[1])),
        rx_angles_deg=tuple(range(shape[2])),
        sweep_index=0, t_start_s=0.0, bin_size_m=0.3,
    )
    dets = ca_cfar(tensor, CfarConfig(n_train=8, n_guard=2, pfa=1e-3))
    rate = len(dets) / tensor.power.size
    assert 5e-4 <= rate <= 2e-3
    report(4, f"{tensor.power.size} cells, empirical pfa {rate:.2e}",
           time.perf_counter() - t0, 30.0)


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    for _ in range(200):
        n, m = rng.integers(1, 7, size=2)
        c = rng.uniform(0, 10, size=(n, m))
        _, cost = hungarian(c)
        assert cost == pytest.approx(brute_force_assignment(c))

    cfg = DbscanConfig(eps=3.0, min_pts=3)
    for trial in range(100):
        n = int(rng.integers(2, 201))
        idx = np.column_stack(
            [rng.integers(0, 50, n), rng.integers(0, 8, n),
             rng.integers(0, 8, n)]
        )
        clusters, noise = dbscan(idx, cfg)
        pts = idx * np.array([cfg.range_scale, cfg.tx_scale, cfg.rx_scale])
        ref_cores, ref_n, ref_noise = reference_dbscan(pts, cfg.eps, cfg.min_pts)
        assert len(clusters) == ref_n
        mine = {i: cid for cid, ms in enumerate(clusters) for i in ms.tolist()}
        mapping = {}
        for i, lbl in ref_cores.items():
            assert mapping.setdefault(lbl, mine[i]) == mine[i]
        assert set(noise.tolist()) == ref_noise

    for _ in range(100):
        x = rng.uniform([-50, 1, -5, -5], [50, 100, 5, 5])
        _, H = measurement_model(x)
        H_fd = finite_difference_jacobian(
            lambda v: measurement_model(v)[0], x, step=1e-6
        )
        assert np.allclose(H, H_fd, rtol=1e-6, atol=1e-6)
    report(5, "hungarian x200, dbscan x100, jacobian x100 all match oracles",
           time.perf_counter() - t0, 20.0)


def test_criterion_6_end_to_end_two_reflectors():
    t0 = time.perf_counter()
    cfg = from_dict(E2E_SCENARIO)
    truth_log = {}
    early_tensors = []

    def gen():
        for tensor, truth in simulate_sweeps(cfg):
            truth_log[tensor.sweep_index] = truth
            if tensor.sweep_index < 6:
                early_tensors.append(tensor)
            yield tensor

    results = list(run_tracking(gen(), cfg))

    # verify the scenario sits near the 20 dB post-MTI operating point
    mti = MtiFilter()
    filt = None
    for t in early_tensors:
        filt, _ = mti.apply(t)
    snrs_db = []
    for g in truth_log[5]:
        r_bin = int(round(np.hypot(g.x, g.y) / filt.bin_size_m))
        peak = filt.power[r_bin - 2 : r_bin + 3].max()
        noise_floor = np.median(filt.power[filt.power > 0])
        mean_noise = filt.power.mean()
        snrs_db.append(10 * np.log10(peak / mean_noise))
    assert all(15.0 <= s <= 28.0 for s in snrs_db), snrs_db

    # separation and speed stay within the scenario bounds
    for k, truths in truth_log.items():
        (a, b) = truths
        assert np.hypot(a.x - b.x, a.y - b.y) >= 5.0
        for g in truths:
            assert np.hypot(g.vx, g.vy) <= 1.5

    scorer = Scorer(truth_log, cfg.run.score_radius_m)
    late_truth = {k: v for k, v in truth_log.items() if k > 15}
    late = Scorer(late_truth, cfg.run.score_radius_m)
    for r in results:
        scorer.add(r)
        if r.sweep_index > 15:
            late.add(r)
    rep_all = build_report(scorer)
    assert rep_all.n_confirmed_tracks == 2
    assert rep_all.id_switch_count == 0
    assert rep_all.false_track_count == 0

    # the bytes `ratrack e2e` writes for this scenario
    outputs = {
        "detections.csv": DETECTIONS_HEADER + "\n"
        + "".join(map(detection_rows, results)),
        "tracks.csv": TRACKS_HEADER + "\n" + "".join(map(track_rows, results)),
        "truth.csv": TRUTH_HEADER + "\n"
        + "".join(truth_rows(k, truth_log[k]) for k in sorted(truth_log)),
        "report_summary.csv": rep_all.to_csv_line(),
    }
    for name, digest in E2E_DIGESTS.items():
        assert sha256(outputs[name]) == digest, name

    rep = build_report(late)
    assert rep.pos_rmse_m <= 0.75
    assert rep.vel_rmse_mps <= 0.3
    report(
        6,
        f"2 tracks, 0 switches, 0 false, SNR {min(snrs_db):.1f}-"
        f"{max(snrs_db):.1f} dB, pos RMSE {rep.pos_rmse_m:.2f} m, "
        f"vel RMSE {rep.vel_rmse_mps:.2f} m/s",
        time.perf_counter() - t0, 60.0,
    )


def test_criterion_7_track_lifecycle():
    t0 = time.perf_counter()

    def meas_at(x, y):
        return (float(np.hypot(x, y)), float(np.arctan2(x, y)))

    # removal: coast then die after exactly max_misses + 1 missed sweeps
    cfg = TrackerConfig(max_misses=5)
    tr = Tracker(cfg)
    for k in range(6):
        tr.step([meas_at(0.0, 10.0 + 0.2 * k)], 0.2 * k)
    missed = 0
    died_at = None
    for j in range(12):
        missed += 1
        out = tr.step([], 0.2 * (6 + j))
        if any(t.status is TrackStatus.DEAD for t in out):
            died_at = missed
            break
    assert died_at == cfg.max_misses + 1

    # 3-sweep target confirmed exactly at its 3rd hit (3-of-4)
    tr = Tracker(TrackerConfig(confirm_m=3, confirm_n=4))
    s1 = tr.step([meas_at(1.0, 8.0)], 0.0)[0].status
    s2 = tr.step([meas_at(1.0, 8.1)], 0.2)[0].status
    s3 = tr.step([meas_at(1.0, 8.2)], 0.4)[0].status
    assert (s1, s2, s3) == (
        TrackStatus.TENTATIVE, TrackStatus.TENTATIVE, TrackStatus.CONFIRMED
    )
    report(7, f"death after {died_at} misses, confirmed on 3rd hit",
           time.perf_counter() - t0, 5.0)


def test_criterion_8_realtime_budget():
    t0 = time.perf_counter()
    # synthetic 512 x 21 x 21 sweeps: fresh exponential noise each sweep
    # plus a moving blob, so all stages do real work
    rng = np.random.default_rng(8)
    angles = tuple(np.arange(-50.0, 51.0, 5.0))
    tensors = []
    for k in range(6):
        p = rng.exponential(1.0, (512, 21, 21)).astype(np.float32)
        b = 100 + 2 * k
        p[b - 1 : b + 2, 9:12, 9:12] += 500.0
        tensors.append(
            RaTensor(power=p, tx_angles_deg=angles, rx_angles_deg=angles,
                     sweep_index=k, t_start_s=0.2 * k, bin_size_m=0.3049)
        )
    cfg = from_dict({"cfar": {"pfa": 1e-6}})
    per_sweep_ms = 1e3 * np.array(
        [r.detect_s + r.track_s for r in run_tracking(tensors, cfg)]
    )
    median_ms = float(np.median(per_sweep_ms))
    assert median_ms < 400.0  # 200 ms target with 2x CI slack
    report(
        8,
        f"512x21x21 detection+tracking median {median_ms:.1f} ms "
        f"(target < 200 ms, asserted < 400 ms)",
        time.perf_counter() - t0, 30.0,
    )


def test_criterion_9_determinism_and_format(tmp_path):
    t0 = time.perf_counter()
    doc = {
        "waveform": {"n_rb": 12, "fft_size": 256, "n_symbols": 2},
        "codebook": {"span_deg": 10.0, "step_deg": 5.0},
        "scene": {
            "targets": [{"pos": [0.0, 10.0], "vel": [0.0, 1.6]}],
            "noise_power": 0.01,
        },
        "run": {"n_sweeps": 6, "n_range": 64},
    }
    cfgp = tmp_path / "cfg.yaml"
    cfgp.write_text(yaml.safe_dump(doc))
    for d in ("a", "b"):
        assert cli_main(
            ["e2e", "--config", str(cfgp), "--out", str(tmp_path / d)]
        ) == 0
    for name in ("detections.csv", "tracks.csv", "truth.csv"):
        assert (tmp_path / "a" / name).read_text() == (
            tmp_path / "b" / name
        ).read_text()
    for name, digest in SMALL_DIGESTS.items():
        assert sha256((tmp_path / "a" / name).read_bytes()) == digest, name

    # tensor file round trip is bit exact
    cfg = from_dict(doc)
    tensors = [t for t, _ in simulate_sweeps(cfg)]
    buf = io.BytesIO()
    w = TensorWriter(buf, 64, tensors[0].tx_angles_deg,
                     tensors[0].rx_angles_deg, tensors[0].bin_size_m)
    for t in tensors:
        w.write(t)
    data = buf.getvalue()
    back = list(read_sweeps(io.BytesIO(data)))
    for a, b in zip(tensors, back):
        assert np.array_equal(a.power, b.power)
    buf2 = io.BytesIO()
    w2 = TensorWriter(buf2, 64, tensors[0].tx_angles_deg,
                      tensors[0].rx_angles_deg, tensors[0].bin_size_m)
    for t in back:
        w2.write(t)
    assert buf2.getvalue() == data

    # truncated file rejected with the offending byte offset
    cut = len(data) - 11
    with pytest.raises(FormatError) as exc:
        list(read_sweeps(io.BytesIO(data[:cut])))
    assert exc.value.offset == cut
    report(9, "byte-identical reruns, bit-exact round trip, truncation offset",
           time.perf_counter() - t0, 30.0)
