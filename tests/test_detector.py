import tracemalloc

import numpy as np
import pytest

from ratrack import (
    CfarConfig,
    ConfigError,
    DbscanConfig,
    Detection,
    MtiFilter,
    SceneConfig,
    StreamError,
    TargetTruth,
    ca_cfar,
    cfar_threshold_factor,
    cluster_detections,
    dbscan,
    sweep,
)
from ratrack.detector import make_cluster
from ratrack.receiver import RaTensor

from oracles import bfs_dbscan, gather_ca_cfar, reference_dbscan


def make_tensor(power, bin_size_m=0.3049):
    power = np.asarray(power, dtype=np.float32)
    return RaTensor(
        power=power,
        tx_angles_deg=tuple(np.linspace(-10, 10, power.shape[1])),
        rx_angles_deg=tuple(np.linspace(-10, 10, power.shape[2])),
        sweep_index=make_tensor.k,
        t_start_s=0.2 * make_tensor.k,
        bin_size_m=bin_size_m,
    )


make_tensor.k = 0


def tensor_stream(arrays):
    out = []
    for k, a in enumerate(arrays):
        make_tensor.k = k
        out.append(make_tensor(a))
    make_tensor.k = 0
    return out


# ---------------------------------------------------------------- MTI


def test_mti_taps_must_sum_to_zero():
    with pytest.raises(ConfigError):
        MtiFilter(taps=(1.0, -0.5))
    with pytest.raises(ConfigError):
        MtiFilter(taps=(1.0,))
    MtiFilter(taps=(1.0, -2.0, 1.0))  # 3-pulse canceller is fine


def test_mti_warmup_then_exact_cancellation():
    rng = np.random.default_rng(0)
    static = rng.exponential(1.0, (32, 3, 3)).astype(np.float32)
    mti = MtiFilter()
    t0, t1 = tensor_stream([static, static])
    out0, warm0 = mti.apply(t0)
    assert warm0 and np.all(out0.power == 0)
    out1, warm1 = mti.apply(t1)
    assert not warm1
    assert np.all(out1.power == 0)  # exact, not approximate


def test_mti_moving_target_retention():
    # disjoint impulses one bin apart: the two-point difference keeps
    # the full peak power at the new position
    a = np.zeros((32, 1, 1))
    b = np.zeros((32, 1, 1))
    a[10] = 4.0
    b[11] = 4.0
    mti = MtiFilter()
    t0, t1 = tensor_stream([a, b])
    mti.apply(t0)
    out, _ = mti.apply(t1)
    assert out.power[11, 0, 0] >= 0.5 * 4.0


def test_mti_leakage_suppression():
    # static 30x leakage cancels exactly while the moving target survives
    scene_template = dict(leakage_amplitude=30.0, leakage_range_m=0.5)
    from conftest import single_target_scene
    from ratrack import BeamCodebook, WaveformConfig

    wf = WaveformConfig(seed=2, n_symbols=2)
    cb = BeamCodebook(tx_angles_deg=(0.0,), rx_angles_deg=(0.0,))
    bin_rate = wf.range_bin_m / 0.2  # one bin per sweep
    # target far from the leakage range so its own range sidelobes do
    # not mask the cancellation check at the low bins
    scene = single_target_scene(
        400 * wf.range_bin_m, vel=(0.0, bin_rate), **scene_template
    )
    mti = MtiFilter()
    tensors = []
    from ratrack.channel import advance

    for k in range(3):
        tensors.append(sweep(scene, cb, wf, k, n_range=512))
        scene = advance(scene, 0.2)
    unfiltered_leak = tensors[1].power[:3].max()
    mti.apply(tensors[0])
    out, _ = mti.apply(tensors[1])
    peak = out.power.max()
    assert peak > 0
    assert unfiltered_leak > peak  # CFAR would fire on raw leakage
    # leakage sits near bin 0; it must be essentially gone
    assert out.power[:3].max() < 1e-6 * peak


def test_mti_dim_change_rejected():
    mti = MtiFilter()
    a, = tensor_stream([np.zeros((16, 2, 2))])
    make_tensor.k = 1
    b = make_tensor(np.zeros((16, 3, 3)))
    make_tensor.k = 0
    mti.apply(a)
    with pytest.raises(StreamError):
        mti.apply(b)


# --------------------------------------------------------------- CFAR


def test_threshold_factor_values():
    assert cfar_threshold_factor(16, 1e-2) == pytest.approx(5.33634, abs=1e-4)
    assert cfar_threshold_factor(1, 0.5) == pytest.approx(1.0)


def test_threshold_factor_monotone_in_pfa():
    alphas = [cfar_threshold_factor(16, p) for p in (1e-4, 1e-3, 1e-2, 1e-1)]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))


def test_threshold_factor_validation():
    with pytest.raises(ConfigError):
        cfar_threshold_factor(0, 0.1)
    with pytest.raises(ConfigError):
        cfar_threshold_factor(4, 1.5)


def test_cfar_all_zero_no_detections():
    t, = tensor_stream([np.zeros((64, 2, 2))])
    assert ca_cfar(t, CfarConfig()) == []


def test_cfar_detects_strong_impulse():
    rng = np.random.default_rng(7)
    p = rng.exponential(1.0, (128, 1, 1))
    p[60, 0, 0] = 1000.0
    t, = tensor_stream([p])
    dets = ca_cfar(t, CfarConfig(n_train=8, n_guard=2, pfa=1e-3))
    assert any(d.range_idx == 60 for d in dets)


def test_cfar_scale_invariance():
    rng = np.random.default_rng(8)
    p = rng.exponential(1.0, (128, 2, 2))
    p[40, 1, 0] = 500.0
    t1, = tensor_stream([p])
    make_tensor.k = 0
    t2 = make_tensor(7.3 * p)
    d1 = ca_cfar(t1, CfarConfig())
    d2 = ca_cfar(t2, CfarConfig())
    assert [(d.range_idx, d.tx_idx, d.rx_idx) for d in d1] == [
        (d.range_idx, d.tx_idx, d.rx_idx) for d in d2
    ]


def test_cfar_window_too_large():
    t, = tensor_stream([np.zeros((16, 1, 1))])
    with pytest.raises(ConfigError):
        ca_cfar(t, CfarConfig(n_train=8, n_guard=2))


def test_cfar_empirical_pfa_exponential_noise():
    rng = np.random.default_rng(9)
    p = rng.exponential(1.0, (512, 20, 20))
    t, = tensor_stream([p])
    dets = ca_cfar(t, CfarConfig(pfa=1e-3))
    rate = len(dets) / p.size
    assert 3e-4 <= rate <= 3e-3  # coarse check; tight one in acceptance


def test_cfar_edge_cells_calibrated():
    # only look at the first/last few range cells over many beams
    rng = np.random.default_rng(10)
    p = rng.exponential(1.0, (24, 100, 100))
    t, = tensor_stream([p])
    dets = ca_cfar(t, CfarConfig(n_train=8, n_guard=2, pfa=1e-2))
    edge = [d for d in dets if d.range_idx < 4 or d.range_idx >= 20]
    n_edge_cells = 8 * 100 * 100
    rate = len(edge) / n_edge_cells
    assert 0.3e-2 <= rate <= 3e-2


def cfar_tuples(dets):
    return [(d.range_idx, d.tx_idx, d.rx_idx, d.power) for d in dets]


def raw_tensor(power):
    """A tensor holding power as given, in its own dtype."""
    return RaTensor(
        power=power, tx_angles_deg=(0.0,) * power.shape[1],
        rx_angles_deg=(0.0,) * power.shape[2], sweep_index=0,
        t_start_s=0.0, bin_size_m=0.3,
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("extra_bins", [0, 1, 7, 100])
@pytest.mark.parametrize(
    "n_train,n_guard,pfa",
    [(8, 2, 1e-3), (1, 0, 0.5), (3, 0, 1e-12), (4, 1, 0.5), (2, 5, 1e-12)],
)
def test_cfar_identical_to_gather(dtype, extra_bins, n_train, n_guard, pfa):
    # range axes from the minimum window upward; all-zero stretches
    # give zero thresholds (and zero-power cells that must not hit)
    n = 2 * (n_train + n_guard) + 1 + extra_bins
    rng = np.random.default_rng(extra_bins + 10 * n_train + n_guard)
    p = rng.exponential(1.0, (n, 4, 3)) * rng.choice([0.01, 1.0, 50.0], n)[
        :, None, None
    ]
    p[n // 3 : n // 3 + n_train + 2, :2] = 0.0
    p[:, 2, 1] = 0.0
    p[rng.integers(0, n, 3), rng.integers(0, 4, 3), rng.integers(0, 3, 3)] = (
        1e3
    )
    t = raw_tensor(p.astype(dtype))
    cfg = CfarConfig(n_train=n_train, n_guard=n_guard, pfa=pfa)
    got = ca_cfar(t, cfg)
    assert cfar_tuples(got) == cfar_tuples(gather_ca_cfar(t, cfg))
    assert all(type(d.power) is float for d in got)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cfar_cell_at_threshold_is_not_a_hit(dtype):
    # n_train 1, n_guard 0, pfa 1/4: an interior cell trains on its two
    # neighbours with factor 4^(1/2) - 1 = 1, so its threshold is their
    # sum exactly; only power strictly above it is a hit
    cfg = CfarConfig(n_train=1, n_guard=0, pfa=0.25)
    p = np.ones((7, 1, 2), dtype=dtype)
    p[3, 0, 0] = 2.0
    p[3, 0, 1] = np.nextafter(dtype(2.0), dtype(3.0))
    t = raw_tensor(p)
    assert [(d.range_idx, d.rx_idx) for d in ca_cfar(t, cfg)] == [(3, 1)]
    assert cfar_tuples(ca_cfar(t, cfg)) == cfar_tuples(gather_ca_cfar(t, cfg))


def test_cfar_memory_bounded_at_paper_size():
    # one 512 x 21 x 21 float32 sweep: the padded prefix sum and two
    # threshold buffers peak at ~5.3 MB; gathering the four window
    # bounds from a float64 copy of the tensor peaks at ~8.6 MB
    rng = np.random.default_rng(21)
    t, = tensor_stream([rng.exponential(1.0, (512, 21, 21))])
    assert t.power.dtype == np.float32
    tracemalloc.start()
    try:
        dets = ca_cfar(t, CfarConfig(pfa=1e-6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20
    assert cfar_tuples(dets) == cfar_tuples(
        gather_ca_cfar(t, CfarConfig(pfa=1e-6))
    )


@pytest.mark.parametrize("pfa", [5e-324, 5.5e-309, np.float64(1e-320)])
def test_cfar_config_rejects_pfa_whose_factor_overflows(pfa):
    # pfa^(-1/n_train) overflows at n_train 1; n_train 2 still fits
    with pytest.raises(ConfigError, match="overflows"):
        CfarConfig(n_train=1, pfa=pfa)
    CfarConfig(n_train=2, pfa=pfa)
    CfarConfig(n_train=1, pfa=5.6e-309)


# ------------------------------------------------------------- DBSCAN


def det(r, t=0, x=0, p=1.0):
    return Detection(range_idx=r, tx_idx=t, rx_idx=x, power=p)


def test_dbscan_two_groups():
    dets = [det(i) for i in (10, 11, 12, 13, 14, 30, 31, 32, 33, 34)]
    clusters, noise = dbscan(dets, DbscanConfig(eps=3.0, min_pts=3))
    assert len(clusters) == 2
    assert noise == []
    assert sorted(len(c) for c in clusters) == [5, 5]


def test_dbscan_single_point_is_noise():
    clusters, noise = dbscan([det(5)], DbscanConfig(eps=3.0, min_pts=2))
    assert clusters == []
    assert noise == [0]


def test_dbscan_empty():
    assert dbscan([], DbscanConfig()) == ([], [])


def test_dbscan_partition_property():
    rng = np.random.default_rng(11)
    dets = [
        det(int(r), int(t), int(x))
        for r, t, x in zip(
            rng.integers(0, 60, 150),
            rng.integers(0, 8, 150),
            rng.integers(0, 8, 150),
        )
    ]
    cfg = DbscanConfig(eps=3.0, min_pts=3)
    clusters, noise = dbscan(dets, cfg)
    seen = sorted(i for c in clusters for i in c) + sorted(noise)
    assert sorted(seen) == list(range(len(dets)))


@pytest.mark.parametrize("seed", range(5))
def test_dbscan_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 200))
    dets = [
        det(int(r), int(t), int(x))
        for r, t, x in zip(
            rng.integers(0, 40, n), rng.integers(0, 6, n), rng.integers(0, 6, n)
        )
    ]
    cfg = DbscanConfig(eps=3.0, min_pts=3)
    clusters, noise = dbscan(dets, cfg)
    pts = np.array(
        [
            (d.range_idx * cfg.range_scale, d.tx_idx * cfg.tx_scale,
             d.rx_idx * cfg.rx_scale)
            for d in dets
        ]
    )
    ref_core_labels, ref_n, ref_noise = reference_dbscan(
        pts, cfg.eps, cfg.min_pts
    )
    assert len(clusters) == ref_n
    # core points must land in matching clusters (bijection of labels)
    mine = {}
    for cid, members in enumerate(clusters):
        for i in members:
            mine[i] = cid
    mapping = {}
    for i, ref_label in ref_core_labels.items():
        got = mine[i]
        assert mapping.setdefault(ref_label, got) == got
    assert set(noise) == ref_noise


# configs for the BFS equivalence check.  On the integer grid of the
# default scales, offsets (3, 0, 0) and (1, 1, 1) sit at exactly eps
# (d^2 = 9).  A border point can reach two clusters only if
# min_pts >= 4.
EQUIV_CONFIGS = {
    "default": DbscanConfig(),
    "min_pts_1": DbscanConfig(min_pts=1),
    "min_pts_6": DbscanConfig(min_pts=6),
    "non_integer": DbscanConfig(
        eps=2.5, min_pts=4, range_scale=0.7, tx_scale=1.3, rx_scale=2.1
    ),
}


@pytest.mark.parametrize("n", [2, 40, 150, 320, 500])
@pytest.mark.parametrize("name", sorted(EQUIV_CONFIGS))
def test_dbscan_identical_to_bfs(name, n):
    cfg = EQUIV_CONFIGS[name]
    rng = np.random.default_rng(n)
    # at this density core, border and noise points are all common,
    # and some border points are reached by two clusters
    m = n - n // 8
    cells = list(
        zip(rng.integers(0, max(n // 4, 4), m), rng.integers(0, 6, m),
            rng.integers(0, 6, m))
    )
    cells += [cells[k] for k in rng.integers(0, m, n - m)]  # duplicates
    dets = [det(*map(int, cells[k])) for k in rng.permutation(n)]
    assert dbscan(dets, cfg) == bfs_dbscan(dets, cfg)


def test_dbscan_pair_at_exactly_eps_is_neighbour():
    cfg = DbscanConfig(eps=3.0, min_pts=2)  # scales (1, 2, 2)
    assert dbscan([det(0), det(3)], cfg) == ([[0, 1]], [])
    assert dbscan([det(0), det(1, 1, 1)], cfg) == ([[0, 1]], [])
    assert dbscan([det(0), det(4)], cfg) == ([], [0, 1])


def test_dbscan_border_joins_earliest_cluster():
    # the border point at range 5 reaches one core point of each group
    # but is not core itself; it joins the cluster whose lowest-index
    # core point comes first
    group_b = [det(8), det(9), det(10), det(9, 1)]
    group_a = [det(0), det(1), det(2), det(1, 1)]
    dets = group_b + [det(5)] + group_a
    cfg = DbscanConfig(eps=3.0, min_pts=4)
    expected = ([[0, 1, 2, 3, 4], [5, 6, 7, 8]], [])
    assert bfs_dbscan(dets, cfg) == expected
    assert dbscan(dets, cfg) == expected


def test_dbscan_memory_bounded_at_45x45_stress_size():
    # ~11,400 hits: a 512 x 45 x 45 sweep at pfa 1e-3.  A dense distance
    # matrix would need ~6 GB here.
    rng = np.random.default_rng(45)
    cells = np.sort(rng.choice(512 * 45 * 45, 11_400, replace=False))
    dets = [
        det(int(r), int(t), int(x))
        for r, t, x in zip(*np.unravel_index(cells, (512, 45, 45)))
    ]
    tracemalloc.start()
    try:
        clusters, noise = dbscan(dets, DbscanConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert sorted(noise + [i for c in clusters for i in c]) == list(
        range(len(dets))
    )


@pytest.mark.parametrize(
    "field", ["eps", "range_scale", "tx_scale", "rx_scale"]
)
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_dbscan_config_rejects_non_finite_or_non_positive(field, value):
    with pytest.raises(ConfigError):
        DbscanConfig(**{field: value})


@pytest.mark.parametrize("field", ["eps", "range_scale", "tx_scale", "rx_scale"])
def test_dbscan_config_rejects_values_that_overflow_distances(field):
    # squared distances of indices scaled by ~1e154 overflow
    with pytest.raises(ConfigError, match="<= 1e"):
        DbscanConfig(**{field: 1.3e154})
    DbscanConfig(**{field: 1e6})


# ------------------------------------------------- cluster measurement


def test_cluster_single_member_measurement():
    make_tensor.k = 0
    t = make_tensor(np.zeros((200, 1, 1)), bin_size_m=0.3049)
    c = make_cluster((det(164, 0, 0, p=2.0),), t)
    assert c.centroid_range_m == pytest.approx(164 * 0.3049)
    assert c.centroid_angle_deg == pytest.approx(-10.0)  # single angle entry
    assert c.total_power == pytest.approx(2.0)


def test_cluster_symmetric_angles_cancel():
    t = make_tensor(np.zeros((32, 3, 3)))
    # tx angles are (-10, 0, 10); equal powers at +/-10 average to 0
    c = make_cluster(
        (det(5, 0, 0, p=1.0), det(5, 2, 2, p=1.0)), t
    )
    assert c.centroid_angle_deg == pytest.approx(0.0)


def test_cluster_power_scale_invariance():
    t = make_tensor(np.zeros((32, 3, 3)))
    m1 = make_cluster((det(4, 0, 1, 1.0), det(8, 1, 2, 3.0)), t)
    m2 = make_cluster((det(4, 0, 1, 2.0), det(8, 1, 2, 6.0)), t)
    assert m1.centroid_range_m == pytest.approx(m2.centroid_range_m)
    assert m1.centroid_angle_deg == pytest.approx(m2.centroid_angle_deg)


def test_cluster_centroid_in_hull():
    t = make_tensor(np.zeros((64, 3, 3)))
    members = (det(10, 0, 0, 1.0), det(20, 2, 2, 5.0))
    c = make_cluster(members, t)
    assert 10 * t.bin_size_m <= c.centroid_range_m <= 20 * t.bin_size_m


def test_cluster_detections_end_to_end():
    p = np.zeros((64, 3, 3))
    t, = tensor_stream([p])
    dets = [det(10), det(11), det(12), det(40, 2, 2)]
    clusters, noise = cluster_detections(dets, DbscanConfig(), t)
    assert len(clusters) == 1
    assert len(noise) == 1


def test_empty_cluster_rejected():
    t = make_tensor(np.zeros((8, 1, 1)))
    with pytest.raises(ConfigError):
        make_cluster((), t)
