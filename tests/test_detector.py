import tracemalloc

import numpy as np
import pytest

from ratrack import (
    CfarConfig,
    ConfigError,
    DbscanConfig,
    MtiFilter,
    SceneConfig,
    StreamError,
    TargetTruth,
    ca_cfar,
    cluster_detections,
    dbscan,
    sweep,
)
from ratrack.receiver import RaTensor

from oracles import bfs_dbscan, gather_ca_cfar, object_clusters, reference_dbscan


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
    # 16 unit training cells at pfa 1e-2: alpha = 16 (100^(1/16) - 1)
    # = 5.33634, so the centre cell's threshold is 5.33634
    p = np.ones((17, 1, 2))
    p[8, 0, 0] = 5.3363
    p[8, 0, 1] = 5.3364
    t = raw_tensor(p)
    hits = ca_cfar(t, CfarConfig(n_train=8, n_guard=0, pfa=1e-2))
    assert hits.tolist() == [[8, 0, 1]]


def test_threshold_factor_monotone_in_pfa():
    rng = np.random.default_rng(12)
    t, = tensor_stream([rng.exponential(1.0, (256, 8, 8))])
    counts = [
        len(ca_cfar(t, CfarConfig(pfa=p))) for p in (1e-4, 1e-3, 1e-2, 1e-1)
    ]
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_threshold_factor_validation():
    with pytest.raises(ConfigError):
        CfarConfig(n_train=0, pfa=0.1)
    with pytest.raises(ConfigError):
        CfarConfig(n_train=4, pfa=1.5)


def test_cfar_all_zero_no_detections():
    t, = tensor_stream([np.zeros((64, 2, 2))])
    hits = ca_cfar(t, CfarConfig())
    assert hits.shape == (0, 3)
    assert np.issubdtype(hits.dtype, np.integer)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_cfar_rejects_non_finite_power(bad):
    # one overflowed cell would give the rest of its beam pair NaN
    # thresholds and drop their hits without a message
    p = np.ones((32, 2, 2), dtype=np.float32)
    p[5, 1, 0] = bad
    with pytest.raises(ConfigError, match="sweep 0.*run.mti_taps"):
        ca_cfar(raw_tensor(p), CfarConfig())


def test_cfar_detects_strong_impulse():
    rng = np.random.default_rng(7)
    p = rng.exponential(1.0, (128, 1, 1))
    p[60, 0, 0] = 1000.0
    t, = tensor_stream([p])
    hits = ca_cfar(t, CfarConfig(n_train=8, n_guard=2, pfa=1e-3))
    assert 60 in hits[:, 0]


def test_cfar_scale_invariance():
    rng = np.random.default_rng(8)
    p = rng.exponential(1.0, (128, 2, 2))
    p[40, 1, 0] = 500.0
    t1, = tensor_stream([p])
    make_tensor.k = 0
    t2 = make_tensor(7.3 * p)
    assert np.array_equal(ca_cfar(t1, CfarConfig()), ca_cfar(t2, CfarConfig()))


def test_cfar_window_too_large():
    t, = tensor_stream([np.zeros((16, 1, 1))])
    with pytest.raises(ConfigError):
        ca_cfar(t, CfarConfig(n_train=8, n_guard=2))


def test_cfar_empirical_pfa_exponential_noise():
    rng = np.random.default_rng(9)
    p = rng.exponential(1.0, (512, 20, 20))
    t, = tensor_stream([p])
    rate = len(ca_cfar(t, CfarConfig(pfa=1e-3))) / p.size
    assert 3e-4 <= rate <= 3e-3  # coarse check; tight one in acceptance


def test_cfar_edge_cells_calibrated():
    # only look at the first/last few range cells over many beams
    rng = np.random.default_rng(10)
    p = rng.exponential(1.0, (24, 100, 100))
    t, = tensor_stream([p])
    r = ca_cfar(t, CfarConfig(n_train=8, n_guard=2, pfa=1e-2))[:, 0]
    n_edge_cells = 8 * 100 * 100
    rate = np.count_nonzero((r < 4) | (r >= 20)) / n_edge_cells
    assert 0.3e-2 <= rate <= 3e-2


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
    assert np.issubdtype(got.dtype, np.integer)
    assert np.array_equal(got, gather_ca_cfar(t, cfg))


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
    assert ca_cfar(t, cfg).tolist() == [[3, 0, 1]]
    assert np.array_equal(ca_cfar(t, cfg), gather_ca_cfar(t, cfg))


def test_cfar_memory_bounded_at_paper_size():
    # one 512 x 21 x 21 float32 sweep: the padded prefix sum and two
    # threshold buffers peak at ~5.3 MB; gathering the four window
    # bounds from a float64 copy of the tensor peaks at ~8.6 MB
    rng = np.random.default_rng(21)
    t, = tensor_stream([rng.exponential(1.0, (512, 21, 21))])
    assert t.power.dtype == np.float32
    tracemalloc.start()
    try:
        hits = ca_cfar(t, CfarConfig(pfa=1e-6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20
    assert np.array_equal(hits, gather_ca_cfar(t, CfarConfig(pfa=1e-6)))


@pytest.mark.parametrize("pfa", [5e-324, 5.5e-309, np.float64(1e-320)])
def test_cfar_config_rejects_pfa_whose_factor_overflows(pfa):
    # pfa^(-1/n_train) overflows at n_train 1; n_train 2 still fits
    with pytest.raises(ConfigError, match="overflows"):
        CfarConfig(n_train=1, pfa=pfa)
    CfarConfig(n_train=2, pfa=pfa)
    CfarConfig(n_train=1, pfa=5.6e-309)


# ------------------------------------------------------------- DBSCAN


def cells(*rows):
    """(range_idx, tx_idx, rx_idx) rows as a CFAR hit array; a bare
    int is a range index at beam pair (0, 0)."""
    rows = [(r, 0, 0) if isinstance(r, int) else r for r in rows]
    return np.array(rows, dtype=np.intp).reshape(-1, 3)


def as_lists(result):
    members, noise = result
    return [m.tolist() for m in members], np.asarray(noise).tolist()


def test_dbscan_two_groups():
    idx = cells(10, 11, 12, 13, 14, 30, 31, 32, 33, 34)
    clusters, noise = dbscan(idx, DbscanConfig(eps=3.0, min_pts=3))
    assert len(clusters) == 2
    assert len(noise) == 0
    assert sorted(len(c) for c in clusters) == [5, 5]


def test_dbscan_single_point_is_noise():
    result = dbscan(cells(5), DbscanConfig(eps=3.0, min_pts=2))
    assert as_lists(result) == ([], [0])


def test_dbscan_empty():
    assert as_lists(dbscan(cells(), DbscanConfig())) == ([], [])


def random_cells(rng, n, r_max, t_max, x_max):
    return np.column_stack(
        [rng.integers(0, r_max, n), rng.integers(0, t_max, n),
         rng.integers(0, x_max, n)]
    )


def test_dbscan_partition_property():
    rng = np.random.default_rng(11)
    idx = random_cells(rng, 150, 60, 8, 8)
    cfg = DbscanConfig(eps=3.0, min_pts=3)
    clusters, noise = as_lists(dbscan(idx, cfg))
    seen = sorted(i for c in clusters for i in c) + sorted(noise)
    assert sorted(seen) == list(range(len(idx)))


@pytest.mark.parametrize("seed", range(5))
def test_dbscan_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 200))
    idx = random_cells(rng, n, 40, 6, 6)
    cfg = DbscanConfig(eps=3.0, min_pts=3)
    clusters, noise = as_lists(dbscan(idx, cfg))
    pts = idx * np.array([cfg.range_scale, cfg.tx_scale, cfg.rx_scale])
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
    idx = random_cells(rng, m, max(n // 4, 4), 6, 6)
    idx = np.concatenate([idx, idx[rng.integers(0, m, n - m)]])  # duplicates
    idx = idx[rng.permutation(n)]
    assert as_lists(dbscan(idx, cfg)) == bfs_dbscan(idx, cfg)


def test_dbscan_pair_at_exactly_eps_is_neighbour():
    cfg = DbscanConfig(eps=3.0, min_pts=2)  # scales (1, 2, 2)
    assert as_lists(dbscan(cells(0, 3), cfg)) == ([[0, 1]], [])
    assert as_lists(dbscan(cells(0, (1, 1, 1)), cfg)) == ([[0, 1]], [])
    assert as_lists(dbscan(cells(0, 4), cfg)) == ([], [0, 1])


def test_dbscan_border_joins_earliest_cluster():
    # the border point at range 5 reaches one core point of each group
    # but is not core itself; it joins the cluster whose lowest-index
    # core point comes first
    group_b = [8, 9, 10, (9, 1, 0)]
    group_a = [0, 1, 2, (1, 1, 0)]
    idx = cells(*group_b, 5, *group_a)
    cfg = DbscanConfig(eps=3.0, min_pts=4)
    expected = ([[0, 1, 2, 3, 4], [5, 6, 7, 8]], [])
    assert bfs_dbscan(idx, cfg) == expected
    assert as_lists(dbscan(idx, cfg)) == expected


def test_dbscan_memory_bounded_at_45x45_stress_size():
    # ~11,400 hits: a 512 x 45 x 45 sweep at pfa 1e-3.  A dense distance
    # matrix would need ~6 GB here.
    rng = np.random.default_rng(45)
    flat = np.sort(rng.choice(512 * 45 * 45, 11_400, replace=False))
    idx = np.column_stack(np.unravel_index(flat, (512, 45, 45)))
    tracemalloc.start()
    try:
        clusters, noise = dbscan(idx, DbscanConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert sorted(np.concatenate([noise, *clusters]).tolist()) == list(
        range(len(idx))
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


def measure(shape, hits, eps=3.0, scale=1.0):
    """The clusters cluster_detections forms from hits, each a
    (range_idx, tx_idx, rx_idx, power) tuple written into a zero
    tensor of the given shape; every hit is a core point."""
    p = np.zeros(shape)
    for r, t, x, power in hits:
        p[r, t, x] = scale * power
    make_tensor.k = 0
    tensor = make_tensor(p)
    idx = cells(*(h[:3] for h in hits))
    clusters, _ = cluster_detections(
        idx, DbscanConfig(eps=eps, min_pts=1), tensor
    )
    return clusters, tensor


def test_cluster_single_member_measurement():
    (c,), t = measure((200, 1, 1), [(164, 0, 0, 2.0)])
    assert c.centroid_range_m == pytest.approx(164 * 0.3049)
    assert c.centroid_angle_deg == pytest.approx(-10.0)  # single angle entry
    assert c.total_power == pytest.approx(2.0)


def test_cluster_symmetric_angles_cancel():
    # tx angles are (-10, 0, 10); equal powers at +/-10 average to 0
    (c,), _ = measure((32, 3, 3), [(5, 0, 0, 1.0), (5, 2, 2, 1.0)], eps=10.0)
    assert c.centroid_angle_deg == pytest.approx(0.0)


def test_cluster_power_scale_invariance():
    hits = [(4, 0, 1, 1.0), (8, 1, 2, 3.0)]
    (m1,), _ = measure((32, 3, 3), hits, eps=10.0)
    (m2,), _ = measure((32, 3, 3), hits, eps=10.0, scale=2.0)
    assert m1.centroid_range_m == pytest.approx(m2.centroid_range_m)
    assert m1.centroid_angle_deg == pytest.approx(m2.centroid_angle_deg)


def test_cluster_centroid_in_hull():
    (c,), t = measure((64, 3, 3), [(10, 0, 0, 1.0), (20, 2, 2, 5.0)], eps=20.0)
    assert 10 * t.bin_size_m <= c.centroid_range_m <= 20 * t.bin_size_m


def test_cluster_detections_end_to_end():
    idx = cells(10, 11, 12, (40, 2, 2))
    p = np.zeros((64, 3, 3))
    p[tuple(idx.T)] = 1.0
    t, = tensor_stream([p])
    clusters, noise = cluster_detections(idx, DbscanConfig(), t)
    assert len(clusters) == 1
    assert noise.tolist() == [3]


def clutter_sweep(seed, shape=(128, 21, 21)):
    """One post-MTI float32 power sweep of complex-Gaussian noise on a
    2.5 deg beam grid, its angles plain floats as a tensor file gives.
    A 3 x 3 x 3 block of strong cells appears in the second sweep, so
    even pfa 1e-6 leaves a multi-hit cluster."""
    rng = np.random.default_rng(seed)
    angles = tuple(np.linspace(-25.0, 25.0, shape[1]).tolist())
    mti = MtiFilter()
    for k in range(2):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        power = np.abs(z) ** 2
        if k == 1:
            power[60:63, 8:11, 9:12] += rng.uniform(1e2, 1e3, (3, 3, 3))
        out, _ = mti.apply(RaTensor(
            power=power.astype(np.float32), tx_angles_deg=angles,
            rx_angles_deg=angles, sweep_index=k, t_start_s=0.2 * k,
            bin_size_m=0.3049,
        ))
    return out


@pytest.mark.parametrize("min_pts", [1, 3])
@pytest.mark.parametrize("pfa", [1e-3, 1e-6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cluster_detections_identical_to_object_path(seed, pfa, min_pts):
    # centroids from index columns equal, bit for bit and in order, the
    # object path's: one Detection per hit and one make_cluster per
    # group.  min_pts 1 makes every isolated hit a one-member cluster.
    t = clutter_sweep(seed)
    cfar, db = CfarConfig(pfa=pfa), DbscanConfig(min_pts=min_pts)
    clusters, _ = cluster_detections(ca_cfar(t, cfar), db, t)
    got = [
        (c.centroid_range_m, c.centroid_angle_deg, c.total_power)
        for c in clusters
    ]
    assert got == object_clusters(t, cfar, db)
    sizes = [len(m) for m in dbscan(ca_cfar(t, cfar), db)[0]]
    assert max(sizes) > 1
    if min_pts == 1:
        assert 1 in sizes


def test_cluster_detections_empty_hit_set():
    t, = tensor_stream([np.zeros((64, 3, 3))])
    clusters, noise = cluster_detections(
        ca_cfar(t, CfarConfig()), DbscanConfig(), t
    )
    assert clusters == [] and len(noise) == 0
    assert object_clusters(t, CfarConfig(), DbscanConfig()) == []
