import contextlib
import hashlib
import io
import math
import os
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import ratrack
from ratrack import ConfigError, FormatError, StreamError
from ratrack.cli import main
from ratrack.config import from_dict, load
from ratrack.receiver import RaTensor
from ratrack.tensorfile import TensorWriter, read_header, read_sweeps

from conftest import E2E_SCENARIO


def small_tensor(k, shape=(16, 2, 3)):
    rng = np.random.default_rng(k)
    return RaTensor(
        power=rng.exponential(1.0, shape).astype(np.float32),
        tx_angles_deg=tuple(np.linspace(-5, 5, shape[1])),
        rx_angles_deg=tuple(np.linspace(-5, 5, shape[2])),
        sweep_index=k,
        t_start_s=0.2 * k,
        bin_size_m=0.3049,
    )


SMALL_CONFIG = {
    "waveform": {"n_rb": 12, "fft_size": 256, "cp_len": 16, "n_symbols": 2},
    "codebook": {"span_deg": 10.0, "step_deg": 5.0},
    "scene": {
        "targets": [{"pos": [0.0, 10.0], "vel": [0.0, 1.6]}],
        "noise_power": 0.01,
    },
    "run": {"n_sweeps": 5, "n_range": 64},
}


# ------------------------------------------------------------- config


def test_default_config_builds():
    cfg = from_dict({})
    assert cfg.waveform.n_rb == 275
    assert cfg.codebook.n_beam_pairs == 441
    assert cfg.run.n_sweeps == 50


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        from_dict({"wavform": {}})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        from_dict({"cfar": {"pfa": 0.1, "nguard": 3}})


def test_invalid_value_surfaces():
    with pytest.raises(ConfigError):
        from_dict({"cfar": {"pfa": 2.0}})


def test_cfar_pfa_whose_factor_overflows_rejected(tmp_path, capsys):
    # pfa^(-1/n_train) is inf at n_train 1: a config error, not an
    # overflow (or NaN thresholds) inside ca_cfar
    doc = {"cfar": {"n_train": 1, "pfa": 5e-324}}
    with pytest.raises(ConfigError, match="overflows"):
        from_dict(doc)
    (tmp_path / "in.ratn").write_bytes(MOVER)
    capsys.readouterr()
    assert main([
        "track", "--tensors", str(tmp_path / "in.ratn"),
        "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out"),
    ]) == 2
    assert "overflows" in capsys.readouterr().err


def test_scene_targets_parsed():
    cfg = from_dict(SMALL_CONFIG)
    assert len(cfg.scene.targets) == 1
    assert cfg.scene.targets[0].vel == (0.0, 1.6)


def test_load_yaml(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(yaml.safe_dump(SMALL_CONFIG))
    cfg = load(p)
    assert cfg.run.n_sweeps == 5


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load(tmp_path / "nope.yaml")


@pytest.mark.parametrize(
    "section",
    [
        {"span_deg": float("nan")},
        {"span_deg": float("inf")},
        {"span_deg": -10.0},
        {"step_deg": float("nan")},
        {"step_deg": float("-inf")},
        {"step_deg": 0},
        {"step_deg": -5.0},
        {"span_deg": "wide"},
    ],
)
def test_codebook_span_step_rejected(section):
    with pytest.raises(ConfigError):
        from_dict({"codebook": section})


def test_codebook_zero_span_is_single_boresight_beam():
    cfg = from_dict({"codebook": {"span_deg": 0}})
    assert cfg.codebook.tx_angles_deg == (0.0,)
    assert cfg.codebook.rx_angles_deg == (0.0,)


def test_codebook_absent_key_takes_default():
    cfg = from_dict({"codebook": {"span_deg": 10.0}})
    assert cfg.codebook.tx_angles_deg == (-10.0, -5.0, 0.0, 5.0, 10.0)
    cfg = from_dict({"codebook": {"step_deg": 25.0}})
    assert cfg.codebook.rx_angles_deg == (-50.0, -25.0, 0.0, 25.0, 50.0)


@pytest.mark.parametrize(
    "key,value", [("n_elements", 4), ("element_spacing_wavelengths", 0.6)]
)
def test_codebook_array_only_takes_default_tables(key, value):
    cfg = from_dict({"codebook": {key: value}})
    assert getattr(cfg.codebook, key) == value
    default = from_dict({}).codebook
    assert len(cfg.codebook.tx_angles_deg) == 21
    assert cfg.codebook.tx_angles_deg == default.tx_angles_deg
    assert cfg.codebook.rx_angles_deg == default.rx_angles_deg


def test_codebook_span_and_tables_rejected():
    with pytest.raises(ConfigError, match="not both"):
        from_dict({"codebook": {
            "span_deg": 10.0, "tx_angles_deg": [0.0], "rx_angles_deg": [0.0],
        }})


def test_run_seed_rejected():
    # nothing reads a run seed: the waveform and scene seeds set the draws
    with pytest.raises(ConfigError, match=r"unknown keys in \[run\]"):
        from_dict({"run": {"seed": 5}})


def test_cli_run_seed_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("run: {seed: 5}\n")
    assert main(["e2e", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert "unknown keys in [run]: ['seed']" in capsys.readouterr().err


def test_cli_nan_codebook_step_exit_code(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("codebook: {step_deg: .nan}\n")
    assert main(["e2e", "--config", str(p), "--out", str(tmp_path)]) == 2


NAN, INF = float("nan"), float("inf")


def scene_with_target(**target):
    return {"scene": {"targets": [target]}}


@pytest.mark.parametrize(
    "doc",
    [
        {"scene": {"noise_power": NAN}},
        {"scene": {"noise_power": INF}},
        {"scene": {"noise_power": -1.0}},
        {"scene": {"sweep_period_s": NAN}},
        {"scene": {"leakage_amplitude": -1.0}},
        {"scene": {"leakage_amplitude": NAN}},
        {"scene": {"leakage_range_m": NAN}},
        {"scene": {"seed": -1}},
        {"scene": {"seed": 1.5}},
        {"scene": {"targets": None}},
        {"scene": {"targets": [[0.0, 10.0]]}},
        scene_with_target(pos=[NAN, 10.0]),
        scene_with_target(pos=[0.0, NAN]),
        scene_with_target(pos=[0.0, 10.0, 1.0]),
        scene_with_target(pos=[10.0]),
        scene_with_target(pos=10.0),
        scene_with_target(pos="ab"),
        scene_with_target(vel=[0.0, 1.0]),
        scene_with_target(pos=[0.0, 10.0], vel=[INF, 0.0]),
        scene_with_target(pos=[0.0, 10.0], reflectivity=NAN),
        scene_with_target(pos=[0.0, 10.0], rcs=1.0),
        {"waveform": {"scs_hz": NAN}},
        {"waveform": {"carrier_hz": NAN}},
        {"waveform": {"n_rb": 2.5}},
        {"waveform": {"n_symbols": 0}},
        {"waveform": {"seed": -3}},
        {"codebook": {"span_deg": 10.0, "n_elements": 0}},
        {"codebook": {"span_deg": 10.0, "n_elements": 2.5}},
        {"codebook": {"span_deg": 10.0, "element_spacing_wavelengths": NAN}},
        {"codebook": {"tx_angles_deg": ["ab"], "rx_angles_deg": [0.0]}},
        {"scene": [1.0]},
        {"codebook": [1.0]},
    ],
)
def test_simulator_input_rejected(doc):
    with pytest.raises(ConfigError):
        from_dict(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"run": {"score_radius_m": NAN}},
        {"run": {"score_radius_m": INF}},
        {"run": {"score_radius_m": 0.0}},
        {"run": {"score_radius_m": -1.0}},
        {"run": {"mti_taps": "ab"}},
        {"run": {"mti_taps": 5}},
        {"run": {"mti_taps": [1.0, NAN]}},
        {"run": {"n_sweeps": 2.5}},
        {"run": {"n_range": 0}},
        {"dbscan": {"min_pts": NAN}},
        {"dbscan": {"min_pts": 2.5}},
        {"dbscan": {"min_pts": 0}},
        {"cfar": {"n_train": 2.5}},
    ],
)
def test_run_and_dbscan_input_rejected(doc):
    with pytest.raises(ConfigError):
        from_dict(doc)


def test_simulator_input_edges_accepted():
    cfg = from_dict({
        "scene": {
            "targets": [{"pos": [0, 5], "vel": (1, 0), "reflectivity": 2}],
            "noise_power": 0, "leakage_amplitude": 0, "leakage_range_m": 0,
        },
        "run": {"mti_taps": [1, -2, 1], "score_radius_m": 1e-3},
        "dbscan": {"min_pts": 1},
    })
    target = cfg.scene.targets[0]
    assert target.pos == (0.0, 5.0) and target.vel == (1.0, 0.0)
    assert cfg.run.mti_taps == (1.0, -2.0, 1.0)


@pytest.mark.parametrize(
    "scene",
    [
        "{targets: [{vel: [0, 1]}]}",
        "{targets: [{pos: [5.0]}]}",
        "{targets: [{pos: ab}]}",
        "{targets: [7]}",
        "{noise_power: .nan}",
    ],
)
def test_cli_bad_scene_exit_code(tmp_path, capsys, scene):
    p = tmp_path / "bad.yaml"
    p.write_text(f"scene: {scene}\n")
    assert main(["e2e", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


# -------------------------------------------------------- tensor file


def write_file(tensors):
    buf = io.BytesIO()
    t0 = tensors[0]
    w = TensorWriter(
        buf, t0.power.shape[0], t0.tx_angles_deg, t0.rx_angles_deg,
        t0.bin_size_m,
    )
    for t in tensors:
        w.write(t)
    return buf.getvalue()


def test_round_trip_bit_exact():
    tensors = [small_tensor(k) for k in range(4)]
    data = write_file(tensors)
    back = list(read_sweeps(io.BytesIO(data)))
    assert len(back) == 4
    for a, b in zip(tensors, back):
        assert np.array_equal(a.power, b.power)
        assert a.sweep_index == b.sweep_index
        assert a.t_start_s == b.t_start_s
        assert a.tx_angles_deg == pytest.approx(b.tx_angles_deg)
    # writing the read-back tensors reproduces the bytes
    assert write_file(back) == data


def test_file_size_arithmetic():
    shape = (16, 2, 3)
    tensors = [small_tensor(k, shape) for k in range(10)]
    data = write_file(tensors)
    header = 4 + 2 + 12 + 8 + 4 * (shape[1] + shape[2])
    per_sweep = 8 + 8 + 4 * shape[0] * shape[1] * shape[2]
    assert len(data) == header + 10 * per_sweep


def test_bad_magic():
    with pytest.raises(FormatError):
        read_header(io.BytesIO(b"XXXX" + b"\x00" * 30))


def test_truncated_header_offset():
    with pytest.raises(FormatError) as exc:
        read_header(io.BytesIO(b"RA"))
    assert exc.value.offset == 2


def test_truncated_payload_offset():
    tensors = [small_tensor(0)]
    data = write_file(tensors)
    cut = len(data) - 7
    with pytest.raises(FormatError) as exc:
        list(read_sweeps(io.BytesIO(data[:cut])))
    assert exc.value.offset == cut


def test_header_huge_count_reads_bounded(tmp_path):
    # a 26-byte fixed header claiming 2^32 - 1 tx angles (16 GiB) and
    # nothing after it: memory must follow the bytes that arrive
    p = tmp_path / "claims.ratn"
    p.write_bytes(struct.pack("<4sHIIId", b"RATN", 1, 512, 2**32 - 1, 21, 0.3))
    tracemalloc.start()
    try:
        with open(p, "rb") as fh, pytest.raises(FormatError) as exc:
            read_header(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.offset == 26
    assert peak < 16 * 2**20


def test_payload_over_read_chunk_round_trip():
    # 600 x 21 x 21 float32 is just over the 1 MiB read chunk
    tensors = [small_tensor(k, (600, 21, 21)) for k in range(2)]
    data = write_file(tensors)
    back = list(read_sweeps(io.BytesIO(data)))
    assert all(np.array_equal(a.power, b.power) for a, b in zip(tensors, back))
    cut = len(data) - 5
    with pytest.raises(FormatError) as exc:
        list(read_sweeps(io.BytesIO(data[:cut])))
    assert exc.value.offset == cut


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_payload_rejected(tmp_path, value):
    tensors = [small_tensor(k) for k in range(3)]
    tensors[1].power[7, 1, 2] = value
    data = write_file(tensors)
    reader = read_sweeps(io.BytesIO(data))
    assert next(reader).sweep_index == 0
    with pytest.raises(FormatError, match="sweep 1"):
        next(reader)
    bad = tmp_path / "bad.ratn"
    bad.write_bytes(data)
    cfgp = write_config(tmp_path, SMALL_CONFIG)
    rc = main([
        "track", "--tensors", str(bad), "--config", cfgp,
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 3


# crafted 64 x 3 x 3 files with one header field overwritten:
# (struct format, byte offset, value); the reader must name that offset
HEADER_TX0, HEADER_RX0 = 26, 26 + 4 * 3
BAD_HEADER_FIELDS = [
    ("<d", 18, NAN),  # bin_size_m
    ("<d", 18, INF),
    ("<d", 18, 0.0),
    ("<d", 18, -0.3),
    ("<I", 6, 0),  # n_range
    ("<I", 10, 0),  # n_tx
    ("<I", 14, 0),  # n_rx
    ("<f", HEADER_TX0 + 4, NAN),
    ("<f", HEADER_TX0, -INF),
    ("<f", HEADER_RX0 + 8, 95.0),
    ("<f", HEADER_RX0, -90.0),
]


def crafted_file(fmt, offset, value):
    """Three 64 x 3 x 3 sweeps with the field at offset overwritten."""
    tensors = [small_tensor(k, (64, 3, 3)) for k in range(3)]
    data = bytearray(write_file(tensors))
    struct.pack_into(fmt, data, offset, value)
    return bytes(data)


@pytest.mark.parametrize("fmt,offset,value", BAD_HEADER_FIELDS)
def test_bad_header_field_rejected(tmp_path, capsys, fmt, offset, value):
    data = crafted_file(fmt, offset, value)
    with pytest.raises(FormatError) as exc:
        read_header(io.BytesIO(data))
    assert exc.value.offset == offset
    bad = tmp_path / "bad.ratn"
    bad.write_bytes(data)
    out = tmp_path / "out"
    assert main([
        "track", "--tensors", str(bad),
        "--config", write_config(tmp_path, {}), "--out", str(out),
    ]) == 3
    assert f"byte offset {offset}" in capsys.readouterr().err
    assert (out / "detections.csv").read_text() == (
        ratrack.pipeline.DETECTIONS_HEADER + "\n"
    )


# the same file's sweep 1: t_start_s and the first payload value
SWEEP1_T = HEADER_RX0 + 4 * 3 + (16 + 4 * 64 * 9) + 8
BAD_SWEEP_FIELDS = [
    ("<d", SWEEP1_T, NAN),
    ("<d", SWEEP1_T, -INF),
    ("<d", SWEEP1_T, 2e12),
    ("<d", SWEEP1_T, 0.0),  # equal to sweep 0's start
    ("<d", SWEEP1_T, -1.0),  # before it
    ("<f", SWEEP1_T + 8, -1e-3),
]


@pytest.mark.parametrize("fmt,offset,value", BAD_SWEEP_FIELDS)
def test_bad_sweep_field_rejected(fmt, offset, value):
    reader = read_sweeps(io.BytesIO(crafted_file(fmt, offset, value)))
    assert next(reader).sweep_index == 0
    with pytest.raises(FormatError, match="sweep 1") as exc:
        next(reader)
    assert exc.value.offset == offset


def test_writer_rejects_dim_mismatch():
    buf = io.BytesIO()
    t = small_tensor(0)
    w = TensorWriter(
        buf, 99, t.tx_angles_deg, t.rx_angles_deg, t.bin_size_m
    )
    with pytest.raises(StreamError):
        w.write(t)


def test_writer_rejects_nonincreasing_index():
    buf = io.BytesIO()
    t = small_tensor(3)
    w = TensorWriter(
        buf, 16, t.tx_angles_deg, t.rx_angles_deg, t.bin_size_m
    )
    w.write(t)
    with pytest.raises(StreamError):
        w.write(t)


# ---------------------------------------------------------------- CLI


def write_config(tmp_path, doc):
    p = tmp_path / "config.yaml"
    p.write_text(yaml.safe_dump(doc))
    return str(p)


def test_cli_simulate_deterministic(tmp_path):
    cfgp = write_config(tmp_path, SMALL_CONFIG)
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "tensors.ratn").read_bytes()
    b = (tmp_path / "b" / "tensors.ratn").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "truth.csv").read_text() == (
        tmp_path / "b" / "truth.csv"
    ).read_text()


def test_cli_track_and_e2e_identical(tmp_path):
    cfgp = write_config(tmp_path, SMALL_CONFIG)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfgp, "--out", str(sim)]) == 0
    trk = tmp_path / "trk"
    assert main([
        "track", "--tensors", str(sim / "tensors.ratn"),
        "--config", cfgp, "--out", str(trk),
        "--truth", str(sim / "truth.csv"),
    ]) == 0
    e2e = tmp_path / "e2e"
    assert main(["e2e", "--config", cfgp, "--out", str(e2e)]) == 0
    assert (trk / "detections.csv").read_text() == (
        e2e / "detections.csv"
    ).read_text()
    assert (trk / "tracks.csv").read_text() == (e2e / "tracks.csv").read_text()


def test_cli_report_prints(tmp_path, capsys):
    cfgp = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "out"
    main(["e2e", "--config", cfgp, "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--in", str(out)]) == 0
    assert "run report" in capsys.readouterr().out


def test_cli_config_error_exit_code(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("cfar: {pfa: 2.0}\n")
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("value", [".inf", ".nan"])
def test_cli_non_finite_dbscan_eps_exit_code(tmp_path, value):
    p = tmp_path / "bad.yaml"
    p.write_text(f"dbscan: {{eps: {value}}}\n")
    assert main(["e2e", "--config", str(p), "--out", str(tmp_path)]) == 2


def test_cli_format_error_exit_code(tmp_path):
    cfgp = write_config(tmp_path, SMALL_CONFIG)
    bad = tmp_path / "bad.ratn"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    rc = main([
        "track", "--tensors", str(bad), "--config", cfgp,
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 3


# SHA-256 of the CSVs `track` writes for 8 sweeps of unit exponential
# noise on a 128 x 11 x 11 grid at the default pfa 1e-3, recorded with
# the dense-matrix breadth-first DBSCAN.  They pin cluster membership,
# cluster numbering and the tracker's output bytes.
GOLDEN_DETECTIONS_SHA256 = (
    "65b2e040944e6416c98a0a4e8463069597ad4a9c9baea016d138b5073675e383"
)
GOLDEN_TRACKS_SHA256 = (
    "ada9428821f3aaa16c009de5456a427e245686b98bdc72b46bda7c7910b1126e"
)


def test_cli_track_golden_digest(tmp_path):
    tensors = tmp_path / "noise.ratn"
    tensors.write_bytes(
        write_file([small_tensor(k, shape=(128, 11, 11)) for k in range(8)])
    )
    out = tmp_path / "out"
    assert main([
        "track", "--tensors", str(tensors),
        "--config", write_config(tmp_path, {}), "--out", str(out),
    ]) == 0
    rows = (out / "detections.csv").read_text().splitlines()[1:]
    ranges = [float(row.split(",")[1]) for row in rows]
    # no cluster at range 0, so the digests do not depend on how the
    # tracker treats a measurement without a bearing
    assert len(ranges) > 20 and min(ranges) > 0.0

    def digest(name):
        return hashlib.sha256((out / name).read_bytes()).hexdigest()

    assert digest("detections.csv") == GOLDEN_DETECTIONS_SHA256
    assert digest("tracks.csv") == GOLDEN_TRACKS_SHA256


def cli_subprocess_env():
    # the child imports this checkout's ratrack, installed or not
    src = str(Path(ratrack.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_cli_stdin_pipe(tmp_path):
    # simulate | track composes through a real pipe
    cfgp = write_config(tmp_path, SMALL_CONFIG)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfgp, "--out", str(sim)]) == 0
    with open(sim / "tensors.ratn", "rb") as stdin:
        proc = subprocess.run(
            [sys.executable, "-m", "ratrack.cli", "track", "--tensors", "-",
             "--config", cfgp, "--out", str(tmp_path / "piped")],
            stdin=stdin, capture_output=True, env=cli_subprocess_env(),
        )
    assert proc.returncode == 0, proc.stderr.decode()
    assert (tmp_path / "piped" / "tracks.csv").exists()


def test_cli_stdin_rows_on_disk_before_eof(tmp_path):
    # a live producer: sweep 1's rows must be written while stdin is
    # still open, not when the stream ends
    data = write_file([small_tensor(k, shape=(128, 11, 11)) for k in range(3)])
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-m", "ratrack.cli", "track", "--tensors", "-",
         "--config", write_config(tmp_path, {}), "--out", str(out)],
        stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, env=cli_subprocess_env(),
    )

    def has_sweep_1(name):
        try:
            lines = (out / name).read_text().splitlines()[1:]
        except OSError:
            return False
        return any(line.startswith("1,") for line in lines)

    try:
        proc.stdin.write(data)
        proc.stdin.flush()
        deadline = time.monotonic() + 60.0
        while not all(map(has_sweep_1, ("detections.csv", "tracks.csv"))):
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "no sweep-1 rows on disk"
            time.sleep(0.05)
        proc.stdin.close()
        assert proc.wait(timeout=60) == 0, proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


TRUTH_CSV = "sweep_index,target_key,x,y,vx,vy\n0,0,0,10,0,1.6\n"


@pytest.mark.parametrize(
    "row",
    [
        "0,0,1.0,oops",  # wrong field count
        "1,0,0,10,0,1.6,7",  # wrong field count
        "1,0,0,10,0,oops",  # non-numeric value
        "one,0,0,10,0,1.6",  # non-numeric sweep index
        "1,0,nan,10,0,1.6",  # non-finite coordinate
        "1,0,0,10,inf,1.6",  # non-finite velocity
    ],
)
def test_cli_malformed_truth_exit_code(tmp_path, capsys, row):
    cfgp = write_config(tmp_path, SMALL_CONFIG)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfgp, "--out", str(sim)]) == 0
    truth = tmp_path / "truth.csv"
    truth.write_text(TRUTH_CSV + row + "\n")
    capsys.readouterr()
    assert main([
        "track", "--tensors", str(sim / "tensors.ratn"), "--config", cfgp,
        "--out", str(tmp_path / "out"), "--truth", str(truth),
    ]) == 2
    assert f"{truth}:3" in capsys.readouterr().err


def test_warmup_sweeps_emit_no_detections(tmp_path):
    cfgp = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "warm"
    main(["e2e", "--config", cfgp, "--out", str(out)])
    rows = (out / "detections.csv").read_text().splitlines()[1:]
    assert all(not r.startswith("0,") for r in rows)


def mover_file(n_sweeps=6, shape=(64, 3, 3)):
    """Noise sweeps with one strong reflector stepping out in range."""
    tensors = [small_tensor(k, shape) for k in range(n_sweeps)]
    for k, t in enumerate(tensors):
        t.power[20 + k, 1, 1] = 1e4
    return write_file(tensors)


MOVER = mover_file()
# every fixed-size field of MOVER: (struct format, byte offset)
MOVER_HEADER_SIZE = 26 + 4 * (3 + 3)
MOVER_SWEEP_SIZE = 16 + 4 * 64 * 3 * 3
MOVER_FIELDS = (
    [("<I", 6), ("<I", 10), ("<I", 14), ("<d", 18)]
    + [("<f", 26 + 4 * i) for i in range(6)]
    + [
        (fmt, MOVER_HEADER_SIZE + k * MOVER_SWEEP_SIZE + at)
        for k in range(6)
        for fmt, at in (("<Q", 0), ("<d", 8), ("<f", 16 + 4 * (20 + k) * 9))
    ]
)
FIELD_VALUES = {
    "<I": st.one_of(
        st.sampled_from([0, 1, 2, 3, 20, 21, 63, 65, 2**31, 2**32 - 1]),
        st.integers(0, 2**32 - 1),
    ),
    "<Q": st.integers(0, 2**64 - 1),
    "<d": st.floats(),
    "<f": st.floats(width=32),
}
MUTATION = st.one_of(
    st.sampled_from(MOVER_FIELDS).flatmap(
        lambda f: st.tuples(st.just(f), FIELD_VALUES[f[0]])
    ),
    st.tuples(st.just("byte"), st.tuples(
        st.integers(0, len(MOVER) - 1), st.integers(0, 255)
    )),
)


@pytest.mark.parametrize("tap,code", [(1e17, 0), (3e17, 2), (1e300, 2)])
def test_cli_mti_tap_overflow_exit_code(tmp_path, capsys, tap, code):
    # from ~2e17 the MTI output at MOVER's 1e4 reflector overflows
    # float32; the sweep is refused, not tracked with its hits dropped
    (tmp_path / "in.ratn").write_bytes(MOVER)
    capsys.readouterr()
    assert main([
        "track", "--tensors", str(tmp_path / "in.ratn"), "--config",
        write_config(tmp_path, {"run": {"mti_taps": [tap, -tap]}}),
        "--out", str(tmp_path / "out"),
    ]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert "sweep 1:" in err and "run.mti_taps" in err


def csv_values_finite(path):
    for line in path.read_text().splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue  # a track status
            if not math.isfinite(value):
                return False
    return True


@settings(max_examples=50, deadline=None)
@given(
    mutations=st.lists(MUTATION, min_size=1, max_size=4),
    cut=st.none() | st.integers(0, len(MOVER) - 1),
)
def test_cli_track_mutated_file_exit_code(mutations, cut):
    # header fields and bytes of a valid file, overwritten at random and
    # the file optionally cut short:
    # track either rejects the file (exit 3) or writes only finite
    # values (exit 0); the one exit 2 is a file whose range axis is
    # shorter than the default CFAR window
    data = bytearray(MOVER)
    for what, value in mutations:
        if what == "byte":
            data[value[0]] = value[1]
        else:
            fmt, offset = what
            struct.pack_into(fmt, data, offset, value)
    if cut is not None:
        del data[cut:]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.ratn").write_bytes(bytes(data))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main([
                "track", "--tensors", str(tmp / "in.ratn"),
                "--config", write_config(tmp, {}), "--out", str(tmp / "out"),
            ])
        if rc == 2:
            n_range = struct.unpack_from("<I", data, 6)[0]
            assert n_range < 21 and "CFAR window" in err.getvalue()
        else:
            assert rc in (0, 3), err.getvalue()
        if rc == 0:
            for name in ("detections.csv", "tracks.csv"):
                assert csv_values_finite(tmp / "out" / name), name


# a number-like value of the wrong kind: tests that a config field is
# checked for type as well as range
NOT_A_NUMBER = st.one_of(
    st.none(), st.booleans(), st.text("ab1.e-", max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
)
ANY_FLOAT = st.one_of(
    st.floats(), st.sampled_from([5e-324, 5.5e-309, 1e-300, 1e300]),
)
# MOVER's range axis is 64 bins: windows near it are drawn often
WINDOW_INT = st.one_of(
    st.integers(-1, 34), st.integers(-2**70, 2**70), NOT_A_NUMBER
)
CONFIG_SECTIONS = st.fixed_dictionaries({}, optional={
    "cfar": st.fixed_dictionaries({}, optional={
        "n_train": WINDOW_INT,
        "n_guard": WINDOW_INT,
        "pfa": st.one_of(ANY_FLOAT, st.floats(0.0, 1.0), NOT_A_NUMBER),
    }),
    "dbscan": st.fixed_dictionaries({}, optional={
        "eps": st.one_of(ANY_FLOAT, NOT_A_NUMBER),
        "min_pts": st.one_of(st.integers(-1, 2**70), NOT_A_NUMBER),
        "range_scale": st.one_of(ANY_FLOAT, NOT_A_NUMBER),
        "tx_scale": st.one_of(ANY_FLOAT, NOT_A_NUMBER),
        "rx_scale": st.one_of(ANY_FLOAT, NOT_A_NUMBER),
    }),
    "run": st.fixed_dictionaries({}, optional={
        "n_sweeps": WINDOW_INT,
        "n_range": WINDOW_INT,
        "mti_taps": st.one_of(
            st.lists(ANY_FLOAT, max_size=4),
            ANY_FLOAT.map(lambda a: [a, -a]),
            NOT_A_NUMBER,
        ),
        "score_radius_m": st.one_of(ANY_FLOAT, NOT_A_NUMBER),
    }),
})


@settings(max_examples=60, deadline=None)
@given(doc=CONFIG_SECTIONS)
def test_cli_track_random_config_exit_code(doc):
    # cfar, dbscan and run sections drawn at random, extreme and
    # wrongly typed values included: track either rejects the config
    # (exit 2) or writes only finite values (exit 0)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.ratn").write_bytes(MOVER)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main([
                "track", "--tensors", str(tmp / "in.ratn"),
                "--config", write_config(tmp, doc), "--out", str(tmp / "out"),
            ])
        assert rc in (0, 2), err.getvalue()
        if rc == 0:
            for name in ("detections.csv", "tracks.csv"):
                assert csv_values_finite(tmp / "out" / name), name
