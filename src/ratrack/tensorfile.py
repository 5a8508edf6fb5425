"""Binary record/replay format for range-angle tensors.

Layout, all little-endian:

  header: magic "RATN" | u16 version | u32 n_range | u32 n_tx | u32 n_rx
          | f64 bin_size_m | f32 tx_angles[n_tx] | f32 rx_angles[n_rx]
  per sweep: u64 sweep_index | f64 t_start_s
             | f32 payload[n_range * n_tx * n_rx], range-major then tx
             then rx (C order of [range, tx, rx])

Truncated or malformed input is rejected with the offending byte
offset, and a partial sweep is never yielded.  Malformed means: a count
below 1, a bin size that is not > 0 or puts the last bin past
_MAX_RANGE_M, a steering angle that is not finite and inside (-90, 90),
a sweep index that does not increase, a start time that does not
increase or lies outside +-_MAX_ABS_T_S, or a payload value that is
negative or not finite.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterator

import numpy as np

from .errors import FormatError, StreamError
from .receiver import RaTensor

MAGIC = b"RATN"
VERSION = 1

_HEADER_FIXED = struct.Struct("<4sHIIId")
_SWEEP_HEADER = struct.Struct("<Qd")
_MAX_READ = 1 << 20
# the tracker cubes time steps, so start times stay well inside float
# range: +-1e12 s is ~31,700 years and admits Unix-epoch seconds
_MAX_ABS_T_S = 1e12
# ranges are squared downstream; 1e12 m keeps them well inside float range
_MAX_RANGE_M = 1e12


class TensorWriter:
    """Appends sweeps to an open binary stream after writing the header."""

    def __init__(
        self,
        fh: BinaryIO,
        n_range: int,
        tx_angles_deg: tuple[float, ...],
        rx_angles_deg: tuple[float, ...],
        bin_size_m: float,
    ):
        self._fh = fh
        self._dims = (n_range, len(tx_angles_deg), len(rx_angles_deg))
        self._last_index: int | None = None
        fh.write(
            _HEADER_FIXED.pack(
                MAGIC, VERSION, n_range, len(tx_angles_deg),
                len(rx_angles_deg), bin_size_m,
            )
        )
        fh.write(np.asarray(tx_angles_deg, dtype="<f4").tobytes())
        fh.write(np.asarray(rx_angles_deg, dtype="<f4").tobytes())

    def write(self, tensor: RaTensor) -> None:
        if tensor.power.shape != self._dims:
            raise StreamError(
                f"tensor dims {tensor.power.shape} do not match "
                f"file header {self._dims}"
            )
        if self._last_index is not None and tensor.sweep_index <= self._last_index:
            raise StreamError(
                f"sweep_index must be strictly increasing: "
                f"{tensor.sweep_index} after {self._last_index}"
            )
        self._last_index = tensor.sweep_index
        self._fh.write(_SWEEP_HEADER.pack(tensor.sweep_index, tensor.t_start_s))
        self._fh.write(
            np.ascontiguousarray(tensor.power, dtype="<f4").tobytes()
        )


def _read_exact(fh: BinaryIO, n: int, offset: int, what: str) -> bytes:
    """Read exactly n bytes, at most _MAX_READ per call, so memory grows
    with the bytes that arrive rather than with a size the header
    claims; FormatError(what) at the offset reached if the input ends."""
    chunks = []
    got = 0
    while got < n:
        chunk = fh.read(min(n - got, _MAX_READ))
        if not chunk:
            raise FormatError(what, offset + got)
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_header(fh: BinaryIO):
    """Parse and validate the file header.

    Returns (n_range, tx_angles, rx_angles, bin_size_m, header_size).
    """
    raw = fh.read(_HEADER_FIXED.size)
    if len(raw) < _HEADER_FIXED.size:
        raise FormatError("truncated header", len(raw))
    magic, version, n_range, n_tx, n_rx, bin_size = _HEADER_FIXED.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    # the counts sit at byte offsets 6, 10 and 14, the bin size at 18
    for name, count, at in (
        ("n_range", n_range, 6), ("n_tx", n_tx, 10), ("n_rx", n_rx, 14)
    ):
        if count < 1:
            raise FormatError(f"{name} must be >= 1, got {count}", at)
    if not 0 < bin_size <= _MAX_RANGE_M / n_range:
        raise FormatError(
            f"bin_size_m must be > 0 and at most {_MAX_RANGE_M:g} m / "
            f"n_range, got {bin_size}", 18
        )
    offset = _HEADER_FIXED.size
    tables = []
    for count in (n_tx, n_rx):
        raw = _read_exact(fh, 4 * count, offset, "truncated angle table")
        angles = np.frombuffer(raw, dtype="<f4")
        bad = np.flatnonzero(~(np.abs(angles) < 90.0))
        if bad.size:
            raise FormatError(
                f"steering angle {angles[bad[0]]} not finite or outside "
                f"(-90, 90)",
                offset + 4 * int(bad[0]),
            )
        tables.append(tuple(float(a) for a in angles))
        offset += 4 * count
    return n_range, tables[0], tables[1], bin_size, offset


def read_sweeps(fh: BinaryIO) -> Iterator[RaTensor]:
    """Stream tensors from an open binary file or pipe."""
    n_range, tx_angles, rx_angles, bin_size, offset = read_header(fh)
    payload_len = 4 * n_range * len(tx_angles) * len(rx_angles)
    last_index: int | None = None
    last_t: float | None = None
    while True:
        raw = fh.read(_SWEEP_HEADER.size)
        if not raw:
            return
        if len(raw) < _SWEEP_HEADER.size:
            raise FormatError("truncated sweep header", offset + len(raw))
        sweep_index, t_start = _SWEEP_HEADER.unpack(raw)
        offset += _SWEEP_HEADER.size
        payload = _read_exact(
            fh, payload_len, offset,
            f"truncated payload for sweep {sweep_index}",
        )
        if last_index is not None and sweep_index <= last_index:
            raise FormatError(
                f"sweep_index not increasing at sweep {sweep_index}",
                offset - _SWEEP_HEADER.size,
            )
        if not abs(t_start) <= _MAX_ABS_T_S or (
            last_t is not None and t_start <= last_t
        ):
            raise FormatError(
                f"t_start_s {t_start} not within +-{_MAX_ABS_T_S:g} s and "
                f"increasing at sweep {sweep_index}",
                offset - _SWEEP_HEADER.size + 8,
            )
        last_index, last_t = sweep_index, t_start
        power = np.frombuffer(payload, dtype="<f4").reshape(
            n_range, len(tx_angles), len(rx_angles)
        )
        if not (np.isfinite(power) & (power >= 0)).all():
            raise FormatError(
                f"negative or non-finite payload value in sweep "
                f"{sweep_index}",
                offset,
            )
        offset += payload_len
        yield RaTensor(
            power=power.copy(),
            tx_angles_deg=tx_angles,
            rx_angles_deg=rx_angles,
            sweep_index=sweep_index,
            t_start_s=t_start,
            bin_size_m=bin_size,
        )
