"""Command-line surface: simulate, track, e2e, report.

Exit codes: 0 success, 1 I/O error (a missing or unreadable input, an
output path that cannot be written), 2 configuration error, 3
tensor-file format error.  Set RATRACK_LOG=debug|info|warning to
control verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
from pathlib import Path

from . import config as config_mod
from . import pipeline, tensorfile
from .errors import ConfigError, FormatError, RatrackError
from .metrics import Scorer

log = logging.getLogger("ratrack")


def _setup_logging():
    level = os.environ.get("RATRACK_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _open_csv(path: Path, header: str):
    fh = open(path, "w")
    fh.write(header + "\n")
    return fh


def cmd_simulate(args) -> int:
    cfg = config_mod.load(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tensor_path = out / "tensors.ratn"
    truth_path = out / "truth.csv"
    with open(tensor_path, "wb") as fh, \
            _open_csv(truth_path, pipeline.TRUTH_HEADER) as truth_fh:
        writer = None
        for tensor, truth in pipeline.simulate_sweeps(cfg):
            if writer is None:
                writer = tensorfile.TensorWriter(
                    fh, tensor.n_range, tensor.tx_angles_deg,
                    tensor.rx_angles_deg, tensor.bin_size_m,
                )
            writer.write(tensor)
            truth_fh.write(pipeline.truth_rows(tensor.sweep_index, truth))
            log.info("simulated sweep %d", tensor.sweep_index)
    print(f"wrote {tensor_path} and {truth_path}")
    return 0


def _run_tracking_and_write(cfg, tensors, out: Path, truth_log) -> int:
    """Track the stream, writing and flushing each sweep's CSV rows as
    it completes; the report is written once the stream ends."""
    out.mkdir(parents=True, exist_ok=True)
    scorer = Scorer(truth_log, cfg.run.score_radius_m)
    det_path, trk_path = out / "detections.csv", out / "tracks.csv"
    with _open_csv(det_path, pipeline.DETECTIONS_HEADER) as det, \
            _open_csv(trk_path, pipeline.TRACKS_HEADER) as trk:
        for result in pipeline.run_tracking(tensors, cfg):
            det.write(pipeline.detection_rows(result))
            trk.write(pipeline.track_rows(result))
            det.flush()
            trk.flush()
            scorer.add(result)
    report = pipeline.build_report(scorer)
    (out / "report.txt").write_text(report.to_text())
    (out / "report_summary.csv").write_text(report.to_csv_line())
    print(report.to_text(), end="")
    return 0


def cmd_track(args) -> int:
    cfg = config_mod.load(args.config)
    out = Path(args.out)
    truth_log = pipeline.read_truth(args.truth) if args.truth else {}
    if args.tensors == "-":
        return _run_tracking_and_write(
            cfg, tensorfile.read_sweeps(sys.stdin.buffer), out, truth_log
        )
    with open(args.tensors, "rb") as fh:
        return _run_tracking_and_write(
            cfg, tensorfile.read_sweeps(fh), out, truth_log
        )


def cmd_e2e(args) -> int:
    cfg = config_mod.load(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    truth_log: pipeline.TruthLog = {}
    # closing stops the sweep pool even if tracking raises mid-stream
    with _open_csv(out / "truth.csv", pipeline.TRUTH_HEADER) as truth_fh, \
            contextlib.closing(pipeline.simulate_sweeps(cfg)) as sims:

        def tensors():
            for tensor, truth in sims:
                truth_log[tensor.sweep_index] = truth
                truth_fh.write(pipeline.truth_rows(tensor.sweep_index, truth))
                yield tensor

        return _run_tracking_and_write(cfg, tensors(), out, truth_log)


def cmd_report(args) -> int:
    print((Path(args.indir) / "report.txt").read_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratrack",
        description="mmWave OFDM sensing simulator and tracking pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate sweeps to a tensor file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("track", help="run detection + tracking on tensors")
    p.add_argument("--tensors", required=True,
                   help="tensor file path, or - for stdin")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="optional truth CSV for scoring")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("e2e", help="simulate and track in one process")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_e2e)

    p = sub.add_parser("report", help="print a previously written report")
    p.add_argument("--in", dest="indir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except RatrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
