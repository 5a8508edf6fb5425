"""ratrack benchmark: one run of one workload, result as JSON.

Usage, from the root of a ratrack checkout:

    python3 perfbench/run.py --workload replay-paper --seed 1 \
        --seconds 36 --trace 0

Workloads (see perfbench/README.md for why each exists):

- paper-sim       simulate + track on the paper scenario (criterion 6)
- replay-paper    track on a synthetic paper-shaped file, pfa 1e-6
- clutter-stress  track on synthetic noise sweeps at the default pfa 1e-3

The run happens in a child process (``workload.py``) with ``src`` on its
import path and BLAS/OpenMP thread counts pinned to the CPUs this
process may use.  Its working files go under ``.perfbench/`` in the
checkout and are removed once a result is read.  Its details (tail
percentile and sample count, output digests, trace consistency, run
environment) are printed as one JSON line, and the last line of
standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones.  The exit code is 0 whenever a result is printed (a failed output
check shows as ``"correct": false``), and 1 or 2 when none could be.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-sim", "replay-paper", "clutter-stress")
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    env.pop("RATRACK_LOG", None)
    return env


def finite_or_none(value):
    """JSON has no NaN or infinity: report such a value as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: finite_or_none(v) for k, v in value.items()}
    if isinstance(value, list):
        return [finite_or_none(v) for v in value]
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small configuration, for selftest.py")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ratrack" / "__init__.py").is_file():
        print(f"perfbench: no ratrack sources under {root / 'src'}; run from "
              "the root of a ratrack checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}" + (
        "-tiny" if args.tiny else "")
    work = root / ".perfbench" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    log_path = work / "child.log"
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result_path)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        with open(log_path, "w") as log:
            proc = subprocess.run(
                cmd, cwd=root, env=child_env(root), stdout=log,
                stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        rc = "timeout"
    if rc != 0 or not result_path.is_file():
        print(f"perfbench: workload process ended with {rc}; log follows",
              file=sys.stderr)
        print(log_path.read_text()[-4000:], file=sys.stderr)
        return 1

    result = json.loads(result_path.read_text())
    shutil.rmtree(work)  # the inputs are large; the digests are reported
    print(json.dumps(finite_or_none(result["detail"]), sort_keys=True))
    metrics = {
        name: {"value": finite_or_none(value), "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
