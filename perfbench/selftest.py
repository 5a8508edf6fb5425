"""Fast self-test of the benchmark harness on small configurations.

Runs every workload named in BENCHMARK.json on its ``--tiny`` variant
(11 x 11 beams, 128 range bins, a few sweeps), untraced and traced, and
checks the result line: its keys, that the outputs were correct, and
that every metric BENCHMARK.json names is emitted with its unit.  It
also checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and perfbench/.

    python3 perfbench/selftest.py      # from the root of the checkout
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

RUN = [sys.executable, "perfbench/run.py"]
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(argv: list[str], cwd: Path) -> tuple[int, list[str]]:
    proc = subprocess.run(RUN + argv, cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def check(workload: str, trace: int, spec: dict, root: Path) -> list[str]:
    names = spec["per_layer" if trace else "end_to_end"]
    rc, lines = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--tiny"], root)
    where = f"{workload} --trace {trace}"
    if rc != 0 or not lines:
        return [f"{where}: exit {rc}, {len(lines)} lines"]
    result = json.loads(lines[-1])
    errors = []
    if set(result) != KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: not correct: {json.loads(lines[-2])}")
    if not result.get("attempted", 0) >= 1:
        errors.append(f"{where}: attempted {result.get('attempted')}")
    metrics = result.get("metrics", {})
    for m in names:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"{where}: metric {m['name']} missing")
        elif got["unit"] != m["unit"] or not isinstance(
                got["value"], (int, float)):
            errors.append(f"{where}: metric {m['name']} = {got}")
    extra = set(metrics) - {m["name"] for m in names}
    if extra:
        errors.append(f"{where}: metrics not in BENCHMARK.json {sorted(extra)}")
    return errors


def check_bare(root: Path) -> list[str]:
    bare = root / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(root / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = run(["--workload", "replay-paper", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    if rc == 0 or lines:
        return [f"bare directory: exit {rc}, printed {lines}"]
    return []


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    errors = check_bare(root)
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors += check(w["name"], trace, spec, root)
    for e in errors:
        print(e)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
