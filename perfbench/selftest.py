#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Runs from the root of a checkout::

    python3 perfbench/selftest.py

Checks, each in a fresh ``run.py`` process with a 1-second window:

* every workload runs in both modes, exits 0 with ``correct: true``, and
  prints exactly the metrics ``BENCHMARK.json`` names for that mode,
  each with its unit and a finite value;
* an injected fault — ``sim_send`` workers dropping one ack in 100 — is
  reported as failed ops with ``correct: false`` and a non-zero exit,
  not as a pass;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "1"
TIMEOUT_S = 170


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(workload: str, trace: int, spec: dict) -> list[str]:
    code, lines = bench("--workload", workload, "--seed", "7",
                        "--seconds", SECONDS, "--trace", str(trace))
    where = f"{workload} --trace {trace}"
    if code != 0 or not lines:
        return [f"{where}: exit {code}, output {lines[-2:]}"]
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']} "
                      f"attempted={result['attempted']}")
    group = spec["end_to_end" if trace == 0 else "per_layer"]
    units = {m["name"]: m["unit"] for m in group}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(units))}")
    for name, entry in metrics.items():
        if entry.get("unit") != units.get(name):
            errors.append(f"{where}: {name} has unit {entry.get('unit')!r}")
        if not isinstance(entry.get("value"), (int, float)) \
                or not math.isfinite(entry["value"]):
            errors.append(f"{where}: {name} = {entry.get('value')!r}")
    if trace == 0:
        for metric in spec["end_to_end"]:
            if metrics.get(metric["name"], {}).get("value") == 0:
                errors.append(f"{where}: {metric['name']} is 0")
    return errors


def check_fault() -> list[str]:
    code, lines = bench("--workload", "sim_send", "--seed", "7",
                        "--seconds", SECONDS, "--trace", "0", "--fault")
    if not lines:
        return ["fault: no output"]
    result = json.loads(lines[-1])
    if code == 0 or result["correct"] or result["failed"] < 1:
        return [f"fault: exit {code}, correct={result['correct']}, "
                f"failed={result['failed']} — the dropped acks passed"]
    return []


def check_stripped() -> list[str]:
    """Without the program's source the benchmark must refuse to run."""
    bare = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines = bench("--workload", "sim_send", "--seed", "1",
                            "--seconds", SECONDS, "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if code == 0 or any(line.startswith("{") for line in lines):
        return [f"stripped checkout: exit {code}, output {lines[-1:]}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(workload, trace, spec)
            print(f"{workload:10s} trace={trace}: "
                  f"{'ok' if not found else 'FAIL'}")
            errors.extend(found)
    for name, check in (("injected fault", check_fault),
                        ("stripped checkout", check_stripped)):
        found = check()
        print(f"{name}: {'ok' if not found else 'FAIL'}")
        errors.extend(found)
    for error in errors:
        print(f"  {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
