"""Self-test of the benchmark, in about a minute.

    python3 perfbench/selftest.py

Checks ``BENCHMARK.json`` against the limits of its format, runs every
workload at tiny size untraced and traced, and checks that each run passes
its correctness checks and emits exactly the metrics ``BENCHMARK.json``
names, each with its unit.  Finally it runs the benchmark from a directory
that holds only ``BENCHMARK.json`` and ``perfbench/``, where it must fail
without printing a result.  Exits 1 and lists the problems if any check fails.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict) -> list[str]:
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys are {sorted(spec)}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    if not 1 <= len(spec["end_to_end"]) <= 16 or not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("need 1-16 end-to-end and 1-128 per-layer metrics")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad or repeated name {n!r}" for n in names
                 if not NAME.fullmatch(n) or names.count(n) > 1]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: needs a one-line why of <= 200 characters")
    for key, fields in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[key]:
            if set(m) != fields or not UNIT.fullmatch(m["unit"]) \
                    or m["better"] not in ("higher", "lower") \
                    or not 0 < m.get("bound", 0.1) <= 0.25:
                problems.append(f"{key} metric {m['name']}: malformed")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must be in seconds, lower-better, with the largest bound")
    return problems


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys are {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}"
                        f" attempted={result['attempted']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in sorted(expected.keys() | emitted.keys()):
        if expected.get(name) != emitted.get(name):
            problems.append(f"{where}: {name} expected unit {expected.get(name)},"
                            f" emitted {emitted.get(name)}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: {name} is not a finite number")
    return problems


def check_bare(spec: dict) -> list[str]:
    """Without the sources the benchmark must fail and print no result."""
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=build) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [*spec["command"], "--workload", spec["workloads"][0]["name"],
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, workload["name"], trace)
    problems += check_bare(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print(f"ok: {len(spec['workloads'])} workloads, "
              f"{len(spec['end_to_end'])} end-to-end and {len(spec['per_layer'])} "
              "per-layer metrics emitted with their units")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
