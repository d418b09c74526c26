"""Run the benchmark twice over several seeds and report each metric's spread.

    python3 perfbench/prove.py --seeds 1-10 [--traced] [--out perfbench/baseline.json]

Every workload in ``BENCHMARK.json`` runs once per seed at its
``run_seconds``, each run its own process, one after the other; then the
whole set runs a second time.  For every end-to-end metric and set the
table gives the median over seeds and the spread: the distance between the
first and third quartile (``statistics.quantiles(n=4)``) as a share of the
median, next to the metric's bound.  It also gives how much worse the second
set's median is than the first's, as a share of the first.  ``--traced``
adds one traced run per workload (first seed) to the output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[dict]]:
    """(final result line, the JSON lines before it) of one benchmark process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return lines[-1], lines[:-1]


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def run_set(spec: dict, seeds: list[int], report: dict) -> dict:
    """Per workload and end-to-end metric: the spread over ``seeds``."""
    out = {}
    for w in spec["workloads"]:
        results = []
        for seed in seeds:
            result, before = run_once(w["name"], seed, spec["run_seconds"], 0)
            if not result["correct"]:
                raise SystemExit(f"{w['name']} seed {seed}: correctness check failed")
            results.append(result["metrics"])
            report.setdefault("provenance", before[0]["provenance"])
        out[w["name"]] = {m["name"]: {"unit": results[0][m["name"]]["unit"],
                                      **spread([r[m["name"]]["value"] for r in results])}
                          for m in spec["end_to_end"]}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    report = {"seconds": spec["run_seconds"], "seeds": _seeds(args.seeds)}
    report["sets"] = [run_set(spec, report["seeds"], report) for _ in range(2)]
    report["worse_in_second_set"] = {}
    for w in spec["workloads"]:
        first, second = (s[w["name"]] for s in report["sets"])
        print(f"\n{w['name']}")
        worse = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = first[name]["median"], second[name]["median"]
            change = (b - a) / a if a else 0.0
            worse[name] = change if m["better"] == "lower" else -change
            wide = any(name != "setup_s" and s[name]["spread"] >= bound / 3
                       for s in (first, second))
            flag = "  WIDE" if wide else ""
            flag += "  DRIFT" if worse[name] > bound else ""
            print(f"  {name:24s} median {a:12.6g} {b:12.6g} {first[name]['unit']:12s}"
                  f" spread {first[name]['spread']:.4f} {second[name]['spread']:.4f}"
                  f" worse {worse[name]:+.4f} (bound {bound}){flag}")
        report["worse_in_second_set"][w["name"]] = worse
    if args.traced:
        report["traced"] = {}
        for w in spec["workloads"]:
            result, before = run_once(w["name"], report["seeds"][0], spec["run_seconds"], 1)
            report["traced"][w["name"]] = {
                "per_layer": {name: m["value"] for name, m in result["metrics"].items()},
                "trace": before[-1]["trace"]}
            slow = {k: round(v["value"], 3) for k, v in result["metrics"].items()
                    if k.endswith("_slowdown")}
            print(f"{w['name']} traced: {slow}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
