"""Run the benchmark repeatedly and summarise the runs as one baseline.

    python3 benchmarks/collect.py --runs 10 --out benchmarks/BENCH_1.json

Each workload runs ``--runs`` times untraced, with seeds 2026, 2027, ...,
and once traced at the default seed. For every end-to-end metric the
summary gives the values, their median and quartiles, and the spread:
the interquartile distance as a share of the median. A spread above a
third of the metric's bound in BENCHMARK.json is flagged, and one above
the bound makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[0])["provenance"]
    result["lines"] = lines[1:-1]
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", metavar="PATH")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    over = []
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run(name, 2026 + i, spec["run_seconds"], 0)
                for i in range(args.runs)]
        entry = {
            "seeds": [r["provenance"]["seed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "lines": [r["lines"] for r in runs],
            "provenance": runs[0]["provenance"],
            "end_to_end": {m: summarise([r["metrics"][m]["value"]
                                         for r in runs]) for m in bounds},
        }
        traced = run(name, 2026, spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"]
                              for k, v in traced["metrics"].items()}
        entry["traced_failed"] = traced["failed"]
        report["workloads"][name] = entry
        for m, s in entry["end_to_end"].items():
            flag = ""
            if s["spread"] > bounds[m]:
                flag = "  <-- spread above the bound"
                over.append(f"{name} {m}")
            elif s["spread"] >= bounds[m] / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"{name:24} {m:12} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} (bound {bounds[m]}){flag}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
