"""Run ``bench/run.py`` over several seeds and summarize the spread.

    python3 bench/collect.py --seeds 1-10 --out bench/baseline.json

Each run is a fresh process, run serially. For every end-to-end metric the
summary gives the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 - q1) / median, next to the bound in ``BENCHMARK.json``, both
for the reported (speed-scaled) values and for the unscaled ones. One traced
run per workload, on the first seed, gives the per-layer metrics and the
dominant-layer verdict; it times the same instances as the untraced run of
that seed, and the difference of their ``cmd_s`` medians is the tracing
overhead. It is marked unresolved when it is not larger than the spread of
``cmd_s.p50`` over the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    for line in lines:
        if line.startswith("unscaled "):
            result["unscaled"] = json.loads(line.partition(" ")[2])
        if match := re.match(r"digest_sha256 (\w+)", line):
            result["digest_sha256"] = match.group(1)
        if line.startswith("prediction "):
            result["prediction"] = line
    return result


def machine() -> dict:
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.strip()
        info["commit"] = commit + (" (src modified)" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        info["commit"] = "unknown"
    return info


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)

    summary: dict = {"workloads": {}}
    if args.out and args.out.exists():
        summary = json.loads(args.out.read_text())  # re-baseline only the named workloads
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seeds[0], args.seconds, 0)]
        traced = run_once(workload, seeds[0], args.seconds, 1)  # right after its untraced twin
        runs += [run_once(workload, seed, args.seconds, 0) for seed in seeds[1:]]
        entry: dict = {
            "machine": machine(),
            "run_seconds": args.seconds,
            "seeds": seeds,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs + [traced]),
            "digest_sha256": {str(r["seed"]): r["digest_sha256"] for r in runs},
            "speed_factor": [r["unscaled"]["speed_factor.p50"] for r in runs],
            "end_to_end": {},
        }
        print(f"{workload}: attempted {entry['attempted']}, failed {entry['failed']}, "
              f"correct {entry['correct']}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = quartiles(values)
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"], **stats, "values": values,
            }
            flag = "ok" if stats["spread"] < bounds[name] / 3 else "WIDE"
            line = (f"  {name:<18} median {stats['median']:<12.6g} spread "
                    f"{stats['spread']:7.4f} bound {bounds[name]:<5} {flag}")
            if name in runs[0]["unscaled"]:
                raw = [r["unscaled"][name] for r in runs]
                raw_stats = quartiles(raw)
                entry["end_to_end"][name]["unscaled"] = {**raw_stats, "values": raw}
                line += (f"; unscaled median {raw_stats['median']:<10.6g} "
                         f"spread {raw_stats['spread']:7.4f}")
            print(line)
        untraced = runs[0]["metrics"]["cmd_s.p50"]["value"]
        with_trace = traced["metrics"]["trace.cmd_s.p50_traced"]["value"]
        overhead = (with_trace - untraced) / untraced
        # Host noise between two processes is of the order of the spread over
        # seeds, so a smaller difference does not resolve the tracing cost.
        resolved = overhead > entry["end_to_end"]["cmd_s.p50"]["spread"]
        entry["traced"] = {
            "seed": seeds[0],
            "prediction": traced.get("prediction"),
            "overhead_s": with_trace - untraced,
            "overhead_share": overhead,
            "overhead_resolved": resolved,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"  {traced.get('prediction')}")
        print(f"  tracing overhead on seed {seeds[0]}: cmd_s.p50 {untraced:.6g} s untraced, "
              f"{with_trace:.6g} s traced ({overhead:+.1%}"
              + ("" if resolved else ", unresolved: within the cmd_s.p50 spread over seeds")
              + ")")
        summary["workloads"][workload] = entry
        if args.out:
            args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
