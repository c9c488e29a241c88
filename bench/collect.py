"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 bench/collect.py --runs 10 [--workloads suites,certify-refute]
                             [--first-seed 1] [--trace] [--out bench/BENCH_<commit>.json]

For each workload, runs ``run.py`` once per seed with BENCHMARK.json's
run_seconds, and reports for each end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  A spread above a
third of the metric's bound is flagged.  With --trace it adds one traced run
per workload.  With --out it writes everything, raw values included, as JSON.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=400)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    env = json.loads(lines[0].split(" env ", 1)[1])
    print("   ", seed, " | ".join(line.strip() for line in lines[1:3]), flush=True)
    return json.loads(lines[-1]), env


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, env = run_once(workload, seed, spec["run_seconds"], 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        env.pop("seed")
        entry = {"env": env, "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                 "fail_ratio": failed / attempted, "end_to_end": {}}
        print(f"{workload}: fail_ratio {failed}/{attempted}")
        for name, vals in values.items():
            s = summary(vals)
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            if flag and name != "setup_s":
                steady = False
            print(f"  {name:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
                  f"  spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
            entry["end_to_end"][name] = s
        if args.trace:
            result, _ = run_once(workload, args.first_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
            entry["trace_correct"] = result["correct"]
        doc["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
