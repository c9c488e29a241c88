"""wanderlab benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the checkout is the directory above ``bench``, and
wanderlab is imported from its ``src``.  The workloads and metrics are
described in ``bench/README.md``.

--trace 0 measures ``setup_s`` (the median CPU seconds of SETUP_PROBES fresh
processes at the reference host speed), then runs passes of the workload
for --seconds in one workload process.  It reports ``scaled_cpu_s``, the median CPU seconds of a pass at
the reference host speed (``hostspeed.py``), and the peak resident memory
``peak_rss_mb``.  Raw CPU and wall times are printed too but are not
metrics: on a shared virtual machine they move with the load other tenants
put on the host.  --trace 1 runs one plain pass and two traced passes and
reports the per-layer metrics.  Every verdict of every pass is checked
against ``reference.json``; ``fail_ratio`` is failed items over attempted
items.  ``correct`` is false when any item failed, or when the counts of
the two traced passes differ.

The last line of standard output is the result as one JSON object.  The
exit code is 0 when a result was printed, and 2 (with no result) when the
checkout holds no wanderlab sources or a child process failed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
TIMEOUT_S = 170.0          # every run must end within 180 s


class BenchError(RuntimeError):
    pass


def _child(args: list[str], timeout: float) -> str:
    """Run a Python child in its own process group; its standard output."""
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # raster workers too
        proc.communicate()
        raise BenchError(f"{args[0]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}:\n{err[-2000:]}")
    return out


def setup_seconds(plan: dict, deadline: float) -> tuple[list[float], list[float], list[float]]:
    """Fresh processes that import wanderlab and build the inputs.

    Returns each one's CPU seconds at the reference host speed, its CPU
    seconds as measured, and its wall seconds from start to exit.
    """
    refs = [run["ref"] for run in plan["runs"]]
    scaled, cpus, walls = [], [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = _child([str(HERE / "probe.py"), str(ROOT), *refs], deadline - time.monotonic())
        walls.append(time.perf_counter() - t0)
        probe = json.loads(out.strip().splitlines()[-1])
        scaled.append(probe["scaled_cpu_s"])
        cpus.append(probe["cpu_s"])
    return scaled, cpus, walls


def run_worker(plan: dict, workdir: Path, deadline: float) -> dict:
    path = workdir / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    out = _child([str(HERE / "worker.py"), str(path)], deadline - time.monotonic())
    return json.loads(out.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S

    if not (ROOT / "src" / "wanderlab" / "__init__.py").is_file():
        print(f"bench: no wanderlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        plan = inputs.plan(args.workload, args.seed, ROOT, workdir)
        plan.update(seconds=args.seconds, trace=args.trace)
        setup, setup_cpus, setup_walls = (([], [], []) if args.trace
                                          else setup_seconds(plan, deadline))
        result = run_worker(plan, workdir, deadline)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    if args.trace and set(result["metrics"]) != {m["name"] for m in spec["per_layer"]}:
        print("bench: traced metrics differ from BENCHMARK.json's per_layer", file=sys.stderr)
        return 2
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  env {json.dumps(result['env'])}")
    if args.trace:
        metrics = {k: _metric(v, units[k]) for k, v in result["metrics"].items()}
        for name, m in metrics.items():
            print(f"  {name:30s} {m['value']:>16.6g} {m['unit']}")
        print(f"  counts repeat across two traced passes: {result['counts_repeat']}")
    else:
        walls, cpus, scaled = result["walls"], result["cpus"], result["scaled_cpus"]
        rss = result["rss_process_mb"] + result["rss_workers_mb"]
        metrics = {
            "scaled_cpu_s": _metric(statistics.median(scaled), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(rss, units["peak_rss_mb"]),
        }
        print(f"  scaled_cpu_s {metrics['scaled_cpu_s']['value']:.4f} s (median of "
              f"{len(scaled)} passes: {', '.join(f'{c:.3f}' for c in scaled)}; "
              f"host-speed samples per pass: {', '.join(map(str, result['samples']))})")
        print(f"  setup_s     {metrics['setup_s']['value']:.4f} s "
              f"(median of {len(setup)} fresh processes: "
              f"{', '.join(f'{c:.3f}' for c in setup)})")
        print(f"  not metrics: CPU {statistics.median(cpus):.4f} s and wall "
              f"{statistics.median(walls):.4f} s per pass ({', '.join(f'{c:.3f}' for c in cpus)}; "
              f"{', '.join(f'{w:.3f}' for w in walls)}), wall "
              f"{statistics.median(setup_walls):.4f} s per set-up, CPU "
              f"{statistics.median(setup_cpus):.4f} s per set-up")
        print(f"  peak_rss_mb {rss:.1f} MB (process {result['rss_process_mb']:.1f} "
              f"+ largest raster worker {result['rss_workers_mb']:.1f})")
    print(f"  fail_ratio  {failed / attempted:.4g} ({failed} of {attempted} items)")
    for failure in result["failures"]:
        print(f"  FAILED {json.dumps(failure)}")
    correct = failed == 0 and result.get("counts_repeat", True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
