"""The workload process: run passes of one workload and check every verdict.

Run by ``run.py`` as ``python3 bench/worker.py <plan.json>``.  Imports
wanderlab from the checkout's ``src`` and refuses any other copy.  Prints
one JSON line: the timings and counts of the passes for ``run.py``.

An item fails when its ``passed`` is false, when it raised (its row then
holds ``error`` and ``passed`` is false), or when its verdict or a pinned
headline value differs from ``reference.json``.
"""
from __future__ import annotations

import json
import multiprocessing
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def import_wanderlab(root: Path):
    """wanderlab.scenario from root/src, or SystemExit if that is not the copy found."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import wanderlab
    from wanderlab import scenario

    if not Path(wanderlab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"wanderlab imported from {wanderlab.__file__}, not {src}")
    return scenario


def pinned(row: dict) -> dict:
    """The part of a report row that must not change: verdicts and headline values.

    Box counts, label counts and timings are left out: correct optimisations
    move them.
    """
    res = row["result"]
    out = {"passed": row["passed"]}
    kind = row["kind"]
    if "error" in res:
        out["error"] = res["error"]
    elif kind in ("inclusion", "inequality"):
        out["verdict"] = res["verdict"]
    elif kind == "derived_constants":
        out.update({k: res[k] for k in ("r1", "eps", "rho_g", "r2")})
        out["verdict"] = res["station_cert"]["verdict"]
    elif kind == "winding":
        out["winding"] = res["winding"]
    elif kind == "zero_count":
        out["count"] = res["count"]
    elif kind == "raster":
        out["matches"] = [[m["behavior"], m["connectivity"]] for m in res["matches"]]
    return out


def check(reports: list, reference: dict) -> tuple[int, list]:
    """Items attempted, and a description of each failed one."""
    attempted, failures = 0, []
    for report in reports:
        for row in report["items"]:
            attempted += 1
            key = f'{report["scenario"]}/{row["id"]}'
            got = pinned(row)
            want = reference.get(key)
            if not row["passed"] or got != want:
                failures.append({"item": key, "got": got, "want": want})
    return attempted, failures


def cpu_now() -> tuple[float, float]:
    """CPU seconds used so far by this process, and by its finished children.

    Raster workers are children that a pass starts and waits for, so their
    time is included once the pass ends.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time(), children.ru_utime + children.ru_stime


def run_pass(scenario, runs: list) -> tuple[float, list]:
    """One pass: every document of the workload, as ``wanderlab run`` runs it."""
    reports = []
    t0 = time.perf_counter()
    for run in runs:
        report = scenario.run_scenario(run["ref"], out_dir=run["out_dir"],
                                       threads=run["threads"])
        if run["out_dir"] is not None:
            path = Path(run["out_dir"]) / f'{report["scenario"]}.json'
            path.write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
        reports.append(report)
    return time.perf_counter() - t0, reports


def environment(plan: dict) -> dict:
    import numpy
    import scipy

    return {"nproc": plan["nproc"], "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "start_method": multiprocessing.get_start_method(),
            "seed": plan["seed"]}


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest finished child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, children


def timed_passes(scenario, plan: dict, reference: dict) -> dict:
    """Passes for about plan['seconds']: a pass starts if half of one still fits.

    Each pass runs under a host-speed sampler.  Its scaled CPU seconds are
    this process's CPU seconds at the reference speed (see ``hostspeed``)
    plus the raster workers' CPU seconds as measured.  Peak memory is read
    after the first pass, which is all that one ``wanderlab run`` does, so it
    does not depend on the number of passes.
    """
    walls, cpus, scaled, samples, attempted, failures = [], [], [], [], 0, []
    sampler = hostspeed.Sampler()
    started = time.perf_counter()
    while (not walls or time.perf_counter() - started + statistics.median(walls) / 2
           < plan["seconds"]):
        own0, kids0 = cpu_now()
        with sampler.sampling():
            wall, reports = run_pass(scenario, plan["runs"])
        own1, kids1 = cpu_now()
        if not walls:
            own, children = peak_rss_mb()
        walls.append(wall)
        cpus.append(own1 - own0 + kids1 - kids0)
        scaled.append(sampler.scaled(own1 - own0) + kids1 - kids0)
        samples.append(len(sampler.samples))
        n, bad = check(reports, reference)
        attempted += n
        failures += bad
    return {"walls": walls, "cpus": cpus, "scaled_cpus": scaled, "samples": samples,
            "attempted": attempted, "failed": len(failures), "failures": failures[:8],
            "rss_process_mb": own, "rss_workers_mb": children}


def traced_passes(scenario, plan: dict, reference: dict) -> dict:
    """Two traced passes with a plain pass between them.

    Each traced pass also runs the workload's rasters with one worker.  The
    metrics and the saved spans are those of the second traced pass, when
    first-run costs are paid; its counts must equal the first's.
    """
    from layers import per_layer_metrics
    from tracing import Tracer

    attempted, failures = 0, []

    def tally(reports):
        nonlocal attempted
        n, bad = check(reports, reference)
        attempted += n
        failures.extend(bad)

    def traced():
        main, single = Tracer(), Tracer()
        with main.installed():
            c0 = sum(cpu_now())
            _, reports = run_pass(scenario, plan["runs"])
            cpu = sum(cpu_now()) - c0
        tally(reports)
        with single.installed():
            _, reports = run_pass(scenario, plan["one_worker"])
        tally(reports)
        return main, single, cpu

    first = traced()
    c0 = sum(cpu_now())
    _, reports = run_pass(scenario, plan["runs"])
    plain_cpu = sum(cpu_now()) - c0
    tally(reports)
    main, single, cpu = traced()
    metrics, counts = per_layer_metrics(main, single, cpu, plain_cpu, plan["nproc"])
    _, first_counts = per_layer_metrics(*first, plain_cpu, plan["nproc"])
    out = HERE / "_traces"
    out.mkdir(exist_ok=True)
    main.save(out / f'{plan["workload"]}.npz')
    single.save(out / f'{plan["workload"]}-one-worker.npz')
    return {"metrics": metrics, "counts_repeat": counts == first_counts,
            "attempted": attempted, "failed": len(failures), "failures": failures[:8]}


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    scenario = import_wanderlab(Path(plan["root"]))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["items"]
    passes = traced_passes if plan["trace"] else timed_passes
    result = passes(scenario, plan, reference)
    result["env"] = environment(plan)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
