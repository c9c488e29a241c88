"""Scenario/1 documents for each benchmark workload.

Every input is a scenario/1 document.  Documents cut from a bundled suite
keep the suite's name, so one reference entry (``reference.json``) serves
an item wherever it runs.  Only ``certify-refute`` depends on the seed: the
seed picks which known-false claims run, two from each family of the pool,
so the work per pass stays the same.

This module reads JSON only; it never imports wanderlab.
"""
from __future__ import annotations

import json
import math
import os
import random
from pathlib import Path

WORKLOADS = ("certify-prove", "certify-refute", "raster-topology", "suites")
SUITES = ("ex1-core", "ex2-core", "ex34-models", "ex5-strip")
REFUTE_NAME = "certify-refute"

# The refuted claims use the candidate budget depth of the constant search
# and a box budget that every claim exhausts.
REFUTE_BUDGET = {"max_boxes": 20_000, "max_depth": 20}
REFUTE_PICKS = 2                  # claims drawn from each family per pass

# g(z) = z + lam*sin(z + a) and g'(z), written as derive_ex2_constants
# builds them (the derivative writes cos u as sin(u + pi/2)).
_A = math.pi - math.atan(2.0 * math.pi)
_LAM = math.sqrt(1.0 + 4.0 * math.pi * math.pi)
_G = "(add z (mul lam (sin (add z a))))"
_DG = "(add 1.0 (mul lam (sin (add (add z a) 1.5707963267948966))))"
_PARAMS = {"a": _A, "lam": _LAM}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def bundled(root: Path, suite: str) -> dict:
    path = root / "src" / "wanderlab" / "scenarios" / f"{suite}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def extract(root: Path, suite: str, keep) -> dict:
    """The bundled suite with only the items for which keep(item) holds."""
    doc = bundled(root, suite)
    doc["items"] = [item for item in doc["items"] if keep(item)]
    return doc


def refute_pool() -> dict:
    """Known-false claims by family: |g'| <= 1/4 past r1, and rho below rho_g."""
    contraction = [
        {"id": f"dg-le-quarter-{k}", "kind": "inequality",
         "lhs": {"expr_abs": {"expr": _DG, "params": _PARAMS}},
         "rhs": {"const": 0.25},
         "region": {"disk": {"center": [0.0, 0.0], "radius": k / 1024,
                             "closed": True}},
         "cmp": "<=", "budget": REFUTE_BUDGET, "expect": "inconclusive"}
        for k in range(41, 45)
    ]
    image = [
        {"id": f"g-station-in-{k}", "kind": "inclusion",
         "source": {"disk": {"center": [2.0 * math.pi, 0.0], "radius": 40 / 1024,
                             "closed": True}},
         "target": {"disk": {"center": [4.0 * math.pi, 0.0], "radius": k / 1024,
                             "closed": False}},
         "budget": REFUTE_BUDGET, "expect": "inconclusive"}
        for k in range(1, 5)
    ]
    return {"contraction": contraction, "image": image}


def refute_document(seed: int | None) -> dict:
    """The whole pool when seed is None, else REFUTE_PICKS claims per family."""
    rng = random.Random(seed)
    items = []
    for family in refute_pool().values():
        if seed is None:
            items += family
        else:
            picked = sorted(rng.sample(range(len(family)), REFUTE_PICKS))
            items += [family[i] for i in picked]
    return {"schema": "scenario/1", "name": REFUTE_NAME,
            "description": "false claims run until the box budget is spent",
            "map": {"expr": _G, "params": _PARAMS}, "items": items}


def _is_raster(item: dict) -> bool:
    return item["kind"] == "raster"


def plan(workload: str, seed: int, root: Path, workdir: Path) -> dict:
    """Write the workload's documents under workdir; return what one pass runs.

    ``runs`` is one pass: each entry is a document (path or bundled name), its
    raster worker count, and the directory for the report and images (or None).
    ``one_worker`` repeats the workload's raster items with one worker, for the
    traced pass that counts pixel-iterations in-process.
    """
    docs = workdir / "docs"
    docs.mkdir(parents=True, exist_ok=True)

    def write(doc: dict, stem: str) -> str:
        path = docs / f"{stem}.json"
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return str(path)

    n = nproc()
    if workload == "certify-prove":
        ref = write(extract(root, "ex2-core", lambda it: it["kind"] == "derived_constants"),
                    workload)
        runs, one_worker = [(ref, n, None)], []
    elif workload == "certify-refute":
        runs, one_worker = [(write(refute_document(seed), workload), n, None)], []
    elif workload == "raster-topology":
        ref = write(extract(root, "ex2-core", _is_raster), workload)
        runs, one_worker = [(ref, n, None)], [(ref, 1, None)]
    else:
        out = workdir / "out"
        out.mkdir(exist_ok=True)
        runs = [(suite, n, str(out)) for suite in SUITES]
        one_worker = []
        for suite in SUITES:
            if any(_is_raster(it) for it in bundled(root, suite)["items"]):
                one_worker.append((write(extract(root, suite, _is_raster),
                                         f"{suite}-raster"), 1, None))
    return {"workload": workload, "seed": seed, "root": str(root), "nproc": n,
            "runs": _runs(runs), "one_worker": _runs(one_worker)}


def _runs(runs: list) -> list[dict]:
    return [{"ref": ref, "threads": threads, "out_dir": out} for ref, threads, out in runs]
