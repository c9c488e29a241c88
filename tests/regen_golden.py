"""Rewrite the golden reports in tests/golden/, one per bundled suite.

Each file holds a suite's report/1 without its `timings` block and without
the raster rows' `image` path, both of which vary from run to run, and the
Python and numpy versions that produced it: roots, residuals and winding
distances come from libm, whose last bits may differ on another platform.
tests/test_golden.py compares every report with its file.  After a
deliberate output change, run

    PYTHONPATH=src python tests/regen_golden.py

and review the diff of the files: it is the report diff.
"""
from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np

from wanderlab.scenario import bundled_scenarios, run_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_view(report: dict) -> dict:
    """The report as its golden file stores it: JSON values only, without
    the timings and the raster image paths."""
    view = json.loads(json.dumps(report))
    del view["timings"]
    for row in view["items"]:
        if row["kind"] == "raster":
            row["result"].pop("image", None)
    return view


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    for suite in bundled_scenarios():
        doc = {"platform": versions, "report": golden_view(run_scenario(suite, threads=2))}
        (GOLDEN / f"{suite}.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="ascii")
        print(f"wrote {GOLDEN / suite}.json")


if __name__ == "__main__":
    main()
