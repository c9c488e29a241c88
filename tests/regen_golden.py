"""Rewrite the golden reports in tests/golden/, one per bundled suite.

Each file holds a suite's report/1 without its `timings` block and without
the raster rows' `image` path, both of which vary from run to run, the
SHA-256 of every image the suite renders, keyed by file name (the report's
counts do not pin each pixel's label and id, the image does), and the
Python and numpy versions that produced it: roots, residuals and winding
distances come from libm, whose last bits may differ on another platform.
tests/test_golden.py compares every report and image with its file.  After a
deliberate output change, run

    PYTHONPATH=src python tests/regen_golden.py

and review the diff of the files: it is the report diff.
"""
from __future__ import annotations

import hashlib
import json
import platform
import tempfile
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


def image_digests(report: dict) -> dict:
    """Image file name -> SHA-256 hex digest of every image the report's
    raster rows wrote."""
    return {Path(row["result"]["image"]).name:
            hashlib.sha256(Path(row["result"]["image"]).read_bytes()).hexdigest()
            for row in report["items"] if "image" in row["result"]}


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    for suite in bundled_scenarios():
        with tempfile.TemporaryDirectory() as out:
            report = run_scenario(suite, out_dir=out, threads=2)
            doc = {"platform": versions, "images": image_digests(report),
                   "report": golden_view(report)}
        (GOLDEN / f"{suite}.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="ascii")
        print(f"wrote {GOLDEN / suite}.json")


if __name__ == "__main__":
    main()
