"""Record the reference verdicts and pinned values that every pass is checked against.

    python3 bench/record_reference.py

Runs the four bundled suites and the whole certify-refute pool once and
writes ``bench/reference.json``.  Re-record only when a change is meant to
move a verdict or a headline value, and say so where the change is described.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import inputs
from worker import HERE, REFERENCE, import_wanderlab, pinned, run_pass

ROOT = HERE.parent


def main() -> int:
    scenario = import_wanderlab(ROOT)
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=work)
    try:
        pool = f"{workdir}/{inputs.REFUTE_NAME}.json"
        with open(pool, "w", encoding="utf-8") as fh:
            json.dump(inputs.refute_document(None), fh)
        runs = [{"ref": ref, "threads": inputs.nproc(), "out_dir": None}
                for ref in (*inputs.SUITES, pool)]
        _, reports = run_pass(scenario, runs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    items = {f'{r["scenario"]}/{row["id"]}': pinned(row)
             for r in reports for row in r["items"]}
    failed = [key for key, pin in items.items() if not pin["passed"]]
    if failed:
        print(f"not recorded: items fail at this commit: {failed}", file=sys.stderr)
        return 1
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    REFERENCE.write_text(json.dumps({"recorded_at": commit or "unknown", "items": items},
                                    indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(items)} items to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
