"""Show that the verdict check catches a wrong verdict.

    python3 bench/selfcheck.py

Runs one certify-refute pass in which one claim's expectation is flipped
from "inconclusive" to "proved".  That item, and only that item, must fail,
so fail_ratio rises above 0.  Then it checks the same reports against a
reference with one pinned value of another item changed: that item must
fail too.  Exit code 0 when both failures are caught.
"""
from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile

import inputs
from worker import HERE, REFERENCE, check, import_wanderlab, run_pass


def key(item: dict) -> str:
    return f"{inputs.REFUTE_NAME}/{item['id']}"


def main() -> int:
    scenario = import_wanderlab(HERE.parent)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["items"]
    doc = inputs.refute_document(seed=1)
    flipped, other = doc["items"][0], doc["items"][-1]
    flipped["expect"] = "proved"
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=work)
    try:
        path = f"{workdir}/{inputs.REFUTE_NAME}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        _, reports = run_pass(scenario, [{"ref": path, "threads": 1, "out_dir": None}])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failures = check(reports, reference)
    print(f"flipped expectation of {key(flipped)}: fail_ratio "
          f"{len(failures)}/{attempted} = {len(failures) / attempted:.3g}")
    caught = [f["item"] for f in failures] == [key(flipped)]

    altered = copy.deepcopy(reference)
    altered[key(other)]["verdict"] = "proved"
    _, failures = check(reports, altered)
    print(f"altered reference of {key(other)}: failed items {[f['item'] for f in failures]}")
    caught = caught and key(other) in [f["item"] for f in failures]
    print("self-check", "passed" if caught else "FAILED")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
