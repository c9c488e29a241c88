"""Every bundled suite's report/1 equals its golden file, floats included."""
import json

import pytest

from wanderlab.scenario import bundled_scenarios, run_scenario

from regen_golden import GOLDEN, golden_view


def test_golden_files_are_the_bundled_suites():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(bundled_scenarios())


@pytest.mark.parametrize("suite", sorted(bundled_scenarios()))
def test_report_equals_golden(suite, ex2_report):
    report = ex2_report[0] if suite == "ex2-core" else run_scenario(suite, threads=2)
    golden = json.loads((GOLDEN / f"{suite}.json").read_text(encoding="ascii"))
    assert golden_view(report) == golden["report"], (
        f"{suite}: the report differs from tests/golden/{suite}.json, made with "
        f"{golden['platform']}; after a deliberate change run tests/regen_golden.py")
