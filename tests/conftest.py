"""Session-scoped fixtures for the expensive shared artifacts."""
import time

import pytest

from wanderlab.certify import derive_ex2_constants
from wanderlab.dynamics import classify_grid
from wanderlab.maps import build_family
from wanderlab.numerics import ComplexBox
from wanderlab.scenario import load_scenario, run_scenario
from wanderlab.topology import label_components

EX2_WINDOW = ComplexBox(-1.0, 20.0, -2.6, 2.6)
EX2_WIDTH = 1600
EX2_HEIGHT = 400


@pytest.fixture(scope="session")
def ex2_timings():
    """Wall-clock costs of the shared artifacts, for runtime budgets."""
    return {}


@pytest.fixture(scope="session")
def ex2_constants():
    return derive_ex2_constants()


@pytest.fixture(scope="session")
def ex2_raster(ex2_timings):
    m = build_family("ex2", {"eps": 1e-5})
    cfg = load_scenario("ex2-core").orbit
    t0 = time.perf_counter()
    grid = classify_grid(m, EX2_WINDOW, EX2_WIDTH, EX2_HEIGHT, cfg)
    ex2_timings["raster"] = time.perf_counter() - t0
    return grid


@pytest.fixture(scope="session")
def ex2_components(ex2_raster, ex2_timings):
    t0 = time.perf_counter()
    cm = label_components(ex2_raster)
    ex2_timings["components"] = time.perf_counter() - t0
    return cm


@pytest.fixture(scope="session")
def ex2_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("ex2-report")
    return run_scenario("ex2-core", out_dir=out, threads=2), out
