"""Set-up probe: the cost a fresh process pays before its first pass.

``python3 bench/probe.py <root> <document>...`` imports wanderlab's scenario
engine from root/src, loads each document and builds its map, then prints
one JSON line: the process's CPU seconds so far, as measured and at the
reference host speed.  The import and the builds run under a host-speed
sampler (see ``hostspeed.py``); the interpreter's start before them is
counted as measured.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import hostspeed


def build(root: Path, refs: list[str]) -> None:
    from worker import import_wanderlab

    scenario = import_wanderlab(root)
    from wanderlab.maps import build_family, custom_map

    for ref in refs:
        spec = scenario.load_scenario(ref).map_spec
        if "family" in spec:
            build_family(spec["family"], spec.get("params"))
        elif "expr" in spec:
            poles = tuple(complex(*p) for p in spec.get("poles", []))
            custom_map(spec["expr"], spec.get("params"), poles)


def main(argv: list[str]) -> int:
    sampler = hostspeed.Sampler()
    start = time.process_time()
    with sampler.sampling():
        build(Path(argv[1]), argv[2:])
    cpu = time.process_time()
    print(json.dumps({"cpu_s": cpu, "scaled_cpu_s": start + sampler.scaled(cpu - start)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
