"""Command-line front end: run a scenario, list the bundled suites.

The document sets every budget; `run --out` writes the report and, beside
it, each raster image the document names.  Exit codes: 0 when every item
with an expected verdict matched, 1 when any item mismatched, 2 on
scenario parse/config errors.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from .scenario import ScenarioError, bundled_scenarios, load_scenario, run_scenario

__all__ = ["main", "entry", "list_suites"]


def list_suites(stream=None) -> int:
    """Print bundled scenario names with their item anchors."""
    stream = stream or sys.stdout
    for name in bundled_scenarios():
        scenario = load_scenario(name)
        line = name if not scenario.description else f"{name} — {scenario.description}"
        print(line, file=stream)
        for item in scenario.items:
            print(f"  {item['id']} ({item['kind']})", file=stream)
    return 0


def _cmd_run(args) -> int:
    out_path = Path(args.out) if args.out else None
    out_dir = out_path.parent if out_path else None
    if out_dir is not None and not out_dir.is_dir():
        # fail before the first item runs, not when the report is written
        raise FileNotFoundError(errno.ENOENT, "no such directory", str(out_dir))
    report = run_scenario(args.scenario, out_dir=out_dir, threads=args.threads)
    text = json.dumps(report, indent=2) + "\n"
    if out_path:
        out_path.write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return 0 if report["all_passed"] else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wanderlab",
        description="certified complex-dynamics suites: certificates, orbits, rasters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario and emit a JSON report")
    run.add_argument("scenario", help="scenario path or bundled name")
    run.add_argument("--out", help="write the report here instead of stdout, "
                     "and the raster images beside it")
    run.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                     help="raster threads (default: available cores)")

    sub.add_parser("suites", help="list bundled scenarios and their items")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return list_suites()
    except (ScenarioError, OSError) as e:
        print(f"wanderlab: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
