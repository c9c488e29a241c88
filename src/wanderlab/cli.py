"""Command-line front end: run scenarios, list bundled suites, render images.

Exit codes: 0 when every item with an expected verdict matched, 1 when
any item mismatched, 2 on scenario parse/config errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .scenario import (
    ScenarioError,
    bundled_scenarios,
    load_scenario,
    render_scenario_raster,
    run_scenario,
)

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
    report = run_scenario(args.scenario, out_dir=out_dir, threads=args.threads,
                          budget_boxes=args.budget_boxes, max_iter=args.max_iter)
    text = json.dumps(report, indent=2) + "\n"
    if out_path:
        out_path.write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return 0 if report["all_passed"] else 1


def _cmd_render(args) -> int:
    info = render_scenario_raster(args.scenario, args.out, threads=args.threads,
                                  max_iter=args.max_iter)
    print(f"wrote {info['path']} ({info['width']}x{info['height']})",
          file=sys.stderr)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wanderlab",
        description="certified complex-dynamics suites: certificates, orbits, rasters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario and emit a JSON report")
    run.add_argument("scenario", help="scenario path or bundled name")
    run.add_argument("--out", help="write the report here instead of stdout")
    run.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                     help="raster worker processes (default: available cores)")
    run.add_argument("--budget-boxes", type=int, default=None,
                     help="override certificate box budgets")
    run.add_argument("--max-iter", type=int, default=None,
                     help="override orbit iteration budget")

    sub.add_parser("suites", help="list bundled scenarios and their items")

    render = sub.add_parser("render", help="render a scenario's raster to a P6 pixmap")
    render.add_argument("scenario", help="scenario path or bundled name")
    render.add_argument("--out", required=True, help="output image path")
    render.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    render.add_argument("--max-iter", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "suites":
            return list_suites()
        return _cmd_render(args)
    except (ScenarioError, OSError) as e:
        print(f"wanderlab: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
