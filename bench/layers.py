"""Per-layer metrics from the spans of one traced pass.

``main`` holds the spans of the workload pass as run (raster workers =
nproc); its raster classification happens in forked workers, whose spans
are lost.  ``single`` holds the spans of the workload's raster items run
again with one worker, so pixel-iterations are counted in-process.
Self time is a span's duration minus the durations of its child spans.
"""
from __future__ import annotations

import numpy as np

from tracing import Tracer

# Counts that must repeat exactly across two traced passes.
COUNTS = ("numerics.box_ops", "maps.box_evals", "maps.vec_points", "regions.box_tests",
          "certify.certificates", "certify.boxes", "certify.max_depth",
          "certify.survivors", "certify.winding_samples", "dynamics.pixel_iters",
          "dynamics.budget_orbits", "topology.components", "topology.connectivity_calls",
          "scenario.items")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Spans:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.t = tracer.table()

    def idx(self, prefix: str) -> np.ndarray:
        return self.tracer.select(self.t, prefix)

    def outermost(self, prefix: str) -> np.ndarray:
        """Spans under prefix whose parent is not itself under prefix."""
        idx = self.idx(prefix)
        parents = self.t["parent"][idx]
        inner = np.isin(parents, idx)
        return idx[~inner]

    def kept(self, idx) -> list:
        return [self.tracer.kept[int(i)] for i in idx if int(i) in self.tracer.kept]

    def dur(self, idx) -> float:
        return float(self.t["dur"][idx].sum())

    def self_time(self, idx) -> float:
        return float(self.t["self"][idx].sum())


def _raster(s: _Spans) -> tuple[int, int, float]:
    """Pixel-iterations, orbits alive at the budget, and classification seconds."""
    grids = s.idx("dynamics.classify_grid")
    vec = s.idx("maps.eval_map_vec")
    iters = budget = 0
    for g in grids:
        batches = vec[s.t["parent"][vec] == g]
        sizes = [s.tracer.kept[int(i)] for i in batches]
        iters += sum(sizes)
        budget += sizes[-1] if sizes else 0
    return iters, budget, s.dur(grids)


def per_layer_metrics(main: Tracer, single: Tracer, cpu: float, plain_cpu: float,
                      nproc: int) -> tuple[dict, dict]:
    """Metric name -> value, and the subset that are exact counts.

    cpu and plain_cpu are the CPU seconds of the traced pass and of a plain one.
    """
    s, one = _Spans(main), _Spans(single)
    box = s.idx("maps.eval_map_box")
    vec_sizes = s.kept(s.idx("maps.eval_map_vec")) + one.kept(one.idx("maps.eval_map_vec"))
    vec_time = s.dur(s.idx("maps.eval_map_vec")) + one.dur(one.idx("maps.eval_map_vec"))
    certs = np.concatenate([s.idx("certify.certify_inclusion"),
                            s.idx("certify.certify_inequality")])
    stats = s.kept(certs)
    boxes = sum(st[0] for st in stats)
    winding = np.concatenate([s.idx("certify.winding_number"),
                              s.idx("certify.count_zeros_inside")])
    winding = winding[~np.isin(s.t["parent"][winding], winding)]  # not counted twice
    iters, budget, t1 = _raster(one)
    _, _, t_n = _raster(s)
    conn = s.idx("topology.connectivity")
    label = s.idx("topology.label_components")
    runs = s.idx("scenario.run_scenario")
    m = {
        "numerics.box_ops": len(s.idx("numerics.")),
        "numerics.self_s": s.self_time(s.idx("numerics.")),
        "maps.box_evals": len(box),
        "maps.box_eval_us": _ratio(s.dur(box), len(box)) * 1e6,
        "maps.vec_points": sum(vec_sizes),
        "maps.vec_ns_per_point": _ratio(vec_time, sum(vec_sizes)) * 1e9,
        "regions.box_tests": len(s.outermost("regions.")),
        "regions.self_s": s.self_time(s.idx("regions.")),
        "certify.certificates": len(certs),
        "certify.boxes": boxes,
        "certify.max_depth": max((st[1] for st in stats), default=0),
        "certify.survivors": sum(st[2] for st in stats),
        "certify.proved_ratio": _ratio(sum(st[3] for st in stats), len(stats)),
        "certify.boxes_per_s": _ratio(boxes, s.dur(certs)),
        "certify.self_s": s.self_time(certs),
        "certify.winding_samples": sum(s.kept(s.idx("certify.winding_number"))),
        "certify.winding_s": s.dur(winding),
        "certify.preimage_s": s.dur(s.idx("certify.locate_preimages")),
        "dynamics.pixel_iters": iters,
        "dynamics.budget_orbits": budget,
        "dynamics.pixel_iters_per_s": _ratio(iters, t1),
        "dynamics.classify_s": t_n,
        "dynamics.scaling_eff": _ratio(t1, nproc * t_n),
        "topology.components": sum(s.kept(label)),
        "topology.label_s": s.dur(label),
        "topology.connectivity_calls": len(conn),
        "topology.connectivity_s": s.dur(conn),
        "pixmap.render_s": s.dur(s.idx("pixmap.")),
        "scenario.items": sum(s.kept(runs)),
        "scenario.self_s": s.self_time(runs),
        "trace.overhead_s": cpu - plain_cpu,
    }
    return m, {k: m[k] for k in COUNTS}
