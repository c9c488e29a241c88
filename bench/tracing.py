"""Spans around wanderlab's public functions, for the traced pass.

Each wrapped function is replaced at the name its caller looks up (for
example ``wanderlab.certify.eval_map_box``), so a call from inside the
package records a span with its name, start, end and parent span.  Spans
stay in memory as flat arrays; ``save`` writes them out after the pass.
A few wrappers also keep what the call returned that a metric needs
(a certificate's box count, a batch size).  ``Tracer.installed`` puts the
originals back on exit, and checks that it did.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _batch(args, out):
    return int(np.size(args[1]))


def _certificate(args, out):
    s = out.stats
    return (int(s["boxes_examined"]), int(s["max_depth"]), int(s["survivors"]),
            out.verdict == "proved")


# (module, attribute, span name, what to keep from the call).  Span names
# are "<layer>.<function>"; the layer is the wanderlab module that does the work.
_NUMERICS = ("box_add", "box_sub", "box_mul", "box_div", "box_neg", "box_exp",
             "box_sin", "box_pow_int")
TARGETS = (
    [("maps", f, f"numerics.{f}", None) for f in _NUMERICS]
    + [
        ("certify", "eval_map_box", "maps.eval_map_box", None),
        ("certify", "eval_map_vec", "maps.eval_map_vec", _batch),
        ("dynamics", "eval_map_vec", "maps.eval_map_vec", _batch),
        ("dynamics", "eval_map", "maps.eval_map", None),
        ("scenario", "eval_map", "maps.eval_map", None),
        ("certify", "certify_inclusion", "certify.certify_inclusion", _certificate),
        ("certify", "certify_inequality", "certify.certify_inequality", _certificate),
        ("certify", "winding_number", "certify.winding_number", lambda a, o: o.samples),
        ("scenario", "certify_inclusion", "certify.certify_inclusion", _certificate),
        ("scenario", "certify_inequality", "certify.certify_inequality", _certificate),
        ("scenario", "winding_number", "certify.winding_number", lambda a, o: o.samples),
        ("scenario", "count_zeros_inside", "certify.count_zeros_inside", None),
        ("scenario", "locate_preimages", "certify.locate_preimages", None),
        ("scenario", "derive_ex2_constants", "certify.derive_ex2_constants", None),
        ("scenario", "classify_grid", "dynamics.classify_grid", None),
        ("scenario", "find_fixed_point", "dynamics.find_fixed_point", None),
        ("scenario", "track_wandering", "dynamics.track_wandering", None),
        ("scenario", "label_components", "topology.label_components",
         lambda a, o: len(o.component_table)),
        ("scenario", "connectivity", "topology.connectivity", None),
        ("topology", "connectivity", "topology.connectivity", None),
        ("scenario", "surrounds", "topology.surrounds", None),
        ("scenario", "connectivity_monotonicity_check", "topology.monotonicity", None),
        ("scenario", "render_pixmap", "pixmap.render_pixmap", None),
        ("scenario", "run_scenario", "scenario.run_scenario",
         lambda a, o: len(o["items"])),
    ]
)
REGION_METHODS = ("box_inside", "box_disjoint")


class Tracer:
    """Span store: one row per call, parent = index of the enclosing span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.kept: dict[int, object] = {}
        self._stack = [-1]

    def wrap(self, span: str, fn, keep=None):
        nid = self._ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, kept, clock = self._stack, self.kept, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if keep is not None:
                kept[idx] = keep(args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        from wanderlab import regions

        saved = []
        for mod, attr, span, keep in TARGETS:
            owner = importlib.import_module(f"wanderlab.{mod}")
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self.wrap(span, getattr(owner, attr), keep))
        for cls in vars(regions).values():
            if isinstance(cls, type) and issubclass(cls, regions.Region) \
                    and cls is not regions.Region:
                for attr in REGION_METHODS:
                    if attr in vars(cls):
                        saved.append((cls, attr, vars(cls)[attr]))
                        setattr(cls, attr, self.wrap(f"regions.{attr}", vars(cls)[attr]))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            if any(vars(owner)[attr] is not original for owner, attr, original in saved):
                raise RuntimeError("a traced function was not restored")

    def table(self) -> dict:
        """Columns as numpy arrays, with durations and self times."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        child = np.bincount(parent + 1, weights=dur, minlength=len(dur) + 1)[1:]
        return {"name": np.frombuffer(self.name, dtype=np.int32), "parent": parent,
                "dur": dur, "self": dur - child}

    def select(self, t: dict, prefix: str) -> np.ndarray:
        """Indices of spans whose name starts with prefix."""
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.nonzero(np.isin(t["name"], ids))[0]

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int64),
                            start=np.frombuffer(self.start, dtype=np.float64),
                            end=np.frombuffer(self.end, dtype=np.float64))
