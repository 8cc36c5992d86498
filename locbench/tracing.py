"""Runtime spans around turbloc's public names, installed from outside.

No program file is edited: ``Tracer.install`` replaces module and class
attributes with thin wrappers and ``uninstall`` puts the originals back.
Names are wrapped where the caller looks them up, because the program's
modules bind what they import (``posegraph`` calls its own
``match_frame_arrays`` name, ``simulation`` its own ``render``).

Spans (name, start, end, parent) stay in memory and are written to one JSON
file at exit.  Calls into ``geometry`` from the other modules are counted
rather than spanned: there are hundreds of thousands per flight.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import Counter


class Tracer:
    def __init__(self, scale_now):
        # scale_now() -> nominal/measured reference factor at this moment;
        # each span keeps the factor current when it started
        self.scale_now = scale_now
        self.spans: list[dict] = []
        self.geometry_calls = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name, fn, info=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            span = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent,
                    "scale": tracer.scale_now()}
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                span["info"] = info(args, result)
            return result

        return wrapper

    def _counted(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.geometry_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, turbloc) -> None:
        """Wrap the layer boundaries of the imported turbloc package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        heatmap, matching, posegraph, simulation = (
            turbloc.heatmap, turbloc.matching, turbloc.posegraph, turbloc.simulation,
        )
        # geometry first, so the layer wrappers below are not mistaken for it
        for module in (turbloc.turbine, heatmap, matching, posegraph, simulation):
            for attr, obj in list(vars(module).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == "turbloc.geometry"
                    and not attr.startswith("_")
                ):
                    self._patch(module, attr, self._counted(obj))

        def match_info(args, result):
            return {"points": result.n_points, "lines": result.n_lines}

        def optimize_info(args, report):
            graph = args[0]
            cfg = args[1] if len(args) > 1 and args[1] is not None else posegraph.SolverConfig()
            return {
                "keyframes": len(graph),
                "iterations": report.iterations,
                "termination": report.termination,
                "max_iterations": cfg.max_iterations,
            }

        self._patch(posegraph, "match_frame_arrays",
                    self._spanned("matching.match_frame_arrays", posegraph.match_frame_arrays, match_info))
        graph_cls = posegraph.PoseGraph
        self._patch(graph_cls, "optimize",
                    self._spanned("posegraph.optimize", graph_cls.optimize, optimize_info))
        self._patch(graph_cls, "add_keyframe", self._spanned("posegraph.add_keyframe", graph_cls.add_keyframe))
        for module in (heatmap, simulation):
            self._patch(module, "render", self._spanned("heatmap.render", module.render))
        for attr in ("write_frame", "read_frame"):
            self._patch(heatmap, attr, self._spanned(f"heatmap.{attr}", getattr(heatmap, attr)))
        for attr in ("simulate_measurements", "inject_noise", "degrade_measurements", "evaluate"):
            self._patch(simulation, attr, self._spanned(f"simulation.{attr}", getattr(simulation, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def mark(self) -> tuple[int, int]:
        return len(self.spans), self.geometry_calls

    def layer_metrics(self, cycles_from: tuple[int, int], cycles: int) -> dict:
        """Per-layer figures: times per call over every span, counts per traced
        cycle over the spans recorded from the mark `cycles_from` on."""
        spans = self.spans
        norm = [(s["end"] - s["start"]) * s["scale"] for s in spans]
        child_s = Counter()
        for i, s in enumerate(spans):
            if s["parent"] >= 0:
                child_s[s["parent"]] += norm[i]

        def indices(name, first=0):
            return [i for i in range(first, len(spans)) if spans[i]["name"] == name]

        def per_call_ms(name):
            idx = indices(name)
            return 1000.0 * sum(norm[i] for i in idx) / len(idx) if idx else 0.0

        match_idx = indices("matching.match_frame_arrays", cycles_from[0])
        opt_idx = indices("posegraph.optimize", cycles_from[0])
        opt_set = set(opt_idx)
        calls = len(match_idx)
        visits = 0
        for i in opt_idx:
            info = spans[i]["info"]
            if info["termination"] == "max_iterations":
                passes = info["max_iterations"]
            elif info["termination"] in ("cost_tolerance", "step_tolerance"):
                passes = info["iterations"]
            else:  # the pass that found no step is not counted as an iteration
                passes = info["iterations"] + 1
            visits += info["keyframes"] * passes
        return {
            "matching.calls": calls / cycles,
            "matching.ms_per_call": per_call_ms("matching.match_frame_arrays"),
            "matching.points_per_call": sum(spans[i]["info"]["points"] for i in match_idx) / max(calls, 1),
            "matching.lines_per_call": sum(spans[i]["info"]["lines"] for i in match_idx) / max(calls, 1),
            "posegraph.optimize_calls": len(opt_idx) / cycles,
            "posegraph.gn_iterations": sum(spans[i]["info"]["iterations"] for i in opt_idx) / cycles,
            "posegraph.cap_hits": sum(
                1 for i in opt_idx if spans[i]["info"]["termination"] == "max_iterations"
            ) / cycles,
            "posegraph.self_s": sum(norm[i] - child_s[i] for i in opt_idx) / cycles,
            "posegraph.rematch_ratio": (
                sum(1 for i in match_idx if spans[i]["parent"] in opt_set) / visits if visits else 0.0
            ),
            "heatmap.render_ms": per_call_ms("heatmap.render"),
            "heatmap.write_ms": per_call_ms("heatmap.write_frame"),
            "heatmap.read_ms": per_call_ms("heatmap.read_frame"),
            "simulation.inject_ms": per_call_ms("simulation.inject_noise"),
            "simulation.degrade_ms": per_call_ms("simulation.degrade_measurements"),
            "simulation.evaluate_ms": per_call_ms("simulation.evaluate"),
            "geometry.calls": (self.geometry_calls - cycles_from[1]) / cycles,
        }

    def wrapper_cost_s(self, calls: int = 20_000) -> tuple[float, float]:
        """Seconds one span wrapper and one counting wrapper add per call,
        timed on a no-op with a throwaway tracer (best of 3)."""
        probe = Tracer(self.scale_now)

        def noop():
            return None

        def per_call(fn):
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                best = min(best, time.perf_counter() - t0)
            return best / calls

        bare = per_call(noop)
        span = per_call(probe._spanned("calibration", noop)) - bare
        probe.spans.clear()
        return span, per_call(probe._counted(noop)) - bare

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"geometry_calls": self.geometry_calls, "spans": self.spans}, fh)
