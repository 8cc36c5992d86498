"""The names locbench's tracer wraps at runtime must exist in turbloc.

``locbench/tracing.py`` patches module and class attributes by name
(``posegraph.match_frame_arrays``, ``PoseGraph.optimize`` and
``add_keyframe``, ``render``, ``read_frame`` / ``write_frame`` and the
``simulation`` entry points) and reads ``n_points`` / ``n_lines`` of each
match.  Renaming or removing one of them makes ``Tracer.install`` or the
traced run raise, so this test installs the tracer on the imported package,
flies three keyframes and checks what it recorded.
"""

import math
import sys
from pathlib import Path

import numpy as np

import turbloc.heatmap
import turbloc.matching
import turbloc.posegraph
import turbloc.simulation
import turbloc.turbine
from turbloc.geometry import CameraIntrinsics
from turbloc.matching import MatchConfig
from turbloc.posegraph import PoseGraph, SolverConfig

LOCBENCH = str(Path(__file__).resolve().parent.parent / "locbench")
if LOCBENCH not in sys.path:
    sys.path.insert(0, LOCBENCH)

from tracing import Tracer  # noqa: E402

DEG = math.pi / 180.0
OWNERS = (turbloc.turbine, turbloc.heatmap, turbloc.matching, turbloc.posegraph, turbloc.simulation, PoseGraph)


def attributes():
    return {(owner.__name__, name): value for owner in OWNERS for name, value in vars(owner).items()}


# terminations whose last pass took no step, so the keyframes stay at the
# poses of their last match and the pose graph serves the next call's first
# pass of every older keyframe without calling the matcher
NO_STEP = ("stalled", "no_descent", "solve_failure", "rank_deficient")


def passes(info):
    """Matching passes of one optimize call, as the tracer's metrics count them."""
    if info["termination"] == "max_iterations":
        return info["max_iterations"]
    if info["termination"] in ("cost_tolerance", "step_tolerance"):
        return info["iterations"]
    return info["iterations"] + 1


def test_traced_flight(tmp_path):
    sim = turbloc.simulation
    skeleton = turbloc.turbine.build_skeleton(
        turbloc.turbine.TurbineParams(np.zeros(3), 0.0, 10.0, 1.0, 5.0, np.array([90.0, 210.0, 330.0]) * DEG)
    )
    cfg = MatchConfig()
    subdivided = turbloc.turbine.subdivide(skeleton, cfg.s_tower, cfg.s_hub, cfg.s_blade)
    k = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
    before = attributes()
    tracer = Tracer(lambda: 1.0)
    tracer.install(turbloc)
    try:
        assert turbloc.posegraph.match_frame_arrays is not before[("turbloc.posegraph", "match_frame_arrays")]
        truth = sim.generate_orbit_trajectory(skeleton, 30.0, 3)
        noisy = sim.inject_noise(truth, sim.NoiseSpec(0.08, 6.0 * DEG, seed=123))
        frames = sim.degrade_measurements(sim.simulate_measurements(truth, skeleton, k), 0.1, 5.0, seed=7)
        graph = PoseGraph(skeleton, subdivided, k, match_cfg=cfg)
        for i, (pose, frame) in enumerate(zip(noisy.poses, frames)):
            path = tmp_path / f"kf{i}.tmbt"
            turbloc.heatmap.write_frame(frame, path)
            graph.add_keyframe(pose, turbloc.heatmap.read_frame(path))
            # 8 passes: the first call stalls, the later ones reach the cap
            graph.optimize(SolverConfig(max_iterations=8))
        sim.evaluate(sim.Trajectory(truth.timestamps, tuple(graph.estimates())), truth)
        metrics = tracer.layer_metrics((0, 0), 1)
    finally:
        tracer.uninstall()

    after = attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = [span["name"] for span in tracer.spans]
    optimize = [span["info"] for span in tracer.spans if span["name"] == "posegraph.optimize"]
    assert [info["keyframes"] for info in optimize] == [1, 2, 3]
    assert {"stalled", "max_iterations"} <= {info["termination"] for info in optimize}
    visits = sum(info["keyframes"] * passes(info) for info in optimize)
    served = sum(before["keyframes"] for before in optimize[:-1] if before["termination"] in NO_STEP)
    assert served > 0
    assert names.count("matching.match_frame_arrays") == visits - served
    for name, count in (
        ("posegraph.add_keyframe", 3),
        ("heatmap.write_frame", 3),
        ("heatmap.read_frame", 3),
        ("heatmap.render", 3),
        ("simulation.simulate_measurements", 1),
        ("simulation.inject_noise", 1),
        ("simulation.degrade_measurements", 1),
        ("simulation.evaluate", 1),
    ):
        assert names.count(name) == count, name
    assert metrics["matching.calls"] == names.count("matching.match_frame_arrays")
    assert metrics["posegraph.rematch_ratio"] == (visits - served) / visits
    assert metrics["matching.points_per_call"] > 0 and metrics["matching.lines_per_call"] > 0
    assert metrics["geometry.calls"] > 0

