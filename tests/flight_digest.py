#!/usr/bin/env python3
"""Digests of whole flights, for checking that a change keeps outputs to the bit.

    python3 tests/flight_digest.py

Prints five SHA-256 digests: one over the `dataclasses.asdict` form of
every `OptimizeReport` and the final estimates' bytes of the flights below,
one of the CSV of a 2x2 `run_sweep`, one over the `dataclasses.asdict` form
of each flight's `evaluate(estimates, truth)`, its arrays as bytes (the CSV
rounds errors to 9 digits), one over the line, then point, channel
bytes of `render` at every pose of the frame orbits below, and one over the
same bytes of `degrade_measurements` of the degraded frames below.  Two
trees whose digests are equal fly those flights, and render and degrade
those frames, to the same bits.  The script imports turbloc from the `src/`
beside it; pytest does not collect it (its name does not start with test_).

The scene is the baseline one: a 10 m tower with 5 m blades, a 256x256
camera with f=200 on an orbit of radius 30 m, GPS/IMU noise of 0.08 m and
6 deg per step.  "Degraded" frames are `degrade_measurements(frames, 0.1,
5.0, seed=7)`; "batch" adds every keyframe and then optimizes once.

- 12 keyframes, noise seeds 123-125: clean incremental, degraded
  incremental and degraded batch flights;
- 24 keyframes, noise seed 123: a degraded incremental flight;
- 48 keyframes, noise seed 123: a clean batch flight;
- the sweep: the 24-keyframe orbit at sigma_t {0.03, 0.08} m and sigma_r
  {2, 6} deg, root seed 9;
- the frames: the flights' 12-, 24- and 48-keyframe orbits of radius 30 m
  and 24-pose orbits of radius 6, 8 and 12 m, each rendered at sigma 2, 5
  and 8 px; the close orbits run features off the image;
- the degraded frames: the 12-keyframe orbit of radius 30 m and the 24-pose
  orbit of radius 6 m rendered at sigma 5, each degraded at (pixel sigma,
  jitter px) (0, 5), (0.1, 0), (0.1, 5) and (0.05, 40) with seeds 7 and 8.
"""

import hashlib
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from turbloc.geometry import CameraIntrinsics  # noqa: E402
from turbloc.heatmap import render  # noqa: E402
from turbloc.matching import MatchConfig  # noqa: E402
from turbloc.posegraph import GraphWeights, PoseGraph, SolverConfig  # noqa: E402
from turbloc.simulation import (  # noqa: E402
    NoiseSpec,
    Trajectory,
    build_and_optimize,
    degrade_measurements,
    evaluate,
    generate_orbit_trajectory,
    inject_noise,
    run_sweep,
    simulate_measurements,
)
from turbloc.turbine import TurbineParams, build_skeleton, subdivide  # noqa: E402

DEG = math.pi / 180.0
CAMERA = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
SKELETON = build_skeleton(
    TurbineParams(np.zeros(3), 0.0, 10.0, 1.0, 5.0, np.array([90.0, 210.0, 330.0]) * DEG)
)


def batch(noisy, frames):
    """Add every keyframe, then optimize once."""
    cfg = MatchConfig()
    graph = PoseGraph(SKELETON, subdivide(SKELETON, cfg.s_tower, cfg.s_hub, cfg.s_blade), CAMERA)
    for pose, frame in zip(noisy.poses, frames):
        graph.add_keyframe(pose, frame)
    return graph, [graph.optimize()]


def incremental(noisy, frames):
    return build_and_optimize(noisy, frames, SKELETON, CAMERA, GraphWeights(), MatchConfig(), SolverConfig())


def flights():
    """(name, fly, keyframes, degraded, noise seed) of each flight."""
    for seed in (123, 124, 125):
        yield "clean incremental", incremental, 12, False, seed
        yield "degraded incremental", incremental, 12, True, seed
        yield "degraded batch", batch, 12, True, seed
    yield "degraded incremental", incremental, 24, True, 123
    yield "clean batch", batch, 48, False, 123


def error_bytes(report):
    """The `dataclasses.asdict` form of an `ErrorReport`, its arrays as bytes:
    the repr of an array rounds."""
    return repr({k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in asdict(report).items()}).encode()


def frame_orbits():
    """(radius, poses) of each orbit whose renders the frames line digests."""
    yield from ((30.0, n) for n in (12, 24, 48))
    yield from ((radius, 24) for radius in (6.0, 8.0, 12.0))


def main():
    digest, errors = hashlib.sha256(), hashlib.sha256()
    for name, fly, n, degraded, seed in flights():
        start = time.perf_counter()
        truth = generate_orbit_trajectory(SKELETON, 30.0, n)
        frames = simulate_measurements(truth, SKELETON, CAMERA)
        if degraded:
            frames = degrade_measurements(frames, 0.1, 5.0, seed=7)
        noisy = inject_noise(truth, NoiseSpec(0.08, 6.0 * DEG, seed))
        graph, reports = fly(noisy, frames)
        for report in reports:
            digest.update(repr(asdict(report)).encode())
        for pose in graph.estimates():
            digest.update(pose.t.tobytes() + pose.q.tobytes())
        errors.update(error_bytes(evaluate(Trajectory(truth.timestamps, tuple(graph.estimates())), truth)))
        print(f"{name}, {n} keyframes, seed {seed}: {time.perf_counter() - start:.2f} s", file=sys.stderr)
    truth = generate_orbit_trajectory(SKELETON, 30.0, 24)
    csv = run_sweep(truth, SKELETON, CAMERA, [0.03, 0.08], [2.0 * DEG, 6.0 * DEG], seed=9).to_csv()
    print(f"flights {digest.hexdigest()}")
    print(f"sweep   {hashlib.sha256(csv.encode()).hexdigest()}")
    print(f"errors  {errors.hexdigest()}")
    frames = hashlib.sha256()
    for radius, n in frame_orbits():
        for pose in generate_orbit_trajectory(SKELETON, radius, n).poses:
            for sigma in (2.0, 5.0, 8.0):
                frame = render(SKELETON, pose, CAMERA, sigma)
                frames.update(frame.line_channels.tobytes() + frame.point_channels.tobytes())
    print(f"frames  {frames.hexdigest()}")
    clean = [render(SKELETON, pose, CAMERA) for radius, n in ((30.0, 12), (6.0, 24))
             for pose in generate_orbit_trajectory(SKELETON, radius, n).poses]
    degraded = hashlib.sha256()
    for pixel_sigma, jitter_px in ((0.0, 5.0), (0.1, 0.0), (0.1, 5.0), (0.05, 40.0)):
        for seed in (7, 8):
            for frame in degrade_measurements(clean, pixel_sigma, jitter_px, seed):
                degraded.update(frame.line_channels.tobytes() + frame.point_channels.tobytes())
    print(f"degraded {degraded.hexdigest()}")


if __name__ == "__main__":
    main()
