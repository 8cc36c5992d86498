"""Synthetic-flight evaluation: noise injection, measurements, error sweeps.

Ground-truth trajectories orbit the turbine at inspection distance.  Noise
is injected as a relative-pose random walk: every step's relative transform
is composed with a small perturbation (translation ~ N(0, sigma_t^2 I),
rotation angle ~ N(0, sigma_r^2) about a uniformly random axis), so the
absolute error starts near zero and accumulates over the flight.  Image
measurements are rendered at the ground-truth poses and are error free.

Randomness is fully reproducible: every noise step draws its 7 normals
(translation xyz, angle, axis xyz, in that order) from its own PCG64 stream
spawned from the spec seed, and each sweep cell derives its own seed from
the root seed and the cell index, so extending the grid never changes
earlier cells.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import product

import numpy as np

from .geometry import (
    CameraIntrinsics,
    Pose,
    compose_rows,
    geodesic_angle,
    look_at_pose,
    quat_from_rotvec,
    quat_normalize,
    relative_rows,
)
from .heatmap import HeatmapFrame, render
from .matching import MatchConfig
from .posegraph import GraphWeights, OptimizeReport, PoseGraph, SolverConfig
from .turbine import TurbineSkeleton, subdivide

NORMAL_TERMINATIONS = ("step_tolerance", "cost_tolerance", "stalled")


@dataclass(frozen=True, eq=False)
class Trajectory:
    timestamps: np.ndarray  # (n,), seconds, strictly increasing
    poses: tuple[Pose, ...]

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float).reshape(-1)
        poses = tuple(self.poses)
        if len(poses) < 2:
            raise ValueError("a trajectory needs at least 2 poses")
        if ts.shape[0] != len(poses):
            raise ValueError("timestamp/pose count mismatch")
        if not np.all(np.isfinite(ts)):
            raise ValueError("timestamps must be finite")
        if not np.all(np.diff(ts) > 0.0):
            raise ValueError("timestamps must be strictly increasing")
        ts = ts.copy()
        ts.flags.writeable = False
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "poses", poses)

    def __len__(self):
        return len(self.poses)


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class NoiseSpec:
    sigma_t: float  # per-step translation noise std, meters
    sigma_r: float  # per-step rotation angle noise std, radians
    seed: int

    def __post_init__(self):
        if not all(np.isfinite(v) and v >= 0.0 for v in (self.sigma_t, self.sigma_r)):
            raise ValueError("noise magnitudes must be finite and non-negative")
        _check_seed(self.seed)


@dataclass(eq=False)
class ErrorReport:
    translation_errors: np.ndarray  # (n,), meters
    rotation_errors: np.ndarray  # (n,), radians (geodesic angle)
    mean_translation_error: float
    mean_rotation_error: float


def generate_orbit_trajectory(skeleton: TurbineSkeleton, radius: float, n_keyframes: int) -> Trajectory:
    """Circular inspection orbit around the blade centre, camera aimed at it,
    sampled at one keyframe per second."""
    if not (np.isfinite(radius) and radius > float(np.linalg.norm(skeleton.points[3] - skeleton.points[2]))):
        raise ValueError("orbit radius must be finite and exceed the blade length")
    if not isinstance(n_keyframes, (int, np.integer)) or isinstance(n_keyframes, bool):
        raise ValueError("n_keyframes must be an integer")
    if n_keyframes < 2:
        raise ValueError("an orbit needs at least 2 keyframes")
    centre = skeleton.point("blade_centre")
    poses = []
    for i in range(n_keyframes):
        angle = 2.0 * np.pi * i / n_keyframes
        eye = centre + radius * np.array([np.cos(angle), np.sin(angle), 0.0])
        poses.append(look_at_pose(eye, centre))
    return Trajectory(np.arange(n_keyframes, dtype=float), tuple(poses))


def inject_noise(truth: Trajectory, spec: NoiseSpec) -> Trajectory:
    """Random-walk noisy version of a trajectory; deterministic given the seed.

    Step i's relative transform (`relative_pose` of poses i and i+1) is
    composed with its perturbation, and the noisy poses chain these noisy
    steps from the first true pose.  The steps are computed as arrays; only
    the chain is a loop, because each pose depends on the one before.
    """
    if spec.sigma_t == 0.0 and spec.sigma_r == 0.0:
        return Trajectory(truth.timestamps, truth.poses)
    t = np.array([p.t for p in truth.poses])
    q = np.array([p.q for p in truth.poses])
    step_t, step_q = relative_rows(t[:-1], q[:-1], t[1:], q[1:])
    step_q = quat_normalize(step_q)

    streams = np.random.SeedSequence(spec.seed).spawn(len(truth) - 1)
    draws = np.array([np.random.default_rng(s).standard_normal(7) for s in streams])
    dt = spec.sigma_t * draws[:, :3]
    angle = spec.sigma_r * draws[:, 3:4]
    axis = draws[:, 4:]
    # vecdot rounds like the 1-D np.linalg.norm of one axis
    norm = np.sqrt(np.vecdot(axis, axis))[:, None]
    usable = norm > 1e-12
    axis = np.where(usable, axis / np.where(usable, norm, 1.0), [1.0, 0.0, 0.0])
    dq = quat_normalize(quat_from_rotvec(angle * axis))

    move_t, move_q = compose_rows(step_t, step_q, dt, dq)
    move_q = quat_normalize(move_q)
    noisy = [truth.poses[0]]
    for mt, mq in zip(move_t, move_q):
        noisy.append(Pose(*compose_rows(noisy[-1].t, noisy[-1].q, mt, mq)))
    return Trajectory(truth.timestamps, tuple(noisy))


def degrade_measurements(
    frames: list[HeatmapFrame], pixel_sigma: float, jitter_px: float, seed: int
) -> list[HeatmapFrame]:
    """Optional measurement degradation: additive pixel noise and per-channel
    integer peak jitter.  Off by default; simulated measurements are error
    free unless explicitly requested."""
    _check_seed(seed)
    if not all(np.isfinite(v) and v >= 0.0 for v in (pixel_sigma, jitter_px)):
        raise ValueError("pixel_sigma and jitter_px must be finite and non-negative")
    if pixel_sigma == 0.0 and jitter_px == 0.0:
        return list(frames)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for frame in frames:
        stacks = []
        for stack in (frame.line_channels, frame.point_channels):
            chans = stack.astype(np.float64)
            if jitter_px > 0.0:
                shifted = np.empty_like(chans)
                for c in range(chans.shape[0]):
                    # int of a finite float is exact at any size, and np.roll
                    # reduces the shift modulo the channel's size
                    dx, dy = map(int, np.rint(rng.normal(0.0, jitter_px, 2)))
                    shifted[c] = np.roll(chans[c], (dy, dx), axis=(0, 1))
                chans = shifted
            if pixel_sigma > 0.0:
                chans = chans + rng.normal(0.0, pixel_sigma, chans.shape)
            stacks.append(np.clip(chans, 0.0, 1.0))
        out.append(HeatmapFrame(stacks[0], stacks[1]))
    return out


def simulate_measurements(truth: Trajectory, skeleton: TurbineSkeleton, k: CameraIntrinsics) -> list[HeatmapFrame]:
    """Error-free network-output stand-ins: one rendered frame per true pose."""
    return [render(skeleton, pose, k) for pose in truth.poses]


def evaluate(optimized: Trajectory, truth: Trajectory) -> ErrorReport:
    """Per-keyframe translation and geodesic rotation errors, plus means."""
    if len(optimized) != len(truth):
        raise ValueError("trajectory lengths differ")
    if not np.array_equal(optimized.timestamps, truth.timestamps):
        raise ValueError("trajectory timestamps differ")
    d = np.array([p.t for p in optimized.poses]) - np.array([p.t for p in truth.poses])
    # vecdot rounds like the 1-D np.linalg.norm of each difference
    t_err = np.sqrt(np.vecdot(d, d))
    r_err = geodesic_angle(np.array([p.q for p in optimized.poses]), np.array([p.q for p in truth.poses]))
    return ErrorReport(t_err, r_err, float(t_err.mean()), float(r_err.mean()))


def build_and_optimize(
    measured: Trajectory,
    frames: list[HeatmapFrame],
    skeleton: TurbineSkeleton,
    k: CameraIntrinsics,
    weights: GraphWeights,
    match_cfg: MatchConfig,
    solver_cfg: SolverConfig,
) -> tuple[PoseGraph, list[OptimizeReport]]:
    """Incremental pipeline: add each keyframe, then optimize the whole graph."""
    if len(frames) != len(measured):
        raise ValueError("frame count does not match the trajectory")
    subdivided = subdivide(skeleton, match_cfg.s_tower, match_cfg.s_hub, match_cfg.s_blade)
    graph = PoseGraph(skeleton, subdivided, k, weights, match_cfg)
    reports = []
    for pose, frame in zip(measured.poses, frames):
        graph.add_keyframe(pose, frame)
        reports.append(graph.optimize(solver_cfg))
    return graph, reports


# ---------------------------------------------------------------------------
# noise sweep (Fig. 5-style grid)
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SweepCell:
    sigma_t: float
    sigma_r: float  # radians
    pre: ErrorReport
    post: ErrorReport
    iterations: int
    status: str


@dataclass
class SweepReport:
    cells: list

    CSV_COLUMNS = (
        "sigma_t",
        "sigma_r_deg",
        "pre_t_err",
        "post_t_err",
        "pre_r_err_deg",
        "post_r_err_deg",
        "iterations",
        "status",
    )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for c in self.cells:
            writer.writerow(
                [
                    "%.9g" % c.sigma_t,
                    "%.9g" % np.degrees(c.sigma_r),
                    "%.9g" % c.pre.mean_translation_error,
                    "%.9g" % c.post.mean_translation_error,
                    "%.9g" % np.degrees(c.pre.mean_rotation_error),
                    "%.9g" % np.degrees(c.post.mean_rotation_error),
                    str(c.iterations),
                    c.status,
                ]
            )
        return buf.getvalue()


def cell_seed(root_seed: int, cell_index: int) -> int:
    """Per-cell noise seed; stable when cells are appended to the grid."""
    _check_seed(root_seed)
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(cell_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def run_sweep(
    truth: Trajectory,
    skeleton: TurbineSkeleton,
    k: CameraIntrinsics,
    sigma_t_grid,
    sigma_r_grid,
    weights: GraphWeights | None = None,
    match_cfg: MatchConfig | None = None,
    solver_cfg: SolverConfig | None = None,
    seed: int = 0,
) -> SweepReport:
    """Noise-grid experiment: inject, build incrementally, optimize, evaluate.

    Cells are independent and deterministic; measurements are rendered once
    at ground truth and shared.
    """
    _check_seed(seed)
    sigma_t_grid = [float(s) for s in sigma_t_grid]
    sigma_r_grid = [float(s) for s in sigma_r_grid]
    if not sigma_t_grid or not sigma_r_grid:
        raise ValueError("noise grid must be non-empty")
    frames = simulate_measurements(truth, skeleton, k)
    weights = weights or GraphWeights()
    match_cfg = match_cfg or MatchConfig()
    solver_cfg = solver_cfg or SolverConfig()
    cells = []
    for i, (sigma_t, sigma_r) in enumerate(product(sigma_t_grid, sigma_r_grid)):
        noisy = inject_noise(truth, NoiseSpec(sigma_t, sigma_r, cell_seed(seed, i)))
        pre = evaluate(noisy, truth)
        try:
            graph, reports = build_and_optimize(noisy, frames, skeleton, k, weights, match_cfg, solver_cfg)
        except Exception as exc:  # per-cell flag, never abort the sweep
            nan_report = ErrorReport(
                np.full(len(truth), np.nan), np.full(len(truth), np.nan), float("nan"), float("nan")
            )
            cells.append(SweepCell(sigma_t, sigma_r, pre, nan_report, 0, f"error:{type(exc).__name__}"))
            continue
        post = evaluate(Trajectory(truth.timestamps, tuple(graph.estimates())), truth)
        iterations = sum(r.iterations for r in reports)
        flags = sorted({r.termination for r in reports} - set(NORMAL_TERMINATIONS))
        cells.append(SweepCell(sigma_t, sigma_r, pre, post, iterations, "ok" if not flags else ";".join(flags)))
    return SweepReport(cells)
