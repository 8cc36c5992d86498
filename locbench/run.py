#!/usr/bin/env python3
"""Accuracy-and-time benchmark of turbloc's localisation pipeline.

    python3 locbench/run.py --workload incremental --seed 1 --seconds 40 --trace 0

Runs one workload (incremental, degraded or batch; see README.md) through
turbloc's public API, in one process with BLAS/OpenMP threads pinned to 1,
checks the outputs with formulas of its own, and prints as its last line one
JSON object: correct, attempted, failed and the metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones from a run
whose layer boundaries are wrapped at runtime (spans go to
.locbench/trace-<workload>-seed<seed>.json).  Every time is host-normalised
by hostref.HostReference; raw seconds are printed on the lines before.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import independent  # noqa: E402
from hostref import NOMINAL_S, HostReference, PairedClock, median_hd, percentile  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".locbench"

DEG = math.pi / 180.0
CAMERA = (200.0, 200.0, 127.5, 127.5, 256, 256)  # fx, fy, cx, cy, width, height
ORBIT_RADIUS = 30.0
DEGRADE = (0.1, 5.0, 7)  # pixel sigma, jitter px, degradation seed
SETUP_REPEATS = 5
MATCH_TOL_PX = 0.01

LAYER_UNITS = {
    "matching.calls": "count",
    "matching.ms_per_call": "ms",
    "matching.points_per_call": "count",
    "matching.lines_per_call": "count",
    "posegraph.optimize_calls": "count",
    "posegraph.gn_iterations": "count",
    "posegraph.cap_hits": "count",
    "posegraph.self_s": "s",
    "posegraph.rematch_ratio": "ratio",
    "heatmap.render_ms": "ms",
    "heatmap.write_ms": "ms",
    "heatmap.read_ms": "ms",
    "simulation.inject_ms": "ms",
    "simulation.degrade_ms": "ms",
    "simulation.evaluate_ms": "ms",
    "geometry.calls": "count",
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class Workload:
    keyframes: int
    # GPS/IMU noise draws of the flights: a fixed evaluation set (README.md)
    noise_seeds: tuple
    sigma_t: float  # per-step random-walk translation noise, m
    sigma_r_deg: float  # per-step random-walk rotation noise, degrees
    degrade: bool
    batch: bool


WORKLOADS = {
    "incremental": Workload(12, (123, 124, 125), 0.08, 6.0, False, False),
    "degraded": Workload(12, (123, 124, 125), 0.08, 6.0, True, False),
    # same orbit and drift per orbit as the 12-keyframe flights, sampled 4x as often
    "batch": Workload(48, (123, 124, 125, 126), 0.04, 3.0, False, True),
}


def import_turbloc():
    """turbloc from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    tl = importlib.import_module("turbloc")
    for name in ("geometry", "turbine", "heatmap", "matching", "posegraph", "simulation"):
        importlib.import_module(f"turbloc.{name}")
    if Path(tl.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"turbloc imported from {tl.__file__}, not from {SRC}")
    return tl


@dataclass
class Inputs:
    skeleton: object
    subdivided: object
    camera: object
    truth: object
    clean: list
    frames: list
    paths: list
    noisy: list
    pre: list  # (mean t error m, mean r error rad) of each flight's GPS/IMU-only poses


def turbine_params(tl):
    """The ROADMAP baseline scene: a 10 m tower with 5 m blades at the origin."""
    return tl.turbine.TurbineParams(
        base_position=np.zeros(3),
        heading=0.0,
        tower_height=10.0,
        hub_offset=1.0,
        blade_length=5.0,
        blade_azimuths=np.array([90.0, 210.0, 330.0]) * DEG,
    )


def set_up(tl, wl: Workload, params, workdir: Path) -> Inputs:
    sim = tl.simulation
    skeleton = tl.turbine.build_skeleton(params)
    cfg = tl.matching.MatchConfig()
    subdivided = tl.turbine.subdivide(skeleton, cfg.s_tower, cfg.s_hub, cfg.s_blade)
    camera = tl.geometry.CameraIntrinsics(*CAMERA)
    truth = sim.generate_orbit_trajectory(skeleton, ORBIT_RADIUS, wl.keyframes)
    clean = sim.simulate_measurements(truth, skeleton, camera)
    frames = sim.degrade_measurements(clean, *DEGRADE) if wl.degrade else clean
    paths = []
    for i, frame in enumerate(frames):
        path = workdir / f"kf{i:03d}.tmbt"
        tl.heatmap.write_frame(frame, path)
        paths.append(path)
    noisy = [sim.inject_noise(truth, sim.NoiseSpec(wl.sigma_t, wl.sigma_r_deg * DEG, s)) for s in wl.noise_seeds]
    reports = [sim.evaluate(n, truth) for n in noisy]
    pre = [(r.mean_translation_error, r.mean_rotation_error) for r in reports]
    return Inputs(skeleton, subdivided, camera, truth, clean, frames, paths, noisy, pre)


# ---------------------------------------------------------------------------
# checks made apart from the program
# ---------------------------------------------------------------------------

def poses_of(trajectory_or_list):
    poses = getattr(trajectory_or_list, "poses", trajectory_or_list)
    return [(p.t, p.q) for p in poses]


def check_matches_at_truth(tl, inp: Inputs) -> list:
    """At each true pose every visible point feature is matched, and every match,
    point or line, sits within MATCH_TOL_PX of the benchmark's own projection."""
    problems = []
    fx, fy, cx, cy, width, height = CAMERA
    points = inp.skeleton.points
    classes = [int(c) for c in tl.turbine.POINT_CLASSES]
    for i, (pose, frame) in enumerate(zip(inp.truth.poses, inp.clean)):
        fm = tl.matching.match_frame_arrays(
            inp.skeleton, inp.subdivided, pose, inp.camera, frame, tl.matching.MatchConfig()
        )
        if len(fm):
            uv, _ = independent.project_points(pose.t, pose.q, fx, fy, cx, cy, fm.points3d)
            err = np.linalg.norm(fm.matched - uv, axis=1)
            if not np.all(err <= MATCH_TOL_PX):
                problems.append(f"keyframe {i}: a match lies {err.max():.3g} px from its projection")
        uv, depth = independent.project_points(pose.t, pose.q, fx, fy, cx, cy, points)
        is_point = fm.kinds == 0
        for j in range(points.shape[0]):
            visible = depth[j] > 1e-6 and -0.5 <= uv[j, 0] < width - 0.5 and -0.5 <= uv[j, 1] < height - 0.5
            if not visible:
                continue
            hit = is_point & (fm.class_ids == classes[j]) & np.all(fm.points3d == points[j], axis=1)
            if not hit.any():
                problems.append(f"keyframe {i}: visible skeleton point {j} not matched")
    return problems


def frame_differs(read, original) -> list:
    same = independent.same_bits(read.line_channels, original.line_channels) and independent.same_bits(
        read.point_channels, original.point_channels
    )
    return [] if same else ["frame read back differs from the frame written"]


def check_setup(tl, inp: Inputs) -> list:
    problems = check_matches_at_truth(tl, inp)
    for i, (path, frame) in enumerate(zip(inp.paths, inp.frames)):
        problems += [f"keyframe {i}: {p}" for p in frame_differs(tl.heatmap.read_frame(path), frame)]
    truth = poses_of(inp.truth)
    for k, (noisy, (t_pre, r_pre)) in enumerate(zip(inp.noisy, inp.pre)):
        t_own, r_own = independent.mean_errors(poses_of(noisy), truth)
        if abs(t_own - t_pre) > 1e-9 or abs(r_own - r_pre) > 1e-9:
            problems.append(f"flight {k}: evaluate disagrees with the independent error formulas")
    return problems


def check_flight_end(tl, inp: Inputs, k: int, estimates) -> tuple[list, tuple]:
    """Final-pose checks of one flight; returns problems and (t, r) mean errors."""
    problems = []
    truth = poses_of(inp.truth)
    t_own, r_own = independent.mean_errors(poses_of(estimates), truth)
    report = tl.simulation.evaluate(tl.simulation.Trajectory(inp.truth.timestamps, tuple(estimates)), inp.truth)
    if abs(report.mean_translation_error - t_own) > 1e-9 or abs(report.mean_rotation_error - r_own) > 1e-9:
        problems.append("evaluate disagrees with the independent error formulas")
    t_pre, r_pre = inp.pre[k]
    if not (t_own < 0.5 * t_pre and r_own < 0.5 * r_pre):
        problems.append(
            f"fused error {t_own:.3f} m / {r_own / DEG:.2f} deg is not below half of "
            f"GPS/IMU-only {t_pre:.3f} m / {r_pre / DEG:.2f} deg"
        )
    return problems, (t_own, r_own)


def insane_estimates(graph) -> list:
    bad = [kf.id for kf in graph.keyframes if not independent.pose_is_sane(kf.estimate.t, kf.estimate.q)]
    return [f"estimates of keyframes {bad} are not finite with unit quaternions"] if bad else []


# ---------------------------------------------------------------------------
# flights
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    op_norm_s: list = field(default_factory=list)
    op_raw_s: list = field(default_factory=list)
    # mean flight time of each cycle, normalised and raw
    cycle_flight_s: list = field(default_factory=list)
    cycle_flight_raw_s: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)  # flight -> (t, r, online t)
    problems: list = field(default_factory=list)

    def op(self, raw: float, norm: float, problems: list, where: str) -> None:
        self.attempted += 1
        self.op_raw_s.append(raw)
        self.op_norm_s.append(norm)
        if problems:
            self.failed += 1
            self.problems.extend(f"{where}: {p}" for p in problems)


def new_graph(tl, inp: Inputs):
    return tl.posegraph.PoseGraph(
        inp.skeleton, inp.subdivided, inp.camera, tl.posegraph.GraphWeights(), tl.matching.MatchConfig()
    )


def fly_incremental(tl, inp: Inputs, k: int, clock: PairedClock, tally: Tally) -> None:
    """Keyframes arrive one at a time: read its heatmaps, add it, optimize the graph."""
    graph = new_graph(tl, inp)
    solver = tl.posegraph.SolverConfig()
    truth = poses_of(inp.truth)
    online = []
    for i, path in enumerate(inp.paths):
        problems = []
        frame = None
        t0 = time.perf_counter()
        try:
            frame = tl.heatmap.read_frame(path)
            graph.add_keyframe(inp.noisy[k].poses[i], frame)
            graph.optimize(solver)
        except Exception:
            problems.append("raised " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        raw = time.perf_counter() - t0
        norm = clock.close(raw)
        if not problems:
            problems += frame_differs(frame, inp.frames[i]) + insane_estimates(graph)
            est = graph.keyframes[i].estimate
            online.append(independent.translation_error(est.t, truth[i][0]))
            if i == len(inp.paths) - 1 and not problems:
                end_problems, (t_err, r_err) = check_flight_end(tl, inp, k, graph.estimates())
                problems += end_problems
                if len(online) == len(inp.paths):
                    tally.accuracy.setdefault(k, (t_err, r_err, sum(online) / len(online)))
        tally.op(raw, norm, problems, f"flight {k} keyframe {i}")


def fly_batch(tl, inp: Inputs, k: int, clock: PairedClock, tally: Tally) -> None:
    """Post-flight processing: all keyframes are added, then one optimize."""
    problems = []
    graph = new_graph(tl, inp)
    read = []
    t0 = time.perf_counter()
    try:
        for i, path in enumerate(inp.paths):
            read.append(tl.heatmap.read_frame(path))
            graph.add_keyframe(inp.noisy[k].poses[i], read[-1])
        graph.optimize(tl.posegraph.SolverConfig())
    except Exception:
        problems.append("raised " + traceback.format_exc(limit=3).strip().splitlines()[-1])
    raw = time.perf_counter() - t0
    norm = clock.close(raw)
    if not problems:
        for frame, original in zip(read, inp.frames):
            problems += frame_differs(frame, original)
        problems += insane_estimates(graph)
        if not problems:
            end_problems, (t_err, r_err) = check_flight_end(tl, inp, k, graph.estimates())
            problems += end_problems
            # every keyframe's own optimize is the single batch optimize
            tally.accuracy.setdefault(k, (t_err, r_err, t_err))
    tally.op(raw, norm, problems, f"flight {k}")


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def run(tl, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    params = turbine_params(tl)
    order = [int(k) for k in np.random.default_rng(seed).permutation(len(wl.noise_seeds))]
    fly = fly_batch if wl.batch else fly_incremental
    workdir = OUT / f"{workload}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    clock = PairedClock(HostReference())
    tracer = Tracer(lambda: NOMINAL_S / clock.last_ref) if trace else None
    try:
        if tracer:
            tracer.install(tl)
        setup_norm, setup_raw = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inp = set_up(tl, wl, params, workdir)
            raw = time.perf_counter() - t0
            setup_raw.append(raw)
            setup_norm.append(clock.close(raw))
        setup_problems = check_setup(tl, inp)
        if tracer:
            cycles_from = tracer.mark()

        tally = Tally()
        cycles = 0
        start = time.perf_counter()
        while True:
            first_op = len(tally.op_norm_s)
            for k in order:
                fly(tl, inp, k, clock, tally)
            tally.cycle_flight_s.append(sum(tally.op_norm_s[first_op:]) / len(order))
            tally.cycle_flight_raw_s.append(sum(tally.op_raw_s[first_op:]) / len(order))
            cycles += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / cycles > seconds:  # whole cycles only
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    problems = setup_problems + tally.problems
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    acc = [tally.accuracy[k] for k in sorted(tally.accuracy)]
    print(
        f"locbench {workload} seed={seed}: {cycles} cycle(s) of {len(order)} flight(s), "
        f"{tally.attempted} ops, {tally.failed} failed"
    )
    print(
        "raw (not gated): setup_s p50 %.4f | flight_s p50 %.4f | op_p50_ms %.3f | reference p50 %.3f ms (nominal %.3f)"
        % (
            percentile(setup_raw, 50), percentile(tally.cycle_flight_raw_s, 50),
            1000 * percentile(tally.op_raw_s, 50), 1000 * percentile(clock.raw_refs, 50), 1000 * NOMINAL_S,
        )
    )
    if len(tally.op_norm_s) >= 40:
        print("normalised op_p90_ms %.3f over %d ops" % (1000 * percentile(tally.op_norm_s, 90), len(tally.op_norm_s)))
    for k, (t_err, r_err, online) in sorted(tally.accuracy.items()):
        t_pre, r_pre = inp.pre[k]
        print(
            f"flight {k} (noise seed {wl.noise_seeds[k]}): GPS/IMU {t_pre:.3f} m {r_pre / DEG:.2f} deg -> "
            f"fused {t_err:.3f} m {r_err / DEG:.2f} deg, online {online:.3f} m"
        )

    result = {
        "correct": not setup_problems and bool(acc),
        "attempted": tally.attempted,
        "failed": tally.failed,
    }
    if trace:
        layers = tracer.layer_metrics(cycles_from, cycles)
        # wrapper cost per call times the wrapped calls of the traced cycles
        span_s, count_s = tracer.wrapper_cost_s()
        added = (len(tracer.spans) - cycles_from[0]) * span_s + (tracer.geometry_calls - cycles_from[1]) * count_s
        layers["trace.overhead_pct"] = 100.0 * added / (sum(tally.op_raw_s) - added)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload}-seed{seed}.json")
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]} for name, value in layers.items()}
    else:
        n = max(len(acc), 1)
        metrics = {
            "setup_s": (median_hd(setup_norm), "s"),
            "flight_s": (median_hd(tally.cycle_flight_s), "s"),
            "op_p50_ms": (1000.0 * median_hd(tally.op_norm_s), "ms"),
            "t_err_m": (sum(a[0] for a in acc) / n, "m"),
            "r_err_deg": (sum(a[1] for a in acc) / n / DEG, "deg"),
            "online_t_err_m": (sum(a[2] for a in acc) / n, "m"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        tl = import_turbloc()
    except ImportError as exc:
        print(f"locbench: cannot import turbloc from {SRC}: {exc}", file=sys.stderr)
        return 2
    result = run(tl, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
