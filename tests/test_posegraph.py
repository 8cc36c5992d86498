import math
import warnings
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from oracles import blank_frame
from turbloc.geometry import (
    EPS_DEPTH,
    CameraIntrinsics,
    Pose,
    compose,
    geodesic_angle,
    in_view,
    look_at_pose,
    pinhole,
    quaternion_boxplus,
    quat_conjugate,
    quat_normalize,
    quat_rotate,
    relative_pose,
    world_to_camera,
)
from turbloc.heatmap import HeatmapFrame, render
from turbloc import posegraph
from turbloc.matching import CorrespondenceKind, FrameMatches, MatchConfig, match_frame_arrays
from turbloc.posegraph import (
    GraphWeights,
    OptimizeReport,
    PoseGraph,
    SolverConfig,
    _Rows,
    _image_jacobian,
    _image_residuals,
    _pose_terms,
    _relative_jacobians,
)
from turbloc.simulation import (
    NoiseSpec,
    build_and_optimize,
    degrade_measurements,
    generate_orbit_trajectory,
    inject_noise,
    simulate_measurements,
)
from turbloc.turbine import TurbineParams, build_skeleton, subdivide
from reference_matching import reference_match_frame_arrays
import reference_posegraph

DEG = math.pi / 180.0


def perturbed(pose, delta):
    return Pose(pose.t + delta[:3], quaternion_boxplus(pose.q, delta[3:]))


@pytest.fixture(scope="module")
def scene():
    params = TurbineParams(
        base_position=np.zeros(3),
        heading=0.0,
        tower_height=10.0,
        hub_offset=1.0,
        blade_length=5.0,
        blade_azimuths=np.array([90.0, 210.0, 330.0]) * DEG,
    )
    skeleton = build_skeleton(params)
    cfg = MatchConfig()
    subdivided = subdivide(skeleton, cfg.s_tower, cfg.s_hub, cfg.s_blade)
    k = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
    return skeleton, subdivided, k, cfg


def orbit_pose(skeleton, azimuth_rad, radius=30.0):
    centre = skeleton.point("blade_centre")
    eye = centre + radius * np.array([math.cos(azimuth_rad), math.sin(azimuth_rad), 0.0])
    return look_at_pose(eye, centre)


def with_outlier(m):
    """`m` plus a copy of its first point row, matched 1000 px away."""
    i = np.flatnonzero(m.kinds == int(CorrespondenceKind.POINT))[:1]
    return FrameMatches(
        points3d=np.concatenate([m.points3d, m.points3d[i]]),
        matched=np.concatenate([m.matched, m.matched[i] + 1000.0]),
        kinds=np.concatenate([m.kinds, m.kinds[i]]),
        class_ids=np.concatenate([m.class_ids, m.class_ids[i]]),
    )


def outlier_on_second_call(monkeypatch):
    """Make the second matcher call add an outlier row, so that on a
    one-keyframe graph pass 2's fresh cost rises above pass 1's.  Returns the
    matcher calls and each pass's fresh cost, as they happen."""
    calls, cost0s = [], []

    def matcher(*args):
        calls.append(args[4])
        m = match_frame_arrays(*args)
        return with_outlier(m) if len(calls) == 2 else m

    match, residuals = PoseGraph._match, PoseGraph._residuals
    fresh = [False]  # whether the next residual step is a pass's, on its fresh rows

    def matched(self, t, q):
        fresh[0] = True
        return match(self, t, q)

    def spy(self, pose, rows):
        out = residuals(self, pose, rows)
        if fresh[0]:  # a pass's cost, not a trial step's
            cost0s.append(out[0])
            fresh[0] = False
        return out

    monkeypatch.setattr(posegraph, "match_frame_arrays", matcher)
    monkeypatch.setattr(PoseGraph, "_match", matched)
    monkeypatch.setattr(PoseGraph, "_residuals", spy)
    return calls, cost0s


def matcher_calls_per_pass(monkeypatch):
    """Record, per `PoseGraph._match` pass, the frames handed to the matcher."""
    calls, passes = [], []
    match = PoseGraph._match

    def counted(*args):
        calls.append(args[4])
        return match_frame_arrays(*args)

    def per_pass(self, t, q):
        before = len(calls)
        rows = match(self, t, q)
        passes.append(calls[before:])
        return rows

    monkeypatch.setattr(posegraph, "match_frame_arrays", counted)
    monkeypatch.setattr(PoseGraph, "_match", per_pass)
    return passes


DELTA = np.array([0.15, -0.1, 0.1, 0.01, 0.02, -0.01])


def truth_graph(scene, azimuths, perturb=None, blank=(), weights=None):
    """Graph whose measurements and frames all come from ground truth."""
    skeleton, subdivided, k, cfg = scene
    graph = PoseGraph(skeleton, subdivided, k, weights or GraphWeights(), cfg)
    truths = [orbit_pose(skeleton, a) for a in azimuths]
    for i, pose in enumerate(truths):
        frame = blank_frame(k.width, k.height) if i in blank else render(skeleton, pose, k)
        graph.add_keyframe(pose, frame)
    if perturb is not None:
        for i, delta in perturb.items():
            graph.keyframes[i].estimate = perturbed(graph.keyframes[i].estimate, delta)
    return graph, truths


class TestAddKeyframe:
    def test_first_keyframe(self, scene):
        skeleton, subdivided, k, cfg = scene
        graph = PoseGraph(skeleton, subdivided, k)
        pose = orbit_pose(skeleton, 0.3)
        graph.add_keyframe(pose, blank_frame(k.width, k.height))
        kf = graph.keyframes[0]
        assert graph.meas_t.shape == (0, 3) and graph.meas_q.shape == (0, 4)
        assert np.array_equal(kf.estimate.t, pose.t)
        assert np.array_equal(kf.estimate.q, pose.q)

    def test_identical_measurement_gives_identity_relative(self, scene):
        skeleton, subdivided, k, cfg = scene
        graph = PoseGraph(skeleton, subdivided, k)
        pose = orbit_pose(skeleton, 0.0)
        frame = blank_frame(k.width, k.height)
        graph.add_keyframe(pose, frame)
        graph.add_keyframe(pose, frame)
        assert np.allclose(graph.meas_t[0], 0.0, atol=1e-12)
        assert geodesic_angle(graph.meas_q[0], np.array([1.0, 0, 0, 0])) < 1e-12

    def test_chain_measurements_compose(self, scene):
        # composition oracle over a 5-keyframe chain
        skeleton, subdivided, k, cfg = scene
        graph = PoseGraph(skeleton, subdivided, k)
        rng = np.random.default_rng(5)
        frame = blank_frame(k.width, k.height)
        poses = []
        for _ in range(5):
            q = quat_normalize(rng.standard_normal(4))
            poses.append(Pose(10 * rng.standard_normal(3), q))
            graph.add_keyframe(poses[-1], frame)
        acc = Pose(graph.meas_t[-1], graph.meas_q[-1])
        for t, q in zip(graph.meas_t[-2::-1], graph.meas_q[-2::-1]):
            acc = compose(acc, Pose(t, q))
        expected = relative_pose(poses[-1], poses[0])
        assert np.linalg.norm(acc.t - expected.t) < 1e-9
        assert geodesic_angle(acc.q, expected.q) < 1e-9

    def test_estimate_seeded_from_previous_estimate(self, scene):
        skeleton, subdivided, k, cfg = scene
        graph = PoseGraph(skeleton, subdivided, k)
        frame = blank_frame(k.width, k.height)
        a = orbit_pose(skeleton, 0.0)
        b = orbit_pose(skeleton, 0.2)
        graph.add_keyframe(a, frame)
        # pretend earlier optimization moved the estimate
        moved = perturbed(a, np.array([0.5, 0, 0, 0, 0, 0.01]))
        graph.keyframes[0].estimate = moved
        graph.add_keyframe(b, frame)
        rel = relative_pose(b, a)
        assert graph.meas_t[0].tobytes() == rel.t.tobytes() and graph.meas_q[0].tobytes() == rel.q.tobytes()
        expected = compose(moved, rel.inverse())
        got = graph.keyframes[1].estimate
        assert np.linalg.norm(got.t - expected.t) < 1e-12
        assert geodesic_angle(got.q, expected.q) < 1e-12

    def test_measurement_rows_survive_optimize(self, scene):
        # adds interleaved with optimize calls: each row stays the bytes of
        # its two measured poses' relative pose
        skeleton, subdivided, k, cfg = scene
        truth = generate_orbit_trajectory(skeleton, 30.0, 5)
        noisy = inject_noise(truth, NoiseSpec(0.08, 6.0 * DEG, seed=123))
        graph = PoseGraph(skeleton, subdivided, k, GraphWeights(), cfg)
        for pose, frame in zip(noisy.poses, simulate_measurements(truth, skeleton, k)):
            graph.add_keyframe(pose, frame)
            assert graph.meas_t.shape == (len(graph) - 1, 3) and graph.meas_q.shape == (len(graph) - 1, 4)
            for i, (cur, prev) in enumerate(zip(noisy.poses[1 : len(graph)], noisy.poses)):
                rel = relative_pose(cur, prev)
                assert graph.meas_t[i].tobytes() == rel.t.tobytes() and graph.meas_q[i].tobytes() == rel.q.tobytes()
            assert graph.optimize().iterations > 0

    def test_rejects_frame_of_another_size(self, scene):
        # a frame of another size than the camera's would match nothing, and
        # optimize would report a rank-deficient graph
        skeleton, subdivided, _, cfg = scene
        k = CameraIntrinsics(200.0, 200.0, 159.5, 119.5, 320, 240)
        graph = PoseGraph(skeleton, subdivided, k)
        pose = orbit_pose(skeleton, 0.0)
        for width, height in ((160, 120), (320, 241), (240, 320)):
            with pytest.raises(ValueError):
                graph.add_keyframe(pose, blank_frame(width, height))
        assert len(graph) == 0
        graph.add_keyframe(pose, render(skeleton, pose, k))
        assert len(graph) == 1 and graph.optimize().termination != "rank_deficient"


# the relative measurements and weights of a one-keyframe graph, which has none
NO_MEASUREMENT = (np.zeros((0, 3)), np.zeros((0, 4)), 1.0, 1.0)


class TestJacobians:
    """The analytic Jacobians of the residual blocks, each evaluated on one row."""

    def fd_check(self, residual_fn, dims, h=1e-6):
        """residual_fn(deltas) -> (r, J_analytic); FD over all dims."""
        r0, jac = residual_fn(np.zeros(dims))
        fd = np.zeros_like(jac)
        for a in range(dims):
            d = np.zeros(dims)
            d[a] = h
            rp, _ = residual_fn(d)
            rm, _ = residual_fn(-d)
            fd[:, a] = (rp - rm) / (2 * h)
        err = np.abs(jac - fd).max() / max(1.0, np.abs(fd).max())
        return err

    def test_image_block_matches_finite_differences(self, scene):
        skeleton, subdivided, k, cfg = scene
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(120):
            pose = orbit_pose(skeleton, rng.uniform(0, 2 * np.pi), radius=rng.uniform(20, 40))
            pose = perturbed(pose, np.concatenate([rng.normal(0, 1.0, 3), rng.normal(0, 0.1, 3)]))
            point = skeleton.points[rng.integers(0, 6)] + rng.normal(0, 2.0, 3)
            uv = pinhole(k, world_to_camera(pose, point))
            if not in_view(k, uv):
                continue
            matched = uv + rng.normal(0, 5.0, 2)
            w = rng.uniform(0.2, 3.0)

            def fn(delta, pose=pose, point=point, matched=matched, w=w):
                p = perturbed(pose, delta)
                rows = _Rows(np.zeros(1, np.int64), point[None], matched[None], np.array([w]))
                img = _image_residuals(_pose_terms(p.t[None], p.q[None], *NO_MEASUREMENT), rows, k)
                assert img.ok[0]
                return img.r[0], _image_jacobian(img, rows.weights, k)[:, :, 0]

            worst = max(worst, self.fd_check(fn, 6))
        assert worst < 1e-4

    def test_relative_block_matches_finite_differences(self, scene):
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(120):
            cur = Pose(5 * rng.standard_normal(3), quat_normalize(rng.standard_normal(4)))
            prev = Pose(5 * rng.standard_normal(3), quat_normalize(rng.standard_normal(4)))
            meas = relative_pose(
                perturbed(cur, 0.3 * rng.standard_normal(6)),
                perturbed(prev, 0.3 * rng.standard_normal(6)),
            )
            sbt, sbr = rng.uniform(0.5, 12.0), rng.uniform(0.5, 25.0)

            def fn(delta, cur=cur, prev=prev, meas=meas, sbt=sbt, sbr=sbr):
                c, p = perturbed(cur, delta[:6]), perturbed(prev, delta[6:])
                pose = _pose_terms(
                    np.stack([p.t, c.t]), np.stack([p.q, c.q]), meas.t[None], quat_conjugate(meas.q[None]), sbt, sbr
                )
                j_cur, j_prev = _relative_jacobians(pose, sbt, sbr)
                return pose.r_rel[0], np.concatenate([j_cur[0], j_prev[0]], axis=1)

            worst = max(worst, self.fd_check(fn, 12))
        assert worst < 1e-4


def pose_terms(graph, t, q):
    """`_pose_terms` at (t, q) with the graph's measurements and weights, as
    `optimize` computes them."""
    w = graph.weights
    return _pose_terms(t, q, graph.meas_t, quat_conjugate(graph.meas_q), np.sqrt(w.beta_t), np.sqrt(w.beta_rot))


def total_cost(graph):
    """The objective at the current estimates on correspondences matched
    there: the initial cost `optimize` reports."""
    t = np.array([kf.estimate.t for kf in graph.keyframes])
    q = np.array([kf.estimate.q for kf in graph.keyframes])
    return graph._residuals(pose_terms(graph, t, q), graph._match(t, q))[0]


class TestTotalCost:
    def test_self_consistent_single_keyframe(self, scene):
        skeleton, subdivided, k, cfg = scene
        graph, _ = truth_graph(scene, [0.4])
        kf = graph.keyframes[0]
        m = match_frame_arrays(skeleton, subdivided, kf.estimate, k, kf.frame, cfg)
        assert m.n_points == 6
        assert m.n_lines > 0
        # refined point matches and snapped line samples: residuals are tiny
        assert total_cost(graph) < 1e-6

    def test_noise_free_graph_near_zero(self, scene):
        graph, _ = truth_graph(scene, [0.2, 0.4, 0.6])
        assert total_cost(graph) < 1e-6

    def test_translated_estimate_increases_cost(self, scene):
        graph, truths = truth_graph(scene, [0.2, 0.4, 0.6])
        base = total_cost(graph)
        offset = np.array([0.1, 0.0, 0.0])
        graph.keyframes[1].estimate = Pose(truths[1].t + offset, truths[1].q)
        assert total_cost(graph) > base

    def test_point_term_matches_reprojection_displacement(self, scene):
        # with beta_line 0 and a single keyframe the objective is the point term
        skeleton, subdivided, k, cfg = scene
        weights = GraphWeights(beta_line=0.0)
        graph, truths = truth_graph(scene, [0.4], weights=weights)
        offset = np.array([0.05, 0.02, -0.04])
        shifted = Pose(truths[0].t + offset, truths[0].q)
        graph.keyframes[0].estimate = shifted
        # analytic oracle: weighted squared reprojection displacements of the
        # six points (matched locations stay at the true projections)
        uv_true = pinhole(k, world_to_camera(truths[0], skeleton.points))
        uv_shift = pinhole(k, world_to_camera(shifted, skeleton.points))
        assert in_view(k, uv_true).all() and in_view(k, uv_shift).all()
        expected = weights.beta_p * float(np.sum((uv_shift - uv_true) ** 2))
        assert abs(total_cost(graph) - expected) / expected < 0.05

    def test_equals_optimizer_initial_cost(self, scene):
        graph, _ = truth_graph(
            scene,
            [0.2, 0.5, 0.8, 1.1],
            perturb={i: 0.02 * np.array([3.0, -2.0, 1.0, 0.5, -0.3, 0.2]) * (i + 1) for i in range(4)},
        )
        cost = total_cost(graph)
        assert isinstance(cost, float)
        assert cost == graph.optimize(SolverConfig()).initial_cost


    def test_row_behind_the_camera_costs_inf(self, scene):
        # a trial step that carries the camera 30.5 m along its axis, past the
        # blade centre, puts some of the rows matched before it behind it
        graph, _ = truth_graph(scene, [0.4, 0.7], weights=GraphWeights(beta_line=0.0))
        t = np.array([kf.estimate.t for kf in graph.keyframes])
        q = np.array([kf.estimate.q for kf in graph.keyframes])
        rows = graph._match(t, q)
        assert np.isfinite(graph._residuals(pose_terms(graph, t, q), rows)[0])
        t_step = t.copy()
        t_step[1] += 30.5 * quat_rotate(q[1], np.array([0.0, 0.0, 1.0]))
        depth = world_to_camera(Pose(t_step[1], q[1]), rows.points3d[rows.kf_idx == 1])[:, 2]
        assert 0 < np.sum(depth <= EPS_DEPTH) < depth.size
        pose = pose_terms(graph, t_step, q)
        cost, img = graph._residuals(pose, rows)
        assert cost == np.inf and not img.ok.all()
        # the rows behind the camera do not make the system step fail
        assert all(np.isfinite(a).all() for a in graph._system(pose, img, rows))


class TestOptimize:
    def test_zero_noise_fixed_point(self, scene):
        graph, truths = truth_graph(scene, [0.2, 0.5, 0.8, 1.1])
        report = graph.optimize(SolverConfig())
        assert report.iterations <= 2
        assert report.termination in ("step_tolerance", "cost_tolerance")
        for kf, truth in zip(graph.keyframes, truths):
            assert np.linalg.norm(kf.estimate.t - truth.t) < 1e-6
            assert geodesic_angle(kf.estimate.q, truth.q) < 1e-5

    def test_single_frame_recovery(self, scene):
        skeleton, subdivided, k, cfg = scene
        rng = np.random.default_rng(31)
        for _ in range(5):
            truth = orbit_pose(skeleton, rng.uniform(0, 2 * np.pi))
            delta = np.concatenate(
                [rng.normal(0, 0.15, 3), rng.normal(0, 1.2 * DEG, 3)]
            )
            delta[:3] *= min(1.0, 0.3 / (np.linalg.norm(delta[:3]) + 1e-12))
            graph = PoseGraph(skeleton, subdivided, k, GraphWeights(), cfg)
            graph.add_keyframe(perturbed(truth, delta), render(skeleton, truth, k))
            report = graph.optimize(SolverConfig())
            est = graph.keyframes[0].estimate
            assert np.linalg.norm(est.t - truth.t) < 1e-3
            assert geodesic_angle(est.q, truth.q) < 0.01 * DEG
            assert report.final_cost <= report.initial_cost

    def test_chain_propagation_without_correspondences(self, scene):
        # second keyframe has no image measurements: it must land exactly at
        # its neighbour's solution composed with the relative measurement
        graph, truths = truth_graph(
            scene, [0.3, 0.5], blank={1}, perturb={1: np.array([0.2, -0.1, 0.15, 0.01, 0.02, -0.01])}
        )
        report = graph.optimize(SolverConfig(max_iterations=50))
        est0 = graph.keyframes[0].estimate
        est1 = graph.keyframes[1].estimate
        rel = Pose(graph.meas_t[0], graph.meas_q[0])
        expected = compose(est0, rel.inverse())
        assert np.linalg.norm(est1.t - expected.t) < 1e-6
        assert geodesic_angle(est1.q, expected.q) < 1e-6
        assert np.linalg.norm(est1.t - truths[1].t) < 1e-4

    def test_monotone_costs_on_fixed_correspondences(self, scene, monkeypatch):
        graph, _ = truth_graph(
            scene,
            [0.2, 0.6],
            perturb={
                0: np.array([0.2, -0.15, 0.1, 0.02, -0.01, 0.015]),
                1: np.array([-0.1, 0.2, -0.05, -0.02, 0.01, 0.01]),
            },
        )
        # matches fixed after the first pass: each frame keeps its first matches
        first = {}

        def frozen(skeleton, subdivided, pose, k, frame, cfg):
            key = id(frame)
            if key not in first:
                first[key] = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
            return first[key]

        monkeypatch.setattr(posegraph, "match_frame_arrays", frozen)
        report = graph.optimize(SolverConfig())
        assert len(first) == 2
        assert report.iterations >= 1
        assert all(b <= a * (1 + 1e-12) for a, b in zip(report.costs, report.costs[1:]))

    def test_quaternions_unit_after_optimize(self, scene):
        graph, _ = truth_graph(scene, [0.1, 0.4, 0.7], perturb={1: 0.1 * np.ones(6)})
        graph.optimize(SolverConfig())
        for kf in graph.keyframes:
            assert abs(np.linalg.norm(kf.estimate.q) - 1.0) < 1e-9

    def test_rank_deficiency_reported(self, scene):
        graph, truths = truth_graph(scene, [0.2, 0.5], blank={0, 1})
        before = [kf.estimate for kf in graph.keyframes]
        report = graph.optimize(SolverConfig())
        assert report.termination == "rank_deficient"
        assert report.iterations == 0
        for kf, prev in zip(graph.keyframes, before):
            assert kf.estimate is prev

    def test_idempotent_reoptimization(self, scene):
        graph, _ = truth_graph(scene, [0.25, 0.55], perturb={1: 0.05 * np.ones(6)})
        graph.optimize(SolverConfig())
        first = [(kf.estimate.t.copy(), kf.estimate.q.copy()) for kf in graph.keyframes]
        graph.optimize(SolverConfig())
        for kf, (t0, q0) in zip(graph.keyframes, first):
            assert np.linalg.norm(kf.estimate.t - t0) < 1e-6
            assert geodesic_angle(kf.estimate.q, q0) < 1e-6

    def test_stateless_reoptimization(self, scene):
        # an optimized graph and a fresh one seeded at its estimates give the
        # same report and the same estimates, to the bit; the steps here are
        # small, so matches kept from an earlier estimate would be reused
        graph, _ = truth_graph(scene, [0.25, 0.55, 0.85], perturb={1: 2e-5 * np.ones(6)})
        graph.optimize(SolverConfig(max_iterations=3))
        fresh, _ = truth_graph(scene, [0.25, 0.55, 0.85])
        for kf, seeded in zip(graph.keyframes, fresh.keyframes):
            seeded.estimate = kf.estimate
        assert graph.optimize(SolverConfig()) == fresh.optimize(SolverConfig())
        for a, b in zip(graph.keyframes, fresh.keyframes):
            assert np.array_equal(a.estimate.t, b.estimate.t)
            assert np.array_equal(a.estimate.q, b.estimate.q)

    def test_every_pass_rematches_every_keyframe(self, scene, monkeypatch):
        graph, _ = truth_graph(scene, [0.2, 0.5, 0.8], perturb={1: 2e-5 * np.ones(6)})
        calls = []

        def counted(*args):
            calls.append(args[4])
            return match_frame_arrays(*args)

        monkeypatch.setattr(posegraph, "match_frame_arrays", counted)
        monkeypatch.setattr(posegraph, "COST_TOLERANCE", 1e-300)
        monkeypatch.setattr(posegraph, "STEP_TOLERANCE", 1e-300)
        cfg = SolverConfig(max_iterations=4)
        report = graph.optimize(cfg)
        assert report.termination == "max_iterations"
        frames = [kf.frame for kf in graph.keyframes]
        assert calls == frames * cfg.max_iterations

    def test_first_pass_after_a_stall_reuses_the_old_keyframes_matches(self, scene, monkeypatch):
        # a stalled call leaves every keyframe at the pose of its last match,
        # so the next call's first pass calls the matcher for the new keyframe only
        skeleton, subdivided, k, cfg = scene
        truth = generate_orbit_trajectory(skeleton, 30.0, 6)
        noisy = inject_noise(truth, NoiseSpec(0.08, 6.0 * DEG, seed=123))
        passes = matcher_calls_per_pass(monkeypatch)
        graph = PoseGraph(skeleton, subdivided, k, GraphWeights(), cfg)
        after_stall = 0
        stalled = False
        for pose, frame in zip(noisy.poses, simulate_measurements(truth, skeleton, k)):
            graph.add_keyframe(pose, frame)
            first = len(passes)
            report = graph.optimize(SolverConfig())
            frames = [kf.frame for kf in graph.keyframes]
            if stalled:
                assert passes[first] == [frame]
                after_stall += 1
            else:
                assert passes[first] == frames
            # later passes match every keyframe at its new estimate
            assert all(calls == frames for calls in passes[first + 1 :])
            stalled = report.termination == "stalled"
        assert after_stall >= 2

    @pytest.mark.parametrize("termination", ["no_descent", "solve_failure"])
    def test_a_call_without_a_step_keeps_the_estimates_and_hands_over(self, scene, monkeypatch, termination):
        # every trial fails: the solve raises, or its 1e3 step raises the cost
        if termination == "solve_failure":

            def solve(*args, **kwargs):
                raise LinAlgError("not positive definite")

            monkeypatch.setattr(posegraph, "solveh_banded", solve)
        else:
            step = staticmethod(lambda h_diag, *_: np.full((len(h_diag), 6), 1e3))
            monkeypatch.setattr(PoseGraph, "_solve_banded", step)
        skeleton, _, k, _ = scene
        graph, _ = truth_graph(scene, [0.2, 0.5], perturb={1: DELTA})
        passes = matcher_calls_per_pass(monkeypatch)
        before = [kf.estimate for kf in graph.keyframes]
        report = graph.optimize(SolverConfig())
        assert report.termination == termination
        assert report.iterations == 0 and report.costs == [report.initial_cost]
        assert all(kf.estimate is pose for kf, pose in zip(graph.keyframes, before))
        # the next call's first pass matches the new keyframe only
        pose = orbit_pose(skeleton, 0.8)
        frame = render(skeleton, pose, k)
        graph.add_keyframe(pose, frame)
        first = len(passes)
        graph.optimize(SolverConfig())
        assert passes[first] == [frame]

    def test_a_replaced_frame_or_estimate_is_matched_anew(self, scene, monkeypatch):
        # blank frames: the call stops as rank_deficient after one pass, with
        # every keyframe at the pose it was matched at
        graph, _ = truth_graph(scene, [0.2, 0.5], blank={0, 1})
        passes = matcher_calls_per_pass(monkeypatch)
        kf0, kf1 = graph.keyframes
        old = kf0.frame
        new = HeatmapFrame(old.line_channels, old.point_channels)
        for change in ("none", "none", "frame", "estimate", "none"):
            if change == "frame":
                kf0.frame = new
            elif change == "estimate":
                kf1.estimate = compose(kf1.estimate, Pose(np.array([0.0, 0.0, 1e-9]), np.array([1.0, 0.0, 0.0, 0.0])))
            assert graph.optimize(SolverConfig()).termination == "rank_deficient"
        assert passes == [[old, kf1.frame], [], [new], [kf1.frame], []]

    @pytest.mark.parametrize("scale, stalls", [(1e-4, True), (1.0, False)])
    def test_stall_needs_a_small_step(self, scene, monkeypatch, scale, stalls):
        # a rising fresh cost stops the call only after a step that moved the
        # model by < 0.1 px: 1e-4 of DELTA moves it by ~1e-3 px, DELTA by pixels
        graph, _ = truth_graph(scene, [0.3], perturb={0: scale * DELTA})
        calls, cost0s = outlier_on_second_call(monkeypatch)
        report = graph.optimize(SolverConfig())
        assert cost0s[1] > cost0s[0]
        if stalls:
            assert report.termination == "stalled" and report.iterations == 1
        else:
            assert report.termination != "stalled" and report.iterations >= 2
        # a stalled call re-matches once more than it steps
        assert len(calls) == report.iterations + (report.termination == "stalled")

    def test_zero_weight_rows_left_out_of_the_motion(self, scene, monkeypatch):
        # with beta_line = 0 the line rows weigh nothing: the point rows alone
        # measure the motion, and no row is divided by its zero weight
        graph, _ = truth_graph(scene, [0.3], perturb={0: 1e-4 * DELTA}, weights=GraphWeights(beta_line=0.0))
        outlier_on_second_call(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = graph.optimize(SolverConfig())
        assert report.termination == "stalled" and report.iterations == 1

    def test_no_stall_without_a_weighted_row(self, scene):
        rng = np.random.default_rng(5)
        r_old, r_new = rng.normal(size=(2, 3, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert posegraph._median_motion(r_old, r_new, np.zeros(3)) == np.inf
            mixed = posegraph._median_motion(r_old, r_new, np.array([0.0, 2.0, 0.5]))
            # frames whose only rows are lines, weighted 0
            graph, _ = truth_graph(scene, [0.2, 0.5], perturb={1: DELTA}, weights=GraphWeights(beta_line=0.0))
            for kf in graph.keyframes:
                kf.frame = HeatmapFrame(kf.frame.line_channels, np.zeros_like(kf.frame.point_channels))
            report = graph.optimize(SolverConfig())
        assert mixed == np.median(np.linalg.norm(r_new[1:] - r_old[1:], axis=1) / [2.0, 0.5])
        assert report.termination in ("step_tolerance", "cost_tolerance")

    def test_only_a_pass_that_goes_on_builds_its_system(self, scene, monkeypatch):
        # a stalled pass stops on its residuals alone: the system is built
        # once per pass that reaches a solve, that is once per accepted step
        # and once more for a call that ends without a step
        skeleton, _, k, cfg = scene
        truth = generate_orbit_trajectory(skeleton, 30.0, 4)
        frames = degrade_measurements(simulate_measurements(truth, skeleton, k), 0.1, 5.0, seed=7)
        noisy = inject_noise(truth, NoiseSpec(0.08, 6.0 * DEG, seed=123))
        built, per_call = [], []
        system, optimize = PoseGraph._system, PoseGraph.optimize

        def counted_system(self, *args):
            built.append(len(self))
            return system(self, *args)

        def counted_optimize(self, *args):
            before = len(built)
            report = optimize(self, *args)
            per_call.append((report, len(built) - before))
            return report

        monkeypatch.setattr(PoseGraph, "_system", counted_system)
        monkeypatch.setattr(PoseGraph, "optimize", counted_optimize)
        build_and_optimize(noisy, frames, skeleton, k, GraphWeights(), cfg, SolverConfig())
        assert len(per_call) == 4 and "stalled" in [report.termination for report, _ in per_call]
        for report, systems in per_call:
            assert systems == report.iterations + (report.termination in ("no_descent", "solve_failure"))

    def test_pose_terms_computed_once_per_pose(self, scene, monkeypatch):
        # the relative rows and rotation matrices are computed for the
        # initial estimates and for each trial pose; an accepted trial's are
        # reused by the next pass, not computed again
        graph, _ = truth_graph(scene, [0.2, 0.5, 0.8], perturb={1: DELTA, 2: -DELTA})
        calls = {"relative_rows": 0, "quat_to_matrix": 0, "quaternion_boxplus": 0}
        for name in calls:

            def counted(*args, name=name, fn=getattr(posegraph, name)):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(posegraph, name, counted)
        report = graph.optimize(SolverConfig())
        assert report.iterations >= 2
        trials = calls["quaternion_boxplus"]
        assert calls["relative_rows"] == calls["quat_to_matrix"] == 1 + trials

    def test_clean_incremental_flight_never_reaches_the_cap(self, scene):
        skeleton, _, k, cfg = scene
        truth = generate_orbit_trajectory(skeleton, 30.0, 12)
        noisy = inject_noise(truth, NoiseSpec(0.08, 6.0 * DEG, seed=123))
        frames = simulate_measurements(truth, skeleton, k)
        _, reports = build_and_optimize(noisy, frames, skeleton, k, GraphWeights(), cfg, SolverConfig())
        terminations = [r.termination for r in reports]
        assert "max_iterations" not in terminations and "stalled" in terminations

    def test_empty_graph_raises(self, scene):
        skeleton, subdivided, k, cfg = scene
        graph = PoseGraph(skeleton, subdivided, k)
        with pytest.raises(ValueError):
            graph.optimize(SolverConfig())

    def test_report_serializable(self, scene):
        graph, _ = truth_graph(scene, [0.2])
        report = graph.optimize(SolverConfig())
        d = asdict(report)
        assert set(d) >= {"iterations", "initial_cost", "final_cost", "termination", "costs"}
        assert isinstance(report, OptimizeReport)

    def test_report_bookkeeping_for_every_termination(self, scene, monkeypatch):
        # the levers of the tests above: a clean incremental flight steps to
        # the tolerances and stalls, one pass caps a perturbed graph, blank
        # frames match nothing, and a solve that raises or steps 1e3 fails
        skeleton, subdivided, k, cfg = scene
        rows = []  # row count of each `_match` call
        match = PoseGraph._match

        def counted(self, t, q):
            out = match(self, t, q)
            rows.append(out.kf_idx.size)
            return out

        monkeypatch.setattr(PoseGraph, "_match", counted)
        seen = []  # (report, rows of the call's last pass)

        def optimize(graph, solver_cfg=None):
            seen.append((graph.optimize(solver_cfg or SolverConfig()), rows[-1]))

        truth = generate_orbit_trajectory(skeleton, 30.0, 4)
        noisy = inject_noise(truth, NoiseSpec(0.08, 6.0 * DEG, seed=123))
        graph = PoseGraph(skeleton, subdivided, k, GraphWeights(), cfg)
        for pose, frame in zip(noisy.poses, simulate_measurements(truth, skeleton, k)):
            graph.add_keyframe(pose, frame)
            optimize(graph)
        optimize(truth_graph(scene, [0.3], perturb={0: DELTA})[0], SolverConfig(max_iterations=1))
        optimize(truth_graph(scene, [0.2, 0.5], blank={0, 1})[0])

        def singular(*args, **kwargs):
            raise LinAlgError("not positive definite")

        with monkeypatch.context() as m:
            m.setattr(posegraph, "solveh_banded", singular)
            optimize(truth_graph(scene, [0.2, 0.5], perturb={1: DELTA})[0])
        with monkeypatch.context() as m:
            m.setattr(PoseGraph, "_solve_banded", staticmethod(lambda h_diag, *_: np.full((len(h_diag), 6), 1e3)))
            optimize(truth_graph(scene, [0.2, 0.5], perturb={1: DELTA})[0])
        labels = {report.termination for report, _ in seen}
        assert labels == {
            "step_tolerance", "cost_tolerance", "stalled", "max_iterations", "no_descent", "solve_failure",
            "rank_deficient",
        }
        for report, last_rows in seen:
            assert report.iterations == len(report.costs) - 1
            assert report.initial_cost == report.costs[0] and report.final_cost == report.costs[-1]
            assert report.n_correspondences == last_rows
            assert (last_rows == 0) == (report.termination == "rank_deficient")


class TestFlightMatchesReference:
    """A whole incremental flight with the production matcher equals the same
    flight with the per-feature reference matcher, to the last bit."""

    @pytest.mark.parametrize("degraded", [False, True])
    def test_incremental_flight(self, scene, monkeypatch, degraded):
        skeleton, _, k, cfg = scene
        truth = generate_orbit_trajectory(skeleton, 30.0, 5)
        frames = simulate_measurements(truth, skeleton, k)
        if degraded:
            frames = degrade_measurements(frames, 0.1, 5.0, seed=7)
        noisy = inject_noise(truth, NoiseSpec(0.08, 6.0 * DEG, seed=123))
        solver = SolverConfig(max_iterations=10)

        def fly():
            graph, reports = build_and_optimize(noisy, frames, skeleton, k, GraphWeights(), cfg, solver)
            return graph.estimates(), [asdict(r) for r in reports]

        estimates, reports = fly()
        # the reference matcher projects each pose itself, so the pose stage
        # hands it the rows, which it reads as they are (a `Pose` would
        # normalise them again)
        monkeypatch.setattr(posegraph, "project_model", lambda skeleton, subdivided, t, q, *_: (t, q))

        def reference(skeleton, subdivided, pose, *args):
            (t, q), i = pose
            return reference_match_frame_arrays(skeleton, subdivided, SimpleNamespace(t=t[i], q=q[i]), *args)

        monkeypatch.setattr(posegraph, "match_frame_arrays", reference)
        want_estimates, want_reports = fly()
        assert reports == want_reports
        assert sum(r["iterations"] for r in reports) > 5
        for got, want in zip(estimates, want_estimates):
            assert got.t.tobytes() == want.t.tobytes() and got.q.tobytes() == want.q.tobytes()


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def orbit_graphs(scene):
    """The benchmark's orbits as graphs at their seeded estimates: the first
    1, 2, 6 and 12 keyframes of the 12-keyframe orbit (sigma 0.08 m, 6 deg)
    and the 48-keyframe orbit (0.04 m, 3 deg), GPS/IMU noise seed 123."""
    skeleton, subdivided, k, cfg = scene
    graphs = {}
    for n_orbit, sigma_t, sigma_r, sizes in ((12, 0.08, 6.0, (1, 2, 6, 12)), (48, 0.04, 3.0, (48,))):
        truth = generate_orbit_trajectory(skeleton, 30.0, n_orbit)
        noisy = inject_noise(truth, NoiseSpec(sigma_t, sigma_r * DEG, seed=123))
        frames = simulate_measurements(truth, skeleton, k)
        for size in sizes:
            graph = PoseGraph(skeleton, subdivided, k, GraphWeights(), cfg)
            for pose, frame in zip(noisy.poses[:size], frames):
                graph.add_keyframe(pose, frame)
            graphs[size] = graph
    return graphs


def assert_pass_matches_reference(graph, t, q):
    """One Gauss-Newton pass at (t, q) with the library's graph side and with
    reference_posegraph's: every output equal to the bit."""
    meas_t, meas_q = graph.meas_t, graph.meas_q
    rows = graph._match(t, q)
    pose = pose_terms(graph, t, q)
    cost0, img0 = graph._residuals(pose, rows)
    r0, system = img0.r, graph._system(pose, img0, rows)
    want_cost0, want_r0, want_system = reference_posegraph.objective(graph, t, q, rows, meas_t, meas_q, True)
    assert same_bits(cost0, want_cost0) and same_bits(r0, want_r0)
    for got, want in zip(system, want_system):  # h_diag, h_off, g
        assert same_bits(got, want)
    for damping in (1e-6, 1e-2, 10.0):
        delta = PoseGraph._solve_banded(*system, damping)
        assert same_bits(delta, reference_posegraph.solve_banded(*want_system, damping))
        q_new = quaternion_boxplus(q, delta[:, 3:])
        assert same_bits(q_new, reference_posegraph.quaternion_boxplus(q, delta[:, 3:]))
        cost1, img1 = graph._residuals(pose_terms(graph, t + delta[:, :3], q_new), rows)
        r1 = img1.r
        want_cost1, want_r1 = reference_posegraph.objective(graph, t + delta[:, :3], q_new, rows, meas_t, meas_q)
        assert same_bits(cost1, want_cost1) and same_bits(r1, want_r1)
        motion = posegraph._median_motion(r0, r1, rows.weights)
        assert same_bits(motion, reference_posegraph.median_motion(r0, r1, rows.weights))
    return rows


class TestGraphSideMatchesReference:
    """The graph side of a pass (objective with and without the system, the
    banded solve, the boxplus and the median motion) equals the einsum forms
    kept in reference_posegraph, to the bit."""

    @pytest.mark.parametrize("size", [1, 2, 6, 12, 48])
    def test_orbit_graph(self, orbit_graphs, size):
        graph = orbit_graphs[size]
        t = np.array([kf.estimate.t for kf in graph.keyframes])
        q = np.array([kf.estimate.q for kf in graph.keyframes])
        rows = assert_pass_matches_reference(graph, t, q)
        assert rows.kf_idx.size > 10 * size
        # and a few passes on, nearer the optimum
        rng = np.random.default_rng(size)
        step = 1e-3 * rng.standard_normal((size, 6))
        assert_pass_matches_reference(graph, t + step[:, :3], quaternion_boxplus(q, step[:, 3:]))

    def test_row_behind_the_camera(self, scene):
        # the trial step of test_row_behind_the_camera_costs_inf: cost inf,
        # and the system of the rows in front as the reference builds it
        graph, _ = truth_graph(scene, [0.4, 0.7], weights=GraphWeights(beta_line=0.0))
        t = np.array([kf.estimate.t for kf in graph.keyframes])
        q = np.array([kf.estimate.q for kf in graph.keyframes])
        meas_t, meas_q = graph.meas_t, graph.meas_q
        rows = graph._match(t, q)
        t[1] += 30.5 * quat_rotate(q[1], np.array([0.0, 0.0, 1.0]))
        pose = pose_terms(graph, t, q)
        cost, img = graph._residuals(pose, rows)
        for with_system in (False, True):
            want = reference_posegraph.objective(graph, t, q, rows, meas_t, meas_q, with_system)
            assert cost == want[0] == np.inf
            assert same_bits(img.r, want[1])
        for got, want in zip(graph._system(pose, img, rows), want[2]):
            assert same_bits(got, want)

    def test_zero_line_weight(self, scene):
        weights = GraphWeights(beta_line=0.0)
        graph, _ = truth_graph(scene, [0.2, 0.5, 0.8], perturb={1: DELTA, 2: -DELTA}, weights=weights)
        t = np.array([kf.estimate.t for kf in graph.keyframes])
        q = np.array([kf.estimate.q for kf in graph.keyframes])
        rows = assert_pass_matches_reference(graph, t, q)
        assert 0 < np.sum(rows.weights == 0.0) < rows.weights.size

    @pytest.mark.parametrize("n_live", [1, 2, 5, 6, 7, 8, 131, 132])
    def test_median_of_odd_and_even_live_rows(self, n_live):
        rng = np.random.default_rng(n_live)
        r_old, r_new = rng.normal(size=(2, n_live + 9, 2))
        w = np.zeros(n_live + 9)
        w[rng.permutation(w.size)[:n_live]] = rng.choice([0.5, 1.0, 2.0], n_live)
        r_new[:3] = r_old[:3]  # ties at zero motion
        got = posegraph._median_motion(r_old, r_new, w)
        assert same_bits(got, reference_posegraph.median_motion(r_old, r_new, w))
        assert isinstance(got, float)


class TestFlightGraphSideMatchesReference:
    """A whole degraded incremental flight with the library's graph side
    equals the same flight with reference_posegraph's, to the last bit."""

    def test_degraded_incremental_flight(self, scene, monkeypatch):
        skeleton, _, k, cfg = scene
        truth = generate_orbit_trajectory(skeleton, 30.0, 12)
        frames = degrade_measurements(simulate_measurements(truth, skeleton, k), 0.1, 5.0, seed=7)
        noisy = inject_noise(truth, NoiseSpec(0.08, 6.0 * DEG, seed=123))

        def fly():
            graph, reports = build_and_optimize(noisy, frames, skeleton, k, GraphWeights(), cfg, SolverConfig())
            return graph.estimates(), [asdict(r) for r in reports]

        estimates, reports = fly()
        reference_calls = []

        # the reference objective in place of both steps: optimize reads the
        # cost and the residuals r of the first and hands its result to the second
        def reference_residuals(self, pose, rows):
            reference_calls.append("residuals")
            cost, r = reference_posegraph.objective(self, pose.t, pose.q, rows, self.meas_t, self.meas_q)
            return cost, SimpleNamespace(r=r)

        def reference_system(self, pose, img, rows):
            reference_calls.append("system")
            return reference_posegraph.objective(self, pose.t, pose.q, rows, self.meas_t, self.meas_q, True)[2]

        monkeypatch.setattr(PoseGraph, "_residuals", reference_residuals)
        monkeypatch.setattr(PoseGraph, "_system", reference_system)
        monkeypatch.setattr(PoseGraph, "_solve_banded", staticmethod(reference_posegraph.solve_banded))
        monkeypatch.setattr(posegraph, "_median_motion", reference_posegraph.median_motion)
        monkeypatch.setattr(posegraph, "quaternion_boxplus", reference_posegraph.quaternion_boxplus)
        want_estimates, want_reports = fly()
        assert 0 < reference_calls.count("system") < reference_calls.count("residuals")
        assert reports == want_reports
        assert sum(r["iterations"] for r in reports) > 50
        for got, want in zip(estimates, want_estimates):
            assert got.t.tobytes() == want.t.tobytes() and got.q.tobytes() == want.q.tobytes()


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(beta_t=-1.0),
            dict(beta_p=0.0, beta_line=0.0),
            dict(beta_t=0.0, beta_rot=0.0),
            dict(beta_t=math.nan),
            dict(beta_p=math.nan),
            dict(beta_rot=math.inf),
        ],
    )
    def test_weights_rejects(self, kwargs):
        with pytest.raises(ValueError):
            GraphWeights(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_iterations=0),
            dict(max_iterations=-1),
            dict(max_iterations=math.inf),
            dict(max_iterations="30"),
            dict(max_iterations=None),
            dict(max_iterations=math.nan),
            dict(max_iterations=2.5),
            dict(max_iterations=30.0),
            dict(max_iterations=True),
        ],
    )
    def test_solver_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_solver_accepts_numpy_integers(self):
        assert SolverConfig(max_iterations=np.int32(5)).max_iterations == 5
