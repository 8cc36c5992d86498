import math

import numpy as np
import pytest

from turbloc.geometry import (
    CameraIntrinsics,
    Pose,
    compose,
    geodesic_angle,
    look_at_pose,
    project,
    quaternion_boxplus,
    quat_normalize,
    relative_pose,
)
from turbloc.heatmap import HeatmapFrame, render
from turbloc import posegraph
from turbloc.matching import MatchConfig, match_frame_arrays
from turbloc.posegraph import (
    GraphWeights,
    OptimizeReport,
    PoseGraph,
    SolverConfig,
    image_residual,
    relative_residual,
)
from turbloc.turbine import TurbineParams, build_skeleton, subdivide

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


def truth_graph(scene, azimuths, perturb=None, blank=(), weights=None):
    """Graph whose measurements and frames all come from ground truth."""
    skeleton, subdivided, k, cfg = scene
    graph = PoseGraph(skeleton, subdivided, k, weights or GraphWeights(), cfg)
    truths = [orbit_pose(skeleton, a) for a in azimuths]
    for i, pose in enumerate(truths):
        frame = HeatmapFrame.zeros(k.width, k.height) if i in blank else render(skeleton, pose, k)
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
        graph.add_keyframe(pose, HeatmapFrame.zeros(k.width, k.height))
        kf = graph.keyframes[0]
        assert kf.relative_measurement is None
        assert np.array_equal(kf.estimate.t, pose.t)
        assert np.array_equal(kf.estimate.q, pose.q)

    def test_identical_measurement_gives_identity_relative(self, scene):
        skeleton, subdivided, k, cfg = scene
        graph = PoseGraph(skeleton, subdivided, k)
        pose = orbit_pose(skeleton, 0.0)
        frame = HeatmapFrame.zeros(k.width, k.height)
        graph.add_keyframe(pose, frame)
        graph.add_keyframe(pose, frame)
        rel = graph.keyframes[1].relative_measurement
        assert np.allclose(rel.t, 0.0, atol=1e-12)
        assert geodesic_angle(rel.q, np.array([1.0, 0, 0, 0])) < 1e-12

    def test_chain_measurements_compose(self, scene):
        # composition oracle over a 5-keyframe chain
        skeleton, subdivided, k, cfg = scene
        graph = PoseGraph(skeleton, subdivided, k)
        rng = np.random.default_rng(5)
        frame = HeatmapFrame.zeros(k.width, k.height)
        poses = []
        for _ in range(5):
            q = quat_normalize(rng.standard_normal(4))
            poses.append(Pose(10 * rng.standard_normal(3), q))
            graph.add_keyframe(poses[-1], frame)
        acc = graph.keyframes[-1].relative_measurement
        for kf in reversed(graph.keyframes[1:-1]):
            acc = compose(acc, kf.relative_measurement)
        expected = relative_pose(poses[-1], poses[0])
        assert np.linalg.norm(acc.t - expected.t) < 1e-9
        assert geodesic_angle(acc.q, expected.q) < 1e-9

    def test_estimate_seeded_from_previous_estimate(self, scene):
        skeleton, subdivided, k, cfg = scene
        graph = PoseGraph(skeleton, subdivided, k)
        frame = HeatmapFrame.zeros(k.width, k.height)
        a = orbit_pose(skeleton, 0.0)
        b = orbit_pose(skeleton, 0.2)
        graph.add_keyframe(a, frame)
        # pretend earlier optimization moved the estimate
        moved = perturbed(a, np.array([0.5, 0, 0, 0, 0, 0.01]))
        graph.keyframes[0].estimate = moved
        graph.add_keyframe(b, frame)
        rel = graph.keyframes[1].relative_measurement
        expected = compose(moved, rel.inverse())
        got = graph.keyframes[1].estimate
        assert np.linalg.norm(got.t - expected.t) < 1e-12
        assert geodesic_angle(got.q, expected.q) < 1e-12


class TestJacobians:
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
            uv = project(pose, k, point)
            if uv is None:
                continue
            matched = uv + rng.normal(0, 5.0, 2)
            w = rng.uniform(0.2, 3.0)

            def fn(delta, pose=pose, point=point, matched=matched, w=w):
                return image_residual(perturbed(pose, delta), point, matched, w, k)

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
                r, j_cur, j_prev = relative_residual(
                    perturbed(cur, delta[:6]), perturbed(prev, delta[6:]), meas, sbt, sbr
                )
                return r, np.concatenate([j_cur, j_prev], axis=1)

            worst = max(worst, self.fd_check(fn, 12))
        assert worst < 1e-4


class TestTotalCost:
    def test_self_consistent_single_keyframe(self, scene):
        skeleton, subdivided, k, cfg = scene
        graph, _ = truth_graph(scene, [0.4])
        kf = graph.keyframes[0]
        m = match_frame_arrays(skeleton, subdivided, kf.estimate, k, kf.frame, cfg)
        assert m.n_points == 6
        assert m.n_lines > 0
        # refined point matches and snapped line samples: residuals are tiny
        assert graph.total_cost() < 1e-6

    def test_noise_free_graph_near_zero(self, scene):
        graph, _ = truth_graph(scene, [0.2, 0.4, 0.6])
        assert graph.total_cost() < 1e-6

    def test_translated_estimate_increases_cost(self, scene):
        graph, truths = truth_graph(scene, [0.2, 0.4, 0.6])
        base = graph.total_cost()
        offset = np.array([0.1, 0.0, 0.0])
        graph.keyframes[1].estimate = Pose(truths[1].t + offset, truths[1].q)
        assert graph.total_cost() > base

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
        expected = 0.0
        for idx in range(6):
            uv_true = project(truths[0], k, skeleton.points[idx])
            uv_shift = project(shifted, k, skeleton.points[idx])
            expected += weights.beta_p * float(np.sum((uv_shift - uv_true) ** 2))
        assert abs(graph.total_cost() - expected) / expected < 0.05

    def test_equals_optimizer_initial_cost(self, scene):
        graph, _ = truth_graph(
            scene,
            [0.2, 0.5, 0.8, 1.1],
            perturb={i: 0.02 * np.array([3.0, -2.0, 1.0, 0.5, -0.3, 0.2]) * (i + 1) for i in range(4)},
        )
        cost = graph.total_cost()
        assert isinstance(cost, float)
        assert cost == graph.optimize(SolverConfig()).initial_cost


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
        rel = graph.keyframes[1].relative_measurement
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
        cfg = SolverConfig(max_iterations=4, cost_tolerance=1e-300, step_tolerance=1e-300)
        report = graph.optimize(cfg)
        assert report.termination == "max_iterations"
        frames = [kf.frame for kf in graph.keyframes]
        assert calls == frames * cfg.max_iterations

    def test_empty_graph_raises(self, scene):
        skeleton, subdivided, k, cfg = scene
        graph = PoseGraph(skeleton, subdivided, k)
        with pytest.raises(ValueError):
            graph.optimize(SolverConfig())
        with pytest.raises(ValueError):
            graph.total_cost()

    def test_report_serializable(self, scene):
        graph, _ = truth_graph(scene, [0.2])
        report = graph.optimize(SolverConfig())
        d = report.as_dict()
        assert set(d) >= {"iterations", "initial_cost", "final_cost", "termination", "costs"}
        assert isinstance(report, OptimizeReport)


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
            dict(cost_tolerance=0.0),
            dict(step_tolerance=-1e-9),
            dict(damping_floor=-1.0),
            dict(cost_tolerance=math.nan),
            dict(damping_floor=math.nan),
            dict(step_tolerance=math.inf),
            dict(max_iterations=math.nan),
        ],
    )
    def test_solver_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)
