import math
from dataclasses import asdict

import numpy as np
import pytest

from oracles import is_blank
from turbloc.geometry import (
    CameraIntrinsics,
    Pose,
    compose,
    geodesic_angle,
    in_view,
    pinhole,
    quat_rotate,
    relative_pose,
    world_to_camera,
)
from turbloc.heatmap import render
from turbloc.matching import MatchConfig, match_frame_arrays
from turbloc.posegraph import GraphWeights, SolverConfig
from turbloc.simulation import (
    ErrorReport,
    NoiseSpec,
    SweepCell,
    SweepReport,
    Trajectory,
    build_and_optimize,
    cell_seed,
    degrade_measurements,
    evaluate,
    generate_orbit_trajectory,
    inject_noise,
    run_sweep,
    simulate_measurements,
)
from turbloc.turbine import TurbineParams, build_skeleton, subdivide

DEG = math.pi / 180.0
IDENTITY = Pose(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))


@pytest.fixture(scope="module")
def skeleton():
    return build_skeleton(
        TurbineParams(
            base_position=np.zeros(3),
            heading=0.0,
            tower_height=10.0,
            hub_offset=1.0,
            blade_length=5.0,
            blade_azimuths=np.array([90.0, 210.0, 330.0]) * DEG,
        )
    )


@pytest.fixture(scope="module")
def camera():
    return CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)


def extract_step_perturbations(noisy, truth):
    """Recover the injected per-step perturbation transforms P = D^-1 D_noisy."""
    perturbations = []
    for i in range(1, len(truth)):
        true_step = relative_pose(truth.poses[i - 1], truth.poses[i])
        noisy_step = relative_pose(noisy.poses[i - 1], noisy.poses[i])
        perturbations.append(compose(true_step.inverse(), noisy_step))
    return perturbations


class TestOrbit:
    def test_four_poses_quarter_spacing(self, skeleton, camera):
        traj = generate_orbit_trajectory(skeleton, 30.0, 4)
        assert len(traj) == 4
        centre = skeleton.point("blade_centre")
        for i, pose in enumerate(traj.poses):
            angle = 2 * np.pi * i / 4
            expected_eye = centre + 30.0 * np.array([np.cos(angle), np.sin(angle), 0.0])
            assert np.allclose(pose.t, expected_eye, atol=1e-12)
            assert in_view(camera, pinhole(camera, world_to_camera(pose, centre)))

    def test_look_direction_at_blade_centre(self, skeleton):
        traj = generate_orbit_trajectory(skeleton, 25.0, 7)
        centre = skeleton.point("blade_centre")
        for pose in traj.poses:
            assert abs(np.linalg.norm(pose.q) - 1.0) < 1e-9
            forward = quat_rotate(pose.q, np.array([0.0, 0.0, 1.0]))
            expected = (centre - pose.t) / np.linalg.norm(centre - pose.t)
            assert np.linalg.norm(forward - expected) < 1e-9

    def test_rejects_single_keyframe(self, skeleton):
        with pytest.raises(ValueError):
            generate_orbit_trajectory(skeleton, 30.0, 1)

    def test_rejects_small_radius(self, skeleton):
        with pytest.raises(ValueError):
            generate_orbit_trajectory(skeleton, 4.0, 10)  # blade length is 5

    @pytest.mark.parametrize(
        "name, value",
        [("radius", math.inf), ("radius", math.nan), ("n_keyframes", 4.5), ("n_keyframes", 4.0), ("n_keyframes", True)],
    )
    def test_rejects_bad_inputs(self, skeleton, name, value):
        with pytest.raises(ValueError, match=name):
            generate_orbit_trajectory(skeleton, **{"radius": 30.0, "n_keyframes": 10, name: value})

    def test_points_in_view(self, skeleton, camera):
        traj = generate_orbit_trajectory(skeleton, 30.0, 36)
        for pose in traj.poses:
            seen = in_view(camera, pinhole(camera, world_to_camera(pose, skeleton.points)))
            assert seen.sum() >= 4


class TestInjectNoise:
    def test_zero_noise_identity(self, skeleton):
        truth = generate_orbit_trajectory(skeleton, 30.0, 20)
        noisy = inject_noise(truth, NoiseSpec(0.0, 0.0, seed=7))
        for a, b in zip(noisy.poses, truth.poses):
            assert a is b
        assert np.array_equal(noisy.timestamps, truth.timestamps)

    def test_deterministic_given_seed(self, skeleton):
        truth = generate_orbit_trajectory(skeleton, 30.0, 25)
        a = inject_noise(truth, NoiseSpec(0.05, 2 * DEG, seed=11))
        b = inject_noise(truth, NoiseSpec(0.05, 2 * DEG, seed=11))
        for pa, pb in zip(a.poses, b.poses):
            assert np.array_equal(pa.t, pb.t)
            assert np.array_equal(pa.q, pb.q)
        c = inject_noise(truth, NoiseSpec(0.05, 2 * DEG, seed=12))
        assert any(
            not np.array_equal(pa.t, pc.t) for pa, pc in zip(a.poses, c.poses)
        )

    def test_per_step_statistics(self, skeleton):
        # Monte-Carlo oracle over >= 1000 steps
        truth = generate_orbit_trajectory(skeleton, 30.0, 1201)
        sigma_t, sigma_r = 0.08, 3.0 * DEG
        noisy = inject_noise(truth, NoiseSpec(sigma_t, sigma_r, seed=3))
        perturbations = extract_step_perturbations(noisy, truth)
        dts = np.array([p.t for p in perturbations])
        angles = np.array([geodesic_angle(p.q, np.array([1.0, 0, 0, 0])) for p in perturbations])
        assert dts.shape[0] >= 1000
        per_axis_rms = np.sqrt(np.mean(dts**2, axis=0))
        assert np.all(np.abs(per_axis_rms - sigma_t) < 0.1 * sigma_t)
        assert np.all(np.abs(dts.mean(axis=0)) < 3.0 * sigma_t / np.sqrt(len(dts)))
        angle_rms = np.sqrt(np.mean(angles**2))
        assert abs(angle_rms - sigma_r) < 0.1 * sigma_r

    def test_random_walk_error_growth(self, skeleton):
        # RMS absolute translation error grows as sigma_t * sqrt(3 n) over seeds
        truth = generate_orbit_trajectory(skeleton, 30.0, 1001)
        sigma_t = 0.05
        checkpoints = np.array([100, 400, 1000])
        sq = np.zeros((100, len(checkpoints)))
        for s in range(100):
            noisy = inject_noise(truth, NoiseSpec(sigma_t, 0.0, seed=1000 + s))
            errs = np.array(
                [np.linalg.norm(a.t - b.t) for a, b in zip(noisy.poses, truth.poses)]
            )
            sq[s] = errs[checkpoints - 1] ** 2
        rms = np.sqrt(sq.mean(axis=0))
        expected = sigma_t * np.sqrt(3.0 * (checkpoints - 1))
        assert np.all(np.abs(rms - expected) < 0.2 * expected)

    def test_error_progressive(self, skeleton):
        truth = generate_orbit_trajectory(skeleton, 30.0, 400)
        noisy = inject_noise(truth, NoiseSpec(0.05, 1.0 * DEG, seed=5))
        errs = np.array([np.linalg.norm(a.t - b.t) for a, b in zip(noisy.poses, truth.poses)])
        assert errs[0] == 0.0
        assert errs[100:].mean() > errs[:100].mean()


class TestSimulateMeasurements:
    def test_frames_match_direct_render(self, skeleton, camera):
        truth = generate_orbit_trajectory(skeleton, 30.0, 3)
        frames = simulate_measurements(truth, skeleton, camera)
        for pose, frame in zip(truth.poses, frames):
            direct = render(skeleton, pose, camera)
            assert np.array_equal(frame.line_channels, direct.line_channels)
            assert np.array_equal(frame.point_channels, direct.point_channels)

    def test_out_of_view_pose_blank(self, skeleton, camera):
        from turbloc.geometry import look_at_pose

        centre = skeleton.point("blade_centre")
        eye = centre + np.array([30.0, 0.0, 0.0])
        away = look_at_pose(eye, eye + np.array([1.0, 0.0, 0.0]))
        ts = np.array([0.0, 1.0])
        traj = Trajectory(ts, (away, away))
        frames = simulate_measurements(traj, skeleton, camera)
        assert is_blank(frames[0])

    def test_full_correspondences_from_truth(self, skeleton, camera):
        # cross-module consistency: matching from the rendering pose finds
        # every visible feature
        cfg = MatchConfig()
        sub = subdivide(skeleton, cfg.s_tower, cfg.s_hub, cfg.s_blade)
        truth = generate_orbit_trajectory(skeleton, 30.0, 8)
        frames = simulate_measurements(truth, skeleton, camera)
        for pose, frame in zip(truth.poses, frames):
            m = match_frame_arrays(skeleton, sub, pose, camera, frame, cfg)
            assert m.n_points == 6
            disp = np.linalg.norm(m.matched - pinhole(camera, world_to_camera(pose, m.points3d)), axis=1)
            assert disp.max() < 1.0

    def test_degrade_off_is_identity(self, skeleton, camera):
        truth = generate_orbit_trajectory(skeleton, 30.0, 2)
        frames = simulate_measurements(truth, skeleton, camera)
        same = degrade_measurements(frames, 0.0, 0.0, seed=1)
        assert same[0] is frames[0]

    @pytest.mark.parametrize(
        "pixel_sigma, jitter_px", [(-0.1, 0.0), (math.nan, 0.0), (math.inf, 0.0), (0.0, -1.0), (0.0, math.nan), (0.0, math.inf)]
    )
    def test_degrade_rejects_bad_magnitudes(self, skeleton, camera, pixel_sigma, jitter_px):
        truth = generate_orbit_trajectory(skeleton, 30.0, 2)
        frames = simulate_measurements(truth, skeleton, camera)
        with pytest.raises(ValueError, match="non-negative"):
            degrade_measurements(frames, pixel_sigma, jitter_px, seed=1)

    def test_degrade_adds_noise(self, skeleton, camera):
        truth = generate_orbit_trajectory(skeleton, 30.0, 2)
        frames = simulate_measurements(truth, skeleton, camera)
        noisy = degrade_measurements(frames, 0.05, 1.0, seed=1)
        assert not np.array_equal(noisy[0].point_channels, frames[0].point_channels)
        assert noisy[0].point_channels.max() <= 1.0
        assert noisy[0].point_channels.min() >= 0.0

    @pytest.mark.parametrize("jitter_px", [1e19, 1e300])
    def test_degrade_huge_jitter_rolls_each_channel(self, skeleton, camera, jitter_px):
        # draws of 2**63 px and more overflowed an int64 cast; a roll by any
        # shift permutes the channel's pixels
        truth = generate_orbit_trajectory(skeleton, 30.0, 2)
        frames = simulate_measurements(truth, skeleton, camera)
        for frame, out in zip(frames, degrade_measurements(frames, 0.0, jitter_px, seed=1)):
            for name in ("line_channels", "point_channels"):
                for got, want in zip(getattr(out, name), getattr(frame, name)):
                    assert np.array_equal(np.sort(got, axis=None), np.sort(want, axis=None))


class TestEvaluate:
    def test_identical_zero(self, skeleton):
        truth = generate_orbit_trajectory(skeleton, 30.0, 10)
        report = evaluate(truth, truth)
        assert np.all(report.translation_errors == 0.0)
        assert np.all(report.rotation_errors == 0.0)
        assert report.mean_translation_error == 0.0

    def test_uniform_offset(self, skeleton):
        truth = generate_orbit_trajectory(skeleton, 30.0, 10)
        shifted = Trajectory(
            truth.timestamps,
            tuple(Pose(p.t + np.array([0.1, 0, 0]), p.q) for p in truth.poses),
        )
        report = evaluate(shifted, truth)
        assert np.allclose(report.translation_errors, 0.1, atol=1e-12)
        assert np.allclose(report.rotation_errors, 0.0, atol=1e-12)
        assert np.isclose(report.mean_translation_error, 0.1)

    def test_random_perturbations_match_per_pose_oracle(self, skeleton):
        rng = np.random.default_rng(17)
        truth = generate_orbit_trajectory(skeleton, 30.0, 12)
        perturbed = []
        expected_t, expected_r = [], []
        for p in truth.poses:
            dt = rng.normal(0, 0.3, 3)
            dq = rng.normal(0, 0.05, 3)
            from turbloc.geometry import quaternion_boxplus

            q2 = quaternion_boxplus(p.q, dq)
            perturbed.append(Pose(p.t + dt, q2))
            expected_t.append(np.linalg.norm(dt))
            expected_r.append(geodesic_angle(q2, p.q))
        report = evaluate(Trajectory(truth.timestamps, tuple(perturbed)), truth)
        assert np.allclose(report.translation_errors, expected_t, atol=1e-9)
        assert np.allclose(report.rotation_errors, expected_r, atol=1e-9)
        assert np.isclose(report.mean_translation_error, np.mean(expected_t))

    def test_rows_equal_per_pose_errors_to_the_bit(self, skeleton):
        # the row form against `np.linalg.norm` and `geodesic_angle` pose by pose
        rng = np.random.default_rng(29)
        for n in [2, 3] + list(rng.integers(2, 60, 40)):
            t = rng.normal(0.0, 30.0, (2, n, 3)) * 10.0 ** rng.uniform(-6.0, 2.0, (2, n, 1))
            q = rng.normal(0.0, 1.0, (2, n, 4))
            est, truth = (
                Trajectory(np.arange(n, dtype=float), tuple(Pose(*row) for row in zip(t[j], q[j]))) for j in (0, 1)
            )
            report = evaluate(est, truth)
            want_t = np.array([np.linalg.norm(a.t - b.t) for a, b in zip(est.poses, truth.poses)])
            want_r = np.array([geodesic_angle(a.q, b.q) for a, b in zip(est.poses, truth.poses)])
            assert report.translation_errors.tobytes() == want_t.tobytes()
            assert report.rotation_errors.tobytes() == want_r.tobytes()
            assert report.mean_translation_error == want_t.mean()
            assert report.mean_rotation_error == want_r.mean()
            assert type(report.mean_translation_error) is type(report.mean_rotation_error) is float

    def test_mismatch_rejected(self, skeleton):
        a = generate_orbit_trajectory(skeleton, 30.0, 5)
        b = generate_orbit_trajectory(skeleton, 30.0, 6)
        with pytest.raises(ValueError):
            evaluate(a, b)
        c = Trajectory(a.timestamps + 0.5, a.poses)
        with pytest.raises(ValueError):
            evaluate(c, a)


class TestSweep:
    def test_zero_noise_cell(self, skeleton, camera):
        truth = generate_orbit_trajectory(skeleton, 30.0, 6)
        report = run_sweep(
            truth, skeleton, camera, [0.0], [0.0], seed=3,
            solver_cfg=SolverConfig(max_iterations=10),
        )
        cell = report.cells[0]
        assert cell.status == "ok"
        assert cell.pre.mean_translation_error < 1e-12
        assert cell.post.mean_translation_error < 1e-6

    def test_cap_hit_flagged(self, skeleton, camera):
        truth = generate_orbit_trajectory(skeleton, 30.0, 6)
        report = run_sweep(
            truth, skeleton, camera, [0.05], [3.0 * DEG], seed=1,
            solver_cfg=SolverConfig(max_iterations=1),
        )
        assert report.cells[0].status == "max_iterations"

    def test_noise_reduced_small_grid(self, skeleton, camera):
        truth = generate_orbit_trajectory(skeleton, 30.0, 24)
        report = run_sweep(
            truth, skeleton, camera, [0.03, 0.08], [2.0 * DEG, 6.0 * DEG], seed=9,
        )
        assert len(report.cells) == 4
        for cell in report.cells:
            assert cell.status == "ok"
            assert cell.post.mean_translation_error < cell.pre.mean_translation_error
            assert cell.post.mean_rotation_error < cell.pre.mean_rotation_error

    def test_deterministic_repeat(self, skeleton, camera):
        truth = generate_orbit_trajectory(skeleton, 30.0, 10)
        a = run_sweep(truth, skeleton, camera, [0.05], [3.0 * DEG], seed=21)
        b = run_sweep(truth, skeleton, camera, [0.05], [3.0 * DEG], seed=21)
        assert a.to_csv() == b.to_csv()

    def test_cell_seed_stable_under_grid_growth(self):
        assert cell_seed(42, 0) == cell_seed(42, 0)
        assert cell_seed(42, 0) != cell_seed(42, 1)
        assert cell_seed(42, 3) != cell_seed(43, 3)

    def test_csv_format(self, skeleton, camera):
        truth = generate_orbit_trajectory(skeleton, 30.0, 6)
        report = run_sweep(truth, skeleton, camera, [0.01], [1.0 * DEG], seed=1)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "sigma_t,sigma_r_deg,pre_t_err,post_t_err,pre_r_err_deg,post_r_err_deg,iterations,status"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert len(fields) == 8
        assert fields[0] == "0.01"
        assert fields[1] == "1"

    def test_empty_grid_rejected(self, skeleton, camera):
        truth = generate_orbit_trajectory(skeleton, 30.0, 4)
        with pytest.raises(ValueError):
            run_sweep(truth, skeleton, camera, [], [1.0], seed=0)


SITE_OFFSET, SITE_HEADING = np.array([37.0, -12.0, 0.0]), 0.6


@pytest.fixture(scope="module")
def moved_site(skeleton):
    """The baseline site moved by one rigid motion: its skeleton, and the motion."""
    site = Pose(SITE_OFFSET, np.array([math.cos(SITE_HEADING / 2), 0.0, 0.0, math.sin(SITE_HEADING / 2)]))
    moved = build_skeleton(
        TurbineParams(
            base_position=SITE_OFFSET,
            heading=SITE_HEADING,
            tower_height=10.0,
            hub_offset=1.0,
            blade_length=5.0,
            blade_azimuths=np.array([90.0, 210.0, 330.0]) * DEG,
        )
    )
    assert np.allclose(moved.points, [compose(site, Pose(p, [1.0, 0.0, 0.0, 0.0])).t for p in skeleton.points])
    return moved, site


class TestSiteSymmetry:
    """Moving the whole site, turbine and flight, by one rigid motion is an
    exact symmetry: the frames are the same images, and GPS/IMU enters the
    graph only as relative steps.  The inputs agree to round-off.  The fused
    errors agree to round-off on clean noise seeds 123 and 125 (about 1e-15
    relative) but not on 124: there the 1 px search offset of one blade
    sample flips on the round-off of the second keyframe's first match, and
    the errors move by 0.23% (translation) and 0.32% (rotation).  The errors
    are therefore bounded at 1%; the inputs check the symmetry itself."""

    BOUND = 0.01  # relative difference of the mean post errors

    def test_inputs_agree_to_round_off(self, skeleton, camera, moved_site):
        moved, site = moved_site
        truth = generate_orbit_trajectory(skeleton, 30.0, 12)
        moved_truth = Trajectory(truth.timestamps, tuple(compose(site, pose) for pose in truth.poses))
        frames = zip(simulate_measurements(truth, skeleton, camera), simulate_measurements(moved_truth, moved, camera))
        for a, b in frames:
            assert np.array_equal(a.line_channels, b.line_channels)
            assert np.array_equal(a.point_channels, b.point_channels)
        spec = NoiseSpec(0.08, 6.0 * DEG, 124)
        for a, b in zip(inject_noise(truth, spec).poses, inject_noise(moved_truth, spec).poses):
            a = compose(site, a)
            assert np.abs(a.t - b.t).max() < 1e-12 and geodesic_angle(a.q, b.q) < 1e-12

    @pytest.mark.parametrize("seed", [123, 124, 125])
    def test_moved_site_gives_the_same_errors(self, skeleton, camera, moved_site, seed):
        moved, site = moved_site
        truth = generate_orbit_trajectory(skeleton, 30.0, 12)
        moved_truth = Trajectory(truth.timestamps, tuple(compose(site, pose) for pose in truth.poses))

        def post_errors(skeleton, truth):
            frames = simulate_measurements(truth, skeleton, camera)
            noisy = inject_noise(truth, NoiseSpec(0.08, 6.0 * DEG, seed))
            graph, _ = build_and_optimize(
                noisy, frames, skeleton, camera, GraphWeights(), MatchConfig(), SolverConfig()
            )
            report = evaluate(Trajectory(truth.timestamps, tuple(graph.estimates())), truth)
            return np.array([report.mean_translation_error, report.mean_rotation_error])

        here, there = post_errors(skeleton, truth), post_errors(moved, moved_truth)
        assert np.all(np.abs(here - there) <= self.BOUND * here)


class TestTrajectoryType:
    def test_invariants(self, skeleton):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0]), (IDENTITY,))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), (IDENTITY, IDENTITY))

    @pytest.mark.parametrize("last", [math.inf, math.nan])
    def test_rejects_non_finite_timestamps(self, last):
        with pytest.raises(ValueError, match="finite"):
            Trajectory(np.array([0.0, 1.0, last]), (IDENTITY,) * 3)

    def test_noise_spec_invariants(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1, 0.0, seed=0)
        with pytest.raises(ValueError):
            NoiseSpec(0.0, -0.1, seed=0)
        with pytest.raises(ValueError):
            NoiseSpec(math.nan, 0.0, seed=0)

    @pytest.mark.parametrize("seed", [1.5, -1, True, "1"])
    def test_noise_spec_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(0.1, 0.1, seed=seed)

    @pytest.mark.parametrize("seed", [1.5, -1, True])
    def test_seeded_functions_reject_bad_seed(self, skeleton, camera, seed):
        truth = generate_orbit_trajectory(skeleton, 30.0, 2)
        frames = simulate_measurements(truth, skeleton, camera)
        for magnitudes in ((0.1, 1.0), (0.0, 0.0)):  # the no-op path checks too
            with pytest.raises(ValueError, match="seed"):
                degrade_measurements(frames, *magnitudes, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            cell_seed(seed, 0)
        with pytest.raises(ValueError, match="seed"):
            run_sweep(truth, skeleton, camera, [0.01], [1.0 * DEG], seed=seed)

    def test_noise_spec_accepts_numpy_seed(self):
        assert NoiseSpec(0.1, 0.1, seed=np.uint64(2**63)).seed == 2**63


def error_report():
    return ErrorReport(np.zeros(3), np.ones(3), 0.0, 1.0)


def turbine_params():
    return TurbineParams(np.zeros(3), 0.0, 10.0, 1.0, 5.0, np.array([90.0, 210.0, 330.0]) * DEG)


# a fresh instance of each class that holds arrays, equal field for field to
# any other the same factory builds
ARRAY_HOLDERS = {
    "TurbineParams": turbine_params,
    "TurbineSkeleton": lambda: build_skeleton(turbine_params()),
    "SubdividedModel": lambda: subdivide(build_skeleton(turbine_params()), 10, 3, 8),
    "Trajectory": lambda: Trajectory(np.arange(2.0), (IDENTITY, IDENTITY)),
    "ErrorReport": error_report,
    "SweepCell": lambda: SweepCell(0.1, 0.2, error_report(), error_report(), 3, "ok"),
}


class TestArrayHoldersCompareByIdentity:
    @pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
    def test_equal_arrays_compare_unequal_without_raising(self, name):
        # `==` on their arrays would raise, so an instance equals itself only
        a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
        assert type(a).__name__ == name
        assert (a == b) is False and (a != b) is True and (a == a) is True
        assert hash(a) == hash(a)
        assert a in [b, a] and b not in [a]
        assert {a: 1, b: 2}[a] == 1
        assert asdict(a).keys() == asdict(b).keys()
