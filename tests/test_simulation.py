import math

import numpy as np
import pytest

from turbloc.geometry import CameraIntrinsics, Pose, compose, geodesic_angle, project, quat_rotate, relative_pose
from turbloc.heatmap import render
from turbloc.matching import MatchConfig, match_frame_arrays
from turbloc.posegraph import GraphWeights, SolverConfig
from turbloc.simulation import (
    ErrorReport,
    NoiseSpec,
    SweepReport,
    Trajectory,
    TrajectoryFormatError,
    cell_seed,
    degrade_measurements,
    evaluate,
    generate_orbit_trajectory,
    inject_noise,
    load_trajectory,
    run_sweep,
    save_trajectory,
    simulate_measurements,
)
from turbloc.turbine import TurbineParams, build_skeleton, subdivide

DEG = math.pi / 180.0


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
            uv = project(pose, camera, centre)
            assert uv is not None

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

    def test_points_in_view(self, skeleton, camera):
        traj = generate_orbit_trajectory(skeleton, 30.0, 36)
        for pose in traj.poses:
            in_view = sum(
                project(pose, camera, p) is not None for p in skeleton.points
            )
            assert in_view >= 4


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
        assert frames[0].is_blank()

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
            disp = np.linalg.norm(m.matched - m.predicted, axis=1)
            assert disp.max() < 1.0

    def test_degrade_off_is_identity(self, skeleton, camera):
        truth = generate_orbit_trajectory(skeleton, 30.0, 2)
        frames = simulate_measurements(truth, skeleton, camera)
        same = degrade_measurements(frames, 0.0, 0.0, seed=1)
        assert same[0] is frames[0]

    def test_degrade_adds_noise(self, skeleton, camera):
        truth = generate_orbit_trajectory(skeleton, 30.0, 2)
        frames = simulate_measurements(truth, skeleton, camera)
        noisy = degrade_measurements(frames, 0.05, 1.0, seed=1)
        assert not np.array_equal(noisy[0].point_channels, frames[0].point_channels)
        assert noisy[0].point_channels.max() <= 1.0
        assert noisy[0].point_channels.min() >= 0.0


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


class TestTrajectoryIO:
    def test_round_trip(self, skeleton, tmp_path):
        truth = generate_orbit_trajectory(skeleton, 30.0, 9)
        path = tmp_path / "truth.csv"
        save_trajectory(truth, path)
        back = load_trajectory(path)
        assert len(back) == len(truth)
        for a, b in zip(back.poses, truth.poses):
            assert np.allclose(a.t, b.t, atol=1e-7)
            assert geodesic_angle(a.q, b.q) < 1e-7

    def test_nine_significant_digits(self, skeleton, tmp_path):
        truth = generate_orbit_trajectory(skeleton, 30.0, 3)
        path = tmp_path / "t.csv"
        save_trajectory(truth, path)
        first = path.read_text().splitlines()[0]
        assert len(first.split(",")) == 8

    def test_malformed_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2,3\n")
        with pytest.raises(TrajectoryFormatError):
            load_trajectory(path)

    def test_malformed_float(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2,3,1,0,0,zzz\n1,1,2,3,1,0,0,0\n")
        with pytest.raises(TrajectoryFormatError):
            load_trajectory(path)

    @pytest.mark.parametrize("record", ["1,1,nan,3,1,0,0,0", "nan,1,2,3,1,0,0,0", "1,1,2,3,1,0,inf,0"])
    def test_non_finite_field(self, tmp_path, record):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,1,2,3,1,0,0,0\n{record}\n")
        with pytest.raises(TrajectoryFormatError, match=r"bad\.csv:2: "):
            load_trajectory(path)

    def test_zero_quaternion(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2,3,0,0,0,0\n1,1,2,3,1,0,0,0\n")
        with pytest.raises(TrajectoryFormatError, match=r"bad\.csv:1: "):
            load_trajectory(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2,3,1,0,0,0\n")
        with pytest.raises(TrajectoryFormatError):
            load_trajectory(path)

    def test_non_increasing_timestamps(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,1,2,3,1,0,0,0\n1,1,2,3,1,0,0,0\n")
        with pytest.raises(TrajectoryFormatError):
            load_trajectory(path)


class TestTrajectoryType:
    def test_invariants(self, skeleton):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0]), (Pose.identity(),))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), (Pose.identity(), Pose.identity()))

    def test_noise_spec_invariants(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1, 0.0, seed=0)
        with pytest.raises(ValueError):
            NoiseSpec(0.0, -0.1, seed=0)
        with pytest.raises(ValueError):
            NoiseSpec(math.nan, 0.0, seed=0)
