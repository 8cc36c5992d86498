"""The simulation set-up reproduces its reference implementations byte for byte.

``reference_simulation`` keeps the per-step noise injection, the full-plane
renderer, the nested-roll channel jitter and the concatenating frame writer.
Noisy poses, rendered and degraded frames, frame files and sweep CSVs must not
change by a single bit.
"""

import math

import numpy as np
import pytest

import reference_simulation
import turbloc.heatmap
import turbloc.simulation
from turbloc.geometry import CameraIntrinsics, Pose, in_view, look_at_pose, pinhole, world_to_camera
from turbloc.heatmap import HeatmapFrame, render, write_frame
from turbloc.simulation import (
    NoiseSpec,
    Trajectory,
    degrade_measurements,
    generate_orbit_trajectory,
    inject_noise,
    run_sweep,
)
from turbloc.posegraph import SolverConfig
from turbloc.turbine import LINES, POINT_CLASSES, PointClass, TurbineParams, build_skeleton

DEG = math.pi / 180.0
K256 = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
K40 = CameraIntrinsics(30.0, 30.0, 19.5, 14.5, 40, 30)
K_CORNER = CameraIntrinsics(200.0, 200.0, 3.0, 250.0, 256, 256)  # principal point near a corner


@pytest.fixture(scope="module")
def skeleton():
    return build_skeleton(
        TurbineParams(np.zeros(3), 0.0, 10.0, 1.0, 5.0, np.array([90.0, 210.0, 330.0]) * DEG)
    )


def same_poses(a, b):
    assert len(a) == len(b)
    assert a.timestamps.tobytes() == b.timestamps.tobytes()
    for pa, pb in zip(a.poses, b.poses):
        assert pa.t.tobytes() == pb.t.tobytes()
        assert pa.q.tobytes() == pb.q.tobytes()


def same_frames(a, b):
    assert a.line_channels.tobytes() == b.line_channels.tobytes()
    assert a.point_channels.tobytes() == b.point_channels.tobytes()


def wandering(n, seed):
    """A trajectory with random positions and orientations."""
    rng = np.random.default_rng(seed)
    poses = tuple(Pose(rng.normal(0.0, 20.0, 3), rng.normal(size=4)) for _ in range(n))
    return Trajectory(np.arange(n, dtype=float), poses)


SPECS = [(0.08, 6.0 * DEG), (0.0, 3.0 * DEG), (0.05, 0.0), (1.5, 90.0 * DEG)]


class TestInjectNoise:
    @pytest.mark.parametrize("n", [2, 12, 48, 1001])
    @pytest.mark.parametrize("sigma_t, sigma_r", SPECS)
    def test_orbit(self, skeleton, n, sigma_t, sigma_r):
        truth = generate_orbit_trajectory(skeleton, 30.0, n)
        for seed in (0, 123, 2**40 + 7):
            spec = NoiseSpec(sigma_t, sigma_r, seed)
            same_poses(inject_noise(truth, spec), reference_simulation.inject_noise(truth, spec))

    @pytest.mark.parametrize("n", [2, 12, 48])
    def test_wandering(self, n):
        truth = wandering(n, seed=n)
        for seed, (sigma_t, sigma_r) in enumerate(SPECS):
            spec = NoiseSpec(sigma_t, sigma_r, seed)
            same_poses(inject_noise(truth, spec), reference_simulation.inject_noise(truth, spec))


def views(skeleton):
    """(camera, pose) pairs: orbit, close-range, clipped, behind-camera, point-like and blank views."""
    centre = skeleton.point("blade_centre")
    tip = skeleton.points[4]
    rng = np.random.default_rng(5)
    out = [(K256, pose) for pose in generate_orbit_trajectory(skeleton, 30.0, 6).poses]
    out += [
        # face-on: the hub line runs along the optical axis
        (K256, look_at_pose(centre + np.array([30.0, 0.0, 0.0]), centre)),
        # along a blade: the blade line projects to a point
        (K256, look_at_pose(centre + 4.0 * (tip - centre), centre)),
        # close up: every channel runs off the image
        (K256, look_at_pose(centre + np.array([6.0, 2.0, -1.0]), centre)),
        (K_CORNER, look_at_pose(centre + np.array([30.0, 0.0, 0.0]), centre)),
        # tower top, hub and blades behind the camera
        (K256, look_at_pose(np.array([3.0, 0.0, 8.0]), np.zeros(3))),
        (K256, look_at_pose(np.array([0.5, 0.0, 5.0]), np.array([30.0, 0.0, 5.0]))),
        # looking away
        (K256, look_at_pose(centre + np.array([30.0, 0.0, 0.0]), centre + np.array([60.0, 0.0, 0.0]))),
    ]
    # close range, the rotor edge-on on every second pose: two tips nearly meet
    out += [(K40, pose) for pose in generate_orbit_trajectory(skeleton, 12.0, 4).poses]
    out += [(K40, pose) for pose in generate_orbit_trajectory(skeleton, 30.0, 4).poses]
    out += [(K40, look_at_pose(centre + np.array([12.0, 0.0, 0.0]), centre))]
    for _ in range(6):
        eye = centre + rng.normal(0.0, 1.0, 3) * np.array([20.0, 20.0, 6.0])
        out.append((K256, look_at_pose(eye, centre + rng.normal(0.0, 4.0, 3))))
    return out


class TestRender:
    def test_views_cover_the_degenerate_cases(self, skeleton):
        vs = views(skeleton)
        point_like = clipped = behind = 0
        for k, pose in vs:
            cam = world_to_camera(pose, skeleton.points)
            uv = pinhole(k, cam)
            ab = uv[LINES[:, 1]] - uv[LINES[:, 0]]
            point_like += np.any(np.einsum("ij,ij->i", ab, ab) < 1e-18)
            behind += np.any(cam[:, 2] <= 0.0)
            off = (uv < -0.5) | (uv >= np.array([k.width, k.height]) - 0.5)
            clipped += np.any(off)
        assert point_like >= 2 and clipped >= 3 and behind >= 2

    def test_views_cover_overlapping_features(self, skeleton):
        """A channel's maximum differs from its features' own Gaussians only
        where two of them lie within each other's 3 sigma radius.  The blade
        lines always meet at the hub; at least 3 views bring two blade tips
        within 3 sigma of each other at sigma 2, the smaller of `test_frames`'."""
        near_tips = 0
        for k, pose in views(skeleton):
            uv = pinhole(k, world_to_camera(pose, skeleton.points))
            tips = uv[(POINT_CLASSES == PointClass.BLADE_TIP) & in_view(k, uv)]
            gaps = np.sqrt(((tips[:, None] - tips[None]) ** 2).sum(axis=-1))[np.triu_indices(len(tips), 1)]
            near_tips += np.any(gaps <= 3.0 * 2.0)
        assert near_tips >= 3

    @pytest.mark.parametrize("sigma", [2.0, 5.0])
    def test_frames(self, skeleton, sigma):
        for k, pose in views(skeleton):
            same_frames(render(skeleton, pose, k, sigma), reference_simulation.render(skeleton, pose, k, sigma))


class TestDegrade:
    @pytest.mark.parametrize("pixel_sigma, jitter_px", [(0.0, 5.0), (0.1, 0.0), (0.1, 5.0), (0.05, 40.0)])
    def test_frames(self, skeleton, pixel_sigma, jitter_px):
        vs = views(skeleton)
        frames = [render(skeleton, pose, k) for k, pose in vs[:8] + vs[-8:-5]]  # 256x256 and 40x30
        for seed in (7, 8):
            got = degrade_measurements(frames, pixel_sigma, jitter_px, seed)
            want = reference_simulation.degrade_measurements(frames, pixel_sigma, jitter_px, seed)
            for a, b in zip(got, want):
                same_frames(a, b)


class TestWriteFrame:
    def test_files(self, skeleton, tmp_path):
        frames = [render(skeleton, pose, k) for k, pose in views(skeleton)]
        frames += degrade_measurements(frames[:4], 0.1, 5.0, seed=7)
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(7, 9, 11))
        raw[0, 1, 2], raw[5, 3, 4] = np.nan, np.inf
        frames.append(HeatmapFrame(raw[:3], raw[3:]))  # float64 input with non-finite pixels
        frames.append(HeatmapFrame(raw[:3, :1, :1], raw[3:, :1, :1]))
        for i, frame in enumerate(frames):
            got, want = tmp_path / f"got{i}.tmbt", tmp_path / f"want{i}.tmbt"
            write_frame(frame, got)
            reference_simulation.write_frame(frame, want)
            assert got.read_bytes() == want.read_bytes()
            same_frames(turbloc.heatmap.read_frame(got), frame)


def test_sweep_csv(skeleton, monkeypatch):
    truth = generate_orbit_trajectory(skeleton, 30.0, 6)
    args = (truth, skeleton, K256, [0.0, 0.05], [3.0 * DEG])
    kwargs = dict(seed=4, solver_cfg=SolverConfig(max_iterations=10))
    got = run_sweep(*args, **kwargs).to_csv()
    monkeypatch.setattr(turbloc.simulation, "inject_noise", reference_simulation.inject_noise)
    monkeypatch.setattr(turbloc.simulation, "render", reference_simulation.render)
    assert run_sweep(*args, **kwargs).to_csv() == got
