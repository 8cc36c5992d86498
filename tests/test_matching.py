import math

import numpy as np
import pytest

from oracles import brute_force_line_sample, brute_force_point
import reference_matching
from reference_matching import reference_match_frame_arrays
from turbloc.geometry import (
    EPS_DEPTH,
    CameraIntrinsics,
    Pose,
    compose,
    look_at_pose,
    pinhole,
    project,
    quat_from_rotvec,
    world_to_camera,
)
from turbloc.heatmap import HeatmapFrame, render
from turbloc.matching import (
    _perpendiculars,
    _refine_peaks,
    _search_lines,
    _search_points,
    _segment_distances,
    CorrespondenceKind,
    MatchConfig,
    match_frame_arrays,
)
from turbloc.simulation import NoiseSpec, degrade_measurements, generate_orbit_trajectory, inject_noise
from turbloc.turbine import LineClass, TurbineParams, build_skeleton, subdivide

DEG = math.pi / 180.0


def gaussian_channel(h, w, cx, cy, sigma=5.0):
    ys, xs = np.mgrid[0:h, 0:w]
    g = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma**2))
    return (g / g.max()).astype(np.float32)


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
    centre = skeleton.point("blade_centre")
    # oblique view keeps the hub line's projection non-degenerate
    eye = centre + 30.0 * np.array([math.cos(40 * DEG), math.sin(40 * DEG), 0.0])
    pose = look_at_pose(eye, centre)
    return skeleton, subdivided, k, pose, cfg


# class ids that point every row of a kernel call at the first channel
FIRST = np.zeros(1, np.int64)


class TestMatchPoint:
    """`_search_points`: the largest value within r_point of each prediction."""

    def test_peak_at_prediction(self):
        channel = gaussian_channel(100, 100, 50, 60)
        pixel, found = _search_points(channel[None], FIRST, np.array([[50.0, 60.0]]), MatchConfig(r_point=10.0))
        assert found[0]
        assert np.allclose(pixel[0], [50.0, 60.0])

    def test_threshold_reject(self):
        channel = np.full((50, 50), 0.2, dtype=np.float32)
        _, found = _search_points(channel[None], FIRST, np.array([[25.0, 25.0]]), MatchConfig(r_point=8.0))
        assert not found[0]

    def test_offset_peak_equals_brute_force(self):
        cfg = MatchConfig(r_point=20.0)
        channel = gaussian_channel(100, 100, 58.0, 52.0)
        predicted = np.array([50.0, 50.0])  # peak offset 0.4 * r_point
        pixel, found = _search_points(channel[None], FIRST, predicted[None], cfg)
        oracle = brute_force_point(channel, predicted, cfg.r_point, cfg.lambda_point)
        assert found[0]
        assert np.array_equal(pixel[0], oracle)
        assert np.allclose(pixel[0], [58.0, 52.0])

    @pytest.mark.parametrize("quantized", [True, False])
    def test_brute_force_equivalence_random(self, quantized):
        # one call per raster shape, each over 40 channels; 12 rows is smaller
        # than the 16 px box a 7 px window needs
        rng = np.random.default_rng(42 if quantized else 43)
        cfg = MatchConfig(r_point=7.0)
        for h, w in ((12, 29), (23, 14), (30, 30)):
            if quantized:
                channels = (rng.integers(0, 5, (40, h, w)) / 4.0).astype(np.float32)
            else:
                channels = rng.random((40, h, w)).astype(np.float32)
            predicted = rng.uniform(-3, [w + 2, h + 2], (40, 2))
            pixel, found = _search_points(channels, np.arange(40), predicted, cfg)
            for i in range(40):
                want = brute_force_point(channels[i], predicted[i], cfg.r_point, cfg.lambda_point)
                assert found[i] == (want is not None)
                if want is not None:
                    assert np.array_equal(pixel[i], want)

    def test_window_fully_outside(self):
        channel = np.ones((20, 20), dtype=np.float32)
        _, found = _search_points(channel[None], FIRST, np.array([[100.0, 100.0]]), MatchConfig(r_point=5.0))
        assert not found[0]


class TestPerpendicularDirection:
    """`_perpendiculars`: unit normals with a canonical sign."""

    def test_horizontal(self):
        p, _, ok = _perpendiculars(np.array([[0.0, 0.0]]), np.array([[10.0, 0.0]]))
        assert ok[0]
        assert np.allclose(p[0], [0.0, 1.0])

    def test_vertical_canonicalized(self):
        p, _, ok = _perpendiculars(np.array([[0.0, 0.0]]), np.array([[0.0, 10.0]]))
        assert ok[0]
        assert np.allclose(p[0], [1.0, 0.0])

    def test_random_orthonormal(self):
        rng = np.random.default_rng(3)
        ab = rng.normal(0, 50, (100, 2, 2))
        a, b = ab[:, 0], ab[:, 1]
        b[:3] = a[:3] + [[0.0, 0.0], [1e-10, 0.0], [0.0, 2e-9]]  # below, below and above 1e-9
        p, d, ok = _perpendiculars(a, b)
        length = np.linalg.norm(b - a, axis=1)
        assert np.array_equal(ok, length >= 1e-9)
        assert np.all(np.abs(np.sum(p * (b - a), axis=1))[ok] < 1e-12 * length[ok])
        assert np.all(np.abs(np.linalg.norm(p[ok], axis=1) - 1.0) < 1e-12)
        assert np.all(np.abs(np.linalg.norm(d[ok], axis=1) - 1.0) < 1e-12)


class TestMatchLineSample:
    """`_search_lines`: the best of k_line samples across each prediction."""

    def make_vertical_ridge(self, w=80, h=80, x_line=40.0, sigma=5.0):
        xs = np.arange(w, dtype=float)
        profile = np.exp(-((xs - x_line) ** 2) / (2 * sigma**2))
        return np.tile(profile / profile.max(), (h, 1)).astype(np.float32)

    def test_centered_feature(self):
        channel = self.make_vertical_ridge()
        predicted, perp = np.array([[40.0, 40.0]]), np.array([[1.0, 0.0]])
        matched, found = _search_lines(channel[None], FIRST, predicted, perp, MatchConfig())
        assert found[0]
        assert np.allclose(matched[0], [40.0, 40.0])

    def test_threshold_reject(self):
        channel = np.full((60, 60), 0.1, dtype=np.float32)
        _, found = _search_lines(channel[None], FIRST, np.array([[30.0, 30.0]]), np.array([[1.0, 0.0]]), MatchConfig())
        assert not found[0]

    def test_offset_ridge_matches_brute_force(self):
        cfg = MatchConfig(a_line=40.0, k_line=41)
        channel = self.make_vertical_ridge(x_line=43.0)  # 3 px offset
        predicted = np.array([40.0, 40.0])
        perp = np.array([1.0, 0.0])
        matched, found = _search_lines(channel[None], FIRST, predicted[None], perp[None], cfg)
        oracle = brute_force_line_sample(channel, predicted, perp, cfg.a_line, cfg.k_line, cfg.lambda_line)
        assert found[0]
        assert np.array_equal(matched[0], oracle)
        assert np.allclose(matched[0], [43.0, 40.0])

    def test_constant_channel_ties_resolve_to_centre(self):
        channel = np.full((60, 60), 0.8, dtype=np.float32)
        predicted, perp = np.array([[30.0, 25.0]]), np.array([[0.0, 1.0]])
        matched, found = _search_lines(channel[None], FIRST, predicted, perp, MatchConfig())
        assert found[0]
        assert np.array_equal(matched[0], [30.0, 25.0])

    def test_brute_force_equivalence_random(self):
        # one call per raster shape, each over 60 channels
        rng = np.random.default_rng(7)
        cfg = MatchConfig(a_line=12.0, k_line=13)
        for h, w in ((15, 39), (36, 18), (27, 27)):
            channels = (rng.integers(0, 5, (60, h, w)) / 4.0).astype(np.float32)
            predicted = rng.uniform(0, [w - 1, h - 1], (60, 2))
            angle = rng.uniform(0, 2 * np.pi, 60)
            perp = np.stack([np.cos(angle), np.sin(angle)], axis=1)
            matched, found = _search_lines(channels, np.arange(60), predicted, perp, cfg)
            for i in range(60):
                want = brute_force_line_sample(
                    channels[i], predicted[i], perp[i], cfg.a_line, cfg.k_line, cfg.lambda_line
                )
                assert found[i] == (want is not None)
                if want is not None:
                    assert np.array_equal(matched[i], want)


class TestRefinePeak:
    """`_refine_peaks`: log-quadratic sub-pixel fit with pixel-centre fallbacks."""

    def test_exact_on_gaussian(self):
        channel = gaussian_channel(64, 64, 30.4, 22.7, sigma=4.0)
        peak = np.unravel_index(np.argmax(channel), channel.shape)
        refined = _refine_peaks(channel[None], FIRST, np.array([[peak[1], peak[0]]], dtype=float))
        assert np.allclose(refined[0], [30.4, 22.7], atol=1e-5)

    def test_border_fallback(self):
        channel = gaussian_channel(32, 32, 0.0, 15.0)
        refined = _refine_peaks(channel[None], FIRST, np.array([[0.0, 15.0]]))
        assert np.array_equal(refined[0], [0.0, 15.0])

    def test_zero_neighbourhood_fallback(self):
        channel = np.zeros((16, 16), dtype=np.float32)
        channel[8, 8] = 1.0
        assert np.array_equal(_refine_peaks(channel[None], FIRST, np.array([[8.0, 8.0]]))[0], [8.0, 8.0])


class TestMatchFrame:
    def test_self_consistency_full_count(self, scene):
        skeleton, subdivided, k, pose, cfg = scene
        frame = render(skeleton, pose, k)
        m = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        assert m.n_points == 6
        assert m.n_lines == cfg.s_tower + cfg.s_hub + 3 * cfg.s_blade
        assert len(m) == m.n_points + m.n_lines
        assert np.all(np.linalg.norm(m.predicted - m.matched, axis=1) <= 1.0)

    def test_all_zero_frame_empty(self, scene):
        skeleton, subdivided, k, pose, cfg = scene
        frame = HeatmapFrame.zeros(k.width, k.height)
        m = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        assert len(m) == 0
        for name in MATCH_FIELDS:
            assert getattr(m, name).shape[0] == 0

    def test_blade_symmetry_single_channel(self, scene):
        skeleton, subdivided, k, pose, cfg = scene
        frame = render(skeleton, pose, k)
        m = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        tips = (m.kinds == CorrespondenceKind.POINT) & (m.class_ids == 3)
        assert tips.sum() == 3
        blade_lines = (m.kinds == CorrespondenceKind.LINE) & (m.class_ids == int(LineClass.BLADE))
        assert blade_lines.sum() == 3 * cfg.s_blade
        assert set(m.line_ids[blade_lines].tolist()) == {2, 3, 4}

    def test_displacement_field_oracle(self, scene):
        # frame rendered from a 0.2 m shifted pose; matched displacements must
        # follow the analytic reprojection displacement field within 1 px
        skeleton, subdivided, k, pose, cfg = scene
        offset = np.array([0.12, -0.1, 0.1])
        assert np.linalg.norm(offset) < 0.2001
        true_pose = Pose(pose.t + offset, pose.q)
        frame = render(skeleton, true_pose, k)
        m = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        assert len(m)
        centre_uv = project(pose, k, skeleton.point("blade_centre"))
        checked = 0
        for point3d, predicted, matched, kind, line_id in zip(m.points3d, m.predicted, m.matched, m.kinds, m.line_ids):
            expected = project(true_pose, k, point3d) - project(pose, k, point3d)
            got = matched - predicted
            if kind == CorrespondenceKind.POINT:
                assert np.linalg.norm(got - expected) <= 1.0
                checked += 1
            else:
                if line_id >= 2 and np.linalg.norm(predicted - centre_uv) < 15.0:
                    continue  # blade ridges overlap near the centre; ambiguous by design
                # line search only observes the perpendicular component
                perp = got / (np.linalg.norm(got) + 1e-12)
                assert abs(np.dot(got - expected, perp)) <= 1.0
                checked += 1
        assert checked >= 30

    def test_determinism(self, scene):
        skeleton, subdivided, k, pose, cfg = scene
        frame = render(skeleton, pose, k)
        a = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        b = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        assert np.array_equal(a.matched, b.matched)
        assert np.array_equal(a.predicted, b.predicted)
        assert np.array_equal(a.kinds, b.kinds)

    def test_refinement_bounds_respected(self, scene):
        skeleton, subdivided, k, pose, cfg = scene
        frame = render(skeleton, pose, k)
        m = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        dist = np.linalg.norm(m.predicted - m.matched, axis=1)
        is_point = m.kinds == CorrespondenceKind.POINT
        assert np.all(dist[is_point] <= cfg.r_point)
        assert np.all(dist[~is_point] <= cfg.a_line / 2 + 1e-9)

    def test_pixel_centre_matches_without_refinement(self, scene):
        skeleton, subdivided, k, pose, _ = scene
        cfg = MatchConfig(refine_points=False)
        frame = render(skeleton, pose, k)
        m = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        point_matches = m.matched[m.kinds == CorrespondenceKind.POINT]
        assert point_matches.shape[0] == 6
        assert np.array_equal(point_matches, np.floor(point_matches))


MATCH_FIELDS = ("points3d", "predicted", "matched", "kinds", "class_ids", "line_ids")
REFERENCE_CONFIGS = [MatchConfig(), MatchConfig(refine_points=False), MatchConfig(parallel_guard_deg=0.0)]


def perturbed(pose, rng, sigma_t, sigma_r):
    return compose(pose, Pose(rng.normal(0.0, sigma_t, 3), quat_from_rotvec(rng.normal(0.0, sigma_r, 3))))


class TestMatchesReference:
    """match_frame_arrays reproduces the per-feature loop bit for bit."""

    def check(self, skeleton, pose, k, frame, cfg):
        subdivided = subdivide(skeleton, cfg.s_tower, cfg.s_hub, cfg.s_blade)
        got = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        want = reference_match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        for name in MATCH_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        return want

    @pytest.mark.parametrize("cfg", REFERENCE_CONFIGS)
    def test_orbit_clean_and_degraded(self, scene, cfg):
        skeleton, _, k, _, _ = scene
        truth = generate_orbit_trajectory(skeleton, 30.0, 8)
        clean = [render(skeleton, pose, k) for pose in truth.poses]
        degraded = degrade_measurements(clean, 0.1, 5.0, seed=7)
        noisy = inject_noise(truth, NoiseSpec(0.08, 6.0 * DEG, seed=123))
        rng = np.random.default_rng(5)
        n_points = n_lines = 0
        for i, pose in enumerate(truth.poses):
            poses = [noisy.poses[i]] + [perturbed(pose, rng, s, 2.0 * s * DEG) for s in (0.1, 0.5, 1.5)]
            for frame in (clean[i], degraded[i]):
                for estimate in poses:
                    want = self.check(skeleton, estimate, k, frame, cfg)
                    n_points += want.n_points
                    n_lines += want.n_lines
        assert n_points > 0 and n_lines > 0

    @pytest.mark.parametrize("cfg", REFERENCE_CONFIGS)
    def test_points_behind_camera(self, scene, cfg):
        # looking down at the tower base from below the tower top: the top, the
        # hub and parts of the blades are behind, so the tower line is clipped
        skeleton, _, k, _, _ = scene
        pose = look_at_pose(np.array([3.0, 0.0, 8.0]), np.zeros(3))
        depth = world_to_camera(pose, skeleton.points)[:, 2]
        assert depth[0] > EPS_DEPTH and depth[1] <= EPS_DEPTH
        frame = render(skeleton, pose, k)
        rng = np.random.default_rng(11)
        lines = 0
        for estimate in [pose] + [perturbed(pose, rng, 0.2, 1.0 * DEG) for _ in range(6)]:
            lines += self.check(skeleton, estimate, k, frame, cfg).n_lines
        assert lines > 0

    @pytest.mark.parametrize("cfg", REFERENCE_CONFIGS)
    def test_points_near_image_border(self, scene, cfg):
        # principal points near the corners put the turbine against the border
        skeleton, _, _, pose, _ = scene
        rng = np.random.default_rng(13)
        near_border = 0
        for cx, cy in ((2.0, 127.5), (253.5, 4.0), (40.0, 250.0)):
            k = CameraIntrinsics(200.0, 200.0, cx, cy, 256, 256)
            frame = render(skeleton, pose, k)
            for estimate in [pose] + [perturbed(pose, rng, 0.3, 1.0 * DEG) for _ in range(4)]:
                want = self.check(skeleton, estimate, k, frame, cfg)
                pred = want.predicted[want.kinds == int(CorrespondenceKind.POINT)]
                near_border += np.sum(np.min(np.hstack([pred, 255.0 - pred]), axis=1) < cfg.r_point)
        assert near_border > 0

    @pytest.mark.parametrize("cfg", REFERENCE_CONFIGS)
    def test_camera_smaller_than_point_window(self, scene, cfg):
        skeleton, _, _, pose, _ = scene
        k = CameraIntrinsics(50.0, 50.0, 19.5, 14.5, 40, 30)
        assert max(k.width, k.height) < 2 * cfg.r_point + 1
        frame = render(skeleton, pose, k, sigma=2.0)
        rng = np.random.default_rng(17)
        found = 0
        for estimate in [pose] + [perturbed(pose, rng, 0.5, 2.0 * DEG) for _ in range(6)]:
            found += len(self.check(skeleton, estimate, k, frame, cfg))
        assert found > 0

    @pytest.mark.parametrize("cfg", REFERENCE_CONFIGS)
    def test_all_zero_frame(self, scene, cfg):
        skeleton, _, k, pose, _ = scene
        assert len(self.check(skeleton, pose, k, HeatmapFrame.zeros(k.width, k.height), cfg)) == 0


class TestKernelsMatchReference:
    """Round-off traps of the array kernels, checked on raw values rather than
    through thresholds that hide a last-bit difference."""

    def test_perpendiculars(self):
        rng = np.random.default_rng(19)
        ab = rng.normal(100.0, 80.0, (2000, 2, 2))
        p, _, ok = _perpendiculars(ab[:, 0], ab[:, 1])
        assert ok.all()
        for i, (a, b) in enumerate(ab):
            assert np.array_equal(p[i], reference_matching.perpendicular_direction(a, b))

    def test_segment_distances(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            points = rng.normal(100.0, 80.0, (37, 2))
            a, b = rng.normal(100.0, 80.0, (5, 2)), rng.normal(100.0, 80.0, (5, 2))
            b[0] = a[0]  # a point-like segment
            got = _segment_distances(points, a, b)
            for o in range(5):
                want = reference_matching._point_segment_distance(points, a[o], b[o])
                assert np.array_equal(got[o], want)

    def test_refine_peak_subpixel(self):
        rng = np.random.default_rng(29)
        channels, pixels = [], []
        for _ in range(300):
            channels.append(gaussian_channel(24, 20, *rng.uniform(-2.0, 22.0, 2), sigma=rng.uniform(1.0, 6.0)))
            pixels.append(rng.integers(-1, 25, 2).astype(float))
        channels, pixels = np.stack(channels), np.stack(pixels)
        got = _refine_peaks(channels, np.arange(300), pixels)
        assert np.all(np.abs(got - pixels) <= 0.5)
        for i in range(300):
            assert np.array_equal(got[i], reference_matching.refine_peak_subpixel(channels[i], pixels[i]))


class TestMatchConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r_point=0.0),
            dict(a_line=-1.0),
            dict(k_line=2),
            dict(k_line=4),
            dict(lambda_point=0.0),
            dict(lambda_line=1.0),
            dict(s_hub=1),
            dict(r_point=math.nan),
            dict(a_line=math.inf),
            dict(k_line=math.nan),
            dict(s_tower=math.nan),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            MatchConfig(**kwargs)
