import gc
import math
import warnings

import dataclasses

import numpy as np
import pytest

from oracles import blank_frame, brute_force_line_sample, brute_force_point, is_blank
import reference_matching
from reference_matching import reference_match_frame_arrays
from turbloc.geometry import (
    EPS_DEPTH,
    CameraIntrinsics,
    Pose,
    compose,
    look_at_pose,
    pinhole,
    quat_from_rotvec,
    quat_normalize,
    world_to_camera,
)
from turbloc import matching, posegraph
from turbloc.heatmap import HeatmapFrame, _refine_peaks, pixels_above, render
from turbloc.matching import (
    _SAME_CLASS_PAIRS,
    _best_samples,
    _bilinear_corners,
    _interpolate,
    _line_positions,
    _perpendiculars,
    _point_windows,
    _search_windows,
    _segment_distances,
    CorrespondenceKind,
    MatchConfig,
    ProjectedModel,
    match_frame_arrays,
    project_model,
)
from turbloc.posegraph import PoseGraph
from turbloc.simulation import NoiseSpec, degrade_measurements, generate_orbit_trajectory, inject_noise
from turbloc.turbine import LINES, LineClass, TurbineParams, TurbineSkeleton, build_skeleton, subdivide

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


def search_points(channels, class_ids, predicted, cfg):
    """The point search on a bare channel stack, through its pixel list:
    `_point_windows` (the pose stage) then `_search_windows` (the frame stage)."""
    _, h, w = channels.shape
    windows = _point_windows(h, w, class_ids, predicted, cfg)
    return _search_windows(pixels_above(channels, cfg.lambda_point), *windows, predicted, cfg)[:2]


def bilinear(channels, class_ids, x, y):
    """Interpolated values at (x, y) in channels[class_ids], -inf off the
    raster: `_bilinear_corners` (the pose stage) then `_interpolate`."""
    _, h, w = channels.shape
    return _interpolate(channels, *_bilinear_corners(h, w, class_ids, x, y))


def search_lines(channels, class_ids, predicted, perp, cfg):
    """The perpendicular search across rows of `predicted` along `perp`,
    from `_line_positions` to `_best_samples`; returns (matched, found)."""
    values = bilinear(channels, class_ids[:, None], *_line_positions(predicted, perp, cfg))
    return _best_samples(values, predicted, perp, cfg)


class TestMatchPoint:
    """The point search: the largest value within r_point of each prediction."""

    def test_peak_at_prediction(self):
        channel = gaussian_channel(100, 100, 50, 60)
        pixel, found = search_points(channel[None], FIRST, np.array([[50.0, 60.0]]), MatchConfig(r_point=10.0))
        assert found[0]
        assert np.allclose(pixel[0], [50.0, 60.0])

    def test_threshold_reject(self):
        channel = np.full((50, 50), 0.2, dtype=np.float32)
        _, found = search_points(channel[None], FIRST, np.array([[25.0, 25.0]]), MatchConfig(r_point=8.0))
        assert not found[0]

    def test_offset_peak_equals_brute_force(self):
        cfg = MatchConfig(r_point=20.0)
        channel = gaussian_channel(100, 100, 58.0, 52.0)
        predicted = np.array([50.0, 50.0])  # peak offset 0.4 * r_point
        pixel, found = search_points(channel[None], FIRST, predicted[None], cfg)
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
            pixel, found = search_points(channels, np.arange(40), predicted, cfg)
            for i in range(40):
                want = brute_force_point(channels[i], predicted[i], cfg.r_point, cfg.lambda_point)
                assert found[i] == (want is not None)
                if want is not None:
                    assert np.array_equal(pixel[i], want)

    def test_window_fully_outside(self):
        channel = np.ones((20, 20), dtype=np.float32)
        _, found = search_points(channel[None], FIRST, np.array([[100.0, 100.0]]), MatchConfig(r_point=5.0))
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
    """The line search: the best of k_line samples across each prediction."""

    def make_vertical_ridge(self, w=80, h=80, x_line=40.0, sigma=5.0):
        xs = np.arange(w, dtype=float)
        profile = np.exp(-((xs - x_line) ** 2) / (2 * sigma**2))
        return np.tile(profile / profile.max(), (h, 1)).astype(np.float32)

    def test_centered_feature(self):
        channel = self.make_vertical_ridge()
        predicted, perp = np.array([[40.0, 40.0]]), np.array([[1.0, 0.0]])
        matched, found = search_lines(channel[None], FIRST, predicted, perp, MatchConfig())
        assert found[0]
        assert np.allclose(matched[0], [40.0, 40.0])

    def test_threshold_reject(self):
        channel = np.full((60, 60), 0.1, dtype=np.float32)
        _, found = search_lines(channel[None], FIRST, np.array([[30.0, 30.0]]), np.array([[1.0, 0.0]]), MatchConfig())
        assert not found[0]

    def test_offset_ridge_matches_brute_force(self):
        cfg = MatchConfig(a_line=40.0, k_line=41)
        channel = self.make_vertical_ridge(x_line=43.0)  # 3 px offset
        predicted = np.array([40.0, 40.0])
        perp = np.array([1.0, 0.0])
        matched, found = search_lines(channel[None], FIRST, predicted[None], perp[None], cfg)
        oracle = brute_force_line_sample(channel, predicted, perp, cfg.a_line, cfg.k_line, cfg.lambda_line)
        assert found[0]
        assert np.array_equal(matched[0], oracle)
        assert np.allclose(matched[0], [43.0, 40.0])

    def test_constant_channel_ties_resolve_to_centre(self):
        channel = np.full((60, 60), 0.8, dtype=np.float32)
        predicted, perp = np.array([[30.0, 25.0]]), np.array([[0.0, 1.0]])
        matched, found = search_lines(channel[None], FIRST, predicted, perp, MatchConfig())
        assert found[0]
        assert np.array_equal(matched[0], [30.0, 25.0])

    def test_one_pixel_wide_and_high_rasters(self):
        # the +1 neighbour across the raster's single column or row carries
        # weight 0 and must not be read past the channel's end
        profile = np.array([0.1, 0.4, 0.9, 0.6, 0.2], dtype=np.float32)
        along = np.array([0.0, 1.5, 3.25, 3.9, 4.0])
        for channels, xy in (
            (profile.reshape(1, 5, 1), np.stack([np.zeros(5), along], axis=1)),
            (profile.reshape(1, 1, 5), np.stack([along, np.zeros(5)], axis=1)),
        ):
            values = bilinear(channels, FIRST, xy[:, 0], xy[:, 1])
            assert np.allclose(values, np.interp(along, np.arange(5), profile), rtol=0.0, atol=1e-7)
            off = bilinear(channels, FIRST, xy[:1, 0] + 0.5, xy[:1, 1] + 0.5)  # beyond the single column or row
            assert off[0] == -np.inf

    def test_one_pixel_rasters_match_the_oracles(self):
        # the brute-force oracle and the reference matcher read (5, 1) and
        # (1, 5) channels as the line search does
        profile = np.array([0.1, 0.4, 0.9, 0.6, 0.2], dtype=np.float32)
        cfg = MatchConfig(a_line=4.0, k_line=9)
        along = np.array([0.0, 1.3, 2.5, 3.6, 4.0])
        for channel, predicted, perp in (
            (profile.reshape(5, 1), np.stack([np.zeros(5), along], axis=1), np.array([0.0, 1.0])),
            (profile.reshape(1, 5), np.stack([along, np.zeros(5)], axis=1), np.array([1.0, 0.0])),
        ):
            matched, found = search_lines(channel[None], np.zeros(5, np.int64), predicted, np.tile(perp, (5, 1)), cfg)
            want, want_found = reference_matching._match_line_rows(channel, predicted, perp, cfg)
            assert found.all() and np.array_equal(want_found, found)
            assert np.array_equal(want, matched)
            for i in range(5):
                oracle = brute_force_line_sample(channel, predicted[i], perp, cfg.a_line, cfg.k_line, cfg.lambda_line)
                assert np.array_equal(oracle, matched[i])

    def test_brute_force_equivalence_random(self):
        # one call per raster shape, each over 60 channels
        rng = np.random.default_rng(7)
        cfg = MatchConfig(a_line=12.0, k_line=13)
        for h, w in ((15, 39), (36, 18), (27, 27)):
            channels = (rng.integers(0, 5, (60, h, w)) / 4.0).astype(np.float32)
            predicted = rng.uniform(0, [w - 1, h - 1], (60, 2))
            angle = rng.uniform(0, 2 * np.pi, 60)
            perp = np.stack([np.cos(angle), np.sin(angle)], axis=1)
            matched, found = search_lines(channels, np.arange(60), predicted, perp, cfg)
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


class TestSameClassPairs:
    def test_distinct_lines_of_one_class(self):
        # class equality between distinct lines
        cls = LINES[:, 2]
        want = (cls[:, None] == cls[None, :]) & ~np.eye(cls.size, dtype=bool)
        assert _SAME_CLASS_PAIRS.dtype == bool and np.array_equal(_SAME_CLASS_PAIRS, want)
        # only the three blades pair up
        assert [tuple(p) for p in np.argwhere(_SAME_CLASS_PAIRS)] == [(2, 3), (2, 4), (3, 2), (3, 4), (4, 2), (4, 3)]

    def test_read_only(self):
        assert not _SAME_CLASS_PAIRS.flags.writeable
        with pytest.raises(ValueError):
            _SAME_CLASS_PAIRS[2, 3] = False


class TestParallelGuard:
    def test_guard_drops_every_blade_sample_of_half_the_orbit(self, scene, monkeypatch):
        # the baseline orbit matched at its true poses: the guard drops all
        # 24 blade samples of 6 of the 12 views, and setting matching._SIN_GUARD
        # to 0 turns it off
        skeleton, subdivided, k, _, cfg = scene
        truth = generate_orbit_trajectory(skeleton, 30.0, 12)
        frames = [render(skeleton, pose, k) for pose in truth.poses]

        def blade_rows():
            rows = []
            for pose, frame in zip(truth.poses, frames):
                m = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
                rows.append(int(np.sum((m.kinds == CorrespondenceKind.LINE) & (m.class_ids == LineClass.BLADE))))
            return rows

        guarded = {2, 3, 4, 8, 9, 10}
        assert blade_rows() == [0 if i in guarded else 24 for i in range(12)]
        monkeypatch.setattr(matching, "_SIN_GUARD", 0.0)
        assert blade_rows() == [24] * 12


def predictions(k, pose, m):
    """Where the matched model points `m.points3d` project at `pose`."""
    return pinhole(k, world_to_camera(pose, m.points3d))


class TestMatchFrame:
    def test_self_consistency_full_count(self, scene):
        skeleton, subdivided, k, pose, cfg = scene
        frame = render(skeleton, pose, k)
        m = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        assert m.n_points == 6
        assert m.n_lines == cfg.s_tower + cfg.s_hub + 3 * cfg.s_blade
        assert len(m) == m.n_points + m.n_lines
        assert np.all(np.linalg.norm(predictions(k, pose, m) - m.matched, axis=1) <= 1.0)

    def test_infinite_pixels(self, scene):
        """+inf and -inf pixels in both kinds of channel match without a
        warning and as the reference matches them.  A point whose window
        holds +inf matches at the centre of its nearest +inf pixel; a line
        sample that reads an infinite corner at weight 0 is NaN, which
        leaves its row unmatched."""
        skeleton, subdivided, _, _, cfg = scene
        # face-on with the blade centre on a pixel: the tower and the upright
        # blade search along whole pixel columns, so a corner weighs 0
        k = CameraIntrinsics(200.0, 200.0, 128.0, 128.0, 256, 256)
        centre = skeleton.point("blade_centre")
        pose = look_at_pose(centre + np.array([30.0, 0.0, 0.0]), centre)
        clean = render(skeleton, pose, k)
        uv = np.rint(pinhole(k, world_to_camera(pose, skeleton.points))).astype(int)
        points, lines = clean.point_channels.copy(), clean.line_channels.copy()
        points[0, uv[0, 1] - 4, uv[0, 0] - 6 : uv[0, 0] + 7] = np.inf  # along a row by the tower base
        points[3, uv[3, 1] - 5 : uv[3, 1] + 6, uv[3, 0] + 3] = np.inf  # along a column by a tip
        points[1, uv[1, 1] + 1, uv[1, 0] - 1] = -np.inf  # beside the tower top's peak
        lines[LineClass.BLADE] = np.inf
        lines[LineClass.TOWER, uv[1, 1] : (uv[0, 1] + uv[1, 1]) // 2, uv[0, 0] + 3] = -np.inf  # the tower's upper half
        frame = HeatmapFrame(lines, points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        with np.errstate(invalid="ignore"):
            want = reference_match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        for name in MATCH_FIELDS:
            assert np.array_equal(getattr(m, name), getattr(want, name)), name
        point = m.kinds == int(CorrespondenceKind.POINT)
        held = 0
        for predicted, cls, matched in zip(predictions(k, pose, m)[point], m.class_ids[point], m.matched[point]):
            ys, xs = np.nonzero(np.isposinf(points[cls]))  # row-major
            d2 = (xs - predicted[0]) ** 2 + (ys - predicted[1]) ** 2
            if np.any(d2 <= cfg.r_point**2):
                held += 1
                j = np.argmin(d2)  # the first of the nearest, as the point search breaks ties
                assert matched.tolist() == [xs[j], ys[j]]
        assert held >= 2 and m.n_points == 6
        clean_lines = match_frame_arrays(skeleton, subdivided, pose, k, clean, cfg).n_lines
        assert 0 < m.n_lines < clean_lines

    def test_all_zero_frame_empty(self, scene):
        skeleton, subdivided, k, pose, cfg = scene
        frame = blank_frame(k.width, k.height)
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
        # every sample matched, in subdivided order, so each line row's
        # skeleton line is that of the subdivided sample in its place
        lines = m.kinds == CorrespondenceKind.LINE
        assert np.array_equal(m.points3d[lines], subdivided.points)
        assert set(subdivided.line_ids[blade_lines[lines]].tolist()) == {2, 3, 4}

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
        centre_uv = pinhole(k, world_to_camera(pose, skeleton.point("blade_centre")))
        moved = pinhole(k, world_to_camera(true_pose, m.points3d)) - pinhole(k, world_to_camera(pose, m.points3d))
        assert np.all(np.isfinite(moved))
        checked = 0
        rows = zip(predictions(k, pose, m), m.matched, m.kinds, m.class_ids, moved)
        for predicted, matched, kind, class_id, expected in rows:
            got = matched - predicted
            if kind == CorrespondenceKind.POINT:
                assert np.linalg.norm(got - expected) <= 1.0
                checked += 1
            else:
                if class_id == LineClass.BLADE and np.linalg.norm(predicted - centre_uv) < 15.0:
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
        assert np.array_equal(a.points3d, b.points3d)
        assert np.array_equal(a.kinds, b.kinds)

    def test_refinement_bounds_respected(self, scene):
        skeleton, subdivided, k, pose, cfg = scene
        frame = render(skeleton, pose, k)
        m = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        dist = np.linalg.norm(predictions(k, pose, m) - m.matched, axis=1)
        is_point = m.kinds == CorrespondenceKind.POINT
        assert np.all(dist[is_point] <= cfg.r_point)
        assert np.all(dist[~is_point] <= cfg.a_line / 2 + 1e-9)


MATCH_FIELDS = ("points3d", "matched", "kinds", "class_ids")
# (config, the parallel guard's bound on |cross|); a bound of 0 turns the guard off
REFERENCE_CONFIGS = [
    (MatchConfig(), matching._SIN_GUARD),
    (MatchConfig(r_point=24.0, a_line=16.0, k_line=9, s_tower=4, s_hub=2, s_blade=5), matching._SIN_GUARD),
    (MatchConfig(), 0.0),
]


@pytest.fixture
def cfg(request, monkeypatch):
    """The config of a `REFERENCE_CONFIGS` case, with `matching._SIN_GUARD`,
    which the library and the reference both read, set to the case's bound."""
    config, sin_guard = request.param
    monkeypatch.setattr(matching, "_SIN_GUARD", sin_guard)
    return config


def perturbed(pose, rng, sigma_t, sigma_r):
    return compose(pose, Pose(rng.normal(0.0, sigma_t, 3), quat_from_rotvec(rng.normal(0.0, sigma_r, 3))))


def check_reference(skeleton, pose, k, frame, cfg):
    """Assert match_frame_arrays equals the reference on every field; return the reference."""
    subdivided = subdivide(skeleton, cfg.s_tower, cfg.s_hub, cfg.s_blade)
    got = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
    want = reference_match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
    for name in MATCH_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    return want


class TestMatchesReference:
    """match_frame_arrays reproduces the per-feature loop bit for bit."""

    @pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, indirect=True)
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
                    want = check_reference(skeleton, estimate, k, frame, cfg)
                    n_points += want.n_points
                    n_lines += want.n_lines
        assert n_points > 0 and n_lines > 0

    @pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, indirect=True)
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
            lines += check_reference(skeleton, estimate, k, frame, cfg).n_lines
        assert lines > 0

    @pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, indirect=True)
    def test_points_near_image_border(self, scene, cfg):
        # principal points near the corners put the turbine against the border
        skeleton, _, _, pose, _ = scene
        rng = np.random.default_rng(13)
        near_border = 0
        for cx, cy in ((2.0, 127.5), (253.5, 4.0), (40.0, 250.0)):
            k = CameraIntrinsics(200.0, 200.0, cx, cy, 256, 256)
            frame = render(skeleton, pose, k)
            for estimate in [pose] + [perturbed(pose, rng, 0.3, 1.0 * DEG) for _ in range(4)]:
                want = check_reference(skeleton, estimate, k, frame, cfg)
                pred = predictions(k, estimate, want)[want.kinds == int(CorrespondenceKind.POINT)]
                near_border += np.sum(np.min(np.hstack([pred, 255.0 - pred]), axis=1) < cfg.r_point)
        assert near_border > 0

    @pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, indirect=True)
    def test_camera_smaller_than_point_window(self, scene, cfg):
        skeleton, _, _, pose, _ = scene
        k = CameraIntrinsics(50.0, 50.0, 19.5, 14.5, 40, 30)
        assert max(k.width, k.height) < 2 * cfg.r_point + 1
        frame = render(skeleton, pose, k, sigma=2.0)
        rng = np.random.default_rng(17)
        found = 0
        for estimate in [pose] + [perturbed(pose, rng, 0.5, 2.0 * DEG) for _ in range(6)]:
            found += len(check_reference(skeleton, estimate, k, frame, cfg))
        assert found > 0

    @pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, indirect=True)
    def test_all_zero_frame(self, scene, cfg):
        skeleton, _, k, pose, _ = scene
        assert len(check_reference(skeleton, pose, k, blank_frame(k.width, k.height), cfg)) == 0


def with_nan_pixels(skeleton, pose, k, frame):
    """`frame` with NaN pixels in the tower base's disk, in the tower top's
    box off its disk and across a few tower samples' searches."""
    uv = np.rint(pinhole(k, world_to_camera(pose, skeleton.points))).astype(int)
    points = frame.point_channels.copy()
    lines = frame.line_channels.copy()
    points[0, uv[0, 1] + 3, uv[0, 0] - 2] = np.nan
    points[1, uv[1, 1] - 29, uv[1, 0] - 29] = np.nan
    lines[0, uv[0, 1] - 40 : uv[0, 1] - 20, uv[0, 0] + 8] = np.nan
    return HeatmapFrame(lines, points)


class TestPixelListCache:
    """The frame's cached list of point pixels above lambda_point: NaN pixels,
    thresholds and frame lifetimes, each against the reference matcher."""

    def test_nan_pixels(self, scene, monkeypatch):
        skeleton, _, k, pose, _ = scene
        nan_frame = with_nan_pixels(skeleton, pose, k, render(skeleton, pose, k))
        for config, sin_guard in REFERENCE_CONFIGS:
            monkeypatch.setattr(matching, "_SIN_GUARD", sin_guard)
            m = check_reference(skeleton, pose, k, nan_frame, config)
            assert set(m.class_ids[m.kinds == int(CorrespondenceKind.POINT)].tolist()) == {1, 2, 3}
            assert 0 < m.n_lines < 37

    def test_threshold_per_config(self, scene):
        skeleton, _, k, pose, _ = scene
        frame = degrade_measurements([render(skeleton, pose, k)], 0.1, 5.0, seed=7)[0]
        for lam in (0.3, 0.9, 0.3, 0.05):
            check_reference(skeleton, pose, k, frame, MatchConfig(lambda_point=lam))

    def test_frame_made_after_another_was_dropped(self, scene):
        # a new frame may reuse a dropped frame's address; it must not reuse its list
        skeleton, _, k, pose, cfg = scene
        truth = generate_orbit_trajectory(skeleton, 30.0, 6)
        for a, b in zip(truth.poses[:-1], truth.poses[1:]):
            dropped = render(skeleton, a, k)
            check_reference(skeleton, a, k, dropped, cfg)
            del dropped
            gc.collect()
            check_reference(skeleton, b, k, render(skeleton, b, k), cfg)

    def test_caller_writes_after_construction(self, scene):
        # the frame keeps its own copy, so a write to the caller's arrays
        # changes neither the frame nor its cached list
        skeleton, _, k, pose, cfg = scene
        lines = np.zeros((3, k.height, k.width), np.float32)
        points = np.zeros((4, k.height, k.width), np.float32)
        frame = HeatmapFrame(lines, points)
        assert frame.point_pixels_above(cfg.lambda_point).index.size == 0
        u, v = np.rint(pinhole(k, world_to_camera(pose, skeleton.points[0]))).astype(int)
        points[0, v, u] = 1.0
        lines[0, v, u] = 1.0
        assert is_blank(frame)
        assert frame.point_pixels_above(cfg.lambda_point).index.size == 0
        assert len(check_reference(skeleton, pose, k, frame, cfg)) == 0
        assert len(check_reference(skeleton, pose, k, HeatmapFrame(lines, points), cfg)) > 0

    def test_nan_threshold_raises_and_caches_nothing(self, scene):
        # NaN != NaN, so a NaN key would miss on every call and store a new
        # list of every pixel each time
        skeleton, _, k, pose, _ = scene
        frame = render(skeleton, pose, k)
        for _ in range(2):
            with pytest.raises(ValueError, match="NaN"):
                frame.point_pixels_above(math.nan)
        assert frame._point_pixels == {}
        with pytest.raises(ValueError, match="NaN"):
            pixels_above(frame.point_channels, np.float32("nan"))

    def test_channels_read_only(self, scene):
        skeleton, _, k, pose, _ = scene
        frame = render(skeleton, pose, k)
        for channels in (frame.point_channels, frame.line_channels):
            with pytest.raises(ValueError):
                channels[0, 0, 0] = 1.0


def half_frame(k):
    """A frame whose point pixels are all 0.5, so every one is listed."""
    return HeatmapFrame(np.zeros((3, k.height, k.width), np.float32), np.full((4, k.height, k.width), 0.5, np.float32))


def list_bytes(pixels):
    return [a.tobytes() for a in pixels]


class TestPeakMemo:
    """The sub-pixel peaks that a frame's pixel list holds: one per listed
    pixel, refined when the list is built, read-only and never written again."""

    def test_memo_equals_refinement(self, scene):
        skeleton, _, k, pose, cfg = scene
        clean = render(skeleton, pose, k)
        frames = (
            clean,
            degrade_measurements([clean], 0.1, 5.0, seed=7)[0],
            with_nan_pixels(skeleton, pose, k, clean),
            half_frame(k),
        )
        rng = np.random.default_rng(31)
        for frame in frames:
            pixels = frame.point_pixels_above(cfg.lambda_point)
            assert pixels.index.size > 0 and pixels.peaks.shape == (pixels.index.size, 2)
            c, y, x = np.unravel_index(pixels.index, frame.point_channels.shape)
            assert np.array_equal(pixels.rows, y) and np.array_equal(pixels.cols, x)
            centres = np.stack([x, y], axis=1).astype(float)
            assert np.array_equal(pixels.peaks, _refine_peaks(frame.point_channels, c, centres))
            # a row's peak does not depend on the other rows refined with it
            some = rng.choice(pixels.index.size, 40)
            assert np.array_equal(pixels.peaks[some], _refine_peaks(frame.point_channels, c[some], centres[some]))

    def test_one_memo_per_threshold(self, scene):
        skeleton, _, k, pose, _ = scene
        frame = degrade_measurements([render(skeleton, pose, k)], 0.1, 5.0, seed=7)[0]
        low, high = frame.point_pixels_above(0.3), frame.point_pixels_above(0.6)
        assert low.index.size > high.index.size > 0
        # the same pixel has the same peak in each list
        common = np.isin(low.index, high.index)
        assert np.array_equal(low.index[common], high.index)
        assert np.array_equal(low.peaks[common], high.peaks)

    def test_arrays_read_only(self, scene):
        skeleton, _, k, pose, cfg = scene
        pixels = render(skeleton, pose, k).point_pixels_above(cfg.lambda_point)
        for array in pixels:
            with pytest.raises(ValueError):
                array[:1] = 0

    def test_a_match_leaves_the_list_unchanged(self, scene):
        skeleton, subdivided, k, pose, cfg = scene
        clean = render(skeleton, pose, k)
        rng = np.random.default_rng(37)
        estimates = [pose] + [perturbed(pose, rng, s, 2.0 * s * DEG) for s in (0.1, 0.5, 1.5)]
        for frame in (clean, with_nan_pixels(skeleton, pose, k, clean), half_frame(k)):
            pixels = frame.point_pixels_above(cfg.lambda_point)
            before = list_bytes(pixels)
            for estimate in estimates:
                assert match_frame_arrays(skeleton, subdivided, estimate, k, frame, cfg).n_points > 0
            assert frame.point_pixels_above(cfg.lambda_point) is pixels
            assert list_bytes(pixels) == before


def same_matches(a, b):
    pairs = [(getattr(a, name), getattr(b, name)) for name in MATCH_FIELDS]
    return all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in pairs)


def ulp_off(pose, attr):
    """`pose` with one component of t or q moved by 1 ulp; for q, the first
    component whose move survives Pose's renormalisation."""
    for i in range(4 if attr == "q" else 3):
        parts = {"t": pose.t.copy(), "q": pose.q.copy()}
        parts[attr][i] = np.nextafter(parts[attr][i], np.inf)
        moved = Pose(parts["t"], parts["q"])
        if getattr(moved, attr).tobytes() != getattr(pose, attr).tobytes():
            return moved
    raise AssertionError(f"no 1 ulp move of {attr} survives")


@pytest.fixture
def computed(monkeypatch):
    """(frame, result) of each matcher call the pose graph makes, in call order."""
    calls = []

    def spy(*args):
        m = match_frame_arrays(*args)
        calls.append((args[4], m))
        return m

    monkeypatch.setattr(posegraph, "match_frame_arrays", spy)
    return calls


def match_at(graph, *poses):
    """`graph._match` with the keyframes at `poses`."""
    return graph._match(np.array([p.t for p in poses]), np.array([p.q for p in poses]))


class TestMatchMemo:
    """Matches are kept in one place: `PoseGraph._match` keeps each
    keyframe's last match, keyed on its frame and the bytes of its pose.  The
    matcher keeps nothing, so each call to it computes."""

    def test_same_pose_returns_the_stored_object(self, scene, computed):
        skeleton, subdivided, k, pose, cfg = scene
        frame = render(skeleton, pose, k)
        graph = PoseGraph(skeleton, subdivided, k, match_cfg=cfg)
        graph.add_keyframe(pose, frame)
        first = match_at(graph, pose)
        # a distinct Pose with the same bytes is the same key
        twin = Pose(pose.t.copy(), pose.q.copy())
        assert twin is not pose and twin.t.tobytes() == pose.t.tobytes() and twin.q.tobytes() == pose.q.tobytes()
        second = match_at(graph, twin)
        assert [f for f, _ in computed] == [frame]
        assert graph.keyframes[0].last_match[1] is computed[0][1]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        # the matcher itself computes again
        fresh = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        assert fresh is not computed[0][1] and len(fresh) > 0 and same_matches(fresh, computed[0][1])

    @pytest.mark.parametrize("change", ["t", "q", "cfg", "subdivided", "skeleton", "camera"])
    def test_any_other_argument_computes_anew(self, scene, change):
        skeleton, subdivided, k, pose, cfg = scene
        frame = render(skeleton, pose, k)
        args = dict(skeleton=skeleton, subdivided=subdivided, pose_estimate=pose, k=k, frame=frame, cfg=cfg)
        first = match_frame_arrays(**args)
        if change in ("t", "q"):
            args["pose_estimate"] = ulp_off(pose, change)
        else:
            # an equal but distinct object
            name, value = {
                "cfg": ("cfg", MatchConfig()),
                "subdivided": ("subdivided", subdivide(skeleton, cfg.s_tower, cfg.s_hub, cfg.s_blade)),
                "skeleton": ("skeleton", TurbineSkeleton(skeleton.points)),
                "camera": ("k", dataclasses.replace(k)),
            }[change]
            assert value is not args[name]
            args[name] = value
        second = match_frame_arrays(**args)
        assert second is not first
        if change not in ("t", "q"):
            assert same_matches(first, second)
        # no call is served from an earlier one, and none assigns on the frame
        again = match_frame_arrays(**args)
        assert again is not second and same_matches(again, second)
        assert set(vars(frame)) == {"line_channels", "point_channels", "_point_pixels"}
        assert list(frame._point_pixels) == [cfg.lambda_point]

    def test_one_entry(self, scene, computed):
        skeleton, subdivided, k, pose, cfg = scene
        frame = render(skeleton, pose, k)
        graph = PoseGraph(skeleton, subdivided, k, match_cfg=cfg)
        graph.add_keyframe(pose, frame)
        # a 1 ulp move of t or of q is another key, and replaces the entry
        poses = [pose, ulp_off(pose, "t"), pose, ulp_off(pose, "q"), pose]
        for p in poses:
            match_at(graph, p)
        assert [f for f, _ in computed] == [frame] * 5
        a, again = computed[0][1], computed[-1][1]
        assert again is not a and same_matches(a, again)

    @pytest.mark.parametrize("change", ["match_cfg", "subdivided", "skeleton", "camera"])
    def test_a_reassigned_graph_attribute_matches_anew(self, scene, computed, change):
        # the graph's skeleton, subdivided model, camera and config are in
        # the key, the skeleton and subdivided model by identity, the camera
        # and config by value: after one is reassigned, every keyframe is
        # matched again, as a fresh graph with the new objects matches it
        skeleton, subdivided, k, _, cfg = scene
        poses = generate_orbit_trajectory(skeleton, 30.0, 4).poses
        graph = PoseGraph(skeleton, subdivided, k, match_cfg=cfg)
        for p in poses:
            graph.add_keyframe(p, render(skeleton, p, k))
        # estimates off the truth, so that the line search's grid shows
        t = np.array([p.t for p in poses]) + (0.2, -0.1, 0.1)
        q = np.array([p.q for p in poses])
        first = graph._match(t, q)
        assert len(computed) == 4
        value = {
            "match_cfg": MatchConfig(k_line=21),
            "subdivided": subdivide(skeleton, 4, 2, 5),
            "skeleton": TurbineSkeleton(skeleton.points),  # equal, but another object
            "camera": CameraIntrinsics(220.0, 220.0, k.cx, k.cy, k.width, k.height),
        }[change]
        setattr(graph, change, value)
        rows = graph._match(t, q)
        assert [f for f, _ in computed[4:]] == [kf.frame for kf in graph.keyframes]
        if change != "skeleton":
            assert [a.tobytes() for a in rows] != [a.tobytes() for a in first]
        # the next pass at the same estimates is served again
        graph._match(t, q)
        assert len(computed) == 8
        fresh = PoseGraph(graph.skeleton, graph.subdivided, graph.camera, match_cfg=graph.match_cfg)
        for kf in graph.keyframes:
            fresh.add_keyframe(kf.measured_pose, kf.frame)
        assert [a.tobytes() for a in rows] == [a.tobytes() for a in fresh._match(t, q)]

    @pytest.mark.parametrize("change, served", [("match_cfg", True), ("camera", True), ("subdivided", False)])
    def test_an_equal_graph_attribute(self, scene, computed, change, served):
        # an equal camera or config assigned to the graph is the same key, so
        # the next pass at the same estimates is served; an equal but
        # distinct subdivided model is another key
        skeleton, subdivided, k, _, cfg = scene
        poses = generate_orbit_trajectory(skeleton, 30.0, 4).poses
        graph = PoseGraph(skeleton, subdivided, k, match_cfg=cfg)
        for p in poses:
            graph.add_keyframe(p, render(skeleton, p, k))
        t = np.array([p.t for p in poses]) + (0.2, -0.1, 0.1)
        q = np.array([p.q for p in poses])
        first = graph._match(t, q)
        assert len(computed) == 4
        value = {
            "match_cfg": MatchConfig(),
            "camera": dataclasses.replace(graph.camera),
            "subdivided": subdivide(skeleton, cfg.s_tower, cfg.s_hub, cfg.s_blade),
        }[change]
        old = getattr(graph, change)
        assert value is not old
        assert all(np.array_equal(getattr(value, f.name), getattr(old, f.name)) for f in dataclasses.fields(value))
        setattr(graph, change, value)
        rows = graph._match(t, q)
        assert len(computed) == (4 if served else 8)
        assert [a.tobytes() for a in rows] == [a.tobytes() for a in first]

    def test_results_are_frozen(self, scene):
        skeleton, subdivided, k, pose, cfg = scene
        m = match_frame_arrays(skeleton, subdivided, pose, k, render(skeleton, pose, k), cfg)
        for name in MATCH_FIELDS:
            with pytest.raises(ValueError):
                getattr(m, name)[:1] = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, getattr(m, name).copy())


def pose_stage_batch(skeleton):
    """Poses (t rows, raw q rows) that cover the pose stage's branches in one
    batch: a line end behind the camera (so the whole batch takes the clip
    path), orbit views whose parallel guard fires beside views whose guard
    does not, and a view with no skeleton point in it.  The quaternions are
    scaled off unit length and some negated, as raw rows may come."""
    orbit = generate_orbit_trajectory(skeleton, 30.0, 12).poses
    poses = [
        look_at_pose(np.array([3.0, 0.0, 8.0]), np.zeros(3)),  # the tower top behind the camera
        orbit[0],
        orbit[2],  # guarded
        orbit[1],
        look_at_pose(np.array([0.0, -30.0, 5.0]), np.array([0.0, -60.0, 5.0])),  # facing away
        orbit[8],  # guarded
    ]
    rng = np.random.default_rng(41)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, len(poses)) * np.where(np.arange(len(poses)) % 2, -1.0, 1.0)
    return np.array([p.t for p in poses]), np.array([p.q for p in poses]) * scale[:, None]


def pose_rows(view, i):
    """(dtype, shape, bytes) of pose i's rows of each array of a view."""
    p, s = slice(*view.p_start[i : i + 2]), slice(*view.s_start[i : i + 2])
    rows = [a[p] for a in (view.p_points, view.p_cls, view.p_uv, view.p_box, view.p_ends)]
    rows += [a[s] for a in (view.s_points, view.s_cls, view.s_uv, view.s_perp, view.on_raster)]
    rows += [view.corners[:, s], view.weights[:, s]]
    return [(a.dtype, a.shape, a.tobytes()) for a in rows]


class TestPoseStage:
    """`project_model` projects many poses in one array pass; each pose of the
    view it returns matches a frame exactly as a `Pose` would, to the bit."""

    def test_batch_equals_one_pose_at_a_time(self, scene, monkeypatch):
        skeleton, subdivided, k, _, cfg = scene
        t, q = pose_stage_batch(skeleton)
        n = t.shape[0]
        guarded = []
        distances = matching._segment_distances

        def spy(points, a, b):
            guarded.append(points.shape[:-2])
            return distances(points, a, b)

        monkeypatch.setattr(matching, "_segment_distances", spy)
        # the pose stage takes unit rows, as `quat_normalize` gives them
        with pytest.raises(ValueError):
            project_model(skeleton, subdivided, t, q, k, cfg)
        assert guarded == []
        view = project_model(skeleton, subdivided, t, quat_normalize(q), k, cfg)
        # the guard's distances only for the guarded poses, in one call
        assert guarded == [(2,)]
        depth = world_to_camera(Pose(t[0], q[0]), skeleton.points)[:, 2]
        assert depth.min() <= EPS_DEPTH < depth.max()
        assert isinstance(view, ProjectedModel) and len(view.p_start) == len(view.s_start) == n + 1
        assert view.p_start[4] == view.p_start[5]  # no skeleton point in view
        assert view.source == (skeleton, subdivided, k, cfg)
        assert all(not a.flags.writeable for a in view if isinstance(a, np.ndarray))
        for i in range(n):
            pose = Pose(t[i], q[i])
            single = project_model(skeleton, subdivided, pose.t[None], pose.q[None], k, cfg)
            assert pose_rows(view, i) == pose_rows(single, 0)
            # the view projects pose i's points as `Pose(t[i], q[i])` does, to the bit
            p, s = slice(*view.p_start[i : i + 2]), slice(*view.s_start[i : i + 2])
            for points, uv in ((view.p_points[p], view.p_uv[p]), (view.s_points[s], view.s_uv[s])):
                assert pinhole(k, world_to_camera(pose, points)).tobytes() == uv.tobytes()

        # one frame of each kind, and each pose's own view rendered from near it
        clean = render(skeleton, generate_orbit_trajectory(skeleton, 30.0, 12).poses[1], k)
        frames = [
            clean,
            degrade_measurements([clean], 0.1, 5.0, seed=7)[0],
            blank_frame(k.width, k.height),
            with_nan_pixels(skeleton, generate_orbit_trajectory(skeleton, 30.0, 12).poses[1], k, clean),
        ]
        rng = np.random.default_rng(43)
        found = 0
        for i in range(n):
            pose = Pose(t[i], q[i])
            own = render(skeleton, perturbed(pose, rng, 0.2, 1.0 * DEG), k)
            for frame in frames + [own, degrade_measurements([own], 0.1, 5.0, seed=i)[0]]:
                got = match_frame_arrays(skeleton, subdivided, (view, i), k, frame, cfg)
                want = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
                assert same_matches(got, want)
                for name in MATCH_FIELDS:
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                assert same_matches(got, reference_match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg))
                found += len(got)
        assert found > 0

    def test_match_keys_equal_pose_normalisation(self, scene, computed, monkeypatch):
        # the row bytes that `_match` keys on, and the rows it projects, are
        # those of `Pose(t[i], q[i])`, normalised once
        skeleton, subdivided, k, pose, cfg = scene
        projected, normalised = [], []
        project = posegraph.project_model

        def counted_project(skeleton, subdivided, t, q, k, cfg):
            projected.append(project(skeleton, subdivided, t, q, k, cfg))
            return projected[-1]

        def counted_normalise(q):
            normalised.append(len(q))
            return quat_normalize(q)

        monkeypatch.setattr(posegraph, "project_model", counted_project)
        for module in (matching, posegraph):
            if hasattr(module, "quat_normalize"):
                monkeypatch.setattr(module, "quat_normalize", counted_normalise)
        rng = np.random.default_rng(47)
        n = 400
        t = rng.normal(0.0, 30.0, (n, 3))
        q = rng.normal(0.0, 1.0, (n, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
        q[: n // 2, 0] = -np.abs(q[: n // 2, 0])
        graph = PoseGraph(skeleton, subdivided, k, match_cfg=cfg)
        frame = blank_frame(k.width, k.height)
        for _ in range(n):
            graph.add_keyframe(pose, frame)
        graph._match(t, q)
        assert len(computed) == n and len(projected) == 1
        # one normalisation, over every row
        assert normalised == [n]
        for i, kf in enumerate(graph.keyframes):
            want = Pose(t[i], q[i])
            assert kf.last_match[0][1:3] == (want.t.tobytes(), want.q.tobytes())
            single = project_model(skeleton, subdivided, want.t[None], want.q[None], k, cfg)
            assert pose_rows(projected[0], i) == pose_rows(single, 0)

    @pytest.mark.parametrize("row", [[2.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.6, 0.8, 0.0, np.nan]])
    def test_rejects_a_row_that_is_not_normalised(self, scene, row):
        # too long, the other hemisphere, NaN: `project_model` does not
        # normalise, so it rejects what `quat_normalize` would have changed
        skeleton, subdivided, k, pose, cfg = scene
        t = np.array([pose.t, pose.t])
        with pytest.raises(ValueError):
            project_model(skeleton, subdivided, t, np.array([pose.q, row]), k, cfg)
        if np.isfinite(row).all():
            view = project_model(skeleton, subdivided, t, quat_normalize(np.array([pose.q, row])), k, cfg)
            assert len(view.p_start) == 3

    @pytest.fixture
    def projections(self, monkeypatch):
        """Rows (t bytes) of each `project_model` call and the number of
        `project_skeleton` calls in matching, as they happen."""
        rows, projected = [], [0]
        project, project_skeleton = matching.project_model, matching.project_skeleton

        def counted_project(skeleton, subdivided, t, q, k, cfg):
            rows.append(t.tobytes())
            return project(skeleton, subdivided, t, q, k, cfg)

        def counted_project_skeleton(*args):
            projected[0] += 1
            return project_skeleton(*args)

        for module in (matching, posegraph):
            monkeypatch.setattr(module, "project_model", counted_project)
        monkeypatch.setattr(matching, "project_skeleton", counted_project_skeleton)
        return rows, projected

    def test_one_projection_per_pass(self, scene, computed, projections):
        skeleton, subdivided, k, _, cfg = scene
        rows, projected = projections
        poses = generate_orbit_trajectory(skeleton, 30.0, 4).poses
        graph = PoseGraph(skeleton, subdivided, k, match_cfg=cfg)
        for p in poses:
            graph.add_keyframe(p, render(skeleton, p, k))
        t, q = np.array([p.t for p in poses]), np.array([p.q for p in poses])
        graph._match(t, q)
        assert rows == [t.tobytes()] and projected[0] == 1 and len(computed) == 4
        graph._match(t, q)  # served in full by the hand-over
        assert rows == [t.tobytes()] and projected[0] == 1 and len(computed) == 4
        moved = t.copy()
        moved[[1, 3], 0] = np.nextafter(moved[[1, 3], 0], np.inf)
        graph._match(moved, q)
        assert rows == [t.tobytes(), moved[[1, 3]].tobytes()] and projected[0] == 2
        assert [f for f, _ in computed[4:]] == [graph.keyframes[1].frame, graph.keyframes[3].frame]

    def test_one_projection_per_pass_of_a_flight(self, scene, computed, projections, monkeypatch):
        skeleton, subdivided, k, _, cfg = scene
        rows, projected = projections
        passes = []  # (keyframes, matcher calls, project_skeleton calls) per pass
        match = PoseGraph._match

        def per_pass(self, t, q):
            before = len(computed), projected[0]
            out = match(self, t, q)
            passes.append((len(t), len(computed) - before[0], projected[0] - before[1]))
            return out

        monkeypatch.setattr(PoseGraph, "_match", per_pass)
        truth = generate_orbit_trajectory(skeleton, 30.0, 4)
        noisy = inject_noise(truth, NoiseSpec(0.08, 6.0 * DEG, seed=123))
        graph = PoseGraph(skeleton, subdivided, k, match_cfg=cfg)
        for true_pose, noisy_pose in zip(truth.poses, noisy.poses):
            graph.add_keyframe(noisy_pose, render(skeleton, true_pose, k))
            graph.optimize()
        # one projection in each pass that computes a match, over its missed rows
        assert [w for _, c, w in passes] == [int(c > 0) for _, c, _ in passes]
        assert [len(r) // 24 for r in rows] == [c for _, c, _ in passes if c]
        assert sum(n for n, _, _ in passes) > len(computed) > len(passes) > 1

    @pytest.mark.parametrize("change", ["skeleton", "subdivided", "camera", "cfg", "frame"])
    def test_a_view_for_other_arguments_raises(self, scene, change):
        skeleton, subdivided, k, pose, cfg = scene
        view = project_model(skeleton, subdivided, pose.t[None], pose.q[None], k, cfg)
        frame = render(skeleton, pose, k)
        args = dict(skeleton=skeleton, subdivided=subdivided, pose_estimate=(view, 0), k=k, frame=frame, cfg=cfg)
        assert len(match_frame_arrays(**args)) > 0
        # an equal but distinct skeleton or subdivided model, a camera or
        # config of other values, or a frame of another size
        name, value = {
            "skeleton": ("skeleton", TurbineSkeleton(skeleton.points)),
            "subdivided": ("subdivided", subdivide(skeleton, cfg.s_tower, cfg.s_hub, cfg.s_blade)),
            "camera": ("k", dataclasses.replace(k, fx=k.fx + 1.0)),
            "cfg": ("cfg", MatchConfig(k_line=21)),
            "frame": ("frame", blank_frame(k.width + 1, k.height)),
        }[change]
        args[name] = value
        with pytest.raises(ValueError):
            match_frame_arrays(**args)

    @pytest.mark.parametrize("change", ["camera", "cfg"])
    def test_a_view_for_an_equal_camera_or_config_matches_to_the_bit(self, scene, change):
        # the camera and config compare by value: a match depends only on
        # their values, so an equal one is accepted and changes no bit
        skeleton, subdivided, k, pose, cfg = scene
        view = project_model(skeleton, subdivided, pose.t[None], pose.q[None], k, cfg)
        rng = np.random.default_rng(53)
        frame = degrade_measurements([render(skeleton, perturbed(pose, rng, 0.2, 1.0 * DEG), k)], 0.1, 5.0, seed=3)[0]
        args = dict(skeleton=skeleton, subdivided=subdivided, pose_estimate=(view, 0), k=k, frame=frame, cfg=cfg)
        want = match_frame_arrays(**args)
        name, value = {"camera": ("k", dataclasses.replace(k)), "cfg": ("cfg", MatchConfig())}[change]
        assert value is not args[name] and value == args[name]
        args[name] = value
        got = match_frame_arrays(**args)
        assert want.n_points > 0 and want.n_lines > 0
        for name in MATCH_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("index", [-1, -2, 3, True, False, 1.0, np.float64(0.0), None])
    def test_an_index_outside_the_view_raises(self, scene, index):
        # a negative index would slice another pose's rows or none, a bool
        # would act as 0 or 1, and a float would fail inside the slicing
        skeleton, subdivided, k, pose, cfg = scene
        poses = generate_orbit_trajectory(skeleton, 30.0, 12).poses[:3]
        t, q = np.array([p.t for p in poses]), np.array([p.q for p in poses])
        view = project_model(skeleton, subdivided, t, q, k, cfg)
        frame = render(skeleton, poses[2], k)
        for i in (0, 2, np.int64(2)):
            want = match_frame_arrays(skeleton, subdivided, poses[int(i)], k, frame, cfg)
            assert same_matches(match_frame_arrays(skeleton, subdivided, (view, i), k, frame, cfg), want)
        with pytest.raises(ValueError):
            match_frame_arrays(skeleton, subdivided, (view, index), k, frame, cfg)

    def test_no_poses_give_an_empty_view(self, scene):
        skeleton, subdivided, k, _, cfg = scene
        view = project_model(skeleton, subdivided, np.zeros((0, 3)), np.zeros((0, 4)), k, cfg)
        assert view.p_start == view.s_start == (0,)
        assert all(a.size == 0 for a in view if isinstance(a, np.ndarray))
        with pytest.raises(ValueError):
            match_frame_arrays(skeleton, subdivided, (view, 0), k, blank_frame(k.width, k.height), cfg)


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
            dict(s_tower=10.5),
            dict(k_line=41.0),
            dict(s_blade=8.0),
            dict(s_hub=np.float64(3.0)),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            MatchConfig(**kwargs)

    def test_accepts_numpy_integers(self, scene):
        skeleton, subdivided, k, pose, _ = scene
        cfg = MatchConfig(k_line=np.int64(41), s_tower=np.int32(10), s_hub=np.uint8(3), s_blade=np.int16(8))
        frame = render(skeleton, pose, k)
        want = match_frame_arrays(skeleton, subdivided, pose, k, frame, MatchConfig())
        got = match_frame_arrays(skeleton, subdivided, pose, k, frame, cfg)
        assert np.array_equal(got.matched, want.matched)
