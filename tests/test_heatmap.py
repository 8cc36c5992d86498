import math
import struct

import numpy as np
import pytest

from oracles import blank_frame, is_blank
from turbloc.geometry import CameraIntrinsics, in_view, look_at_pose, pinhole, world_to_camera
from turbloc.heatmap import (
    FrameFormatError,
    HeatmapFrame,
    MEASUREMENT_SIGMA,
    read_frame,
    render,
    write_frame,
)
from turbloc.simulation import generate_orbit_trajectory
from turbloc.turbine import POINT_CLASSES, LineClass, PointClass, TurbineParams, build_skeleton

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


def face_on_pose(skeleton, distance=30.0):
    centre = skeleton.point("blade_centre")
    return look_at_pose(centre + np.array([distance, 0.0, 0.0]), centre)


def bilinear(channel, x, y):
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    fx, fy = x - x0, y - y0
    c = channel.astype(float)
    return (
        c[y0, x0] * (1 - fx) * (1 - fy)
        + c[y0, x0 + 1] * fx * (1 - fy)
        + c[y0 + 1, x0] * (1 - fx) * fy
        + c[y0 + 1, x0 + 1] * fx * fy
    )


class TestRender:
    def test_point_peak_and_decay(self, skeleton):
        # cx=cy=128 puts the blade centre exactly on an integer pixel
        k = CameraIntrinsics(200.0, 200.0, 128.0, 128.0, 256, 256)
        frame = render(skeleton, face_on_pose(skeleton), k, sigma=5.0)
        ch = frame.point_channels[int(PointClass.BLADE_CENTRE)]
        assert ch[128, 128] == 1.0
        sigma = 5.0
        for dx, dy in [(1, 0), (0, 2), (3, 4), (-7, 5)]:
            expected = math.exp(-(dx * dx + dy * dy) / (2 * sigma * sigma))
            assert abs(float(ch[128 + dy, 128 + dx]) - expected) < 1e-6

    def test_looking_away_all_zero(self, skeleton):
        k = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
        centre = skeleton.point("blade_centre")
        eye = centre + np.array([30.0, 0.0, 0.0])
        away = look_at_pose(eye, eye + np.array([30.0, 0.0, 0.0]))
        frame = render(skeleton, away, k)
        assert is_blank(frame)

    def test_nonempty_channels_peak_exactly_one(self, skeleton):
        k = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
        frame = render(skeleton, face_on_pose(skeleton), k)
        for stack in (frame.line_channels, frame.point_channels):
            for channel in stack:
                assert channel.max() == np.float32(1.0)
                assert channel.min() >= 0.0

    def test_line_cross_section_gaussian(self, skeleton):
        # direct evaluation oracle: perpendicular profile of the tower ridge
        k = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
        pose = face_on_pose(skeleton)
        sigma = 5.0
        frame = render(skeleton, pose, k, sigma=sigma)
        tower = frame.line_channels[int(LineClass.TOWER)]
        base, top = pinhole(k, world_to_camera(pose, skeleton.points[:2]))
        direction = (top - base) / np.linalg.norm(top - base)
        perp = np.array([-direction[1], direction[0]])
        for f in (0.3, 0.5, 0.7):  # interior of the segment
            centre = base + f * (top - base)
            for s in np.linspace(-2.5 * sigma, 2.5 * sigma, 21):
                x, y = centre + s * perp
                expected = math.exp(-(s * s) / (2 * sigma * sigma))
                assert abs(bilinear(tower, x, y) - expected) < 0.02

    def test_deterministic(self, skeleton):
        k = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
        pose = face_on_pose(skeleton)
        a, b = render(skeleton, pose, k), render(skeleton, pose, k)
        assert np.array_equal(a.line_channels, b.line_channels)
        assert np.array_equal(a.point_channels, b.point_channels)

    def test_principal_point_shift_equivariance(self, skeleton):
        pose = face_on_pose(skeleton)
        k1 = CameraIntrinsics(200.0, 200.0, 124.0, 127.0, 256, 256)
        k2 = CameraIntrinsics(200.0, 200.0, 134.0, 122.0, 256, 256)
        f1 = render(skeleton, pose, k1)
        f2 = render(skeleton, pose, k2)  # pattern shifted by (+10, -5)
        for s1, s2 in [(f1.line_channels, f2.line_channels), (f1.point_channels, f2.point_channels)]:
            assert np.array_equal(s1[:, 40:200, 40:200], s2[:, 35:195, 50:210])

    def test_point_argmax_at_rounded_projection(self, skeleton):
        k = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
        rng = np.random.default_rng(4)
        centre = skeleton.point("blade_centre")
        for _ in range(20):
            eye = centre + np.array([28.0, 0.0, 0.0]) + rng.normal(0, 2.0, 3)
            pose = look_at_pose(eye, centre + rng.normal(0, 0.5, 3))
            frame = render(skeleton, pose, k)
            ch = frame.point_channels[int(PointClass.TOWER_BASE)]
            uv = pinhole(k, world_to_camera(pose, skeleton.point("tower_base")))
            if not in_view(k, uv) or not ch.any():
                continue
            peak = np.unravel_index(np.argmax(ch), ch.shape)
            assert peak[1] == int(np.rint(uv[0]))
            assert peak[0] == int(np.rint(uv[1]))

    def test_rejects_nonpositive_sigma(self, skeleton):
        k = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
        with pytest.raises(ValueError):
            render(skeleton, face_on_pose(skeleton), k, sigma=0.0)

    # 3 sigma below sqrt(0.5) px, the farthest a feature's nearest pixel lies
    @pytest.mark.parametrize("sigma", [1e-200, 1e-160, 1e-3, 0.2357])
    def test_rejects_sigma_too_small_for_the_nearest_pixel(self, skeleton, sigma):
        k = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
        with pytest.raises(ValueError, match="sigma"):
            render(skeleton, face_on_pose(skeleton), k, sigma=sigma)

    def test_smallest_sigma_peaks_every_point_at_one(self, skeleton):
        k = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
        sigma = 0.2358  # just above sqrt(0.5) / 3
        for pose in generate_orbit_trajectory(skeleton, 30.0, 6).poses:
            frame = render(skeleton, pose, k, sigma=sigma)
            uv = pinhole(k, world_to_camera(pose, skeleton.points))
            seen = in_view(k, uv)
            assert seen.sum() >= 4
            x, y = np.rint(uv[seen]).astype(int).T
            assert (frame.point_channels[POINT_CLASSES[seen], y, x] == 1.0).all()

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_nonfinite_sigma(self, skeleton, sigma):
        k = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
        with pytest.raises(ValueError, match="sigma"):
            render(skeleton, face_on_pose(skeleton), k, sigma=sigma)

    def test_wide_sigma_spreads_mass(self, skeleton):
        k = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
        pose = face_on_pose(skeleton)
        assert MEASUREMENT_SIGMA == 5.0
        wide = render(skeleton, pose, k, sigma=20.0)
        narrow = render(skeleton, pose, k)
        # wider smoothing spreads mass: more nonzero pixels than the sigma=5 frame
        for stack in ("line_channels", "point_channels"):
            assert (getattr(wide, stack)[0] > 0).sum() > (getattr(narrow, stack)[0] > 0).sum()

    def test_partially_behind_camera_segment_clipped(self, skeleton):
        # camera between base and top heights, looking horizontally with the
        # tower slightly behind: the frame must render without blowing up
        k = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
        eye = np.array([0.5, 0.0, 5.0])
        pose = look_at_pose(eye, np.array([30.0, 0.0, 5.0]))
        frame = render(skeleton, pose, k)
        assert np.all(np.isfinite(frame.line_channels))
        assert np.all(frame.line_channels <= 1.0)


class TestFrameIO:
    def test_round_trip_bit_exact(self, skeleton, tmp_path):
        k = CameraIntrinsics(200.0, 200.0, 127.5, 127.5, 256, 256)
        frame = render(skeleton, face_on_pose(skeleton), k)
        path = tmp_path / "frame.tmbt"
        write_frame(frame, path)
        back = read_frame(path)
        assert np.array_equal(back.line_channels, frame.line_channels)
        assert np.array_equal(back.point_channels, frame.point_channels)
        assert back.line_channels.dtype == np.float32

    def test_empty_file_header_error(self, tmp_path):
        path = tmp_path / "empty.tmbt"
        path.write_bytes(b"")
        with pytest.raises(FrameFormatError, match="too short for a frame header"):
            read_frame(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tmbt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FrameFormatError, match="bad magic bytes b'NOPE'"):
            read_frame(path)

    def test_wrong_channel_count(self, tmp_path):
        path = tmp_path / "nine.tmbt"
        header = struct.pack("<4sIIII", b"TMBT", 1, 4, 4, 9)
        path.write_bytes(header + b"\x00" * (9 * 4 * 4 * 4))
        with pytest.raises(FrameFormatError, match="expected 7 channels, header says 9"):
            read_frame(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.tmbt"
        header = struct.pack("<4sIIII", b"TMBT", 1, 8, 8, 7)
        path.write_bytes(header + b"\x00" * 100)
        with pytest.raises(FrameFormatError, match="payload is 100 bytes, the header promises 1792"):
            read_frame(path)

    @pytest.mark.parametrize("width, height", [(0, 0), (0, 5), (3, 0)])
    def test_empty_image(self, tmp_path, width, height):
        path = tmp_path / "empty.tmbt"
        path.write_bytes(struct.pack("<4sIIII", b"TMBT", 1, width, height, 7))
        with pytest.raises(FrameFormatError, match=f"empty {width}x{height} image"):
            read_frame(path)

    @pytest.mark.parametrize("height, width", [(0, 0), (5, 0), (0, 3)])
    def test_empty_frame_rejected(self, height, width):
        with pytest.raises(ValueError):
            HeatmapFrame(np.zeros((3, height, width), np.float32), np.zeros((4, height, width), np.float32))

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.tmbt"
        header = struct.pack("<4sIIII", b"TMBT", 1, 8, 8, 7)
        path.write_bytes(header + b"\x00" * (7 * 8 * 8 * 4 + 1))
        with pytest.raises(FrameFormatError, match="payload is 1793 bytes, the header promises 1792"):
            read_frame(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v2.tmbt"
        path.write_bytes(struct.pack("<4sIIII", b"TMBT", 2, 4, 4, 7) + b"\x00" * (7 * 64))
        with pytest.raises(FrameFormatError, match="unsupported format version 2"):
            read_frame(path)


class TestFrameType:
    def test_zeros_and_blank(self):
        frame = blank_frame(16, 12)
        assert frame.width == 16 and frame.height == 12
        assert is_blank(frame)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            HeatmapFrame(np.zeros((2, 4, 4), np.float32), np.zeros((4, 4, 4), np.float32))
        with pytest.raises(ValueError):
            HeatmapFrame(np.zeros((3, 4, 4), np.float32), np.zeros((4, 5, 4), np.float32))
