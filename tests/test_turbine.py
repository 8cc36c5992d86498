import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turbloc.turbine import (
    LINES,
    LineClass,
    PointClass,
    POINT_CLASSES,
    SubdividedModel,
    TurbineParams,
    build_skeleton,
    subdivide,
)

DEG = math.pi / 180.0


def make_params(**overrides):
    kwargs = dict(
        base_position=np.zeros(3),
        heading=0.0,
        tower_height=10.0,
        hub_offset=1.0,
        blade_length=5.0,
        blade_azimuths=np.array([90.0, 210.0, 330.0]) * DEG,
    )
    kwargs.update(overrides)
    return TurbineParams(**kwargs)


class TestBuildSkeleton:
    def test_counts(self):
        sk = build_skeleton(make_params())
        assert sk.points.shape == (6, 3)
        assert LINES.shape == (5, 3) and LINES.dtype == np.int64

    def test_hand_trigonometry(self):
        sk = build_skeleton(make_params())
        assert np.allclose(sk.point("tower_base"), [0, 0, 0])
        assert np.allclose(sk.point("tower_top"), [0, 0, 10.0])
        assert np.allclose(sk.point("blade_centre"), [1.0, 0, 10.0])
        # azimuth 90 deg: tip straight above the blade centre
        assert np.allclose(sk.point("blade_tip_0"), [1.0, 0.0, 15.0], atol=1e-12)
        # 210 / 330 deg: half a blade below, sqrt(3)/2 sideways
        s3 = 5.0 * math.sqrt(3.0) / 2.0
        assert np.allclose(sk.point("blade_tip_1"), [1.0, -s3, 7.5], atol=1e-12)
        assert np.allclose(sk.point("blade_tip_2"), [1.0, s3, 7.5], atol=1e-12)

    def test_blade_lengths(self):
        sk = build_skeleton(make_params(heading=0.7, hub_offset=2.0))
        centre = sk.point("blade_centre")
        for label in ("blade_tip_0", "blade_tip_1", "blade_tip_2"):
            assert np.isclose(np.linalg.norm(sk.point(label) - centre), 5.0)

    def test_line_topology(self):
        assert LINES[:, 2].tolist() == [LineClass.TOWER, LineClass.HUB] + [LineClass.BLADE] * 3
        # tower base to top, top to blade centre, blade centre to each tip
        assert LINES[:, :2].tolist() == [[0, 1], [1, 2], [2, 3], [2, 4], [2, 5]]

    def test_point_classes(self):
        assert POINT_CLASSES.dtype == np.int64
        assert POINT_CLASSES.tolist() == [
            PointClass.TOWER_BASE,
            PointClass.TOWER_TOP,
            PointClass.BLADE_CENTRE,
        ] + [PointClass.BLADE_TIP] * 3

    @pytest.mark.parametrize("table", [LINES, POINT_CLASSES])
    def test_topology_is_read_only(self, table):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tower_height", 0.0),
            ("blade_length", 0.0),
            ("blade_length", -1.0),
            ("hub_offset", -0.5),
            ("tower_height", math.nan),
            ("tower_height", math.inf),
            ("blade_length", math.inf),
            ("hub_offset", math.nan),
            ("hub_offset", math.inf),
            ("heading", math.nan),
            ("heading", math.inf),
            ("base_position", np.array([0.0, math.nan, 0.0])),
            ("base_position", np.array([0.0, 0.0, -math.inf])),
            ("blade_azimuths", np.array([0.0, math.nan, 2.0])),
        ],
    )
    def test_rejects_bad_params(self, field, value):
        with pytest.raises(ValueError):
            make_params(**{field: value})

    def test_rejects_duplicate_azimuths(self):
        with pytest.raises(ValueError):
            make_params(blade_azimuths=np.array([0.0, 0.0, 2.0]))
        with pytest.raises(ValueError):
            # distinct only modulo 2*pi
            make_params(blade_azimuths=np.array([0.0, 2.0 * math.pi, 2.0]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_translation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        shift = 50.0 * rng.standard_normal(3)
        base = build_skeleton(make_params())
        moved = build_skeleton(make_params(base_position=shift))
        assert np.allclose(moved.points, base.points + shift, atol=1e-9)

    @given(st.floats(-math.pi, math.pi))
    @settings(max_examples=50, deadline=None)
    def test_heading_rotates_about_tower_axis(self, heading):
        sk = build_skeleton(make_params(heading=heading))
        c, s = math.cos(heading), math.sin(heading)
        rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        ref = build_skeleton(make_params())
        assert np.allclose(sk.points, ref.points @ rz.T, atol=1e-9)


class TestSubdivide:
    def test_uniform_tower_samples(self):
        sk = build_skeleton(make_params())
        sub = subdivide(sk, 3, 2, 2)
        tower = sub.points[LINES[sub.line_ids, 2] == int(LineClass.TOWER)]
        assert np.allclose(tower[:, 2], [0.0, 5.0, 10.0])

    def test_counts(self):
        sk = build_skeleton(make_params())
        sub = subdivide(sk, 5, 3, 10)
        assert len(sub.points) == 5 + 3 + 30

    def test_blade_sample_spacing(self):
        # linear-interpolation oracle: k/(s-1) * blade_length from the centre
        sk = build_skeleton(make_params())
        s_b = 7
        sub = subdivide(sk, 2, 2, s_b)
        centre = sk.point("blade_centre")
        for line_id in (2, 3, 4):
            samples = sub.points[sub.line_ids == line_id]
            d = np.linalg.norm(samples - centre, axis=1)
            assert np.allclose(d, np.arange(s_b) / (s_b - 1) * 5.0, atol=1e-9)

    def test_endpoints_included(self):
        sk = build_skeleton(make_params())
        sub = subdivide(sk, 4, 3, 5)
        for line_id, (start, end, _) in enumerate(LINES):
            a, b = sk.points[start], sk.points[end]
            samples = sub.points[sub.line_ids == line_id]
            assert np.allclose(samples[0], a)
            assert np.allclose(samples[-1], b)

    @pytest.mark.parametrize("counts", [(1, 3, 3), (3, 1, 3), (3, 3, 0)])
    def test_rejects_small_counts(self, counts):
        sk = build_skeleton(make_params())
        with pytest.raises(ValueError):
            subdivide(sk, *counts)

    @pytest.mark.parametrize("counts", [(2.5, 3, 3), (3, 3.0, 3), (3, 3, True), (3, 3, "3")])
    def test_rejects_non_integer_counts(self, counts):
        sk = build_skeleton(make_params())
        with pytest.raises(ValueError, match="must be an integer"):
            subdivide(sk, *counts)


class TestSubdividedModel:
    """A model checks and freezes its inputs, as the skeleton does."""

    def test_read_only_copies(self):
        sub = subdivide(build_skeleton(make_params()), 3, 2, 2)
        points, ids = sub.points.copy(), sub.line_ids.copy()
        model = SubdividedModel(points, ids)
        points[0, 0] = ids[0] = 4
        assert np.array_equal(model.points, sub.points) and np.array_equal(model.line_ids, sub.line_ids)
        for array in (model.points, model.line_ids):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_ids_become_int64(self):
        model = SubdividedModel(np.zeros((3, 3)), np.array([0, 4, 2], dtype=np.uint8))
        assert model.line_ids.dtype == np.int64 and model.line_ids.tolist() == [0, 4, 2]

    @pytest.mark.parametrize(
        "points, line_ids",
        [
            (np.zeros((3, 3)), np.array([0, 9, 1.5])),  # non-integer and out of range
            (np.zeros((3, 3)), np.array([0.0, 1.0, 2.0])),  # integer values of a float array
            (np.zeros((3, 3)), np.array([0, 5, 1])),  # one past the last line
            (np.zeros((3, 3)), np.array([0, -1, 1])),
            (np.zeros((3, 3)), np.array([True, False, True])),
            (np.zeros((3, 3)), np.array([0, 1])),  # one id short
            (np.zeros((3, 3)), np.zeros((3, 1), dtype=np.int64)),
            (np.zeros((3, 2)), np.array([0, 1, 2])),
            (np.zeros(3), np.array([0])),
            (np.array([[0.0, 0.0, np.nan]]), np.array([0])),
            (np.array([[0.0, np.inf, 0.0]]), np.array([0])),
        ],
    )
    def test_rejects(self, points, line_ids):
        with pytest.raises(ValueError):
            SubdividedModel(points, line_ids)
