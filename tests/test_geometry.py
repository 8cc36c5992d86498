import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from turbloc.geometry import (
    EPS_DEPTH,
    CameraIntrinsics,
    Pose,
    compose,
    compose_rows,
    geodesic_angle,
    in_view,
    pinhole,
    quat_angle,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quaternion_boxplus,
    relative_pose,
    relative_rows,
    world_to_camera,
)
from turbloc.posegraph import GraphWeights, _relative_forward


def random_pose(rng, scale=10.0):
    q = rng.standard_normal(4)
    return Pose(scale * rng.standard_normal(3), q / np.linalg.norm(q))


def homogeneous(pose):
    # independent oracle: scipy rotation + explicit 4x4 assembly
    m = np.eye(4)
    w, x, y, z = pose.q
    m[:3, :3] = Rotation.from_quat([x, y, z, w]).as_matrix()
    m[:3, 3] = pose.t
    return m


def pose_close(a, b, tol=1e-9):
    return np.linalg.norm(a.t - b.t) < tol and geodesic_angle(a.q, b.q) < tol


class TestQuaternions:
    def test_normalize_canonical_sign(self):
        q = quat_normalize([-2.0, 0.0, 0.0, 2.0])
        assert q[0] >= 0.0
        assert np.isclose(np.linalg.norm(q), 1.0)

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            quat_normalize([0.0, 0.0, 0.0, 0.0])

    def test_multiply_matches_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = quat_normalize(rng.standard_normal(4))
            b = quat_normalize(rng.standard_normal(4))
            ours = quat_multiply(a, b)
            ra = Rotation.from_quat([a[1], a[2], a[3], a[0]])
            rb = Rotation.from_quat([b[1], b[2], b[3], b[0]])
            ref = (ra * rb).as_quat()  # xyzw
            ref = np.array([ref[3], ref[0], ref[1], ref[2]])
            assert min(np.linalg.norm(ours - ref), np.linalg.norm(ours + ref)) < 1e-12

    def test_boxplus_zero_delta(self):
        rng = np.random.default_rng(3)
        q = quat_normalize(rng.standard_normal(4))
        assert np.allclose(quaternion_boxplus(q, np.zeros(3)), q, atol=1e-15)

    def test_boxplus_axis_angle(self):
        q = quaternion_boxplus(np.array([1.0, 0, 0, 0]), np.array([np.pi / 2, 0, 0]))
        expected = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0, 0.0])
        assert np.allclose(q, expected, atol=1e-12)

    def test_boxplus_geodesic_angle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            q = quat_normalize(rng.standard_normal(4))
            delta = 0.5 * rng.standard_normal(3)
            q2 = quaternion_boxplus(q, delta)
            assert abs(geodesic_angle(q, q2) - np.linalg.norm(delta)) < 1e-9


def cross_quat_multiply(a, b):
    # the np.cross / np.sum form the component formulas replaced
    aw, av = a[..., 0], a[..., 1:]
    bw, bv = b[..., 0], b[..., 1:]
    w = aw * bw - np.sum(av * bv, axis=-1)
    v = aw[..., None] * bv + bw[..., None] * av + np.cross(av, bv)
    return np.concatenate([w[..., None], v], axis=-1)


def cross_quat_rotate(q, v):
    w, u = q[..., 0:1], q[..., 1:]
    t = 2.0 * np.cross(u, v)
    return v + w * t + np.cross(u, t)


class TestQuaternionFormulasBitwise:
    """The explicit component formulas equal the np.cross forms to the bit."""

    @pytest.mark.parametrize("shapes", [((4,), (4,)), ((500, 4), (500, 4)), ((4,), (500, 4)), ((7, 1, 4), (1, 9, 4))])
    def test_multiply(self, shapes):
        rng = np.random.default_rng(31)
        a, b = rng.standard_normal(shapes[0]), rng.standard_normal(shapes[1])
        got = quat_multiply(a, b)
        want = cross_quat_multiply(a, b)
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("shapes", [((4,), (3,)), ((500, 4), (500, 3)), ((4,), (500, 3)), ((500, 4), (3,))])
    def test_rotate(self, shapes):
        rng = np.random.default_rng(37)
        q, v = rng.standard_normal(shapes[0]), rng.standard_normal(shapes[1])
        got = quat_rotate(q, v)
        want = cross_quat_rotate(q, v)
        assert got.shape == want.shape and np.array_equal(got, want)


class TestCompose:
    def test_identity(self):
        rng = np.random.default_rng(0)
        p = random_pose(rng)
        assert pose_close(compose(Pose.identity(), p), p)
        assert pose_close(compose(p, Pose.identity()), p)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_inverse_roundtrip(self, seed):
        p = random_pose(np.random.default_rng(seed))
        ident = compose(p, p.inverse())
        assert np.linalg.norm(ident.t) < 1e-9
        assert quat_angle(ident.q) < 1e-9

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            c = compose(a, b)
            assert np.allclose(homogeneous(c), homogeneous(a) @ homogeneous(b), atol=1e-12)


class TestRelativePose:
    def test_identical_poses(self):
        p = random_pose(np.random.default_rng(5))
        rel = relative_pose(p, p)
        assert np.allclose(rel.t, 0.0, atol=1e-12)
        assert quat_angle(rel.q) < 1e-12

    def test_identity_orientation(self):
        current = Pose.identity()
        previous = Pose(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0, 0, 0]))
        rel = relative_pose(current, previous)
        assert np.allclose(rel.t, [1.0, 2.0, 3.0])
        assert quat_angle(rel.q) < 1e-12

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            cur, prev = random_pose(rng), random_pose(rng)
            rel = relative_pose(cur, prev)
            expected = np.linalg.inv(homogeneous(cur)) @ homogeneous(prev)
            assert np.allclose(homogeneous(rel), expected, atol=1e-9)

    def test_compose_reconstructs_previous(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            assert pose_close(compose(a, relative_pose(a, b)), b)

    def test_telescoping_chains(self):
        # composing successive offsets reproduces the end-to-end offset
        rng = np.random.default_rng(21)
        for _ in range(1000):
            chain = [random_pose(rng) for _ in range(4)]
            rels = [relative_pose(chain[i], chain[i - 1]) for i in range(1, 4)]
            acc = rels[-1]
            for rel in reversed(rels[:-1]):
                acc = compose(acc, rel)
            end_to_end = relative_pose(chain[-1], chain[0])
            assert pose_close(acc, end_to_end)


class TestRowForms:
    """compose_rows and relative_rows state the two formulas once: on rows of
    (t, q) they equal their single-Pose forms before normalisation and their
    own single-row calls, bit for bit."""

    @pytest.mark.parametrize("rows, pose_form", [(compose_rows, compose), (relative_rows, relative_pose)])
    def test_equal_pose_form_and_single_rows(self, rows, pose_form):
        rng = np.random.default_rng(61)
        a = [random_pose(rng) for _ in range(200)]
        b = [random_pose(rng) for _ in range(200)]
        t, q = rows(*(np.array([getattr(p, f) for p in poses]) for poses in (a, b) for f in ("t", "q")))
        for i in range(200):
            want = pose_form(a[i], b[i])
            one_t, one_q = rows(a[i].t, a[i].q, b[i].t, b[i].q)
            assert t[i].tobytes() == one_t.tobytes() == want.t.tobytes()
            assert q[i].tobytes() == one_q.tobytes()
            assert quat_normalize(q[i]).tobytes() == want.q.tobytes()

    @pytest.mark.parametrize("rows", [compose_rows, relative_rows])
    def test_q_is_not_renormalised(self, rows):
        rng = np.random.default_rng(67)
        ta, tb = rng.standard_normal((2, 50, 3))
        qa, qb = 2.0 * rng.standard_normal((2, 50, 4))
        _, q = rows(ta, qa, tb, qb)
        # |qa qb| = |qa| |qb|, far from 1 for these scales
        assert np.allclose(np.linalg.norm(q, axis=1), np.linalg.norm(qa, axis=1) * np.linalg.norm(qb, axis=1))


class TestPoseResidual:
    """The relative-pose residual of the pose graph: the estimated offset
    relative_pose(current, previous) against the measured one.  Each call is
    one row of `_relative_forward`, over the keyframes (previous, current)."""

    IDENTITY = Pose.identity()

    def test_zero_for_equal(self):
        rng = np.random.default_rng(1)
        cur, prev = random_pose(rng), random_pose(rng)
        meas = relative_pose(cur, prev)
        r, _, _ = _relative_forward(
            np.stack([prev.t, cur.t]), np.stack([prev.q, cur.q]), meas.t[None], meas.q[None], 1.0, 1.0, False
        )
        assert np.allclose(r[0], 0.0, atol=1e-12)

    def test_translation_only(self):
        # previous at x = 0.1; current and measurement are the identity
        t = np.array([[0.1, 0.0, 0.0], [0.0, 0.0, 0.0]])
        q = np.tile(self.IDENTITY.q, (2, 1))
        r, _, _ = _relative_forward(t, q, np.zeros((1, 3)), q[:1], 1.0, 1.0, False)
        assert np.allclose(r[0], [0.1, 0, 0, 0, 0, 0], atol=1e-15)

    def test_small_rotation_about_z(self):
        # quaternion-product oracle: 2*vec approximates axis-angle for small angles
        half = 0.005
        q = np.array([Pose([0, 0, 0], [np.cos(half), 0, 0, np.sin(half)]).q, self.IDENTITY.q])
        r, _, _ = _relative_forward(np.zeros((2, 3)), q, np.zeros((1, 3)), q[1:], 1.0, 1.0, False)
        r = r[0]
        assert np.allclose(r[:3], 0.0, atol=1e-15)
        assert np.allclose(r[3:], [0.0, 0.0, 2.0 * np.sin(half)], atol=1e-12)
        assert abs(r[5] - 0.00999996) < 1e-7

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_double_cover(self, seed):
        # moving both poses by one rigid transform keeps their offset, but the
        # sign each quaternion is canonicalized to can change, moving
        # q_c^-1 q_p to the other hemisphere; q and -q are one rotation, so
        # the residual must not change
        rng = np.random.default_rng(seed)
        cur, prev, moved = random_pose(rng), random_pose(rng), random_pose(rng)
        error = Pose(0.1 * rng.standard_normal(3), quaternion_boxplus(self.IDENTITY.q, 0.1 * rng.standard_normal(3)))
        meas = compose(relative_pose(cur, prev), error)
        rows = []
        for a, b in ((prev, cur), (compose(moved, prev), compose(moved, cur))):
            r, _, _ = _relative_forward(
                np.stack([a.t, b.t]), np.stack([a.q, b.q]), meas.t[None], meas.q[None], 1.0, 1.0, False
            )
            rows.append(r[0])
        assert np.allclose(rows[1], rows[0], atol=1e-9)

    def test_weights_applied(self):
        prev = Pose([0.2, 0.0, 0.0], quaternion_boxplus(self.IDENTITY.q, [0.0, 0.0, 0.01]))
        t = np.stack([prev.t, self.IDENTITY.t])
        q = np.stack([prev.q, self.IDENTITY.q])
        r, _, _ = _relative_forward(t, q, np.zeros((1, 3)), self.IDENTITY.q[None], 10.0, 3.0, False)
        assert np.isclose(r[0, 0], 2.0)
        assert np.isclose(r[0, 5], 3.0 * 2.0 * np.sin(0.005))

    def test_rejects_negative_weights(self):
        # the residual's weights are square roots of the graph weights
        for kwargs in (dict(beta_t=-1.0), dict(beta_rot=-1.0)):
            with pytest.raises(ValueError):
                GraphWeights(**kwargs)


class TestProjection:
    def test_optical_axis(self):
        k = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 100, 100)
        uv = pinhole(k, world_to_camera(Pose.identity(), np.array([0.0, 0.0, 1.0])))
        assert np.allclose(uv, [50.0, 50.0])

    def test_pinhole_equation(self):
        k = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 200, 200)
        uv = pinhole(k, world_to_camera(Pose.identity(), np.array([1.0, 0.0, 2.0])))
        assert np.allclose(uv, [100.0, 50.0])

    def test_matches_matrix_projection(self):
        k = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 100, 100)
        pose = Pose(np.array([0.0, 0.0, -5.0]), np.array([1.0, 0, 0, 0]))
        point = np.array([0.5, -0.5, 5.0])
        uv = pinhole(k, world_to_camera(pose, point))
        assert in_view(k, uv)
        km = np.array([[k.fx, 0, k.cx], [0, k.fy, k.cy], [0, 0, 1.0]])
        m = np.linalg.inv(homogeneous(pose))
        h = km @ (m[:3, :3] @ point + m[:3, 3])
        assert np.allclose(uv, h[:2] / h[2], atol=1e-12)

    def test_matches_matrix_projection_random(self):
        rng = np.random.default_rng(77)
        k = CameraIntrinsics(300.0, 280.0, 320.0, 240.0, 640, 480)
        km = np.array([[k.fx, 0, k.cx], [0, k.fy, k.cy], [0, 0, 1.0]])
        hits = 0
        while hits < 50:
            pose = random_pose(rng, scale=2.0)
            point = 20.0 * rng.standard_normal(3)
            uv = pinhole(k, world_to_camera(pose, point))
            if not in_view(k, uv):
                continue
            m = np.linalg.inv(homogeneous(pose))
            h = km @ (m[:3, :3] @ point + m[:3, 3])
            assert np.allclose(uv, h[:2] / h[2], atol=1e-9)
            hits += 1

    def test_columns_match_the_scalar_formulas(self):
        # u and v are computed together, with the arithmetic of one column at a time
        rng = np.random.default_rng(43)
        k = CameraIntrinsics(300.0, 280.0, 320.0, 240.0, 640, 480)
        p = rng.standard_normal((2000, 3)) * (1.5, 1.0, 1.0) + (0.0, 0.0, 2.0)
        p[:3, 2] = (0.0, EPS_DEPTH, -1.0)
        z = np.where(p[:, 2] > EPS_DEPTH, p[:, 2], np.nan)
        want = np.stack([k.fx * p[:, 0] / z + k.cx, k.fy * p[:, 1] / z + k.cy], axis=1)
        uv = pinhole(k, p)
        assert uv.shape == want.shape and np.array_equal(uv, want, equal_nan=True)
        u, v = want.T
        seen = (u >= -0.5) & (u < k.width - 0.5) & (v >= -0.5) & (v < k.height - 0.5)
        assert 0 < seen.sum() < seen.size and np.array_equal(in_view(k, uv), seen)

    def test_columns_read_only(self):
        for column in CameraIntrinsics(300.0, 280.0, 320.0, 240.0, 640, 480)._columns:
            with pytest.raises(ValueError):
                column[0] = 1.0

    def test_behind_camera(self):
        # depth -1, 0 and exactly EPS_DEPTH are behind: NaN, without a
        # division warning, and never in view; the row in front is untouched
        k = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 100, 100)
        points = np.array([[0.0, 0.0, -1.0], [0.5, 0.0, 0.0], [1e-7, 0.0, EPS_DEPTH], [1.0, 0.0, 2.0]])
        uv = pinhole(k, points)
        assert np.all(np.isnan(uv[:3]))
        assert np.array_equal(uv[3], [100.0, 50.0])
        assert not in_view(k, uv[:3]).any()
        assert not in_view(k, np.array([np.nan, 50.0])) and not in_view(k, np.array([50.0, np.nan]))
        assert np.all(np.isnan(pinhole(k, points[2])))

    def test_just_in_front(self):
        k = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 100, 100)
        z = np.nextafter(EPS_DEPTH, 1.0)
        uv = pinhole(k, np.array([1e-7 * z, -2e-7 * z, z]))
        assert np.all(np.isfinite(uv))
        assert np.allclose(uv, [50.00001, 49.99998], rtol=0.0, atol=1e-9)
        assert in_view(k, uv)

    def test_outside_bounds(self):
        k = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 100, 100)
        uv = pinhole(k, world_to_camera(Pose.identity(), np.array([5.0, 0.0, 1.0])))
        assert np.all(np.isfinite(uv)) and not in_view(k, uv)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_quaternion_sign_invariance(self, seed):
        rng = np.random.default_rng(seed)
        k = CameraIntrinsics(200.0, 200.0, 128.0, 128.0, 256, 256)
        pose = random_pose(rng, scale=3.0)
        flipped = Pose(pose.t, -pose.q)
        point = 10.0 * rng.standard_normal(3)
        a, b = (pinhole(k, world_to_camera(p, point)) for p in (pose, flipped))
        assert in_view(k, a) == in_view(k, b)
        assert np.allclose(a, b, atol=1e-12, equal_nan=True)


class TestIntrinsicsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(fx=0.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=10),
            dict(fx=1.0, fy=-2.0, cx=0.0, cy=0.0, width=10, height=10),
            dict(fx=1.0, fy=1.0, cx=10.0, cy=0.0, width=10, height=10),
            dict(fx=1.0, fy=1.0, cx=0.0, cy=-1.0, width=10, height=10),
            dict(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=0, height=10),
            dict(fx=np.nan, fy=1.0, cx=0.0, cy=0.0, width=10, height=10),
            dict(fx=1.0, fy=np.inf, cx=0.0, cy=0.0, width=10, height=10),
            dict(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=10.5, height=10),
            dict(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=10.0, height=10),
            dict(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=True),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CameraIntrinsics(**kwargs)


class TestInvariants:
    def test_pose_unit_norm_after_construction(self):
        p = Pose(np.zeros(3), np.array([2.0, 1.0, 0.5, -0.25]))
        assert abs(np.linalg.norm(p.q) - 1.0) < 1e-9

    def test_pose_immutable(self):
        p = Pose.identity()
        with pytest.raises(ValueError):
            p.t[0] = 1.0
