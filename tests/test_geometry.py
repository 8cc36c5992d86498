import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from turbloc.geometry import (
    EPS_DEPTH,
    CameraIntrinsics,
    Pose,
    clip_segments_to_front,
    compose,
    compose_rows,
    geodesic_angle,
    in_view,
    pinhole,
    quat_angle,
    quat_conjugate,
    quat_from_rotvec,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quaternion_boxplus,
    relative_pose,
    relative_rows,
    world_to_camera,
)
from turbloc.posegraph import GraphWeights, _pose_terms
import reference_posegraph

IDENTITY = Pose(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))


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

    @pytest.mark.parametrize("q", [[1e200, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.3e154, 1.3e154]]])
    def test_normalize_rejects_overflowing_squares_without_a_warning(self, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                quat_normalize(q)

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


def reference_clip_segments_to_front(pa, pb):
    # clip_segments_to_front's formulas, kept apart so that a rewrite of the
    # clip is checked against them to the bit
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    za, zb = pa[..., 2], pb[..., 2]
    behind_a, behind_b = za <= EPS_DEPTH, zb <= EPS_DEPTH
    crosses = behind_a ^ behind_b
    t = (EPS_DEPTH - za) / np.where(crosses, zb - za, 1.0)
    crossing = pa + t[..., None] * (pb - pa)
    crossing[..., 2] = EPS_DEPTH * (1.0 + 1e-6)
    a = np.where((crosses & behind_a)[..., None], crossing, pa)
    b = np.where((crosses & behind_b)[..., None], crossing, pb)
    return a, b, ~(behind_a & behind_b)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


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


class TestBoxplusMatchesReference:
    """quat_from_rotvec, quat_normalize and quaternion_boxplus equal the
    np.linalg.norm / np.concatenate forms kept in reference_posegraph, to the
    bit, and warn where those warn."""

    SHAPES = [(3,), (500, 3), (7, 2, 3)]

    def rotvecs(self, rng, shape):
        # angles from 1e-15 (the sinc form's constant) to 10 rad, zeros and -0.0
        v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-15, 1, shape[:-1] + (1,))
        if v.ndim == 2:
            v[:5] = 0.0
            v[5:10, 0] = -0.0
            v[10:15] *= 1e-12 / np.linalg.norm(v[10:15], axis=-1, keepdims=True)
        return v

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rotvec(self, shape):
        rng = np.random.default_rng(61)
        for _ in range(20):
            v = self.rotvecs(rng, shape)
            assert same_bits(quat_from_rotvec(v), reference_posegraph.quat_from_rotvec(v))

    @pytest.mark.parametrize("shape", [(4,), (500, 4), (7, 2, 4)])
    def test_normalize(self, shape):
        rng = np.random.default_rng(67)
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            q = scale * rng.standard_normal(shape)
            assert same_bits(quat_normalize(q), reference_posegraph.quat_normalize(q))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_boxplus(self, shape):
        rng = np.random.default_rng(71)
        for _ in range(20):
            delta = self.rotvecs(rng, shape)
            q = quat_normalize(rng.standard_normal(shape[:-1] + (4,)))
            assert same_bits(quaternion_boxplus(q, delta), reference_posegraph.quaternion_boxplus(q, delta))

    @pytest.mark.parametrize("bad", [[np.inf, 0.0, 0.0], [[0.1, 0.0, 0.0], [0.0, -np.inf, 1.0]]])
    def test_infinite_rotvec_warns_as_before(self, bad):
        for fn in (quat_from_rotvec, reference_posegraph.quat_from_rotvec):
            with pytest.raises(RuntimeWarning, match="invalid value encountered in cos"):
                fn(bad)

    def test_nan_rotvec_gives_nan_as_before(self):
        v = np.array([[0.1, 0.0, 0.0], [np.nan, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quat_from_rotvec(v)
        assert same_bits(got, reference_posegraph.quat_from_rotvec(v))
        assert np.isnan(got[1]).all() and np.isfinite(got[0]).all()


class TestPoseConstruction:
    """Pose normalises its quaternion with quat_normalize: one row at a time
    gives the bits of all rows at once."""

    def test_equals_quat_normalize_to_the_bit(self):
        rng = np.random.default_rng(41)
        n = 12_000
        # scales from 1e-3 to 1e3, a quarter with negative scalar parts and
        # 1,000 with scalar parts of +0.0 and -0.0; 100 of the negative ones
        # are subnormal and become -0.0 in the division, which keeps the sign
        q = rng.standard_normal((n, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
        q[: n // 4, 0] = -np.abs(q[: n // 4, 0])
        q[:100, :2] = -5e-324, 1e3
        q[n // 4 : n // 4 + 500, 0] = 0.0
        q[n // 4 + 500 : n // 4 + 1000, 0] = -0.0
        t = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
        poses = [Pose(t[i], q[i]) for i in range(n)]
        want = quat_normalize(q)
        assert same_bits(np.array([p.q for p in poses]), want)
        assert same_bits(np.array([p.t for p in poses]), t)
        # the cases named above are all there, and the signed zeros survive
        assert np.sum(q[:, 0] < 0.0) >= n // 4 and np.sum(want[:, 0] == 0.0) == 1100
        assert np.sum(np.signbit(want[:, 0])) == 600

    @pytest.mark.parametrize(
        "q",
        [
            [0.0, 0.0, 0.0, 0.0],
            [-0.0, 0.0, -0.0, 0.0],
            [np.nan, 0.0, 0.0, 1.0],
            [1.0, np.inf, 0.0, 0.0],
            [-np.inf, 0.0, 0.0, 0.0],
            [1e200, 0.0, 0.0, 0.0],  # finite, but its square overflows
            [0.0, 0.0, -1.3e154, 1.3e154],
        ],
    )
    def test_rejects_zero_and_non_finite_quaternions(self, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                Pose(np.zeros(3), np.array(q))

    @pytest.mark.parametrize("t", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf]])
    def test_rejects_non_finite_positions(self, t):
        with pytest.raises(ValueError):
            Pose(np.array(t), np.array([1.0, 0.0, 0.0, 0.0]))

    def test_arrays_are_read_only_copies(self):
        t = np.array([1.0, 2.0, 3.0])
        q = np.array([0.5, 0.5, 0.5, 0.5])
        pose = Pose(t, q)
        t[0] = q[0] = 9.0
        assert pose.t[0] == 1.0 and pose.q[0] == 0.5
        for array, shape in ((pose.t, (3,)), (pose.q, (4,))):
            assert array.shape == shape and array.dtype == np.float64
            assert array.flags.owndata and not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        # other array-likes are converted the same way
        assert same_bits(Pose([[1, 2, 3]], (2, 0, 0, 0)).q, np.array([1.0, 0.0, 0.0, 0.0]))


class TestClipSegmentsToFront:
    NEAR = EPS_DEPTH * (1.0 + 1e-6)  # depth of an end moved onto the near plane

    def test_wholly_in_front_equals_the_reference_to_the_bit(self):
        rng = np.random.default_rng(43)
        pa, pb = rng.standard_normal((2, 200, 3))
        pa[:, 2], pb[:, 2] = rng.uniform(0.01, 50.0, (2, 200))
        pa[0, 2] = pb[1, 2] = np.nextafter(EPS_DEPTH, 1.0)
        got, want = clip_segments_to_front(pa, pb), reference_clip_segments_to_front(pa, pb)
        assert all(same_bits(g, w) for g, w in zip(got, want))
        assert got[2].all()

    def test_mixed_segments_equal_the_reference_to_the_bit(self):
        rng = np.random.default_rng(47)
        pa, pb = rng.standard_normal((2, 300, 3))
        pa[:, 2], pb[:, 2] = rng.uniform(-2.0, 2.0, (2, 300))
        pa[:20, 2] = EPS_DEPTH
        got, want = clip_segments_to_front(pa, pb), reference_clip_segments_to_front(pa, pb)
        assert all(same_bits(g, w) for g, w in zip(got, want))

    def test_one_end_behind_moves_onto_the_segment(self):
        # row 0 has its b end behind, row 1 its a end
        pa = np.array([[1.0, 2.0, 5.0], [0.5, -1.0, -3.0]])
        pb = np.array([[3.0, -2.0, -1.0], [2.0, 4.0, 7.0]])
        a, b, front = clip_segments_to_front(pa, pb)
        assert front.all()
        assert same_bits(a[0], pa[0]) and same_bits(b[1], pb[1])
        for moved, p, q in ((b[0], pa[0], pb[0]), (a[1], pb[1], pa[1])):
            assert moved[2] == self.NEAR
            s = (EPS_DEPTH - p[2]) / (q[2] - p[2])  # where the depth reaches EPS_DEPTH
            assert 0.0 < s < 1.0
            assert np.allclose(moved[:2], p[:2] + s * (q[:2] - p[:2]), rtol=0.0, atol=1e-12)

    def test_both_ends_behind_keep_their_ends(self):
        pa = np.array([[1.0, 2.0, -1.0], [0.0, 0.0, 0.0], [3.0, 1.0, EPS_DEPTH]])
        pb = np.array([[3.0, 4.0, -5.0], [1.0, 1.0, EPS_DEPTH], [-2.0, 0.5, -0.0]])
        a, b, front = clip_segments_to_front(pa, pb)
        assert not front.any()
        assert same_bits(a, pa) and same_bits(b, pb)

    def test_depth_eps_depth_counts_as_behind(self):
        pb = np.array([[1.0, 0.0, 1.0]])
        a, b, front = clip_segments_to_front(np.array([[0.0, 0.0, EPS_DEPTH]]), pb)
        assert front.all() and a[0, 2] == self.NEAR and same_bits(b, pb)
        # one ulp further out is in front and kept as it is
        just_in_front = np.array([[0.0, 0.0, np.nextafter(EPS_DEPTH, 1.0)]])
        a, b, front = clip_segments_to_front(just_in_front, pb)
        assert front.all() and same_bits(a, just_in_front) and same_bits(b, pb)

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 5, 3), (3, 1, 2, 3)])
    @pytest.mark.parametrize("behind", [None, 0, 1])
    def test_batch_shapes(self, shape, behind):
        # no end behind, or the last segment's a or b end behind
        rng = np.random.default_rng(53)
        pa, pb = rng.standard_normal((2,) + shape)
        pa[..., 2], pb[..., 2] = rng.uniform(0.5, 5.0, (2,) + shape[:-1])
        if behind is not None:
            (pa, pb)[behind].reshape(-1, 3)[-1, 2] = -1.0
        a, b, front = clip_segments_to_front(pa, pb)
        assert a.shape == b.shape == shape and np.shape(front) == shape[:-1]
        # the ends are new arrays, also when no end is behind, so a caller may write into them
        assert not any(np.shares_memory(end, given) for end in (a, b) for given in (pa, pb))
        want = reference_clip_segments_to_front(pa, pb)
        assert all(same_bits(g, w) for g, w in zip((a, b, np.asarray(front)), want))
        # and row by row as a flat batch
        flat = clip_segments_to_front(pa.reshape(-1, 3), pb.reshape(-1, 3))
        assert same_bits(a.reshape(-1, 3), flat[0]) and same_bits(b.reshape(-1, 3), flat[1])
        assert same_bits(np.reshape(front, -1), flat[2])


class TestCompose:
    def test_identity(self):
        rng = np.random.default_rng(0)
        p = random_pose(rng)
        assert pose_close(compose(IDENTITY, p), p)
        assert pose_close(compose(p, IDENTITY), p)

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
        current = IDENTITY
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


def relative_residuals(t, q, meas_t, meas_q, sqrt_bt, sqrt_br):
    """The pose graph's weighted relative-pose residuals (n-1, 6) at (t, q)."""
    return _pose_terms(t, q, meas_t, quat_conjugate(meas_q), sqrt_bt, sqrt_br).r_rel


class TestPoseResidual:
    """The relative-pose residual of the pose graph: the estimated offset
    relative_pose(current, previous) against the measured one.  Each call is
    one row of `_pose_terms`' residuals, over the keyframes (previous, current)."""

    def test_zero_for_equal(self):
        rng = np.random.default_rng(1)
        cur, prev = random_pose(rng), random_pose(rng)
        meas = relative_pose(cur, prev)
        r = relative_residuals(
            np.stack([prev.t, cur.t]), np.stack([prev.q, cur.q]), meas.t[None], meas.q[None], 1.0, 1.0
        )
        assert np.allclose(r[0], 0.0, atol=1e-12)

    def test_translation_only(self):
        # previous at x = 0.1; current and measurement are the identity
        t = np.array([[0.1, 0.0, 0.0], [0.0, 0.0, 0.0]])
        q = np.tile(IDENTITY.q, (2, 1))
        r = relative_residuals(t, q, np.zeros((1, 3)), q[:1], 1.0, 1.0)
        assert np.allclose(r[0], [0.1, 0, 0, 0, 0, 0], atol=1e-15)

    def test_small_rotation_about_z(self):
        # quaternion-product oracle: 2*vec approximates axis-angle for small angles
        half = 0.005
        q = np.array([Pose([0, 0, 0], [np.cos(half), 0, 0, np.sin(half)]).q, IDENTITY.q])
        r = relative_residuals(np.zeros((2, 3)), q, np.zeros((1, 3)), q[1:], 1.0, 1.0)
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
        error = Pose(0.1 * rng.standard_normal(3), quaternion_boxplus(IDENTITY.q, 0.1 * rng.standard_normal(3)))
        meas = compose(relative_pose(cur, prev), error)
        rows = []
        for a, b in ((prev, cur), (compose(moved, prev), compose(moved, cur))):
            r = relative_residuals(
                np.stack([a.t, b.t]), np.stack([a.q, b.q]), meas.t[None], meas.q[None], 1.0, 1.0
            )
            rows.append(r[0])
        assert np.allclose(rows[1], rows[0], atol=1e-9)

    def test_weights_applied(self):
        prev = Pose([0.2, 0.0, 0.0], quaternion_boxplus(IDENTITY.q, [0.0, 0.0, 0.01]))
        t = np.stack([prev.t, IDENTITY.t])
        q = np.stack([prev.q, IDENTITY.q])
        r = relative_residuals(t, q, np.zeros((1, 3)), IDENTITY.q[None], 10.0, 3.0)
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
        uv = pinhole(k, world_to_camera(IDENTITY, np.array([0.0, 0.0, 1.0])))
        assert np.allclose(uv, [50.0, 50.0])

    def test_pinhole_equation(self):
        k = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 200, 200)
        uv = pinhole(k, world_to_camera(IDENTITY, np.array([1.0, 0.0, 2.0])))
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
        uv = pinhole(k, world_to_camera(IDENTITY, np.array([5.0, 0.0, 1.0])))
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
        p = IDENTITY
        with pytest.raises(ValueError):
            p.t[0] = 1.0
