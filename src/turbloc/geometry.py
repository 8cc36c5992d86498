"""Rigid transforms, quaternion algebra and pinhole projection.

Conventions used throughout the package:

- Quaternions are scalar-first ``(w, x, y, z)`` Hamilton quaternions, kept
  unit norm, canonicalized to a non-negative scalar part.  Products compose
  rotation matrices in the same order: ``R(a * b) = R(a) R(b)``.
- ``Pose`` is the camera pose expressed in the world frame
  (world-from-camera): a world point ``p`` maps into the camera frame as
  ``R(q)^T (p - t)``.
- Composition and relative pose are written once, as `compose_rows` and
  `relative_rows` over rows of ``(t, q)`` arrays, which do not renormalise
  ``q``; `compose` and `relative_pose` are their single-`Pose` forms.
- The world frame is z-up and right handed.  Image coordinates ``(u, v)``
  run along columns and rows respectively, with the origin at the centre of
  the top-left pixel; a pixel is in view iff ``-0.5 <= u < width - 0.5``
  (same for v).
- "Behind the camera" means a camera-frame depth of at most ``EPS_DEPTH``,
  and it is decided in three places only: `pinhole` projects such a point
  to NaN, which `in_view` rejects, `clip_segments_to_front` moves a
  segment's end onto the near plane, and `posegraph._image_residuals` marks
  such a row not ok, which makes the graph's cost inf.
- The package projects in two places.  `heatmap.project_skeleton` chains
  `world_to_camera`, `clip_segments_to_front`, `pinhole` and `in_view` for
  `render` and the pose stage of matching; nothing else in the package
  calls them.  The pose graph's residuals (`posegraph._image_residuals`)
  keep their own projection, because their Jacobians need its
  intermediate terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Camera-frame depth below which a point counts as behind the camera.
EPS_DEPTH = 1e-6


# ---------------------------------------------------------------------------
# quaternion algebra (all functions broadcast over leading axes)
# ---------------------------------------------------------------------------

def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Unit quaternion with non-negative scalar part; a zero or non-finite q
    (squares that overflow included) raises ValueError."""
    q = np.asarray(q, dtype=float)
    # np.linalg.norm's own arithmetic: the squares summed in order, then sqrt;
    # squares that overflow make n inf, which is rejected below
    with np.errstate(over="ignore"):
        n = np.sqrt(np.add.reduce(q * q, axis=-1, keepdims=True))
    if not (np.isfinite(n).all() and n.all()):
        raise ValueError("cannot normalize a zero or non-finite quaternion")
    q = q / n
    return np.negative(q, out=q, where=q[..., :1] < 0.0)


# cyclic shifts of (x, y, z): component i of a x b is
# a[_NEXT][i] * b[_PREV][i] - a[_PREV][i] * b[_NEXT][i]
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    aw, av = a[..., :1], a[..., 1:]
    bw, bv = b[..., :1], b[..., 1:]
    # w = aw bw - av.bv and v = aw bv + bw av + av x bv, rounded as np.sum
    # and np.cross round them: the dot product summed (x + y) + z, the cross
    # product on rolled components
    dot = av * bv
    w = aw * bw - ((dot[..., :1] + dot[..., 1:2]) + dot[..., 2:])
    cross = av.take(_NEXT, axis=-1) * bv.take(_PREV, axis=-1) - av.take(_PREV, axis=-1) * bv.take(_NEXT, axis=-1)
    return np.concatenate([w, aw * bv + bw * av + cross], axis=-1)


_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])
_CONJUGATE.flags.writeable = False


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    """Conjugate; equals the inverse for unit quaternions."""
    return np.asarray(q, dtype=float) * _CONJUGATE


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the rotation R(q) to 3-vectors v."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    w, u = q[..., :1], q[..., 1:]
    u_next, u_prev = u.take(_NEXT, axis=-1), u.take(_PREV, axis=-1)
    # v + w t + u x t with t = 2 u x v, the cross products on rolled components
    t = 2.0 * (u_next * v.take(_PREV, axis=-1) - u_prev * v.take(_NEXT, axis=-1))
    return v + w * t + (u_next * t.take(_PREV, axis=-1) - u_prev * t.take(_NEXT, axis=-1))


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of shape (..., 3, 3)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    m = np.empty(q.shape[:-1] + (3, 3), dtype=float)
    m[..., 0, 0] = 1.0 - 2.0 * (yy + zz)
    m[..., 0, 1] = 2.0 * (xy - wz)
    m[..., 0, 2] = 2.0 * (xz + wy)
    m[..., 1, 0] = 2.0 * (xy + wz)
    m[..., 1, 1] = 1.0 - 2.0 * (xx + zz)
    m[..., 1, 2] = 2.0 * (yz - wx)
    m[..., 2, 0] = 2.0 * (xz - wy)
    m[..., 2, 1] = 2.0 * (yz + wx)
    m[..., 2, 2] = 1.0 - 2.0 * (xx + yy)
    return m


def quat_from_matrix(m: np.ndarray) -> np.ndarray:
    """Unit quaternion for a single 3x3 rotation matrix (Shepperd's method)."""
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array([(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array([(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array([(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s])
    return quat_normalize(q)


def quat_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Quaternion for an axis-angle vector (angle = |v|, axis = v / |v|)."""
    v = np.asarray(v, dtype=float)
    angle = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    half = 0.5 * angle
    q = np.empty(v.shape[:-1] + (4,))
    np.cos(half, out=q[..., :1])  # an infinite angle warns here: invalid value
    # sinc form is exact at angle = 0 and smooth for small angles
    small = angle < 1e-12
    k = np.sin(half) / np.where(small, 1.0, angle)
    k[small] = 0.5
    np.multiply(k, v, out=q[..., 1:])
    return q


def quat_angle(q: np.ndarray) -> np.ndarray:
    """Rotation angle in [0, pi] represented by q (sign-insensitive)."""
    q = np.asarray(q, dtype=float)
    return 2.0 * np.arctan2(np.linalg.norm(q[..., 1:], axis=-1), np.abs(q[..., 0]))


def geodesic_angle(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Angle of the rotation taking qa to qb."""
    return quat_angle(quat_multiply(quat_conjugate(qa), qb))


def quaternion_boxplus(q: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Apply a local (body-frame) axis-angle increment: q * exp(delta)."""
    return quat_normalize(quat_multiply(q, quat_from_rotvec(delta)))


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices of shape (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    m = np.zeros(v.shape[:-1] + (3, 3), dtype=float)
    m[..., 0, 1] = -v[..., 2]
    m[..., 0, 2] = v[..., 1]
    m[..., 1, 0] = v[..., 2]
    m[..., 1, 2] = -v[..., 0]
    m[..., 2, 0] = -v[..., 1]
    m[..., 2, 1] = v[..., 0]
    return m


# ---------------------------------------------------------------------------
# rigid transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Pose:
    """World-from-camera rigid transform: position t and orientation q.

    Both are stored as read-only float copies.  t must be finite; q is
    normalised by `quat_normalize`, which rejects a zero or non-finite q.
    """

    t: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        t = np.array(np.reshape(self.t, 3), dtype=float)
        if not np.isfinite(t).all():
            raise ValueError("non-finite vector")
        for name, a in (("t", t), ("q", quat_normalize(np.reshape(self.q, 4)))):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def inverse(self) -> "Pose":
        q_inv = quat_conjugate(self.q)
        return Pose(-quat_rotate(q_inv, self.t), q_inv)

    def __repr__(self):
        return f"Pose(t={np.array2string(self.t, precision=4)}, q={np.array2string(self.q, precision=4)})"


def compose_rows(t_a, q_a, t_b, q_b) -> tuple[np.ndarray, np.ndarray]:
    """(t, q) of the transforms applying b then a (T_a T_b), row by row;
    q is not renormalised."""
    return t_a + quat_rotate(q_a, t_b), quat_multiply(q_a, q_b)


def relative_rows(t_cur, q_cur, t_prev, q_prev) -> tuple[np.ndarray, np.ndarray]:
    """(t, q) of each previous pose in its current pose's frame, row by row:
    inverse(current) * previous, that is R_c^T (t_p - t_c) and q_c^-1 * q_p;
    q is not renormalised."""
    q_inv = quat_conjugate(q_cur)
    return quat_rotate(q_inv, t_prev - t_cur), quat_multiply(q_inv, q_prev)


def compose(a: Pose, b: Pose) -> Pose:
    """Transform applying b then a (matrix product T_a T_b)."""
    return Pose(*compose_rows(a.t, a.q, b.t, b.q))


def relative_pose(current: Pose, previous: Pose) -> Pose:
    """Offset of the previous pose expressed in the current pose's frame;
    composing the current pose with it gives the previous pose back."""
    return Pose(*relative_rows(current.t, current.q, previous.t, previous.q))


# ---------------------------------------------------------------------------
# pinhole camera
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not all(np.isfinite(f) and f > 0.0 for f in (self.fx, self.fy)):
            raise ValueError("focal lengths must be finite and positive")
        for size in (self.width, self.height):
            if not isinstance(size, (int, np.integer)) or isinstance(size, bool):
                raise ValueError("image size must be an integer")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        if not (0.0 <= self.cx < self.width) or not (0.0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


def world_to_camera(pose: Pose, points: np.ndarray) -> np.ndarray:
    """World points into the camera frame: R^T (p - t)."""
    return quat_rotate(quat_conjugate(pose.q), np.asarray(points, dtype=float) - pose.t)


def pinhole(k: CameraIntrinsics, points_cam: np.ndarray) -> np.ndarray:
    """Pinhole projection of camera-frame points; NaN for a point behind the
    camera (depth at most EPS_DEPTH).  Off-image points are not checked."""
    p = np.asarray(points_cam, dtype=float)
    z = p[..., 2:]
    # u and v at once, each with its own focal length and centre
    return np.array([k.fx, k.fy]) * p[..., :2] / np.where(z > EPS_DEPTH, z, np.nan) + np.array([k.cx, k.cy])


def in_view(k: CameraIntrinsics, uv: np.ndarray) -> np.ndarray:
    """Whether pixel coordinates fall on the image raster; false for NaN."""
    uv = np.asarray(uv, dtype=float)
    inside = (uv >= -0.5) & (uv < np.array([k.width - 0.5, k.height - 0.5]))
    return inside[..., 0] & inside[..., 1]


def clip_segments_to_front(pa: np.ndarray, pb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip camera-frame segments, ends pa and pb of one shape (..., 3), to
    depth > EPS_DEPTH.

    Returns the clipped endpoints, new arrays, and whether any part of each
    segment lies in front.  An endpoint behind the camera moves onto the near
    plane, strictly in front; segments entirely behind keep their endpoints.
    """
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    za, zb = pa[..., 2], pb[..., 2]
    behind_a, behind_b = za <= EPS_DEPTH, zb <= EPS_DEPTH
    if not (behind_a.any() or behind_b.any()):
        # nothing to move, as on every match of a flight around the turbine
        return pa.copy(), pb.copy(), np.ones(za.shape, dtype=bool)
    crosses = behind_a ^ behind_b
    t = (EPS_DEPTH - za) / np.where(crosses, zb - za, 1.0)
    crossing = pa + t[..., None] * (pb - pa)
    crossing[..., 2] = EPS_DEPTH * (1.0 + 1e-6)
    a = np.where((crosses & behind_a)[..., None], crossing, pa)
    b = np.where((crosses & behind_b)[..., None], crossing, pb)
    return a, b, ~(behind_a & behind_b)


def look_at_pose(eye: np.ndarray, target: np.ndarray) -> Pose:
    """Camera at `eye` with the optical axis through `target`, image up = world up.

    Degenerates for a vertical view direction (undefined roll).
    """
    eye = np.asarray(eye, dtype=float).reshape(3)
    target = np.asarray(target, dtype=float).reshape(3)
    forward = target - eye
    n = np.linalg.norm(forward)
    if n < 1e-12:
        raise ValueError("eye and target coincide")
    z_c = forward / n
    x_c = np.cross(z_c, np.array([0.0, 0.0, 1.0]))
    nx = np.linalg.norm(x_c)
    if nx < 1e-12:
        raise ValueError("view direction is vertical; camera roll undefined")
    x_c /= nx
    y_c = np.cross(z_c, x_c)
    return Pose(eye, quat_from_matrix(np.column_stack([x_c, y_c, z_c])))
