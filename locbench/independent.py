"""Correctness formulas written apart from the program under test.

Nothing here imports ``turbloc``: projections, pose errors and frame
comparisons are recomputed from first principles, so a fault shared by the
program and its own helpers cannot hide itself.
"""

from __future__ import annotations

import math

import numpy as np


def rotation_matrix(q) -> np.ndarray:
    """Camera-to-world rotation of a unit scalar-first quaternion: (w^2 - v.v) I + 2 v v^T + 2 w [v]x."""
    w, x, y, z = (float(c) for c in q)
    v = np.array([x, y, z])
    cross = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return (w * w - v @ v) * np.eye(3) + 2.0 * np.outer(v, v) + 2.0 * w * cross


def project_points(t, q, fx, fy, cx, cy, points) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole pixels of world points seen from the camera pose (t, q), with depths."""
    cam = (np.asarray(points, dtype=float) - np.asarray(t, dtype=float)) @ rotation_matrix(q)
    depth = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = np.stack([fx * cam[:, 0] / depth + cx, fy * cam[:, 1] / depth + cy], axis=1)
    return uv, depth


def translation_error(ta, tb) -> float:
    return math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(ta, tb)))


def rotation_error(qa, qb) -> float:
    """Angle in radians of the rotation between two unit quaternions.

    With b flipped onto a's hemisphere, |a - b| = 2 sin(phi/2) and
    |a + b| = 2 cos(phi/2) for the 4-D angle phi, which is half the rotation
    angle; atan2 keeps full precision for small angles.
    """
    a = np.asarray(qa, dtype=float)
    b = np.asarray(qb, dtype=float)
    if float(a @ b) < 0.0:
        b = -b
    return 4.0 * math.atan2(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))


def mean_errors(estimates, truths) -> tuple[float, float]:
    """Mean translation and rotation errors over paired (t, q) poses."""
    t_err = [translation_error(e[0], g[0]) for e, g in zip(estimates, truths)]
    r_err = [rotation_error(e[1], g[1]) for e, g in zip(estimates, truths)]
    return sum(t_err) / len(t_err), sum(r_err) / len(r_err)


def pose_is_sane(t, q, unit_tol: float = 1e-9) -> bool:
    """Finite translation and quaternion, and a quaternion of unit norm."""
    t = np.asarray(t, dtype=float)
    q = np.asarray(q, dtype=float)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(q))):
        return False
    return abs(math.sqrt(float(q @ q)) - 1.0) <= unit_tol


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
