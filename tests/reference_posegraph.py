"""Reference for the graph side of ``turbloc.posegraph``'s Gauss-Newton pass.

These are the residual blocks, the normal-equation assembly, the banded
solve, the stall rule's median motion and the quaternion box-plus that the
leaner ones replaced: the image Jacobian as ``dpi @ -R^T`` and
``dpi @ skew(p_c)`` einsums, one segment sum each for H and g, the band
layout rebuilt on every solve, and ``np.median`` over ``np.linalg.norm``.
Tests require the library to reproduce them byte for byte, so they are kept
verbatim, helpers included.  `objective` and `solve_banded` take the places
of the ``PoseGraph`` methods, so a test can monkeypatch them in.
"""

import numpy as np
from scipy.linalg import solveh_banded

from turbloc.geometry import (
    EPS_DEPTH,
    quat_conjugate,
    quat_multiply,
    quat_to_matrix,
    relative_rows,
)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def skew(v):
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


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if not (np.isfinite(n).all() and n.all()):
        raise ValueError("cannot normalize a zero or non-finite quaternion")
    q = q / n
    return np.negative(q, out=q, where=q[..., :1] < 0.0)


def quat_from_rotvec(v):
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v, axis=-1, keepdims=True)
    half = 0.5 * angle
    small = angle < 1e-12
    with np.errstate(invalid="ignore", divide="ignore"):
        k = np.where(small, 0.5, np.sin(half) / np.where(small, 1.0, angle))
    w = np.cos(half)
    return np.concatenate([w, k * v], axis=-1)


def quaternion_boxplus(q, delta):
    return quat_normalize(quat_multiply(q, quat_from_rotvec(delta)))


# ---------------------------------------------------------------------------
# residual blocks
# ---------------------------------------------------------------------------

def image_forward(t, q, kf_idx, points3d, matched, w, k, with_jacobian):
    rot = quat_to_matrix(q)  # (n, 3, 3), camera-to-world
    rt = np.swapaxes(rot, -1, -2)[kf_idx]  # world-to-camera per correspondence
    d = points3d - t[kf_idx]
    pc = np.einsum("mij,mj->mi", rt, d)
    z = pc[:, 2]
    ok = z > EPS_DEPTH
    safe_z = np.where(ok, z, 1.0)
    u = k.fx * pc[:, 0] / safe_z + k.cx
    v = k.fy * pc[:, 1] / safe_z + k.cy
    r = w[:, None] * (np.stack([u, v], axis=1) - matched)
    if not with_jacobian:
        return r, ok, None
    dpi = np.zeros((len(z), 2, 3))
    dpi[:, 0, 0] = k.fx / safe_z
    dpi[:, 0, 2] = -k.fx * pc[:, 0] / safe_z**2
    dpi[:, 1, 1] = k.fy / safe_z
    dpi[:, 1, 2] = -k.fy * pc[:, 1] / safe_z**2
    jac = np.empty((len(z), 2, 6))
    jac[:, :, :3] = np.einsum("mij,mjk->mik", dpi, -rt)
    jac[:, :, 3:] = np.einsum("mij,mjk->mik", dpi, skew(pc))
    jac *= w[:, None, None]
    return r, ok, jac


def relative_forward(t, q, meas_t, meas_q, sqrt_bt, sqrt_br, with_jacobian):
    t_hat, q_hat = relative_rows(t[1:], q[1:], t[:-1], q[:-1])
    q_err = quat_multiply(q_hat, quat_conjugate(meas_q))
    flip = np.where(q_err[:, :1] < 0.0, -1.0, 1.0)
    q_err = q_err * flip
    w_e, v_e = q_err[:, 0], q_err[:, 1:]
    r = np.concatenate([sqrt_bt * (t_hat - meas_t), sqrt_br * 2.0 * v_e], axis=1)
    if not with_jacobian:
        return r, None, None
    n1 = t_hat.shape[0]
    rot_cur_t = np.swapaxes(quat_to_matrix(q[1:]), -1, -2)
    eye = np.broadcast_to(np.eye(3), (n1, 3, 3))
    j_cur = np.zeros((n1, 6, 6))
    j_prev = np.zeros((n1, 6, 6))
    j_cur[:, :3, :3] = -sqrt_bt * rot_cur_t
    j_cur[:, :3, 3:] = sqrt_bt * skew(t_hat)
    j_cur[:, 3:, 3:] = sqrt_br * (-w_e[:, None, None] * eye + skew(v_e))
    j_prev[:, :3, :3] = sqrt_bt * rot_cur_t
    j_prev[:, 3:, 3:] = sqrt_br * np.einsum(
        "nij,njk->nik", w_e[:, None, None] * eye - skew(v_e), quat_to_matrix(q_hat)
    )
    return r, j_cur, j_prev


def median_motion(r_old, r_new, w):
    live = w > 0.0
    if not live.any():
        return np.inf
    return float(np.median(np.linalg.norm(r_new[live] - r_old[live], axis=1) / w[live]))


def segment_sum(values, idx, n):
    flat = values.reshape(values.shape[0], -1)
    d = flat.shape[1]
    bins = (idx[:, None] * d + np.arange(d)).ravel()
    return np.bincount(bins, weights=flat.ravel(), minlength=n * d).reshape((n,) + values.shape[1:])


_LOWER = np.tril_indices(6)
_BLOCK = np.divmod(np.arange(36), 6)


# ---------------------------------------------------------------------------
# the PoseGraph methods
# ---------------------------------------------------------------------------

def objective(self, t, q, rows, meas_t, meas_q, with_system=False):
    sqrt_bt, sqrt_br = np.sqrt(self.weights.beta_t), np.sqrt(self.weights.beta_rot)
    r_img, ok, jac = image_forward(t, q, *rows, self.camera, with_system)
    r_rel, j_cur, j_prev = relative_forward(t, q, meas_t, meas_q, sqrt_bt, sqrt_br, with_system)
    cost = float(np.sum(r_img * r_img)) + float(np.sum(r_rel * r_rel)) if ok.all() else np.inf
    if not with_system:
        return cost, r_img
    n = t.shape[0]
    h_diag = segment_sum(np.einsum("mka,mkb->mab", jac, jac), rows.kf_idx, n)
    g = segment_sum(np.einsum("mka,mk->ma", jac, r_img), rows.kf_idx, n)
    h_diag[1:] += np.einsum("ikp,ikq->ipq", j_cur, j_cur)
    h_diag[:-1] += np.einsum("ikp,ikq->ipq", j_prev, j_prev)
    h_off = np.einsum("ikp,ikq->ipq", j_prev, j_cur)
    g[1:] += np.einsum("ikp,ik->ip", j_cur, r_rel)
    g[:-1] += np.einsum("ikp,ik->ip", j_prev, r_rel)
    return cost, r_img, (h_diag, h_off, g)


def solve_banded(h_diag, h_off, g, damping):
    n = h_diag.shape[0]
    ab = np.zeros((min(11, 6 * n - 1) + 1, 6 * n))
    a, b = _LOWER
    p, q = _BLOCK
    first = 6 * np.arange(n)[:, None]
    rows = np.concatenate(
        [np.broadcast_to(a - b, (n, a.size)), np.broadcast_to(6 + p - q, (n - 1, p.size))], axis=None
    )
    cols = np.concatenate([first + b, first[:-1] + q], axis=None)
    ab[rows, cols] = np.concatenate([h_diag[:, a, b], h_off[:, q, p]], axis=None)
    ab[0, :] += damping
    delta = solveh_banded(ab, -g.ravel(), lower=True)
    return delta.reshape(n, 6)
