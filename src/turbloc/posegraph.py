"""Keyframe pose graph and its damped Gauss-Newton optimizer.

The graph couples consecutive keyframes through relative-pose measurements
derived from the GPS/IMU absolute estimates, and anchors the trajectory to
the world through image correspondences against the turbine heatmaps.  The
total objective is a sum of squared residuals:

- per consecutive pair, a 6-vector comparing the estimated relative pose
  with the measured one (translation difference and twice the vector part
  of the error quaternion), row-weighted by sqrt(beta_t) / sqrt(beta_rot);
- per correspondence, the 2-vector reprojection residual weighted by
  sqrt(beta_p) or sqrt(beta_line).

Each outer iteration re-establishes correspondences at the current
estimates (ICP-style), builds the normal equations from analytic Jacobians
with respect to each keyframe's local 6-DoF parameterization (translation
plus quaternion boxplus), solves the block-tridiagonal system in banded
form, and accepts the step only if the cost on the fixed correspondences
does not increase (Levenberg-style diagonal damping, never below
`damping_floor`).  No correspondence outlives its iteration, so `optimize`
depends only on the keyframes' estimates, measurements and frames.

The graph is single-writer: callers must serialize add_keyframe/optimize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded

from .geometry import (
    EPS_DEPTH,
    CameraIntrinsics,
    Pose,
    compose,
    quat_conjugate,
    quat_multiply,
    quat_rotate,
    quat_to_matrix,
    quaternion_boxplus,
    relative_pose,
    skew,
)
from .heatmap import HeatmapFrame
from .matching import CorrespondenceKind, MatchConfig, match_frame_arrays
from .turbine import SubdividedModel, TurbineSkeleton


@dataclass(frozen=True)
class GraphWeights:
    beta_t: float = 100.0  # relative translation weight (~1/sigma^2, sigma 0.1 m)
    beta_rot: float = 400.0  # relative rotation weight (~1/sigma^2, sigma 0.05 rad)
    beta_p: float = 1.0  # point correspondence weight
    beta_line: float = 0.25  # line correspondence weight (many, individually weak)

    def __post_init__(self):
        vals = (self.beta_t, self.beta_rot, self.beta_p, self.beta_line)
        if not all(np.isfinite(v) and v >= 0.0 for v in vals):
            raise ValueError("weights must be finite and non-negative")
        if self.beta_p == 0.0 and self.beta_line == 0.0:
            raise ValueError("at least one image weight must be positive")
        if self.beta_t == 0.0 and self.beta_rot == 0.0:
            raise ValueError("at least one relative-pose weight must be positive")


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 30
    cost_tolerance: float = 1e-6  # relative cost-change threshold
    # update-norm threshold (m and rad); above the ~0.3 um pose scatter that
    # float32 heatmaps leave at a noise-free optimum
    step_tolerance: float = 1e-6
    damping_floor: float = 1e-6  # minimal diagonal damping

    def __post_init__(self):
        settings = (self.max_iterations, self.cost_tolerance, self.step_tolerance, self.damping_floor)
        if not np.all(np.isfinite(settings)):
            raise ValueError("solver settings must be finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.cost_tolerance <= 0.0 or self.step_tolerance <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.damping_floor < 0.0:
            raise ValueError("damping_floor must be non-negative")


@dataclass
class Keyframe:
    id: int
    measured_pose: Pose  # GPS/IMU absolute estimate, only used via the relative offset
    relative_measurement: Pose | None  # previous pose in this one's frame; None iff id == 0
    frame: HeatmapFrame
    estimate: Pose


@dataclass
class OptimizeReport:
    iterations: int
    initial_cost: float
    final_cost: float
    termination: str
    costs: list = field(default_factory=list)  # initial cost, then per accepted iteration
    n_correspondences: int = 0

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "initial_cost": self.initial_cost,
            "final_cost": self.final_cost,
            "termination": self.termination,
            "costs": list(self.costs),
            "n_correspondences": self.n_correspondences,
        }


# ---------------------------------------------------------------------------
# residual blocks (batched; single-state wrappers below are used for
# finite-difference validation)
# ---------------------------------------------------------------------------

def _image_forward(
    t: np.ndarray,
    q: np.ndarray,
    kf_idx: np.ndarray,
    points3d: np.ndarray,
    matched: np.ndarray,
    w: np.ndarray,
    k: CameraIntrinsics,
    with_jacobian: bool,
):
    """Weighted reprojection residuals (m, 2) and optional Jacobians (m, 2, 6)."""
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


def _relative_forward(
    t: np.ndarray,
    q: np.ndarray,
    meas_t: np.ndarray,
    meas_q: np.ndarray,
    sqrt_bt: float,
    sqrt_br: float,
    with_jacobian: bool,
):
    """Relative-pose residuals (n-1, 6) and optional Jacobian blocks.

    Row i couples keyframes (i, i+1); J_cur differentiates with respect to
    the later (current) keyframe, J_prev with respect to the earlier one.
    """
    t_cur, q_cur = t[1:], q[1:]
    t_prev, q_prev = t[:-1], q[:-1]
    q_cur_inv = quat_conjugate(q_cur)
    t_hat = quat_rotate(q_cur_inv, t_prev - t_cur)
    q_hat = quat_multiply(q_cur_inv, q_prev)
    q_err = quat_multiply(q_hat, quat_conjugate(meas_q))
    flip = np.where(q_err[:, :1] < 0.0, -1.0, 1.0)
    q_err = q_err * flip
    w_e, v_e = q_err[:, 0], q_err[:, 1:]
    r = np.concatenate([sqrt_bt * (t_hat - meas_t), sqrt_br * 2.0 * v_e], axis=1)
    if not with_jacobian:
        return r, None, None
    n1 = t_cur.shape[0]
    rot_cur_t = np.swapaxes(quat_to_matrix(q_cur), -1, -2)
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


def image_residual(
    pose: Pose, point3d: np.ndarray, matched: np.ndarray, weight: float, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Single-correspondence residual and 2x6 Jacobian (for validation)."""
    r, ok, jac = _image_forward(
        pose.t[None, :],
        pose.q[None, :],
        np.zeros(1, np.int64),
        np.asarray(point3d, float)[None, :],
        np.asarray(matched, float)[None, :],
        np.array([weight], float),
        k,
        True,
    )
    if not ok[0]:
        raise ValueError("point is behind the camera")
    return r[0], jac[0]


def relative_residual(
    current: Pose,
    previous: Pose,
    measurement: Pose,
    sqrt_bt: float,
    sqrt_br: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-pair residual and 6x6 Jacobians w.r.t. current and previous."""
    t = np.stack([previous.t, current.t])
    q = np.stack([previous.q, current.q])
    r, j_cur, j_prev = _relative_forward(
        t, q, measurement.t[None, :], measurement.q[None, :], sqrt_bt, sqrt_br, True
    )
    return r[0], j_cur[0], j_prev[0]


def _segment_sum(values: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Sum rows of `values` (m, d) into n bins given by idx."""
    flat = values.reshape(values.shape[0], -1)
    out = np.empty((n, flat.shape[1]))
    for j in range(flat.shape[1]):
        out[:, j] = np.bincount(idx, weights=flat[:, j], minlength=n)
    return out.reshape((n,) + values.shape[1:])


@dataclass
class _Stacked:
    kf_idx: np.ndarray
    points3d: np.ndarray
    matched: np.ndarray
    weights: np.ndarray

    @property
    def count(self) -> int:
        return self.kf_idx.shape[0]


class PoseGraph:
    """Single-writer pose graph over keyframes of one flight."""

    def __init__(
        self,
        skeleton: TurbineSkeleton,
        subdivided: SubdividedModel,
        camera: CameraIntrinsics,
        weights: GraphWeights | None = None,
        match_cfg: MatchConfig | None = None,
    ):
        self.skeleton = skeleton
        self.subdivided = subdivided
        self.camera = camera
        self.weights = weights or GraphWeights()
        self.match_cfg = match_cfg or MatchConfig()
        self.keyframes: list[Keyframe] = []

    def __len__(self):
        return len(self.keyframes)

    def add_keyframe(self, measured_pose: Pose, frame: HeatmapFrame) -> int:
        """Append a keyframe; derive the relative measurement and seed the estimate."""
        kf_id = len(self.keyframes)
        if kf_id == 0:
            kf = Keyframe(0, measured_pose, None, frame, measured_pose)
        else:
            prev = self.keyframes[-1]
            rel = relative_pose(measured_pose, prev.measured_pose)
            estimate = compose(prev.estimate, rel.inverse())
            kf = Keyframe(kf_id, measured_pose, rel, frame, estimate)
        self.keyframes.append(kf)
        return kf_id

    def estimates(self) -> list[Pose]:
        return [kf.estimate for kf in self.keyframes]

    # -- correspondences -------------------------------------------------------

    def _match(self, t: np.ndarray, q: np.ndarray) -> _Stacked:
        """Match every keyframe at the estimates (t, q) and stack the rows."""
        idx, pts, mat, wts = [], [], [], []
        sp = np.sqrt(self.weights.beta_p)
        sl = np.sqrt(self.weights.beta_line)
        for i, kf in enumerate(self.keyframes):
            # one call per keyframe through the module global, which tests and
            # tracing wrap
            m = match_frame_arrays(
                self.skeleton, self.subdivided, Pose(t[i], q[i]), self.camera, kf.frame, self.match_cfg
            )
            if len(m) == 0:
                continue
            idx.append(np.full(len(m), i, np.int64))
            pts.append(m.points3d)
            mat.append(m.matched)
            wts.append(np.where(m.kinds == int(CorrespondenceKind.POINT), sp, sl))
        if not idx:
            return _Stacked(np.zeros(0, np.int64), np.zeros((0, 3)), np.zeros((0, 2)), np.zeros(0))
        return _Stacked(np.concatenate(idx), np.vstack(pts), np.vstack(mat), np.concatenate(wts))

    def _measurement_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        rels = [kf.relative_measurement for kf in self.keyframes[1:]]
        if not rels:
            return np.zeros((0, 3)), np.zeros((0, 4))
        return np.stack([r.t for r in rels]), np.stack([r.q for r in rels])

    # -- cost -----------------------------------------------------------------

    def _cost_of(self, t, q, stacked: _Stacked, meas_t, meas_q) -> float:
        sqrt_bt = np.sqrt(self.weights.beta_t)
        sqrt_br = np.sqrt(self.weights.beta_rot)
        cost = 0.0
        if stacked.count:
            r, ok, _ = _image_forward(
                t, q, stacked.kf_idx, stacked.points3d, stacked.matched, stacked.weights, self.camera, False
            )
            if not ok.all():
                return np.inf
            cost += float(np.sum(r * r))
        if meas_t.shape[0]:
            r, _, _ = _relative_forward(t, q, meas_t, meas_q, sqrt_bt, sqrt_br, False)
            cost += float(np.sum(r * r))
        return cost

    def total_cost(self) -> float:
        """Re-match all frames at the current estimates and evaluate the
        objective; this is the initial cost `optimize` would report."""
        if not self.keyframes:
            raise ValueError("empty graph")
        t = np.array([kf.estimate.t for kf in self.keyframes])
        q = np.array([kf.estimate.q for kf in self.keyframes])
        meas_t, meas_q = self._measurement_arrays()
        return self._cost_of(t, q, self._match(t, q), meas_t, meas_q)

    # -- Gauss-Newton ----------------------------------------------------------

    def _normal_equations(self, t, q, stacked: _Stacked, meas_t, meas_q):
        n = len(self.keyframes)
        h_diag = np.zeros((n, 6, 6))
        h_off = np.zeros((max(n - 1, 0), 6, 6))
        g = np.zeros((n, 6))
        cost = 0.0
        if stacked.count:
            # no depth check: every row was matched in view at these same
            # estimates, so it lies in front of the camera
            r, _, jac = _image_forward(
                t, q, stacked.kf_idx, stacked.points3d, stacked.matched, stacked.weights, self.camera, True
            )
            cost += float(np.sum(r * r))
            jj = np.einsum("mka,mkb->mab", jac, jac)
            jr = np.einsum("mka,mk->ma", jac, r)
            h_diag += _segment_sum(jj, stacked.kf_idx, n)
            g += _segment_sum(jr, stacked.kf_idx, n)
        if n > 1:
            sqrt_bt = np.sqrt(self.weights.beta_t)
            sqrt_br = np.sqrt(self.weights.beta_rot)
            r, j_cur, j_prev = _relative_forward(t, q, meas_t, meas_q, sqrt_bt, sqrt_br, True)
            cost += float(np.sum(r * r))
            h_diag[1:] += np.einsum("ikp,ikq->ipq", j_cur, j_cur)
            h_diag[:-1] += np.einsum("ikp,ikq->ipq", j_prev, j_prev)
            h_off += np.einsum("ikp,ikq->ipq", j_prev, j_cur)
            g[1:] += np.einsum("ikp,ik->ip", j_cur, r)
            g[:-1] += np.einsum("ikp,ik->ip", j_prev, r)
        return h_diag, h_off, g, cost

    @staticmethod
    def _solve_banded(h_diag, h_off, g, damping):
        n = h_diag.shape[0]
        bandwidth = min(11, 6 * n - 1)
        ab = np.zeros((bandwidth + 1, 6 * n))
        for a in range(6):
            for b in range(a + 1):
                ab[a - b, b::6] = h_diag[:, a, b]
        if n > 1:
            for p in range(6):
                for qq in range(6):
                    ab[6 + p - qq, qq::6][: n - 1] = h_off[:, qq, p]
        ab[0, :] += damping
        delta = solveh_banded(ab, -g.ravel(), lower=True)
        return delta.reshape(n, 6)

    def optimize(self, solver_cfg: SolverConfig | None = None) -> OptimizeReport:
        """Damped Gauss-Newton over all keyframe estimates."""
        cfg = solver_cfg or SolverConfig()
        if not self.keyframes:
            raise ValueError("empty graph")
        t = np.array([kf.estimate.t for kf in self.keyframes])
        q = np.array([kf.estimate.q for kf in self.keyframes])
        meas_t, meas_q = self._measurement_arrays()
        lam = cfg.damping_floor
        costs: list[float] = []  # initial cost, then one per accepted step
        termination = "max_iterations"
        iterations = 0
        n_corr = 0

        for _ in range(cfg.max_iterations):
            stacked = self._match(t, q)
            n_corr = stacked.count
            if n_corr == 0:
                # only relative constraints remain: the global gauge is free
                if not costs:
                    costs.append(self._cost_of(t, q, stacked, meas_t, meas_q))
                termination = "rank_deficient"
                break
            h_diag, h_off, g, cost0 = self._normal_equations(t, q, stacked, meas_t, meas_q)
            if not costs:
                costs.append(cost0)

            accepted = False
            solved = False
            for _trial in range(14):
                try:
                    delta = self._solve_banded(h_diag, h_off, g, lam)
                except LinAlgError:
                    lam = max(lam * 10.0, 1e-10)
                    continue
                if not np.all(np.isfinite(delta)):
                    lam = max(lam * 10.0, 1e-10)
                    continue
                solved = True
                t_new = t + delta[:, :3]
                q_new = quaternion_boxplus(q, delta[:, 3:])
                cost1 = self._cost_of(t_new, q_new, stacked, meas_t, meas_q)
                if np.isfinite(cost1) and cost1 <= cost0:
                    accepted = True
                    break
                lam = max(lam * 10.0, 1e-10)
            if not accepted:
                termination = "no_descent" if solved else "solve_failure"
                break

            t, q = t_new, q_new
            iterations += 1
            costs.append(cost1)
            lam = max(lam / 3.0, cfg.damping_floor)
            if float(np.linalg.norm(delta)) < cfg.step_tolerance:
                termination = "step_tolerance"
                break
            if abs(cost0 - cost1) <= cfg.cost_tolerance * max(cost0, 1e-300):
                termination = "cost_tolerance"
                break

        if iterations > 0:  # zero accepted steps leaves the estimates untouched
            for i, kf in enumerate(self.keyframes):
                kf.estimate = Pose(t[i], q[i])
        return OptimizeReport(
            iterations=iterations,
            initial_cost=float(costs[0]),
            final_cost=float(costs[-1]),
            termination=termination,
            costs=[float(c) for c in costs],
            n_correspondences=int(n_corr),
        )
