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

One function, `PoseGraph._objective`, evaluates it for `optimize`: the
cost, the weighted image residuals and, on request, the normal equations.
A row behind its camera makes the cost inf; rows are matched in view, so
only a trial step can do that, and it is rejected.

Each outer iteration (pass) re-establishes correspondences at the current
estimates (ICP-style), builds the normal equations from analytic Jacobians
with respect to each keyframe's local 6-DoF parameterization (translation
plus quaternion boxplus), solves the block-tridiagonal system in banded
form, and accepts the step only if the cost on the fixed correspondences
does not increase (Levenberg-style diagonal damping, never below
`DAMPING_FLOOR`).  No correspondence outlives its iteration, so `optimize`
depends only on the keyframes' estimates, measurements and frames.

A pass's time splits into matching and the graph side.  Matching is one
`project_model` call over the keyframes not at their last matched pose (the
pose stage, for all of them in one array pass), then one
`match_frame_arrays` call per such keyframe with its view (the frame
stage); it is most of the time of `optimize` (BENCH_pose_stage.json).  The
graph side is `_objective` with and without the system, `_solve_banded`,
`quaternion_boxplus` and `_median_motion`, written for few numpy calls.  The
graph side keeps the rounding of its first form, einsums over dense
Jacobians, to the bit, because the flights are chaotic in round-off: where
explicit products replace an einsum, they sum its terms in the einsum's
order (sequentially, in index order; `matmul` rounds differently).  Only the
sign of an exact zero Jacobian entry can differ, and the sums of H and g,
which start at +0, do not see it.

`OptimizeReport.termination` says why `optimize` stopped:

- ``step_tolerance``: the accepted step's norm fell below
  `SolverConfig.step_tolerance`;
- ``cost_tolerance``: the accepted step changed the cost on its pass's
  correspondences by at most `SolverConfig.cost_tolerance`, relative;
- ``stalled``: re-matching stopped making progress.  The cost of the fresh
  correspondences is not below the previous pass's, and the previous step
  moved the matched model by less than `STALL_MOTION_PX` (median over the
  rows with positive weight).  Quantised matches then cycle between
  correspondence sets and noisy heatmaps random-walk, so further passes
  change nothing that matters.  The estimates are those of the last step;
- ``max_iterations``: `SolverConfig.max_iterations` steps were taken
  without any of the above;
- ``no_descent``: no damping gave a step that did not raise the cost;
- ``solve_failure``: no damping gave a solvable, finite system;
- ``rank_deficient``: no keyframe matched anything, so the global gauge is
  free and no step is taken.

The graph is single-writer: callers must serialize add_keyframe/optimize.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded

from .geometry import (
    EPS_DEPTH,
    CameraIntrinsics,
    Pose,
    compose,
    quat_conjugate,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    quaternion_boxplus,
    relative_pose,
    relative_rows,
    skew,
)
from .heatmap import HeatmapFrame
from .matching import CorrespondenceKind, MatchConfig, match_frame_arrays, project_model
from .turbine import SubdividedModel, TurbineSkeleton

DAMPING_FLOOR = 1e-6  # minimal diagonal damping
STALL_MOTION_PX = 0.1  # model motion per pass below which re-matching has stalled


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

    def __post_init__(self):
        if not isinstance(self.max_iterations, (int, np.integer)) or isinstance(self.max_iterations, bool):
            raise ValueError("max_iterations must be an integer")
        settings = (self.max_iterations, self.cost_tolerance, self.step_tolerance)
        if not np.all(np.isfinite(settings)):
            raise ValueError("solver settings must be finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.cost_tolerance <= 0.0 or self.step_tolerance <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass
class Keyframe:
    id: int
    measured_pose: Pose  # GPS/IMU absolute estimate, only used via the relative offset
    relative_measurement: Pose | None  # previous pose in this one's frame; None iff id == 0
    frame: HeatmapFrame
    estimate: Pose
    # ((frame, t bytes, q bytes), FrameMatches, (skeleton, subdivided, camera,
    # config)) of the last match, see PoseGraph._match
    last_match: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass
class OptimizeReport:
    """What one `optimize` call did.  `termination` says why it stopped:
    step_tolerance or cost_tolerance (converged), stalled (re-matching made
    no progress), max_iterations (the cap), or no_descent, solve_failure or
    rank_deficient (no step could be taken); the module docstring defines
    each label."""

    iterations: int
    initial_cost: float
    final_cost: float
    termination: str
    costs: list = field(default_factory=list)  # initial cost, then per accepted iteration
    n_correspondences: int = 0


# ---------------------------------------------------------------------------
# residual blocks
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
    """Weighted reprojection residuals (m, 2) and optional Jacobians (m, 2, 6),
    the latter a view of a (2, 6, m) array: rows run along the last axis."""
    n, m = t.shape[0], kf_idx.shape[0]
    # world-to-camera rotation of each row, rt[i, j] = R[j, i]
    rt = quat_to_matrix(q).T.reshape(9, n).take(kf_idx, axis=1).reshape(3, 3, m)
    d = (points3d - t.take(kf_idx, axis=0)).T
    x, y, z = np.einsum("ijm,jm->im", rt, d)
    ok = z > EPS_DEPTH
    safe_z = np.where(ok, z, 1.0)
    u = k.fx * x / safe_z + k.cx
    v = k.fy * y / safe_z + k.cy
    r = w[:, None] * (np.stack([u, v], axis=1) - matched)
    if not with_jacobian:
        return r, ok, None
    # d(u, v)/d(p_c) = [[a, 0, cz], [0, b, dz]] times -R^T (translation) and
    # skew(p_c) (rotation), written out without the zero terms, each entry
    # summed in the order an einsum over the full matrices sums it
    a = k.fx / safe_z
    cz = -k.fx * x / safe_z**2
    b = k.fy / safe_z
    dz = -k.fy * y / safe_z**2
    nrt = -rt
    jac = np.empty((2, 6, m))
    jac[0, :3] = a * nrt[0] + cz * nrt[2]
    jac[1, :3] = b * nrt[1] + dz * nrt[2]
    jac[0, 3] = cz * -y
    jac[0, 4] = a * -z + cz * x
    jac[0, 5] = a * y
    jac[1, 3] = b * z + dz * -y
    jac[1, 4] = dz * x
    jac[1, 5] = b * -x
    jac *= w
    return r, ok, jac.transpose(2, 0, 1)


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
    t_hat, q_hat = relative_rows(t[1:], q[1:], t[:-1], q[:-1])
    q_err = quat_multiply(q_hat, quat_conjugate(meas_q))
    flip = np.where(q_err[:, :1] < 0.0, -1.0, 1.0)
    q_err = q_err * flip
    w_e, v_e = q_err[:, 0], q_err[:, 1:]
    r = np.concatenate([sqrt_bt * (t_hat - meas_t), sqrt_br * 2.0 * v_e], axis=1)
    if not with_jacobian:
        return r, None, None
    n1 = t_hat.shape[0]
    rot = quat_to_matrix(np.concatenate([q[1:], q_hat]))
    rot_cur_t, rot_hat = np.swapaxes(rot[:n1], -1, -2), rot[n1:]
    sk = skew(np.concatenate([t_hat, v_e]))
    skew_t, skew_v = sk[:n1], sk[n1:]
    w_eye = w_e[:, None, None] * _EYE
    j_cur = np.zeros((n1, 6, 6))
    j_prev = np.zeros((n1, 6, 6))
    j_cur[:, :3, :3] = -sqrt_bt * rot_cur_t
    j_cur[:, :3, 3:] = sqrt_bt * skew_t
    j_cur[:, 3:, 3:] = sqrt_br * (-w_eye + skew_v)
    j_prev[:, :3, :3] = sqrt_bt * rot_cur_t
    j_prev[:, 3:, 3:] = sqrt_br * np.einsum("nij,njk->nik", w_eye - skew_v, rot_hat)
    return r, j_cur, j_prev


def _median_motion(r_old: np.ndarray, r_new: np.ndarray, w: np.ndarray) -> float:
    """Median image motion (px) between weighted residuals (m, 2) of the same
    rows, over the rows with weight > 0; inf when there are none."""
    live = w > 0.0
    if not live.any():
        return np.inf
    dx, dy = (r_new - r_old).compress(live, axis=0).T
    # np.median of np.linalg.norm, by their own arithmetic
    motion = np.sqrt(dx * dx + dy * dy) / w.compress(live)
    h = motion.size // 2
    if motion.size % 2:
        motion.partition(h)
        return float(motion[h])
    motion.partition((h - 1, h))
    return float((motion[h - 1] + motion[h]) / 2.0)


def _segment_sum(values: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Sum the columns of `values` (d, m) into n bins given by idx (m,),
    giving (d, n); each bin sums its columns in order."""
    d = values.shape[0]
    bins = (np.arange(d)[:, None] * n + idx).ravel()
    return np.bincount(bins, weights=values.ravel(), minlength=d * n).reshape(d, n)


_EYE = np.eye(3)
_EYE.flags.writeable = False


@lru_cache(maxsize=64)
def _band_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]:
    """Where `_solve_banded` puts H for n keyframes in lower band storage
    ab[r, c] = H[c + r, c]: the flat indices into ab, into h_diag (n, 36)
    and into h_off (n - 1, 36), and ab's shape.  The lower triangle of each
    diagonal block goes first, then the block below it (h_off transposed)."""
    a, b = np.tril_indices(6)
    p, q = np.divmod(np.arange(36), 6)
    shape = (min(11, 6 * n - 1) + 1, 6 * n)
    first = 6 * np.arange(n)[:, None]
    rows = np.concatenate([np.broadcast_to(a - b, (n, a.size)), np.broadcast_to(6 + p - q, (n - 1, p.size))], axis=None)
    cols = np.concatenate([first + b, first[:-1] + q], axis=None)
    layout = (np.ravel_multi_index((rows, cols), shape), 6 * a + b, 6 * q + p, shape)
    for index in layout[:3]:
        index.flags.writeable = False
    return layout


def _served(last_match: tuple | None, key: tuple, source: tuple) -> bool:
    """Whether a keyframe's last match was made at `key` with the objects of
    `source`, compared by identity (`==` on a skeleton would compare arrays)."""
    return last_match is not None and last_match[0] == key and all(map(operator.is_, last_match[2], source))


class _Rows(NamedTuple):
    """One pass's correspondences, stacked in `_image_forward`'s argument order."""

    kf_idx: np.ndarray  # (m,) keyframe of each row
    points3d: np.ndarray  # (m, 3)
    matched: np.ndarray  # (m, 2)
    weights: np.ndarray  # (m,) sqrt(beta_p) or sqrt(beta_line)


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
        if (frame.width, frame.height) != (self.camera.width, self.camera.height):
            raise ValueError(
                f"frame is {frame.width}x{frame.height}, the camera {self.camera.width}x{self.camera.height}"
            )
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

    def _match(self, t: np.ndarray, q: np.ndarray) -> _Rows:
        """Match every keyframe at the estimates (t, q) and stack the rows.

        Each keyframe keeps its last match, keyed on its frame, the bytes of
        the pose it was matched at (t and q normalised, all rows by one
        `quat_normalize`, as `Pose` normalises) and the graph's skeleton,
        subdivided model, camera and match config, compared by identity.
        The keyframes whose key changed are projected by one `project_model`
        call and each is matched with its view; the others are served.  A
        call that stops without a step on its last pass (`stalled`,
        `no_descent`, `solve_failure`, `rank_deficient`) leaves every
        keyframe at the pose of its last match, so the next call's first pass
        matches only the new keyframes, unless one of those four attributes
        was reassigned in between.
        """
        t = np.asarray(t, dtype=float)
        unit = quat_normalize(q)
        source = (self.skeleton, self.subdivided, self.camera, self.match_cfg)
        keys = [(kf.frame, t[i].tobytes(), unit[i].tobytes()) for i, kf in enumerate(self.keyframes)]
        missed = [i for i, kf in enumerate(self.keyframes) if not _served(kf.last_match, keys[i], source)]
        if missed:
            views = project_model(self.skeleton, self.subdivided, t[missed], q[missed], self.camera, self.match_cfg)
            for i, view in zip(missed, views):
                kf = self.keyframes[i]
                # through the module global, which tests and tracing wrap
                matches = match_frame_arrays(
                    self.skeleton, self.subdivided, view, self.camera, kf.frame, self.match_cfg
                )
                kf.last_match = keys[i], matches, source
        found = [kf.last_match[1] for kf in self.keyframes]
        kinds = np.concatenate([m.kinds for m in found])
        return _Rows(
            np.repeat(np.arange(len(found)), [len(m) for m in found]),
            np.concatenate([m.points3d for m in found]),
            np.concatenate([m.matched for m in found]),
            np.where(
                kinds == int(CorrespondenceKind.POINT), np.sqrt(self.weights.beta_p), np.sqrt(self.weights.beta_line)
            ),
        )

    def _measurement_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        rels = [kf.relative_measurement for kf in self.keyframes[1:]]
        return np.array([r.t for r in rels]).reshape(-1, 3), np.array([r.q for r in rels]).reshape(-1, 4)

    # -- objective --------------------------------------------------------------

    def _objective(self, t, q, rows: _Rows, meas_t, meas_q, with_system: bool = False):
        """Objective at (t, q) on the correspondences `rows`.

        Returns the cost and the weighted image residuals (m, 2), and with
        `with_system` also the Gauss-Newton system (h_diag, h_off, g) of those
        residuals.  The cost is inf if a row lies behind its camera.
        """
        sqrt_bt, sqrt_br = np.sqrt(self.weights.beta_t), np.sqrt(self.weights.beta_rot)
        r_img, ok, jac = _image_forward(t, q, *rows, self.camera, with_system)
        r_rel, j_cur, j_prev = _relative_forward(t, q, meas_t, meas_q, sqrt_bt, sqrt_br, with_system)
        cost = float((r_img * r_img).sum()) + float((r_rel * r_rel).sum()) if ok.all() else np.inf
        if not with_system:
            return cost, r_img
        n, m = t.shape[0], r_img.shape[0]
        # each row's 6x6 block of J^T J and its 6 entries of J^T r (the terms
        # of u, then of v, added as an einsum over them adds them), then all
        # 42 summed per keyframe in one pass
        j0, j1 = jac.transpose(1, 2, 0)
        per_row = np.empty((7, 6, m))
        np.multiply(j0[:, None], j0, out=per_row[:6])
        per_row[:6] += j1[:, None] * j1
        np.multiply(j0, r_img[:, 0], out=per_row[6])
        per_row[6] += j1 * r_img[:, 1]
        sums = _segment_sum(per_row.reshape(42, m), rows.kf_idx, n).reshape(7, 6, n)
        h_diag, g = sums[:6].transpose(2, 0, 1), sums[6].T
        h_diag[1:] += np.einsum("ikp,ikq->ipq", j_cur, j_cur)
        h_diag[:-1] += np.einsum("ikp,ikq->ipq", j_prev, j_prev)
        h_off = np.einsum("ikp,ikq->ipq", j_prev, j_cur)
        g[1:] += np.einsum("ikp,ik->ip", j_cur, r_rel)
        g[:-1] += np.einsum("ikp,ik->ip", j_prev, r_rel)
        return cost, r_img, (h_diag, h_off, g)

    # -- Gauss-Newton ----------------------------------------------------------

    @staticmethod
    def _solve_banded(h_diag, h_off, g, damping):
        n = h_diag.shape[0]
        at, diag_at, off_at, shape = _band_layout(n)
        ab = np.zeros(shape)
        ab.put(at, np.concatenate([h_diag.reshape(n, 36)[:, diag_at], h_off.reshape(n - 1, 36)[:, off_at]], axis=None))
        ab[0] += damping
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
        lam = DAMPING_FLOOR
        costs: list[float] = []  # initial cost, then one per accepted step
        termination = "max_iterations"
        iterations = 0
        n_corr = 0
        prev_cost0 = np.inf  # cost of the previous pass's fresh correspondences
        motion = np.inf  # median image motion (px) of the last accepted step

        for _ in range(cfg.max_iterations):
            rows = self._match(t, q)
            n_corr = rows.kf_idx.size
            if n_corr == 0:
                # only relative constraints remain: the global gauge is free
                if not costs:
                    costs.append(self._objective(t, q, rows, meas_t, meas_q)[0])
                termination = "rank_deficient"
                break
            cost0, r0, (h_diag, h_off, g) = self._objective(t, q, rows, meas_t, meas_q, with_system=True)
            if not costs:
                costs.append(cost0)
            # the matcher's result depends only on its arguments (a kept
            # match is what it would compute), so cost0 is one function of
            # the estimates and comparable across passes
            if cost0 >= prev_cost0 and motion < STALL_MOTION_PX:
                termination = "stalled"
                break

            accepted = False
            solved = False
            for _trial in range(14):
                try:
                    delta = self._solve_banded(h_diag, h_off, g, lam)
                except LinAlgError:
                    delta = None
                if delta is not None and np.isfinite(delta).all():
                    solved = True
                    t_new = t + delta[:, :3]
                    q_new = quaternion_boxplus(q, delta[:, 3:])
                    cost1, r1 = self._objective(t_new, q_new, rows, meas_t, meas_q)
                    if np.isfinite(cost1) and cost1 <= cost0:
                        accepted = True
                        break
                lam *= 10.0
            if not accepted:
                termination = "no_descent" if solved else "solve_failure"
                break

            t, q = t_new, q_new
            iterations += 1
            costs.append(cost1)
            prev_cost0 = cost0
            motion = _median_motion(r0, r1, rows.weights)
            lam = max(lam / 3.0, DAMPING_FLOOR)
            step = delta.ravel()  # np.linalg.norm's own arithmetic
            if math.sqrt(step.dot(step)) < cfg.step_tolerance:
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
