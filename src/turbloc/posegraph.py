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

`optimize` evaluates it in three steps, and computes each term once:

- `_pose_terms`, what depends on the estimates (t, q) alone: each
  keyframe's world-to-camera rotation, and the relative poses with their
  residuals and what their Jacobians need;
- `PoseGraph._residuals`, what a pass's correspondences add: the cost and
  the weighted image residuals, with the camera-frame points and depths
  their Jacobian needs.  A row behind its camera makes the cost inf; rows
  are matched in view, so only a trial step can do that, and it is
  rejected;
- `PoseGraph._system`, the normal equations of those residuals, from
  analytic Jacobians with respect to each keyframe's local 6-DoF
  parameterization (translation plus quaternion boxplus).

Each outer iteration (pass) re-establishes correspondences at the current
estimates (ICP-style) and computes their residuals.  The stall test (below)
reads only their cost, so a pass that stalls ends there, with no system
built.  A pass that goes on builds the system, solves it in banded form
(block-tridiagonal), and accepts the step only if the cost on the fixed
correspondences does not increase (Levenberg-style diagonal damping, never
below `DAMPING_FLOOR`).  Each trial pose gets its own pose terms, and those
of the accepted trial are carried to the next pass, which computes only its
image residuals afresh.  No correspondence outlives its iteration, so
`optimize` depends only on the keyframes' estimates, measurements and
frames.

Matching is most of a pass's time (BENCH_pose_stage.json,
BENCH_pass_cost.json).  The rest of a pass keeps the rounding of its first
form, einsums over dense Jacobians, to the bit, because the flights are
chaotic in round-off: explicit products sum an einsum's terms in its order
(sequentially, in index order; `matmul` rounds differently).  Only the sign
of an exact zero Jacobian entry can differ, and the sums of H and g, which
start at +0, do not see it.

`OptimizeReport.termination` says why `optimize` stopped:

- ``step_tolerance``: the accepted step's norm fell below `STEP_TOLERANCE`;
- ``cost_tolerance``: the accepted step changed the cost on its pass's
  correspondences by at most `COST_TOLERANCE`, relative;
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
COST_TOLERANCE = 1e-6  # relative cost-change threshold
# update-norm threshold (m and rad); above the ~0.3 um pose scatter that
# float32 heatmaps leave at a noise-free optimum
STEP_TOLERANCE = 1e-6


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

    def __post_init__(self):
        if not isinstance(self.max_iterations, (int, np.integer)) or isinstance(self.max_iterations, bool):
            raise ValueError("max_iterations must be an integer")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class Keyframe:
    id: int
    measured_pose: Pose  # GPS/IMU absolute estimate, only used via the relative offset
    frame: HeatmapFrame
    estimate: Pose
    # ((frame, t bytes, q bytes, skeleton, subdivided, camera, config),
    # FrameMatches) of the last match, see PoseGraph._match
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

class _Rows(NamedTuple):
    """One pass's correspondences, stacked over the keyframes."""

    kf_idx: np.ndarray  # (m,) keyframe of each row
    points3d: np.ndarray  # (m, 3)
    matched: np.ndarray  # (m, 2)
    weights: np.ndarray  # (m,) sqrt(beta_p) or sqrt(beta_line)


class _PoseTerms(NamedTuple):
    """The terms of the objective that depend on the estimates alone, at one
    pose (t, q) of the graph: computed once for each pose `optimize` visits
    and, when a trial step is accepted, carried to the next pass."""

    t: np.ndarray  # (n, 3)
    q: np.ndarray  # (n, 4)
    rt: np.ndarray  # (9, n) world-to-camera rotation of each keyframe, rt[3 i + j] = R[j, i]
    rot_hat: np.ndarray  # (n - 1, 3, 3) rotation of each relative pose
    t_hat: np.ndarray  # (n - 1, 3) each previous keyframe in its current one's frame
    q_err: np.ndarray  # (n - 1, 4) relative rotation error, scalar part >= 0
    r_rel: np.ndarray  # (n - 1, 6) weighted relative-pose residuals


def _pose_terms(t, q, meas_t, meas_q_inv, sqrt_bt, sqrt_br) -> _PoseTerms:
    """`_PoseTerms` at (t, q) against the relative measurements (meas_t,
    conjugate of meas_q); row i of the relative terms couples keyframes
    (i, i+1)."""
    n = t.shape[0]
    t_hat, q_hat = relative_rows(t[1:], q[1:], t[:-1], q[:-1])
    q_err = quat_multiply(q_hat, meas_q_inv)
    flip = np.where(q_err[:, :1] < 0.0, -1.0, 1.0)
    q_err = q_err * flip
    r_rel = np.concatenate([sqrt_bt * (t_hat - meas_t), sqrt_br * 2.0 * q_err[:, 1:]], axis=1)
    # the keyframes' rotations and the relative ones in one call; the
    # keyframes' are transposed and flattened, for each row to gather its own
    rot = quat_to_matrix(np.concatenate([q, q_hat]))
    return _PoseTerms(t, q, rot[:n].T.reshape(9, n), rot[n:], t_hat, q_err, r_rel)


class _ImageTerms(NamedTuple):
    """The weighted reprojection residuals of a pass's rows at one pose, and
    what their Jacobian needs; every (m,) array runs over the rows."""

    r: np.ndarray  # (m, 2)
    ok: np.ndarray  # (m,) in front of the camera
    rt: np.ndarray  # (3, 3, m) world-to-camera rotation of each row's keyframe
    x: np.ndarray  # camera-frame point
    y: np.ndarray
    z: np.ndarray
    safe_z: np.ndarray  # z, or 1 behind the camera


def _image_residuals(pose: _PoseTerms, rows: _Rows, k: CameraIntrinsics) -> _ImageTerms:
    """`_ImageTerms` of `rows` at `pose`."""
    m = rows.kf_idx.shape[0]
    rt = pose.rt.take(rows.kf_idx, axis=1).reshape(3, 3, m)
    d = (rows.points3d - pose.t.take(rows.kf_idx, axis=0)).T
    x, y, z = np.einsum("ijm,jm->im", rt, d)
    ok = z > EPS_DEPTH
    safe_z = np.where(ok, z, 1.0)
    u = k.fx * x / safe_z + k.cx
    v = k.fy * y / safe_z + k.cy
    r = rows.weights[:, None] * (np.stack([u, v], axis=1) - rows.matched)
    return _ImageTerms(r, ok, rt, x, y, z, safe_z)


def _image_jacobian(img: _ImageTerms, w: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    """Jacobian (2, 6, m) of the weighted residuals `img` with weights w (m,):
    rows run along the last axis."""
    rt, x, y, z, safe_z = img[2:]
    # d(u, v)/d(p_c) = [[a, 0, cz], [0, b, dz]] times -R^T (translation) and
    # skew(p_c) (rotation), written out without the zero terms, each entry
    # summed in the order an einsum over the full matrices sums it
    a = k.fx / safe_z
    cz = -k.fx * x / safe_z**2
    b = k.fy / safe_z
    dz = -k.fy * y / safe_z**2
    nrt = -rt
    jac = np.empty((2, 6, x.shape[0]))
    jac[0, :3] = a * nrt[0] + cz * nrt[2]
    jac[1, :3] = b * nrt[1] + dz * nrt[2]
    jac[0, 3] = cz * -y
    jac[0, 4] = a * -z + cz * x
    jac[0, 5] = a * y
    jac[1, 3] = b * z + dz * -y
    jac[1, 4] = dz * x
    jac[1, 5] = b * -x
    jac *= w
    return jac


def _relative_jacobians(pose: _PoseTerms, sqrt_bt: float, sqrt_br: float) -> tuple[np.ndarray, np.ndarray]:
    """Jacobian blocks (n-1, 6, 6) of `pose.r_rel`: J_cur differentiates row i
    with respect to the later (current) keyframe i+1, J_prev with respect to
    the earlier one."""
    n1 = pose.t_hat.shape[0]
    rot_cur_t = pose.rt.reshape(3, 3, -1)[..., 1:].transpose(2, 0, 1)
    w_e, v_e = pose.q_err[:, 0], pose.q_err[:, 1:]
    sk = skew(np.concatenate([pose.t_hat, v_e]))
    skew_t, skew_v = sk[:n1], sk[n1:]
    w_eye = w_e[:, None, None] * _EYE
    j_cur = np.zeros((n1, 6, 6))
    j_prev = np.zeros((n1, 6, 6))
    j_cur[:, :3, :3] = -sqrt_bt * rot_cur_t
    j_cur[:, :3, 3:] = sqrt_bt * skew_t
    j_cur[:, 3:, 3:] = sqrt_br * (-w_eye + skew_v)
    j_prev[:, :3, :3] = sqrt_bt * rot_cur_t
    j_prev[:, 3:, 3:] = sqrt_br * np.einsum("nij,njk->nik", w_eye - skew_v, pose.rot_hat)
    return j_cur, j_prev


def _median_motion(r_old: np.ndarray, r_new: np.ndarray, w: np.ndarray) -> float:
    """Median image motion (px) between weighted residuals (m, 2) of the same
    rows, over the rows with weight > 0; inf when there are none."""
    live = w > 0.0
    if not live.any():
        return np.inf
    dx, dy = (r_new - r_old).compress(live, axis=0).T
    # the reference's np.median of np.linalg.norm(axis=1), the norm's two
    # squares added by hand: numpy reduces a length-2 axis slowly
    return float(np.median(np.sqrt(dx * dx + dy * dy) / w.compress(live)))


def _segment_sum(values: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Sum the columns of `values` (d, m) into n bins given by idx (m,),
    giving (d, n); each bin sums its columns in order."""
    d = values.shape[0]
    bins = (np.arange(d)[:, None] * n + idx).ravel()
    return np.bincount(bins, weights=values.ravel(), minlength=d * n).reshape(d, n)


_EYE = np.eye(3)
_EYE.flags.writeable = False

# the lower triangle of a 6x6 block, row by row, and for each of the 36
# entries of the block, row-major, its place among those 21
_TRIL = np.tril_indices(6)
_MIRROR = np.zeros((6, 6), dtype=np.int64)
_MIRROR[_TRIL] = _MIRROR.T[_TRIL] = np.arange(21)
_MIRROR = _MIRROR.ravel()
_TRIL[0].flags.writeable = _TRIL[1].flags.writeable = _MIRROR.flags.writeable = False


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


class PoseGraph:
    """Single-writer pose graph over keyframes of one flight.

    The GPS/IMU relative measurements are rows meas_t (n - 1, 3) and meas_q
    (n - 1, 4): row i is keyframe i in keyframe i+1's frame, the measured
    poses' `relative_pose`, appended by `add_keyframe`."""

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
        self.meas_t, self.meas_q = np.empty((0, 3)), np.empty((0, 4))

    def __len__(self):
        return len(self.keyframes)

    def add_keyframe(self, measured_pose: Pose, frame: HeatmapFrame) -> int:
        """Append a keyframe; derive the relative measurement and seed the estimate."""
        if (frame.width, frame.height) != (self.camera.width, self.camera.height):
            raise ValueError(
                f"frame is {frame.width}x{frame.height}, the camera {self.camera.width}x{self.camera.height}"
            )
        kf_id = len(self.keyframes)
        estimate = measured_pose
        if kf_id:
            prev = self.keyframes[-1]
            rel = relative_pose(measured_pose, prev.measured_pose)
            estimate = compose(prev.estimate, rel.inverse())
            self.meas_t, self.meas_q = np.vstack([self.meas_t, rel.t]), np.vstack([self.meas_q, rel.q])
        self.keyframes.append(Keyframe(kf_id, measured_pose, frame, estimate))
        return kf_id

    def estimates(self) -> list[Pose]:
        return [kf.estimate for kf in self.keyframes]

    # -- correspondences -------------------------------------------------------

    def _match(self, t: np.ndarray, q: np.ndarray) -> _Rows:
        """Match every keyframe at the estimates (t, q) and stack the rows.

        Each keyframe keeps its last match, keyed on its frame, the bytes of
        the pose it was matched at (t and q normalised, all rows by one
        `quat_normalize`, as `Pose` normalises) and the graph's skeleton,
        subdivided model, camera and match config.  The frame, skeleton and
        subdivided model compare by identity, the camera and config by
        value: a match depends only on their values.  The keyframes whose
        key changed are projected by one `project_model` call on those
        normalised rows, and each is matched with its rows of that view; the
        others are served.

        A call that stops without a step on its last pass (`stalled`,
        `no_descent`, `solve_failure`, `rank_deficient`) leaves every
        keyframe at the pose of its last match, up to the bits of q, so the
        next call's first pass serves the old keyframes, with two
        exceptions.  Every keyframe is matched again if the graph's
        skeleton or subdivided model was reassigned, or its camera or
        config replaced by one of other values.  And a keyframe that the
        call moved is matched again when normalising its q once more
        changes a bit: the call writes q back through `Pose`, which
        normalises, and this method normalises it again, but
        `quat_normalize` is not idempotent to the bit (a third of
        once-normalised random rows change, 3% of twice-normalised ones;
        7 of 389 old keyframes over the 12-keyframe incremental flights of
        tests/flight_digest.py).
        """
        t = np.asarray(t, dtype=float)
        unit = quat_normalize(q)
        source = (self.skeleton, self.subdivided, self.camera, self.match_cfg)
        keys = [(kf.frame, t[i].tobytes(), unit[i].tobytes(), *source) for i, kf in enumerate(self.keyframes)]
        missed = [i for i, kf in enumerate(self.keyframes) if kf.last_match is None or kf.last_match[0] != keys[i]]
        if missed:
            view = project_model(self.skeleton, self.subdivided, t[missed], unit[missed], self.camera, self.match_cfg)
            for j, i in enumerate(missed):
                kf = self.keyframes[i]
                # through the module global, which tests and tracing wrap
                matches = match_frame_arrays(
                    self.skeleton, self.subdivided, (view, j), self.camera, kf.frame, self.match_cfg
                )
                kf.last_match = keys[i], matches
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

    # -- objective --------------------------------------------------------------

    def _residuals(self, pose: _PoseTerms, rows: _Rows) -> tuple[float, _ImageTerms]:
        """The objective at `pose` on the correspondences `rows`: the cost, inf
        if a row lies behind its camera, and the rows' `_ImageTerms`."""
        img = _image_residuals(pose, rows, self.camera)
        cost = float((img.r * img.r).sum()) + float((pose.r_rel * pose.r_rel).sum()) if img.ok.all() else np.inf
        return cost, img

    def _system(self, pose: _PoseTerms, img: _ImageTerms, rows: _Rows):
        """The Gauss-Newton system (h_diag, h_off, g) of the residuals `img`
        of `rows` and the relative residuals at `pose`."""
        n, m = pose.t.shape[0], img.r.shape[0]
        # each row's lower triangle of its 6x6 block of J^T J and its 6
        # entries of J^T r (the terms of u, then of v, added as an einsum over
        # them adds them), all 27 summed per keyframe in one pass; the
        # products commute exactly, so the mirrored upper triangle is the
        # einsum's to the bit
        jac = _image_jacobian(img, rows.weights, self.camera)
        per_row = np.empty((27, m))
        lower = jac.take(_TRIL[0], axis=1) * jac.take(_TRIL[1], axis=1)
        np.add(lower[0], lower[1], out=per_row[:21])
        np.multiply(jac[0], img.r[:, 0], out=per_row[21:])
        per_row[21:] += jac[1] * img.r[:, 1]
        sums = _segment_sum(per_row, rows.kf_idx, n)
        h_diag, g = sums.take(_MIRROR, axis=0).T.reshape(n, 6, 6), sums[21:].T
        j_cur, j_prev = _relative_jacobians(pose, np.sqrt(self.weights.beta_t), np.sqrt(self.weights.beta_rot))
        h_diag[1:] += np.einsum("ikp,ikq->ipq", j_cur, j_cur)
        h_diag[:-1] += np.einsum("ikp,ikq->ipq", j_prev, j_prev)
        h_off = np.einsum("ikp,ikq->ipq", j_prev, j_cur)
        r_rel = pose.r_rel
        g[1:] += np.einsum("ikp,ik->ip", j_cur, r_rel)
        g[:-1] += np.einsum("ikp,ik->ip", j_prev, r_rel)
        return h_diag, h_off, g

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
        sqrt_w = np.sqrt(self.weights.beta_t), np.sqrt(self.weights.beta_rot)
        relative = (self.meas_t, quat_conjugate(self.meas_q), *sqrt_w)
        pose = _pose_terms(
            np.array([kf.estimate.t for kf in self.keyframes]),
            np.array([kf.estimate.q for kf in self.keyframes]),
            *relative,
        )
        lam = DAMPING_FLOOR
        costs: list[float] = []  # initial cost, then one per accepted step
        termination = "max_iterations"
        prev_cost0 = np.inf  # cost of the previous pass's fresh correspondences
        motion = np.inf  # median image motion (px) of the last accepted step

        for _ in range(cfg.max_iterations):
            rows = self._match(pose.t, pose.q)
            cost0, img0 = self._residuals(pose, rows)
            if not costs:
                costs.append(cost0)
            if rows.kf_idx.size == 0:
                # only relative constraints remain: the global gauge is free
                termination = "rank_deficient"
                break
            # the matcher's result depends only on its arguments (a kept
            # match is what it would compute), so cost0 is one function of
            # the estimates and comparable across passes
            if cost0 >= prev_cost0 and motion < STALL_MOTION_PX:
                termination = "stalled"
                break

            system = self._system(pose, img0, rows)
            solved = False
            for _trial in range(14):
                try:
                    delta = self._solve_banded(*system, lam)
                except LinAlgError:
                    delta = None
                if delta is not None and np.isfinite(delta).all():
                    solved = True
                    trial = _pose_terms(pose.t + delta[:, :3], quaternion_boxplus(pose.q, delta[:, 3:]), *relative)
                    cost1, img1 = self._residuals(trial, rows)
                    if np.isfinite(cost1) and cost1 <= cost0:
                        break
                lam *= 10.0
            else:
                termination = "no_descent" if solved else "solve_failure"
                break

            pose = trial
            costs.append(cost1)
            prev_cost0 = cost0
            motion = _median_motion(img0.r, img1.r, rows.weights)
            lam = max(lam / 3.0, DAMPING_FLOOR)
            step = delta.ravel()  # np.linalg.norm's own arithmetic
            if math.sqrt(step.dot(step)) < STEP_TOLERANCE:
                termination = "step_tolerance"
                break
            if abs(cost0 - cost1) <= COST_TOLERANCE * max(cost0, 1e-300):
                termination = "cost_tolerance"
                break

        if len(costs) > 1:  # zero accepted steps leaves the estimates untouched
            for i, kf in enumerate(self.keyframes):
                kf.estimate = Pose(pose.t[i], pose.q[i])
        return OptimizeReport(
            iterations=len(costs) - 1,
            initial_cost=float(costs[0]),
            final_cost=float(costs[-1]),
            termination=termination,
            costs=[float(c) for c in costs],
            n_correspondences=int(rows.kf_idx.size),
        )
