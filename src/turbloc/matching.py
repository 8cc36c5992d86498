"""Active-search correspondences between projected skeleton and heatmaps.

Point features search a circular window around the prediction for the pixel
with the largest value; line features are subdivided and searched along the
direction perpendicular to the projected line, sampling the channel by
bilinear interpolation.  Both searches reject matches whose best value does
not exceed the class threshold.

Tie-breaking is deterministic: point ties resolve to the pixel closest to
the prediction, then row-major order; line-sample ties resolve to the
smallest perpendicular offset, negative side first.

Point searches land on pixel centres; a log-quadratic fit around the
winning pixel then recovers the continuous peak, which is exact for the
analytically rendered Gaussians (`heatmap.PixelList.peaks`).

Matching runs in two array passes, with no loop over points, lines or line
pairs: the pose stage, `project_model`, projects many poses at once into a
`ProjectedModel`, and the frame stage, `match_frame_arrays`, matches one
frame at one pose of it (points by `_search_windows`); their docstrings give
each stage's rows.  At a few dozen rows per pose most of a pass's cost is
numpy's per-call dispatch (BENCH_pose_stage.json), hence one pose stage for
many poses, and array methods rather than the Python functions wrapping them.

The matcher keeps no state of its own: a call reads its arguments, builds
the frame's pixel list if the frame has none for lambda_point yet, and
computes.  Building the list is the one cost that the first match of a
frame pays (BENCH_stateless_matcher.json).  Repeated calls at one pose are
the caller's to avoid: `PoseGraph._match` keeps each keyframe's last match.

Tie-breaks and outputs are unchanged from the per-feature loop these passes
replaced, to the last bit, and the frame stage keeps that loop's order of
arithmetic (`value * gx * gy` left to right: precomputing `gx * gy` would
change the bits); the loop is kept as the test reference in
tests/reference_matching.py.  Two-term dot products go through `np.vecdot` or
`np.matmul`, which round like the 1-D `np.linalg.norm` and the (m, 2) @ (2,)
product of that loop; `np.linalg.norm(axis=-1)` and `np.einsum` differ in the
last bit.  `np.clip` keeps the sign of a zero it leaves in range, so a view's
window bound or bilinear weight can be -0.0 where the loop had +0.0; a
match only compares, casts and sums such values, where -0.0 acts as +0.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import CameraIntrinsics, Pose
from .heatmap import HeatmapFrame, PixelList, project_skeleton
from .turbine import LINES, POINT_CLASSES, SubdividedModel, TurbineSkeleton


# pairs of distinct skeleton lines of one class, the parallel guard's candidates
_SAME_CLASS_PAIRS = (LINES[:, None, 2] == LINES[None, :, 2]) & ~np.eye(len(LINES), dtype=bool)
_SAME_CLASS_PAIRS.flags.writeable = False

# the parallel guard's bound on |cross|, the sine of 50 degrees: skip line
# samples when another same-class model line projects nearly parallel within
# search range, where the perpendicular search cannot tell the ridges apart
# (foreshortened views of the rotor)
_SIN_GUARD = np.sin(np.radians(50.0))

# (-y, x) = (y, x) * _QUARTER_TURN turns a 2-vector a quarter turn
_QUARTER_TURN = np.array([-1.0, 1.0])
_QUARTER_TURN.flags.writeable = False


class CorrespondenceKind(IntEnum):
    POINT = 0
    LINE = 1


# the FrameMatches kind of a point and of a line row, repeated per row
_KINDS = np.array([CorrespondenceKind.POINT, CorrespondenceKind.LINE], dtype=np.int64)
_KINDS.flags.writeable = False


@dataclass(frozen=True)
class MatchConfig:
    """Search-window geometry, thresholds and subdivision counts."""

    r_point: float = 30.0  # circular window radius, px
    lambda_point: float = 0.3
    a_line: float = 40.0  # perpendicular search length, px
    k_line: int = 41  # sample locations along the search segment
    lambda_line: float = 0.3
    s_tower: int = 10
    s_hub: int = 3
    s_blade: int = 8

    def __post_init__(self):
        counts = (self.k_line, self.s_tower, self.s_hub, self.s_blade)
        if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in counts):
            raise ValueError("k_line and the subdivision counts must be integers")
        sizes = (self.r_point, self.a_line, self.k_line, self.s_tower, self.s_hub, self.s_blade)
        if not np.all(np.isfinite(sizes)):
            raise ValueError("window sizes and counts must be finite")
        if self.r_point <= 0.0 or self.a_line <= 0.0:
            raise ValueError("search window sizes must be positive")
        if self.k_line < 3 or self.k_line % 2 == 0:
            raise ValueError("k_line must be odd and at least 3")
        for thr in (self.lambda_point, self.lambda_line):
            if not (0.0 < thr < 1.0):
                raise ValueError("thresholds must lie in (0, 1)")
        if min(self.s_tower, self.s_hub, self.s_blade) < 2:
            raise ValueError("subdivision counts must be at least 2")

    def line_offsets(self) -> np.ndarray:
        """Signed sample offsets spanning [-a_line/2, +a_line/2], centre at 0."""
        half = (self.k_line - 1) / 2.0
        spacing = self.a_line / (self.k_line - 1)
        return spacing * (np.arange(self.k_line) - half)

    @cached_property
    def _offsets_by_preference(self) -> np.ndarray:
        """`line_offsets()` in line-sample tie-break order, read-only: the
        smallest |offset| first, the negative side before the positive."""
        offsets = self.line_offsets()
        spacing = self.a_line / (self.k_line - 1)
        ordered = offsets[np.argsort(np.abs(offsets) + 0.25 * spacing * (offsets > 0), kind="stable")]
        ordered.flags.writeable = False
        return ordered


# ---------------------------------------------------------------------------
# pose stage
# ---------------------------------------------------------------------------

def _point_windows(
    h: int, w: int, class_ids: np.ndarray, predicted: np.ndarray, cfg: MatchConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Search windows of finite rows of `predicted` (n, 2) on an h x w raster.

    Returns each window [ceil(c - r), floor(c + r)] per axis as (x0, y0, x1,
    y1), clipped to the raster, and the flat indices of its (y0, x0) and
    (y1, x1) in the class_ids' channels of a (channels, h, w) stack.  An empty
    window keeps lo > hi, at most one pixel beyond it.
    """
    r = cfg.r_point
    box = np.concatenate([np.ceil(predicted - r), np.floor(predicted + r)], axis=1)
    box = np.clip(box, (0.0, 0.0, -1.0, -1.0), (w, h, w - 1.0, h - 1.0))
    # exact, the terms are small integers
    ends = (box.reshape(-1, 2, 2) @ (1.0, w) + (class_ids * (h * w))[:, None]).astype(np.int64)
    return box, ends


def _perpendiculars(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit normals, unit directions and non-degeneracy of segments a -> b (..., 2).

    Each normal's sign is canonicalized so its first nonzero component is
    positive; the search spans both sides symmetrically, so only determinism
    matters.  Segments shorter than 1e-9 are flagged false, and their normal
    and direction are not unit vectors.
    """
    d = b - a
    # vecdot sums like the 1-D np.linalg.norm, to the bit; norm(axis=-1) does not
    n = np.sqrt(np.vecdot(d, d))
    ok = ~(n < 1e-9)
    d = d / np.where(ok, n, 1.0)[..., None]
    p = d[..., ::-1] * _QUARTER_TURN
    flip = (p[..., 0] < 0.0) | ((p[..., 0] == 0.0) & (p[..., 1] < 0.0))
    return np.where(flip[..., None], -p, p), d, ok


def _segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from every point (..., s, 2) to every segment a -> b (..., l, 2),
    shape (..., l, s)."""
    ab = b - a
    denom = np.vecdot(ab, ab)
    # one (s, 2) @ (2,) product per segment, the same BLAS call a single segment makes
    along = np.matmul(points[..., None, :, :] - a[..., None, :], ab[..., None])[..., 0]
    short = denom < 1e-18  # a point-like segment: distance to a
    t = np.where(short[..., None], 0.0, np.clip(along / np.where(short, 1.0, denom)[..., None], 0.0, 1.0))
    d = points[..., None, :, :] - (a[..., None, :] + t[..., None] * ab[..., None, :])
    return np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])


def _line_positions(uv: np.ndarray, perp: np.ndarray, cfg: MatchConfig) -> tuple[np.ndarray, np.ndarray]:
    """The x and the y (m, k_line) of the k_line samples spanning a_line
    across each row of `uv` (m, 2) along unit `perp` (m, 2), in tie-break
    order: the smallest |offset| first, the negative side before the
    positive."""
    offsets = cfg._offsets_by_preference
    return uv[:, 0, None] + offsets * perp[:, 0, None], uv[:, 1, None] + offsets * perp[:, 1, None]


def _bilinear_corners(
    h: int, w: int, class_ids: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where `_interpolate` reads positions (x, y), finite, in the class_ids'
    channels of a (channels, h, w) stack; class_ids, x and y broadcast together.

    Returns the flat indices of each position's four corners (4, ...), in the
    order (x0, y0), (x0 + 1, y0), (x0, y0 + 1), (x0 + 1, y0 + 1); the weights
    fx, fy, gx = 1 - fx and gy = 1 - fy (4, ...); and whether the position
    lies on the raster.
    """
    xs = np.clip(x, 0.0, w - 1.0)
    ys = np.clip(y, 0.0, h - 1.0)
    x0 = np.minimum(xs.astype(np.int64), max(w - 2, 0))
    y0 = np.minimum(ys.astype(np.int64), max(h - 2, 0))
    weights = np.empty((4,) + xs.shape)
    np.subtract(xs, x0, out=weights[0])
    np.subtract(ys, y0, out=weights[1])
    np.subtract(1.0, weights[:2], out=weights[2:])
    # steps to the +1 neighbours, which stay on a 1 px wide or high raster,
    # where their weight is 0
    dx, dy = min(w - 1, 1), min(h - 1, 1) * w
    corners = class_ids * (h * w) + y0 * w + x0 + np.array([0, dx, dy, dy + dx]).reshape((4,) + (1,) * xs.ndim)
    # a position is on the raster where clipping left it unchanged
    return corners, weights, (xs == x) & (ys == y)


class ProjectedModel(NamedTuple):
    """The poses' half of matching: everything `match_frame_arrays` needs
    that depends on the poses and not on the frame, for every pose of one
    `project_model` call in flat arrays, pose after pose.  Pose i owns the
    point rows p_start[i]:p_start[i + 1] and the sample rows
    s_start[i]:s_start[i + 1] (axis 1 of corners and weights).  Built for one
    skeleton, subdivided model, camera and config (`source`), and valid with
    those only: the same skeleton and subdivided model, an equal camera and
    config.  Every array is read-only."""

    source: tuple  # (skeleton, subdivided, camera, config) it was projected for
    p_start: tuple  # (n + 1,) ints: first point row of each pose, then the row count
    s_start: tuple  # (n + 1,) ints: first sample row of each pose, then the row count
    # visible skeleton points, in skeleton order
    p_points: np.ndarray  # (p, 3)
    p_cls: np.ndarray  # (p,) point class
    p_uv: np.ndarray  # (p, 2) projection
    p_box: np.ndarray  # (p, 4) window, see `_point_windows`
    p_ends: np.ndarray  # (p, 2) flat indices of the window's (y0, x0) and (y1, x1)
    # kept line samples, grouped by skeleton line in subdivided order
    s_points: np.ndarray  # (s, 3)
    s_cls: np.ndarray  # (s,) line class
    s_uv: np.ndarray  # (s, 2) projection
    s_perp: np.ndarray  # (s, 2) unit normal of the sample's projected line
    # the k_line search positions of each sample, in tie-break order, see `_bilinear_corners`
    corners: np.ndarray  # (4, s, k_line)
    weights: np.ndarray  # (4, s, k_line) fx, fy, gx, gy
    on_raster: np.ndarray  # (s, k_line)


def project_model(
    skeleton: TurbineSkeleton,
    subdivided: SubdividedModel,
    t: np.ndarray,
    q: np.ndarray,
    k: CameraIntrinsics,
    cfg: MatchConfig,
) -> ProjectedModel:
    """The pose stage of matching at each pose (t[i], q[i]), in one array pass.

    t (n, 3) must be finite and q (n, 4) unit quaternions with a
    non-negative scalar part, as `quat_normalize` returns them; q is
    projected as given, not normalised again, and a row that is not unit
    (to 1e-12 in its squared norm) raises ValueError.  Returns the view of
    all n poses, for `match_frame_arrays`, projected by
    `heatmap.project_skeleton` as `render` projects.
    """
    t, q = np.asarray(t, dtype=float), np.asarray(q, dtype=float)
    if t.ndim != 2 or t.shape[1] != 3 or q.shape != (t.shape[0], 4):
        raise ValueError("t and q must be rows of shape (n, 3) and (n, 4)")
    if not np.isfinite(t).all():
        raise ValueError("non-finite vector")
    # a NaN row fails the comparison too
    if not ((np.abs(np.vecdot(q, q) - 1.0) <= 1e-12).all() and (q[:, 0] >= 0.0).all()):
        raise ValueError("q must be unit quaternions with a non-negative scalar part")
    n, n_pts = t.shape[0], skeleton.points.shape[0]

    # projection of every pose at once: skeleton points, then subdivided points
    uv, seen, a2, b2, projected = project_skeleton(k, t, q, np.concatenate([skeleton.points, subdivided.points]))
    uv_sub = uv[:, n_pts:]

    # point windows of every visible skeleton point, pose by pose
    p_pose, p_idx = seen[:, :n_pts].nonzero()
    p_uv = uv[p_pose, p_idx]
    p_cls = POINT_CLASSES[p_idx]
    p_box, p_ends = _point_windows(k.height, k.width, p_cls, p_uv, cfg)

    # parallel-line guard: drop samples whose search would run along another
    # same-class line projecting nearly parallel within search range; the
    # distances only for the poses that have such a pair
    perp, direction, usable = _perpendiculars(a2, b2)
    usable &= projected
    cross = direction[:, :, None, 0] * direction[:, None, :, 1] - direction[:, :, None, 1] * direction[:, None, :, 0]
    near_parallel = _SAME_CLASS_PAIRS & usable[:, :, None] & usable[:, None, :] & ~(np.abs(cross) >= _SIN_GUARD)
    lid = subdivided.line_ids
    keep = seen[:, n_pts:] & usable[:, lid]
    guarded = near_parallel.any(axis=(1, 2)).nonzero()[0]
    if guarded.size:
        close = _segment_distances(uv_sub[guarded], a2[guarded], b2[guarded]) <= cfg.a_line
        keep[guarded] &= ~(near_parallel[guarded][:, lid].transpose(0, 2, 1) & close).any(axis=1)

    # search positions of every kept sample, grouped by line
    by_line = lid.argsort(kind="stable")
    s_pose, s_col = keep[:, by_line].nonzero()
    samples = by_line[s_col]
    s_lid = lid[samples]
    s_cls = LINES[s_lid, 2]
    s_uv = uv_sub[s_pose, samples]
    s_perp = perp[s_pose, s_lid]
    x, y = _line_positions(s_uv, s_perp, cfg)
    corners, weights, on_raster = _bilinear_corners(k.height, k.width, s_cls[:, None], x, y)

    # rows run pose after pose, so each pose's rows start where the sorted
    # pose indices first reach it
    poses = np.arange(n + 1)
    arrays = (skeleton.points[p_idx], p_cls, p_uv, p_box, p_ends)
    arrays += (subdivided.points[samples], s_cls, s_uv, s_perp, corners, weights, on_raster)
    for array in arrays:
        array.flags.writeable = False
    return ProjectedModel(
        (skeleton, subdivided, k, cfg),
        tuple(p_pose.searchsorted(poses).tolist()),
        tuple(s_pose.searchsorted(poses).tolist()),
        *arrays,
    )


# ---------------------------------------------------------------------------
# frame stage
# ---------------------------------------------------------------------------

def _search_windows(
    pixels: PixelList, box: np.ndarray, ends: np.ndarray, predicted: np.ndarray, cfg: MatchConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Point search in the windows (`_point_windows`) of rows of `predicted` (n, 2).

    `pixels` lists the channels' pixels above lambda_point (NaN included).
    Each row's winner is the pixel with the largest value within r_point of
    the prediction; found is false when no value in that window exceeds
    lambda_point or one is NaN, including a window that lies wholly off the
    raster.  Only listed pixels can win, and the listed pixels of a window's
    rows form one run of the list, from (y0, x0) to (y1, x1).  Returns
    (winning pixel centres (n, 2), found (n,), the winners' positions in the
    list (n,)); a row that is not found has an arbitrary centre and position.
    A window's work is bounded by the listed pixels of its rows, so the gain
    over a dense box scan rests on sparse heatmaps (BENCH_pixel_list.json).
    """
    n = predicted.shape[0]
    r = cfg.r_point
    start = pixels.index.searchsorted(ends[:, 0])
    length = pixels.index.searchsorted(ends[:, 1], side="right") - start
    longest = length.max(initial=0)
    if longest <= 0:  # no listed pixel in any window's rows
        return np.zeros((n, 2)), np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
    # one padded row of run positions per window
    span = np.arange(longest)
    at = start[:, None] + span
    values = pixels.values.take(at, mode="clip")
    xs = pixels.cols.take(at, mode="clip")
    ys = pixels.rows.take(at, mode="clip")
    d2 = (ys - predicted[:, 1, None]) ** 2 + (xs - predicted[:, 0, None]) ** 2
    # the run's rows lie in [y0, y1], but its middle rows span the raster's width
    inside = (span < length[:, None]) & (xs >= box[:, 0, None]) & (xs <= box[:, 2, None]) & (d2 <= r * r)
    values = np.where(inside, values, -np.inf)
    best = values.max(axis=1)
    # ties: smallest squared distance, then row-major order (argmin keeps the first)
    j = np.where(values == best[:, None], d2, np.inf).argmin(axis=1)
    pick = np.arange(0, n * longest, longest) + j  # flat positions in the (n, longest) arrays
    return np.array([xs.take(pick), ys.take(pick)]).T, best > cfg.lambda_point, at.take(pick)


def _interpolate(channels: np.ndarray, corners: np.ndarray, weights: np.ndarray, on_raster: np.ndarray) -> np.ndarray:
    """Bilinear values of `channels` at the positions `_bilinear_corners`
    describes, -inf off the raster.  A position is NaN where a corner is NaN,
    where an infinite corner has weight 0, or where its corners hold both
    +inf and -inf; `_best_samples` leaves a row with a NaN sample unmatched."""
    fx, fy, gx, gy = weights
    c = channels.reshape(-1).take(corners)
    with np.errstate(invalid="ignore"):
        vals = c[0] * gx * gy + c[1] * fx * gy + c[2] * gx * fy + c[3] * fx * fy
    return np.where(on_raster, vals, -np.inf)


def _best_samples(
    values: np.ndarray, uv: np.ndarray, perp: np.ndarray, cfg: MatchConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Line search's pick among the `_line_positions` of each row of `uv`,
    given their `_interpolate`d values (m, k_line).

    Each row's match is its best sample, ties going to the first in
    tie-break order; found is false when no sample on the raster exceeds
    lambda_line or one is NaN.  Returns (matched (m, 2), found (m,)).
    """
    # the samples run in tie-break order, so argmax's first maximum wins
    j = values.argmax(axis=1)
    found = values[np.arange(j.size), j] > cfg.lambda_line
    return uv + cfg._offsets_by_preference[j][:, None] * perp, found


@dataclass(frozen=True, eq=False)
class FrameMatches:
    """Array view of one frame's correspondences, ready for stacking.

    The arrays passed in are made read-only in place, not copied:
    `match_frame_arrays` builds them fresh, so none shares memory with the
    pass's `ProjectedModel`; and the pose graph hands one object to every
    pass at the same pose, so no reader may change what a later one reads.
    """

    points3d: np.ndarray  # (m, 3)
    matched: np.ndarray  # (m, 2)
    kinds: np.ndarray  # (m,) CorrespondenceKind values
    class_ids: np.ndarray  # (m,)

    def __post_init__(self):
        for array in (self.points3d, self.matched, self.kinds, self.class_ids):
            array.setflags(write=False)

    def __len__(self):
        return self.points3d.shape[0]

    @property
    def n_points(self) -> int:
        return int(np.sum(self.kinds == int(CorrespondenceKind.POINT)))

    @property
    def n_lines(self) -> int:
        return int(np.sum(self.kinds == int(CorrespondenceKind.LINE)))


def match_frame_arrays(
    skeleton: TurbineSkeleton,
    subdivided: SubdividedModel,
    pose_estimate: Pose | tuple[ProjectedModel, int],
    k: CameraIntrinsics,
    frame: HeatmapFrame,
    cfg: MatchConfig,
) -> FrameMatches:
    """Establish all point and line correspondences for one frame.

    `pose_estimate` is a `Pose`, which this call projects, or a pair (view,
    i): pose i, an int, of a view that `project_model` built for the same
    skeleton and subdivided model (the same objects) and an equal camera and
    config (compared by value, as a match depends only on their values);
    another view or an index outside it raises ValueError.  Rows list point
    matches in skeleton order, then line-sample matches grouped by skeleton
    line, each group in subdivided order.
    """
    if isinstance(pose_estimate, Pose):
        view, i = project_model(skeleton, subdivided, pose_estimate.t[None], pose_estimate.q[None], k, cfg), 0
    else:
        view, i = pose_estimate
        if view.source != (skeleton, subdivided, k, cfg):
            raise ValueError("the view was projected for another skeleton, subdivided model, camera or config")
        if not isinstance(i, (int, np.integer)) or isinstance(i, bool) or not 0 <= i < len(view.p_start) - 1:
            raise ValueError(f"pose index {i!r} is not one of the view's {len(view.p_start) - 1} poses")
    if (frame.width, frame.height) != (k.width, k.height):
        raise ValueError(f"frame is {frame.width}x{frame.height}, the camera {k.width}x{k.height}")
    p = slice(view.p_start[i], view.p_start[i + 1])
    s = slice(view.s_start[i], view.s_start[i + 1])

    # point search over every visible skeleton point
    pixels = frame.point_pixels_above(cfg.lambda_point)
    p_uv = view.p_uv[p]
    p_match, p_found, win = _search_windows(pixels, view.p_box[p], view.p_ends[p], p_uv, cfg)
    p_match, win = p_match[p_found], win[p_found]
    refined = pixels.peaks[win]
    shift = refined - p_uv[p_found]
    # vecdot sums like the 1-D np.linalg.norm, to the bit
    p_match = np.where((np.sqrt(np.vecdot(shift, shift)) <= cfg.r_point)[:, None], refined, p_match)

    # line search over every kept sample
    values = _interpolate(frame.line_channels, view.corners[:, s], view.weights[:, s], view.on_raster[s])
    l_match, l_found = _best_samples(values, view.s_uv[s], view.s_perp[s], cfg)
    l_match = l_match[l_found]

    n_p, n_l = p_match.shape[0], l_match.shape[0]
    return FrameMatches(
        np.concatenate([view.p_points[p][p_found], view.s_points[s][l_found]]),
        np.concatenate([p_match, l_match]),
        _KINDS.repeat((n_p, n_l)),
        np.concatenate([view.p_cls[p][p_found], view.s_cls[s][l_found]]),
    )
