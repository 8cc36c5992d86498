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
analytically rendered Gaussians.

`match_frame_arrays` matches a frame in a few array passes, with no loop over
points, lines or line pairs:

- projection: one `world_to_camera` and one `pinhole` over the 6 skeleton
  points, the subdivided points and the clipped line ends, in that row order.
  Whether a point is behind the camera is decided there: `pinhole` projects
  it to NaN, which `in_view` rejects, and `clip_segments_to_front` clips the
  lines;
- point search: only a pixel above lambda_point can win a window, so each
  frame keeps a sorted list of its point-channel pixels above the threshold
  (NaN pixels included, so that NaN in a window still means "not found"),
  built on the first match and cached on the frame.  The listed pixels of a
  window's rows are one contiguous run of that list, found by two binary
  searches; the box, disk, maximum and tie-break tests run on those runs,
  padded to an (n_points, longest run) array.  The gain rests on the
  heatmaps being sparse: on rendered and degraded frames about 0.5% of
  point-channel pixels exceed the threshold.  A window's work is bounded by
  the listed pixels of its rows, so a dense frame costs a few times the
  dense box scan, not more;
- peak refinement: a gather from `PixelList.peaks`.  A peak depends only on
  the frame's point channels and the winning pixel, never on the pose, so
  the list refines the peak around every listed pixel once, when it is
  built, and every match reads the stored peaks;
- parallel-line guard: one (lines, lines) near-parallel mask and, when some
  line has a near-parallel same-class partner, one (lines, samples)
  point-to-segment distance matrix;
- line search: the x and the y of all (sample, offset) positions, each of
  shape (m, k_line), interpolated at once from the flattened line-channel
  stack, with the offsets in tie-break order so that the first maximum wins.

The matcher keeps no state of its own: a call reads its arguments, builds
the frame's pixel list if the frame has none for lambda_point yet, and
computes.  Building the list, peaks included, is the one cost that the first
match of a frame pays: on one core of a 2-core VM the first match of a
rendered or degraded 256x256 frame takes 0.8-1.1 ms, a later one 0.4-0.6 ms.
On a dense frame, where every point pixel exceeds lambda_point, the first
match takes about 55 ms, nearly all of it building the list and refining its
262,144 peaks; no rendered or degraded frame comes near that.  Repeated calls
at one pose are the caller's to avoid: `PoseGraph._match` keeps each
keyframe's last match.

What is left per call is the pose-dependent work: projection, the
window and line searches and the guard, each a fixed number of array passes
over 6-40 rows.  At that size most of a pass's cost is numpy's per-call
dispatch, not arithmetic, so the passes call array methods and ufuncs
(`nonzero`, `searchsorted`, `argsort`, `argmin`, `argmax`, `any`, `repeat`)
rather than the Python-level functions that wrap them (`np.flatnonzero`,
`np.searchsorted`, ...), a point-to-segment distance adds its two squares
itself rather than reducing over a length-2 axis, and
`clip_segments_to_front` returns at once when no line end is behind the
camera, as on every match of the locbench flights.  On the 816 matches of a
48-keyframe flight a call then costs about 0.3 ms on one core of a
2-core VM: the line search about 30% (most of it the bilinear gathers), the
point search 25-30%, the guard 15% and projection 15%.

The topology is fixed, so the same-class pair mask is a module constant
derived from `turbine.LINES`; the ordered offsets and the guard's sine
depend only on the MatchConfig and are cached on it.

Tie-breaks and outputs are unchanged from the per-feature loop these passes
replaced, to the last bit; the loop is kept as the test reference in
tests/reference_matching.py.  Two-term dot products go through `np.vecdot` or
`np.matmul`, which round like the 1-D `np.linalg.norm` and the (m, 2) @ (2,)
product of that loop; `np.linalg.norm(axis=-1)` and `np.einsum` differ in the
last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .geometry import CameraIntrinsics, Pose, clip_segments_to_front, in_view, pinhole, world_to_camera
from .heatmap import HeatmapFrame, PixelList
from .turbine import LINES, POINT_CLASSES, SubdividedModel, TurbineSkeleton


# pairs of distinct skeleton lines of one class, the parallel guard's candidates
_SAME_CLASS_PAIRS = (LINES[:, None, 2] == LINES[None, :, 2]) & ~np.eye(len(LINES), dtype=bool)
_SAME_CLASS_PAIRS.flags.writeable = False

# (-y, x) = (y, x) * _QUARTER_TURN turns a 2-vector a quarter turn
_QUARTER_TURN = np.array([-1.0, 1.0])
_QUARTER_TURN.flags.writeable = False


class CorrespondenceKind(IntEnum):
    POINT = 0
    LINE = 1


# FrameMatches columns: the kind of a point and of a line row, repeated per
# row, and the line id of point rows (a frame has at most one point row per
# skeleton point)
_KINDS = np.array([CorrespondenceKind.POINT, CorrespondenceKind.LINE], dtype=np.int64)
_KINDS.flags.writeable = False
_NO_LINE = np.full(len(POINT_CLASSES), -1, dtype=np.int64)
_NO_LINE.flags.writeable = False


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
    # skip line samples when another same-class model line projects nearly
    # parallel within search range: the perpendicular search cannot tell the
    # ridges apart there (foreshortened views of the rotor)
    parallel_guard_deg: float = 50.0

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
        if not (0.0 <= self.parallel_guard_deg < 90.0):
            raise ValueError("parallel_guard_deg must lie in [0, 90)")

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

    @cached_property
    def _sin_guard(self) -> float:
        """Sine of parallel_guard_deg, the parallel guard's bound on |cross|."""
        return np.sin(np.radians(self.parallel_guard_deg))


def _clip(x: np.ndarray, lo, hi) -> np.ndarray:
    """np.clip without its per-call dispatch, which outweighs the arithmetic
    on arrays this small."""
    return np.minimum(np.maximum(x, lo), hi)


def _search_points(
    pixels: PixelList, class_ids: np.ndarray, predicted: np.ndarray, cfg: MatchConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Point search for finite rows of `predicted` (n, 2) in channels[class_ids].

    `pixels` lists the channels' pixels above lambda_point (NaN included).
    Each row's winner is the pixel with the largest value within r_point of
    the prediction; found is false when no value in that window exceeds
    lambda_point or one is NaN, including a window that lies wholly off the
    raster.  Only listed pixels can win, and the listed pixels of a window's
    rows form one run of the list, from (y0, x0) to (y1, x1).  Returns
    (winning pixel centres (n, 2), found (n,), the winners' positions in the
    list (n,)); a row that is not found has an arbitrary centre and position.
    """
    n = predicted.shape[0]
    _, h, w = pixels.shape
    r = cfg.r_point
    # window [ceil(c - r), floor(c + r)] per axis as (x0, y0, x1, y1), clipped
    # to the raster; an empty window keeps lo > hi, at most one pixel beyond it
    box = np.concatenate([np.ceil(predicted - r), np.floor(predicted + r)], axis=1)
    box = _clip(box, (0.0, 0.0, -1.0, -1.0), (w, h, w - 1.0, h - 1.0))
    # flat indices of (y0, x0) and (y1, x1); exact, the terms are small integers
    ends = (box.reshape(n, 2, 2) @ (1.0, w) + (class_ids * (h * w))[:, None]).astype(np.int64)
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


def _perpendiculars(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit normals, unit directions and non-degeneracy of segments a -> b (n, 2).

    Each normal's sign is canonicalized so its first nonzero component is
    positive; the search spans both sides symmetrically, so only determinism
    matters.  Segments shorter than 1e-9 are flagged false, and their normal
    and direction are not unit vectors.
    """
    d = b - a
    # vecdot sums like the 1-D np.linalg.norm, to the bit; norm(axis=-1) does not
    n = np.sqrt(np.vecdot(d, d))
    ok = ~(n < 1e-9)
    d = d / np.where(ok, n, 1.0)[:, None]
    p = d[:, ::-1] * _QUARTER_TURN
    flip = (p[:, 0] < 0.0) | ((p[:, 0] == 0.0) & (p[:, 1] < 0.0))
    return np.where(flip[:, None], -p, p), d, ok


def _bilinear(channels: np.ndarray, class_ids: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Interpolated values at positions (x, y) in channels[class_ids], -inf off the raster.

    class_ids, x and y broadcast together; corners are gathered from the
    flattened channel stack.
    """
    _, h, w = channels.shape
    xs = _clip(x, 0.0, w - 1.0)
    ys = _clip(y, 0.0, h - 1.0)
    x0 = np.minimum(xs.astype(np.int64), max(w - 2, 0))
    y0 = np.minimum(ys.astype(np.int64), max(h - 2, 0))
    fx = xs - x0
    fy = ys - y0
    gx = 1.0 - fx
    gy = 1.0 - fy
    # steps to the +1 neighbours, which stay on a 1 px wide or high raster,
    # where their weight is 0
    dx, dy = min(w - 1, 1), min(h - 1, 1) * w
    flat = channels.reshape(-1)
    corner = class_ids * (h * w) + y0 * w + x0
    vals = (
        flat.take(corner) * gx * gy
        + flat.take(corner + dx) * fx * gy
        + flat.take(corner + dy) * gx * fy
        + flat.take(corner + dy + dx) * fx * fy
    )
    # a position is on the raster where clipping left it unchanged (NaN is not)
    return np.where((xs == x) & (ys == y), vals, -np.inf)


def _search_lines(
    channels: np.ndarray,
    class_ids: np.ndarray,
    predicted: np.ndarray,
    perp: np.ndarray,
    cfg: MatchConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Perpendicular search for rows of `predicted` (m, 2) along unit `perp` (m, 2).

    Each row's match is the best of the k_line samples spanning a_line
    across the prediction, ties going to the smallest |offset|, negative side
    first; found is false when no sample on the raster exceeds lambda_line.
    Returns (matched (m, 2), found (m,)).
    """
    offsets = cfg._offsets_by_preference
    x = predicted[:, 0, None] + offsets * perp[:, 0, None]
    y = predicted[:, 1, None] + offsets * perp[:, 1, None]
    values = _bilinear(channels, class_ids[:, None], x, y)
    # the samples run in tie-break order, so argmax's first maximum wins
    j = values.argmax(axis=1)
    found = values[np.arange(j.size), j] > cfg.lambda_line
    return predicted + offsets[j][:, None] * perp, found


def _segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from every point (s, 2) to every segment a -> b (l, 2), shape (l, s)."""
    ab = b - a
    denom = np.vecdot(ab, ab)
    # one (s, 2) @ (2,) product per segment, the same BLAS call a single segment makes
    along = np.matmul(points[None, :, :] - a[:, None, :], ab[:, :, None])[..., 0]
    short = denom < 1e-18  # a point-like segment: distance to a
    t = np.where(short[:, None], 0.0, _clip(along / np.where(short, 1.0, denom)[:, None], 0.0, 1.0))
    d = points[None, :, :] - (a[:, None, :] + t[:, :, None] * ab[:, None, :])
    return np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])


@dataclass(frozen=True, eq=False)
class FrameMatches:
    """Array view of one frame's correspondences, ready for stacking.

    The arrays passed in are made read-only in place, not copied:
    `match_frame_arrays` builds them fresh, and the pose graph hands one
    object to every pass at the same pose, so no reader may change what a
    later one reads.
    """

    points3d: np.ndarray  # (m, 3)
    matched: np.ndarray  # (m, 2)
    kinds: np.ndarray  # (m,) CorrespondenceKind values
    class_ids: np.ndarray  # (m,)
    line_ids: np.ndarray  # (m,)

    def __post_init__(self):
        for array in (self.points3d, self.matched, self.kinds, self.class_ids, self.line_ids):
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
    pose_estimate: Pose,
    k: CameraIntrinsics,
    frame: HeatmapFrame,
    cfg: MatchConfig,
) -> FrameMatches:
    """Establish all point and line correspondences for one frame.

    Rows list point matches in skeleton order, then line-sample matches
    grouped by skeleton line, each group in subdivided order.  Every call
    computes its result from its arguments alone and assigns nothing; the
    frame's first match builds the frame's pixel list (module docstring).
    """
    n_pts, n_sub = skeleton.points.shape[0], subdivided.points.shape[0]

    # projection: skeleton points, subdivided points, then clipped line ends
    cam = world_to_camera(pose_estimate, np.concatenate([skeleton.points, subdivided.points]))
    ends_a, ends_b, projected = clip_segments_to_front(cam[LINES[:, 0]], cam[LINES[:, 1]])
    uv = pinhole(k, np.concatenate([cam, ends_a, ends_b]))
    seen = in_view(k, uv)  # false behind the camera, where uv is nan
    uv_sub = uv[n_pts : n_pts + n_sub]
    a2, b2 = uv[n_pts + n_sub :].reshape(2, -1, 2)

    # point search over every visible skeleton point
    p_idx = seen[:n_pts].nonzero()[0]
    p_cls = POINT_CLASSES[p_idx]
    pixels = frame.point_pixels_above(cfg.lambda_point)
    p_match, found, win = _search_points(pixels, p_cls, uv[p_idx], cfg)
    p_idx, p_cls, p_match, win = p_idx[found], p_cls[found], p_match[found], win[found]
    refined = pixels.peaks[win]
    shift = refined - uv[p_idx]
    # vecdot sums like the 1-D np.linalg.norm, to the bit
    p_match = np.where((np.sqrt(np.vecdot(shift, shift)) <= cfg.r_point)[:, None], refined, p_match)

    # parallel-line guard: drop samples whose search would run along another
    # same-class line projecting nearly parallel within search range
    perp, direction, usable = _perpendiculars(a2, b2)
    usable &= projected
    cross = direction[:, None, 0] * direction[None, :, 1] - direction[:, None, 1] * direction[None, :, 0]
    near_parallel = _SAME_CLASS_PAIRS & usable[:, None] & usable[None, :] & ~(np.abs(cross) >= cfg._sin_guard)
    lid = subdivided.line_ids
    keep = seen[n_pts : n_pts + n_sub] & usable[lid]
    if near_parallel.any():
        keep &= ~(near_parallel[lid].T & (_segment_distances(uv_sub, a2, b2) <= cfg.a_line)).any(axis=0)

    # line search over every visible, unguarded sample
    samples = keep.nonzero()[0]
    samples = samples[lid[samples].argsort(kind="stable")]
    s_cls = LINES[lid[samples], 2]
    l_match, found = _search_lines(frame.line_channels, s_cls, uv_sub[samples], perp[lid[samples]], cfg)
    samples, s_cls, l_match = samples[found], s_cls[found], l_match[found]

    n_p, n_l = p_idx.size, samples.size
    return FrameMatches(
        np.concatenate([skeleton.points[p_idx], subdivided.points[samples]]),
        np.concatenate([p_match, l_match]),
        _KINDS.repeat((n_p, n_l)),
        np.concatenate([p_cls, s_cls]),
        np.concatenate([_NO_LINE[:n_p], lid[samples]]),
    )
