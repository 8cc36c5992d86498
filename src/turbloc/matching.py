"""Active-search correspondences between projected skeleton and heatmaps.

Point features search a circular window around the prediction for the pixel
with the largest value; line features are subdivided and searched along the
direction perpendicular to the projected line, sampling the channel by
bilinear interpolation.  Both searches reject matches whose best value does
not exceed the class threshold.

Tie-breaking is deterministic: point ties resolve to the pixel closest to
the prediction, then row-major order; line-sample ties resolve to the
smallest perpendicular offset, negative side first.

Point matches land on pixel centres; when sub-pixel refinement is enabled
(the default), a log-quadratic fit around the winning pixel recovers the
continuous peak, which is exact for the analytically rendered Gaussians.

`match_frame_arrays` matches a frame in a few array passes, with no loop over
points, lines or line pairs:

- projection: one `world_to_camera` and one `pinhole` over the 6 skeleton
  points, the subdivided points and the clipped line ends, in that row order;
- point search: each window is sliced from its channel as a box of fixed
  size that covers the disk, giving an (n_points, rows, cols) stack on which
  the disk mask, the maximum and the tie-break are evaluated at once; the
  winners are then refined together;
- parallel-line guard: one (lines, lines) near-parallel mask and one
  (lines, samples) point-to-segment distance matrix;
- line search: all (sample, offset) positions, shape (m, k_line, 2),
  interpolated at once from the flattened line-channel stack.

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

import numpy as np

from .geometry import (
    EPS_DEPTH,
    CameraIntrinsics,
    Pose,
    clip_segments_to_front,
    in_view,
    pinhole,
    world_to_camera,
)
from .heatmap import HeatmapFrame
from .turbine import POINT_CLASSES, SubdividedModel, TurbineSkeleton


class CorrespondenceKind(IntEnum):
    POINT = 0
    LINE = 1


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
    refine_points: bool = True  # sub-pixel refinement of point matches
    # skip line samples when another same-class model line projects nearly
    # parallel within search range: the perpendicular search cannot tell the
    # ridges apart there (foreshortened views of the rotor)
    parallel_guard_deg: float = 50.0

    def __post_init__(self):
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


def _clip(x: np.ndarray, lo, hi) -> np.ndarray:
    """np.clip without its per-call dispatch, which outweighs the arithmetic
    on arrays this small."""
    return np.minimum(np.maximum(x, lo), hi)


def _search_points(
    channels: np.ndarray, class_ids: np.ndarray, predicted: np.ndarray, cfg: MatchConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Point search for finite rows of `predicted` (n, 2) in channels[class_ids].

    Each row's winner is the pixel with the largest value within r_point of
    the prediction; found is false when no value in that window exceeds
    lambda_point, including a window that lies wholly off the raster.  Each
    window is sliced as a fixed-size box that covers it and lies on the
    raster.  Returns (winning pixel centres (n, 2), found (n,)).
    """
    n = predicted.shape[0]
    _, h, w = channels.shape
    u, v = predicted[:, 0], predicted[:, 1]
    r = cfg.r_point
    bh, bw = min(int(2.0 * r) + 2, h), min(int(2.0 * r) + 2, w)
    # window [ceil(c - r), floor(c + r)] per axis, clipped to the raster
    x0, x1 = np.maximum(np.ceil(u - r), 0.0), np.minimum(np.floor(u + r), w - 1.0)
    y0, y1 = np.maximum(np.ceil(v - r), 0.0), np.minimum(np.floor(v + r), h - 1.0)
    xs = np.minimum(x0, w - bw).astype(np.int64)[:, None] + np.arange(bw)
    ys = np.minimum(y0, h - bh).astype(np.int64)[:, None] + np.arange(bh)
    # squared offsets, infinite outside the window so the disk test drops them
    dx2 = np.where((xs >= x0[:, None]) & (xs <= x1[:, None]), (xs - u[:, None]) ** 2, np.inf)
    dy2 = np.where((ys >= y0[:, None]) & (ys <= y1[:, None]), (ys - v[:, None]) ** 2, np.inf)
    d2 = dy2[:, :, None] + dx2[:, None, :]
    # (channel, box row, box column, row, column) view; bh <= h and bw <= w keep it on the raster
    c, sy, sx = channels.strides
    boxes = np.lib.stride_tricks.as_strided(
        channels, (channels.shape[0], h - bh + 1, w - bw + 1, bh, bw), (c, sy, sx, sy, sx), writeable=False
    )
    window = boxes[class_ids, ys[:, 0], xs[:, 0]]
    inside = d2 <= r * r
    best = window.max(axis=(1, 2), where=inside, initial=-np.inf)
    # ties: smallest squared distance, then row-major order (argmin keeps the first)
    key = np.where(inside & (window == best[:, None, None]), d2, np.inf)
    row, col = np.divmod(np.argmin(key.reshape(n, bh * bw), axis=1), bw)
    rows = np.arange(n)
    return np.stack([xs[rows, col], ys[rows, row]], axis=-1).astype(float), best > cfg.lambda_point


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
    p = np.stack([-d[:, 1], d[:, 0]], axis=-1)
    flip = (p[:, 0] < 0.0) | ((p[:, 0] == 0.0) & (p[:, 1] < 0.0))
    return np.where(flip[:, None], -p, p), d, ok


def _bilinear(channels: np.ndarray, class_ids: np.ndarray, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interpolated values and validity at positions xy (..., 2) in channels[class_ids].

    class_ids broadcasts against xy[..., 0]; corners are gathered from the
    flattened channel stack.
    """
    _, h, w = channels.shape
    x, y = xy[..., 0], xy[..., 1]
    valid = (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)
    xs = _clip(x, 0.0, w - 1.0)
    ys = _clip(y, 0.0, h - 1.0)
    x0 = np.minimum(xs.astype(np.int64), max(w - 2, 0))
    y0 = np.minimum(ys.astype(np.int64), max(h - 2, 0))
    fx = xs - x0
    fy = ys - y0
    flat = channels.reshape(-1)
    corner = class_ids * (h * w) + y0 * w + x0
    vals = (
        flat[corner] * (1.0 - fx) * (1.0 - fy)
        + flat[corner + 1] * fx * (1.0 - fy)
        + flat[corner + w] * (1.0 - fx) * fy
        + flat[corner + w + 1] * fx * fy
    )
    return vals, valid


def _search_lines(
    channels: np.ndarray,
    class_ids: np.ndarray,
    predicted: np.ndarray,
    perp: np.ndarray,
    cfg: MatchConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Perpendicular search for rows of `predicted` (m, 2) along unit `perp` (m, 2).

    Each row's match is the best of the k_line samples spanning a_line
    across the prediction; found is false when no sample on the raster
    exceeds lambda_line.  Returns (matched (m, 2), found (m,)).
    """
    offsets = cfg.line_offsets()
    positions = predicted[:, None, :] + offsets[None, :, None] * perp[:, None, :]
    values, valid = _bilinear(channels, class_ids[:, None], positions)
    values = np.where(valid, values, -np.inf)
    best = values.max(axis=1)
    found = best > cfg.lambda_line
    spacing = cfg.a_line / (cfg.k_line - 1)
    # deterministic tie-break: smallest |offset|, negative side first
    penalty = np.abs(offsets) + 0.25 * spacing * (offsets > 0)
    cand = np.where(values == best[:, None], penalty[None, :], np.inf)
    j = np.argmin(cand, axis=1)
    matched = predicted + offsets[j][:, None] * perp
    return matched, found


def _refine_peaks(channels: np.ndarray, class_ids: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """Sub-pixel peaks around finite rows of `pixels` (n, 2) in channels[class_ids].

    A separable log-quadratic fit around each (rounded) pixel gives the
    continuous peak, which is exact for an isolated Gaussian.  A row falls
    back to the pixel centre at the image border or when its 3x3
    neighbourhood holds a value that is not positive, and an axis keeps the
    centre when its fit is not concave.  The offset never exceeds half a
    pixel per axis.
    """
    _, h, w = channels.shape
    nearest = np.round(pixels).astype(np.int64)
    ix, iy = nearest.T
    centre = nearest.astype(float)
    step = np.arange(-1, 2)
    patch = channels[
        class_ids[:, None, None],
        _clip(iy[:, None] + step, 0, h - 1)[:, :, None],
        _clip(ix[:, None] + step, 0, w - 1)[:, None, :],
    ].astype(float)
    usable = (ix >= 1) & (iy >= 1) & (ix <= w - 2) & (iy <= h - 2) & (patch.min(axis=(1, 2)) > 0.0)
    lp = np.log(np.where(usable[:, None, None], patch, 1.0))
    # log values through the peak: (n, [x, y], [minus, centre, plus])
    tri = np.stack([lp[:, 1, :], lp[:, :, 1]], axis=1)
    den = tri[..., 0] - 2.0 * tri[..., 1] + tri[..., 2]
    concave = usable[:, None] & (den < 0.0)
    shift = _clip(0.5 * (tri[..., 0] - tri[..., 2]) / np.where(concave, den, -1.0), -0.5, 0.5)
    return np.where(concave, centre + shift, centre)


def _segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from every point (s, 2) to every segment a -> b (l, 2), shape (l, s)."""
    ab = b - a
    denom = np.vecdot(ab, ab)
    # one (s, 2) @ (2,) product per segment, the same BLAS call a single segment makes
    along = np.matmul(points[None, :, :] - a[:, None, :], ab[:, :, None])[..., 0]
    short = denom < 1e-18  # a point-like segment: distance to a
    t = np.where(short[:, None], 0.0, _clip(along / np.where(short, 1.0, denom)[:, None], 0.0, 1.0))
    return np.linalg.norm(points[None, :, :] - (a[:, None, :] + t[:, :, None] * ab[:, None, :]), axis=-1)


@dataclass
class FrameMatches:
    """Array view of one frame's correspondences, ready for stacking."""

    points3d: np.ndarray  # (m, 3)
    predicted: np.ndarray  # (m, 2)
    matched: np.ndarray  # (m, 2)
    kinds: np.ndarray  # (m,) CorrespondenceKind values
    class_ids: np.ndarray  # (m,)
    line_ids: np.ndarray  # (m,)

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
    grouped by skeleton line, each group in subdivided order.
    """
    n_pts, n_sub = skeleton.points.shape[0], subdivided.points.shape[0]
    lines = np.array([(line.start, line.end, int(line.line_class)) for line in skeleton.lines], dtype=np.int64)
    line_cls = lines[:, 2]

    # projection: skeleton points, subdivided points, then clipped line ends
    cam = world_to_camera(pose_estimate, np.concatenate([skeleton.points, subdivided.points]))
    ends_a, ends_b, projected = clip_segments_to_front(cam[lines[:, 0]], cam[lines[:, 1]])
    cam = np.concatenate([cam, ends_a, ends_b])
    front = cam[:, 2] > EPS_DEPTH
    uv = np.full((cam.shape[0], 2), np.nan)
    uv[front] = pinhole(k, cam[front])
    seen = in_view(k, uv)  # false behind the camera, where uv is nan
    uv_sub = uv[n_pts : n_pts + n_sub]
    a2, b2 = uv[n_pts + n_sub :].reshape(2, -1, 2)

    # point search over every visible skeleton point
    p_idx = np.flatnonzero(seen[:n_pts])
    p_cls = np.asarray(POINT_CLASSES, dtype=np.int64)[p_idx]
    p_match, found = _search_points(frame.point_channels, p_cls, uv[p_idx], cfg)
    p_idx, p_cls, p_match = p_idx[found], p_cls[found], p_match[found]
    p_pred = uv[p_idx]
    if cfg.refine_points:
        refined = _refine_peaks(frame.point_channels, p_cls, p_match)
        shift = refined - p_pred
        # vecdot sums like the 1-D np.linalg.norm, to the bit
        p_match = np.where((np.sqrt(np.vecdot(shift, shift)) <= cfg.r_point)[:, None], refined, p_match)

    # parallel-line guard: drop samples whose search would run along another
    # same-class line projecting nearly parallel within search range
    perp, direction, usable = _perpendiculars(a2, b2)
    usable &= projected
    sin_guard = np.sin(np.radians(cfg.parallel_guard_deg))
    cross = direction[:, None, 0] * direction[None, :, 1] - direction[:, None, 1] * direction[None, :, 0]
    near_parallel = (
        (line_cls[:, None] == line_cls[None, :])
        & ~np.eye(lines.shape[0], dtype=bool)
        & usable[:, None]
        & usable[None, :]
        & ~(np.abs(cross) >= sin_guard)
    )
    lid = subdivided.line_ids
    guarded = np.any(near_parallel[lid].T & (_segment_distances(uv_sub, a2, b2) <= cfg.a_line), axis=0)

    # line search over every visible, unguarded sample
    samples = np.flatnonzero(seen[n_pts : n_pts + n_sub] & usable[lid] & ~guarded)
    samples = samples[np.argsort(lid[samples], kind="stable")]
    s_cls = line_cls[lid[samples]]
    l_match, found = _search_lines(frame.line_channels, s_cls, uv_sub[samples], perp[lid[samples]], cfg)
    samples, s_cls, l_match = samples[found], s_cls[found], l_match[found]

    n_p, n_l = p_idx.size, samples.size
    return FrameMatches(
        np.concatenate([skeleton.points[p_idx], subdivided.points[samples]]),
        np.concatenate([p_pred, uv_sub[samples]]),
        np.concatenate([p_match, l_match]),
        np.repeat(np.array([CorrespondenceKind.POINT, CorrespondenceKind.LINE], dtype=np.int64), [n_p, n_l]),
        np.concatenate([p_cls, s_cls]),
        np.concatenate([np.full(n_p, -1, dtype=np.int64), lid[samples]]),
    )
