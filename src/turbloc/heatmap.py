"""Multichannel Gaussian heatmaps of the projected skeleton.

A frame holds 3 line channels (tower, hub, blade) and 4 point channels
(tower base, tower top, blade centre, blade tips), all float32 in [0, 1].
Rendering evaluates the Gaussian analytically from the distance to the
projected feature (truncated at 3 sigma) instead of drawing then blurring,
so peaks and ridges sit exactly at the sub-pixel projection.  Overlapping
features in one channel combine by per-pixel maximum, taken as the smallest
exponent over a channel's features (rows of arrays) and painted with one
exp per pixel: exp of a negated, scaled exponent is monotone, so the two
are equal to the bit.  Every channel is renormalized to peak 1 afterwards.

`project_skeleton` projects the skeleton, and any points after it, for
many poses at once; `render` and the pose stage of matching both use it.

The same renderer produces training-label-style output and the simulated
network measurements (both sigma=5).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import CameraIntrinsics, Pose, clip_segments_to_front, in_view, pinhole, world_to_camera
from .turbine import LINES, POINT_CLASSES, TurbineSkeleton

N_LINE_CHANNELS = 3
N_POINT_CHANNELS = 4
N_CHANNELS = N_LINE_CHANNELS + N_POINT_CHANNELS

MEASUREMENT_SIGMA = 5.0

TRUNCATION_SIGMAS = 3.0

MAGIC = b"TMBT"
FORMAT_VERSION = 1


class FrameFormatError(ValueError):
    """A frame file that cannot be decoded."""


class PixelList(NamedTuple):
    """Pixels of a (channels, H, W) stack whose value exceeds a threshold or
    is NaN, in row-major order of the stack, with the sub-pixel peak around
    each.  Every array is read-only."""

    index: np.ndarray  # (m,) ascending flat indices into the stack
    values: np.ndarray  # (m,) float32
    rows: np.ndarray  # (m,) float pixel row
    cols: np.ndarray  # (m,) float pixel column
    peaks: np.ndarray  # (m, 2) float64 (x, y), `_refine_peaks` around each pixel


# positions in a row-major 3x3 neighbourhood of the horizontal, then the
# vertical line through its centre
_PEAK_CROSS = np.array([3, 4, 5, 1, 4, 7])
_PEAK_CROSS.flags.writeable = False


def _refine_peaks(channels: np.ndarray, class_ids: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """Sub-pixel peaks around finite rows of `pixels` (n, 2) in channels[class_ids].

    A separable log-quadratic fit around each (rounded) pixel gives the
    continuous peak, which is exact for an isolated Gaussian.  A row falls
    back to the pixel centre at the image border or when its 3x3
    neighbourhood holds a value that is not positive or not finite, and an
    axis keeps the centre when its fit is not concave.  The offset never exceeds half a
    pixel per axis.
    """
    n = pixels.shape[0]
    _, h, w = channels.shape
    nearest = pixels.round().astype(np.int64)
    x, y = nearest.T
    # the 3x3 neighbourhoods from the flattened stack, one row-major position
    # per row of `patch` (9, n) so that reductions run across rows; the clip
    # keeps a border pixel's gather on the stack, and border pixels are not used
    around = np.array([-w - 1, -w, -w + 1, -1, 0, 1, w - 1, w, w + 1])
    patch = channels.reshape(-1).take(around[:, None] + (class_ids * (h * w) + y * w + x), mode="clip")
    usable = (x >= 1) & (x <= w - 2) & (y >= 1) & (y <= h - 2)
    usable &= (patch.min(axis=0) > 0.0) & (patch.max(axis=0) < np.inf)
    # values through the peak: ([x, y], [minus, centre, plus], n)
    tri = patch[_PEAK_CROSS].reshape(2, 3, n).astype(float)
    lp = np.log(np.where(usable, tri, 1.0))
    den = lp[:, 0] - 2.0 * lp[:, 1] + lp[:, 2]
    concave = usable & (den < 0.0)
    shift = np.minimum(np.maximum(0.5 * (lp[:, 0] - lp[:, 2]) / np.where(concave, den, -1.0), -0.5), 0.5)
    centre = nearest.T.astype(float)
    return np.where(concave, centre + shift, centre).T


def pixels_above(channels: np.ndarray, threshold: float) -> PixelList:
    """The PixelList of a (channels, H, W) stack for `threshold`.

    Every listed pixel's peak is refined here, whether or not a match ever
    reads it, so the list costs in proportion to the pixels above the
    threshold: few on rendered and degraded frames (BENCH_pixel_list.json
    counts them), every pixel on a dense stack (BENCH_stateless_matcher.json
    times both).  A NaN threshold raises ValueError: every pixel would be
    listed, and no cache lookup would ever find the list again.
    """
    if np.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    _, h, w = channels.shape
    index = np.flatnonzero(~(channels <= threshold))
    class_ids, flat = np.divmod(index, h * w)
    rows, cols = np.divmod(flat, w)
    rows, cols = rows.astype(float), cols.astype(float)
    peaks = _refine_peaks(channels, class_ids, np.stack([cols, rows], axis=1))
    pixels = PixelList(index, channels.reshape(-1)[index], rows, cols, peaks)
    for array in pixels:
        array.flags.writeable = False
    return pixels


@dataclass(frozen=True, eq=False)
class HeatmapFrame:
    """One keyframe's image measurements: line and point channel stacks.

    The channels are read-only float32 stacks that only the frame holds, so
    what is derived from them and cached on the frame cannot go stale,
    through the frame or through the caller's arrays.  The public
    constructor copies the arrays passed in, and so does `read_frame` with
    its view of the file's bytes.  `render` and `degrade_measurements` hand
    their fresh float32 stacks over through `_take`, which keeps them
    without a copy.  One cache lives on the frame: `point_pixels_above`'s
    read-only pixel lists, one per threshold.
    """

    line_channels: np.ndarray  # (3, H, W) float32
    point_channels: np.ndarray  # (4, H, W) float32
    _point_pixels: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self._hold(np.array(self.line_channels, dtype=np.float32), np.array(self.point_channels, dtype=np.float32))

    @classmethod
    def _take(cls, lines: np.ndarray, points: np.ndarray) -> HeatmapFrame:
        """A frame that keeps float32 (C, H, W) stacks without copying them:
        for fresh stacks that nothing else references, handed over by their
        only owner."""
        frame = object.__new__(cls)
        object.__setattr__(frame, "_point_pixels", {})
        frame._hold(lines, points)
        return frame

    def _hold(self, lines: np.ndarray, points: np.ndarray) -> None:
        """Check float32 stacks, mark them read-only and keep them."""
        if lines.ndim != 3 or lines.shape[0] != N_LINE_CHANNELS:
            raise ValueError("expected 3 line channels")
        if points.ndim != 3 or points.shape[0] != N_POINT_CHANNELS:
            raise ValueError("expected 4 point channels")
        if lines.shape[1:] != points.shape[1:]:
            raise ValueError("line and point channels must share the image size")
        if lines.size == 0:
            raise ValueError("channels must have at least one pixel")
        lines.flags.writeable = False
        points.flags.writeable = False
        object.__setattr__(self, "line_channels", lines)
        object.__setattr__(self, "point_channels", points)

    @property
    def height(self) -> int:
        return self.line_channels.shape[1]

    @property
    def width(self) -> int:
        return self.line_channels.shape[2]

    def point_pixels_above(self, threshold: float) -> PixelList:
        """`pixels_above(point_channels, threshold)`, built on the first call
        per threshold and kept with the frame."""
        pixels = self._point_pixels.get(threshold)
        if pixels is None:
            pixels = self._point_pixels[threshold] = pixels_above(self.point_channels, threshold)
        return pixels


class _Poses(NamedTuple):
    """Poses as rows, for `world_to_camera`, which reads only t and q."""

    t: np.ndarray  # (n, 1, 3)
    q: np.ndarray  # (n, 1, 4)


def project_skeleton(k: CameraIntrinsics, t: np.ndarray, q: np.ndarray, points: np.ndarray) -> tuple:
    """World points (m, 3), the skeleton's 6 first, seen from each pose
    (t[i], q[i]) of rows t (n, 3) and unit quaternions q (n, 4), in one
    array pass.

    Returns the pixels (n, m, 2), NaN behind the camera; whether each lies
    in view (n, m); the pixels a2 and b2 (n, 5, 2) of each skeleton line's
    ends, clipped to the front of the camera; and whether any part of each
    line lies in front (n, 5).  The one projection that `render` and the
    pose stage of matching share.
    """
    m = points.shape[0]
    cam = world_to_camera(_Poses(t[:, None], q[:, None]), points)
    ends_a, ends_b, in_front = clip_segments_to_front(cam[:, LINES[:, 0]], cam[:, LINES[:, 1]])
    uv = pinhole(k, np.concatenate([cam, ends_a, ends_b], axis=1))
    return uv[:, :m], in_view(k, uv[:, :m]), uv[:, m : m + len(LINES)], uv[:, m + len(LINES) :], in_front


def _render_stack(features: list, k: CameraIntrinsics, sigma: float) -> np.ndarray:
    """(len(features), H, W) float32 stack; features[c] is a pair (a, b) of
    (f, 2) arrays, the ends of channel c's segments, a point feature being
    the segment (uv, uv).

    Each feature's exponent, (d2 - d2_min) within its truncation radius and
    inf beyond, is written in float64 into the box that holds the features'
    windows (clipped to the raster), keeping the per-pixel minimum; one exp
    paints the box, which is normalised to peak 1 and stored into a zeroed
    float32 plane.  Negation, division by 2 sigma^2 and exp are monotone, so
    the exp of the smallest exponent is the per-pixel maximum of the
    features' Gaussians, and exp(-inf) their truncation's 0.  A segment
    shorter than 1e-9 px is painted as the point a, with d2_min anchoring
    its profile so the pixel nearest a reads exactly 1.0: same-class peaks
    then tie exactly inside overlapping search windows, which the matcher
    resolves by distance to the prediction.
    """
    r = TRUNCATION_SIGMAS * sigma
    stack = np.zeros((len(features), k.height, k.width), dtype=np.float32)
    for c, (a, b) in enumerate(features):
        # each feature's window, pixels (x, y) from lo to hi within its
        # truncation radius, clipped to the raster: empty where lo > hi, as
        # is the box of a channel without features
        lo = np.clip(np.ceil(np.minimum(a, b) - r), 0, (k.width, k.height)).astype(np.int64)
        hi = np.clip(np.floor(np.maximum(a, b) + r), -1, (k.width - 1, k.height - 1)).astype(np.int64)
        (x0, y0), (x1, y1) = lo.min(axis=0, initial=k.width + k.height), hi.max(axis=0, initial=-1)
        if x0 > x1 or y0 > y1:
            continue
        best = np.full((y1 - y0 + 1, x1 - x0 + 1), np.inf)
        for fa, fb, (fx0, fy0), (fx1, fy1) in zip(a, b, lo.tolist(), hi.tolist()):
            if fx0 > fx1 or fy0 > fy1:
                continue
            xs = np.arange(fx0, fx1 + 1, dtype=float)[None, :]
            ys = np.arange(fy0, fy1 + 1, dtype=float)[:, None]
            ab = fb - fa
            denom = float(ab @ ab)
            if denom < 1e-18:
                cx, cy = fa
                d2_min = (np.rint(fa[1]) - fa[1]) ** 2 + (np.rint(fa[0]) - fa[0]) ** 2
            else:
                t = np.clip(((xs - fa[0]) * ab[0] + (ys - fa[1]) * ab[1]) / denom, 0.0, 1.0)
                cx, cy = fa[0] + t * ab[0], fa[1] + t * ab[1]
                d2_min = 0.0
            dx, dy = xs - cx, ys - cy
            d2 = dx * dx + dy * dy
            window = best[fy0 - y0 : fy1 - y0 + 1, fx0 - x0 : fx1 - x0 + 1]
            np.minimum(window, np.where(d2 <= r * r, d2 - d2_min, np.inf), out=window)
        canvas = np.exp(-best / (2.0 * sigma * sigma))
        m = canvas.max()
        if m > 0.0:
            canvas /= m
        stack[c, y0 : y1 + 1, x0 : x1 + 1] = canvas
    return stack


def render(
    skeleton: TurbineSkeleton,
    pose: Pose,
    k: CameraIntrinsics,
    sigma: float = MEASUREMENT_SIGMA,
) -> HeatmapFrame:
    """Render the skeleton seen from `pose` into a heatmap frame.

    Each channel is painted and normalised inside the box that holds its
    features; the rest of the plane is 0.  sigma must be finite and large
    enough that the pixel nearest a feature, up to sqrt(0.5) px away, lies
    within the truncation radius: sigma >= sqrt(0.5) / 3, about 0.2357.
    """
    if not (np.isfinite(sigma) and TRUNCATION_SIGMAS * sigma >= np.sqrt(0.5)):
        raise ValueError(f"sigma must be finite and at least sqrt(0.5) / {TRUNCATION_SIGMAS:g} px")
    (uv,), (seen,), (a2,), (b2,), (in_front,) = project_skeleton(k, pose.t[None], pose.q[None], skeleton.points)
    points = [(uv[mask], uv[mask]) for mask in seen & (POINT_CLASSES == np.arange(N_POINT_CHANNELS)[:, None])]
    lines = [(a2[mask], b2[mask]) for mask in in_front & (LINES[:, 2] == np.arange(N_LINE_CHANNELS)[:, None])]
    return HeatmapFrame._take(_render_stack(lines, k, sigma), _render_stack(points, k, sigma))


# ---------------------------------------------------------------------------
# frame file format: "TMBT", little endian
#   magic (4s) | version u32 | width u32 | height u32 | channels u32 = 7
#   then 7 planes of float32, row major, line channels first
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIII")


def write_frame(frame: HeatmapFrame, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, frame.width, frame.height, N_CHANNELS))
        for stack in (frame.line_channels, frame.point_channels):
            # a frame's own float32 stacks are written without a copy
            fh.write(np.ascontiguousarray(stack, dtype="<f4"))


def read_frame(path) -> HeatmapFrame:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FrameFormatError(f"{path}: file too short for a frame header")
    magic, version, width, height, channels = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FrameFormatError(f"{path}: bad magic bytes {magic!r}")
    if version != FORMAT_VERSION:
        raise FrameFormatError(f"{path}: unsupported format version {version}")
    if width == 0 or height == 0:
        raise FrameFormatError(f"{path}: header declares an empty {width}x{height} image")
    if channels != N_CHANNELS:
        raise FrameFormatError(f"{path}: expected {N_CHANNELS} channels, header says {channels}")
    expected = N_CHANNELS * width * height * 4
    payload = blob[_HEADER.size :]
    if len(payload) != expected:
        raise FrameFormatError(f"{path}: payload is {len(payload)} bytes, the header promises {expected}")
    planes = np.frombuffer(payload, dtype="<f4").reshape(N_CHANNELS, height, width)
    return HeatmapFrame(planes[:N_LINE_CHANNELS], planes[N_LINE_CHANNELS:])
