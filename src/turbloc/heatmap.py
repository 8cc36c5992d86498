"""Multichannel Gaussian heatmaps of the projected skeleton.

A frame holds 3 line channels (tower, hub, blade) and 4 point channels
(tower base, tower top, blade centre, blade tips), all float32 in [0, 1].
Rendering evaluates the Gaussian analytically from the distance to the
projected feature (truncated at 3 sigma) instead of drawing then blurring,
so peaks and ridges sit exactly at the sub-pixel projection.  Overlapping
features in one channel combine by per-pixel maximum, and every channel is
renormalized to peak 1 afterwards.

The same renderer produces training-label-style output and the simulated
network measurements (both sigma=5).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import CameraIntrinsics, Pose, clip_segments_to_front, in_view, pinhole, world_to_camera
from .turbine import POINT_CLASSES, TurbineSkeleton

N_LINE_CHANNELS = 3
N_POINT_CHANNELS = 4
N_CHANNELS = N_LINE_CHANNELS + N_POINT_CHANNELS

MEASUREMENT_SIGMA = 5.0

TRUNCATION_SIGMAS = 3.0

MAGIC = b"TMBT"
FORMAT_VERSION = 1


class FrameFormatError(ValueError):
    """A frame file that cannot be decoded."""


class FrameHeaderError(FrameFormatError):
    """Missing or malformed file header."""


class FrameChannelCountError(FrameFormatError):
    """Header declares a channel count other than the expected 7."""


class FramePayloadError(FrameFormatError):
    """Pixel payload shorter or longer than the header promises."""


class PixelList(NamedTuple):
    """Pixels of a (channels, H, W) stack whose value exceeds a threshold or
    is NaN, in row-major order of the stack."""

    index: np.ndarray  # (m,) ascending flat indices into the stack
    values: np.ndarray  # (m,) float32
    rows: np.ndarray  # (m,) float pixel row
    cols: np.ndarray  # (m,) float pixel column
    shape: tuple  # (channels, H, W)


def pixels_above(channels: np.ndarray, threshold: float) -> PixelList:
    """The PixelList of a (channels, H, W) stack for `threshold`."""
    _, h, w = channels.shape
    index = np.flatnonzero(~(channels <= threshold))
    rows, cols = np.divmod(index % (h * w), w)
    return PixelList(index, channels.reshape(-1)[index], rows.astype(float), cols.astype(float), channels.shape)


@dataclass(frozen=True, eq=False)
class HeatmapFrame:
    """One keyframe's image measurements: line and point channel stacks.

    The channels are read-only float32 copies of the arrays passed in, so
    what is derived from them and cached on the frame (`point_pixels_above`)
    cannot go stale, through the frame or through the caller's arrays.
    """

    line_channels: np.ndarray  # (3, H, W) float32
    point_channels: np.ndarray  # (4, H, W) float32
    _point_pixels: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        lines = np.array(self.line_channels, dtype=np.float32)
        points = np.array(self.point_channels, dtype=np.float32)
        if lines.ndim != 3 or lines.shape[0] != N_LINE_CHANNELS:
            raise ValueError("expected 3 line channels")
        if points.ndim != 3 or points.shape[0] != N_POINT_CHANNELS:
            raise ValueError("expected 4 point channels")
        if lines.shape[1:] != points.shape[1:]:
            raise ValueError("line and point channels must share the image size")
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

    @staticmethod
    def zeros(width: int, height: int) -> "HeatmapFrame":
        return HeatmapFrame(
            np.zeros((N_LINE_CHANNELS, height, width), dtype=np.float32),
            np.zeros((N_POINT_CHANNELS, height, width), dtype=np.float32),
        )

    def is_blank(self) -> bool:
        return not (self.line_channels.any() or self.point_channels.any())

    def point_pixels_above(self, threshold: float) -> PixelList:
        """`pixels_above(point_channels, threshold)`, built on the first call
        per threshold and kept with the frame."""
        pixels = self._point_pixels.get(threshold)
        if pixels is None:
            pixels = self._point_pixels[threshold] = pixels_above(self.point_channels, threshold)
        return pixels


def _paint_gaussian_point(channel: np.ndarray, u: float, v: float, sigma: float) -> None:
    """Max-compose an isotropic Gaussian centred at the sub-pixel (u, v).

    The profile is anchored so the pixel nearest the centre reads exactly
    1.0: same-class peaks then tie exactly inside overlapping search
    windows, which the matcher resolves by distance to the prediction.
    """
    h, w = channel.shape
    r = TRUNCATION_SIGMAS * sigma
    x0, x1 = max(int(np.ceil(u - r)), 0), min(int(np.floor(u + r)), w - 1)
    y0, y1 = max(int(np.ceil(v - r)), 0), min(int(np.floor(v + r)), h - 1)
    if x0 > x1 or y0 > y1:
        return
    xs = np.arange(x0, x1 + 1, dtype=float) - u
    ys = np.arange(y0, y1 + 1, dtype=float) - v
    d2 = ys[:, None] ** 2 + xs[None, :] ** 2
    d2_min = (np.rint(v) - v) ** 2 + (np.rint(u) - u) ** 2
    vals = np.exp(-(d2 - d2_min) / (2.0 * sigma * sigma))
    vals[d2 > r * r] = 0.0
    np.maximum(channel[y0 : y1 + 1, x0 : x1 + 1], vals, out=channel[y0 : y1 + 1, x0 : x1 + 1])


def _paint_gaussian_segment(channel: np.ndarray, a: np.ndarray, b: np.ndarray, sigma: float) -> None:
    """Max-compose a Gaussian ridge along the 2D segment a-b."""
    h, w = channel.shape
    r = TRUNCATION_SIGMAS * sigma
    x0 = max(int(np.ceil(min(a[0], b[0]) - r)), 0)
    x1 = min(int(np.floor(max(a[0], b[0]) + r)), w - 1)
    y0 = max(int(np.ceil(min(a[1], b[1]) - r)), 0)
    y1 = min(int(np.floor(max(a[1], b[1]) + r)), h - 1)
    if x0 > x1 or y0 > y1:
        return
    xs = np.arange(x0, x1 + 1, dtype=float)
    ys = np.arange(y0, y1 + 1, dtype=float)
    px = np.broadcast_to(xs[None, :], (ys.size, xs.size))
    py = np.broadcast_to(ys[:, None], (ys.size, xs.size))
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-18:
        _paint_gaussian_point(channel, a[0], a[1], sigma)
        return
    t = ((px - a[0]) * ab[0] + (py - a[1]) * ab[1]) / denom
    np.clip(t, 0.0, 1.0, out=t)
    dx = px - (a[0] + t * ab[0])
    dy = py - (a[1] + t * ab[1])
    d2 = dx * dx + dy * dy
    vals = np.exp(-d2 / (2.0 * sigma * sigma))
    vals[d2 > r * r] = 0.0
    np.maximum(channel[y0 : y1 + 1, x0 : x1 + 1], vals, out=channel[y0 : y1 + 1, x0 : x1 + 1])


def render(
    skeleton: TurbineSkeleton,
    pose: Pose,
    k: CameraIntrinsics,
    sigma: float = MEASUREMENT_SIGMA,
) -> HeatmapFrame:
    """Render the skeleton seen from `pose` into a heatmap frame."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    lines = np.zeros((N_LINE_CHANNELS, k.height, k.width), dtype=float)
    points = np.zeros((N_POINT_CHANNELS, k.height, k.width), dtype=float)

    cam = world_to_camera(pose, skeleton.points)
    uv = pinhole(k, cam)
    for idx in np.flatnonzero(in_view(k, uv)):
        _paint_gaussian_point(points[int(POINT_CLASSES[idx])], uv[idx, 0], uv[idx, 1], sigma)

    table = skeleton.line_table
    ends_a, ends_b, in_front = clip_segments_to_front(cam[table[:, 0]], cam[table[:, 1]])
    a2, b2 = pinhole(k, ends_a), pinhole(k, ends_b)
    for i in np.flatnonzero(in_front):
        _paint_gaussian_segment(lines[table[i, 2]], a2[i], b2[i], sigma)

    for stack in (lines, points):
        for c in range(stack.shape[0]):
            m = stack[c].max()
            if m > 0.0:
                stack[c] /= m
    return HeatmapFrame(lines, points)


# ---------------------------------------------------------------------------
# frame file format: "TMBT", little endian
#   magic (4s) | version u32 | width u32 | height u32 | channels u32 = 7
#   then 7 planes of float32, row major, line channels first
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIII")


def write_frame(frame: HeatmapFrame, path) -> None:
    data = _HEADER.pack(MAGIC, FORMAT_VERSION, frame.width, frame.height, N_CHANNELS)
    payload = np.concatenate([frame.line_channels, frame.point_channels], axis=0)
    with open(path, "wb") as fh:
        fh.write(data)
        fh.write(payload.astype("<f4").tobytes())


def read_frame(path) -> HeatmapFrame:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FrameHeaderError(f"{path}: file too short for a frame header")
    magic, version, width, height, channels = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FrameHeaderError(f"{path}: bad magic bytes {magic!r}")
    if version != FORMAT_VERSION:
        raise FrameHeaderError(f"{path}: unsupported format version {version}")
    if channels != N_CHANNELS:
        raise FrameChannelCountError(f"{path}: expected {N_CHANNELS} channels, header says {channels}")
    expected = N_CHANNELS * width * height * 4
    payload = blob[_HEADER.size :]
    if len(payload) != expected:
        raise FramePayloadError(f"{path}: payload is {len(payload)} bytes, the header promises {expected}")
    planes = np.frombuffer(payload, dtype="<f4").reshape(N_CHANNELS, height, width)
    return HeatmapFrame(planes[:N_LINE_CHANNELS], planes[N_LINE_CHANNELS:])
