"""Reference for the simulation set-up: noise injection, rendering, frame files.

These are the per-step and full-plane implementations that
``turbloc.simulation.inject_noise``, ``turbloc.heatmap.render``,
``turbloc.heatmap.write_frame`` and the channel jitter of
``turbloc.simulation.degrade_measurements`` replaced: four ``Pose`` objects per
noise step, every channel painted and normalised over the whole raster, and
the payload concatenated before it is written.  Tests require the library to
reproduce them byte for byte, so they are kept verbatim, helpers included.
"""

import numpy as np

from turbloc.geometry import (
    Pose,
    clip_segments_to_front,
    compose,
    in_view,
    pinhole,
    quat_from_rotvec,
    relative_pose,
    world_to_camera,
)
from turbloc.heatmap import (
    FORMAT_VERSION,
    MAGIC,
    MEASUREMENT_SIGMA,
    N_CHANNELS,
    N_LINE_CHANNELS,
    N_POINT_CHANNELS,
    TRUNCATION_SIGMAS,
    HeatmapFrame,
    _HEADER,
)
from turbloc.simulation import Trajectory
from turbloc.turbine import LINES, POINT_CLASSES


# ---------------------------------------------------------------------------
# inject_noise
# ---------------------------------------------------------------------------

def _step_perturbation(rng, sigma_t, sigma_r):
    dt = sigma_t * rng.standard_normal(3)
    angle = sigma_r * rng.standard_normal()
    axis = rng.standard_normal(3)
    norm = np.linalg.norm(axis)
    axis = axis / norm if norm > 1e-12 else np.array([1.0, 0.0, 0.0])
    return Pose(dt, quat_from_rotvec(angle * axis))


def inject_noise(truth, spec):
    if spec.sigma_t == 0.0 and spec.sigma_r == 0.0:
        return Trajectory(truth.timestamps, truth.poses)
    streams = np.random.SeedSequence(spec.seed).spawn(len(truth) - 1)
    noisy = [truth.poses[0]]
    for i in range(1, len(truth)):
        rng = np.random.default_rng(streams[i - 1])
        step = relative_pose(truth.poses[i - 1], truth.poses[i])
        noisy.append(compose(noisy[-1], compose(step, _step_perturbation(rng, spec.sigma_t, spec.sigma_r))))
    return Trajectory(truth.timestamps, tuple(noisy))


# ---------------------------------------------------------------------------
# degrade_measurements
# ---------------------------------------------------------------------------

def degrade_measurements(frames, pixel_sigma, jitter_px, seed):
    if pixel_sigma == 0.0 and jitter_px == 0.0:
        return list(frames)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for frame in frames:
        stacks = []
        for stack in (frame.line_channels, frame.point_channels):
            chans = stack.astype(np.float64)
            if jitter_px > 0.0:
                shifted = np.empty_like(chans)
                for c in range(chans.shape[0]):
                    dx, dy = np.rint(rng.normal(0.0, jitter_px, 2)).astype(int)
                    shifted[c] = np.roll(np.roll(chans[c], dy, axis=0), dx, axis=1)
                chans = shifted
            if pixel_sigma > 0.0:
                chans = chans + rng.normal(0.0, pixel_sigma, chans.shape)
            stacks.append(np.clip(chans, 0.0, 1.0))
        out.append(HeatmapFrame(stacks[0], stacks[1]))
    return out


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def _paint_gaussian_point(channel, u, v, sigma):
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


def _paint_gaussian_segment(channel, a, b, sigma):
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


def render(skeleton, pose, k, sigma=MEASUREMENT_SIGMA):
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    lines = np.zeros((N_LINE_CHANNELS, k.height, k.width), dtype=float)
    points = np.zeros((N_POINT_CHANNELS, k.height, k.width), dtype=float)

    cam = world_to_camera(pose, skeleton.points)
    uv = pinhole(k, cam)
    for idx in np.flatnonzero(in_view(k, uv)):
        _paint_gaussian_point(points[int(POINT_CLASSES[idx])], uv[idx, 0], uv[idx, 1], sigma)

    ends_a, ends_b, in_front = clip_segments_to_front(cam[LINES[:, 0]], cam[LINES[:, 1]])
    a2, b2 = pinhole(k, ends_a), pinhole(k, ends_b)
    for i in np.flatnonzero(in_front):
        _paint_gaussian_segment(lines[LINES[i, 2]], a2[i], b2[i], sigma)

    for stack in (lines, points):
        for c in range(stack.shape[0]):
            m = stack[c].max()
            if m > 0.0:
                stack[c] /= m
    return HeatmapFrame(lines, points)


# ---------------------------------------------------------------------------
# write_frame
# ---------------------------------------------------------------------------

def write_frame(frame, path):
    data = _HEADER.pack(MAGIC, FORMAT_VERSION, frame.width, frame.height, N_CHANNELS)
    payload = np.concatenate([frame.line_channels, frame.point_channels], axis=0)
    with open(path, "wb") as fh:
        fh.write(data)
        fh.write(payload.astype("<f4").tobytes())
