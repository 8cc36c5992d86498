"""Independent brute-force oracles used by matcher and acceptance tests.

These deliberately mirror the documented contracts with plain loops and no
shared code with the library implementations.
"""

import numpy as np

from turbloc.heatmap import HeatmapFrame


def brute_force_point(channel, predicted, r_point, lambda_point):
    """Exhaustive disc scan: max-value pixel, ties by (distance, y, x)."""
    h, w = channel.shape
    u, v = float(predicted[0]), float(predicted[1])
    candidates = []
    for y in range(h):
        for x in range(w):
            d2 = (x - u) ** 2 + (y - v) ** 2
            if d2 <= r_point * r_point:
                candidates.append((x, y, d2, float(channel[y, x])))
    if not candidates:
        return None
    best = max(c[3] for c in candidates)
    if not best > lambda_point:
        return None
    winners = [(d2, y, x) for (x, y, d2, val) in candidates if val == best]
    winners.sort()
    _, y, x = winners[0]
    return np.array([float(x), float(y)])


def _bilinear_scalar(channel, x, y):
    h, w = channel.shape
    if not (0.0 <= x <= w - 1.0 and 0.0 <= y <= h - 1.0):
        return None
    x0 = min(int(x), w - 2) if w > 1 else 0
    y0 = min(int(y), h - 2) if h > 1 else 0
    fx = x - x0
    fy = y - y0
    # the +1 neighbour only where the raster has one; on a 1 px wide or
    # high channel its weight is 0
    dx, dy = min(w - 1, 1), min(h - 1, 1)
    c = channel
    return (
        c[y0, x0] * (1.0 - fx) * (1.0 - fy)
        + c[y0, x0 + dx] * fx * (1.0 - fy)
        + c[y0 + dy, x0] * (1.0 - fx) * fy
        + c[y0 + dy, x0 + dx] * fx * fy
    )


def brute_force_line_sample(channel, predicted, perp, a_line, k_line, lambda_line):
    """Exhaustive scan of the perpendicular samples with documented ties."""
    half = (k_line - 1) / 2.0
    spacing = a_line / (k_line - 1)
    offsets = spacing * (np.arange(k_line) - half)
    samples = []
    for off in offsets:
        x = predicted[0] + off * perp[0]
        y = predicted[1] + off * perp[1]
        val = _bilinear_scalar(channel, x, y)
        if val is not None:
            samples.append((float(off), float(val)))
    if not samples:
        return None
    best = max(v for _, v in samples)
    if not best > lambda_line:
        return None
    winners = [(abs(off), 0 if off <= 0 else 1, off) for off, v in samples if v == best]
    winners.sort()
    off = winners[0][2]
    return np.array([predicted[0] + off * perp[0], predicted[1] + off * perp[1]])


def blank_frame(width, height):
    """A frame whose 7 channels are all zero."""
    return HeatmapFrame(np.zeros((3, height, width), np.float32), np.zeros((4, height, width), np.float32))


def is_blank(frame):
    """Whether no channel of the frame has a non-zero pixel."""
    return not (frame.line_channels.any() or frame.point_channels.any())
