"""Per-feature reference for ``turbloc.matching.match_frame_arrays``.

This is the loop implementation the vectorised matcher replaced: one point
window at a time, one line at a time, and the parallel-line guard as a loop
over line pairs.  Tests require the vectorised matcher to reproduce it bit for
bit, so it is kept verbatim, helpers included, and shares no search code with
the library.
"""

import numpy as np

from turbloc.geometry import EPS_DEPTH, clip_segment_to_front, pinhole, world_to_camera
from turbloc.matching import CorrespondenceKind, FrameMatches
from turbloc.turbine import POINT_CLASSES


def match_point(channel, predicted, cfg):
    h, w = channel.shape
    u, v = float(predicted[0]), float(predicted[1])
    r = cfg.r_point
    x0, x1 = max(int(np.ceil(u - r)), 0), min(int(np.floor(u + r)), w - 1)
    y0, y1 = max(int(np.ceil(v - r)), 0), min(int(np.floor(v + r)), h - 1)
    if x0 > x1 or y0 > y1:
        return None
    xs = np.arange(x0, x1 + 1)
    ys = np.arange(y0, y1 + 1)
    d2 = (ys[:, None] - v) ** 2 + (xs[None, :] - u) ** 2
    window = channel[y0 : y1 + 1, x0 : x1 + 1]
    inside = d2 <= r * r
    if not inside.any():
        return None
    values = np.where(inside, window, -np.inf)
    best = values.max()
    if not best > cfg.lambda_point:
        return None
    iy, ix = np.nonzero(values == best)
    order = np.lexsort((ix, iy, d2[iy, ix]))
    j = order[0]
    return np.array([float(xs[ix[j]]), float(ys[iy[j]])])


def perpendicular_direction(endpoint_a, endpoint_b):
    a = np.asarray(endpoint_a, dtype=float).reshape(2)
    b = np.asarray(endpoint_b, dtype=float).reshape(2)
    d = b - a
    n = np.linalg.norm(d)
    if n < 1e-9:
        raise ValueError("projected line endpoints coincide")
    d = d / n
    p = np.array([-d[1], d[0]])
    if p[0] < 0.0 or (p[0] == 0.0 and p[1] < 0.0):
        p = -p
    return p


def _bilinear_batch(channel, xy):
    h, w = channel.shape
    x, y = xy[..., 0], xy[..., 1]
    valid = (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)
    xs = np.clip(x, 0.0, w - 1.0)
    ys = np.clip(y, 0.0, h - 1.0)
    x0 = np.minimum(xs.astype(np.int64), w - 2) if w > 1 else np.zeros_like(xs, np.int64)
    y0 = np.minimum(ys.astype(np.int64), h - 2) if h > 1 else np.zeros_like(ys, np.int64)
    fx = xs - x0
    fy = ys - y0
    c = channel
    vals = (
        c[y0, x0] * (1.0 - fx) * (1.0 - fy)
        + c[y0, x0 + 1] * fx * (1.0 - fy)
        + c[y0 + 1, x0] * (1.0 - fx) * fy
        + c[y0 + 1, x0 + 1] * fx * fy
    )
    return vals.astype(float), valid


def _match_line_rows(channel, predicted, perp, cfg):
    offsets = cfg.line_offsets()
    positions = predicted[:, None, :] + offsets[None, :, None] * perp[None, None, :]
    values, valid = _bilinear_batch(channel, positions)
    values = np.where(valid, values, -np.inf)
    best = values.max(axis=1)
    found = best > cfg.lambda_line
    spacing = cfg.a_line / (cfg.k_line - 1)
    penalty = np.abs(offsets) + 0.25 * spacing * (offsets > 0)
    cand = np.where(values == best[:, None], penalty[None, :], np.inf)
    j = np.argmin(cand, axis=1)
    matched = predicted + offsets[j][:, None] * perp[None, :]
    return matched, found


def refine_peak_subpixel(channel, pixel):
    h, w = channel.shape
    ix, iy = int(round(float(pixel[0]))), int(round(float(pixel[1])))
    if ix < 1 or iy < 1 or ix > w - 2 or iy > h - 2:
        return np.array([float(ix), float(iy)])
    patch = channel[iy - 1 : iy + 2, ix - 1 : ix + 2].astype(float)
    if patch.min() <= 0.0:
        return np.array([float(ix), float(iy)])
    lp = np.log(patch)
    out = np.array([float(ix), float(iy)])
    den_x = lp[1, 0] - 2.0 * lp[1, 1] + lp[1, 2]
    if den_x < 0.0:
        out[0] += float(np.clip(0.5 * (lp[1, 0] - lp[1, 2]) / den_x, -0.5, 0.5))
    den_y = lp[0, 1] - 2.0 * lp[1, 1] + lp[2, 1]
    if den_y < 0.0:
        out[1] += float(np.clip(0.5 * (lp[0, 1] - lp[2, 1]) / den_y, -0.5, 0.5))
    return out


def _point_segment_distance(points, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-18:
        return np.linalg.norm(points - a, axis=-1)
    t = np.clip(((points - a) @ ab) / denom, 0.0, 1.0)
    return np.linalg.norm(points - (a + t[:, None] * ab[None, :]), axis=-1)


def _ambiguous_samples(uv, line_id, line_class, skeleton, projected_lines, sin_guard, reach):
    flagged = np.zeros(uv.shape[0], dtype=bool)
    a_own, b_own = projected_lines[line_id]
    d_own = b_own - a_own
    n_own = np.linalg.norm(d_own)
    if n_own < 1e-9:
        return flagged
    d_own = d_own / n_own
    for other_id, other in enumerate(skeleton.lines):
        if other_id == line_id or other.line_class != line_class:
            continue
        if other_id not in projected_lines:
            continue
        a_o, b_o = projected_lines[other_id]
        d_o = b_o - a_o
        n_o = np.linalg.norm(d_o)
        if n_o < 1e-9:
            continue
        d_o = d_o / n_o
        if abs(d_own[0] * d_o[1] - d_own[1] * d_o[0]) >= sin_guard:
            continue
        flagged |= _point_segment_distance(uv, a_o, b_o) <= reach
    return flagged


def empty_matches():
    return FrameMatches(
        np.zeros((0, 3)), np.zeros((0, 2)), np.zeros((0, 2)),
        np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64),
    )


def reference_match_frame_arrays(skeleton, subdivided, pose_estimate, k, frame, cfg):
    rows_p3d, rows_pred, rows_match, rows_kind, rows_cls, rows_line = [], [], [], [], [], []

    cam_points = world_to_camera(pose_estimate, skeleton.points)
    for idx, cls in enumerate(POINT_CLASSES):
        pc = cam_points[idx]
        if pc[2] <= EPS_DEPTH:
            continue
        uv = pinhole(k, pc)
        if not (-0.5 <= uv[0] < k.width - 0.5 and -0.5 <= uv[1] < k.height - 0.5):
            continue
        channel = frame.point_channels[int(cls)]
        matched = match_point(channel, uv, cfg)
        if matched is None:
            continue
        if cfg.refine_points:
            refined = refine_peak_subpixel(channel, matched)
            if np.linalg.norm(refined - uv) <= cfg.r_point:
                matched = refined
        rows_p3d.append(skeleton.points[idx])
        rows_pred.append(uv)
        rows_match.append(matched)
        rows_kind.append(int(CorrespondenceKind.POINT))
        rows_cls.append(int(cls))
        rows_line.append(-1)

    cam_sub = world_to_camera(pose_estimate, subdivided.points)
    projected_lines = {}
    for line_id, line in enumerate(skeleton.lines):
        clipped = clip_segment_to_front(cam_points[line.start], cam_points[line.end])
        if clipped is None:
            continue
        projected_lines[line_id] = (pinhole(k, clipped[0]), pinhole(k, clipped[1]))

    sin_guard = np.sin(np.radians(cfg.parallel_guard_deg))
    for line_id, line in enumerate(skeleton.lines):
        if line_id not in projected_lines:
            continue
        a2, b2 = projected_lines[line_id]
        try:
            perp = perpendicular_direction(a2, b2)
        except ValueError:
            continue
        sel = np.nonzero(subdivided.line_ids == line_id)[0]
        pc = cam_sub[sel]
        front = pc[:, 2] > EPS_DEPTH
        uv = np.full((sel.size, 2), np.nan)
        uv[front] = pinhole(k, pc[front])
        visible = front & (
            (uv[:, 0] >= -0.5) & (uv[:, 0] < k.width - 0.5)
            & (uv[:, 1] >= -0.5) & (uv[:, 1] < k.height - 0.5)
        )
        visible &= ~_ambiguous_samples(
            uv, line_id, line.line_class, skeleton, projected_lines, sin_guard, cfg.a_line
        )
        if not visible.any():
            continue
        channel = frame.line_channels[int(line.line_class)]
        matched, found = _match_line_rows(channel, uv[visible], perp, cfg)
        vis_idx = sel[visible]
        for local, global_idx in enumerate(vis_idx):
            if not found[local]:
                continue
            rows_p3d.append(subdivided.points[global_idx])
            rows_pred.append(uv[visible][local])
            rows_match.append(matched[local])
            rows_kind.append(int(CorrespondenceKind.LINE))
            rows_cls.append(int(line.line_class))
            rows_line.append(line_id)

    if not rows_p3d:
        return empty_matches()
    return FrameMatches(
        np.asarray(rows_p3d, dtype=float),
        np.asarray(rows_pred, dtype=float),
        np.asarray(rows_match, dtype=float),
        np.asarray(rows_kind, dtype=np.int64),
        np.asarray(rows_cls, dtype=np.int64),
        np.asarray(rows_line, dtype=np.int64),
    )
