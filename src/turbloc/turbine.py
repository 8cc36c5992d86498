"""Parametric wind-turbine skeleton: 6 labelled points joined by 5 lines.

The topology is fixed and stated once, as module constants: a tower, a hub
and three blades (`LINES`), with the point classes in `POINT_CLASSES`.  Only
the shape varies from turbine to turbine: `TurbineParams` places the 6
points, and a `TurbineSkeleton` holds nothing else.

The rotor plane is vertical, its normal given by the heading yaw.  Blade
azimuths are measured inside the rotor plane, counterclockwise from the
in-plane horizontal axis, so 90 degrees points straight up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class PointClass(IntEnum):
    TOWER_BASE = 0
    TOWER_TOP = 1
    BLADE_CENTRE = 2
    BLADE_TIP = 3


class LineClass(IntEnum):
    TOWER = 0
    HUB = 1
    BLADE = 2


POINT_LABELS = ("tower_base", "tower_top", "blade_centre", "blade_tip_0", "blade_tip_1", "blade_tip_2")

# class of each skeleton point, indexed like POINT_LABELS
POINT_CLASSES = np.array(
    [PointClass.TOWER_BASE, PointClass.TOWER_TOP, PointClass.BLADE_CENTRE] + [PointClass.BLADE_TIP] * 3,
    dtype=np.int64,
)
POINT_CLASSES.flags.writeable = False

# (start, end, line class) of each skeleton line; start and end index POINT_LABELS
LINES = np.array(
    [(0, 1, LineClass.TOWER), (1, 2, LineClass.HUB)] + [(2, tip, LineClass.BLADE) for tip in (3, 4, 5)],
    dtype=np.int64,
)
LINES.flags.writeable = False


@dataclass(frozen=True, eq=False)
class TurbineParams:
    """Shape of the turbine; assumed known before localization starts."""

    base_position: np.ndarray
    heading: float  # yaw of the rotor-plane normal, radians
    tower_height: float
    hub_offset: float  # tower top to blade centre, along the heading
    blade_length: float
    blade_azimuths: np.ndarray  # radians, in the rotor plane

    def __post_init__(self):
        base = np.asarray(self.base_position, dtype=float).reshape(3)
        az = np.asarray(self.blade_azimuths, dtype=float).reshape(3)
        object.__setattr__(self, "base_position", base)
        object.__setattr__(self, "blade_azimuths", az)
        scalars = (self.heading, self.tower_height, self.hub_offset, self.blade_length)
        if not (np.all(np.isfinite(scalars)) and np.all(np.isfinite(base)) and np.all(np.isfinite(az))):
            raise ValueError("turbine parameters must be finite")
        if self.tower_height <= 0.0:
            raise ValueError("tower_height must be positive")
        if self.blade_length <= 0.0:
            raise ValueError("blade_length must be positive")
        if self.hub_offset < 0.0:
            raise ValueError("hub_offset must be non-negative")
        wrapped = np.mod(az, 2.0 * math.pi)
        for i in range(3):
            for j in range(i + 1, 3):
                d = abs(wrapped[i] - wrapped[j])
                if min(d, 2.0 * math.pi - d) < 1e-9:
                    raise ValueError("blade azimuths must be pairwise distinct")


@dataclass(frozen=True, eq=False)
class TurbineSkeleton:
    """The 6 points of one turbine, rows of `points` ordered as POINT_LABELS."""

    points: np.ndarray  # (6, 3)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (6, 3):
            raise ValueError("skeleton needs exactly 6 points")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def point(self, label: str) -> np.ndarray:
        return self.points[POINT_LABELS.index(label)]


@dataclass(frozen=True, eq=False)
class SubdividedModel:
    """Line points sampled at regular intervals, endpoints included.

    Both arrays are read-only copies, checked as they arrive: the matcher
    indexes LINES with the ids."""

    points: np.ndarray  # (m, 3)
    line_ids: np.ndarray  # (m,) int64 row of LINES; the matcher's guard and row order use it

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        ids = np.array(self.line_ids)
        if pts.ndim != 2 or pts.shape[1] != 3 or not np.all(np.isfinite(pts)):
            raise ValueError("points must be a finite (m, 3) array")
        if ids.shape != pts.shape[:1] or not np.issubdtype(ids.dtype, np.integer):
            raise ValueError("line_ids must hold one integer per point")
        if not np.all((ids >= 0) & (ids < len(LINES))):
            raise ValueError("line_ids must index LINES")
        ids = ids.astype(np.int64)
        pts.flags.writeable = False
        ids.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "line_ids", ids)


def build_skeleton(params: TurbineParams) -> TurbineSkeleton:
    """Place the skeleton's 6 points from shape parameters."""
    up = np.array([0.0, 0.0, 1.0])
    normal = np.array([math.cos(params.heading), math.sin(params.heading), 0.0])
    horiz = np.cross(up, normal)  # in-plane horizontal axis

    tower_base = params.base_position
    tower_top = tower_base + params.tower_height * up
    blade_centre = tower_top + params.hub_offset * normal
    tips = [
        blade_centre + params.blade_length * (math.cos(a) * horiz + math.sin(a) * up)
        for a in params.blade_azimuths
    ]
    return TurbineSkeleton(np.vstack([tower_base, tower_top, blade_centre] + tips))


def subdivide(skeleton: TurbineSkeleton, s_tower: int, s_hub: int, s_blade: int) -> SubdividedModel:
    """Sample each line of LINES uniformly: s_tower/s_hub/s_blade points per class."""
    counts = (s_tower, s_hub, s_blade)  # indexed by LineClass
    for name, n in zip(("s_tower", "s_hub", "s_blade"), counts):
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ValueError(f"{name} must be an integer")
        if n < 2:
            raise ValueError(f"{name} must be at least 2")
    points, ids = [], []
    for line_id, (start, end, line_class) in enumerate(LINES):
        a, b = skeleton.points[start], skeleton.points[end]
        n = counts[line_class]
        frac = np.linspace(0.0, 1.0, n)
        points.append(a[None, :] + frac[:, None] * (b - a)[None, :])
        ids.append(np.full(n, line_id, dtype=np.int64))
    return SubdividedModel(np.vstack(points), np.concatenate(ids))
