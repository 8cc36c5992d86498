"""Parametric wind-turbine skeleton: 6 labelled points joined by 5 lines.

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
POINT_CLASSES = (
    PointClass.TOWER_BASE,
    PointClass.TOWER_TOP,
    PointClass.BLADE_CENTRE,
    PointClass.BLADE_TIP,
    PointClass.BLADE_TIP,
    PointClass.BLADE_TIP,
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SkeletonLine:
    start: int  # index into TurbineSkeleton.points
    end: int
    line_class: LineClass


@dataclass(frozen=True)
class TurbineSkeleton:
    """6 points (rows of `points`, ordered as POINT_LABELS) and 5 lines."""

    points: np.ndarray  # (6, 3)
    lines: tuple[SkeletonLine, ...]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (6, 3):
            raise ValueError("skeleton needs exactly 6 points")
        if len(self.lines) != 5:
            raise ValueError("skeleton needs exactly 5 lines")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def point(self, label: str) -> np.ndarray:
        return self.points[POINT_LABELS.index(label)]

    def line_endpoints(self, line: SkeletonLine) -> tuple[np.ndarray, np.ndarray]:
        return self.points[line.start], self.points[line.end]


@dataclass(frozen=True)
class SubdividedModel:
    """Line points sampled at regular intervals, endpoints included."""

    points: np.ndarray  # (m, 3)
    line_classes: np.ndarray  # (m,) LineClass values
    line_ids: np.ndarray  # (m,) index into skeleton.lines; the matcher's guard and row order use it

    def __len__(self):
        return self.points.shape[0]


def build_skeleton(params: TurbineParams) -> TurbineSkeleton:
    """Assemble the 6-point / 5-line skeleton from shape parameters."""
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
    points = np.vstack([tower_base, tower_top, blade_centre] + tips)
    lines = (
        SkeletonLine(0, 1, LineClass.TOWER),
        SkeletonLine(1, 2, LineClass.HUB),
        SkeletonLine(2, 3, LineClass.BLADE),
        SkeletonLine(2, 4, LineClass.BLADE),
        SkeletonLine(2, 5, LineClass.BLADE),
    )
    return TurbineSkeleton(points, lines)


def subdivide(skeleton: TurbineSkeleton, s_tower: int, s_hub: int, s_blade: int) -> SubdividedModel:
    """Sample each line uniformly: s_tower/s_hub/s_blade points per class."""
    counts = {LineClass.TOWER: s_tower, LineClass.HUB: s_hub, LineClass.BLADE: s_blade}
    for name, n in (("s_tower", s_tower), ("s_hub", s_hub), ("s_blade", s_blade)):
        if n < 2:
            raise ValueError(f"{name} must be at least 2")
    points, classes, ids = [], [], []
    for line_id, line in enumerate(skeleton.lines):
        a, b = skeleton.line_endpoints(line)
        n = counts[line.line_class]
        frac = np.linspace(0.0, 1.0, n)
        points.append(a[None, :] + frac[:, None] * (b - a)[None, :])
        classes.append(np.full(n, int(line.line_class), dtype=np.int64))
        ids.append(np.full(n, line_id, dtype=np.int64))
    return SubdividedModel(
        np.vstack(points),
        np.concatenate(classes),
        np.concatenate(ids),
    )
