"""Host-speed reference and the arithmetic that normalises timings with it.

On a small shared host the same computation can run 1.5x slower for several
seconds at a time.  Every timed interval of the benchmark is therefore paired
with this fixed reference computation, measured just before and just after
the interval, and rescaled by ``NOMINAL_S / measured``.  The reference mixes
the kinds of work the program itself does (small-array numpy calls, array
streaming, plain Python loops), so it slows down with the program when the
host does.  It belongs to the benchmark and never changes with the program.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.stats import beta

# Time of one reference measurement on a quiet host; any fixed value works,
# it only sets the unit of the normalised times.
NOMINAL_S = 0.012
NUMPY_PASSES = 8
STREAM_REPEATS = 2
PYTHON_LOOP = 40_000


class HostReference:
    """A fixed computation whose time tracks the host's current speed.

    Host slow phases do not slow every kind of work alike, so a measurement
    mixes the three kinds the program does: small-array numpy calls (one
    pass mirrors one match_frame_arrays call: six circular-window point
    searches, five perpendicular line searches by bilinear interpolation, a
    quaternion rotation, the normal-equation products of 60
    correspondences), streaming through an 8 MB array (like assembling and
    reading frames), and a plain Python loop (like the per-feature loops).
    """

    def __init__(self):
        rng = np.random.default_rng(20190227)
        self.channel = rng.random((256, 256)).astype(np.float32)
        self.centres = rng.uniform(40.0, 215.0, (6, 2))
        self.line_points = rng.uniform(40.0, 215.0, (5, 8, 2))
        d = rng.standard_normal((5, 2))
        self.perp = d / np.linalg.norm(d, axis=1, keepdims=True)
        self.offsets = np.linspace(-20.0, 20.0, 41)
        q = rng.standard_normal((30, 4))
        self.q = q / np.linalg.norm(q, axis=1, keepdims=True)
        self.v = rng.standard_normal((30, 3))
        self.jac = rng.standard_normal((60, 2, 6))
        self.res = rng.standard_normal((60, 2))
        self.kf = rng.integers(0, 6, 60)
        self.stream = rng.random(1_000_000)

    def _pass(self) -> float:
        ch = self.channel
        w, u = self.q[:, :1], self.q[:, 1:]
        t = 2.0 * np.cross(u, self.v)
        acc = float((self.v + w * t + np.cross(u, t))[0, 0])
        for cu, cv in self.centres:
            x0, x1 = int(np.ceil(cu - 30.0)), int(np.floor(cu + 30.0))
            y0, y1 = int(np.ceil(cv - 30.0)), int(np.floor(cv + 30.0))
            xs, ys = np.arange(x0, x1 + 1), np.arange(y0, y1 + 1)
            d2 = (ys[:, None] - cv) ** 2 + (xs[None, :] - cu) ** 2
            vals = np.where(d2 <= 900.0, ch[y0 : y1 + 1, x0 : x1 + 1], -np.inf)
            iy, ix = np.nonzero(vals == vals.max())
            acc += float(xs[ix[np.lexsort((ix, iy, d2[iy, ix]))[0]]])
        for pts, perp in zip(self.line_points, self.perp):
            pos = pts[:, None, :] + self.offsets[None, :, None] * perp[None, None, :]
            x, y = np.clip(pos[..., 0], 0.0, 255.0), np.clip(pos[..., 1], 0.0, 255.0)
            x0, y0 = np.minimum(x.astype(np.int64), 254), np.minimum(y.astype(np.int64), 254)
            fx, fy = x - x0, y - y0
            vals = (
                ch[y0, x0] * (1.0 - fx) * (1.0 - fy)
                + ch[y0, x0 + 1] * fx * (1.0 - fy)
                + ch[y0 + 1, x0] * (1.0 - fx) * fy
                + ch[y0 + 1, x0 + 1] * fx * fy
            )
            acc += float(np.argmax(vals, axis=1).sum())
        jj = np.einsum("mka,mkb->mab", self.jac, self.jac)
        jr = np.einsum("mka,mk->ma", self.jac, self.res)
        return acc + float(np.bincount(self.kf, weights=jr[:, 0], minlength=6)[0] + jj[0, 0, 0])

    def measure(self) -> float:
        """Seconds for one measurement, about 12 ms on a quiet host."""
        t0 = time.perf_counter()
        for _ in range(NUMPY_PASSES):
            self._pass()
        for _ in range(STREAM_REPEATS):
            self.stream.sum()
            np.copy(self.stream)
        s = 0
        for i in range(PYTHON_LOOP):
            s += i * i
        return time.perf_counter() - t0


def normalise(raw_s: float, ref_before_s: float, ref_after_s: float, nominal_s: float = NOMINAL_S) -> float:
    """Interval time rescaled to the host speed at which the reference takes nominal_s."""
    if ref_before_s <= 0.0 or ref_after_s <= 0.0:
        raise ValueError("reference times must be positive")
    return raw_s * nominal_s / (0.5 * (ref_before_s + ref_after_s))


def percentile(values, q: float) -> float:
    """Linearly interpolated q-th percentile (numpy's default definition)."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median_hd(values) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of the order
    statistics.  Steadier than the sample median when, as here, the values
    near the middle are few and noisy."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("median of no values")
    edges = beta.cdf(np.arange(n + 1) / n, (n + 1) / 2.0, (n + 1) / 2.0)
    return float(np.diff(edges) @ xs)


class PairedClock:
    """Times consecutive intervals, each bracketed by reference measurements.

    The reference measured after one interval is reused as the one before the
    next, so a sequence of n intervals costs n + 1 reference measurements.
    """

    def __init__(self, reference: HostReference):
        self.reference = reference
        self.last_ref = reference.measure()
        self.raw_refs = [self.last_ref]

    def close(self, raw_s: float) -> float:
        """Normalise an interval that ended just now; measure the next reference."""
        before = self.last_ref
        self.last_ref = self.reference.measure()
        self.raw_refs.append(self.last_ref)
        return normalise(raw_s, before, self.last_ref)
