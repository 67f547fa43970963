"""Planar curve checks: segment intersection.

Used to validate that boundary cross-sections are simple closed curves.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "segments_cross",
    "polygon_self_intersects",
]


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def segments_cross(a0, a1, b0, b1) -> np.ndarray:
    """Proper-crossing test for segment arrays, broadcast elementwise.

    Endpoints are given as (..., 2) arrays.  Collinear touching is not
    counted as a crossing; shared endpoints of adjacent polygon edges are
    handled by the callers.
    """
    ax, ay = a0[..., 0], a0[..., 1]
    bx, by = a1[..., 0], a1[..., 1]
    cx, cy = b0[..., 0], b0[..., 1]
    dx, dy = b1[..., 0], b1[..., 1]
    d1 = _orient(cx, cy, dx, dy, ax, ay)
    d2 = _orient(cx, cy, dx, dy, bx, by)
    d3 = _orient(ax, ay, bx, by, cx, cy)
    d4 = _orient(ax, ay, bx, by, dx, dy)
    return (d1 * d2 < 0) & (d3 * d4 < 0)


def polygon_self_intersects(points: np.ndarray) -> bool:
    """True if the closed polygon through ``points`` crosses itself."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n < 4:
        return False
    starts = pts
    ends = np.roll(pts, -1, axis=0)
    i, j = np.triu_indices(n, k=2)
    # skip the wrap-around pair (first edge vs last edge share a vertex)
    keep = ~((i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]
    hits = segments_cross(starts[i], ends[i], starts[j], ends[j])
    return bool(hits.any())
