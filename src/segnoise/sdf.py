"""Signed distance fields on the 4/6-neighbor grid graph.

The distance between two sites is the length of a shortest path moving one
axis-aligned step at a time. The signed distance of a site is the graph
distance to the nearest site of the *opposite* label, positive on background
and negative on foreground, so |phi| >= 1 everywhere and phi is never 0: a
boundary-layer site sits at +/-1, one layer further at +/-2, and so on.

One distance transform serves both signs. Let L be the union of the two
boundary layers, ``dilate_one(m) ^ erode_one(m)``. On a shortest path from a
background site to its nearest foreground site, the last site is on the
foreground layer and the one before it on the background layer, and no
foreground-layer site is nearer than that foreground site; the same holds
with the labels swapped. So |phi(x)| = 1 + d(x, L) at every site, and the
sign comes from the mask.

The transform runs on L's bounding box only. For x outside the box, let p be
x clipped into the box. Every y in the box satisfies |x-y|_1 = |x-p|_1 +
|p-y|_1, so d(x, L) = |x-p|_1 + d(p, L): the box's edge values, padded
outwards, plus the per-axis L1 distance to the box.
"""

from __future__ import annotations

import numpy as np

from .grid import as_field, as_mask, dilate_one, erode_one

__all__ = ["DegenerateMaskError", "signed_distance", "sdf_gap"]


class DegenerateMaskError(ValueError):
    """Mask has no boundary (all foreground or all background)."""


def signed_distance(mask) -> np.ndarray:
    """Exact signed grid distance of every site to the opposite label.

    Returns a float64 field: +d on background, -d on foreground, where d is
    the exact unit-step shortest-path distance to the nearest opposite-label
    site (so the value is +/-1 on the two boundary layers). Raises
    DegenerateMaskError for uniform masks, which have no opposite side.

    The city-block chamfer transform used here is exact for this metric:
    with no obstacles, grid shortest paths have length equal to the L1
    displacement.
    """
    from scipy import ndimage  # imported at first use, not by `import segnoise`

    m = as_mask(mask)
    layers = dilate_one(m) ^ erode_one(m)
    flat = np.flatnonzero(layers)
    if flat.size == 0:
        raise DegenerateMaskError("mask is all foreground or all background")
    hits = np.unravel_index(flat, m.shape)
    lo = [int(h.min()) for h in hits]
    hi = [int(h.max()) + 1 for h in hits]
    box = tuple(slice(a, b) for a, b in zip(lo, hi))
    inner = ndimage.distance_transform_cdt(~layers[box], metric="taxicab")
    pads = [(a, n - b) for a, b, n in zip(lo, hi, m.shape)]
    phi = np.pad(inner + 1.0, pads, mode="edge")
    for axis, (a, b) in enumerate(pads):
        if a or b:
            i = np.arange(m.shape[axis])
            off = np.abs(i - np.clip(i, lo[axis], hi[axis] - 1))  # |x - p| along this axis
            phi += off.reshape((-1,) + (1,) * (m.ndim - 1 - axis))
    return np.negative(phi, out=phi, where=m)


def sdf_gap(predicted, clean) -> float:
    """Mean pointwise difference ``mean(predicted - clean)`` of two fields."""
    p = as_field(predicted)
    c = as_field(clean)
    if p.shape != c.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {c.shape}")
    return float(np.mean(p - c))
