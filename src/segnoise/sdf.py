"""Signed distance fields on the 4/6-neighbor grid graph.

The distance between two sites is the length of a shortest path moving one
axis-aligned step at a time. The signed distance of a site is the graph
distance to the nearest site of the *opposite* label, positive on background
and negative on foreground, so |phi| >= 1 everywhere and phi is never 0: a
boundary-layer site sits at +/-1, one layer further at +/-2, and so on.

One distance transform of the mask serves both signs. Let L be the union of
the two boundary layers, ``dilate_one(m) ^ erode_one(m)``. On a shortest path
from a background site to its nearest foreground site, the last site is on the
foreground layer and the one before it on the background layer, and no
foreground-layer site is nearer than that foreground site; the same holds
with the labels swapped. So |phi(x)| = 1 + d(x, L) at every site, and the
sign comes from the mask.

Every site of L lies within one step of a foreground site, so L is found on
the foreground's bounding box grown by one site, and nothing outside that
crop is on a layer. The transform then runs on L's bounding box only. For x
outside the box, let p be x clipped into the box. Every y in the box
satisfies |x-y|_1 = |x-p|_1 + |p-y|_1, so d(x, L) = |x-p|_1 + d(p, L): the
box's edge values carried outwards by slice writes, one more per step, one
axis after another. Every value is a small integer held in float64, so each
order of additions gives the same bits.
"""

from __future__ import annotations

import numpy as np

from .grid import _neighbor_pairs, as_field, as_mask

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
    crop = _box(m)
    if crop is None:
        raise DegenerateMaskError("mask is all foreground or all background")
    crop = tuple(slice(max(0, c.start - 1), min(n, c.stop + 1)) for c, n in zip(crop, m.shape))
    layers = _layers(m[crop])
    inner = _box(layers)
    if inner is None:  # all foreground: the grown box is the whole grid
        raise DegenerateMaskError("mask is all foreground or all background")
    box = tuple(slice(c.start + b.start, c.start + b.stop) for c, b in zip(crop, inner))
    phi = np.empty(m.shape)
    np.add(ndimage.distance_transform_cdt(~layers[inner], metric="taxicab"), 1.0, out=phi[box])
    for axis, (b, n) in enumerate(zip(box, m.shape)):
        # the rows before and after the box along this axis, already full
        # along the axes before it and still box-sized along those after it
        head, tail = (slice(None),) * axis, box[axis + 1:]
        for edge, rows, steps in ((b.start, slice(0, b.start), np.arange(b.start, 0, -1.0)),
                                  (b.stop - 1, slice(b.stop, n), np.arange(1.0, n - b.stop + 1))):
            if steps.size:
                np.add(phi[head + (slice(edge, edge + 1),) + tail],
                       steps.reshape((-1,) + (1,) * len(tail)), out=phi[head + (rows,) + tail])
    return np.negative(phi, out=phi, where=m)


def _layers(m: np.ndarray) -> np.ndarray:
    """``dilate_one(m) ^ erode_one(m)``: the sites with an in-grid neighbour
    of the other label."""
    out = np.zeros(m.shape, dtype=bool)
    for a, b in _neighbor_pairs(m.ndim):
        differs = m[a] != m[b]
        out[a] |= differs
        out[b] |= differs
    return out


def _box(a: np.ndarray) -> tuple[slice, ...] | None:
    """The bounding box of ``a``'s true sites, None if it has none; each axis
    reduces only what the axes before it left."""
    box = []
    for axis in range(a.ndim):
        sub = a[tuple(box)]
        flags = sub.any(axis=tuple(k for k in range(a.ndim) if k != axis))
        first = int(flags.argmax())
        if not flags[first]:
            return None
        box.append(slice(first, flags.size - int(flags[::-1].argmax())))
    return tuple(box)


def sdf_gap(predicted, clean) -> float:
    """Mean pointwise difference ``mean(predicted - clean)`` of two fields."""
    p = as_field(predicted)
    c = as_field(clean)
    if p.shape != c.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {c.shape}")
    return float(np.mean(p - c))
