"""Lattice masks: boundaries, one-step morphology, and overlap metrics.

Everything here works on plain numpy arrays. Binary masks are boolean arrays
(True = foreground), scalar fields are float arrays. Grids are 2D or 3D; two
sites are neighbors when they differ by one step along exactly one axis (4
neighbors in 2D, 6 in 3D).
Sites outside the grid are simply absent: nothing wraps or reflects.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "as_mask",
    "as_field",
    "boundary_layer",
    "dilate_one",
    "erode_one",
    "threshold",
    "dice",
]


def _neighbor_pairs(ndim: int) -> Iterator[tuple[tuple[slice, ...], tuple[slice, ...]]]:
    """Per axis, the slices ``(a, b)`` with ``x[a]`` the sites that have a
    predecessor along that axis and ``x[b]`` those predecessors, in step."""
    for axis in range(ndim):
        a = [slice(None)] * ndim
        b = [slice(None)] * ndim
        a[axis] = slice(1, None)
        b[axis] = slice(None, -1)
        yield tuple(a), tuple(b)


def as_mask(a) -> np.ndarray:
    """Validate `a` as a 2D/3D binary mask and return it as a contiguous bool array."""
    arr = np.asarray(a)
    if arr.ndim not in (2, 3):
        raise ValueError(f"grids must be 2D or 3D, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValueError(f"grid extents must be positive, got shape {arr.shape}")
    if arr.dtype != bool:
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("mask values must be 0/1")
        arr = arr.astype(bool)
    return np.ascontiguousarray(arr)


def as_field(a) -> np.ndarray:
    """Validate `a` as a 2D/3D finite scalar field, returned as float64."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ValueError(f"grids must be 2D or 3D, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValueError(f"grid extents must be positive, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("scalar fields must be finite everywhere")
    return np.ascontiguousarray(arr)


def dilate_one(mask) -> np.ndarray:
    """Grow the foreground by its adjacent background layer."""
    m = as_mask(mask)
    out = m.copy()
    for a, b in _neighbor_pairs(m.ndim):
        out[a] |= m[b]
        out[b] |= m[a]
    return out


def erode_one(mask) -> np.ndarray:
    """Remove the exposed foreground boundary layer."""
    m = as_mask(mask)
    # a missing off-grid neighbor exposes nothing: a foreground site on the
    # image edge is interior unless an in-grid background neighbor exposes it
    out = m.copy()
    for a, b in _neighbor_pairs(m.ndim):
        out[a] &= m[b]
        out[b] &= m[a]
    return out


def boundary_layer(mask, expand: bool) -> np.ndarray:
    """The sites one boundary step may flip.

    With ``expand`` true, the background sites with at least one foreground
    neighbor; otherwise the foreground sites with at least one background
    neighbor.
    """
    m = as_mask(mask)
    if expand:
        return dilate_one(m) & ~m
    return m & ~erode_one(m)


def threshold(field, tau: float, mode: str = "ge") -> np.ndarray:
    """Binarize a scalar field: ``mode="ge"`` keeps values >= tau, ``"le"`` <= tau.

    Both comparisons are inclusive.
    """
    f = as_field(field)
    if mode == "ge":
        return f >= tau
    if mode == "le":
        return f <= tau
    raise ValueError(f"mode must be 'ge' or 'le', got {mode!r}")


def dice(a, b) -> float:
    """Dice overlap 2|A&B| / (|A|+|B|); two empty masks score 1.0."""
    ma, mb = as_mask(a), as_mask(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    denom = int(ma.sum()) + int(mb.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((ma & mb).sum()) / denom
