"""Independent reference implementations the tests check the library against.

Nothing here may call into segnoise's own geometry/distance code paths. Distances
come from explicit graph adjacency plus scipy's shortest-path solver, boundaries
from hand-rolled neighbor loops, expectations from closed-form arithmetic, and
synthetic shapes from the generator the caller hands in.
``run_fresh`` runs code in a new interpreter, for what a running test process
cannot show: what an import loads, what an environment variable read at
start-up changes, or what outlives a killed process (``start_fresh``).
``assert_no_child_left`` checks that a fan-out reaped every process it forked,
and ``decide_ranges`` and ``decide_halves`` stand in for a fan-out to show
how many processes it would have run.

The last two helpers are fixtures, not oracles: ``boundaries`` and
``interior_hole_flips`` build on segnoise's own code, and the tests that use
them check that code against the oracles above.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.ndimage import distance_transform_cdt, gaussian_filter
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

from segnoise import as_mask, boundary_layer, signed_distance


def brute_boundaries(mask):
    """(fg_boundary, bg_boundary) by direct neighbor enumeration."""
    m = np.asarray(mask, dtype=bool)
    has_fg_neighbor = np.zeros(m.shape, dtype=bool)
    has_bg_neighbor = np.zeros(m.shape, dtype=bool)
    for axis in range(m.ndim):
        for shift in (1, -1):
            lo = [slice(None)] * m.ndim
            hi = [slice(None)] * m.ndim
            lo[axis] = slice(1, None) if shift == 1 else slice(None, -1)
            hi[axis] = slice(None, -1) if shift == 1 else slice(1, None)
            nb = m[tuple(hi)]
            has_fg_neighbor[tuple(lo)] |= nb
            has_bg_neighbor[tuple(lo)] |= ~nb
    return m & has_bg_neighbor, ~m & has_fg_neighbor


def reference_walk(mask, steps, theta1, theta2, theta3, smooth_sigma, rng):
    """The noise process as documented, recomputing both boundary layers by
    brute_boundaries at every step: per step one direction draw, then one
    coin per site of the chosen layer in row-major order; then the optional
    blur (truncated at 3 sigma, zero outside) re-thresholded at 1/2; then one
    flip coin per stable site in row-major order."""
    m = np.asarray(mask, dtype=bool)
    cur = m.copy()
    for _ in range(steps):
        expand = rng.random() < theta1
        fg_b, bg_b = brute_boundaries(cur)
        sites = np.flatnonzero(bg_b if expand else fg_b)
        if sites.size:
            hit = sites[rng.random(sites.size) < theta2]
            cur.flat[hit] = expand
    if smooth_sigma > 0:
        cur = gaussian_filter(cur.astype(np.float64), smooth_sigma, mode="constant",
                              cval=0.0, truncate=3.0) >= 0.5
    if theta3 > 0:
        stable = np.flatnonzero(cur == m)
        if stable.size:
            hit = stable[rng.random(stable.size) < theta3]
            cur.flat[hit] = ~cur.flat[hit]
    return cur


def brute_signed_distance(mask):
    """Signed grid distance by all-pairs shortest path on the explicit lattice graph.

    Background sites get 1 + the shortest path length to the nearest background
    boundary site, foreground the negated mirror. Deliberately O(n^2): correctness
    over speed.
    """
    m = np.asarray(mask, dtype=bool)
    if m.all() or not m.any():
        raise ValueError("mask without an interface")
    n = m.size
    idx = np.arange(n).reshape(m.shape)
    src, dst = [], []
    for axis in range(m.ndim):
        lead = np.moveaxis(idx, axis, 0)
        src.append(lead[:-1].ravel())
        dst.append(lead[1:].ravel())
    src = np.concatenate(src)
    dst = np.concatenate(dst)
    graph = coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    dist = shortest_path(graph, method="D", directed=False, unweighted=True)

    flat = m.ravel()
    fg = np.flatnonzero(flat)
    bg = np.flatnonzero(~flat)
    cross = dist[np.ix_(fg, bg)] == 1
    fg_bound = fg[cross.any(axis=1)]
    bg_bound = bg[cross.any(axis=0)]
    phi = np.empty(n, dtype=np.float64)
    phi[bg] = dist[np.ix_(bg, bg_bound)].min(axis=1) + 1
    phi[fg] = -(dist[np.ix_(fg, fg_bound)].min(axis=1) + 1)
    return phi.reshape(m.shape)


def cdt_signed_distance(mask):
    """Signed distance as two full-grid chamfer transforms, ``cdt(~m) - cdt(m)``.

    Each city-block transform gives every site its L1 distance to the nearest
    site of the other label (zero on its own side), so the difference is +d
    on background and -d on foreground.
    """
    m = np.asarray(mask, dtype=bool)
    to_fg = distance_transform_cdt(~m, metric="taxicab")
    to_bg = distance_transform_cdt(m, metric="taxicab")
    return (to_fg - to_bg).astype(np.float64)


def one_step_expectation(mask, theta1, theta2, theta3):
    """Closed-form per-site expectation of the single-step noisy label.

    Background boundary sites turn FG when the step expands (theta1) and their
    coin hits (theta2); if untouched they are stable and may flip (theta3).
    Foreground boundary sites mirror that. Everything else is stable.
    """
    m = np.asarray(mask, dtype=bool)
    fg_b, bg_b = brute_boundaries(m)
    grow = theta1 * theta2
    shrink = (1.0 - theta1) * theta2
    out = np.where(m, 1.0 - theta3, theta3)
    out[bg_b] = grow + (1.0 - grow) * theta3
    out[fg_b] = (1.0 - shrink) * (1.0 - theta3)
    return out


def boundary_mean_sigma(p, cov, n_samples, n_sites):
    """Std dev of the grand mean over equicorrelated boundary sites.

    Within one sample the shared expand/shrink draw correlates all sites of a
    boundary layer; across samples draws are independent.
    """
    var = (p * (1.0 - p) + (n_sites - 1) * cov) / (n_samples * n_sites)
    return float(np.sqrt(max(var, 0.0)))


def finite_difference_grad(fn, w, h=1e-6):
    """Central-difference gradient of a scalar function of a weight vector."""
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros_like(w)
    for i in range(w.size):
        step = np.zeros_like(w)
        step[i] = h
        g[i] = (fn(w + step) - fn(w - step)) / (2.0 * h)
    return g


def random_mask(rng, shape, p=None):
    """Random mask guaranteed to have both classes present."""
    if p is None:
        p = rng.uniform(0.15, 0.85)
    m = rng.random(shape) < p
    if m.all():
        m.flat[rng.integers(m.size)] = False
    if not m.any():
        m.flat[rng.integers(m.size)] = True
    return m


def reference_balls(rng, shape, family):
    """One synthetic mask's shapes, each an integer ``(center, radii)``, drawn
    from ``rng`` in the documented order: the shape count (ellipse unions
    only, 1 to 3), then per shape its radius (disks) or one semi-axis per
    axis, then its center per axis, which keeps the shape 2 sites from the
    grid's edge. Radii run from max(2, m // 8) to max(that, m // 4), m the
    least extent."""
    lo = max(2, min(shape) // 8)
    hi = max(lo, min(shape) // 4)
    balls = []
    for _ in range(1 if family == "disks" else int(rng.integers(1, 4))):
        if family == "disks":
            radii = (int(rng.integers(lo, hi + 1)),) * len(shape)
        else:
            radii = tuple(int(r) for r in rng.integers(lo, hi + 1, size=len(shape)))
        balls.append((tuple(int(rng.integers(2 + r, e - 2 - r)) for e, r in zip(shape, radii)),
                      radii))
    return balls


def _fresh_env(env: dict) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_fresh(code, **env):
    """Run ``code`` in a new interpreter that imports segnoise from this
    checkout, with ``env`` added to the environment."""
    return subprocess.run([sys.executable, "-c", code], env=_fresh_env(env),
                          capture_output=True, text=True)


def start_fresh(code, **env):
    """``run_fresh`` without waiting: the running process, its stdout a
    text pipe."""
    return subprocess.Popen([sys.executable, "-c", code], env=_fresh_env(env),
                            stdout=subprocess.PIPE, text=True)


def assert_no_child_left():
    """This process has no child process, running or waiting to be reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process was left behind")


class Decided(Exception):
    """Raised by a stand-in for a fan-out, with the process count it got."""


def decide_ranges(fn, n, processes, *args):
    """A stand-in for ``map_ranges`` that runs nothing."""
    from segnoise import _fanout

    raise Decided(_fanout._processes(processes, n))


def decide_halves(fn, n, processes, width, *args):
    """A stand-in for ``halves`` that runs nothing."""
    from segnoise import _fanout

    raise Decided(_fanout._processes(processes, 2))


def boundaries(mask):
    """Return ``(foreground boundary, background boundary)`` of a mask.

    The two sets are disjoint; both are empty exactly when the mask is
    uniform (all foreground or all background).
    """
    return boundary_layer(mask, False), boundary_layer(mask, True)


def interior_hole_flips(mask, rate: float, min_depth: int = 3, seed: int = 0) -> np.ndarray:
    """Flip deep-interior foreground sites to background with probability ``rate``.

    Only sites at signed distance <= -min_depth are eligible, so the flips
    form holes strictly inside the object. Eligible sites are visited in
    row-major order; one coin each.
    """
    m = as_mask(mask)
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    if min_depth < 2:
        raise ValueError("min_depth must be >= 2 to keep holes interior")
    phi = signed_distance(m)
    sites = np.flatnonzero(phi <= -float(min_depth))
    out = m.copy()
    if sites.size:
        hit = sites[np.random.default_rng(seed).random(sites.size) < rate]
        out.reshape(-1)[hit] = False
    return out
