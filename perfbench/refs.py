"""Reference computations and output checks for the segnoise benchmark.

Nothing here imports segnoise. Each check recomputes the expected result from
the definitions in the package documentation, or tests a property the method
must have, and returns a list of problems: empty when the output is right.
The benchmark's own tests feed every check a deliberately wrong output to
show that it fails.
"""

from __future__ import annotations

import math
import struct

import numpy as np

# (T, theta1, theta2, theta3) of the paper presets the walk workload uses, as
# documented; kept here rather than read from segnoise.PRESETS so that a
# changed preset shows as a mismatch.
WALK_PRESETS = {
    "jsrt-lung-se": (180, 0.7, 0.03, 0.1),
    "brats-se": (80, 0.7, 0.05, 0.1),
}

# the worked example of the validation-size bound (README: prints 2956)
WORKED_BOUND = {"eps0": 1.0, "eps1": 20.0, "eps": 2.0, "alpha": 0.05, "image_size": 65536}


def read_gtf_mask(path) -> np.ndarray:
    """Decode a GTF u8 mask file (magic, dtype, ndim, reserved, u32 extents, payload)."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, code, ndim, _reserved = struct.unpack_from("<4sBBH", data, 0)
    if magic != b"GTF1" or code != 0 or ndim not in (2, 3):
        raise ValueError(f"{path}: not a GTF mask file")
    shape = struct.unpack_from(f"<{ndim}I", data, 8)
    payload = np.frombuffer(data, dtype=np.uint8, offset=8 + 4 * ndim)
    if payload.size != math.prod(shape):
        raise ValueError(f"{path}: payload does not match extents {shape}")
    return (payload != 0).reshape(shape)


def neighbour_any(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per site: (has an in-grid foreground neighbour, has an in-grid background neighbour).

    Neighbours differ by one step along one axis; sites outside the grid are
    absent, so an edge site has fewer neighbours.
    """
    fg_nb = np.zeros(mask.shape, dtype=bool)
    bg_nb = np.zeros(mask.shape, dtype=bool)
    for axis in range(mask.ndim):
        for dst, src in ((slice(1, None), slice(None, -1)), (slice(None, -1), slice(1, None))):
            d = [slice(None)] * mask.ndim
            s = [slice(None)] * mask.ndim
            d[axis], s[axis] = dst, src
            nb = mask[tuple(s)]
            fg_nb[tuple(d)] |= nb
            bg_nb[tuple(d)] |= ~nb
    return fg_nb, bg_nb


def reference_walk(mask: np.ndarray, steps: int, theta1: float, theta2: float,
                   theta3: float, seed: int) -> np.ndarray:
    """The boundary walk in its documented draw order, without smoothing.

    All draws come from ``default_rng(seed)``: per step the direction coin,
    then one coin per site of the moving boundary layer in row-major order;
    last, one flip coin per stable site (label unchanged by the walk) in
    row-major order.
    """
    rng = np.random.default_rng(seed)
    out = mask.copy()
    flat = out.reshape(-1)
    for _ in range(steps):
        expand = rng.random() < theta1
        fg_nb, bg_nb = neighbour_any(out)
        band = (~out & fg_nb) if expand else (out & bg_nb)
        sites = np.flatnonzero(band)
        if sites.size:
            flat[sites[rng.random(sites.size) < theta2]] = expand
    if theta3 > 0:
        stable = np.flatnonzero(flat == mask.reshape(-1))
        if stable.size:
            hit = stable[rng.random(stable.size) < theta3]
            flat[hit] = ~flat[hit]
    return out


def check_walk(clean: np.ndarray, noisy: np.ndarray, preset: str, seed: int) -> list[str]:
    """The noisy mask must equal the reference walk bit for bit."""
    expected = reference_walk(clean, *WALK_PRESETS[preset], seed)
    if noisy.shape != expected.shape:
        return [f"{preset} seed {seed}: shape {noisy.shape}, expected {expected.shape}"]
    diff = int((noisy != expected).sum())
    return [f"{preset} seed {seed}: {diff} sites differ from the reference walk"] if diff else []


def taxicab_signed_distance(mask: np.ndarray) -> np.ndarray:
    """Signed grid distance by peeling layers: +d on background, -d on foreground.

    Layer d of one side is the set of its sites first reached after d
    neighbour steps from the other side.
    """
    if mask.all() or not mask.any():
        raise ValueError("mask without an interface")
    out = np.zeros(mask.shape)
    for side, sign in ((~mask, 1.0), (mask, -1.0)):
        reached = ~side
        remaining = side.copy()
        d = 0
        while remaining.any():
            d += 1
            layer = remaining & neighbour_any(reached)[0]
            out[layer] = sign * d
            reached = reached | layer
            remaining &= ~layer
    return out


def check_signed_distance(mask: np.ndarray, phi: np.ndarray) -> list[str]:
    expected = taxicab_signed_distance(mask)
    if phi.shape != expected.shape:
        return [f"signed distance shape {phi.shape}, expected {expected.shape}"]
    diff = int((phi != expected).sum())
    return [f"signed distance differs from the peeled taxicab distance at {diff} sites"] if diff else []


def one_step_regime(theta1: float, theta2: float) -> str:
    """Closed-form one-step most-likely mask: dilation, erosion or the mask itself."""
    if theta1 * theta2 >= 0.5:
        return "expand"
    if 1.0 + theta1 * theta2 - theta2 < 0.5:
        return "shrink"
    return "identity"


def check_bayes_report(measurements: dict, passed: bool, theta1: float, theta2: float) -> list[str]:
    regime = one_step_regime(theta1, theta2)
    problems = []
    if measurements["regime"] != regime:
        problems.append(f"theta=({theta1}, {theta2}): regime {measurements['regime']!r}, "
                        f"closed form says {regime!r}")
    if measurements["n_disagree"] != 0 or not passed:
        problems.append(f"theta=({theta1}, {theta2}): {measurements['n_disagree']} decided "
                        f"sites disagree with the closed-form mask")
    return problems


def check_one_step_means(mask: np.ndarray, mean: np.ndarray, theta1: float, theta2: float,
                         n_samples: int) -> list[str]:
    """Per-site frequencies after one step without flips (theta3 = 0).

    Sites off the two boundary layers never move, so their frequency equals
    the mask exactly. A background boundary site turns on with probability
    theta1*theta2, a foreground one stays on with 1 - (1-theta1)*theta2; each
    layer's mean must lie within 3 sigma of that, where sigma counts the
    covariance theta1*(1-theta1)*theta2^2 the shared direction coin puts
    between sites of one layer.
    """
    fg_nb, bg_nb = neighbour_any(mask)
    bg_layer = ~mask & fg_nb
    fg_layer = mask & bg_nb
    interior = ~(bg_layer | fg_layer)
    problems = []
    if not np.array_equal(mean[interior], mask[interior].astype(float)):
        problems.append("a site off the boundary layers moved in one step")
    cov = theta1 * (1.0 - theta1) * theta2 * theta2
    for name, layer, p in (("background", bg_layer, theta1 * theta2),
                           ("foreground", fg_layer, 1.0 - (1.0 - theta1) * theta2)):
        n_sites = int(layer.sum())
        sigma = math.sqrt((p * (1.0 - p) + (n_sites - 1) * cov) / (n_samples * n_sites))
        got = float(mean[layer].mean())
        if abs(got - p) > 3.0 * sigma:
            problems.append(f"theta=({theta1}, {theta2}): {name} boundary mean {got!r} is more "
                            f"than 3 sigma ({sigma:.3g}) from {p!r}")
    return problems


def required_validation_size(eps0: float, eps1: float, eps: float, alpha: float,
                             image_size: int) -> int:
    """ceil(eps1^2 / (2 (eps - eps0)^2) * ln(2 N / alpha)), the paper's bound."""
    return math.ceil(eps1 ** 2 / (2.0 * (eps - eps0) ** 2) * math.log(2.0 * image_size / alpha))


def check_bound_report(measurements: dict, passed: bool, inputs: dict, holdout: int) -> list[str]:
    v = required_validation_size(**inputs)
    problems = []
    if measurements["v_required"] != v:
        problems.append(f"v_required {measurements['v_required']}, expected {v}")
    if measurements["pool_size"] != v + holdout:
        problems.append(f"pool of {measurements['pool_size']} images, expected {v + holdout}")
    if not passed:
        problems.append(f"the empirical failure rate exceeds alpha: {measurements}")
    return problems


def check_bound_answer(stdout: str) -> list[str]:
    """`segnoise bound` at the worked example must print the bound and nothing else."""
    v = required_validation_size(**WORKED_BOUND)
    return [] if stdout.strip() == str(v) else [f"bound printed {stdout.strip()!r}, expected {v}"]


def check_recovery(scores: dict, delta_hats: list[float]) -> list[str]:
    """Test Dice of the three pipeline arms against what the correction loop did.

    ``delta_hats`` is the loop's bias estimate per fit. If the first one is
    below one lattice layer, the loop stops without relabelling, and the
    corrected arm must score exactly as the noisy arm, which was trained on
    the same labels. Otherwise it must win back at least half of what the
    noise cost. Either way it may not beat the clean-label ceiling by more
    than 0.01 (acceptance test 7's upper bound).
    """
    clean, noisy, sc = scores["clean"], scores["noisy"], scores["sc"]
    problems = []
    if len(delta_hats) == 1:
        if abs(delta_hats[0]) >= 1.0:
            problems.append(f"loop stopped on a bias of {delta_hats[0]!r} layers")
        if sc != noisy:
            problems.append(f"loop relabelled nothing, yet the corrected arm differs: {scores}")
    elif not noisy < clean:
        problems.append(f"noisy labels did not cost accuracy: {scores}")
    elif sc - noisy < 0.5 * (clean - noisy):
        problems.append(f"correction recovered less than half the noise cost: {scores}")
    if sc > clean + 0.01:
        problems.append(f"corrected arm beats the clean ceiling by more than 0.01: {scores}")
    return problems


def logistic_loss(w: np.ndarray, X: np.ndarray, y: np.ndarray, l2: float) -> float:
    """Mean logistic cross-entropy plus 0.5*l2*|w[1:]|^2, written out directly."""
    f = X @ w
    per_row = np.maximum(f, 0.0) + np.log1p(np.exp(-np.abs(f))) - y * f
    return float(per_row.mean() + 0.5 * l2 * float(w[1:] @ w[1:]))


def check_loss_and_grad(loss_and_grad, rng: np.random.Generator, n_cases: int = 8) -> list[str]:
    """Compare loss_and_grad with the written-out loss and its central differences."""
    problems = []
    h = 1e-6
    for case in range(n_cases):
        n, k = int(rng.integers(200, 600)), 4
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        y = (rng.random(n) < 0.5).astype(np.float64)
        w = rng.normal(scale=0.5, size=k)
        l2 = (0.0, 1e-4, 1e-2)[case % 3]
        loss, grad = loss_and_grad(w, X, y, l2)
        ref = logistic_loss(w, X, y, l2)
        if not math.isclose(loss, ref, rel_tol=1e-10, abs_tol=1e-12):
            problems.append(f"loss {loss!r}, written-out loss {ref!r}")
        fd = np.array([(logistic_loss(w + h * e, X, y, l2) - logistic_loss(w - h * e, X, y, l2))
                       / (2.0 * h) for e in np.eye(k)])
        rel = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12))
        if rel > 1e-5:
            problems.append(f"gradient off its central differences by {rel:.3g} (relative)")
    return problems


def random_blob_mask(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """A union of 1-4 random ellipses with a sprinkle of isolated sites: a
    non-convex mask with holes and islands for the signed-distance check."""
    grids = np.ogrid[tuple(slice(0, e) for e in shape)]
    mask = np.zeros(shape, dtype=bool)
    for _ in range(int(rng.integers(1, 5))):
        centre = [rng.uniform(0.2 * e, 0.8 * e) for e in shape]
        radii = [rng.uniform(0.05 * e, 0.3 * e) for e in shape]
        mask |= sum(((g - c) / r) ** 2 for g, c, r in zip(grids, centre, radii)) <= 1.0
    mask ^= rng.random(shape) < 0.001
    return mask
