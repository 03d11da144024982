"""Boundary-walk label noise: stepping, sampling, presets, closed forms."""

import ast
import hashlib
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.ndimage import gaussian_filter

from segnoise import (
    PRESETS,
    MarkovNoiseParams,
    SynthSpec,
    bayes_mask_one_step,
    centered_disk,
    dilate_one,
    erode_one,
    expected_label_mc,
    generate,
    load_presets,
    preset,
    signed_distance,
    synth_masks,
)
from _oracles import (
    Decided,
    boundaries,
    boundary_mean_sigma,
    brute_boundaries,
    decide_ranges,
    one_step_expectation,
    random_mask,
    reference_walk,
)


def params(**kw):
    base = dict(steps=1, theta1=0.5, theta2=0.5, theta3=0.0, smooth_sigma=0.0, seed=0)
    base.update(kw)
    return MarkovNoiseParams(**base)


# ---------------------------------------------------------------- parameters


def test_probabilities_must_be_in_range():
    with pytest.raises(ValueError):
        params(theta1=1.5)
    with pytest.raises(ValueError):
        params(theta2=-0.1)
    with pytest.raises(ValueError):
        params(steps=-1)
    for sigma in (-0.5, float("nan"), float("inf")):
        message = f"^smooth_sigma must be finite and >= 0, got {sigma}$"
        with pytest.raises(ValueError, match=message):
            params(smooth_sigma=sigma)


def test_flip_rate_near_half_is_rejected_and_high_rates_warn():
    with pytest.raises(ValueError):
        params(theta3=0.5)
    with pytest.warns(UserWarning):
        params(theta3=0.2)


def test_tabulated_presets():
    p = preset("jsrt-clavicle-se")
    assert (p.steps, p.theta1, p.theta2, p.theta3) == (100, 0.7, 0.03, 0.1)
    p = preset("isic-se")
    assert (p.steps, p.theta1, p.theta2, p.theta3) == (200, 0.8, 0.05, 0.1)
    p = preset("brats-ss")
    assert (p.steps, p.theta1, p.theta2, p.theta3) == (80, 0.3, 0.05, 0.1)
    tiny = preset("tiny-se")
    assert (tiny.steps, tiny.theta1, tiny.theta2, tiny.theta3) == (8, 0.8, 0.5, 0.02)
    assert all(isinstance(p, MarkovNoiseParams) for p in PRESETS.values())


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        preset("no-such-setting")


def test_presets_load_from_config(tmp_path):
    cfg = tmp_path / "noise.cfg"
    cfg.write_text(
        "[preset.demo]\nT = 4\ntheta1 = 0.9\ntheta2 = 0.25\ntheta3 = 0.05\nsmooth_sigma = 1.5\n"
    )
    got = load_presets(cfg)["demo"]
    assert (got.steps, got.theta1, got.theta2) == (4, 0.9, 0.25)
    assert (got.theta3, got.smooth_sigma) == (0.05, 1.5)


def test_config_rejects_unknown_or_missing_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[preset.x]\nT = 4\ntheta1 = 0.9\ntheta2 = 0.25\nbogus = 1\n")
    with pytest.raises(ValueError):
        load_presets(bad)
    missing = tmp_path / "missing.cfg"
    missing.write_text("[preset.x]\nT = 4\ntheta1 = 0.9\n")
    with pytest.raises(ValueError):
        load_presets(missing)


@pytest.mark.parametrize("line, detail", [
    ("smooth_sigma = inf", "smooth_sigma must be finite and >= 0, got inf"),
    ("T = abc", "invalid literal for int() with base 10: 'abc'"),
    ("theta1 = 1.5", "theta1 must be in [0, 1], got 1.5"),
], ids=["smooth_sigma", "T", "theta1"])
def test_config_value_errors_name_the_file_and_section(tmp_path, line, detail):
    cfg = tmp_path / "extra.ini"
    values = {"T": "4", "theta1": "0.9", "theta2": "0.25"}
    key, value = line.split(" = ")
    values[key] = value
    cfg.write_text("[preset.demo]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    with pytest.raises(ValueError) as err:
        load_presets(cfg)
    assert str(err.value) == f"{cfg}: [preset.demo]: {detail}"


# ---------------------------------------------------------------- stepping


def test_step_hand_examples():
    m = np.array([[0, 0, 1, 0, 0]], dtype=bool)
    grow, shrink = params(theta1=1.0, theta2=1.0), params(theta1=0.0, theta2=1.0)
    assert generate(m, grow).tolist() == [[False, True, True, True, False]]
    assert not generate(m, shrink).any()
    assert np.array_equal(generate(m, params(theta1=1.0, theta2=0.0)), m)


@given(
    st.one_of(hnp.arrays(np.bool_, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9)),
              hnp.arrays(np.bool_, hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=5))),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_step_changes_only_its_boundary_layer(m, expand, seed):
    fg_b, bg_b = brute_boundaries(m)
    layer = bg_b if expand else fg_b
    out = generate(m, params(theta1=float(expand), theta2=0.5, seed=seed))
    changed = out != m
    assert not (changed & ~layer).any()
    assert np.array_equal(out[changed], np.full(int(changed.sum()), expand))
    # with every coin a winner, the step flips the whole layer, edges included
    assert np.array_equal(generate(m, params(theta1=float(expand), theta2=1.0)), m ^ layer)


# ---------------------------------------------------------------- generate


def test_zero_steps_zero_flip_is_identity(disk9):
    assert np.array_equal(generate(disk9, params(steps=0)), disk9)


def test_forced_expansion_is_one_dilation(disk9):
    out = generate(disk9, params(theta1=1.0, theta2=1.0))
    assert np.array_equal(out, dilate_one(disk9))


def test_forced_shrinkage_is_one_erosion(disk9):
    out = generate(disk9, params(theta1=0.0, theta2=1.0))
    assert np.array_equal(out, erode_one(disk9))


def test_degenerate_mask_is_a_fixed_point():
    empty = np.zeros((5, 5), dtype=bool)
    assert not generate(empty, params(steps=4, theta1=1.0, theta2=1.0)).any()
    full = np.ones((5, 5), dtype=bool)
    assert generate(full, params(steps=4, theta1=0.0, theta2=1.0)).all()


@pytest.mark.parametrize("steps", [1, 3, 6])
def test_changes_stay_within_walk_range(steps):
    mask = centered_disk((33, 33), radius=8)
    phi = signed_distance(mask)
    for seed in range(25):
        out = generate(mask, params(steps=steps, theta1=0.6, theta2=0.8, seed=seed))
        changed = out != mask
        assert (np.abs(phi[changed]) <= steps).all()


def test_monotone_regimes():
    mask = centered_disk((21, 21), radius=5)
    for seed in range(10):
        up = generate(mask, params(steps=4, theta1=1.0, theta2=0.7, seed=seed))
        assert (mask & ~up).sum() == 0
        down = generate(mask, params(steps=4, theta1=0.0, theta2=0.7, seed=seed))
        assert (down & ~mask).sum() == 0


def test_same_seed_reproduces_and_seeds_differ():
    mask = centered_disk((33, 33), radius=8)
    p = params(steps=5, theta1=0.7, theta2=0.6, theta3=0.05, seed=11)
    a = generate(mask, p)
    assert np.array_equal(a, generate(mask, p))
    b = generate(mask, params(steps=5, theta1=0.7, theta2=0.6, theta3=0.05, seed=12))
    assert not np.array_equal(a, b)


def test_flips_touch_only_sites_the_walk_left_alone():
    mask = centered_disk((33, 33), radius=8)
    base = params(steps=3, theta1=0.6, theta2=0.8, seed=4)
    walked = generate(mask, base)
    flipped = generate(mask, params(steps=3, theta1=0.6, theta2=0.8, theta3=0.09, seed=4))
    # identical seed: the walk phase draws first, so both runs share it
    moved_by_flip = flipped != walked
    assert moved_by_flip.any()
    assert np.array_equal(walked[moved_by_flip], mask[moved_by_flip])


def test_smoothing_shaves_block_corners():
    # Hand arithmetic for sigma=1, radius-3 kernel: half-line weight sum
    # 0.6995, so a block corner blurs to 0.6995^2 = 0.489 < 0.5 and drops,
    # while edge sites keep >= 0.59.
    m = np.zeros((11, 11), dtype=bool)
    m[3:8, 3:8] = True
    out = generate(m, params(steps=0, smooth_sigma=1.0))
    expect = m.copy()
    for r, c in [(3, 3), (3, 7), (7, 3), (7, 7)]:
        expect[r, c] = False
    assert np.array_equal(out, expect)


def test_generate_matches_documented_draw_order():
    # Reference re-implementation of the normative RNG consumption: one
    # direction draw per step, coins at that step's boundary sites in
    # row-major order, then flip coins over stable sites in row-major order.
    mask = centered_disk((25, 25), radius=6)
    p = params(steps=3, theta1=0.6, theta2=0.7, theta3=0.08, seed=99)

    rng = np.random.default_rng(99)
    cur = mask.copy()
    for _ in range(p.steps):
        expand = rng.random() < p.theta1
        fg_b, bg_b = brute_boundaries(cur)
        band = bg_b if expand else fg_b
        sites = np.flatnonzero(band.ravel())
        hit = rng.random(sites.size) < p.theta2
        flat = cur.ravel().copy()
        flat[sites[hit]] = expand
        cur = flat.reshape(cur.shape)
    stable = np.flatnonzero(cur.ravel() == mask.ravel())
    flip = rng.random(stable.size) < p.theta3
    flat = cur.ravel().copy()
    flat[stable[flip]] = ~flat[stable[flip]]
    expect = flat.reshape(cur.shape)

    assert np.array_equal(generate(mask, p), expect)


def _digest(mask):
    return hashlib.sha256(np.ascontiguousarray(mask, dtype=np.uint8).tobytes()).hexdigest()


# Recorded from the full-grid walk that recomputed both layers by morphology
# at every step; the incremental walk must reproduce every bit. The masks are
# those `segnoise synth --count 1 --size SHAPE --family ellipse-unions --seed S`
# writes.
WALK_DIGESTS = [
    ((256, 256), 21, "01a8bf39e23a16dfa5956ff11937ac9889ed09a0aefe00112bd6a2fb63f443a2", "jsrt-lung-se",
     {1: "016f82ba737de9368a52da31cfe19eb00a6ea929e5c35b671db58207a436655b",
      2: "9088b09cb744fa4a85552b3e191b8586712c732bd6e4982419e1eb18e247bf33"}),
    ((64, 64, 64), 31, "4eaaaaa2b06e90fa18a8a6f38b87e17998b48580488ac17ad8745a613458c32b", "brats-se",
     {1: "c030e591c7a4b55f9e892c9139a37eda95f30b2f24c4ecd47f93c402c05b9197",
      2: "d832a2f41daed6ccc54d3d8d493f2357572f68b9673815a0e0a8aec24658a2e4"}),
]


@pytest.mark.parametrize("shape,mask_seed,mask_digest,name,walks", WALK_DIGESTS,
                         ids=["256x256", "64x64x64"])
def test_paper_scale_walks_keep_their_bits(shape, mask_seed, mask_digest, name, walks):
    (mask,) = synth_masks(SynthSpec(count=1, shape=shape, family="ellipse-unions", seed=mask_seed))
    assert _digest(mask) == mask_digest  # the input, so a synth change is not blamed on the walk
    for seed, digest in walks.items():
        assert _digest(generate(mask, replace(preset(name), seed=seed))) == digest


def _shapes():
    return (hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)
            | hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=8))


# random masks touch the grid edge more often than not; uniform ones have no layer
_masks = st.one_of(_shapes().flatmap(lambda s: hnp.arrays(np.bool_, s)),
                   st.tuples(_shapes(), st.booleans()).map(lambda a: np.full(*a)))


@given(_masks,
       st.integers(0, 12),
       st.floats(0.0, 1.0),
       st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       st.sampled_from([0.0]) | st.floats(0.0, 0.09),
       st.sampled_from([0.0]) | st.floats(0.3, 1.5),
       st.integers(0, 2**32 - 1))
def test_generate_equals_the_reference_walk(m, steps, t1, t2, t3, sigma, seed):
    p = MarkovNoiseParams(steps=steps, theta1=t1, theta2=t2, theta3=t3, smooth_sigma=sigma,
                          seed=seed)
    expect = reference_walk(m, steps, t1, t2, t3, sigma, np.random.default_rng(seed))
    assert np.array_equal(generate(m, p), expect)


# ---------------------------------------------------------------- sampling


@pytest.mark.parametrize("threads", [1, 2])
def test_mc_is_the_mean_of_generate_over_the_child_seeds(threads):
    # expected_label_mc hands every sample one shared starting state; each
    # sample must still be the walk that generate takes from its child seed.
    # One step with theta3 = 0 and no smoothing is tallied on the layers'
    # site lists instead: a 3-D mask, a mask cut by the grid's edge, certain
    # coins, and a uniform mask, whose layers are both empty
    rng = np.random.default_rng(5)
    cut = np.zeros((8, 10), bool)
    cut[:3, 6:] = cut[5:, :2] = True
    cases = [(centered_disk((17, 17), radius=4), params(theta1=0.7, theta2=0.6, theta3=0.05, seed=5)),
             (random_mask(rng, (9, 11)), params(steps=4, theta1=0.5, theta2=0.7, seed=6)),
             (random_mask(rng, (5, 4, 6)),
              params(steps=3, theta1=0.4, theta2=0.5, theta3=0.02, smooth_sigma=0.8, seed=7)),
             (random_mask(rng, (5, 4, 6)), params(theta1=0.6, theta2=0.4, seed=8)),
             (cut, params(theta1=0.3, theta2=0.7, seed=9)),
             (cut, params(theta1=0.0, theta2=1.0, seed=10)),
             (cut, params(theta1=1.0, theta2=1.0, seed=11)),
             (np.ones((6, 7), bool), params(theta1=0.5, theta2=0.9, seed=12))]
    n = 30
    for mask, p in cases:
        children = np.random.SeedSequence(p.seed).spawn(n)
        # generate seeds its stream with default_rng(params.seed), which takes a SeedSequence
        votes = sum(generate(mask, replace(p, seed=c)).astype(np.int64) for c in children)
        assert np.array_equal(expected_label_mc(mask, p, n, threads=threads), votes / n)


@pytest.mark.parametrize("cpus,theta3", [(1, 0.05), (2, 0.05), (1, 0.0), (2, 0.0)],
                         ids=["1", "2", "1-tally", "2-tally"])
def test_forked_mc_is_the_mean_of_generate_over_the_child_seeds(monkeypatch, cpus, theta3):
    # enough samples for two worker processes, on a mask small enough to keep
    # the 2 x 2,000 walks and 2 x 6,000 reference draws cheap; the second
    # worker's range starts off a 255-sample block, and theta3 = 0 takes the
    # one-step layer tally with its own grain
    from segnoise import _fanout, noise

    monkeypatch.setattr(_fanout.os, "cpu_count", lambda: cpus)
    counts = []
    real = _fanout._processes
    monkeypatch.setattr(_fanout, "_processes", lambda *a: counts.append(real(*a)) or counts[-1])
    mask = centered_disk((7, 7), radius=2)
    p = params(theta1=0.6, theta2=0.7, theta3=theta3, seed=21)
    n = 2 * (noise._MC_GRAIN if theta3 else noise._TALLY_GRAIN)
    children = np.random.SeedSequence(p.seed).spawn(n)
    votes = sum(generate(mask, replace(p, seed=c)).astype(np.int64) for c in children)
    assert np.array_equal(expected_label_mc(mask, p, n, threads=2), votes / n)
    assert counts == [cpus]


# 0xdc2e... is one SeedSequence().entropy, drawn once; 2**160 + 12345 takes 6
# words, and a list of integers gives the words of each in turn
@pytest.mark.parametrize("entropy", [0, 5, 0xdc2ec76571bb702f7d3dc70b632b0366,
                                     2**160 + 12345, [3, 2**40 + 7]])
@pytest.mark.parametrize("lo,hi", [(0, 3), (254, 258), (250, 1300), (2**32 - 3, 2**32)])
def test_child_generators_are_the_spawned_children(entropy, lo, hi):
    from segnoise import _seeds

    for i, rng in zip(range(lo, hi), _seeds._child_rngs(entropy, lo, hi), strict=True):
        child = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(i,)))
        assert rng.bit_generator.state == child.bit_generator.state
        assert np.array_equal(rng.random(300), child.random(300))
        # an odd count leaves half of a 64-bit draw buffered, which the next
        # child must not see
        assert np.array_equal(rng.integers(2**32, size=3, dtype=np.uint32),
                              child.integers(2**32, size=3, dtype=np.uint32))


@pytest.mark.parametrize("lo,hi", [(0, 3), (1000, 1030), (2**32 - 3, 2**32)])
def test_child_outputs_are_the_spawned_childrens_raw_draws(lo, hi):
    from segnoise import _seeds

    entropy = 0xdc2ec76571bb702f7d3dc70b632b0366
    out = _seeds._child_outputs(_seeds._words(entropy), lo, hi, 5)
    for i, row in zip(range(lo, hi), out, strict=True):
        child = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(i,)))
        assert np.array_equal(row, child.bit_generator.random_raw(5))


def test_no_child_past_the_first_spawn_key_word_is_seeded():
    from segnoise import _seeds

    with pytest.raises(ValueError, match=r"^child indices must be below 2\*\*32, got up to 4294967296$"):
        next(_seeds._child_rngs(5, 2**32 - 1, 2**32 + 1))


def test_the_bounded_decode_is_the_generators_integers():
    # 2**31 + 1 values reject about half of all words, so cursors run far
    # past the two words a child starts with; a range of one value takes no
    # word, a child that does not draw takes none either, and 2**32 - 1
    # values is the widest range numpy draws this way
    from segnoise import _seeds

    n = 1200
    draws = _seeds._ChildIntegers(7, 0, n, 2)
    odd = np.arange(n) % 2 == 1
    got = []
    for _ in range(6):
        got += [draws.integers(0, 2**31 + 1), draws.integers(5, 6),
                draws.integers(np.arange(n), np.arange(n) + 9, odd),
                draws.integers(1, 2**32)]
    assert draws.cursor.max() > 2  # past the words of the first output
    got = np.array(got).T
    for i, child in enumerate(np.random.SeedSequence(7).spawn(n)):
        rng = np.random.default_rng(child)
        want = []
        for _ in range(6):
            want += [rng.integers(0, 2**31 + 1), rng.integers(5, 6),
                     rng.integers(i, i + 9) if i % 2 else 0, rng.integers(1, 2**32)]
        assert got[i].tolist() == want


@pytest.mark.parametrize("lo,hi", [(0, 40), (2**32 - 40, 2**32)])
def test_a_placed_generator_stands_where_the_childs_own_does(lo, hi):
    # every fourth child draws nothing, one in four draws from 2**31 + 1
    # values, which rejects about half of all words, one draws once from 9
    # values (one word: a buffered half) and one twice (two words)
    from segnoise import _seeds

    entropy = 0xdc2ec76571bb702f7d3dc70b632b0366
    kind = np.arange(hi - lo) % 4
    draws = _seeds._ChildIntegers(entropy, lo, hi, 2)
    draws.integers(0, 2**31 + 1, kind == 1)
    draws.integers(0, 9, kind >= 2)
    draws.integers(0, 9, kind == 3)
    used = draws.cursor
    assert 0 in used and 1 in used and 2 in used and (used[kind == 1] > 1).any()
    for i, k, rng in zip(range(lo, hi), kind, draws.rngs(), strict=True):
        child = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(i,)))
        if k == 1:
            child.integers(0, 2**31 + 1)
        for _ in range(k // 2 + k // 3):
            child.integers(0, 9)
        assert rng.bit_generator.state == child.bit_generator.state
        assert np.array_equal(rng.integers(2**32, size=3, dtype=np.uint32),
                              child.integers(2**32, size=3, dtype=np.uint32))


def moved(key, shift):
    """A PCG64 whose public setter moves one value of the state it is given
    by ``shift``, so that the value is not where the setter was asked to put it."""
    real = np.random.PCG64

    def setter(self, value):
        value = dict(value, state=dict(value["state"]))
        if key in value["state"]:
            value["state"][key] += shift
        else:
            value[key] = shift
        real.state.__set__(self, value)

    # the setter checks the class name
    return type("PCG64", (real,), {"state": property(real.state.__get__, setter)})


@pytest.mark.parametrize("key,shift", [("inc", 2), ("state", 1), ("has_uint32", 0),
                                       ("uinteger", 7)])
def test_an_unrecognised_state_layout_raises_before_any_draw(monkeypatch, key, shift):
    from segnoise import _seeds

    monkeypatch.setattr(np.random, "PCG64", moved(key, shift))
    _seeds._pcg64_layout.cache_clear()
    try:
        children = _seeds._child_rngs(5, 0, 3)
        with pytest.raises(RuntimeError, match=f"^numpy {re.escape(np.__version__)}: PCG64 "):
            next(children)
        with pytest.raises(RuntimeError, match="child generators cannot be seeded$"):
            expected_label_mc(centered_disk((9, 9), radius=2), params(), 10)
    finally:
        _seeds._pcg64_layout.cache_clear()


def raw_memory_uses(path):
    """Lines of ``path`` that import ``ctypes`` or reach an object's raw
    memory through a ``ctypes`` or ``ctypeslib`` attribute."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        uses += [f"{path.name}:{node.lineno}: {name}" for name in names
                 if name.split(".")[0] in ("ctypes", "ctypeslib")]
    return uses


def test_only_the_seeds_module_touches_raw_memory():
    # so that the write of a generator's state words stays in one place
    from segnoise import _seeds

    package = Path(_seeds.__file__).parent
    assert raw_memory_uses(package / "_seeds.py")  # the check sees what it looks for
    others = sorted(set(package.glob("*.py")) - {package / "_seeds.py"})
    assert others
    assert [use for path in others for use in raw_memory_uses(path)] == []


def test_mc_refuses_sample_indices_beyond_one_spawn_key_word(monkeypatch):
    from segnoise import noise

    def no_draws(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(noise, "map_ranges", no_draws)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        expected_label_mc(centered_disk((9, 9), radius=2), params(), 2**32 + 1)


@pytest.mark.parametrize("threads", [0, -1])
def test_mc_refuses_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match=f"^threads must be >= 1, got {threads}$"):
        expected_label_mc(centered_disk((9, 9), radius=2), params(), 100, threads=threads)


# sha256 of the float64 field, recorded from the walk that scanned the padded
# layer at its first step and summed every sample's votes into int64. The
# one-step counts straddle 255 samples per process, with one process and with
# two; interior sites vote in every sample.
MC_CONFIGS = {
    "one-step": params(theta1=0.7, theta2=0.6, seed=5),
    "six-steps-theta3": params(steps=6, theta1=0.5, theta2=0.4, theta3=0.05, seed=6),
    "smoothed": params(steps=3, theta1=0.6, theta2=0.5, smooth_sigma=0.8, seed=7),
}
MC_DIGESTS = {
    ("one-step", 254): "6c7a1ab21f108678d40962025035d96be6a9739f22a7ab244f55bca52b76d2b7",
    ("one-step", 255): "07bc953c1c9a0357d26d06c58aa4f2f7b2d5229cedfc1ea82ffbb388c9a8cdb7",
    ("one-step", 256): "f5a250d8b0c71746b83da991774bdc49ec27ac9f0b5db0bc1f1d6e806bf6310e",
    ("one-step", 511): "a26bfdc51ecb0ab3f8ea95dc78fa821fb1d4a2b0c6f979adf8bde8f657a594d9",
    ("one-step", 508): "c3d33931bf00c553cf9477e27c1cbc35c86a35ed30116c0a22f89ef83997a23d",
    ("one-step", 510): "1e979fd86fdee87b0c4e3bc73459b48db7ef2076b0cbcfe3cab8b8740ed271eb",
    ("one-step", 512): "5f313ae9523bd73fd3b72f7e544119d5316573fcfcb34b1d29367bd7d213047b",
    ("one-step", 1022): "ba2816e742ffaf942afd50a6cbce5f6f133bbeb741d45a845e902120487f4302",
    ("six-steps-theta3", 300): "af8073b36daf61ca5d57037c929ab14b70523cf5cd3a18ca3f0624f1ef685558",
    ("smoothed", 300): "7fd9803e4d674689cb5beee32cf1be0824982b6c13e47ee751ce43a914c61c6e",
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name,n", list(MC_DIGESTS))
def test_mc_fields_keep_their_bits(monkeypatch, name, n, threads):
    from segnoise import _fanout, noise

    # two processes at any sample count: each takes n // 2 or so
    monkeypatch.setattr(_fanout.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_fanout.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(noise, "_MC_GRAIN", 1)
    monkeypatch.setattr(noise, "_TALLY_GRAIN", 1)
    (mask,) = synth_masks(SynthSpec(count=1, shape=(32, 32), family="ellipse-unions", seed=4))
    field = expected_label_mc(mask, MC_CONFIGS[name], n, threads=threads)
    assert hashlib.sha256(field.tobytes()).hexdigest() == MC_DIGESTS[name, n]


def test_mc_with_dead_coins_equals_the_mask(disk9):
    field = expected_label_mc(disk9, params(steps=3, theta2=0.0), n_samples=100)
    assert np.array_equal(field, disk9.astype(float))


def test_mc_thread_count_does_not_change_the_field(monkeypatch):
    # four CPUs and four grains of walk samples: the caller and three helpers
    from segnoise import _fanout, noise

    mask = centered_disk((17, 17), radius=4)
    p = params(theta1=0.7, theta2=0.5, theta3=0.05, seed=3)
    n = 4 * noise._MC_GRAIN
    one = expected_label_mc(mask, p, n_samples=n, threads=1)
    real_fork = _fanout.os.fork
    read, write = os.pipe()

    def fork():  # one byte per fork, from whichever process forks
        os.write(write, b"f")
        return real_fork()

    monkeypatch.setattr(_fanout.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(_fanout.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr(_fanout.os, "fork", fork)
    try:
        four = expected_label_mc(mask, p, n_samples=n, threads=4)
    finally:
        os.close(write)
    forks = os.read(read, 4096)
    os.close(read)
    assert len(forks) == 3
    assert np.array_equal(one, four)
    assert (one >= 0).all() and (one <= 1).all()


def test_mc_threads_are_capped_at_the_cpu_count(monkeypatch):
    # the process count is decided before any process starts, so none starts here
    import multiprocessing

    from segnoise import _fanout, noise

    def mc_processes(threads, n):  # the walk's count, without a sample drawn
        with monkeypatch.context() as mp:
            mp.setattr(noise, "map_ranges", decide_ranges)
            with pytest.raises(Decided) as decided:
                expected_label_mc(centered_disk((9, 9), radius=2), params(theta3=0.05), n,
                                  threads=threads)
        return decided.value.args[0]

    grain = noise._MC_GRAIN
    monkeypatch.setattr(_fanout.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(_fanout.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    assert _fanout._processes(10**6, 10**9) == 4
    assert _fanout._processes(3, 10**9) == 3
    assert mc_processes(4, 4 * grain) == 4
    assert mc_processes(4, 4 * grain - 1) == 3  # one grain per process
    assert mc_processes(4, 2 * grain - 1) == 1  # too small to repay a fork
    assert _fanout._processes(10**6, 3) == 3  # at most one process per item
    assert mc_processes(10**6, 7) == 1
    assert _fanout._processes(0, 10**9) == 1
    monkeypatch.setattr(_fanout.os, "cpu_count", lambda: None)  # count unknown
    assert _fanout._processes(8, 10**9) == 1
    monkeypatch.setattr(_fanout.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert _fanout._processes(8, 10**9) == 1  # no fork on this platform


def test_one_step_means_match_closed_form():
    mask = centered_disk((33, 33), radius=8)
    t1, t2, t3 = 0.7, 0.5, 0.0
    n = 20000
    field = expected_label_mc(mask, params(theta1=t1, theta2=t2, theta3=t3, seed=7), n)
    expect = one_step_expectation(mask, t1, t2, t3)
    fg_b, bg_b = boundaries(mask)
    interior = ~fg_b & ~bg_b

    # off-boundary sites never move at theta3=0
    assert np.array_equal(field[interior], expect[interior])

    # one shared direction draw per sample correlates sites within a layer
    cov = t1 * (1 - t1) * t2 * t2
    for layer, p_site in ((bg_b, t1 * t2), (fg_b, 1 - t2 + t1 * t2)):
        m_sites = int(layer.sum())
        tol = 3 * boundary_mean_sigma(p_site, cov, n, m_sites)
        assert abs(field[layer].mean() - p_site) < tol


def test_one_step_flip_rate_shows_up_off_boundary():
    mask = centered_disk((33, 33), radius=8)
    t3 = 0.1
    n = 20000
    field = expected_label_mc(mask, params(theta1=0.7, theta2=0.5, theta3=t3, seed=8), n)
    fg_b, bg_b = boundaries(mask)
    inner = mask & ~fg_b
    outer = ~mask & ~bg_b
    for region, p_site in ((inner, 1 - t3), (outer, t3)):
        m_sites = int(region.sum())
        tol = 3 * np.sqrt(p_site * (1 - p_site) / (n * m_sites))
        assert abs(field[region].mean() - p_site) < tol


# ---------------------------------------------------------------- one-step map


def test_one_step_map_regimes(disk9):
    assert np.array_equal(bayes_mask_one_step(disk9, 0.7, 0.9), dilate_one(disk9))
    assert np.array_equal(bayes_mask_one_step(disk9, 0.2, 0.8), erode_one(disk9))
    assert np.array_equal(bayes_mask_one_step(disk9, 0.5, 0.5), disk9)


def test_one_step_map_boundary_cases(disk9):
    # expansion wins on the exact 0.5 product; the shrink test is strict
    assert np.array_equal(bayes_mask_one_step(disk9, 0.5, 1.0), dilate_one(disk9))
    assert np.array_equal(bayes_mask_one_step(disk9, 1.0, 0.5), dilate_one(disk9))


# ---------------------------------------------------------------- misc


@given(st.integers(0, 2**32 - 1))
def test_generate_accepts_arbitrary_masks(seed):
    rng = np.random.default_rng(seed)
    m = random_mask(rng, (6, 6))
    out = generate(m, params(steps=2, theta1=0.5, theta2=0.5, theta3=0.05, seed=seed))
    assert out.shape == m.shape and out.dtype == np.bool_


def test_smoothing_matches_separable_gaussian_reference():
    m = np.zeros((9, 9), dtype=bool)
    m[2:7, 3:6] = True
    out = generate(m, params(steps=0, smooth_sigma=0.8))
    blurred = gaussian_filter(m.astype(np.float64), 0.8, mode="constant", truncate=3.0)
    assert np.array_equal(out, blurred >= 0.5)
