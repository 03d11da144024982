"""Signed distance fields against an independent shortest-path oracle."""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from segnoise import (
    DegenerateMaskError,
    SynthSpec,
    centered_disk,
    dilate_one,
    erode_one,
    sdf_gap,
    signed_distance,
    synth_masks,
    threshold,
)
from _oracles import brute_signed_distance, cdt_signed_distance, random_mask

nondegenerate_2d = hnp.arrays(
    np.bool_, hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=10)
).filter(lambda m: m.any() and not m.all())
nondegenerate_3d = hnp.arrays(
    np.bool_, hnp.array_shapes(min_dims=3, max_dims=3, min_side=2, max_side=4)
).filter(lambda m: m.any() and not m.all())


def test_single_pixel_row_field():
    phi = signed_distance(np.array([[0, 0, 1, 0, 0]], dtype=bool))
    assert phi.tolist() == [[2.0, 1.0, -1.0, 1.0, 2.0]]
    assert phi.dtype == np.float64


def test_center_pixel_3x3_field():
    m = np.zeros((3, 3), dtype=bool)
    m[1, 1] = True
    expect = [[2.0, 1.0, 2.0], [1.0, -1.0, 1.0], [2.0, 1.0, 2.0]]
    assert signed_distance(m).tolist() == expect


def test_degenerate_masks_are_rejected():
    for shape in [(3, 3), (1, 1), (1, 7), (4, 5), (1, 1, 1), (3, 1, 4)]:
        for fill in (True, False):
            with pytest.raises(DegenerateMaskError,
                               match="^mask is all foreground or all background$"):
                signed_distance(np.full(shape, fill))


@given(nondegenerate_2d)
def test_matches_shortest_path_oracle_2d(m):
    assert np.array_equal(signed_distance(m), brute_signed_distance(m))


@given(nondegenerate_3d)
def test_matches_shortest_path_oracle_3d(m):
    assert np.array_equal(signed_distance(m), brute_signed_distance(m))


def assert_same_field(phi, ref):
    assert phi.dtype == ref.dtype == np.float64
    assert np.array_equal(phi, ref)


@pytest.mark.parametrize("family, shape", [("disks", (256, 256)),
                                           ("ellipse-unions", (256, 256)),
                                           ("disks", (64, 64, 64)),
                                           ("ellipse-unions", (64, 64, 64))],
                         ids=["disks-256x256", "ellipse-unions-256x256",
                              "disks-64x64x64", "ellipse-unions-64x64x64"])
def test_matches_the_two_transform_formula_on_synthetic_masks(family, shape):
    # synthetic masks keep a margin, so these fields come from a cropped box
    for m in synth_masks(SynthSpec(count=3, shape=shape, family=family, seed=11)):
        for x in (m, dilate_one(m), erode_one(m)):
            if x.any():
                assert_same_field(signed_distance(x), cdt_signed_distance(x))


@st.composite
def edge_touching_masks(draw):
    """A box flush with a drawn set of grid sides, or its complement, with
    optional extra flips anywhere; sides of length 1 (1xN, Nx1) included."""
    ndim = draw(st.sampled_from([2, 3]))
    top = 12 if ndim == 2 else 5
    shape = tuple(draw(st.one_of(st.just(1), st.integers(1, top))) for _ in range(ndim))
    box = []
    for n in shape:
        lo = 0 if draw(st.booleans()) else draw(st.integers(0, n - 1))
        hi = n if draw(st.booleans()) else draw(st.integers(lo + 1, n))
        box.append(slice(lo, hi))
    m = np.zeros(shape, dtype=bool)
    m[tuple(box)] = True
    if draw(st.booleans()):
        m = ~m
    if draw(st.booleans()):
        m ^= draw(hnp.arrays(np.bool_, shape))
    assume(m.any() and not m.all())
    return m


@given(edge_touching_masks())
@example(np.array([[1, 1, 0, 0, 0, 0, 0, 0, 0]], dtype=bool))
@example(np.array([[0, 0, 0, 0, 0, 0, 0, 1, 1]], dtype=bool).T)
@example(np.array([[1, 0, 0, 0, 1, 0, 0, 0, 1]], dtype=bool))
def test_matches_the_two_transform_formula_where_layers_meet_the_edge(m):
    assert_same_field(signed_distance(m), cdt_signed_distance(m))


def assert_both_oracles(m):
    phi = signed_distance(m)
    assert_same_field(phi, cdt_signed_distance(m))
    assert_same_field(phi, brute_signed_distance(m))


def block(shape, where, side=2):
    """A side^ndim block placed by ``where``: per axis -1 flush with the low
    edge, +1 flush with the high edge, 0 in the middle."""
    m = np.zeros(shape, dtype=bool)
    m[tuple(slice(0, side) if w < 0 else slice(n - side, n) if w > 0
               else slice((n - side) // 2, (n - side) // 2 + side)
               for n, w in zip(shape, where))] = True
    return m


@pytest.mark.parametrize("shape", [(9, 11), (6, 7, 8)], ids=["9x11", "6x7x8"])
def test_blocks_at_every_edge_and_corner_and_their_complements(shape):
    # where the block sits in the middle, the layers lie far from every edge
    for where in np.ndindex((3,) * len(shape)):
        m = block(shape, [w - 1 for w in where])
        assert_both_oracles(m)
        assert_both_oracles(~m)


@pytest.mark.parametrize("shape", [(5, 6), (3, 4, 3)], ids=["5x6", "3x4x3"])
def test_one_site_and_all_but_one_site_masks(shape):
    for flat in range(int(np.prod(shape))):
        m = np.zeros(shape, dtype=bool)
        m.reshape(-1)[flat] = True
        assert_both_oracles(m)
        assert_both_oracles(~m)


@pytest.mark.parametrize("shape", [(10, 60), (5, 6, 40)], ids=["10x60", "5x6x40"])
def test_two_components_with_a_wide_gap(shape):
    m = np.zeros(shape, dtype=bool)
    m[..., 2:5] = True
    m[(slice(1, 3),) * (len(shape) - 1) + (slice(-4, -1),)] = True
    assert_both_oracles(m)
    assert_both_oracles(~m)


@pytest.mark.parametrize("shape", [(81, 97), (40, 36, 44)], ids=["81x97", "40x36x44"])
def test_shapes_far_from_every_edge(shape):
    m = centered_disk(shape, radius=6)
    m[tuple(n // 2 for n in shape)] = False  # and one hole in the middle
    for x in (m, dilate_one(m), erode_one(m), ~m):
        assert_same_field(signed_distance(x), cdt_signed_distance(x))


@given(nondegenerate_2d)
def test_field_invariants(m):
    phi = signed_distance(m)
    assert (np.abs(phi) >= 1).all()  # the +1 offset leaves no zero layer
    assert np.array_equal(phi < 0, m)  # negative exactly on foreground
    assert np.array_equal(threshold(phi, 0.0, mode="le"), m)
    for axis in range(phi.ndim):
        a = np.moveaxis(phi, axis, 0)
        d = a[1:] - a[:-1]
        assert (np.abs(d) <= 2).all()
        jump = np.abs(d) == 2
        # a jump of 2 happens only across the interface, as a (-1, +1) pair
        assert (a[1:][jump] * a[:-1][jump] == -1).all()


@given(nondegenerate_2d)
def test_complement_negates_the_field(m):
    assert np.array_equal(signed_distance(~m), -signed_distance(m))


@pytest.mark.parametrize("radius", [2, 3, 5])
def test_dilation_shifts_the_field_on_disks(radius):
    m = centered_disk((4 * radius + 3, 4 * radius + 3), radius=radius)
    phi = signed_distance(m)
    plus = signed_distance(dilate_one(m))
    ring = phi == 1
    assert np.array_equal(plus[ring], np.full(int(ring.sum()), -1.0))
    assert np.array_equal(plus[~ring], phi[~ring] - 1)


def centered_diamond(shape, radius):
    r0 = (shape[0] - 1) // 2
    c0 = (shape[1] - 1) // 2
    rr = np.abs(np.arange(shape[0]) - r0)
    cc = np.abs(np.arange(shape[1]) - c0)
    return (rr[:, None] + cc[None, :]) <= radius


@pytest.mark.parametrize("radius", [2, 3, 5])
def test_erosion_shifts_the_field_on_diamonds(radius):
    # Eroding an L1 ball of radius k yields exactly the radius k-1 ball, so
    # every distance moves by one. Euclidean pixelations with width steps of
    # two (e.g. radius 3) break this: their corners retreat diagonally by two.
    m = centered_diamond((4 * radius + 3, 4 * radius + 3), radius)
    phi = signed_distance(m)
    minus = signed_distance(erode_one(m))
    rim = phi == -1
    assert np.array_equal(minus[rim], np.full(int(rim.sum()), 1.0))
    assert np.array_equal(minus[~rim], phi[~rim] + 1)


@pytest.mark.parametrize("radius", [2, 5])
def test_erosion_shift_on_smoothly_stepped_disks(radius):
    m = centered_disk((4 * radius + 3, 4 * radius + 3), radius=radius)
    phi = signed_distance(m)
    minus = signed_distance(erode_one(m))
    rim = phi == -1
    assert np.array_equal(minus[rim], np.full(int(rim.sum()), 1.0))
    assert np.array_equal(minus[~rim], phi[~rim] + 1)


@given(st.integers(0, 2**32 - 1))
def test_dilation_shift_universal_parts(seed):
    # On arbitrary masks the strict shift only survives where geometry is
    # thick enough, but three pieces hold always.
    rng = np.random.default_rng(seed)
    m = random_mask(rng, (7, 8))
    di = dilate_one(m)
    if di.all():
        return
    phi = signed_distance(m)
    plus = signed_distance(di)
    assert np.array_equal(plus[phi >= 2], phi[phi >= 2] - 1)  # surviving background
    assert (plus[phi == 1] <= -1).all()  # annexed ring is foreground now
    assert (plus[m] <= phi[m]).all()  # foreground only deepens
    er = erode_one(m)
    if er.any():
        minus = signed_distance(er)
        assert np.array_equal(minus[phi <= -2], phi[phi <= -2] + 1)
        assert (minus[phi == -1] >= 1).all()
        assert (minus[~m] >= phi[~m]).all()


def test_thin_structures_break_the_strict_shift():
    # A one-pixel background channel: its two flanking rings merge under
    # dilation, so the channel site ends deeper than -1.
    m = np.zeros((7, 9), dtype=bool)
    m[2:5, 1:8] = True
    m[:, 4] = False
    phi = signed_distance(m)
    plus = signed_distance(dilate_one(m))
    assert phi[3, 4] == 1
    assert plus[3, 4] < -1


def test_gap_of_identical_fields_is_zero(disk9):
    phi = signed_distance(disk9)
    assert sdf_gap(phi, phi) == 0.0


def test_gap_of_constant_shift_is_that_constant(disk9):
    phi = signed_distance(disk9)
    assert sdf_gap(phi + 3.0, phi) == 3.0


def test_gap_of_dilated_disk_prediction(disk9):
    phi = signed_distance(disk9)
    plus = signed_distance(dilate_one(disk9))
    assert int(np.sum(phi == 1)) == 12  # hand count on the 13-pixel diamond
    assert np.sum(plus - phi) == -93.0  # 81 sites shift by -1, the ring by -2
    assert sdf_gap(plus, phi) == pytest.approx(-1.0 - 12.0 / 81.0, rel=1e-14)


def test_gap_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        sdf_gap(np.zeros((2, 2)), np.zeros((2, 3)))
