"""Mask vocabulary: boundaries, morphology, dice, thresholding."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.ndimage import binary_dilation, binary_erosion, generate_binary_structure

from segnoise import (
    as_mask,
    dice,
    dilate_one,
    erode_one,
    threshold,
)
from _oracles import boundaries, brute_boundaries

masks_2d = hnp.arrays(
    np.bool_, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)
)
masks_3d = hnp.arrays(
    np.bool_, hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=6)
)


def row(bits):
    return np.array([bits], dtype=bool)


def test_boundaries_on_a_single_pixel_row():
    fg_b, bg_b = boundaries(row([0, 0, 1, 0, 0]))
    assert fg_b.tolist() == [[False, False, True, False, False]]
    assert bg_b.tolist() == [[False, True, False, True, False]]


def test_boundaries_empty_mask_has_no_boundary():
    fg_b, bg_b = boundaries(np.zeros((4, 4), dtype=bool))
    assert not fg_b.any() and not bg_b.any()


def test_boundaries_center_pixel_3x3():
    m = np.zeros((3, 3), dtype=bool)
    m[1, 1] = True
    fg_b, bg_b = boundaries(m)
    assert fg_b.sum() == 1 and fg_b[1, 1]
    # 4-neighborhood: edge centers, not corners
    expect = np.zeros((3, 3), dtype=bool)
    expect[0, 1] = expect[2, 1] = expect[1, 0] = expect[1, 2] = True
    assert np.array_equal(bg_b, expect)


@given(masks_2d)
def test_boundaries_match_neighbor_enumeration_2d(m):
    fg_b, bg_b = boundaries(m)
    ref_fg, ref_bg = brute_boundaries(m)
    assert np.array_equal(fg_b, ref_fg)
    assert np.array_equal(bg_b, ref_bg)


@given(masks_3d)
def test_boundaries_match_neighbor_enumeration_3d(m):
    fg_b, bg_b = boundaries(m)
    ref_fg, ref_bg = brute_boundaries(m)
    assert np.array_equal(fg_b, ref_fg)
    assert np.array_equal(bg_b, ref_bg)


@given(masks_2d)
def test_boundary_layers_are_disjoint_and_on_their_own_side(m):
    fg_b, bg_b = boundaries(m)
    assert not (fg_b & bg_b).any()
    assert not (fg_b & ~m).any()
    assert not (bg_b & m).any()


@given(masks_2d)
def test_complement_swaps_boundary_roles(m):
    fg_b, bg_b = boundaries(m)
    fg_c, bg_c = boundaries(~m)
    assert np.array_equal(fg_b, bg_c)
    assert np.array_equal(bg_b, fg_c)


def test_dilate_and_erode_single_pixel_row():
    m = row([0, 0, 1, 0, 0])
    assert dilate_one(m).tolist() == [[False, True, True, True, False]]
    assert not erode_one(m).any()


def test_dilate_full_mask_is_identity():
    m = np.ones((3, 4), dtype=bool)
    assert np.array_equal(dilate_one(m), m)


@given(masks_2d)
def test_morphology_is_monotone(m):
    er = erode_one(m)
    di = dilate_one(m)
    assert (m | di).sum() == di.sum()  # m subset of dilate
    assert (er & ~m).sum() == 0  # erode subset of m
    assert not (dilate_one(er) & ~m).any()  # opening stays inside


@given(masks_3d)
def test_morphology_uses_six_neighbors_in_3d(m):
    fg_b, bg_b = boundaries(m)
    assert np.array_equal(dilate_one(m), m | bg_b)
    assert np.array_equal(erode_one(m), m & ~fg_b)


def assert_matches_scipy_cross_morphology(m):
    before = m.copy()
    cross = generate_binary_structure(m.ndim, 1)
    # off-grid sites count as background for dilation, foreground for erosion
    assert np.array_equal(dilate_one(m), binary_dilation(m, cross, border_value=0))
    assert np.array_equal(erode_one(m), binary_erosion(m, cross, border_value=1))
    assert np.array_equal(m, before)


@given(masks_2d)
def test_morphology_matches_scipy_cross_element_2d(m):
    assert_matches_scipy_cross_morphology(m)


@given(masks_3d)
def test_morphology_matches_scipy_cross_element_3d(m):
    assert_matches_scipy_cross_morphology(m)


def test_dice_hand_values():
    a = row([0, 0, 1, 0, 0])
    b = row([0, 1, 1, 1, 0])
    assert dice(a, a) == 1.0
    assert dice(a, b) == 0.5
    assert dice(a, row([1, 1, 0, 0, 0])) == 0.0


def test_dice_of_two_empty_masks_is_one():
    e = np.zeros((2, 2), dtype=bool)
    assert dice(e, e) == 1.0


def test_dice_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        dice(np.zeros((2, 2), dtype=bool), np.zeros((2, 3), dtype=bool))


@given(masks_2d, st.integers(0, 2**32 - 1))
def test_dice_is_symmetric(a, seed):
    b = np.random.default_rng(seed).random(a.shape) < 0.5
    assert dice(a, b) == dice(b, a)
    assert 0.0 <= dice(a, b) <= 1.0


def test_threshold_is_inclusive_on_both_modes():
    f = np.full((2, 2), 0.5)
    assert threshold(f, 0.5, mode="ge").all()
    assert threshold(f, 0.5, mode="le").all()
    assert not threshold(np.full((2, 2), 0.3), 0.5, mode="ge").any()


@given(hnp.arrays(np.float64, (4, 4), elements=st.floats(-3, 3, allow_nan=False)))
def test_threshold_modes_partition_around_tau(f):
    tau = 0.25
    ge = threshold(f, tau, mode="ge")
    assert np.array_equal(~ge, f < tau)
    le = threshold(f, tau, mode="le")
    assert np.array_equal(~le, f > tau)


def test_as_mask_accepts_01_ints_and_rejects_other_values():
    m = as_mask(np.array([[0, 1], [1, 0]]))
    assert m.dtype == np.bool_
    with pytest.raises(ValueError):
        as_mask(np.array([[0, 2], [1, 0]]))
    with pytest.raises(ValueError):
        as_mask(np.zeros(5))  # 1-D has no lattice neighborhood here
