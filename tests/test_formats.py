"""GTF container and binary PGM: round trips and precise failure offsets."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from segnoise import (
    FormatError,
    load_field,
    load_gtf,
    load_mask,
    load_pgm,
    save_field,
    save_gtf,
    save_mask,
    save_pgm,
)


# a whole 20-byte file: extents 4194304**3 = 2**66 sites, which a 64-bit
# product wraps to 0, matching the empty payload
HUGE_GTF = b"GTF1" + bytes([0, 3, 0, 0]) + struct.pack("<3I", *[4194304] * 3)


def gtf_bytes(mask=None, field=None, tmp_path=None, name="x.gtf"):
    p = tmp_path / name
    save_gtf(mask if mask is not None else field, p)
    return p, bytearray(p.read_bytes())


# ------------------------------------------------------------------- GTF


def test_mask_round_trip_2d_and_3d(tmp_path, rng):
    for shape in [(5, 7), (3, 4, 5)]:
        m = rng.random(shape) < 0.4
        p = tmp_path / "m.gtf"
        save_gtf(m, p)
        got = load_gtf(p)
        assert got.dtype == np.bool_
        assert np.array_equal(got, m)


def test_field_round_trip_is_bit_exact(tmp_path, rng):
    f = rng.standard_normal((6, 9)).astype(np.float32)
    p = tmp_path / "f.gtf"
    save_gtf(f, p)
    got = load_gtf(p)
    assert got.dtype == np.float32
    assert got.tobytes() == f.tobytes()
    save_gtf(f, p)
    assert p.read_bytes() == p.read_bytes()


def test_header_layout_is_fixed(tmp_path):
    m = np.zeros((2, 3), dtype=bool)
    m[0, 1] = True
    p = tmp_path / "m.gtf"
    save_gtf(m, p)
    raw = p.read_bytes()
    assert raw[:4] == b"GTF1"
    assert raw[4] == 0 and raw[5] == 2 and raw[6:8] == b"\x00\x00"
    assert np.frombuffer(raw[8:16], dtype="<u4").tolist() == [2, 3]
    assert raw[16:] == bytes([0, 1, 0, 0, 0, 0])


def test_expectation_mismatch_names_the_dtype_byte(tmp_path, rng):
    f = rng.standard_normal((4, 4)).astype(np.float32)
    p = tmp_path / "f.gtf"
    save_gtf(f, p)
    with pytest.raises(FormatError) as err:
        load_gtf(p, expect="mask")
    assert err.value.offset == 4
    m = rng.random((4, 4)) < 0.5
    save_gtf(m, p)
    with pytest.raises(FormatError) as err:
        load_gtf(p, expect="field")
    assert err.value.offset == 4


@pytest.mark.parametrize(
    "mutate,offset",
    [
        (lambda b: b.__setitem__(slice(0, 4), b"GTF9"), 0),
        (lambda b: b.__setitem__(4, 7), 4),
        (lambda b: b.__setitem__(5, 4), 5),
        (lambda b: b.__setitem__(6, 1), 6),
        (lambda b: b.__setitem__(slice(8, 12), (0).to_bytes(4, "little")), 8),
        (lambda b: b.__setitem__(slice(None), HUGE_GTF), 20),
    ],
)
def test_corrupt_headers_report_their_offset(tmp_path, rng, mutate, offset):
    p, raw = gtf_bytes(mask=rng.random((4, 5)) < 0.5, tmp_path=tmp_path)
    mutate(raw)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        load_gtf(p)
    assert err.value.offset == offset
    assert f"at byte {offset}" in str(err.value)


def test_truncated_and_oversized_payloads_are_rejected(tmp_path, rng):
    p, raw = gtf_bytes(mask=rng.random((4, 5)) < 0.5, tmp_path=tmp_path)
    p.write_bytes(bytes(raw[:-3]))
    with pytest.raises(FormatError) as err:
        load_gtf(p)
    assert err.value.offset == 16  # payload start for a 2-D file
    p.write_bytes(bytes(raw) + b"\x00")
    with pytest.raises(FormatError):
        load_gtf(p)


def test_mask_payload_must_be_binary(tmp_path, rng):
    p, raw = gtf_bytes(mask=rng.random((2, 2)) < 0.5, tmp_path=tmp_path)
    raw[16] = 2
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_gtf(p)


def test_field_file_rejects_non_finite_payload(tmp_path):
    f = np.ones((2, 2), dtype=np.float32)
    p = tmp_path / "f.gtf"
    save_gtf(f, p)
    raw = bytearray(p.read_bytes())
    raw[16:20] = np.float32("nan").tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_gtf(p)


# ------------------------------------------------------------------- PGM


def test_pgm_round_trip(tmp_path, rng):
    m = rng.random((7, 11)) < 0.5
    p = tmp_path / "m.pgm"
    save_pgm(m, p)
    assert np.array_equal(load_pgm(p), m)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n11 7\n255\n")
    assert set(raw[len(b"P5\n11 7\n255\n"):]) <= {0, 255}


def test_pgm_threshold_at_128(tmp_path):
    p = tmp_path / "g.pgm"
    p.write_bytes(b"P5\n2 1\n255\n" + bytes([127, 128]))
    assert load_pgm(p).tolist() == [[False, True]]


def test_pgm_header_comments_and_whitespace(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5 # creator\n# full comment line\n 3\t1 # cols rows\n255\n" + bytes([0, 255, 9]))
    assert load_pgm(p).tolist() == [[False, True, False]]


def test_pgm_rejects_other_variants(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n2 1\n255\n0 255\n")
    with pytest.raises(FormatError) as err:
        load_pgm(p)
    assert err.value.offset == 0
    p.write_bytes(b"P5\n2 1\n65535\n" + bytes([0, 0, 0, 0]))
    with pytest.raises(FormatError):
        load_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255]))
    with pytest.raises(FormatError):
        load_pgm(p)
    # no whitespace byte after maxval, the file ending at maxval, an extent
    # too long for int()
    for raw, offset in ((b"P5 2 1 255X" + bytes([0, 255]), 10), (b"P5 2 1 255", 10),
                        (b"P5 " + b"9" * 5000 + b" 1 255\n" + bytes(1), 3)):
        p.write_bytes(raw)
        with pytest.raises(FormatError) as err:
            load_pgm(p)
        assert err.value.offset == offset


def test_pgm_is_2d_only(tmp_path):
    with pytest.raises(ValueError):
        save_pgm(np.zeros((2, 2, 2), dtype=bool), tmp_path / "v.pgm")


# ------------------------------------------------------------------- dispatch


def test_mask_io_dispatches_on_suffix(tmp_path, rng):
    m = rng.random((5, 6)) < 0.5
    for name in ("a.pgm", "a.gtf"):
        p = tmp_path / name
        save_mask(m, p)
        assert np.array_equal(load_mask(p), m)
    with pytest.raises(ValueError):
        save_mask(m, tmp_path / "a.png")


def test_pgm_and_gtf_agree_on_binary_content(tmp_path, rng):
    m = rng.random((9, 4)) < 0.3
    save_mask(m, tmp_path / "m.pgm")
    save_mask(m, tmp_path / "m.gtf")
    assert np.array_equal(load_mask(tmp_path / "m.pgm"), load_mask(tmp_path / "m.gtf"))


def test_field_io_round_trip(tmp_path, rng):
    f = rng.standard_normal((4, 4)).astype(np.float32)
    save_field(f, tmp_path / "f.gtf")
    assert np.array_equal(load_field(tmp_path / "f.gtf"), f)


# ------------------------------------------------------------------- fuzz


@st.composite
def gtf_like(draw):
    """Bytes that get past the magic check: a drawn header, then a payload
    whose length is the declared one give or take a byte."""
    ndim = draw(st.integers(0, 4))
    code = draw(st.integers(0, 2))
    extents = draw(st.lists(st.integers(0, 5) | st.sampled_from([2**22, 2**32 - 1]),
                            min_size=ndim, max_size=ndim))
    head = b"GTF1" + bytes([code, ndim]) + struct.pack("<H", draw(st.sampled_from([0, 0, 1])))
    head += struct.pack(f"<{ndim}I", *extents)
    head = head[:draw(st.integers(0, len(head)))] if draw(st.booleans()) else head
    size = int(np.prod(extents, dtype=object)) * (4 if code == 1 else 1)
    size = min(size, 400) + draw(st.integers(-1, 1))
    return head + draw(st.binary(min_size=max(size, 0), max_size=max(size, 0)))


@st.composite
def pgm_like(draw):
    """Bytes that get past the magic check: header tokens (digit runs of any
    length, signs, comments, odd separators), then a raster whose length is
    the declared one give or take a byte."""
    sep = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b" # note\n", b"#", b"", b"x"])
    token = (st.text("0123456789", max_size=12).map(str.encode)
             | st.integers(4000, 6000).map(lambda n: b"0" * (n % 2) + b"9" * n)
             | st.sampled_from([b"0", b"1", b"2", b"255", b"65535", b"-1", b"+3", b"2.5"]))
    tokens = draw(st.lists(token, min_size=0, max_size=3))
    head = b"P5" + b"".join(draw(sep) + t for t in tokens) + draw(sep)
    w, h = (int(t) if t.isdigit() and len(t) < 5 else 3 for t in (tokens + [b"", b""])[:2])
    size = min(w * h, 400) + draw(st.integers(-1, 1))
    return head + draw(st.binary(min_size=max(size, 0), max_size=max(size, 0)))


@given(st.binary(max_size=64) | gtf_like() | pgm_like())
def test_loaders_return_an_array_or_name_a_byte_offset(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("fuzz", numbered=True)
    for name, load, kinds in (("x.gtf", load_gtf, (bool, np.float32)),
                              ("x.gtf", load_mask, (bool,)),
                              ("x.gtf", load_field, (np.float32,)),
                              ("x.pgm", load_pgm, (bool,)),
                              ("x.pgm", load_mask, (bool,))):
        path = root / name
        path.write_bytes(data)
        try:
            out = load(path)
        except FormatError as e:
            assert 0 <= e.offset <= len(data)
            assert re.search(rf"at byte {e.offset}\b", str(e))
            continue
        assert isinstance(out, np.ndarray) and out.dtype in kinds
        assert out.ndim in ((2,) if name == "x.pgm" else (2, 3)) and min(out.shape) >= 1
        if out.dtype == np.float32:
            assert np.isfinite(out).all()
