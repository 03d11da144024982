"""On-disk tensor formats: the GTF container and binary PGM masks.

GTF ("grid tensor file") layout, all little-endian:

====== ======= ========================================
offset size    content
====== ======= ========================================
0      4       magic ``GTF1``
4      1       dtype: 0 = u8 mask, 1 = f32 field
5      1       ndim: 2 or 3
6      2       reserved, must be 0
8      4*ndim  extents as u32 ([depth,] height, width)
8+4n   --      payload, row-major
====== ======= ========================================

Masks store one byte per site (0 background, 1 foreground; any other byte
is rejected on load). Fields store IEEE f32 and round-trip bit-exactly.

PGM files are the binary ``P5`` flavor with maxval 255: loading maps values
>= 128 to foreground, saving writes 255/0. PGM is 2D only.

Tabular reports are CSV, written by save_csv.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np

from .grid import as_field, as_mask

__all__ = [
    "FormatError",
    "save_gtf",
    "load_gtf",
    "save_pgm",
    "load_pgm",
    "save_mask",
    "load_mask",
    "save_field",
    "load_field",
    "save_csv",
]

_MAGIC = b"GTF1"
_DTYPE_MASK = 0
_DTYPE_FIELD = 1


class FormatError(ValueError):
    """Malformed file; the message names the file and byte offset."""

    def __init__(self, path, offset: int, detail: str):
        super().__init__(f"{path}: at byte {offset}: {detail}")
        self.path = str(path)
        self.offset = offset


def save_gtf(array, path) -> None:
    """Write a bool mask (as u8) or float field (as f32) to a GTF file."""
    arr = np.asarray(array)
    if arr.dtype == bool:
        payload = np.ascontiguousarray(as_mask(arr).astype(np.uint8))
        code = _DTYPE_MASK
    else:
        payload = np.ascontiguousarray(as_field(arr).astype("<f4"))
        code = _DTYPE_FIELD
    header = struct.pack("<4sBBH", _MAGIC, code, payload.ndim, 0)
    header += struct.pack(f"<{payload.ndim}I", *payload.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def load_gtf(path, expect: str | None = None) -> np.ndarray:
    """Read a GTF file; returns a bool array or an f32 array.

    ``expect`` may be "mask" or "field" to reject the other dtype.
    """
    data = Path(path).read_bytes()
    if len(data) < 8:
        raise FormatError(path, len(data), "truncated header (need at least 8 bytes)")
    magic, code, ndim, reserved = struct.unpack_from("<4sBBH", data, 0)
    if magic != _MAGIC:
        raise FormatError(path, 0, f"bad magic {magic!r}, expected {_MAGIC!r}")
    if code not in (_DTYPE_MASK, _DTYPE_FIELD):
        raise FormatError(path, 4, f"unknown dtype code {code}")
    if expect == "mask" and code != _DTYPE_MASK:
        raise FormatError(path, 4, "expected a u8 mask, found an f32 field")
    if expect == "field" and code != _DTYPE_FIELD:
        raise FormatError(path, 4, "expected an f32 field, found a u8 mask")
    if ndim not in (2, 3):
        raise FormatError(path, 5, f"ndim must be 2 or 3, got {ndim}")
    if reserved != 0:
        raise FormatError(path, 6, f"reserved bytes must be 0, got {reserved}")
    dims_end = 8 + 4 * ndim
    if len(data) < dims_end:
        raise FormatError(path, len(data), "truncated extents")
    shape = struct.unpack_from(f"<{ndim}I", data, 8)
    if any(d < 1 for d in shape):
        raise FormatError(path, 8, f"extents must be positive, got {shape}")
    count = math.prod(shape)  # Python ints: huge extents cannot wrap to a small count
    itemsize = 1 if code == _DTYPE_MASK else 4
    expected = dims_end + count * itemsize
    if len(data) != expected:
        raise FormatError(path, dims_end,
                          f"payload is {len(data) - dims_end} bytes, expected {count * itemsize}")
    if code == _DTYPE_MASK:
        raw = np.frombuffer(data, dtype=np.uint8, offset=dims_end)
        if (raw > 1).any():
            at = dims_end + int(np.argmax(raw > 1))
            raise FormatError(path, at, f"mask payload byte is {raw[raw > 1][0]}, not 0 or 1")
        return (raw != 0).reshape(shape)
    field = np.frombuffer(data, dtype="<f4", offset=dims_end)
    if not np.isfinite(field).all():
        at = dims_end + 4 * int(np.argmin(np.isfinite(field)))
        raise FormatError(path, at, "field payload contains a non-finite value")
    return field.reshape(shape).copy()


def save_pgm(mask, path) -> None:
    """Write a 2D mask as binary PGM (foreground 255, background 0)."""
    m = as_mask(mask)
    if m.ndim != 2:
        raise ValueError("PGM holds 2D masks only; use GTF for 3D")
    h, w = m.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write((m.astype(np.uint8) * 255).tobytes())


def _pgm_token(path, data: bytes, pos: int) -> tuple[int, int, int]:
    """Next integer header token after whitespace/comments; returns (value, start, end)."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in b" \t\r\n":
            pos += 1
        elif c == ord("#"):
            nl = data.find(b"\n", pos)
            pos = n if nl == -1 else nl + 1
        else:
            break
    start = pos
    while pos < n and ord("0") <= data[pos] <= ord("9"):
        pos += 1
    if start == pos:
        raise FormatError(path, start, "malformed header token (expected an integer)")
    digits = data[start:pos].lstrip(b"0") or b"0"
    # no valid header holds a value of 10**18 or more; int() refuses past 4300 digits
    if len(digits) > 18:
        raise FormatError(path, start, f"header integer has {len(digits)} digits, too large")
    return int(digits), start, pos


def load_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255); values >= 128 become foreground."""
    data = Path(path).read_bytes()
    if data[:2] != b"P5":
        raise FormatError(path, 0, f"bad magic {data[:2]!r}, expected b'P5'")
    width, _, pos = _pgm_token(path, data, 2)
    height, _, pos = _pgm_token(path, data, pos)
    maxval, mstart, pos = _pgm_token(path, data, pos)
    if maxval != 255:
        raise FormatError(path, mstart, f"maxval must be 255, got {maxval}")
    if width < 1 or height < 1:
        raise FormatError(path, 2, f"extents must be positive, got {width}x{height}")
    if pos == len(data) or data[pos] not in b" \t\r\n":
        raise FormatError(path, pos, "expected one whitespace byte between maxval and raster")
    pos += 1
    if len(data) - pos != width * height:
        raise FormatError(path, pos, f"raster is {len(data) - pos} bytes, expected {width * height}")
    raster = np.frombuffer(data, dtype=np.uint8, offset=pos).reshape(height, width)
    return raster >= 128


def save_mask(mask, path) -> None:
    """Write a mask, picking the format from the file suffix (.pgm or .gtf)."""
    path = Path(path)
    if path.suffix == ".pgm":
        save_pgm(mask, path)
    elif path.suffix == ".gtf":
        save_gtf(as_mask(mask), path)
    else:
        raise ValueError(f"unsupported mask suffix {path.suffix!r} (use .pgm or .gtf)")


def load_mask(path) -> np.ndarray:
    path = Path(path)
    if path.suffix == ".pgm":
        return load_pgm(path)
    if path.suffix == ".gtf":
        return load_gtf(path, expect="mask")
    raise ValueError(f"unsupported mask suffix {path.suffix!r} (use .pgm or .gtf)")


def save_field(field, path) -> None:
    """Write a float field as f32 GTF."""
    save_gtf(as_field(field), Path(path))


def load_field(path) -> np.ndarray:
    return load_gtf(Path(path), expect="field")


def save_csv(path, header, rows) -> None:
    """Write a header row and then ``rows`` as CSV, each cell exactly as given.

    Cells are written with ``str``, so callers format floats themselves
    (the reports use ``repr`` to keep every bit).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
