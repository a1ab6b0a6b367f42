"""Versioned binary checkpoint container.

Layout (all little-endian): magic ``WREP``, format version (u32), array count
(u32), then per array: name length (u16) + UTF-8 name, rank (u32), dims (u64
each), float64 payload in C order; the file ends with a CRC32 (u32) of all
preceding bytes.  Files round-trip every value bit-for-bit.  Neither
direction holds a copy of the file: a save hands the headers and the arrays'
own buffers to :func:`wavio.write_file`, and a load reads each byte once
through at most ``CRC_CHUNK`` more bytes than the arrays it returns.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .decoder import MODEL_ARRAYS, DecoderParameters, check_pair, model_arrays
from .encoder import EncoderParameters
from .errors import CheckpointError, NumericalError
from .wavio import write_file

MAGIC = b"WREP"
FORMAT_VERSION = 1
#: bytes per payload read of :func:`load_arrays`, in whole float64 values
CRC_CHUNK = 1 << 20
#: each of :data:`decoder.MODEL_ARRAYS` by its name in a model checkpoint
_MODEL_KEYS = {a.name: f"{a.owner}/{a.name}" for a in MODEL_ARRAYS}


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays of real numbers as float64, in insertion order, with
    :func:`wavio.write_file`: the headers and each array's own buffer, not a
    copy of the file.  An array that is complex or not numeric, or a name
    longer than 65535 UTF-8 bytes, is a ``ValueError`` before anything is
    written."""
    pieces = [MAGIC + struct.pack("<II", FORMAT_VERSION, len(arrays))]
    for name, arr in arrays.items():
        dtype = np.asarray(arr).dtype
        if dtype.kind not in "biuf":  # a complex value would lose its imaginary part
            raise ValueError(f"array {name!r} holds {dtype} values, not real numbers")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"array name {name[:32]!r}... is longer than 65535 UTF-8 bytes")
        # ascontiguousarray would promote 0-d scalars to 1-d; keep ranks as-is
        arr = np.asarray(arr, dtype="<f8", order="C")
        pieces += [struct.pack(f"<H{len(encoded)}sI{arr.ndim}Q",
                               len(encoded), encoded, arr.ndim, *arr.shape), arr]
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    write_file({path: [*pieces, struct.pack("<I", crc)]})


def load_arrays(path, dtypes: dict | None = None) -> dict[str, np.ndarray]:
    """Read the arrays written by :func:`save_arrays`, each as float64 or as
    the dtype that ``dtypes`` maps its name to.

    One pass reads every header and payload once, in file order, and folds it
    into the running CRC.  A payload is read in ``CRC_CHUNK``-byte pieces,
    straight into its float64 array or, for another dtype, into one reused
    float64 buffer that each piece is cast from (the bits of ``astype``).
    Nothing is allocated for a header or a payload that claims more bytes
    than the file has left.  The CRC is compared before anything is returned:
    when a header check fails, the rest of the file is folded in first, so a
    stale checksum is reported before any header error."""
    path = Path(path)
    dtypes = dtypes or {}
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size - 4  # the CRC's offset
        if end < 12:
            raise CheckpointError(f"{path}: truncated checkpoint")
        crc = 0
        buf = np.empty(max(1, CRC_CHUNK // 8), dtype="<f8")

        def fill(view) -> None:  # read len(view) bytes into view and fold them in
            nonlocal crc
            if f.readinto(view) != len(view):  # the file shrank under us
                raise CheckpointError(f"{path}: truncated checkpoint")
            crc = zlib.crc32(view, crc)

        def take(n: int) -> bytearray:  # the next n header bytes, which must lie before the CRC
            if n > end - f.tell():
                raise CheckpointError(f"{path}: truncated checkpoint")
            piece = bytearray(n)
            fill(piece)
            return piece

        if take(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes (not a checkpoint)")
        arrays: dict[str, np.ndarray] = {}
        error = None  # the first failed header check, raised once the CRC has passed
        try:
            version, count = struct.unpack("<II", take(8))
            if version != FORMAT_VERSION:
                raise CheckpointError(
                    f"{path}: format version {version} is not supported (expected {FORMAT_VERSION})"
                )
            for _ in range(count):
                (name_len,) = struct.unpack("<H", take(2))
                name = str(take(name_len), "utf-8")
                (rank,) = struct.unpack("<I", take(4))
                dims = struct.unpack(f"<{rank}Q", take(8 * rank))
                if 8 * math.prod(dims) > end - f.tell():  # Python integers: cannot wrap
                    raise CheckpointError(f"{path}: truncated array payload for {name!r}")
                arr = np.empty(dims, dtype=dtypes.get(name, buf.dtype))
                flat = arr.reshape(-1)
                for i in range(0, flat.size, buf.size):
                    piece = flat[i : i + buf.size]
                    if piece.dtype == buf.dtype:
                        fill(piece.view(np.uint8))
                    else:
                        fill(buf[: piece.size].view(np.uint8))
                        with np.errstate(all="ignore"):  # a value beyond the dtype's range
                            piece[...] = buf[: piece.size]
                arrays[name] = arr
            if f.tell() != end:
                raise CheckpointError(f"{path}: trailing bytes after the last array")
        except (CheckpointError, ValueError) as exc:
            error = exc
        rest = buf.view(np.uint8)
        while f.tell() < end:  # left unread by a failed header check
            fill(rest[: end - f.tell()])
        if f.read(4) != struct.pack("<I", crc):
            raise CheckpointError(f"{path}: checksum mismatch, file is corrupted")
        if isinstance(error, ValueError):  # a name that is not UTF-8, or dims numpy cannot take
            raise CheckpointError(f"{path}: malformed array header: {error}") from error
        if error is not None:
            raise error
    return arrays


def save_model(path, enc: EncoderParameters, dec: DecoderParameters) -> None:
    """Write ``enc`` and ``dec``, refusing a pair that :func:`decoder.check_pair` rejects."""
    check_pair(enc, dec)
    save_arrays(path, {
        **{_MODEL_KEYS[name]: arr for name, arr in model_arrays(enc, dec).items()},
        "meta/stride": np.float64(enc.stride),
        "meta/dilation": np.float64(enc.dilation),
        "meta/square_freq": np.float64(1.0 if dec.square_freq else 0.0),
    })


def load_model(path, dtype=np.float64) -> tuple[EncoderParameters, DecoderParameters]:
    """Read a model written by :func:`save_model`, rejecting non-finite
    parameters, and metadata and array shapes that do not describe one
    consistent encoder/decoder pair.  With another ``dtype`` the GEMM-read
    arrays (:data:`decoder.MODEL_ARRAYS`) are cast to it as they are read, so
    no float64 copy of them is made; one that is finite as stored but not in
    ``dtype`` raises :class:`NumericalError` after the other checks."""
    cast = {} if np.dtype(dtype) == np.float64 else {
        _MODEL_KEYS[a.name]: dtype for a in MODEL_ARRAYS if a.gemm}
    arrs = load_arrays(path, cast)
    meta = ("meta/stride", "meta/dilation", "meta/square_freq")
    for name in (*_MODEL_KEYS.values(), *meta):
        if name not in arrs:
            raise CheckpointError(f"{path}: missing array {name!r}")
    overflow = False
    for name in _MODEL_KEYS.values():
        if not _all_finite(arrs[name]):
            # only the stored values tell an overflow in dtype from a NaN or an inf
            if name in cast and _all_finite(load_arrays(path)[name]):
                overflow = True
            else:
                raise CheckpointError(f"{path}: {name} holds non-finite values")
    stride, dilation, square_freq = (arrs[n] for n in meta)
    for name, value in (("meta/stride", stride), ("meta/dilation", dilation)):
        if value.shape != () or not (np.isfinite(value) and value >= 1 and value == np.floor(value)):
            raise CheckpointError(f"{path}: {name} must be a positive integer, got {value}")
    if square_freq.shape != () or square_freq not in (0.0, 1.0):
        raise CheckpointError(f"{path}: meta/square_freq must be 0 or 1, got {square_freq}")
    fields = {owner: {a.name: arrs[_MODEL_KEYS[a.name]] for a in MODEL_ARRAYS if a.owner == owner}
              for owner in ("encoder", "decoder")}
    enc = EncoderParameters(**fields["encoder"], stride=int(stride), dilation=int(dilation))
    dec = DecoderParameters(**fields["decoder"], stride=int(stride), square_freq=bool(square_freq))
    try:
        check_pair(enc, dec)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if overflow:
        raise NumericalError(f"{path}: the model's parameters are not finite in {np.dtype(dtype)}")
    return enc, dec


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every value of ``arr`` is finite, read from its least and
    greatest values (NaN propagates through both) rather than a mask of its size."""
    return bool(np.isfinite(np.min(arr, initial=0.0)) and np.isfinite(np.max(arr, initial=0.0)))
