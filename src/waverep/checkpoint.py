"""Versioned binary checkpoint container.

Layout (all little-endian): magic ``WREP``, format version (u32), array count
(u32), then per array: name length (u16) + UTF-8 name, rank (u32), dims (u64
each), float64 payload in C order; the file ends with a CRC32 (u32) of all
preceding bytes.  Files are written atomically (temp file + rename) and
round-trip every value bit-for-bit.  Both directions stream: a save or a load
holds the arrays and at most ``CRC_CHUNK`` more bytes, never a copy of the
file.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .decoder import MODEL_ARRAYS, DecoderParameters, cast_pair, check_pair, model_arrays
from .encoder import EncoderParameters
from .errors import CheckpointError

MAGIC = b"WREP"
FORMAT_VERSION = 1
#: bytes per read of the checksum pass of :func:`load_arrays`
CRC_CHUNK = 1 << 20
#: each of :data:`decoder.MODEL_ARRAYS` by its name in a model checkpoint
_MODEL_KEYS = {a.name: f"{a.owner}/{a.name}" for a in MODEL_ARRAYS}


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays; insertion order is preserved.  The headers
    and each array's own buffer are written one after another and folded into
    the running CRC, so no copy of the file is built in memory."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    crc = 0
    with open(tmp, "wb") as f:
        def put(piece) -> None:
            nonlocal crc
            f.write(piece)
            crc = zlib.crc32(piece, crc)

        put(MAGIC + struct.pack("<II", FORMAT_VERSION, len(arrays)))
        for name, arr in arrays.items():
            # ascontiguousarray would promote 0-d scalars to 1-d; keep ranks as-is
            arr = np.asarray(arr, dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            put(struct.pack(f"<H{len(encoded)}sI{arr.ndim}Q",
                            len(encoded), encoded, arr.ndim, *arr.shape))
            put(arr)
        f.write(struct.pack("<I", crc))
    os.replace(tmp, path)


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read the arrays written by :func:`save_arrays`.

    A first pass checks the CRC through one ``CRC_CHUNK``-byte buffer, so no
    header is trusted before the checksum is; a second pass parses the headers
    and reads each payload straight into its array.  Nothing is allocated for
    a header or a payload that claims more bytes than the file has left."""
    path = Path(path)
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size - 4  # the CRC's offset
        if end < 12:
            raise CheckpointError(f"{path}: truncated checkpoint")
        if f.read(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes (not a checkpoint)")
        f.seek(0)
        crc, buf = 0, memoryview(bytearray(CRC_CHUNK))
        while f.tell() < end:
            n = f.readinto(buf[: min(CRC_CHUNK, end - f.tell())])
            if not n:  # the file shrank under us
                raise CheckpointError(f"{path}: truncated checkpoint")
            crc = zlib.crc32(buf[:n], crc)
        if struct.unpack("<I", f.read(4)) != (crc,):
            raise CheckpointError(f"{path}: checksum mismatch, file is corrupted")

        def take(n: int) -> bytes:  # the next n header bytes, which must lie before the CRC
            if n > end - f.tell():
                raise CheckpointError(f"{path}: truncated checkpoint")
            return f.read(n)

        f.seek(4)
        version, count = struct.unpack("<II", take(8))
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: format version {version} is not supported (expected {FORMAT_VERSION})"
            )
        arrays: dict[str, np.ndarray] = {}
        try:
            for _ in range(count):
                (name_len,) = struct.unpack("<H", take(2))
                name = str(take(name_len), "utf-8")
                (rank,) = struct.unpack("<I", take(4))
                dims = struct.unpack(f"<{rank}Q", take(8 * rank))
                nbytes = 8 * math.prod(dims)  # Python integers: a huge product cannot wrap
                if nbytes > end - f.tell():
                    raise CheckpointError(f"{path}: truncated array payload for {name!r}")
                arr = np.empty(dims, dtype="<f8")
                if f.readinto(arr) != nbytes:
                    raise CheckpointError(f"{path}: truncated array payload for {name!r}")
                arrays[name] = arr
        except ValueError as exc:  # a name that is not UTF-8, or dims numpy cannot take
            raise CheckpointError(f"{path}: malformed array header: {exc}") from exc
        if f.tell() != end:
            raise CheckpointError(f"{path}: trailing bytes after the last array")
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
    consistent encoder/decoder pair.  With another ``dtype`` the pair goes
    through :func:`decoder.cast_pair`, which raises :class:`NumericalError`
    for a parameter that is not finite in ``dtype``."""
    arrs = load_arrays(path)
    meta = ("meta/stride", "meta/dilation", "meta/square_freq")
    for name in (*_MODEL_KEYS.values(), *meta):
        if name not in arrs:
            raise CheckpointError(f"{path}: missing array {name!r}")
    for name in _MODEL_KEYS.values():
        if not np.all(np.isfinite(arrs[name])):
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
    return (enc, dec) if np.dtype(dtype) == np.float64 else cast_pair(enc, dec, dtype, str(path))
