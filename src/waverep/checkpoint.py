"""Versioned binary checkpoint container.

Layout (all little-endian): magic ``WREP``, format version (u32), array count
(u32), then per array: name length (u16) + UTF-8 name, rank (u32), dims (u64
each), float64 payload in C order; the file ends with a CRC32 (u32) of all
preceding bytes.  Files are written atomically (temp file + rename) and
round-trip every value bit-for-bit.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .decoder import DecoderParameters, check_pair
from .encoder import EncoderParameters
from .errors import CheckpointError

MAGIC = b"WREP"
FORMAT_VERSION = 1


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays; insertion order is preserved."""
    parts = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(arrays))]
    for name, arr in arrays.items():
        # ascontiguousarray would promote 0-d scalars to 1-d; keep ranks as-is
        arr = np.asarray(arr, dtype="<f8", order="C")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(arr.tobytes())
    blob = b"".join(parts)
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read the arrays written by :func:`save_arrays`.  The file is read once
    and every payload is copied out of it once; the checksum and the headers
    are read in place."""
    path = Path(path)
    blob = memoryview(path.read_bytes())
    if len(blob) < 16:
        raise CheckpointError(f"{path}: truncated checkpoint")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes (not a checkpoint)")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupted")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version} is not supported (expected {FORMAT_VERSION})"
        )

    arrays: dict[str, np.ndarray] = {}
    pos = 12
    end = len(blob) - 4
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            name = str(blob[pos : pos + name_len], "utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            dims = struct.unpack_from(f"<{rank}Q", blob, pos)
            pos += 8 * rank
            size = math.prod(dims)  # Python integers: a huge product cannot wrap
            payload = blob[pos : pos + 8 * size]
            if len(payload) < 8 * size:
                raise CheckpointError(f"{path}: truncated array payload for {name!r}")
            arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
            pos += 8 * size
    except struct.error as exc:
        raise CheckpointError(f"{path}: truncated checkpoint") from exc
    except ValueError as exc:  # a name that is not UTF-8, or dims numpy cannot take
        raise CheckpointError(f"{path}: malformed array header: {exc}") from exc
    if pos != end:
        raise CheckpointError(f"{path}: trailing bytes after the last array")
    return arrays


def save_model(path, enc: EncoderParameters, dec: DecoderParameters) -> None:
    """Write ``enc`` and ``dec``, refusing a pair that :func:`decoder.check_pair` rejects."""
    check_pair(enc, dec)
    save_arrays(path, {
        "encoder/kernels": enc.kernels,
        "encoder/dilated_kernels": enc.dilated_kernels,
        "decoder/freq": dec.freq,
        "decoder/phase": dec.phase,
        "decoder/modulator": dec.modulator,
        "meta/stride": np.float64(enc.stride),
        "meta/dilation": np.float64(enc.dilation),
        "meta/square_freq": np.float64(1.0 if dec.square_freq else 0.0),
    })


def load_model(path) -> tuple[EncoderParameters, DecoderParameters]:
    """Read a model written by :func:`save_model`, rejecting non-finite
    parameters, and metadata and array shapes that do not describe one
    consistent encoder/decoder pair."""
    arrs = load_arrays(path)
    names = ("encoder/kernels", "encoder/dilated_kernels", "decoder/freq", "decoder/phase",
             "decoder/modulator", "meta/stride", "meta/dilation", "meta/square_freq")
    for name in names:
        if name not in arrs:
            raise CheckpointError(f"{path}: missing array {name!r}")
    kernels, dilated, freq, phase, modulator, stride, dilation, square_freq = (arrs[n] for n in names)
    for name in names[:5]:
        if not np.all(np.isfinite(arrs[name])):
            raise CheckpointError(f"{path}: {name} holds non-finite values")
    for name, value in (("meta/stride", stride), ("meta/dilation", dilation)):
        if value.shape != () or not (np.isfinite(value) and value >= 1 and value == np.floor(value)):
            raise CheckpointError(f"{path}: {name} must be a positive integer, got {value}")
    if square_freq.shape != () or square_freq not in (0.0, 1.0):
        raise CheckpointError(f"{path}: meta/square_freq must be 0 or 1, got {square_freq}")
    enc = EncoderParameters(kernels, dilated, int(stride), int(dilation))
    dec = DecoderParameters(freq, phase, modulator, int(stride), bool(square_freq))
    try:
        check_pair(enc, dec)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return enc, dec
