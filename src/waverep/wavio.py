"""Reader/writer for RIFF/WAVE files using numpy arrays.

Supported on read: little-endian PCM16, PCM24 and IEEE float32, any channel
count (including the WAVE_FORMAT_EXTENSIBLE wrappers around those codecs).
Integer PCM is scaled to [-1, 1) by dividing by 2^(bits-1).  The writer emits
mono IEEE float32 at ``SAMPLE_RATE``, which round-trips values exactly and never
clips.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataError

#: the sample rate, in Hz, of every signal in this package
SAMPLE_RATE = 44100

_FMT_PCM = 0x0001
_FMT_FLOAT = 0x0003
_FMT_EXTENSIBLE = 0xFFFE


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a WAV file.

    Returns ``(samples, sample_rate)`` where ``samples`` is a float64 array of
    shape (frames, channels).
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise DataError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    view = memoryview(blob)  # chunk payloads are views, not copies, of the file bytes
    while pos + 8 <= len(blob):
        cid, size = struct.unpack_from("<4sI", blob, pos)
        pos += 8
        payload = view[pos : pos + size]
        if len(payload) < size:
            raise DataError(f"{path}: truncated '{cid.decode(errors='replace')}' chunk")
        if cid == b"fmt ":
            fmt = payload
        elif cid == b"data":
            data = payload
        pos += size + (size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise DataError(f"{path}: missing fmt/data chunk")
    if len(fmt) < 16:
        raise DataError(f"{path}: fmt chunk too short")

    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if tag == _FMT_EXTENSIBLE:
        if len(fmt) < 26:
            raise DataError(f"{path}: malformed extensible fmt chunk")
        # the real codec tag is the first two bytes of the SubFormat GUID
        tag = struct.unpack_from("<H", fmt, 24)[0]

    if channels < 1 or bits < 8 or block_align != channels * (bits // 8):
        raise DataError(f"{path}: inconsistent fmt chunk")
    if len(data) % block_align:
        raise DataError(f"{path}: data chunk is not a whole number of frames")

    if tag == _FMT_PCM and bits == 16:
        raw = np.frombuffer(data, dtype="<i2").astype(np.float64)
        samples = raw / 2.0**15
    elif tag == _FMT_PCM and bits == 24:
        triplets = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        raw = triplets[:, 0] | (triplets[:, 1] << 8) | (triplets[:, 2] << 16)
        raw = (raw ^ 0x800000) - 0x800000  # sign-extend 24 -> 32 bits
        samples = raw.astype(np.float64) / 2.0**23
    elif tag == _FMT_FLOAT and bits == 32:
        with np.errstate(invalid="ignore"):  # a NaN sample is refused by load_and_downmix
            samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    else:
        raise DataError(
            f"{path}: unsupported encoding (format tag {tag}, {bits} bits); "
            f"expected PCM16, PCM24 or IEEE float32"
        )

    return samples.reshape(-1, channels), int(rate)


def write_wav(path, samples: np.ndarray) -> None:
    """Write a mono float32 WAV file at ``SAMPLE_RATE``: the header, then the
    samples.  A sample that is not finite in float32 raises ``ValueError``
    before the file is opened."""
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValueError("write_wav expects a mono 1-D signal")
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        payload = np.ascontiguousarray(samples, dtype="<f4")
    if not np.all(np.isfinite(payload)):
        raise ValueError(f"{path}: refusing to write samples that are not finite in float32")

    fmt = struct.pack("<HHIIHH", _FMT_FLOAT, 1, SAMPLE_RATE, SAMPLE_RATE * 4, 4, 32)
    fact = struct.pack("<I", payload.size)
    header = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"fact" + struct.pack("<I", len(fact)) + fact
        + b"data" + struct.pack("<I", payload.nbytes)
    )
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", len(header) + payload.nbytes) + header)
        f.write(payload)
