"""Audio ingestion, framing and overlap-add on the last axis of a stack of
signals, segmentation, activity gating and training-pair synthesis.

Signals are plain 1-D float64 arrays at a fixed 44100 Hz sample rate; files at
any other rate are rejected rather than resampled, because every model
hyper-parameter in this package is tied to 44100 Hz.  Training pairs take
their length from the first voice segment.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .wavio import SAMPLE_RATE, read_wav

#: numerical-stability epsilon shared with the additivity metric
ACTIVITY_EPS = 1e-24
#: energy gate of :func:`is_active`, in dB
ACTIVE_THRESHOLD_DB = -10.0
#: signal energies are summed over blocks this long; >= SAMPLE_RATE, so a 1 s segment is one
ENERGY_BLOCK = 1 << 16


class TrainingPair(NamedTuple):
    """One denoising training example.

    ``mixture`` is built by pure addition (no clipping), so it may exceed
    [-1, 1].
    """

    voice: np.ndarray        # clean voice segment
    noisy_voice: np.ndarray  # voice + i.i.d. Gaussian noise
    mixture: np.ndarray      # voice + shuffled accompaniment segment


def load_and_downmix(path) -> np.ndarray:
    """Load a WAV file as a mono float64 signal at 44100 Hz.

    A mono file is read as it is; two or more channels are down-mixed by the
    per-sample mean across channels, which keeps the nominal [-1, 1] range.
    """
    frames, rate = read_wav(path)
    if rate != SAMPLE_RATE:
        raise DataError(f"{path}: sample rate {rate} != {SAMPLE_RATE} (resampling is unsupported)")
    if not len(frames):
        raise DataError(f"{path}: no samples")
    if frames.shape[1] == 1:  # numpy's mean over a length-1 axis costs 8 ns a sample
        mono = frames[:, 0]
        mono += 0.0  # the bits of that mean, 0 + x: -0 reads as +0
    else:
        mono = frames.mean(axis=1)
    if not np.all(np.isfinite(mono)):
        raise DataError(f"{path}: non-finite samples")
    return mono


def frame(x: np.ndarray, length: int, hop: int, n_frames: int) -> np.ndarray:
    """Read-only (..., n_frames, length) view whose window t is ``x[..., t*hop :
    t*hop+length]``, zero-padded past the end of ``x`` in one zero-tailed copy.

    The adjoint of :func:`overlap_add`.
    """
    pad = max(n_frames - 1, 0) * hop + length - x.shape[-1]
    if pad > 0:
        x = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, pad)])
    return sliding_window_view(x, length, axis=-1)[..., ::hop, :][..., :n_frames, :]


def overlap_add(frames: np.ndarray, hop: int, out_len: int) -> np.ndarray:
    """Sum window t of the (..., T, L) ``frames`` into the last axis of the
    output at sample ``t*hop``; the natural (T-1)*hop + L samples are
    truncated (or zero-extended) to ``out_len``, giving (..., out_len).

    The adjoint of :func:`frame`.  Windows are added one hop-wide column chunk
    at a time; the chunks go last to first so that every sample of every row
    sums its frames in increasing t, exactly as a per-frame loop would.
    """
    *lead, n_frames, length = frames.shape
    chunks = -(-length // hop)
    y = np.zeros((*lead, max((n_frames + chunks - 1) * hop, out_len)), dtype=frames.dtype)
    for k in reversed(range(chunks)):
        cols = frames[..., k * hop : (k + 1) * hop]
        y[..., k * hop : (k + n_frames) * hop].reshape(*lead, n_frames, hop)[..., : cols.shape[-1]] += cols
    return y[..., :out_len]


def segment(x: np.ndarray, length: int, hop: int) -> list[np.ndarray]:
    """Split ``x`` into segments starting at 0, hop, 2*hop, ...

    The final partial segment is zero-padded to ``length`` so that every
    sample of the input appears in some segment; a ``hop`` longer than
    ``length``, which would skip the samples between segments, is refused.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot segment an empty signal")
    if length <= 0 or hop <= 0:
        raise ValueError("segment length and hop must be positive")
    if hop > length:
        raise ValueError(f"segment hop {hop} is longer than the segment length {length}")
    return list(frame(x, length, hop, -(-x.size // hop)))


def float64_blocks(*signals: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """The signals' aligned blocks of ``ENERGY_BLOCK`` samples, each cast to
    float64 on its own, so no signal-length float64 copy is made."""
    for i in range(0, np.size(signals[0]), ENERGY_BLOCK):
        yield tuple(np.asarray(x[i : i + ENERGY_BLOCK], dtype=np.float64) for x in signals)


def is_active(x: np.ndarray) -> bool:
    """Energy gate used to discard silent voice segments.

    A segment is active iff ``10*log10(||x||^2 + ACTIVITY_EPS) >=
    ACTIVE_THRESHOLD_DB`` (boundary inclusive).
    """
    x = np.asarray(x, dtype=np.float64)
    level_db = 10.0 * np.log10(float(x @ x) + ACTIVITY_EPS)
    return bool(level_db >= ACTIVE_THRESHOLD_DB)


def make_training_pairs(
    voice_segments: Sequence[np.ndarray],
    accomp_segments: Sequence[np.ndarray],
    seed: int,
    gaussian_std: float,
) -> Iterator[TrainingPair]:
    """Yield one :class:`TrainingPair` per voice segment.

    Every segment of both pools must have the first voice segment's length.
    Both pools are shuffled independently, then paired; the pairing, the
    shuffles and the Gaussian noise are all a deterministic function of
    ``seed``.  With ``gaussian_std == 0`` the noisy voice equals the clean
    voice exactly (degenerate test mode).
    """
    if not len(voice_segments) or not len(accomp_segments):
        raise ValueError("both segment pools must be non-empty")
    n = np.size(voice_segments[0])
    for pool in (voice_segments, accomp_segments):
        for s in pool:
            if np.shape(s) != (n,):
                raise ValueError(f"segment of shape {np.shape(s)} != ({n},)")

    rng = np.random.default_rng(seed)
    voice_order = rng.permutation(len(voice_segments))
    accomp_order = rng.permutation(len(accomp_segments))
    for i, vi in enumerate(voice_order):
        voice = np.asarray(voice_segments[vi], dtype=np.float64)
        accomp = np.asarray(accomp_segments[accomp_order[i % len(accomp_order)]], dtype=np.float64)
        noise = rng.normal(0.0, gaussian_std, size=n)
        yield TrainingPair(
            voice=voice,
            noisy_voice=voice + noise,
            mixture=voice + accomp,
        )
