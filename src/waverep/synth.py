"""Deterministic synthetic stem generator for desk-scale experiments.

Voice stems are harmonic tones with vibrato, slow pitch drift and occasional
low-passed noise bursts (breath-like); accompaniment stems combine a bass
line, low thumps and broadband percussive hits.  Stems are written as mono
float32 WAV files at 44100 Hz and are a pure function of the seed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .dataset import SAMPLE_RATE
from .wavio import write_wav


def _lowpass(x: np.ndarray, alpha: float) -> np.ndarray:
    y = np.empty_like(x)
    acc = 0.0
    for i in range(x.size):
        acc = alpha * acc + (1.0 - alpha) * x[i]
        y[i] = acc
    return y


def voice_stem(rng: np.random.Generator, n_samples: int) -> np.ndarray:
    t = np.arange(n_samples) / SAMPLE_RATE
    f0 = rng.uniform(150.0, 330.0)
    drift = 2.0 ** (0.25 * np.sin(2 * np.pi * rng.uniform(0.08, 0.2) * t + rng.uniform(0, 2 * np.pi)))
    vibrato = 1.0 + 0.008 * np.sin(2 * np.pi * rng.uniform(4.5, 6.5) * t + rng.uniform(0, 2 * np.pi))
    freq = f0 * drift * vibrato

    phase = 2 * np.pi * np.cumsum(freq) / SAMPLE_RATE
    x = np.zeros(n_samples)
    for k in range(1, 6):
        if k * f0 * 1.3 > 8000.0:
            break
        amp = rng.uniform(0.6, 1.0) / k**1.2
        x += amp * np.sin(k * phase + rng.uniform(0, 2 * np.pi))

    # breathy onsets: short low-passed noise bursts roughly once a second
    for onset in rng.uniform(0, max(t[-1] - 0.2, 0.1), size=max(1, int(t[-1]))):
        start = int(onset * SAMPLE_RATE)
        dur = int(0.12 * SAMPLE_RATE)
        burst = _lowpass(rng.normal(0, 1, dur), 0.9)
        burst *= np.exp(-np.arange(dur) / (0.03 * SAMPLE_RATE))
        x[start : start + dur] += 0.6 * burst[: max(0, n_samples - start)]

    # slow amplitude phrasing that never goes silent
    envelope = 0.75 + 0.25 * np.sin(2 * np.pi * rng.uniform(0.15, 0.35) * t + rng.uniform(0, 2 * np.pi))
    x *= envelope
    return 0.45 * x / np.max(np.abs(x))


def accomp_stem(rng: np.random.Generator, n_samples: int) -> np.ndarray:
    t = np.arange(n_samples) / SAMPLE_RATE
    bass_f = rng.uniform(55.0, 95.0)
    x = 0.5 * np.sin(2 * np.pi * bass_f * t + rng.uniform(0, 2 * np.pi))
    x *= 0.8 + 0.2 * np.sin(2 * np.pi * rng.uniform(0.2, 0.5) * t)

    beat = rng.uniform(1.8, 2.4)  # hits per second
    hit_times = np.arange(0.05, t[-1], 1.0 / beat) + rng.normal(0, 0.01, size=len(np.arange(0.05, t[-1], 1.0 / beat)))
    for i, onset in enumerate(hit_times):
        start = int(max(onset, 0) * SAMPLE_RATE)
        dur = int(0.1 * SAMPLE_RATE)
        seg = min(dur, n_samples - start)
        if seg <= 0:
            continue
        decay = np.exp(-np.arange(seg) / (0.02 * SAMPLE_RATE))
        if i % 2 == 0:  # thump: decaying low tone + dull noise
            x[start : start + seg] += 0.8 * decay * np.sin(2 * np.pi * 70.0 * np.arange(seg) / SAMPLE_RATE)
            x[start : start + seg] += 0.3 * decay * _lowpass(rng.normal(0, 1, seg), 0.95)
        else:  # hat: short broadband noise
            x[start : start + seg] += 0.5 * decay * rng.normal(0, 1, seg)
    return 0.45 * x / np.max(np.abs(x))


def synth_data(out_dir, seed: int, n_tracks: int, duration: float) -> list[tuple[Path, Path]]:
    """Write paired voice/accompaniment stems, returning the file paths."""
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration}")
    if n_tracks < 1:
        raise ValueError(f"n_tracks must be >= 1, got {n_tracks}")
    n = int(duration * SAMPLE_RATE)
    if n < 1:
        raise ValueError(f"duration {duration} s is shorter than one sample")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n_tracks):
        voice = voice_stem(rng, n)
        accomp = accomp_stem(rng, n)
        vp = out_dir / f"track{i:02d}_voice.wav"
        ap = out_dir / f"track{i:02d}_accomp.wav"
        write_wav(vp, voice)
        write_wav(ap, accomp)
        pairs.append((vp, ap))
    return pairs
