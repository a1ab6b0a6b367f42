"""Objective evaluation: SI-SDR, oracle binary-mask separation, additivity of
source representations, windowed disjointness orthogonality, and an STFT
magnitude-masking baseline with the same protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import ACTIVITY_EPS, frame, is_active, overlap_add, segment
from .decoder import DecoderParameters, decode_values
from .encoder import EncoderParameters, encode_values
from .errors import DataError

STFT_WINDOW = 2048
STFT_HOP = 256


def si_sdr(ref: np.ndarray, est: np.ndarray, cap_db: float = 120.0) -> float:
    """Scale-invariant signal-to-distortion ratio in dB.

    The estimate is compared against its own projection onto the reference,
    so the measure is invariant to (nonzero) rescaling of the estimate.  The
    result is clamped to [-cap_db, cap_db]: a vanishing residual scores
    ``cap_db``, and a silent or orthogonal estimate (zero projection) scores
    ``-cap_db``.
    """
    ref = np.asarray(ref, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    if ref.shape != est.shape:
        raise ValueError("signals must have equal length")
    energy = float(ref @ ref)
    if energy == 0.0:
        raise ValueError("si_sdr reference signal is all-zero")
    alpha = float(est @ ref) / energy
    target = alpha * ref
    resid = target - est
    num = float(target @ target)
    den = float(resid @ resid)
    if num == 0.0:
        return -cap_db
    if den == 0.0:
        return cap_db
    return max(-cap_db, min(cap_db, 10.0 * math.log10(num / den)))


def binary_mask(a_target: np.ndarray, a_interf: np.ndarray) -> np.ndarray:
    """Oracle {0,1} mask: 1 where the target representation is at least half
    the interferer's.  The multiplicative comparison avoids 0/0; a cell where
    both are zero is kept (the mixture carries no energy there anyway)."""
    a_target = np.asarray(a_target, dtype=np.float64)
    a_interf = np.asarray(a_interf, dtype=np.float64)
    if a_target.shape != a_interf.shape:
        raise ValueError("mask inputs must have the same shape")
    return (a_target >= 0.5 * a_interf).astype(np.float64)


def oracle_separate(
    x_m: np.ndarray,
    x_v: np.ndarray,
    x_ac: np.ndarray,
    enc: EncoderParameters,
    dec: DecoderParameters,
    linear: bool = False,
) -> np.ndarray:
    """Separate the voice from the mixture by oracle binary masking: encode
    all three signals, mask the mixture representation with the voice/accomp
    mask, and decode."""
    a_m = encode_values(x_m, enc, linear=linear)
    a_v = encode_values(x_v, enc, linear=linear)
    a_ac = encode_values(x_ac, enc, linear=linear)
    mask = binary_mask(a_v, a_ac)
    return decode_values(a_m * mask, dec, len(x_m))


def additivity(
    x_m: np.ndarray,
    x_v: np.ndarray,
    x_ac: np.ndarray,
    enc: EncoderParameters,
    linear: bool = False,
    eps: float = ACTIVITY_EPS,
) -> float:
    """1 - ||E(x_m) - E(x_v) - E(x_ac)||_1 / (||E(x_m)||_1 + eps).

    Equals 1 exactly for a linear encoder on an additive mixture; <= 1 always.
    """
    return _additivity(*(encode_values(x, enc, linear=linear) for x in (x_m, x_v, x_ac)), eps)


def _additivity(a_m: np.ndarray, a_v: np.ndarray, a_ac: np.ndarray, eps: float = ACTIVITY_EPS) -> float:
    """:func:`additivity` on representations that are already computed."""
    return float(1.0 - np.abs(a_m - a_v - a_ac).sum() / (np.abs(a_m).sum() + eps))


def w_do(y_target: np.ndarray, y_interf: np.ndarray) -> tuple[float, float, float]:
    """Windowed disjointness orthogonality of two source representations.

    Returns ``(w_do, psr, sir)`` where the mask keeps cells with
    |target| >= 0.5 |interferer|, PSR is the preserved-signal ratio
    (masked-to-total squared L1 norms of |target|), SIR the ratio of the
    masked target to the masked interferer, and W-DO = PSR - PSR/SIR.
    Disjoint supports give (1, 1, inf); identical magnitudes give (0, 1, 1).
    """
    yt = np.abs(np.asarray(y_target, dtype=np.float64))
    yi = np.abs(np.asarray(y_interf, dtype=np.float64))
    if yt.shape != yi.shape:
        raise ValueError("representations must have the same shape")
    total = yt.sum()
    if total == 0.0:
        raise ValueError("target representation is identically zero, PSR undefined")
    mask = binary_mask(yt, yi)
    kept_t = (mask * yt).sum()
    kept_i = (mask * yi).sum()
    psr = (kept_t ** 2) / (total ** 2)
    if kept_i == 0.0:
        return psr, psr, math.inf
    sir = (kept_t ** 2) / (kept_i ** 2)
    return psr - psr / sir, psr, sir


def stft(x: np.ndarray, window: int = STFT_WINDOW, hop: int = STFT_HOP) -> np.ndarray:
    """One-sided complex spectrogram, hamming analysis window, right padding."""
    x = np.asarray(x, dtype=np.float64)
    n_frames = 1 + max(0, -(-(x.size - window) // hop)) if x.size > window else 1
    spec = np.fft.rfft(frame(x, window, hop, n_frames) * np.hamming(window), axis=1)
    # (F, T) in C order: sums over the spectrogram round by memory layout
    return np.ascontiguousarray(spec.T)


def istft(
    spec: np.ndarray,
    length: int | None = None,
    window: int = STFT_WINDOW,
    hop: int = STFT_HOP,
) -> np.ndarray:
    """Weighted overlap-add inverse with squared-window normalization, so
    ``istft(stft(x), len(x))`` reconstructs ``x``."""
    win = np.hamming(window)
    frames = np.fft.irfft(spec.T, n=window, axis=1) * win
    if length is None:
        length = (frames.shape[0] - 1) * hop + window
    y = overlap_add(frames, hop, length)
    norm = overlap_add(np.broadcast_to(win * win, frames.shape), hop, length)
    return y / np.maximum(norm, 1e-12)


class SegmentMetrics(NamedTuple):
    track: str
    segment: int
    si_sdr: float
    si_sdr_bm: float
    additivity: float
    w_do: float
    psr: float
    sir: float


_METRICS = ("si_sdr", "si_sdr_bm", "additivity", "w_do", "psr", "sir")


@dataclass
class EvalReport:
    rows: list[SegmentMetrics]

    def aggregates(self) -> dict[str, dict[str, float]]:
        out = {}
        for name in _METRICS:
            vals = np.array([getattr(r, name) for r in self.rows])
            out[name] = {
                "mean": float(vals.mean()),
                "median": float(np.median(vals)),
                "std": float(vals.std()),
            }
        return out

    def to_csv(self, path) -> None:
        lines = ["track,segment," + ",".join(_METRICS)]
        for r in self.rows:
            vals = ",".join(f"{getattr(r, name):.9g}" for name in _METRICS)
            lines.append(f"{r.track},{r.segment},{vals}")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")

    def summary(self) -> str:
        lines = [f"segments evaluated: {len(self.rows)}"]
        for name, agg in self.aggregates().items():
            lines.append(
                f"{name}: mean={agg['mean']:.4f} median={agg['median']:.4f} std={agg['std']:.4f}"
            )
        return "\n".join(lines)


def evaluate(
    tracks: Sequence[tuple[str, np.ndarray, np.ndarray]],
    enc: EncoderParameters | None = None,
    dec: DecoderParameters | None = None,
    baseline: bool = False,
    segment_len: int = 44100,
    threshold_db: float = -10.0,
) -> EvalReport:
    """Segment-level evaluation over (name, voice, accompaniment) tracks.

    Tracks are cut into non-overlapping segments and silent-voice segments are
    discarded.  With ``baseline=True`` the front end is the STFT magnitude and
    masked mixtures are resynthesized from the mixture phase; otherwise the
    trained encoder/decoder pair is used.
    """
    if not baseline and (enc is None or dec is None):
        raise ValueError("evaluate needs encoder+decoder parameters or baseline=True")

    rows = []
    for name, voice, accomp in tracks:
        n = min(len(voice), len(accomp))
        v_segs = segment(voice[:n], segment_len, segment_len)
        a_segs = segment(accomp[:n], segment_len, segment_len)
        for i, (x_v, x_ac) in enumerate(zip(v_segs, a_segs)):
            if not is_active(x_v, threshold_db):
                continue
            x_m = x_v + x_ac
            if baseline:
                spec_m = stft(x_m)
                spec_v = stft(x_v)
                spec_ac = stft(x_ac)
                mag_v = np.abs(spec_v)
                mag_ac = np.abs(spec_ac)
                recon = istft(spec_v, len(x_v))
                mask = binary_mask(mag_v, mag_ac)
                sep = istft(mask * spec_m, len(x_m))  # mixture phase kept
                add = _additivity(np.abs(spec_m), mag_v, mag_ac)
                rep_v, rep_ac = mag_v, mag_ac
            else:
                a_v = encode_values(x_v, enc)
                recon = decode_values(a_v, dec, len(x_v))
                sep = oracle_separate(x_m, x_v, x_ac, enc, dec)
                add = additivity(x_m, x_v, x_ac, enc)
                rep_v, rep_ac = a_v, encode_values(x_ac, enc)
            wdo, psr, sir = w_do(rep_v, rep_ac)
            rows.append(SegmentMetrics(
                track=name,
                segment=i,
                si_sdr=si_sdr(x_v, recon),
                si_sdr_bm=si_sdr(x_v, sep),
                additivity=add,
                w_do=wdo,
                psr=psr,
                sir=sir,
            ))
    if not rows:
        raise DataError("no active voice segments to evaluate")
    return EvalReport(rows)
