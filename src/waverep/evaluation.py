"""Objective evaluation: SI-SDR, oracle binary-mask separation, additivity of
source representations, windowed disjointness orthogonality, and an STFT
magnitude-masking baseline with the same protocol.

The protocol is fixed: 1 s segments, the -10 dB activity gate of
:func:`dataset.is_active`, SI-SDR clamped to +-``SI_SDR_CAP_DB`` and a
``STFT_WINDOW``-sample hamming window at hop ``STFT_HOP``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .autodiff import as_node
from .dataset import (ACTIVITY_EPS, SAMPLE_RATE, float64_blocks, frame, is_active, overlap_add,
                      segment)
from .decoder import DecoderParameters, check_pair, kernel_matrix, synthesize
from .encoder import EncoderParameters, encode, relu
from .errors import DataError, finite

STFT_WINDOW = 2048
STFT_HOP = 256
SEGMENT_LEN = SAMPLE_RATE  # evaluation cuts non-overlapping 1 s segments
SI_SDR_CAP_DB = 120.0      # si_sdr never leaves [-SI_SDR_CAP_DB, SI_SDR_CAP_DB]


def si_sdr(ref: np.ndarray, est: np.ndarray) -> float:
    """Scale-invariant signal-to-distortion ratio in dB.

    The estimate is compared against its own projection onto the reference,
    so the measure is invariant to (nonzero) rescaling of the estimate.  The
    result is clamped to [-SI_SDR_CAP_DB, SI_SDR_CAP_DB]: a vanishing residual
    scores the cap, and a silent or orthogonal estimate (zero projection)
    scores its negative.  A non-finite estimate makes the energies non-finite,
    which raises :class:`NumericalError`.

    The energies are summed in float64 over :func:`dataset.float64_blocks`,
    so no signal-length temporary is made.
    """
    ref, est = np.asarray(ref), np.asarray(est)
    if ref.shape != est.shape:
        raise ValueError("signals must have equal length")

    def energies():  # of the target and of the residual
        energy = dot = num = den = 0.0
        for r, e in float64_blocks(ref, est):
            energy += float(r @ r)
            dot += float(e @ r)
        if energy == 0.0:
            raise ValueError("si_sdr reference signal is all-zero")
        alpha = dot / energy
        for r, e in float64_blocks(ref, est):
            target = alpha * r
            num += float(target @ target)
            target -= e  # now the residual
            den += float(target @ target)
        return num, den

    num, den = finite("si_sdr: the target or residual energy is not finite", energies)
    if num == 0.0:
        return -SI_SDR_CAP_DB
    if den == 0.0:
        return SI_SDR_CAP_DB
    return max(-SI_SDR_CAP_DB, min(SI_SDR_CAP_DB, 10.0 * math.log10(num / den)))


def binary_mask(a_target: np.ndarray, a_interf: np.ndarray) -> np.ndarray:
    """Oracle {0,1} mask: 1 where the target representation is at least half
    the interferer's.  The multiplicative comparison avoids 0/0; a cell where
    both are zero is kept (the mixture carries no energy there anyway).  The
    mask has the inputs' floating dtype, at least float32."""
    dtype = np.result_type(np.asarray(a_target), np.asarray(a_interf), np.float32)
    a_target, a_interf = np.asarray(a_target, dtype=dtype), np.asarray(a_interf, dtype=dtype)
    if a_target.shape != a_interf.shape:
        raise ValueError("mask inputs must have the same shape")
    return (a_target >= 0.5 * a_interf).astype(dtype)


def oracle_separate(z_m: np.ndarray, z_v: np.ndarray, z_ac: np.ndarray) -> np.ndarray:
    """Oracle binary masking in a representation domain: the mixture
    representation ``z_m`` with the cells kept where the voice magnitude
    ``|z_v|`` is at least half the accompaniment's ``|z_ac|``.  The caller
    resynthesizes the result with its front end's inverse."""
    return binary_mask(np.abs(z_v), np.abs(z_ac)) * z_m


def mixture_and_sources(p_v: np.ndarray, p_ac: np.ndarray) -> list[np.ndarray]:
    """``[z_m, z_v, z_ac]`` of a mixture ``v + ac`` and its sources, from the
    sources' ``encode(..., linear=True)``: the encoder is linear up to its final
    :func:`encoder.relu`."""
    return [relu(p) for p in (p_v + p_ac, p_v, p_ac)]


def additivity(a_m: np.ndarray, a_v: np.ndarray, a_ac: np.ndarray) -> float:
    """1 - ||a_m - a_v - a_ac||_1 / (||a_m||_1 + eps) for the representations
    of a mixture and of its voice and accompaniment.

    Equals 1 exactly for a linear encoder on an additive mixture; <= 1 always.
    Both L1 norms are summed in float64, whatever the representations' dtype.
    """
    resid = np.abs(a_m - a_v - a_ac).sum(dtype=np.float64)
    return float(1.0 - resid / (np.abs(a_m).sum(dtype=np.float64) + ACTIVITY_EPS))


def w_do(y_target: np.ndarray, y_interf: np.ndarray) -> tuple[float, float, float]:
    """Windowed disjointness orthogonality of two source representations.

    Returns ``(w_do, psr, sir)`` where the mask keeps cells with
    |target| >= 0.5 |interferer|, PSR is the preserved-signal ratio
    (masked-to-total squared L1 norms of |target|), SIR the ratio of the
    masked target to the masked interferer, and W-DO = PSR - PSR/SIR.
    Disjoint supports give (1, 1, inf); identical magnitudes give (0, 1, 1).
    Representations whose squared L1 norms are not finite raise
    :class:`NumericalError`.
    """
    yt = np.abs(np.asarray(y_target, dtype=np.float64))
    yi = np.abs(np.asarray(y_interf, dtype=np.float64))
    if yt.shape != yi.shape:
        raise ValueError("representations must have the same shape")
    mask = binary_mask(yt, yi)
    def norms():  # the L1 norms, then their squares
        sums = [yt.sum(), (mask * yt).sum(), (mask * yi).sum()]
        return sums + [v ** 2 for v in sums]
    total, kept_t, kept_i, total_sq, kept_t_sq, kept_i_sq = finite(
        "w_do: the representations' squared L1 norms are not finite", norms)
    if total == 0.0:
        raise ValueError("target representation is identically zero, PSR undefined")
    psr = kept_t_sq / total_sq
    if kept_i == 0.0:
        return psr, psr, math.inf
    sir = kept_t_sq / kept_i_sq
    return psr - psr / sir, psr, sir


def stft(x: np.ndarray) -> np.ndarray:
    """One-sided complex spectrogram, hamming analysis window, right padding."""
    x = np.asarray(x, dtype=np.float64)
    n_frames = 1 + max(0, -(-(x.size - STFT_WINDOW) // STFT_HOP))
    frames = frame(x, STFT_WINDOW, STFT_HOP, n_frames)
    spec = np.fft.rfft(frames * np.hamming(STFT_WINDOW), axis=1)
    # (F, T) in C order: sums over the spectrogram round by memory layout
    return np.ascontiguousarray(spec.T)


def istft(spec: np.ndarray, length: int) -> np.ndarray:
    """Weighted overlap-add inverse with squared-window normalization, so
    ``istft(stft(x), len(x))`` reconstructs ``x``."""
    win = np.hamming(STFT_WINDOW)
    frames = np.fft.irfft(spec.T, n=STFT_WINDOW, axis=1) * win
    y = overlap_add(frames, STFT_HOP, length)
    norm = overlap_add(np.broadcast_to(win * win, frames.shape), STFT_HOP, length)
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


_METRICS = SegmentMetrics._fields[2:]


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
                # w_do's SIR is inf where the masked accompaniment is silent
                "std": float(vals.std()) if np.isfinite(vals).all() else math.nan,
            }
        return out

    def to_csv(self) -> str:
        lines = ["track,segment," + ",".join(_METRICS)]
        for r in self.rows:
            vals = ",".join(f"{getattr(r, name):.9g}" for name in _METRICS)
            lines.append(f"{r.track},{r.segment},{vals}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [f"segments evaluated: {len(self.rows)}"]
        for name, agg in self.aggregates().items():
            lines.append(
                f"{name}: mean={agg['mean']:.4f} median={agg['median']:.4f} std={agg['std']:.4f}"
            )
        return "\n".join(lines)


def active_segments(
    tracks: Sequence[tuple[str, np.ndarray, np.ndarray]],
) -> Iterator[tuple[str, int, np.ndarray, np.ndarray]]:
    """``(name, index, voice, accompaniment)`` of each 1 s segment that
    :func:`evaluate` scores: the tracks cut to their shorter stem, and the
    segments whose voice is silent (below :func:`is_active`) left out."""
    for name, voice, accomp in tracks:
        n = min(len(voice), len(accomp))
        v_segs = segment(voice[:n], SEGMENT_LEN, SEGMENT_LEN)
        a_segs = segment(accomp[:n], SEGMENT_LEN, SEGMENT_LEN)
        for i, (x_v, x_ac) in enumerate(zip(v_segs, a_segs)):
            if is_active(x_v):
                yield name, i, x_v, x_ac


def model_representations(x_v: np.ndarray, x_ac: np.ndarray,
                          enc: EncoderParameters) -> list[np.ndarray]:
    """``[z_m, z_v, z_ac]`` of one segment, as :func:`evaluate` analyses it:
    the voice and accompaniment as one stack in one linear
    :func:`encoder.encode` pass, the mixture composed from them."""
    p = encode(np.stack([x_v, x_ac]), enc, linear=True).value
    return mixture_and_sources(*np.split(p, 2, axis=1))


def evaluate(
    tracks: Sequence[tuple[str, np.ndarray, np.ndarray]],
    enc: EncoderParameters | None = None,
    dec: DecoderParameters | None = None,
) -> EvalReport:
    """Segment-level evaluation over (name, voice, accompaniment) tracks.

    The segments scored are those of :func:`active_segments`.  The front end
    is the trained encoder/decoder pair when both are given, and the STFT
    when neither is (masked mixtures keep the mixture phase); one without the
    other raises ``ValueError``.  Either way only each segment's voice and
    accompaniment are analysed, the model's by :func:`model_representations`,
    and the mixture's representation is composed from theirs
    (:func:`mixture_and_sources`; the STFT is linear).  Both voice estimates
    are resynthesized in one :func:`decoder.synthesize`.

    The model path runs in its parameters' dtype: float32 parameters (as the
    ``evaluate`` command loads them) encode and synthesize in float32, and the
    scores are summed in float64 either way.  Representations or voice
    estimates that are not finite raise :class:`NumericalError`.
    """
    if (enc is None) != (dec is None):
        raise ValueError("evaluate needs both the encoder and the decoder, or neither for the "
                         "STFT baseline")
    if enc is None:
        def analyze(x_v, x_ac):
            z_v, z_ac = stft(x_v), stft(x_ac)
            return z_v + z_ac, z_v, z_ac

        def resynthesize(zs, n):
            return [istft(z, n) for z in zs]
    else:
        check_pair(enc, dec)
        kernels = as_node(kernel_matrix(dec))

        def analyze(x_v, x_ac):
            return model_representations(x_v, x_ac, enc)

        def resynthesize(zs, n):
            return synthesize(as_node(np.concatenate(zs, axis=1)), kernels, dec.stride, n,
                              signals=len(zs)).value

    rows = []
    for name, i, x_v, x_ac in active_segments(tracks):
        where = f"{name}, segment {i}"
        z_m, z_v, z_ac = finite(f"{where}: the representations are not finite",
                                lambda: analyze(x_v, x_ac))
        a_m, a_v, a_ac = np.abs(z_m), np.abs(z_v), np.abs(z_ac)
        wdo, psr, sir = w_do(a_v, a_ac)
        y_v, y_bm = finite(f"{where}: the voice estimates are not finite", lambda: resynthesize(
            [z_v, oracle_separate(z_m, z_v, z_ac)], len(x_v)))
        rows.append(SegmentMetrics(
            track=name,
            segment=i,
            si_sdr=si_sdr(x_v, y_v),
            si_sdr_bm=si_sdr(x_v, y_bm),
            additivity=additivity(a_m, a_v, a_ac),
            w_do=wdo,
            psr=psr,
            sir=sir,
        ))
    if not rows:
        raise DataError("no active voice segments to evaluate")
    return EvalReport(rows)
