"""Amplitude-modulated cosine synthesis back end.

Each of the C components owns a carrier frequency, a phase and a length-L
modulation envelope; its synthesis kernel is

    w[c, l] = cos(2*pi * g(f_c) * l + rho_c) * b[c, l],

where g squares the normalized carrier frequency by default (the squaring is
a learnable-frequency warping that favors low frequencies; it can be switched
off).  A representation is rendered by weighting kernels with the frame
activations and overlap-adding frames every ``stride`` samples.  Only f, rho
and b are ever trained; w is recomputed from them once per optimizer step.
:func:`synthesize` also renders n equal-length representations laid side by
side on the frame axis, as :func:`encoder.encode` stacks them: one GEMM for
all their frames, then an overlap-add per signal.

The forward-only path (:func:`decode_chunks`, and :func:`decode_values` on
top of it) builds w once and synthesizes one block of frames at a time,
overlap-adding each block into the output at its first frame's sample offset.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import encoder
from .autodiff import Node, Tape, as_node
from .dataset import SAMPLE_RATE, frame, overlap_add
from .errors import finite

#: lowest initial carrier frequency in Hz; the highest is the Nyquist frequency
LOWEST_CARRIER_HZ = 30.0


@dataclass
class DecoderParameters:
    freq: np.ndarray       # (C,) carrier frequencies, normalized by the sample rate
    phase: np.ndarray      # (C,) phases in radians
    modulator: np.ndarray  # (C, L) amplitude envelopes
    stride: int
    square_freq: bool = True

    @property
    def kernel_len(self) -> int:
        return self.modulator.shape[1]


def mel_scale(f_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(f_hz, dtype=np.float64) / 700.0)


def mel_inverse(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_init_frequencies(n_components: int) -> np.ndarray:
    """Normalized carrier frequencies spaced linearly on the mel scale.

    Returns ``n_components`` strictly increasing values in (0, 0.5], the
    endpoints mapping back to ``LOWEST_CARRIER_HZ`` and the Nyquist frequency.
    """
    if n_components < 2:
        raise ValueError("need at least 2 components")
    mels = np.linspace(mel_scale(LOWEST_CARRIER_HZ), mel_scale(SAMPLE_RATE / 2), n_components)
    # the top endpoint can overshoot Nyquist by one ulp through the round trip
    return np.minimum(mel_inverse(mels) / SAMPLE_RATE, 0.5)


def init_decoder(
    n_components: int,
    kernel_len: int,
    stride: int,
    square_freq: bool = DecoderParameters.square_freq,
) -> DecoderParameters:
    """Mel-spaced carriers, zero phases, constant 1/(C+L) modulators."""
    freq = mel_init_frequencies(n_components)
    phase = np.zeros(n_components)
    modulator = np.full((n_components, kernel_len), 1.0 / (n_components + kernel_len))
    return DecoderParameters(freq, phase, modulator, int(stride), square_freq)


def check_pair(enc: encoder.EncoderParameters, dec: DecoderParameters) -> None:
    """Raise ``ValueError`` unless ``enc`` and ``dec`` describe one model:
    one stride, no longer than the kernel length L, encoder arrays of shapes
    (C, L), (C, L2, C) and decoder arrays of shapes (C,), (C,), (C, L).

    A stride longer than L would leave the samples between frames unread by
    any kernel, and would size the overlap-add buffers by the stride alone."""
    shapes = [np.shape(a) for a in (enc.kernels, enc.dilated_kernels, dec.freq, dec.phase,
                                    dec.modulator)]
    c, length = shapes[0] if len(shapes[0]) == 2 else (-1, -1)
    l2 = shapes[1][1] if len(shapes[1]) == 3 else -1
    if shapes != [(c, length), (c, l2, c), (c,), (c,), (c, length)]:
        raise ValueError(f"inconsistent array shapes {shapes}; expected encoder (C, L), "
                         "(C, L2, C) and decoder (C,), (C,), (C, L)")
    if enc.stride != dec.stride:
        raise ValueError(f"encoder stride {enc.stride} != decoder stride {dec.stride}")
    if enc.stride > length:
        raise ValueError(f"stride {enc.stride} is longer than the kernel length {length}")


def cast_pair(enc: encoder.EncoderParameters, dec: DecoderParameters, dtype,
              where: str) -> tuple[encoder.EncoderParameters, DecoderParameters]:
    """Copies of ``enc`` and ``dec`` whose GEMM operands (the encoder kernels
    and the decoder modulators) are cast to ``dtype``; ``freq`` and ``phase``
    are shared, since the carrier phase is formed in float64 whatever the
    modulators' dtype.  :class:`NumericalError` naming ``where`` if a cast
    array is not finite in ``dtype``."""
    kernels, dilated, modulator = finite(
        f"{where}: the model's parameters are not finite in {np.dtype(dtype)}",
        lambda: [a.astype(dtype) for a in (enc.kernels, enc.dilated_kernels, dec.modulator)])
    return (dataclasses.replace(enc, kernels=kernels, dilated_kernels=dilated),
            dataclasses.replace(dec, modulator=modulator))


def build_kernels(
    freq: Node,
    phase: Node,
    modulator: Node,
    square_freq: bool,
    tape: Tape | None = None,
) -> Node:
    """Materialize the (C, L) synthesis kernels from their parameterization,
    in the modulators' dtype.

    The carrier phase reaches ``2*pi*f*L``, about 3.2e3 rad at L = 2048,
    where float32 would be off by about 2e-4 rad; so the phase is formed in
    float64.  For float32 modulators it is then reduced to [-pi, pi] and its
    cosine taken in float32, which rounds the reduced angle only (about 1e-7
    rad); float64 modulators take the cosine of the unreduced phase."""
    f = freq.value[:, None]
    carrier = f * f if square_freq else f
    l_idx = np.arange(modulator.value.shape[1], dtype=np.float64)[None, :]
    theta = 2.0 * np.pi * carrier * l_idx + phase.value[:, None]
    if modulator.value.dtype != theta.dtype:
        theta = (theta - 2.0 * np.pi * np.rint(theta / (2.0 * np.pi))).astype(modulator.value.dtype)
    cos_t = np.cos(theta)
    out = Node(cos_t * modulator.value)

    if tape is not None:
        def backward():
            g = out.grad
            modulator.add_grad(g * cos_t)
            msin = g * np.sin(theta) * modulator.value
            phase.add_grad(-msin.sum(axis=1))
            dcarrier = 2.0 * freq.value if square_freq else np.ones_like(freq.value)
            freq.add_grad(-(msin * l_idx).sum(axis=1) * 2.0 * np.pi * dcarrier)
        tape.record(backward, out)
    return out


def synthesize(
    a: Node,
    kernels: Node,
    stride: int,
    out_len: int,
    tape: Tape | None = None,
    signals: int = 1,
) -> Node:
    """Overlap-add synthesis: frame t contributes ``a[:, t] @ kernels`` at
    sample offset ``t * stride``; the natural (T-1)*stride + L samples are
    truncated (or zero-extended) to ``out_len``.

    ``a`` may hold ``signals`` equal-length representations side by side; the
    result is then their (signals, out_len) waveforms, and (out_len,) for one.
    """
    av, wv = a.value, kernels.value
    if av.shape[0] != wv.shape[0]:
        raise ValueError(f"representation has {av.shape[0]} rows but there are {wv.shape[0]} kernels")
    if av.shape[1] % signals:
        raise ValueError(f"{av.shape[1]} frames do not split into {signals} equal signals")
    t = av.shape[1] // signals
    # frames as (wv.T @ av).T: av.T @ wv would round differently
    frames = (wv.T @ av).T
    y = np.stack([overlap_add(frames[k * t : (k + 1) * t], stride, out_len) for k in range(signals)])
    out = Node(y if signals > 1 else y[0])

    if tape is not None:
        def backward():
            g = out.grad.reshape(signals, out_len)
            # (L, signals*T) in C order: the GEMMs below round by operand layout
            dframes = np.concatenate([frame(gk, wv.shape[1], stride, t).T for gk in g], axis=1)
            kernels.add_grad(av @ dframes.T)
            a.add_grad(wv @ dframes)
        tape.record(backward, out)
    return out


def kernel_matrix(params: DecoderParameters) -> np.ndarray:
    """Forward-only (C, L) kernel matrix for the current parameters, in the
    modulators' dtype, as :func:`build_kernels` makes it."""
    return build_kernels(as_node(params.freq), as_node(params.phase),
                         as_node(params.modulator), params.square_freq).value


def decode_chunks(chunks: Iterable[np.ndarray], params: DecoderParameters,
                  out_len: int) -> np.ndarray:
    """Forward-only decode of consecutive column blocks of a representation,
    such as :func:`encoder.encode_chunks` yields: each block is synthesized
    and overlap-added into the ``out_len``-sample output at its first frame's
    sample offset.

    The output has the modulators' dtype, as :func:`kernel_matrix` has."""
    w = as_node(kernel_matrix(params))
    y = np.zeros(out_len, dtype=w.value.dtype)
    start = 0
    for block in chunks:
        n = min((block.shape[1] - 1) * params.stride + params.kernel_len, out_len - start)
        if n > 0:
            y[start : start + n] += synthesize(as_node(block), w, params.stride, n).value
        start += block.shape[1] * params.stride
    return y


def decode_values(a: np.ndarray, params: DecoderParameters, out_len: int) -> np.ndarray:
    """Forward-only decode of a plain (C, T) array, ``CHUNK_FRAMES`` columns at a time."""
    a = np.asarray(a)
    step = encoder.CHUNK_FRAMES
    return decode_chunks((a[:, t0 : t0 + step] for t0 in range(0, a.shape[1], step)),
                         params, out_len)
