"""Amplitude-modulated cosine synthesis back end.

Each of the C components owns a carrier frequency, a phase and a length-L
modulation envelope; its synthesis kernel is

    w[c, l] = cos(2*pi * g(f_c) * l + rho_c) * b[c, l],

where g squares the normalized carrier frequency by default (the squaring is
a learnable-frequency warping that favors low frequencies; it can be switched
off).  A representation is rendered by weighting kernels with the frame
activations and overlap-adding frames every ``stride`` samples.  Only f, rho
and b are ever trained; w is recomputed from them once per optimizer step, in
row blocks whose phase the backward forms again rather than keeping it.
:func:`synthesize` also renders n equal-length representations laid side by
side on the frame axis, as :func:`encoder.encode` stacks them: one GEMM for
all their frames, then one :func:`dataset.overlap_add` of the stack.

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
#: elements per row block of :func:`build_kernels`' forward and backward
KERNEL_BLOCK = 1 << 17


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
    rad); float64 modulators take the cosine of the unreduced phase.

    The forward and the backward each form the phase afresh in row blocks of
    about ``KERNEL_BLOCK`` elements, so that the tape keeps no (C, L) array but
    w and the inputs; values and row sums have the bits of whole-array ones."""
    f = freq.value[:, None]
    omega = 2.0 * np.pi * (f * f if square_freq else f)
    mod = modulator.value
    c, length = mod.shape
    l_idx = np.arange(length, dtype=np.float64)[None, :]
    rows = max(1, KERNEL_BLOCK // length)
    blocks = [slice(r, r + rows) for r in range(0, c, rows)]
    def phase_rows(b: slice) -> np.ndarray:
        theta = omega[b] * l_idx + phase.value[b, None]
        if mod.dtype != theta.dtype:
            turns = np.divide(theta, 2.0 * np.pi)
            np.rint(turns, out=turns)
            turns *= 2.0 * np.pi
            theta -= turns
        return theta.astype(mod.dtype, copy=False)

    w = np.empty(mod.shape, dtype=mod.dtype)
    for b in blocks:
        theta = phase_rows(b)
        np.multiply(np.cos(theta, out=theta), mod[b], out=w[b])
    out = Node(w)

    if tape is not None:
        def backward():
            # the seed alone when no item reached the kernels: a 0-d zero
            g = np.broadcast_to(out.grad, out.shape)
            dmod = np.empty_like(w)
            dphase, dfreq = np.empty(c, dtype=w.dtype), np.empty(c)
            for b in blocks:
                theta = phase_rows(b)
                msin = g[b] * np.sin(theta) * mod[b]
                np.multiply(g[b], np.cos(theta, out=theta), out=dmod[b])
                dphase[b] = msin.sum(axis=1)
                dfreq[b] = (msin * l_idx).sum(axis=1)
            modulator.add_grad(dmod, owned=True)
            phase.add_grad(-dphase, owned=True)
            dcarrier = 2.0 * freq.value if square_freq else np.ones_like(freq.value)
            freq.add_grad(-dfreq * 2.0 * np.pi * dcarrier, owned=True)
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
    result is then their (signals, out_len) waveforms, and (out_len,) for one,
    overlap-added from their (signals, T, L) frames by one call.
    """
    av, wv = a.value, kernels.value
    if av.shape[0] != wv.shape[0]:
        raise ValueError(f"representation has {av.shape[0]} rows but there are {wv.shape[0]} kernels")
    if av.shape[1] % signals:
        raise ValueError(f"{av.shape[1]} frames do not split into {signals} equal signals")
    t, length = av.shape[1] // signals, wv.shape[1]
    # frames as (wv.T @ av).T: av.T @ wv would round differently
    y = overlap_add((wv.T @ av).T.reshape(signals, t, length), stride, out_len)
    out = Node(y if signals > 1 else y[0])

    if tape is not None:
        def backward():
            # (L, signals*T) in F order: the GEMMs below round by operand layout
            dframes = np.ascontiguousarray(frame(out.grad, length, stride, t)).reshape(-1, length).T
            kernels.add_grad(av @ dframes.T, owned=True)
            a.add_grad(wv @ dframes, owned=True)
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
