"""Strided/dilated convolutional analysis front end.

A signal of N samples is mapped to a non-negative representation of shape
(C, T) with T = ceil(N / stride): a strided cross-correlation against C
kernels, a dilated channel-mixing convolution on top of it, a residual
connection, and a ReLU.  Both layers zero-pad on the right, so frame t is
aligned with sample ``t * stride``.  The encoder is linear up to its final
ReLU, which ``linear=True`` skips: the pre-activation of a sum of signals is
the sum of theirs, so a mixture's representation needs no encode of its own.

The layers and :func:`encode` also take an (n, N) stack of n
equal-length signals and return their representations side by side on the
frame axis, (C, n*T) with signal k in columns ``k*T .. (k+1)*T - 1``, so
that signals alive together run as one GEMM per layer instead of n narrow
ones.  Each layer frames the stack's last axis in one :func:`dataset.frame`
call, so each signal keeps its own right zero padding and its columns equal
its single-signal result to rounding; a 1-D signal is the n = 1 stack.

Frame t of the output reads first-layer frames t .. t + dilation*(L2-1) only,
and so samples ``t*stride .. (t + dilation*(L2-1))*stride + L - 1`` only.
The forward-only path (:func:`encode_chunks`, and :func:`encode_values` on top
of it) therefore streams one signal in blocks of ``CHUNK_FRAMES`` frames, each
the plain :func:`encode` of its own overlapping sample window, and holds one
block's latents at a time.  Blocks agree with the one-shot :func:`encode` to
rounding; an input of at most ``CHUNK_FRAMES`` frames is one block, computed
by the same call, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .autodiff import Node, Tape, as_node
from .dataset import frame

#: frames per block of the forward-only streaming path
CHUNK_FRAMES = 1024


@dataclass
class EncoderParameters:
    """The encoder's two kernel tensors are arrays, or, inside a training
    step, the step's tape nodes, which then collect their gradients."""

    kernels: np.ndarray | Node          # (C, L) first-layer analysis kernels
    dilated_kernels: np.ndarray | Node  # (C, L2, C) second-layer channel-mixing kernels
    stride: int
    dilation: int

    @property
    def n_components(self) -> int:
        return self.kernels.shape[0]

    @property
    def kernel_len(self) -> int:
        return self.kernels.shape[1]


def init_encoder(
    n_components: int,
    kernel_len: int,
    kernel2_len: int,
    stride: int,
    dilation: int,
    seed: int = 0,
) -> EncoderParameters:
    """Draw both kernel sets i.i.d. uniform on (-sqrt(3/C), +sqrt(3/C))."""
    if min(n_components, kernel_len, kernel2_len, stride, dilation) < 1:
        raise ValueError("all encoder dimensions must be positive")
    bound = math.sqrt(3.0 / n_components)
    rng = np.random.default_rng(seed)
    kernels = rng.uniform(-bound, bound, size=(n_components, kernel_len))
    dilated = rng.uniform(-bound, bound, size=(n_components, kernel2_len, n_components))
    return EncoderParameters(kernels, dilated, int(stride), int(dilation))


def num_frames(n_samples: int, stride: int) -> int:
    return -(-n_samples // stride)


def _signals(x) -> np.ndarray:
    """``x`` as an (n, N) stack: a 1-D signal is a stack of one.  The samples
    keep their dtype; :func:`conv1` casts only the windows it reads."""
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None]
    if x.ndim != 2 or x.size == 0:
        raise ValueError("conv1 expects a non-empty 1-D signal or an (n, N) stack of them")
    return x


def conv1(x: np.ndarray, kernels: Node, stride: int, tape: Tape | None = None) -> Node:
    """First layer: cross-correlation of each signal of ``x`` with each kernel
    at ``stride``, for all ``ceil(N / stride)`` frames; signal k fills output
    columns ``k*T .. (k+1)*T - 1``.  The (n, T, L) windows of the stack, one
    :func:`dataset.frame` view, are copied once, in the kernels' dtype."""
    x = _signals(x)
    length = kernels.value.shape[1]
    win = frame(x, length, stride, num_frames(x.shape[1], stride))
    win = win.astype(kernels.value.dtype, order="C").reshape(-1, length)
    out = Node(kernels.value @ win.T)

    if tape is not None:
        def backward():
            kernels.add_grad(out.grad @ win, owned=True)
        tape.record(backward, out)
    return out


def conv2_dilated(h: Node, kernels: Node, dilation: int, tape: Tape | None = None,
                  signals: int = 1) -> Node:
    """Second layer: unit-stride dilated convolution mixing all channels.

    Output frame t aggregates input frames t, t+d, t+2d, ... of its own
    signal, and frames past the signal's end count as zeros, so the output
    keeps exactly T frames.  ``h`` may hold ``signals`` equal-length latents
    side by side; each gets its own T output columns.  A tap whose offset is
    T or more reads only zeros: it is skipped, and its kernel gradient is zero.

    Tap k multiplies window k of :func:`dataset.frame` over each signal's
    frames at hop ``dilation``: frames ``k*dilation ..``, then zeros, as the
    zero-padded sum does, with its bits.  For one signal that is a view of one
    zero-tailed copy of ``h``; a stack copies each window.  The backward adds
    each tap's kernel gradient into the kernels' gradient in place.
    """
    kp = kernels.value  # (C_out, L2, C_in)
    c_out, l2, c_in = kp.shape
    hv = h.value
    if hv.shape[0] != c_in:
        raise ValueError(f"channel mismatch: latent has {hv.shape[0]} rows, kernels expect {c_in}")
    if hv.shape[1] % signals:
        raise ValueError(f"{hv.shape[1]} frames do not split into {signals} equal signals")
    t = hv.shape[1] // signals
    taps = min(l2, -(-t // dilation))  # the taps whose offset is below t

    def operands():  # tap k's (C_in, signals*t) operand
        windows = frame(hv.reshape(c_in, signals, t), t, dilation, taps)
        for k in range(taps):
            yield k, windows[:, :, k].reshape(c_in, signals * t)

    out_val = np.zeros((c_out, signals * t), dtype=hv.dtype)
    for k, hk in operands():
        out_val += kp[:, k, :] @ hk
    out = Node(out_val)

    if tape is not None:
        def backward():
            g = out.grad
            dk = kernels.grad_buffer()
            dh = np.zeros((c_in, signals, t), dtype=hv.dtype)
            for k, hk in operands():
                off = k * dilation
                dk[:, k, :] += g @ hk.T
                dh[:, :, off:] += (kp[:, k, :].T @ g).reshape(c_in, signals, t)[:, :, : t - off]
            h.add_grad(dh.reshape(c_in, signals * t), owned=True)
        tape.record(backward, out)
    return out


def relu(p: np.ndarray) -> np.ndarray:
    """The encoder's final nonlinearity, elementwise; NaN and -0 map to +0; branch-free."""
    out = np.fmax(p, 0.0)
    out += 0.0  # some fmax builds return -0.0 for a -0.0 input
    return out


def relu_residual(h2: Node, h1: Node, tape: Tape | None = None, linear: bool = False) -> Node:
    """Residual add followed by :func:`relu`; ``linear=True`` bypasses the ReLU.

    The linear mode makes the whole encoder a linear map and returns its
    pre-activation; :func:`evaluation.mixture_and_sources` applies
    :func:`relu` afterwards.  The subgradient at exactly zero is taken as
    zero.  The op is elementwise, so a stack of signals needs nothing more.
    """
    pre = h2.value + h1.value
    out = Node(pre if linear else relu(pre))

    if tape is not None:
        def backward():
            # relu(pre) > 0 exactly where pre > 0
            g = out.grad if linear else out.grad * (out.value > 0)
            h1.add_grad(g)
            h2.add_grad(g)
        tape.record(backward, out)
    return out


def encode(x: np.ndarray, params: EncoderParameters, tape: Tape | None = None,
           linear: bool = False) -> Node:
    """Run the full analysis front end on one signal or an (n, N) stack of
    them; returns the (C, T) representation, or the (C, n*T) stack.

    Kernels given as nodes (a training step's) collect their gradients there.
    """
    x = _signals(x)
    h1 = conv1(x, as_node(params.kernels), params.stride, tape)
    h2 = conv2_dilated(h1, as_node(params.dilated_kernels), params.dilation, tape, signals=len(x))
    return relu_residual(h2, h1, tape, linear=linear)


def encode_chunks(
    x: np.ndarray, params: EncoderParameters, linear: bool = False
) -> Iterator[np.ndarray]:
    """Forward-only encode of one 1-D signal (``ValueError`` for any other
    array), yielding the representation in consecutive blocks of
    ``CHUNK_FRAMES`` columns (the last one may be narrower).

    Each block is :func:`encode` of the samples its frames read, truncated to
    the block: the window reaches ``dilation * (taps - 1)`` frames of right
    context plus one kernel, where ``taps`` counts the second-layer taps whose
    offset falls inside the signal (the others read only padding), and past
    the end of the signal it zero-pads exactly as the one-shot encode does.
    """
    if np.ndim(x) != 1:
        raise ValueError("the streaming encoder takes one 1-D signal, not an array of shape "
                         f"{np.shape(x)}")
    (x,) = _signals(x)
    stride, frames = params.stride, num_frames(x.size, params.stride)
    taps = min(params.dilated_kernels.shape[1], -(-frames // params.dilation))
    context = params.dilation * (taps - 1)
    span = (CHUNK_FRAMES + context - 1) * stride + params.kernel_len
    for t0 in range(0, frames, CHUNK_FRAMES):
        window = x[t0 * stride : t0 * stride + span]
        yield encode(window, params, linear=linear).value[:, :CHUNK_FRAMES]


def encode_values(x: np.ndarray, params: EncoderParameters, linear: bool = False) -> np.ndarray:
    """Forward-only encode returning the (C, T) representation array in the
    kernels' dtype, filled block by block from :func:`encode_chunks`."""
    a = np.empty((params.n_components, num_frames(np.size(x), params.stride)),
                 dtype=params.kernels.dtype)
    for i, block in enumerate(encode_chunks(x, params, linear)):
        a[:, i * CHUNK_FRAMES : i * CHUNK_FRAMES + block.shape[1]] = block
    return a
