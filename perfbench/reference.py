"""Encode -> decode written straight from the formulas in PAPER.md.

Kept apart from the package on purpose: it shares no code with
``waverep.encoder`` / ``waverep.decoder`` and sums in a different order
(stacked taps and a scatter-add overlap-add), so agreement within
``REL_TOL`` checks the program's arithmetic rather than restating it.

- analysis: ``h1[c, t] = sum_l k[c, l] x[t*s + l]`` (x zero-padded on the
  right, T = ceil(N / s) frames); ``h2[c, t] = sum_j sum_c' K2[c, j, c']
  h1[c', t + j*d]`` (h1 zero beyond T); ``a = max(h1 + h2, 0)``.
- synthesis: ``w[c, l] = cos(2 pi g(f_c) l + rho_c) b[c, l]`` with
  ``g(f) = f^2`` when carriers are squared, and ``y[t*s + l] += sum_c
  a[c, t] w[c, l]``, truncated to N samples.
"""

from __future__ import annotations

import numpy as np

#: relative L2 error allowed between the program and this reference
REL_TOL = 1e-9


def encode(x, kernels, dilated, stride: int, dilation: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    c, length = kernels.shape
    frames = -(-x.size // stride)
    padded = np.zeros((frames - 1) * stride + length)
    padded[: x.size] = x[: padded.size]
    starts = np.arange(frames) * stride
    h1 = kernels @ padded[starts[:, None] + np.arange(length)].T
    taps = dilated.shape[1]
    h1p = np.zeros((c, frames + dilation * (taps - 1)))
    h1p[:, :frames] = h1
    stacked = np.stack([h1p[:, j * dilation : j * dilation + frames] for j in range(taps)])
    h2 = np.tensordot(dilated, stacked, axes=([1, 2], [0, 1]))
    return np.maximum(h1 + h2, 0.0)


def decode(a, freq, phase, modulator, stride: int, n_samples: int, square_freq: bool = True) -> np.ndarray:
    carrier = freq * freq if square_freq else freq
    length = modulator.shape[1]
    w = np.cos(2.0 * np.pi * carrier[:, None] * np.arange(length) + phase[:, None]) * modulator
    frames = a.shape[1]
    y = np.zeros((frames - 1) * stride + length)
    idx = np.arange(frames)[:, None] * stride + np.arange(length)
    np.add.at(y, idx, a.T @ w)
    out = np.zeros(n_samples)
    n = min(n_samples, y.size)
    out[:n] = y[:n]
    return out


def rel_error(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return float("inf")
    scale = float(np.linalg.norm(want))
    return float(np.linalg.norm(got - want)) / (scale if scale > 0 else 1.0)
