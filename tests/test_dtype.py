"""The forward ops keep the dtype of their parameters: float32 parameters run
the forward pass in float32, float64 parameters in float64."""

import dataclasses

import numpy as np
import pytest

from waverep.autodiff import Node
from waverep.dataset import frame, overlap_add
from waverep.decoder import decode_chunks, decode_values, init_decoder, synthesize
from waverep.encoder import (
    conv1,
    conv2_dilated,
    encode_chunks,
    encode_values,
    init_encoder,
    relu_residual,
)
from waverep.evaluation import binary_mask

pytestmark = pytest.mark.parametrize("dtype", [np.float32, np.float64])


def as_model(dtype, c=6, length=24, stride=8):
    """An init model whose encoder kernels and decoder modulators are ``dtype``."""
    enc, dec = init_encoder(c, length, 3, stride, 2, seed=1), init_decoder(c, length, stride)
    return (dataclasses.replace(enc, kernels=enc.kernels.astype(dtype),
                                dilated_kernels=enc.dilated_kernels.astype(dtype)),
            dataclasses.replace(dec, modulator=dec.modulator.astype(dtype)))


def test_node_keeps_float32_and_holds_the_rest_as_float64(dtype):
    assert Node(np.ones(3, dtype)).value.dtype == dtype
    for other in (np.ones(3, np.int64), np.ones(3, np.float16), 1.0, [1, 2]):
        assert Node(other).value.dtype == np.float64


def test_conv1_takes_the_kernels_dtype(rng, dtype):
    # the signal stays float64: only the windows conv1 reads are cast
    kernels = Node(rng.standard_normal((4, 8)).astype(dtype))
    for x in (rng.standard_normal(50), rng.standard_normal((2, 50))):
        assert conv1(x, kernels, 4).value.dtype == dtype


def test_conv2_dilated_and_relu_residual(rng, dtype):
    h1 = Node(rng.standard_normal((4, 20)).astype(dtype))
    h2 = conv2_dilated(h1, Node(rng.standard_normal((4, 3, 4)).astype(dtype)), 2, signals=2)
    assert h2.value.dtype == dtype
    for linear in (False, True):
        assert relu_residual(h2, h1, linear=linear).value.dtype == dtype


def test_synthesize(rng, dtype):
    a = Node(rng.standard_normal((4, 12)).astype(dtype))
    w = Node(rng.standard_normal((4, 16)).astype(dtype))
    for signals, out_len in ((1, 100), (2, 30)):
        assert synthesize(a, w, 8, out_len, signals=signals).value.dtype == dtype


def test_frame_and_overlap_add(rng, dtype):
    x = rng.standard_normal(10).astype(dtype)
    frames = frame(x, 4, 3, 5)  # runs past the end: zero-padded
    assert frames.dtype == dtype
    for out_len in (5, 40):
        assert overlap_add(frames, 3, out_len).dtype == dtype


def test_binary_mask(rng, dtype):
    a, b = (rng.standard_normal((3, 5)).astype(dtype) for _ in range(2))
    assert binary_mask(a, b).dtype == dtype
    assert binary_mask(a.astype(int), b.astype(int)).dtype == np.float64


def test_streaming_encode_and_decode(rng, dtype, monkeypatch):
    monkeypatch.setattr("waverep.encoder.CHUNK_FRAMES", 7)
    enc, dec = as_model(dtype)
    x = 0.3 * rng.standard_normal(200)
    blocks = list(encode_chunks(x, enc))
    assert len(blocks) == 4
    assert all(block.dtype == dtype for block in blocks)
    assert encode_values(x, enc).dtype == dtype
    assert decode_chunks(iter(blocks), dec, x.size).dtype == dtype
    assert decode_values(encode_values(x, enc), dec, x.size).dtype == dtype

