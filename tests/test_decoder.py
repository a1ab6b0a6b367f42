import math

import numpy as np
import pytest

import waverep.decoder
import waverep.encoder
from waverep.autodiff import Node, Tape, as_node
from waverep.decoder import (
    DecoderParameters,
    build_kernels,
    decode_chunks,
    decode_values,
    init_decoder,
    kernel_matrix,
    mel_init_frequencies,
    mel_inverse,
    mel_scale,
    synthesize,
)


def naive_overlap_add(a, w, stride, out_len):
    """Double-loop reference: place a[:,t]-weighted kernels every stride."""
    c, t = a.shape
    l = w.shape[1]
    y = np.zeros(out_len)
    for n in range(out_len):
        for ti in range(t):
            li = n - ti * stride
            if 0 <= li < l:
                for ci in range(c):
                    y[n] += a[ci, ti] * w[ci, li]
    return y


class TestMelInit:
    def test_known_value(self):
        assert mel_scale(700.0) == pytest.approx(2595 * math.log10(2), rel=1e-12)
        assert mel_scale(700.0) == pytest.approx(781.17, abs=0.01)

    def test_inverse_roundtrip(self):
        for f in (30.0, 440.0, 700.0, 22050.0):
            assert mel_inverse(mel_scale(f)) == pytest.approx(f, rel=1e-9)

    def test_two_component_endpoints(self):
        f = mel_init_frequencies(2)
        assert f[0] == pytest.approx(30 / 44100, rel=1e-9)
        assert f[1] == pytest.approx(0.5, rel=1e-12)

    def test_strictly_increasing_in_half_open_band(self):
        f = mel_init_frequencies(800)
        assert np.all(np.diff(f) > 0)
        assert f[0] > 0 and f[-1] <= 0.5

    def test_too_few_components(self):
        with pytest.raises(ValueError):
            mel_init_frequencies(1)


class TestInitDecoder:
    def test_initial_values(self):
        dec = init_decoder(8, 32, 4)
        assert np.all(dec.phase == 0.0)
        assert np.all(dec.modulator == 1.0 / (8 + 32))
        assert np.all(np.diff(dec.freq) > 0)
        assert dec.square_freq


class TestBuildKernels:
    def _kernels(self, freq, phase, mod, square=True):
        return build_kernels(as_node(freq), as_node(phase), as_node(mod), square).value

    def test_zero_frequency_all_ones(self):
        w = self._kernels(np.zeros(1), np.zeros(1), np.ones((1, 6)))
        np.testing.assert_array_equal(w, np.ones((1, 6)))

    def test_quarter_phase_vanishes(self):
        w = self._kernels(np.zeros(1), np.array([np.pi / 2]), np.ones((1, 6)))
        assert np.max(np.abs(w)) < 1e-15

    def test_squared_frequency_at_half(self):
        # carrier 0.5 squared -> 0.25 cycles/sample -> cos(pi/2) = 0 at l=1
        w = self._kernels(np.array([0.5]), np.zeros(1), np.ones((1, 4)))
        assert w[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert w[0, 0] == 1.0

    def test_unsquared_frequency(self):
        w = self._kernels(np.array([0.25]), np.zeros(1), np.ones((1, 4)), square=False)
        assert w[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_bounded_by_modulator(self, rng):
        freq = rng.uniform(0, 0.5, 5)
        phase = rng.uniform(-np.pi, np.pi, 5)
        mod = rng.normal(size=(5, 16))
        w = self._kernels(freq, phase, mod)
        assert np.all(np.abs(w) <= np.abs(mod) + 1e-15)


def whole_array_kernels(freq, phase, mod, square_freq, g):
    """:func:`build_kernels` and its backward as whole-array expressions:
    the kernels and the freq, phase and modulator gradients for the kernel
    gradient ``g``."""
    f = freq[:, None]
    carrier = f * f if square_freq else f
    l_idx = np.arange(mod.shape[1], dtype=np.float64)[None, :]
    theta = 2.0 * np.pi * carrier * l_idx + phase[:, None]
    if mod.dtype != theta.dtype:
        theta = (theta - 2.0 * np.pi * np.rint(theta / (2.0 * np.pi))).astype(mod.dtype)
    cos_t = np.cos(theta)
    msin = g * np.sin(theta) * mod
    dcarrier = 2.0 * freq if square_freq else np.ones_like(freq)
    dfreq = -(msin * l_idx).sum(axis=1) * 2.0 * np.pi * dcarrier
    return cos_t * mod, dfreq, (-msin.sum(axis=1)).astype(np.float64), g * cos_t


class TestBuildKernelsBlocks:
    """The backward runs in row blocks of ``KERNEL_BLOCK`` elements and the
    phase is formed in place; both keep the bits of the whole-array form."""

    # (C, L, elements per block): 128-row blocks at the default size, so one
    # full block and a partial one; 3-row blocks, so two and a single row
    @pytest.mark.parametrize("c, length, block", [(200, 1024, 1 << 17), (7, 64, 3 * 64)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("square_freq", [True, False])
    def test_matches_the_whole_array_expressions(self, rng, monkeypatch, c, length, block, dtype,
                                                 square_freq):
        monkeypatch.setattr(waverep.decoder, "KERNEL_BLOCK", block)
        freq, phase = rng.uniform(0, 0.5, c), rng.uniform(-np.pi, np.pi, c)
        mod = rng.standard_normal((c, length)).astype(dtype)
        g = rng.standard_normal((c, length)).astype(dtype)
        nodes = [Node(freq), Node(phase), Node(mod)]
        tape = Tape()
        w = build_kernels(*nodes, square_freq, tape)
        w.add_grad(g)
        tape.backward(w, 0.0)
        want = whole_array_kernels(freq, phase, mod, square_freq, g)
        for actual, desired in zip([w.value] + [n.grad for n in nodes], want):
            assert actual.dtype == desired.dtype and actual.tobytes() == desired.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_seed_alone_gives_zero_gradients(self, rng, dtype):
        # the step's kernel tape replays with a 0-d zero seed when no item reached w
        nodes = [Node(rng.uniform(0, 0.5, 5)), Node(np.zeros(5)),
                 Node(rng.standard_normal((5, 16)).astype(dtype))]
        tape = Tape()
        w = build_kernels(*nodes, True, tape)
        tape.backward(w, 0.0)
        for node in nodes:
            np.testing.assert_array_equal(node.grad, np.zeros_like(node.value), strict=True)


class TestSynthesize:
    def test_zero_representation(self):
        out = synthesize(as_node(np.zeros((2, 3))), as_node(np.ones((2, 4))), 2, 8)
        assert np.all(out.value == 0.0)

    def test_one_hot_places_a_kernel(self, rng):
        w = rng.normal(size=(3, 5))
        a = np.zeros((3, 2))
        a[1, 0] = 2.5
        out = synthesize(as_node(a), as_node(w), 3, 8).value
        np.testing.assert_allclose(out[:5], 2.5 * w[1])
        assert np.all(out[5:] == 0.0)

    def test_hand_overlap_add(self):
        out = synthesize(as_node(np.array([[1.0, 1.0]])), as_node(np.array([[1.0, 1.0]])), 1, 3)
        np.testing.assert_array_equal(out.value, [1.0, 2.0, 1.0])

    def test_matches_naive_oracle_exactly_on_integers(self, rng):
        # integer-valued inputs make every partial sum exactly representable,
        # so the comparison is bitwise despite different accumulation orders
        for _ in range(10):
            c = int(rng.integers(1, 5))
            t = int(rng.integers(1, 5))
            l = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 5))
            a = rng.integers(-3, 4, size=(c, t)).astype(np.float64)
            w = rng.integers(-3, 4, size=(c, l)).astype(np.float64)
            out_len = (t - 1) * stride + l
            got = synthesize(as_node(a), as_node(w), stride, out_len).value
            np.testing.assert_array_equal(got, naive_overlap_add(a, w, stride, out_len))

    def test_matches_naive_oracle_on_floats(self, rng):
        for _ in range(10):
            c, t, l, stride = (int(rng.integers(1, 5)) for _ in range(4))
            a = rng.normal(size=(c, t))
            w = rng.normal(size=(c, l))
            out_len = (t - 1) * stride + l
            got = synthesize(as_node(a), as_node(w), stride, out_len).value
            np.testing.assert_allclose(got, naive_overlap_add(a, w, stride, out_len),
                                       rtol=1e-12, atol=1e-14)

    def test_truncation_and_extension(self, rng):
        a = rng.normal(size=(2, 3))
        w = rng.normal(size=(2, 4))
        full = synthesize(as_node(a), as_node(w), 2, 8).value
        short = synthesize(as_node(a), as_node(w), 2, 5).value
        longer = synthesize(as_node(a), as_node(w), 2, 11).value
        np.testing.assert_array_equal(short, full[:5])
        np.testing.assert_array_equal(longer[:8], full)
        assert np.all(longer[8:] == 0.0)

    def test_linearity(self, rng):
        w = as_node(rng.normal(size=(3, 6)))
        a1, a2 = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        al, be = 1.7, -0.4
        lhs = synthesize(as_node(al * a1 + be * a2), w, 2, 12).value
        rhs = al * synthesize(as_node(a1), w, 2, 12).value + be * synthesize(as_node(a2), w, 2, 12).value
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_row_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            synthesize(as_node(rng.normal(size=(3, 2))), as_node(rng.normal(size=(2, 4))), 1, 4)


class TestComponentSorting:
    def test_frequency_sort_is_output_invariant(self, rng):
        dec = DecoderParameters(
            freq=rng.uniform(0, 0.5, 6),
            phase=rng.uniform(-np.pi, np.pi, 6),
            modulator=rng.normal(size=(6, 8)),
            stride=3,
        )
        a = rng.uniform(0, 1, (6, 5))
        order = np.argsort(dec.freq)
        sorted_dec = DecoderParameters(
            freq=dec.freq[order],
            phase=dec.phase[order],
            modulator=dec.modulator[order],
            stride=3,
        )
        np.testing.assert_allclose(
            decode_values(a, dec, 20),
            decode_values(a[order], sorted_dec, 20),
            rtol=1e-12, atol=1e-12)


def test_kernel_matrix_matches_build(rng):
    dec = init_decoder(4, 10, 2)
    np.testing.assert_array_equal(
        kernel_matrix(dec),
        build_kernels(as_node(dec.freq), as_node(dec.phase), as_node(dec.modulator), True).value)


@pytest.mark.parametrize("square_freq", [True, False])
def test_float32_kernel_matrix_is_the_float64_one_rounded(rng, square_freq):
    # paper scale, where the carrier phase reaches about 3.2e3 rad: a float32
    # cosine of the unreduced phase would be off by about 2e-4 of max|w|
    dec = init_decoder(800, 2048, 256, square_freq)
    dec.phase = rng.uniform(-np.pi, np.pi, 800)
    dec.modulator = rng.standard_normal((800, 2048))
    w64 = kernel_matrix(dec)
    dec.modulator = dec.modulator.astype(np.float32)
    w32 = kernel_matrix(dec)
    assert w32.dtype == np.float32
    assert np.max(np.abs(w32 - w64.astype(np.float32))) <= 5e-7 * np.max(np.abs(w64))


class TestStreaming:
    """``decode_values`` overlap-adds ``CHUNK_FRAMES``-column blocks; it must
    agree with one-shot synthesis, including truncated and extended outputs."""

    @pytest.mark.parametrize("chunk", [1, 7, 40, 41, 97, 98, 99])
    def test_matches_one_shot(self, rng, monkeypatch, chunk):
        dec = init_decoder(4, 16, 4)
        a = rng.uniform(0, 1, (4, 98))
        natural = 97 * 4 + 16
        monkeypatch.setattr(waverep.encoder, "CHUNK_FRAMES", chunk)
        for out_len in (natural, 4 * 98 - 3, natural + 9, 30):
            ref = synthesize(as_node(a), as_node(kernel_matrix(dec)), 4, out_len).value
            got = decode_values(a, dec, out_len)
            if chunk >= a.shape[1]:
                np.testing.assert_array_equal(got, ref)  # one block: bit for bit
            else:
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_short_signal_blocks(self, rng):
        # two frames, fewer samples than one kernel, one frame per block
        dec = init_decoder(4, 16, 4)
        a = rng.uniform(0, 1, (4, 2))
        ref = synthesize(as_node(a), as_node(kernel_matrix(dec)), 4, 6).value
        got = decode_chunks([a[:, :1], a[:, 1:]], dec, 6)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSignalStack:
    """``synthesize`` of n representations side by side gives each one's
    own waveform, and its taped gradients are the sums of the one-signal ones."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    # natural length 3*4 + 8 = 20: truncated, exact, zero-extended; one frame shorter than a kernel;
    # no frames; no samples
    @pytest.mark.parametrize("frames, out_len", [(5, 14), (5, 20), (5, 26), (1, 5), (0, 5), (5, 0)])
    def test_rows_match_single_signals(self, rng, n, frames, out_len):
        a = rng.normal(size=(3, n * frames))
        w = as_node(rng.normal(size=(3, 8)))
        got = synthesize(as_node(a), w, 3, out_len, signals=n).value
        assert got.shape == ((n, out_len) if n > 1 else (out_len,))
        for k, row in enumerate(got.reshape(n, out_len)):
            ref = synthesize(as_node(a[:, k * frames : (k + 1) * frames]), w, 3, out_len).value
            np.testing.assert_allclose(row, ref, rtol=0,
                                       atol=1e-12 * np.max(np.abs(ref), initial=0.0))

    @staticmethod
    def _gradients(a, w, signals, weights):
        an, wn = Node(a), Node(w)
        tape = Tape()
        y = synthesize(an, wn, 3, weights.shape[-1], tape, signals=signals)
        loss = Node(float((y.value * weights).sum()))
        tape.record(lambda: y.add_grad(float(loss.grad) * weights), loss)
        tape.backward(loss)
        return an.grad, wn.grad

    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_gradients_are_sums_of_signal_gradients(self, rng, n):
        a = rng.normal(size=(3, n * 5))
        w = rng.normal(size=(3, 8))
        weights = rng.normal(size=(n, 17))
        da, dw = self._gradients(a, w, n, weights)
        singles = [self._gradients(a[:, 5 * k : 5 * k + 5], w, 1, weights[k]) for k in range(n)]
        np.testing.assert_allclose(da, np.concatenate([s[0] for s in singles], axis=1), rtol=1e-12)
        np.testing.assert_allclose(dw, sum(s[1] for s in singles), rtol=1e-12)

    def test_uneven_stack_rejected(self, rng):
        with pytest.raises(ValueError, match="equal signals"):
            synthesize(as_node(rng.normal(size=(3, 7))), as_node(rng.normal(size=(3, 4))), 2, 10,
                       signals=2)
