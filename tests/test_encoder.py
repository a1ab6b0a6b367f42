import math
import re

import numpy as np
import pytest

import waverep.encoder
from waverep.autodiff import Node, Tape, as_node
from waverep.encoder import (
    EncoderParameters,
    conv1,
    conv2_dilated,
    encode,
    encode_chunks,
    encode_values,
    init_encoder,
    num_frames,
    relu,
)


def naive_strided_corr(x, kernels, stride):
    """Triple-loop reference for the first layer (zero-padded on the right)."""
    c, l = kernels.shape
    t = math.ceil(len(x) / stride)
    xp = np.concatenate([x, np.zeros(max(0, (t - 1) * stride + l - len(x)))])
    out = np.zeros((c, t))
    for ci in range(c):
        for ti in range(t):
            for li in range(l):
                out[ci, ti] += xp[stride * ti + li] * kernels[ci, li]
    return out


class TestInit:
    def test_uniform_bounds(self):
        params = init_encoder(800, 64, 5, 256, 10, seed=0)
        bound = math.sqrt(3 / 800)
        assert bound == pytest.approx(0.061237, abs=1e-6)
        assert np.max(np.abs(params.kernels)) < bound
        assert np.max(np.abs(params.dilated_kernels)) < bound

    def test_same_seed_same_parameters(self):
        a = init_encoder(16, 32, 3, 8, 2, seed=9)
        b = init_encoder(16, 32, 3, 8, 2, seed=9)
        np.testing.assert_array_equal(a.kernels, b.kernels)
        np.testing.assert_array_equal(a.dilated_kernels, b.dilated_kernels)

    def test_bounds_are_tight_statistically(self):
        # a million draws should graze (but never cross) the bounds
        params = init_encoder(3, 333_334, 2, 8, 2, seed=0)
        bound = math.sqrt(3 / 3)
        draws = params.kernels.ravel()
        assert draws.size >= 1_000_000
        assert 0.99 * bound < draws.max() < bound
        assert -bound < draws.min() < -0.99 * bound

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            init_encoder(0, 8, 2, 4, 2)


class TestConv1:
    def test_identity_kernel(self, rng):
        x = rng.uniform(-1, 1, 16)
        k = np.zeros((1, 4))
        k[0, 0] = 1.0
        np.testing.assert_allclose(conv1(x, as_node(k), 1).value[0], x)

    def test_hand_example(self):
        out = conv1(np.array([1.0, 2, 3, 4]), as_node(np.array([[1.0, 1.0]])), 2)
        np.testing.assert_array_equal(out.value, [[3.0, 7.0]])

    def test_zero_input(self):
        out = conv1(np.zeros(10), as_node(np.ones((3, 4))), 2)
        assert np.all(out.value == 0.0)

    def test_frame_count(self, rng):
        k = as_node(rng.normal(size=(2, 8)))
        for n in range(1, 40):
            for stride in (1, 2, 3, 7):
                out = conv1(rng.uniform(-1, 1, n), k, stride)
                assert out.value.shape == (2, math.ceil(n / stride)) == (2, num_frames(n, stride))

    def test_linearity(self, rng):
        k = as_node(rng.normal(size=(3, 6)))
        x, y = rng.uniform(-1, 1, 20), rng.uniform(-1, 1, 20)
        a, b = 0.37, -1.21
        lhs = conv1(a * x + b * y, k, 4).value
        rhs = a * conv1(x, k, 4).value + b * conv1(y, k, 4).value
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_matches_naive_oracle(self, rng):
        for _ in range(8):
            n = int(rng.integers(3, 33))
            c = int(rng.integers(1, 4))
            l = int(rng.integers(1, min(n, 9) + 1))
            stride = int(rng.integers(1, 5))
            x = rng.uniform(-1, 1, n)
            k = rng.normal(size=(c, l))
            np.testing.assert_allclose(
                conv1(x, as_node(k), stride).value, naive_strided_corr(x, k, stride),
                rtol=1e-12, atol=1e-12)


class TestEncode:
    def _single_channel_toy(self):
        return EncoderParameters(
            kernels=np.array([[1.0]]),
            dilated_kernels=np.array([[[1.0]]]),
            stride=1,
            dilation=1,
        )

    def test_toy_residual_doubling(self):
        x = np.array([1.0, 2, 3, 4])
        params = self._single_channel_toy()
        h1 = conv1(x, as_node(params.kernels), params.stride)
        h2 = conv2_dilated(h1, as_node(params.dilated_kernels), params.dilation)
        np.testing.assert_array_equal(h1.value, [[1, 2, 3, 4]])
        np.testing.assert_array_equal(h2.value, [[1, 2, 3, 4]])
        np.testing.assert_array_equal(encode(x, params).value, [[2, 4, 6, 8]])

    def test_zero_second_layer_reduces_to_relu(self, rng):
        params = init_encoder(4, 6, 3, 2, 2, seed=1)
        params.dilated_kernels[:] = 0.0
        x = rng.uniform(-1, 1, 25)
        h1 = conv1(x, as_node(params.kernels), params.stride)
        h2 = conv2_dilated(h1, as_node(params.dilated_kernels), params.dilation)
        assert np.all(h2.value == 0.0)
        np.testing.assert_array_equal(encode(x, params).value, np.maximum(h1.value, 0.0))

    def test_nonpositive_preactivation_gives_zero(self):
        params = self._single_channel_toy()
        a = encode(np.array([-1.0, -2, -3]), params)  # H + H~ = 2x < 0
        assert np.all(a.value == 0.0)

    def test_nonnegative_for_random_inputs(self, rng):
        params = init_encoder(5, 8, 3, 3, 4, seed=2)
        for _ in range(10):
            a = encode_values(rng.uniform(-1, 1, int(rng.integers(4, 50))), params)
            assert np.all(a >= 0.0)

    def test_strided_correlation_special_case(self, rng):
        # zero mixing kernels + non-negative first-layer kernels and input:
        # the encoder is exactly the (brute-force) strided cross-correlation
        for _ in range(5):
            n = int(rng.integers(4, 33))
            params = init_encoder(3, 4, 2, 2, 3, seed=int(rng.integers(100)))
            params.dilated_kernels[:] = 0.0
            params.kernels[:] = np.abs(params.kernels)
            x = rng.uniform(0, 1, n)
            np.testing.assert_allclose(
                encode_values(x, params),
                naive_strided_corr(x, params.kernels, 2),
                rtol=1e-12, atol=1e-12)

    def test_linear_hook_bypasses_relu(self):
        params = self._single_channel_toy()
        a = encode(np.array([-1.0, -2, -3]), params, linear=True)
        np.testing.assert_array_equal(a.value, [[-2, -4, -6]])

    def test_dilated_layer_shapes_and_padding(self, rng):
        # dilation reaches phi*(L2-1) frames ahead; output keeps T frames
        params = init_encoder(2, 4, 3, 2, 5, seed=0)
        a = encode_values(rng.uniform(-1, 1, 21), params)
        assert a.shape == (2, 11)


class TestRelu:
    @pytest.mark.parametrize("dtype, int_type", [(np.float32, np.int32), (np.float64, np.int64)])
    def test_bits_match_where(self, rng, dtype, int_type):
        # relu is branch-free; it keeps np.where's bits at every special value
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny],
                           dtype=dtype)
        block = rng.normal(size=(16, 37)).astype(dtype)
        stack = np.stack([block, -block])
        for p in (special, block, stack[1], stack[:, 3:9, ::2]):
            before = p.copy()
            out = relu(p)
            want = np.where(p > 0, p, 0.0)
            assert out.dtype == dtype and out.shape == p.shape
            np.testing.assert_array_equal(out.view(int_type), want.view(int_type))
            assert not np.signbit(out).any()
            # mixture_and_sources passes views of the encoded stack
            np.testing.assert_array_equal(p.view(int_type), before.view(int_type))


class TestDilationPastTheEnd:
    """A tap whose offset reaches past the last frame reads only padding: it is
    skipped, so a huge dilation sizes no padding."""

    def test_matches_the_zero_padded_sum(self, rng):
        h = rng.standard_normal((3, 14))  # two signals of 7 frames
        kp = rng.standard_normal((3, 4, 3))  # offsets 0, 3, 6 and 9 at dilation 3
        hp = np.pad(h.reshape(3, 2, 7), ((0, 0), (0, 0), (0, 9)))
        want = sum(kp[:, k, :] @ hp[:, :, 3 * k : 3 * k + 7].reshape(3, 14) for k in range(4))
        np.testing.assert_allclose(conv2_dilated(Node(h), Node(kp), 3, signals=2).value, want,
                                   rtol=1e-13, atol=1e-13)

    def test_huge_dilation_is_the_first_tap(self, rng):
        h, kp = Node(rng.standard_normal((3, 5))), Node(rng.standard_normal((3, 4, 3)))
        tape = Tape()
        out = conv2_dilated(h, kp, 2**40, tape)
        np.testing.assert_array_equal(out.value, kp.value[:, 0, :] @ h.value)
        g = rng.standard_normal(out.value.shape)
        tape.backward(out, g)
        np.testing.assert_array_equal(kp.grad[:, 0, :], g @ h.value.T)
        assert np.all(kp.grad[:, 1:, :] == 0.0)
        np.testing.assert_array_equal(h.grad, kp.value[:, 0, :].T @ g)


def padded_conv2(h, kp, dilation, signals, g):
    """The second layer as an explicit zero-padded sum: each signal's latents
    padded on the right, each tap one GEMM over all ``signals*T`` columns, a
    tap whose offset reaches T or more skipped.  Returns the value, the
    latent gradient and the kernel gradient for the output gradient ``g``."""
    c_out, l2, c_in = kp.shape
    t = h.shape[1] // signals
    taps = min(l2, -(-t // dilation))
    hp = np.pad(h.reshape(c_in, signals, t), ((0, 0), (0, 0), (0, dilation * (taps - 1))))
    windows = [hp[:, :, k * dilation : k * dilation + t].reshape(c_in, signals * t)
               for k in range(taps)]
    value = np.zeros((c_out, signals * t), dtype=h.dtype)
    dk, dhp = np.zeros_like(kp), np.zeros_like(hp)
    for k, window in enumerate(windows):
        value += kp[:, k, :] @ window
        dk[:, k, :] = g @ window.T
        dhp[:, :, k * dilation : k * dilation + t] += (kp[:, k, :].T @ g).reshape(c_in, signals, t)
    return value, dhp[:, :, :t].reshape(c_in, signals * t), dk


def backward_from(tape, out, g):
    """Replay ``tape`` with ``g`` as the gradient of its output ``out``."""
    root = Node(0.0)
    tape.record(lambda: out.add_grad(g), root)
    tape.backward(root)


def assert_same_bits(actual, desired):
    assert actual.dtype == desired.dtype and actual.shape == desired.shape
    assert actual.tobytes() == desired.tobytes()


class TestConv2AgainstPadding:
    """``conv2_dilated`` reads each tap's operand as a frame window of the
    latents, yet its value and both gradients have the bits of the
    zero-padded sum."""

    # (C, T, L2, dilation): the paper's 5 taps at dilation 10 over desk-sized
    # latents; offsets 0, 3, 6 and 9 over 7 frames, the last tap past the end;
    # a dilation equal to T and one far beyond it, the first tap alone; a
    # streaming block of 1024 frames and its 40 frames of context at desk scale
    CASES = [(24, 60, 5, 10), (6, 7, 4, 3), (5, 9, 3, 9), (5, 9, 3, 1000), (128, 1064, 5, 10)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("signals", [1, 2])
    @pytest.mark.parametrize("c, t, l2, dilation", CASES)
    def test_value_and_gradients(self, rng, dtype, signals, c, t, l2, dilation):
        h = Node(rng.standard_normal((c, signals * t)).astype(dtype))
        kp = Node(rng.standard_normal((c, l2, c)).astype(dtype))
        g = rng.standard_normal((c, signals * t)).astype(dtype)
        tape = Tape()
        out = conv2_dilated(h, kp, dilation, tape, signals=signals)
        backward_from(tape, out, g)
        for actual, desired in zip((out.value, h.grad, kp.grad),
                                   padded_conv2(h.value, kp.value, dilation, signals, g)):
            assert_same_bits(actual, desired)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_items_add_into_one_kernels_node(self, rng, dtype):
        # as two batch items do: each on its own tape, one shared kernels node
        c, t, l2, dilation = self.CASES[0]
        kp = Node(rng.standard_normal((c, l2, c)).astype(dtype))
        want = np.zeros_like(kp.value)
        for _ in range(2):
            h = Node(rng.standard_normal((c, 2 * t)).astype(dtype))
            g = rng.standard_normal((c, 2 * t)).astype(dtype)
            tape = Tape()
            backward_from(tape, conv2_dilated(h, kp, dilation, tape, signals=2), g)
            _, dh, dk = padded_conv2(h.value, kp.value, dilation, 2, g)
            want += dk
            assert_same_bits(h.grad, dh)
        assert_same_bits(kp.grad, want)


class TestStreaming:
    """``encode_values`` fills the representation from ``encode_chunks``
    blocks; it must agree with the one-shot taped ``encode``."""

    # dilation 10 and 5 taps give the 40-frame right context of the paper's
    # second layer
    PARAMS = dict(n_components=4, kernel_len=16, kernel2_len=5, stride=4, dilation=10)
    N = 4 * 97 + 3  # T = 98 frames
    # (kernel_len, chunk): 4 overlapping first-layer frames, then the paper's 8
    # (L = 2048 at stride 256), whose block window is 47 frames longer than
    # the block
    CASES = [(16, c) for c in (1, 7, 40, 41, 97, 98, 99)] + [(32, c) for c in (1, 40, 47, 97, 98)]

    @pytest.mark.parametrize("linear", [False, True])
    @pytest.mark.parametrize("kernel_len,chunk", CASES,
                             ids=[f"{c}" if l == 16 else f"overlap8-{c}" for l, c in CASES])
    def test_matches_one_shot(self, rng, monkeypatch, kernel_len, chunk, linear):
        params = init_encoder(**{**self.PARAMS, "kernel_len": kernel_len}, seed=4)
        x = rng.uniform(-1, 1, self.N)
        ref = encode(x, params, linear=linear).value
        assert ref.shape[1] == 98
        monkeypatch.setattr(waverep.encoder, "CHUNK_FRAMES", chunk)
        got = encode_values(x, params, linear=linear)
        if chunk >= ref.shape[1]:
            np.testing.assert_array_equal(got, ref)  # one block: bit for bit
        else:
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_signal_shorter_than_one_kernel(self, rng, monkeypatch, chunk):
        params = init_encoder(**self.PARAMS, seed=5)
        x = rng.uniform(-1, 1, 6)  # 2 frames, fewer samples than the 16-tap kernel
        monkeypatch.setattr(waverep.encoder, "CHUNK_FRAMES", chunk)
        for linear in (False, True):
            ref = encode(x, params, linear=linear).value
            got = encode_values(x, params, linear=linear)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_blocks_are_consecutive(self, rng, monkeypatch):
        params = init_encoder(**self.PARAMS, seed=6)
        monkeypatch.setattr(waverep.encoder, "CHUNK_FRAMES", 40)
        blocks = list(encode_chunks(rng.uniform(-1, 1, self.N), params))
        assert [b.shape for b in blocks] == [(4, 40), (4, 40), (4, 18)]

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            encode_values(np.zeros(0), init_encoder(**self.PARAMS))

    def test_huge_dilation_reads_one_block_per_block(self, rng, monkeypatch):
        # a tap past the last frame reads only padding, so it adds no right
        # context: no window is longer than one block's own span
        params = init_encoder(**{**self.PARAMS, "dilation": 2**33}, seed=7)
        x = rng.uniform(-1, 1, self.N)
        ref = encode(x, params).value
        monkeypatch.setattr(waverep.encoder, "CHUNK_FRAMES", 40)
        windows = []
        real_encode = waverep.encoder.encode

        def recording_encode(window, *args, **kwargs):
            windows.append(window.size)
            return real_encode(window, *args, **kwargs)

        monkeypatch.setattr(waverep.encoder, "encode", recording_encode)
        got = encode_values(x, params)
        assert len(windows) == 3
        assert max(windows) <= (40 - 1) * params.stride + params.kernel_len
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSignalStack:
    """``encode`` of an (n, N) stack gives each signal's one-signal
    representation in its own block of T columns, and its taped gradients
    are the sums of the one-signal gradients."""

    PARAMS = dict(n_components=4, kernel_len=16, kernel2_len=5, stride=4, dilation=10)

    @pytest.mark.parametrize("linear", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    # 98 frames, the last one partial; and 2 frames of 6 samples, fewer than one kernel
    @pytest.mark.parametrize("length", [4 * 97 + 3, 6])
    def test_blocks_match_single_signals(self, rng, n, length, linear):
        params = init_encoder(**self.PARAMS, seed=7)
        xs = rng.uniform(-1, 1, (n, length))
        t = num_frames(length, 4)
        got = encode(xs, params, linear=linear).value
        assert got.shape == (4, n * t)
        for k, x in enumerate(xs):
            ref = encode(x, params, linear=linear).value
            np.testing.assert_allclose(got[:, k * t : (k + 1) * t], ref,
                                       rtol=0, atol=1e-12 * np.max(np.abs(ref)))

    @staticmethod
    def _gradients(x, params, weights):
        """Kernel gradients of sum(weights * encode(x)), taped."""
        nodes = {"kernels": Node(params.kernels), "dilated_kernels": Node(params.dilated_kernels)}
        tape = Tape()
        taped = EncoderParameters(**nodes, stride=params.stride, dilation=params.dilation)
        a = encode(x, taped, tape)
        loss = Node(float((a.value * weights).sum()))
        tape.record(lambda: a.add_grad(float(loss.grad) * weights), loss)
        tape.backward(loss)
        return {name: node.grad for name, node in nodes.items()}

    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_gradients_are_sums_of_signal_gradients(self, rng, n):
        params = init_encoder(**self.PARAMS, seed=8)
        xs = rng.uniform(-1, 1, (n, 101))
        t = num_frames(101, 4)
        weights = rng.normal(size=(4, n * t))
        got = self._gradients(xs, params, weights)
        singles = [self._gradients(x, params, weights[:, k * t : (k + 1) * t]) for k, x in enumerate(xs)]
        for name, g in got.items():
            np.testing.assert_allclose(g, sum(s[name] for s in singles), rtol=1e-12)

    def test_uneven_stack_rejected(self, rng):
        with pytest.raises(ValueError, match="equal signals"):
            conv2_dilated(as_node(rng.normal(size=(3, 7))), as_node(rng.normal(size=(3, 2, 3))), 2,
                          signals=2)

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="latent has 3 rows, kernels expect 4"):
            conv2_dilated(as_node(rng.normal(size=(3, 7))), as_node(rng.normal(size=(4, 2, 4))), 2)

    def test_streaming_path_takes_one_signal(self, rng):
        # a stack, even of one signal, is refused by name, not by a failed tuple unpack
        params = init_encoder(**self.PARAMS)
        for shape in [(2, 40), (1, 40), (2, 1, 40)]:
            x = rng.uniform(-1, 1, shape)
            message = re.escape(f"takes one 1-D signal, not an array of shape {shape}")
            for stream in (lambda: encode_values(x, params), lambda: next(encode_chunks(x, params))):
                with pytest.raises(ValueError, match=message):
                    stream()
