import numpy as np
import pytest

from waverep.dataset import (
    frame,
    is_active,
    load_and_downmix,
    make_training_pairs,
    overlap_add,
    segment,
)
from waverep.errors import DataError
from waverep.wavio import read_wav

from conftest import write_pcm16, write_pcm24, write_float32


class TestLoadAndDownmix:
    def test_symmetric_channels_cancel(self, tmp_path):
        path = tmp_path / "s.wav"
        write_float32(path, np.array([[0.5, -0.5]]))
        assert load_and_downmix(path)[0] == 0.0

    def test_channel_mean(self, tmp_path):
        path = tmp_path / "s.wav"
        write_float32(path, np.array([[0.25, 0.75]]))
        assert load_and_downmix(path)[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("encoding", ["float32", "pcm16", "pcm24"])
    def test_mono_is_the_channel_mean(self, tmp_path, rng, encoding):
        # a one-channel file is read as it is: the bits of its channel mean
        path = tmp_path / "s.wav"
        if encoding == "float32":
            values = np.concatenate([[0.0, -0.0, 1.0, -1.0, 1e-40, -1e-40],
                                     rng.uniform(-1, 1, 500)])
            write_float32(path, values)
        elif encoding == "pcm16":
            write_pcm16(path, rng.integers(-2**15, 2**15, size=(500, 1)))
        else:
            write_pcm24(path, np.concatenate([[-2**23, 2**23 - 1, 0, -1],
                                              rng.integers(-2**23, 2**23, size=500)]))
        mono = load_and_downmix(path)
        want = read_wav(path)[0].mean(axis=1)
        assert mono.dtype == np.float64 and mono.shape == want.shape
        assert mono.tobytes() == want.tobytes()
        assert mono.flags.c_contiguous and mono.flags.writeable

    def test_pcm16_full_scale(self, tmp_path):
        path = tmp_path / "s.wav"
        write_pcm16(path, np.array([[-32768]]))
        assert load_and_downmix(path)[0] == -1.0

    def test_wrong_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "s.wav"
        write_pcm16(path, np.array([[0]]), rate=48000)
        with pytest.raises(DataError, match="44100"):
            load_and_downmix(path)


class TestSegment:
    def test_one_second_with_half_overlap(self):
        segs = segment(np.arange(44100, dtype=float), 44100, 22050)
        assert len(segs) == 2
        assert np.all(segs[1][22050:] == 0.0)  # zero-padded tail
        np.testing.assert_array_equal(segs[1][:22050], np.arange(22050, 44100))

    def test_exact_fit_is_identity(self):
        x = np.arange(10, dtype=float)
        segs = segment(x, 10, 10)
        assert len(segs) == 1
        np.testing.assert_array_equal(segs[0], x)

    def test_short_tail_padded(self):
        segs = segment(np.arange(5, dtype=float), 4, 2)
        assert [len(s) for s in segs] == [4, 4, 4]
        np.testing.assert_array_equal(segs[2], [4, 0, 0, 0])

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            segment(np.array([]), 4, 2)

    @pytest.mark.parametrize("length, hop", [(0, 1), (4, 0)])
    def test_nonpositive_length_or_hop_rejected(self, length, hop):
        with pytest.raises(ValueError, match="segment length and hop must be positive"):
            segment(np.arange(10.0), length, hop)

    def test_hop_longer_than_length_rejected(self):
        # segments at 0 and 6 of length 4 would drop samples 4 and 5
        with pytest.raises(ValueError, match="hop 6 is longer than the segment length 4"):
            segment(np.arange(10.0), 4, 6)

    def test_nonoverlapping_concat_roundtrip(self, rng):
        x = rng.normal(size=1000)
        segs = segment(x, 64, 64)
        glued = np.concatenate(segs)
        np.testing.assert_array_equal(glued[: x.size], x)
        assert np.all(glued[x.size:] == 0.0)


class TestIsActive:
    def test_silence_is_inactive(self):
        assert not is_active(np.zeros(100))

    def test_unit_energy_is_active(self):
        x = np.zeros(100)
        x[0] = 1.0  # ||x||^2 = 1 -> ~0 dB
        assert is_active(x)

    def test_boundary_is_inclusive(self):
        x = np.zeros(100)
        x[0] = np.sqrt(0.1)  # ||x||^2 = 0.1 -> exactly -10 dB
        assert is_active(x)

    def test_monotone_in_energy(self, rng):
        x = rng.normal(size=200) * 1e-3
        for _ in range(12):
            if is_active(x):
                assert is_active(2 * x)  # scaling up never deactivates
            x = 2 * x


# (length, hop, n_frames, out_len offset from the natural (T-1)*hop + L)
FRAMINGS = [
    (8, 2, 6, 0),    # hop divides length
    (7, 3, 5, 0),    # hop does not divide length
    (4, 6, 5, 0),    # hop > length: gaps between frames
    (5, 5, 4, 0),    # abutting frames
    (6, 2, 1, 0),    # a single frame
    (7, 3, 5, -4),   # out_len shorter than the natural length
    (7, 3, 5, 9),    # out_len longer than the natural length
    (4, 2, 3, -8),   # out_len 0
    (5, 2, 0, 0),    # no frames, a signal shorter than one frame
    (5, 2, 0, 4),    # no frames, a signal longer than one frame
    (5, 2, 0, -3),   # no frames, out_len 0
]
#: each framing over the leading axes of a stack: one signal (under the
#: framing's own test id), a row of 3 signals, a 2 x 3 grid of them
STACKED = [pytest.param(*f, lead, id="-".join(map(str, f)) + suffix)
           for f in FRAMINGS for lead, suffix in [((), ""), ((3,), "-row"), ((2, 3), "-grid")]]


class TestFrameOverlapAdd:
    @pytest.mark.parametrize("length,hop,n_frames,extra,lead", STACKED)
    def test_overlap_add_matches_per_frame_loop_bitwise(self, rng, length, hop, n_frames, extra,
                                                        lead):
        frames = rng.normal(size=(*lead, n_frames, length))
        full = (n_frames - 1) * hop + length
        out_len = full + extra
        got = overlap_add(frames, hop, out_len)
        assert got.shape == (*lead, out_len)
        rows = int(np.prod(lead))
        for row, row_frames in zip(got.reshape(rows, out_len),
                                   frames.reshape(rows, n_frames, length)):
            naive = np.zeros(max(full, out_len))
            for t in range(n_frames):
                naive[t * hop : t * hop + length] += row_frames[t]
            np.testing.assert_array_equal(row, naive[:out_len])

    @pytest.mark.parametrize("length,hop,n_frames,extra,lead", STACKED)
    def test_frame_and_overlap_add_are_adjoint(self, rng, length, hop, n_frames, extra, lead):
        out_len = (n_frames - 1) * hop + length + extra
        x = rng.normal(size=(*lead, out_len))
        f = rng.normal(size=(*lead, n_frames, length))
        framed = frame(x, length, hop, n_frames)
        assert framed.shape == (*lead, n_frames, length) and not framed.flags.writeable
        lhs = float((framed * f).sum())
        rhs = float((x * overlap_add(f, hop, out_len)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestTrainingPairs:
    def _pools(self, rng, n=6, length=32):
        voices = [rng.uniform(-1, 1, length) for _ in range(n)]
        accomps = [rng.uniform(-1, 1, length) for _ in range(n)]
        return voices, accomps

    def test_deterministic_replay(self, rng):
        voices, accomps = self._pools(rng)
        first = list(make_training_pairs(voices, accomps, 7, 1e-4))
        second = list(make_training_pairs(voices, accomps, 7, 1e-4))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.noisy_voice, b.noisy_voice)
            np.testing.assert_array_equal(a.mixture, b.mixture)

    def test_zero_noise_degenerates(self, rng):
        voices, accomps = self._pools(rng)
        for pair in make_training_pairs(voices, accomps, 0, 0.0):
            np.testing.assert_array_equal(pair.noisy_voice, pair.voice)

    def test_silent_accompaniment(self, rng):
        voices, _ = self._pools(rng)
        silent = [np.zeros(32)]
        for pair in make_training_pairs(voices, silent, 0, 1e-4):
            np.testing.assert_array_equal(pair.mixture, pair.voice)

    def test_mixture_is_pure_addition(self, rng):
        voices, accomps = self._pools(rng)
        for pair in make_training_pairs(voices, accomps, 3, 1e-4):
            # the voice plus some accompaniment segment reproduces the mixture
            # bit for bit: no clipping or renormalization happened
            assert any(np.array_equal(pair.mixture, pair.voice + s) for s in accomps)

    def test_one_pair_per_voice_segment(self, rng):
        voices, accomps = self._pools(rng, n=5)
        assert len(list(make_training_pairs(voices, accomps[:2], 0, 1e-4))) == 5

    def test_mismatched_length_rejected(self, rng):
        with pytest.raises(ValueError):
            list(make_training_pairs([np.zeros(32)], [np.zeros(31)], 0, 1e-4))

    @pytest.mark.parametrize("voices", [
        [np.zeros(32), np.zeros(31), np.zeros(32)],
        [np.zeros(32), np.zeros(32), np.zeros(33)],
        [np.zeros(31), np.zeros(32), np.zeros(32)],
        [np.zeros((2, 16))],
    ])
    def test_mixed_segment_lengths_rejected(self, voices):
        # the length is read from the first voice segment; a pool that holds
        # any other shape is refused before a pair is made
        with pytest.raises(ValueError, match="segment of shape"):
            next(make_training_pairs(voices, [np.zeros(np.size(voices[0]))], 0, 1e-4))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            list(make_training_pairs([], [np.zeros(32)], 0, 1e-4))


def test_corruption_config_validation():
    # a negative noise level is refused when the first pair is drawn
    with pytest.raises(ValueError):
        next(make_training_pairs([np.zeros(32)], [np.zeros(32)], 0, -1.0))
