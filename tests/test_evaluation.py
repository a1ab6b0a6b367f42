import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waverep.dataset import ENERGY_BLOCK, SAMPLE_RATE
from waverep.decoder import DecoderParameters
from waverep.encoder import EncoderParameters, encode, encode_values, init_encoder
from waverep.errors import DataError, NumericalError
from waverep.evaluation import (
    SEGMENT_LEN,
    additivity,
    binary_mask,
    evaluate,
    istft,
    mixture_and_sources,
    oracle_separate,
    si_sdr,
    stft,
    w_do,
)


class TestSiSdr:
    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            si_sdr(np.ones(5), np.ones(4))

    def test_scaled_estimate_hits_cap(self, rng):
        x = rng.uniform(-1, 1, 100)
        assert si_sdr(x, 2.0 * x) == 120.0

    def test_sign_flip_hits_cap(self, rng):
        x = rng.uniform(-1, 1, 100)
        assert si_sdr(x, -x) == 120.0

    def test_orthogonal_noise_at_equal_energy_is_zero_db(self):
        ref = np.array([1.0, 0.0])
        est = np.array([1.0, 1.0])  # ref + e, e orthogonal with ||e|| = ||ref||
        assert si_sdr(ref, est) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self, rng):
        ref = rng.uniform(-1, 1, 200)
        est = ref + 0.1 * rng.normal(size=200)
        base = si_sdr(ref, est)
        for a in (0.1, 3.0, 117.0):
            assert abs(si_sdr(ref, a * est) - base) < 1e-9

    def test_silent_estimate_scores_floor(self, rng):
        # a mask that silences everything must not score as perfect separation
        assert si_sdr(rng.uniform(-1, 1, 100), np.zeros(100)) == -120.0

    def test_orthogonal_estimate_scores_floor(self):
        assert si_sdr(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == -120.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            si_sdr(np.zeros(5), np.ones(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_estimate_raises_instead_of_scoring_the_cap(self, rng, bad):
        x = rng.uniform(-1, 1, 100)
        est = x.copy()
        est[3] = bad
        with pytest.raises(NumericalError, match="not finite"):
            si_sdr(x, est)

    def test_overflowing_energies_raise_instead_of_scoring_the_cap(self, rng):
        # a finite estimate whose energies overflow would give inf/inf = NaN,
        # which min(cap, NaN) turns into the cap
        x = rng.uniform(-1, 1, 100)
        with pytest.raises(NumericalError, match="not finite"):
            si_sdr(x, 1e160 * rng.normal(size=100))

    @pytest.mark.parametrize("n", [SEGMENT_LEN, ENERGY_BLOCK])
    def test_one_block_is_the_single_pass_formula_bit_for_bit(self, rng, n):
        # an evaluate segment is one block, so its scores keep their digits
        assert SEGMENT_LEN <= ENERGY_BLOCK
        ref = rng.uniform(-1, 1, n)
        est = ref + 0.3 * rng.normal(size=n)
        target = float(est @ ref) / float(ref @ ref) * ref
        resid = target - est
        assert si_sdr(ref, est) == 10.0 * math.log10(float(target @ target) / float(resid @ resid))

    def test_long_estimate_sums_blocks(self, rng):
        # a float32 estimate of 16 blocks: no signal-length float64 copy or
        # temporary (each would be 8 MiB), and the single-pass value to rounding
        n = 16 * ENERGY_BLOCK
        ref = rng.uniform(-1, 1, n)
        est = (ref + 0.3 * rng.normal(size=n)).astype(np.float32)
        tracemalloc.start()
        try:
            got = si_sdr(ref, est)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * ENERGY_BLOCK * 8
        e = est.astype(np.float64)
        target = float(e @ ref) / float(ref @ ref) * ref
        resid = target - e
        assert got == pytest.approx(10.0 * math.log10((target @ target) / (resid @ resid)),
                                    rel=1e-12)


class TestBinaryMask:
    def test_equal_positive_representations_keep_everything(self, rng):
        a = np.abs(rng.normal(size=(3, 4))) + 0.1
        assert np.all(binary_mask(a, a) == 1.0)

    def test_zero_target_drops_everything(self, rng):
        a = np.abs(rng.normal(size=(3, 4))) + 0.1
        assert np.all(binary_mask(np.zeros((3, 4)), a) == 0.0)

    def test_both_zero_keeps_cell(self):
        assert binary_mask(np.zeros((1, 1)), np.zeros((1, 1)))[0, 0] == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            binary_mask(np.ones((2, 3)), np.ones((3, 2)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_idempotent(self, seed):
        r = np.random.default_rng(seed)
        a_v = np.abs(r.normal(size=(3, 5)))
        a_ac = np.abs(r.normal(size=(3, 5)))
        mask = binary_mask(a_v, a_ac)
        np.testing.assert_array_equal(mask * (mask * a_v), mask * a_v)
        np.testing.assert_array_equal(binary_mask(mask * a_v, a_ac) * mask, binary_mask(mask * a_v, a_ac))


def _impulse_codec():
    """Linear-mode codec whose components pick alternating samples: component
    0 reads/writes even offsets, component 1 odd offsets."""
    enc = EncoderParameters(
        kernels=np.array([[1.0, 0.0], [0.0, 1.0]]),
        dilated_kernels=np.zeros((2, 1, 2)),
        stride=2,
        dilation=1,
    )
    dec = DecoderParameters(
        freq=np.zeros(2),
        phase=np.zeros(2),
        modulator=np.array([[1.0, 0.0], [0.0, 1.0]]),
        stride=2,
        square_freq=True,
    )
    return enc, dec


def _encode(enc, *signals, linear=False):
    return [encode_values(x, enc, linear=linear) for x in signals]


class TestOracleSeparate:
    def test_all_ones_mask_is_plain_decode(self, rng):
        enc = init_encoder(4, 8, 2, 4, 2, seed=0)
        from waverep.decoder import init_decoder, decode_values
        dec = init_decoder(4, 8, 4)
        x_v = rng.uniform(-1, 1, 32)
        x_ac = np.zeros(32)  # encodes to zero -> ratio comparison keeps all cells
        out = decode_values(oracle_separate(*_encode(enc, x_v + x_ac, x_v, x_ac)), dec, 32)
        a_m = encode_values(x_v, enc)
        np.testing.assert_array_equal(out, decode_values(a_m, dec, 32))

    def test_all_zeros_mask_silences(self, rng):
        enc = init_encoder(4, 8, 2, 4, 2, seed=0)
        from waverep.decoder import init_decoder, decode_values
        dec = init_decoder(4, 8, 4)
        x_ac = rng.uniform(0.5, 1, 32)
        out = decode_values(oracle_separate(*_encode(enc, x_ac, np.zeros(32), x_ac)), dec, 32)
        # voice encodes to 0 while accomp activations are positive somewhere;
        # masked cells are exactly the (0 >= 0.5*positive) = kept-only-if-both-zero set
        a_ac = encode_values(x_ac, enc)
        assert np.any(a_ac > 0)
        np.testing.assert_allclose(out[np.abs(out) > 1e-12], 0, atol=1e-12)

    def test_disjoint_sources_masking_beats_plain_decode(self):
        # disjoint-support toy: voice lives on even samples, accomp on odd
        enc, dec = _impulse_codec()
        rng = np.random.default_rng(0)
        x_v = np.zeros(16)
        x_v[::2] = rng.uniform(0.5, 1.0, 8)
        x_ac = np.zeros(16)
        x_ac[1::2] = rng.uniform(0.5, 1.0, 8)
        x_m = x_v + x_ac
        from waverep.decoder import decode_values
        masked = decode_values(oracle_separate(*_encode(enc, x_m, x_v, x_ac, linear=True)), dec, 16)
        a_m = encode_values(x_m, enc, linear=True)
        plain = decode_values(a_m, dec, 16)
        assert si_sdr(x_v, masked) > si_sdr(x_v, plain)
        assert si_sdr(x_v, masked) == 120.0  # exact recovery on disjoint supports


class TestAdditivity:
    def test_linear_encoder_is_perfectly_additive(self, rng):
        enc = init_encoder(5, 8, 2, 4, 3, seed=1)
        for _ in range(5):
            x_v = rng.uniform(-1, 1, 50)
            x_ac = rng.uniform(-1, 1, 50)
            value = additivity(*_encode(enc, x_v + x_ac, x_v, x_ac, linear=True))
            assert value == pytest.approx(1.0, abs=1e-6)

    def test_all_silent_inputs(self):
        enc = init_encoder(3, 4, 2, 2, 2, seed=0)
        z = np.zeros(16)
        assert additivity(*_encode(enc, z, z, z)) == 1.0

    def test_constructed_double_count_gives_zero(self, rng):
        # sources identical to the mixture: E(v) + E(ac) = 2 E(m) in linear mode
        enc = init_encoder(3, 4, 2, 2, 2, seed=0)
        x = rng.uniform(-1, 1, 20)
        assert additivity(*_encode(enc, x, x, x, linear=True)) == pytest.approx(0.0, abs=1e-9)

    def test_never_exceeds_one(self, rng):
        enc = init_encoder(4, 8, 2, 4, 2, seed=3)
        for _ in range(10):
            x_v = rng.uniform(-1, 1, 40)
            x_ac = rng.uniform(-1, 1, 40)
            assert additivity(*_encode(enc, x_v + x_ac, x_v, x_ac)) <= 1.0


class TestMixtureFromSources:
    """The mixture's representation is composed from its sources' analyses:
    the encoder is linear up to its final ReLU, and the STFT is linear."""

    def test_encoder_mixture_from_source_preactivations(self, rng):
        from waverep import synth
        # the paper configuration (C=800, L=2048, stride 256, L2=5, dilation 10), 1 s
        enc = init_encoder(800, 2048, 5, 256, 10, seed=0)
        x_v, x_ac = synth.voice_stem(rng, SAMPLE_RATE), synth.accomp_stem(rng, SAMPLE_RATE)
        stack = np.stack([x_v, x_ac])
        z_m, z_v, z_ac = mixture_and_sources(*np.split(encode(stack, enc, linear=True).value, 2, axis=1))
        # the sources' ReLU is the encoder's own, bit for bit
        np.testing.assert_array_equal(np.concatenate([z_v, z_ac], axis=1), encode(stack, enc).value,
                                      strict=True)
        ref_m = encode(x_v + x_ac, enc).value
        assert np.any(ref_m > 0) and np.any(ref_m == 0)
        assert np.max(np.abs(z_m - ref_m)) <= 1e-12 * np.max(np.abs(ref_m))

    def test_stft_of_mixture_is_sum_of_source_stfts(self, rng):
        x_v, x_ac = rng.uniform(-1, 1, (2, SAMPLE_RATE))
        ref = stft(x_v + x_ac)
        assert np.max(np.abs(stft(x_v) + stft(x_ac) - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestWdo:
    def test_disjoint_supports(self):
        y = np.array([[1.0, 0.0], [2.0, 0.0]])
        z = np.array([[0.0, 3.0], [0.0, 1.0]])
        wdo, psr, sir = w_do(y, z)
        assert (wdo, psr, sir) == (1.0, 1.0, math.inf)

    def test_identical_magnitudes(self, rng):
        y = np.abs(rng.normal(size=(3, 4))) + 0.1
        wdo, psr, sir = w_do(y, y)
        assert psr == pytest.approx(1.0)
        assert sir == pytest.approx(1.0)
        assert wdo == pytest.approx(0.0, abs=1e-12)

    def test_zero_interferer(self, rng):
        y = np.abs(rng.normal(size=(3, 4))) + 0.1
        wdo, psr, sir = w_do(y, np.zeros((3, 4)))
        assert sir == math.inf
        assert wdo == psr == pytest.approx(1.0)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            w_do(np.zeros((2, 2)), np.ones((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            w_do(np.ones((2, 3)), np.ones((2, 4)))

    @pytest.mark.parametrize("target, interf", [(1e200, 1.0), (1e200, 1e200), (np.inf, 1.0),
                                                (1e307, 1e307)])
    def test_overflowing_norms_raise(self, target, interf):
        # finite representations whose squared L1 norms overflow, and infinite ones
        with pytest.raises(NumericalError, match="squared L1 norms are not finite"):
            w_do(np.full((2, 3), target), np.full((2, 3), interf))

    def test_range_properties(self, rng):
        for _ in range(30):
            y = np.abs(rng.normal(size=(4, 6)))
            z = np.abs(rng.normal(size=(4, 6)))
            if y.sum() == 0:
                continue
            wdo, psr, sir = w_do(y, z)
            assert psr <= 1.0 + 1e-12
            assert wdo <= psr + 1e-12
            if sir >= 1.0:
                assert -1e-12 <= wdo <= 1.0 + 1e-12


class TestStft:
    def test_zero_roundtrip(self):
        spec = stft(np.zeros(10000))
        assert spec.shape[0] == 1025
        assert np.all(spec == 0)
        assert np.all(istft(spec, 10000) == 0)

    def test_sinusoid_concentrates_at_its_bin(self):
        bin_idx = 100
        f = bin_idx * SAMPLE_RATE / 2048  # exactly at a bin center
        t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
        spec = stft(np.sin(2 * np.pi * f * t))
        mags = np.abs(spec[:, 40])
        assert int(np.argmax(mags)) == bin_idx

    def test_random_roundtrip_over_40db(self, rng):
        x = rng.uniform(-1, 1, SAMPLE_RATE)
        y = istft(stft(x), len(x))
        interior = slice(2048, SAMPLE_RATE - 2048)
        assert si_sdr(x[interior], y[interior]) > 40.0


class TestEvaluate:
    def _disjoint_band_track(self):
        t = np.arange(2 * SAMPLE_RATE) / SAMPLE_RATE
        voice = 0.4 * np.sin(2 * np.pi * 500 * t) + 0.25 * np.sin(2 * np.pi * 900 * t)
        accomp = 0.4 * np.sin(2 * np.pi * 6000 * t) + 0.3 * np.sin(2 * np.pi * 9000 * t)
        return "disjoint", voice, accomp

    def test_single_active_segment_single_row(self):
        voice = np.zeros(2 * SAMPLE_RATE)
        voice[:SAMPLE_RATE] = 0.3 * np.sin(2 * np.pi * 440 * np.arange(SAMPLE_RATE) / SAMPLE_RATE)
        accomp = 0.1 * np.sin(2 * np.pi * 3000 * np.arange(2 * SAMPLE_RATE) / SAMPLE_RATE)
        report = evaluate([("one", voice, accomp)])
        assert len(report.rows) == 1
        assert report.rows[0].segment == 0

    def test_stft_baseline_on_disjoint_bands(self):
        report = evaluate([self._disjoint_band_track()])
        for row in report.rows:
            assert row.si_sdr_bm > 20.0
            assert row.si_sdr > 40.0  # analysis/synthesis round trip

    def test_aggregate_median_recomputes(self):
        report = evaluate([self._disjoint_band_track()])
        med = report.aggregates()["si_sdr_bm"]["median"]
        assert med == float(np.median([r.si_sdr_bm for r in report.rows]))

    def test_learned_codec_path(self, rng):
        from waverep.decoder import init_decoder
        enc = init_encoder(8, 64, 2, 64, 2, seed=0)
        dec = init_decoder(8, 64, 64)
        voice = 0.3 * np.sin(2 * np.pi * 300 * np.arange(SAMPLE_RATE) / SAMPLE_RATE)
        accomp = 0.2 * rng.normal(size=SAMPLE_RATE)
        report = evaluate([("t", voice, accomp)], enc, dec)
        assert len(report.rows) == 1
        assert np.isfinite(report.rows[0].si_sdr)

    def test_learned_codec_row_is_composed_from_the_parts(self, rng):
        from waverep.decoder import decode_values, init_decoder
        from waverep.evaluation import SegmentMetrics
        enc = init_encoder(8, 64, 2, 64, 2, seed=0)
        dec = init_decoder(8, 64, 64)
        voice = 0.3 * np.sin(2 * np.pi * 300 * np.arange(SAMPLE_RATE) / SAMPLE_RATE)
        accomp = 0.2 * rng.normal(size=SAMPLE_RATE)
        # the mixture's representation is the ReLU of its sources' summed
        # pre-activations; the sources' are their plain encodings
        p_v, p_ac = _encode(enc, voice, accomp, linear=True)
        z_m = np.where(p_v + p_ac > 0, p_v + p_ac, 0.0)
        z_v, z_ac = _encode(enc, voice, accomp)
        wdo, psr, sir = w_do(z_v, z_ac)
        expected = SegmentMetrics(
            track="t",
            segment=0,
            si_sdr=si_sdr(voice, decode_values(z_v, dec, SAMPLE_RATE)),
            si_sdr_bm=si_sdr(voice, decode_values(binary_mask(z_v, z_ac) * z_m, dec, SAMPLE_RATE)),
            additivity=additivity(z_m, z_v, z_ac),
            w_do=wdo,
            psr=psr,
            sir=sir,
        )
        assert evaluate([("t", voice, accomp)], enc, dec).rows == [expected]

    def test_each_signal_encoded_once_and_kernels_built_once(self, rng, monkeypatch):
        import waverep.decoder
        import waverep.evaluation
        from waverep.decoder import init_decoder
        encoded, synthesized, built = [], [], []
        real_encode, real_build = waverep.evaluation.encode, waverep.decoder.build_kernels
        real_synthesize = waverep.evaluation.synthesize

        def encode(x, *args, **kwargs):
            encoded.append(np.shape(x))
            return real_encode(x, *args, **kwargs)

        def synthesize(*args, **kwargs):
            synthesized.append(kwargs["signals"])
            return real_synthesize(*args, **kwargs)

        def build_kernels(*args, **kwargs):
            built.append(1)
            return real_build(*args, **kwargs)

        # each active segment's voice and accompaniment go through one stacked
        # encode (the mixture is composed from them), and both voice estimates
        # through one stacked synthesis
        monkeypatch.setattr(waverep.evaluation, "encode", encode)
        monkeypatch.setattr(waverep.evaluation, "synthesize", synthesize)
        monkeypatch.setattr(waverep.decoder, "build_kernels", build_kernels)
        enc = init_encoder(8, 64, 2, 64, 2, seed=0)
        dec = init_decoder(8, 64, 64)
        voice = 0.3 * np.sin(2 * np.pi * 300 * np.arange(3 * SAMPLE_RATE) / SAMPLE_RATE)
        voice[SAMPLE_RATE : 2 * SAMPLE_RATE] = 0.0  # the middle segment is silent
        accomp = 0.2 * rng.normal(size=3 * SAMPLE_RATE)
        report = evaluate([("t", voice, accomp)], enc, dec)
        assert [r.segment for r in report.rows] == [0, 2]
        assert encoded == [(2, SAMPLE_RATE)] * 2
        assert synthesized == [2, 2]
        assert len(built) == 1

    @pytest.mark.parametrize("half", ["enc", "dec"])
    def test_one_half_of_the_model_rejected(self, monkeypatch, half):
        # no silent fallback to the STFT baseline, and nothing is analysed
        import waverep.evaluation
        from waverep.decoder import init_decoder
        model = {"enc": init_encoder(8, 64, 2, 64, 2, seed=0), "dec": init_decoder(8, 64, 64)}
        monkeypatch.setattr(waverep.evaluation, "active_segments",
                            lambda tracks: pytest.fail("a segment was read"))
        with pytest.raises(ValueError, match="both the encoder and the decoder, or neither"):
            evaluate([self._disjoint_band_track()], **{half: model[half]})

    @pytest.mark.parametrize("stride, kernel_len, match", [(32, 64, "stride"), (64, 32, "shapes")])
    def test_mismatched_pair_rejected(self, rng, stride, kernel_len, match):
        from waverep.decoder import init_decoder
        enc = init_encoder(8, 64, 2, 64, 2, seed=0)
        voice = 0.3 * np.sin(2 * np.pi * 300 * np.arange(SAMPLE_RATE) / SAMPLE_RATE)
        with pytest.raises(ValueError, match=match):
            evaluate([("t", voice, 0.2 * rng.normal(size=SAMPLE_RATE))], enc,
                     init_decoder(8, kernel_len, stride))

    @pytest.mark.parametrize("model, message", [
        ("kernel-1e200", "w_do: the representations' squared L1 norms are not finite"),
        ("kernels-1e308", "t, segment 0: the representations are not finite"),
        ("modulator-1e40", None),
    ])
    def test_float64_overflow_paths_are_typed_and_silent(self, rng, model, message):
        # With float64 parameters, kernel-1e200 overflows the W-DO norms,
        # kernels-1e308 the encoder, and modulator-1e40 (2.5e38 at C=8, L=32)
        # scores normally; no numpy warning either way.  The CLI casts all
        # three to float32: TestExitCodes in test_cli.
        from waverep.decoder import init_decoder
        enc, dec = init_encoder(8, 32, 2, 16, 2, seed=0), init_decoder(8, 32, 16)
        if model == "kernel-1e200":
            enc.kernels[0, 0] = 1e200
        elif model == "kernels-1e308":
            enc.kernels[0] = 1e308
        else:
            dec.modulator *= 1e40
        voice = 0.3 * np.sin(2 * np.pi * 300 * np.arange(SAMPLE_RATE) / SAMPLE_RATE)
        tracks = [("t", voice, 0.2 * rng.normal(size=SAMPLE_RATE))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if message is None:
                (row,) = evaluate(tracks, enc, dec).rows
                assert all(math.isfinite(v) for v in row[2:])
            else:
                with pytest.raises(NumericalError, match=message):
                    evaluate(tracks, enc, dec)

    def test_float32_parameters_run_in_float32(self, rng, monkeypatch):
        # the model path keeps its parameters' dtype: the kernels are cast once,
        # and the representations and the voice estimates are float32
        import waverep.evaluation
        from waverep.decoder import init_decoder
        seen = []
        real_w_do, real_si_sdr = waverep.evaluation.w_do, waverep.evaluation.si_sdr
        monkeypatch.setattr(waverep.evaluation, "w_do",
                            lambda a, b: seen.append(a.dtype) or real_w_do(a, b))
        monkeypatch.setattr(waverep.evaluation, "si_sdr",
                            lambda x, y: seen.append(y.dtype) or real_si_sdr(x, y))
        enc, dec = init_encoder(8, 64, 2, 64, 2, seed=0), init_decoder(8, 64, 64)
        voice = 0.3 * np.sin(2 * np.pi * 300 * np.arange(SAMPLE_RATE) / SAMPLE_RATE)
        tracks = [("t", voice, 0.2 * rng.normal(size=SAMPLE_RATE))]
        ref = evaluate(tracks, enc, dec).rows
        assert seen == [np.float64] * 3
        seen.clear()
        enc.kernels, enc.dilated_kernels, dec.modulator = (
            a.astype(np.float32) for a in (enc.kernels, enc.dilated_kernels, dec.modulator))
        (got,) = evaluate(tracks, enc, dec).rows
        assert seen == [np.float32] * 3
        assert got != ref[0]
        for name in ("si_sdr", "si_sdr_bm"):
            assert getattr(got, name) == pytest.approx(getattr(ref[0], name), abs=1e-4)
        for name in ("additivity", "w_do", "psr"):
            assert getattr(got, name) == pytest.approx(getattr(ref[0], name), abs=1e-6)
        assert got.sir == pytest.approx(ref[0].sir, rel=1e-5)

    def test_all_silent_rejected(self):
        with pytest.raises(DataError, match="active"):
            evaluate([("t", np.zeros(SAMPLE_RATE), np.zeros(SAMPLE_RATE))])

    def test_csv_export(self):
        report = evaluate([self._disjoint_band_track()])
        lines = report.to_csv().splitlines()
        assert lines[0] == "track,segment,si_sdr,si_sdr_bm,additivity,w_do,psr,sir"
        assert len(lines) == len(report.rows) + 1
        assert "segments evaluated" in report.summary()
