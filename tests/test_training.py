import dataclasses
import inspect
import json
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

import waverep.decoder
import waverep.losses
import waverep.training
from waverep import synth
from waverep.autodiff import Node, Tape
from waverep.checkpoint import load_arrays, load_model, save_arrays, save_model
from waverep.dataset import SAMPLE_RATE, TrainingPair, make_training_pairs
from waverep.decoder import (MODEL_ARRAYS, DecoderParameters, build_kernels, cast_pair,
                             init_decoder, kernel_matrix, model_arrays, replace_arrays, synthesize)
from waverep.encoder import encode, init_encoder
from waverep.errors import CheckpointError, NumericalError
from waverep.losses import LossConfig, total_loss
from waverep.training import TrainConfig, adam_step, batch_gradients, init_adam, train


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = init_adam(params, lr=0.1)
        adam_step(params, {"w": np.zeros(3)}, state)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0, 3.0])
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self, rng):
        g = rng.normal(size=10) * 50.0
        params = {"w": np.zeros(10)}
        state = init_adam(params, lr=1e-3)
        adam_step(params, {"w": g.copy()}, state)
        # bias-corrected first step is lr * g / (|g| + eps) = lr * sign(g)
        np.testing.assert_allclose(params["w"], -1e-3 * np.sign(g), rtol=1e-6)

    def test_deterministic_trajectories(self, rng):
        grads = [rng.normal(size=(3, 4)) for _ in range(5)]
        runs = []
        for _ in range(2):
            params = {"w": np.ones((3, 4))}
            state = init_adam(params, lr=0.01)
            for g in grads:
                adam_step(params, {"w": g}, state)
            runs.append(params["w"].copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_nonfinite_gradient_aborts(self):
        params = {"w": np.zeros(2)}
        state = init_adam(params, lr=1e-4)
        with pytest.raises(NumericalError, match="w"):
            adam_step(params, {"w": np.array([1.0, np.nan])}, state)

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(2)}
        state = init_adam(params, lr=1e-4)
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(3)}, state)

    @pytest.mark.parametrize("bad", ["nan", "shape", "huge"])
    def test_bad_last_gradient_changes_nothing(self, rng, bad):
        # every gradient is checked before any array or the step count moves
        enc, dec = _toy_model()
        params = model_arrays(enc, dec)
        state = init_adam(params, lr=1e-3)
        adam_step(params, {name: rng.normal(size=p.shape) for name, p in params.items()}, state)
        grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
        assert list(grads)[-1] == "modulator"
        if bad == "nan":
            grads["modulator"][0, 0] = np.nan
        elif bad == "huge":
            # finite, but its square overflows float32's second moment
            grads["modulator"][0, 0] = -1e20
        else:
            grads["modulator"] = grads["modulator"][:, 1:]
        before = [{name: a.copy() for name, a in d.items()} for d in (params, state.m, state.v)]
        error = ValueError if bad == "shape" else NumericalError
        with pytest.raises(error, match="modulator.*step 2" if error is NumericalError else "modulator"):
            adam_step(params, grads, state)
        assert state.step == 1
        for saved, now in zip(before, (params, state.m, state.v)):
            for name in saved:
                np.testing.assert_array_equal(now[name], saved[name], strict=True)

    @pytest.mark.parametrize("g", [1e19, -1e19])
    def test_gradient_at_the_bound_keeps_the_moments_finite(self, g):
        # the largest gradient adam_step takes: its float32 moments stay
        # finite, and each step moves the weight by lr, as for any other
        params = {"w": np.zeros(2)}
        state = init_adam(params, lr=1e-3)
        assert abs(g) == waverep.training.ADAM_GRAD_MAX
        for _ in range(3):
            adam_step(params, {"w": np.array([g, 1.0])}, state)
            assert np.isfinite(state.m["w"]).all() and np.isfinite(state.v["w"]).all()
        np.testing.assert_allclose(params["w"], [-3e-3 * np.sign(g), -3e-3], rtol=1e-5)

    def test_refusal_check_makes_no_full_size_copy(self, rng):
        # the paper-scale dilated-kernel gradient: testing |g| against the
        # bound through np.abs(g) made a 12.2 MiB copy, all of the step's peak
        params = {"w": np.zeros((800, 5, 800))}
        grads = {"w": rng.normal(size=params["w"].shape).astype(np.float32)}
        state = init_adam(params, lr=1e-3)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            adam_step(params, grads, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.step == 1
        assert peak - entry < 2 * 2**20, (peak - entry) / 2**20

    def test_moments_take_four_bytes_per_parameter(self):
        enc, dec = _toy_model()
        params = model_arrays(enc, dec)
        state = init_adam(params, lr=1e-3)
        n = sum(p.size for p in params.values())
        for moments in (state.m, state.v):
            assert all(a.dtype == np.float32 and a.shape == params[name].shape
                       for name, a in moments.items())
            assert sum(a.nbytes for a in moments.values()) == 4 * n

    @pytest.mark.parametrize("grad_dtype", [np.float64, np.float32])
    def test_blocked_update_matches_the_unblocked_expressions(self, rng, grad_dtype):
        # arrays of several blocks plus a partial one, rows that do not divide
        # a block, a single block and a 0-d parameter: the blocked update is
        # the whole-array update, bit for bit, over several steps
        block = waverep.training.ADAM_BLOCK
        shapes = {"rows": (37, 3000), "flat": (3 * block + 123,), "cube": (9, 5, 1000),
                  "small": (4, 6), "scalar": ()}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        ref = {name: p.copy() for name, p in params.items()}
        state, m, v = init_adam(params, lr=1e-2), {}, {}
        for name, p in ref.items():
            m[name], v[name] = np.zeros(p.shape, np.float32), np.zeros(p.shape, np.float32)
        for step in range(1, 4):
            grads = {name: rng.normal(size=shape).astype(grad_dtype)
                     for name, shape in shapes.items()}
            adam_step(params, grads, state)
            bc1, bc2 = 1.0 - 0.9 ** step, 1.0 - 0.999 ** step
            for name, p in ref.items():
                # float32 moments and normalized step; the learning rate and
                # the parameter update in float64
                g = np.asarray(grads[name], dtype=np.float32)
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * g * g
                normalized = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + 1e-8)
                assert normalized.dtype == np.float32
                p -= normalized.astype(np.float64) * 1e-2
        for name in shapes:
            for got, want in ((params, ref), (state.m, m), (state.v, v)):
                np.testing.assert_array_equal(got[name], want[name], strict=True)


def _toy_problem(rng, n_segments=6, seg_len=256):
    t = np.arange(seg_len) / seg_len
    voices = [
        0.4 * np.sin(2 * np.pi * rng.uniform(3, 9) * t + rng.uniform(0, 6))
        for _ in range(n_segments)
    ]
    accomps = [0.2 * rng.normal(size=seg_len) for _ in range(n_segments)]
    return voices, accomps


def _toy_model(seed=0):
    enc = init_encoder(6, 16, 2, 8, 2, seed=seed)
    dec = init_decoder(6, 16, 8)
    return enc, dec


class TestTrainLoop:
    def test_smoke_loss_decreases(self, rng):
        voices, accomps = _toy_problem(rng)
        enc, dec = _toy_model()
        cfg = TrainConfig(batch_size=3, epochs=3, variant="tv",
                          loss=LossConfig(omega=0.0), seed=0, early_stop=False, lr=3e-3)
        result = train(voices, accomps, enc, dec, cfg)
        assert result.epochs_run == 3
        assert result.epoch_mean_neg_snr[-1] < result.epoch_mean_neg_snr[0]

    def test_plateau_early_stops_after_second_epoch(self, rng):
        voices, accomps = _toy_problem(rng)
        enc, dec = _toy_model()
        cfg = TrainConfig(batch_size=3, epochs=6, variant="tv", seed=0,
                          early_stop=True, lr=0.0)  # lr=0: guaranteed plateau
        result = train(voices, accomps, enc, dec, cfg)
        assert result.early_stopped
        assert result.epochs_run == 2

    def test_fixed_seed_identical_checkpoints(self, rng, tmp_path):
        voices, accomps = _toy_problem(rng)
        paths = []
        for run in range(2):
            enc, dec = _toy_model(seed=4)
            cfg = TrainConfig(batch_size=2, epochs=2, variant="sinkhorn",
                              loss=LossConfig(omega=0.3, lam=1.0), seed=11, lr=1e-3)
            path = tmp_path / f"ckpt{run}.bin"
            train(voices, accomps, enc, dec, cfg, checkpoint_path=path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_log_records_are_json_lines(self, rng, tmp_path):
        voices, accomps = _toy_problem(rng)
        enc, dec = _toy_model()
        log = tmp_path / "log.jsonl"
        cfg = TrainConfig(batch_size=4, epochs=1, variant="tv", seed=0, lr=1e-3)
        result = train(voices, accomps, enc, dec, cfg, log_path=log)
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(records) == len(result.history)
        for rec in records:
            assert set(rec) == {"step", "epoch", "neg_snr", "rep_loss", "total", "saturation"}

    def test_record_saturation_is_the_largest_of_the_step(self, rng, monkeypatch):
        # each record's saturation is the largest share of underflowed Gibbs-kernel
        # entries over its step's items, and 0 for the TV term
        steps = []
        real = waverep.training.batch_gradients

        def keeping(*args, **kwargs):
            grads, breakdowns = real(*args, **kwargs)
            steps.append(breakdowns)
            return grads, breakdowns

        monkeypatch.setattr(waverep.training, "batch_gradients", keeping)
        voices, accomps = _toy_problem(rng)
        for variant in ("tv", "sinkhorn"):
            steps.clear()
            enc, dec = _toy_model()
            cfg = TrainConfig(batch_size=4, epochs=2, variant=variant, loss=LossConfig(lam=5000.0),
                              seed=0, early_stop=False, lr=1e-3)
            history = train(voices, accomps, enc, dec, cfg).history
            assert len(steps) == len(history) == 4
            saturation = [rec["saturation"] for rec in history]
            if variant == "tv":
                assert saturation == [0.0] * 4
            else:
                assert saturation == [max(b.plan.saturation for b in bds) for bds in steps]
                assert max(saturation) > 0.0

    def test_run_without_a_log_matches_a_logged_run(self, rng, tmp_path):
        voices, accomps = _toy_problem(rng)
        cfg = TrainConfig(batch_size=4, epochs=2, variant="sinkhorn", seed=1, lr=1e-3,
                          early_stop=False)
        results = []
        for name, log_path in (("unlogged", None), ("logged", tmp_path / "log.jsonl")):
            enc, dec = _toy_model(seed=2)
            results.append(train(voices, accomps, enc, dec, cfg, log_path=log_path,
                                 checkpoint_path=tmp_path / f"{name}.bin"))
        assert results[0].history == results[1].history
        assert results[0].epoch_mean_neg_snr == results[1].epoch_mean_neg_snr
        assert (tmp_path / "unlogged.bin").read_bytes() == (tmp_path / "logged.bin").read_bytes()
        logged = [json.loads(line) for line in (tmp_path / "log.jsonl").read_text().splitlines()]
        assert logged == results[1].history

    def test_only_reparameterized_tensors_train(self, rng):
        # the synthesis kernels are never stored or updated directly: the
        # trainable set is exactly the two encoder tensors plus (freq, phase,
        # modulator), and kernels are rebuilt from them once per optimizer step
        enc, dec = _toy_model()
        assert set(model_arrays(enc, dec)) == {
            "kernels", "dilated_kernels", "freq", "phase", "modulator"}
        assert {f.name for f in dataclasses.fields(DecoderParameters)} == {
            "freq", "phase", "modulator", "stride", "square_freq"}

    def test_peak_memory_does_not_grow_with_the_step_count(self, rng):
        # a step must not hold the previous step's gradients: one step of two
        # items and two steps of one item peak alike
        enc, dec = init_encoder(32, 1024, 5, 256, 2, seed=0), init_decoder(32, 1024, 256)
        voices, accomps = _toy_problem(rng, n_segments=2, seg_len=1024)
        grad_bytes = sum(p.nbytes for p in model_arrays(enc, dec).values())
        peaks = []
        for batch_size in (2, 1):
            cfg = TrainConfig(batch_size=batch_size, epochs=1, early_stop=False, lr=0.0)
            tracemalloc.start()
            try:
                train(voices, accomps, enc, dec, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5 * grad_bytes, (peaks, grad_bytes)

    def test_empty_dataset_rejected(self):
        enc, dec = _toy_model()
        with pytest.raises(ValueError):
            train([], [], enc, dec, TrainConfig())


class TestModelArrays:
    """The one declaration of the trained arrays feeds the checkpoint, the
    pair check and the float32 cast."""

    def test_save_model_writes_the_declared_arrays_in_order_then_the_metadata(self, tmp_path):
        enc, dec = _toy_model()
        save_model(tmp_path / "m.bin", enc, dec)
        saved = load_arrays(tmp_path / "m.bin")
        # the checkpoint's array order is its byte layout
        assert list(saved) == [f"{a.owner}/{a.name}" for a in MODEL_ARRAYS] + [
            "meta/stride", "meta/dilation", "meta/square_freq"]
        assert list(saved)[:5] == ["encoder/kernels", "encoder/dilated_kernels",
                                   "decoder/freq", "decoder/phase", "decoder/modulator"]
        for a, arr in zip(MODEL_ARRAYS, model_arrays(enc, dec).values()):
            np.testing.assert_array_equal(saved[f"{a.owner}/{a.name}"], arr, strict=True)

    def test_cast_pair_casts_the_gemm_arrays_and_shares_the_others(self):
        enc, dec = _toy_model()
        enc32, dec32 = cast_pair(enc, dec, np.float32, "test")
        before, after = model_arrays(enc, dec), model_arrays(enc32, dec32)
        assert {a.name for a in MODEL_ARRAYS if a.gemm} == {"kernels", "dilated_kernels", "modulator"}
        for a in MODEL_ARRAYS:
            if a.gemm:
                assert before[a.name].dtype == np.float64
                np.testing.assert_array_equal(after[a.name], before[a.name].astype(np.float32),
                                              strict=True)
            else:
                assert after[a.name] is before[a.name], a.name
        assert (enc32.stride, enc32.dilation, dec32.stride, dec32.square_freq) == (
            enc.stride, enc.dilation, dec.stride, dec.square_freq)

    def test_check_pair_names_each_array_and_its_declared_shape(self):
        enc, dec = _mismatched_pair("kernel-length")
        with pytest.raises(ValueError) as info:
            waverep.decoder.check_pair(enc, dec)
        message = str(info.value)
        assert "decoder/modulator (6, 17) for (C, L)" in message
        assert "encoder/dilated_kernels (6, 2, 6) for (C, L2, C)" in message
        assert "decoder/freq (6,) for (C,)" in message


def _per_item_gradients(pair, enc, dec, cfg):
    """One item's gradients on its own tape, with its own kernels."""
    nodes = {name: Node(arr) for name, arr in model_arrays(enc, dec).items()}
    enc_nodes, _ = replace_arrays(enc, dec, nodes)
    tape = Tape()
    a_v = encode(pair.noisy_voice, enc_nodes, tape)
    w = build_kernels(nodes["freq"], nodes["phase"], nodes["modulator"], dec.square_freq, tape)
    xhat = synthesize(a_v, w, dec.stride, len(pair.voice), tape)
    a_m = encode(pair.mixture, enc_nodes, tape)
    bd = total_loss(pair.voice, xhat, a_m, cfg.loss, cfg.variant, tape)
    tape.backward(bd.total)
    return {name: node.grad for name, node in nodes.items()}, bd


class TestBatchGradients:
    @pytest.mark.parametrize("variant", ["tv", "sinkhorn"])
    def test_step_gradient_is_mean_of_item_gradients(self, rng, variant):
        voices, accomps = _toy_problem(rng, n_segments=3)
        items = list(make_training_pairs(voices, accomps, 2, 1e-4))
        enc, dec = _toy_model(seed=1)
        dec.phase += rng.uniform(-0.5, 0.5, dec.phase.shape)
        cfg = TrainConfig(variant=variant, loss=LossConfig(omega=0.3, lam=1.0))
        grads, breakdowns = batch_gradients(items, enc, dec, cfg)
        singles = [_per_item_gradients(pair, enc, dec, cfg) for pair in items]
        assert len(items) == 3 and set(grads) == set(singles[0][0])
        for name, g in grads.items():
            np.testing.assert_allclose(g, np.mean([s[0][name] for s in singles], axis=0), rtol=1e-12)
        for bd, (_, single) in zip(breakdowns, singles):
            assert (bd.neg_snr_db, bd.rep_loss) == (single.neg_snr_db, single.rep_loss)

    def test_identity_plan_adds_nothing_to_the_gradients(self, rng):
        # once every off-diagonal Gibbs-kernel entry underflows, the plan is the
        # identity, <P, M> is 0 and its backward adds exact zeros: the item's
        # gradients keep their bits whatever the term's weight
        voices, accomps = _toy_problem(rng, n_segments=1)
        items = list(make_training_pairs(voices, accomps, 1, 1e-4))
        model = cast_pair(*_toy_model(), np.float32, "test")
        results = []
        for omega in (1.0, 0.0):
            cfg = TrainConfig(variant="sinkhorn", loss=LossConfig(omega=omega, lam=5e4))
            results.append(batch_gradients(items, *model, cfg))
        (grads, (bd,)), (grads0, _) = results
        t = bd.plan.plan.shape[0]
        assert bd.plan.saturation == (t - 1) / t and bd.rep_loss == 0.0
        for name, g in grads.items():
            assert g.dtype == grads0[name].dtype and g.tobytes() == grads0[name].tobytes(), name

    def test_paper_step_holds_no_full_size_gradient_copies(self, rng):
        # two 1 s items at paper scale on the float32 model: above its entry
        # the step holds its 24.7 MiB of gradients, one item's activations and
        # tape, and the ops' working arrays.  When conv2 zero-filled a whole
        # kernel gradient per item, every first gradient was copied and the
        # kernel backward made a (C, L) float64 product, it peaked at 81.4 MiB;
        # without them, at 62.9 MiB; and with the kernel tape keeping neither
        # the (C, L) phase nor its cosine, at 52.2 MiB
        enc, dec = cast_pair(init_encoder(800, 2048, 5, 256, 10, seed=0),
                             init_decoder(800, 2048, 256), np.float32, "test")
        items = []
        for _ in range(2):
            voice = synth.voice_stem(rng, SAMPLE_RATE)
            items.append(TrainingPair(voice, voice + rng.normal(0, 1e-4, SAMPLE_RATE),
                                      voice + synth.accomp_stem(rng, SAMPLE_RATE)))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            grads, _ = batch_gradients(items, enc, dec, TrainConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(g.nbytes for g in grads.values()) == pytest.approx(24.7 * 2**20, rel=1e-3)
        assert peak - entry < 58 * 2**20, (peak - entry) / 2**20

    def test_train_builds_kernels_once_per_step(self, rng, monkeypatch):
        real = waverep.decoder.build_kernels
        taped = []

        def counting(*args, **kwargs):
            taped.append(inspect.signature(real).bind(*args, **kwargs).arguments.get("tape") is not None)
            return real(*args, **kwargs)

        monkeypatch.setattr(waverep.decoder, "build_kernels", counting)
        monkeypatch.setattr(waverep.training, "build_kernels", counting, raising=False)
        voices, accomps = _toy_problem(rng)
        enc, dec = _toy_model()
        cfg = TrainConfig(batch_size=4, epochs=2, variant="tv", seed=0, early_stop=False, lr=1e-3)
        result = train(voices, accomps, enc, dec, cfg)
        # 6 items per epoch in batches of 4 and 2: 4 optimizer steps in all,
        # plus one forward-only build for the pre-training baseline pass
        assert taped.count(True) == len(result.history) == 4
        assert taped.count(False) == 1

    @pytest.mark.parametrize("variant", ["tv", "sinkhorn"])
    def test_baseline_pass_computes_the_reconstruction_term_only(self, rng, monkeypatch, variant):
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("pairwise_cost", "tv_loss"):
            monkeypatch.setattr(waverep.losses, name, counting(name, getattr(waverep.losses, name)))
        before_first_step = []
        real_batch_gradients = waverep.training.batch_gradients

        def first_step_marker(*args, **kwargs):
            if not before_first_step:
                before_first_step.append(list(calls))
            return real_batch_gradients(*args, **kwargs)

        monkeypatch.setattr(waverep.training, "batch_gradients", first_step_marker)
        voices, accomps = _toy_problem(rng)
        cfg = TrainConfig(batch_size=3, epochs=1, variant=variant, seed=4, early_stop=False)
        enc, dec = _toy_model()
        # the baseline is the mean neg-SNR of the full item loss over epoch 1's
        # items, on the float32 model that the first step computes with
        pairs = make_training_pairs(voices, accomps, waverep.training._epoch_seed(cfg.seed, 1),
                                    cfg.gaussian_std)
        enc32, dec32 = cast_pair(enc, dec, np.float32, "test")
        expected = float(np.mean([
            waverep.training._item_loss(p, enc32, Node(kernel_matrix(dec32)), dec.stride,
                                        cfg).neg_snr_db
            for p in pairs]))
        calls.clear()
        result = train(voices, accomps, enc, dec, cfg)
        assert before_first_step == [[]]
        assert calls  # the optimizer steps do reach the counted terms
        assert result.epoch_mean_neg_snr[0] == expected


def _with_crc(blob: bytearray) -> bytes:
    """``blob`` with its trailing checksum recomputed, so that only the check
    under test can fire."""
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    return bytes(blob)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, rng, tmp_path):
        arrays = {
            "a": rng.normal(size=(3, 4)),
            "b/c": rng.normal(size=7),
            "scalar": np.float64(3.25),
        }
        path = tmp_path / "c.bin"
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        assert list(loaded) == list(arrays)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], np.asarray(arrays[name], dtype=np.float64))

    def test_model_roundtrip_bitwise(self, tmp_path):
        enc, dec = _toy_model(seed=3)
        dec.square_freq = False
        path = tmp_path / "m.bin"
        save_model(path, enc, dec)
        enc2, dec2 = load_model(path)
        np.testing.assert_array_equal(enc.kernels, enc2.kernels)
        np.testing.assert_array_equal(enc.dilated_kernels, enc2.dilated_kernels)
        np.testing.assert_array_equal(dec.modulator, dec2.modulator)
        assert (enc2.stride, enc2.dilation, dec2.square_freq) == (8, 2, False)

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "c.bin"
        save_arrays(path, {"a": np.ones(3)})
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_arrays(path)

    def test_future_version(self, tmp_path):
        path = tmp_path / "c.bin"
        save_arrays(path, {"a": np.ones(3)})
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(_with_crc(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_arrays(path)

    def test_checksum_failure(self, tmp_path):
        path = tmp_path / "c.bin"
        save_arrays(path, {"a": np.ones(3)})
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_arrays(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "c.bin"
        save_arrays(path, {"a": np.ones(3)})
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(CheckpointError):
            load_arrays(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "c.bin"
        save_arrays(path, {"a": np.ones(3)})
        blob = bytearray(path.read_bytes())
        blob[-4 - 8 : -4] = b""  # drop the last float
        path.write_bytes(_with_crc(blob))
        with pytest.raises(CheckpointError, match="truncated array payload"):
            load_arrays(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "c.bin"
        save_arrays(path, {"a": np.ones(3)})
        blob = bytearray(path.read_bytes())
        blob[-4:-4] = b"\0" * 8
        path.write_bytes(_with_crc(blob))
        with pytest.raises(CheckpointError, match="trailing bytes"):
            load_arrays(path)

    def test_load_copies_each_payload_once(self, tmp_path):
        # the file's bytes plus one copy of the array: no copy for the checksum
        path = tmp_path / "c.bin"
        save_arrays(path, {"a": np.arange(1 << 20, dtype=np.float64)})
        size = path.stat().st_size
        tracemalloc.start()
        try:
            arrays = load_arrays(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(arrays["a"], np.arange(1 << 20, dtype=np.float64))
        assert arrays["a"].flags.writeable and arrays["a"].flags.owndata
        assert peak <= 2.1 * size

    def test_load_reads_each_payload_into_its_array(self, tmp_path):
        # the arrays plus the checksum pass's buffer: no copy of the file
        path = tmp_path / "c.bin"
        save_arrays(path, {"a": np.arange(1 << 20, dtype=np.float64), "b": np.ones((3, 5))})
        tracemalloc.start()
        try:
            arrays = load_arrays(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(arrays["a"], np.arange(1 << 20, dtype=np.float64))
        assert peak <= sum(a.nbytes for a in arrays.values()) + (2 << 20)

    def test_save_streams_the_arrays(self, tmp_path):
        path = tmp_path / "c.bin"
        arrays = {"a": np.arange(1 << 20, dtype=np.float64)}  # 8 MiB
        tracemalloc.start()
        try:
            save_arrays(path, arrays)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20
        np.testing.assert_array_equal(load_arrays(path)["a"], arrays["a"])

    def test_saved_bytes_follow_the_layout(self, tmp_path):
        arrays = {
            "enc/w": np.asfortranarray(np.arange(6.0).reshape(2, 3)),  # written in C order
            "scalar": np.float64(-2.5),
            "empty": np.zeros((0, 4)),
            "f32": np.linspace(0, 1, 5, dtype=np.float32),  # written as float64
        }
        body = b"WREP" + struct.pack("<II", 1, len(arrays))
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype=np.float64)
            body += struct.pack("<H", len(name)) + name.encode()
            body += struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape)
            body += struct.pack(f"<{arr.size}d", *arr.ravel(order="C"))
        path = tmp_path / "c.bin"
        save_arrays(path, arrays)
        assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))
        assert not path.with_name("c.bin.tmp").exists()

    def test_stale_checksum_is_reported_before_a_huge_payload(self, tmp_path):
        # dims claiming 2**40 * 2**40 floats, the CRC not recomputed: the
        # checksum is verified before any header is read
        path = tmp_path / "c.bin"
        save_arrays(path, {"a": np.ones((2, 2))})
        blob = bytearray(path.read_bytes())
        blob[19:35] = struct.pack("<2Q", 2**40, 2**40)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: checksum mismatch")):
            load_arrays(path)

    def _first_array_mutated(self, tmp_path, offset, data):
        # one array named "a" of shape (2, 2): its name byte is at 14, its dims at 19
        path = tmp_path / "c.bin"
        save_arrays(path, {"a": np.ones((2, 2))})
        blob = bytearray(path.read_bytes())
        blob[offset : offset + len(data)] = data
        path.write_bytes(_with_crc(blob))
        return path

    def test_huge_dims_name_the_file(self, tmp_path):
        # 2**40 * 2**40 wraps to 0 in int64, which would pass the length check
        path = self._first_array_mutated(tmp_path, 19, struct.pack("<2Q", 2**40, 2**40))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: truncated array payload")):
            load_arrays(path)

    def test_non_utf8_name_names_the_file(self, tmp_path):
        path = self._first_array_mutated(tmp_path, 14, b"\xff")
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_arrays(path)


def _mismatched_pair(kind):
    if kind == "long-stride":  # the samples between frames would be read by no kernel
        return init_encoder(6, 16, 2, 32, 2, seed=0), init_decoder(6, 16, 32)
    enc = init_encoder(6, 16, 2, 16, 2, seed=0)
    dec = init_decoder(6, 16, 8) if kind == "stride" else init_decoder(6, 17, 16)
    return enc, dec


@pytest.mark.parametrize("kind, match", [("stride", "stride 16 != decoder stride 8"),
                                         ("kernel-length", "shapes"),
                                         ("long-stride", "stride 32 is longer than the kernel length")])
class TestPairContract:
    """An encoder and a decoder that cannot form one model are refused before
    anything is written: at save, and at the start of training."""

    def test_save_refuses(self, tmp_path, kind, match):
        path = tmp_path / "m.bin"
        with pytest.raises(ValueError, match=match):
            save_model(path, *_mismatched_pair(kind))
        assert not path.exists()

    def test_train_refuses_before_the_baseline(self, rng, tmp_path, monkeypatch, kind, match):
        voices, accomps = _toy_problem(rng, n_segments=2)
        monkeypatch.setattr(waverep.training, "make_training_pairs",
                            lambda *args: pytest.fail("the baseline pass started"))
        with pytest.raises(ValueError, match=match):
            train(voices, accomps, *_mismatched_pair(kind), TrainConfig(epochs=1),
                  log_path=tmp_path / "log.jsonl", checkpoint_path=tmp_path / "m.bin")
        assert not (tmp_path / "log.jsonl").exists()
        assert not (tmp_path / "m.bin").exists()


class TestLoadModelValidation:
    """CRC-valid files whose metadata or shapes cannot describe a model."""

    def _write(self, tmp_path, **changes):
        path = tmp_path / "m.bin"
        save_model(path, *_toy_model())
        arrays = load_arrays(path)
        arrays.update(changes)
        save_arrays(path, arrays)
        return path

    @pytest.mark.parametrize("value", [0.0, -3.0, 2.5, np.nan, np.inf])
    def test_stride_must_be_positive_integer(self, tmp_path, value):
        with pytest.raises(CheckpointError, match="meta/stride"):
            load_model(self._write(tmp_path, **{"meta/stride": np.float64(value)}))

    @pytest.mark.parametrize("value", [0.0, -1.0, 1.5])
    def test_dilation_must_be_positive_integer(self, tmp_path, value):
        with pytest.raises(CheckpointError, match="meta/dilation"):
            load_model(self._write(tmp_path, **{"meta/dilation": np.float64(value)}))

    def test_stride_must_be_scalar(self, tmp_path):
        with pytest.raises(CheckpointError, match="meta/stride"):
            load_model(self._write(tmp_path, **{"meta/stride": np.array([8.0, 8.0])}))

    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0])
    def test_square_freq_must_be_zero_or_one(self, tmp_path, value):
        with pytest.raises(CheckpointError, match="square_freq"):
            load_model(self._write(tmp_path, **{"meta/square_freq": np.float64(value)}))

    @pytest.mark.parametrize("name, shape", [
        ("encoder/kernels", (6, 15)),
        ("encoder/kernels", (6, 16, 1)),
        ("encoder/dilated_kernels", (6, 2, 5)),
        ("encoder/dilated_kernels", (6, 2)),
        ("decoder/freq", (5,)),
        ("decoder/phase", (6, 1)),
        ("decoder/modulator", (6, 17)),
    ])
    def test_array_shapes_must_agree(self, tmp_path, name, shape):
        with pytest.raises(CheckpointError, match="shapes"):
            load_model(self._write(tmp_path, **{name: np.zeros(shape)}))

    @pytest.mark.parametrize("name", ["encoder/kernels", "encoder/dilated_kernels",
                                      "decoder/freq", "decoder/phase", "decoder/modulator"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_parameters_must_be_finite(self, tmp_path, name, bad):
        arr = load_arrays(self._write(tmp_path))[name]
        arr.flat[-1] = bad
        with pytest.raises(CheckpointError, match=f"{name} holds non-finite values"):
            load_model(self._write(tmp_path, **{name: arr}))

    def test_missing_array(self, tmp_path):
        path = self._write(tmp_path)
        arrays = load_arrays(path)
        del arrays["meta/dilation"]
        save_arrays(path, arrays)
        with pytest.raises(CheckpointError, match="missing array 'meta/dilation'"):
            load_model(path)

    def test_valid_model_still_loads(self, tmp_path):
        enc, dec = load_model(self._write(tmp_path))
        assert (enc.stride, enc.dilation, dec.square_freq) == (8, 2, True)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize("std", [-1.0, -1e-12])
def test_negative_noise_level_rejected(std):
    with pytest.raises(ValueError, match="gaussian_std"):
        TrainConfig(gaussian_std=std)


@pytest.mark.parametrize("name, value", [
    ("lr", np.nan), ("lr", np.inf), ("lr", -1.0),
    ("gaussian_std", np.nan), ("gaussian_std", np.inf), ("variant", "bogus"), ("seed", -1),
])
def test_bad_training_setting_rejected(name, value):
    with pytest.raises(ValueError, match=name if name != "variant" else "unknown loss variant"):
        TrainConfig(**{name: value})


def test_zero_learning_rate_allowed():
    assert TrainConfig(lr=0.0).lr == 0.0


def test_zero_noise_level_allowed():
    assert TrainConfig(gaussian_std=0.0).gaussian_std == 0.0
