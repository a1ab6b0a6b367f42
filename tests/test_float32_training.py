"""Training computes in float32 on float64 master weights.

Each tape op's float32 gradients are held to its float64 gradients at paper
shapes, the Sinkhorn term's at desk shape, a float32 ``train`` run to the
float64 reference run, and a master weight or a forward pass that float32 cannot
hold is refused as a numerical failure."""

import warnings
from itertools import islice

import numpy as np
import pytest

from waverep.autodiff import Node, Tape
from waverep.checkpoint import load_model
from waverep.cli import run
from waverep.dataset import SAMPLE_RATE, make_training_pairs, segment
from waverep.decoder import build_kernels, init_decoder, kernel_matrix, model_arrays, synthesize
from waverep.encoder import (conv1, conv2_dilated, encode, encode_values, init_encoder,
                             relu_residual)
from waverep.errors import NumericalError
from waverep.losses import LossConfig, neg_snr, sinkhorn_loss
from waverep.synth import accomp_stem, voice_stem
from waverep.training import TrainConfig, _epoch_seed, batch_gradients, train

# paper scale: C=800, L=2048, stride 256, L2=5, dilation 10; a training item
# encodes a stack of two 1 s signals, T=173 frames each
C, L, STRIDE, L2, DILATION = 800, 2048, 256, 5, 10
T = -(-SAMPLE_RATE // STRIDE)


def _f32(a):
    """``a`` rounded to float32 and held as float64, so that both dtypes start
    from the same values."""
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def _op_gradients(op, inputs, dtype):
    """The gradients of ``op`` at ``inputs`` ({name: (array, cast)}; a ``cast``
    input takes ``dtype``, the others stay float64), pulled back from one
    fixed float32-valued output gradient."""
    nodes = {name: Node(a.astype(dtype) if cast else a) for name, (a, cast) in inputs.items()}
    tape = Tape()
    out = op(nodes, tape)
    g = _f32(np.random.default_rng(5).standard_normal(out.shape))
    total = Node(float((out.value * g).sum()))  # <out, g>: its gradient in out is g
    tape.record(lambda: out.add_grad(g), total)
    tape.backward(total)
    return {name: node.grad for name, node in nodes.items()}


@pytest.fixture(scope="module")
def paper_inputs():
    rng = np.random.default_rng(100)
    enc, dec = init_encoder(C, L, L2, STRIDE, DILATION, seed=0), init_decoder(C, L, STRIDE)
    latents = [_f32(rng.standard_normal((C, 2 * T))) for _ in range(2)]
    return {
        "conv1": (lambda n, t: conv1(0.3 * np.stack([np.sin(np.arange(SAMPLE_RATE) * 0.01),
                                                     np.cos(np.arange(SAMPLE_RATE) * 0.03)]),
                                     n["kernels"], STRIDE, t),
                  {"kernels": (_f32(enc.kernels), True)}),
        "conv2_dilated": (lambda n, t: conv2_dilated(n["h"], n["kernels"], DILATION, t, signals=2),
                          {"h": (np.abs(latents[0]), True),
                           "kernels": (_f32(enc.dilated_kernels), True)}),
        "relu_residual": (lambda n, t: relu_residual(n["h2"], n["h1"], t),
                          {"h1": (latents[0], True), "h2": (latents[1], True)}),
        "build_kernels": (lambda n, t: build_kernels(n["freq"], n["phase"], n["modulator"], True, t),
                          {"freq": (dec.freq + rng.uniform(-1e-3, 1e-3, C), False),
                           "phase": (rng.uniform(-np.pi, np.pi, C), False),
                           "modulator": (_f32(dec.modulator * (1 + 0.1 * rng.standard_normal((C, L)))),
                                         True)}),
        "synthesize": (lambda n, t: synthesize(n["a"], n["w"], STRIDE, SAMPLE_RATE, t, signals=2),
                       {"a": (np.abs(latents[1]), True),
                        "w": (_f32(rng.standard_normal((C, L)) / C), True)}),
    }


# largest gap (max abs over max) of each float32 gradient from the float64 one:
# 4x the largest gap measured over three draws of these inputs (model seeds
# 0-2), rounded up.  Measured: conv1 kernels 8.9e-7; conv2_dilated h 5.2e-7,
# kernels 8.7e-7; build_kernels freq 7.5e-8, phase 1.6e-7, modulator 1.3e-7;
# synthesize a 6.8e-7, w 8.4e-7.  relu_residual passes its gradient through a
# mask that float32 does not change, so its gradients are exact.
OP_GAP_BOUNDS = {
    "conv1": {"kernels": 3.6e-6},
    "conv2_dilated": {"h": 2.1e-6, "kernels": 3.5e-6},
    "relu_residual": {"h1": 0.0, "h2": 0.0},
    "build_kernels": {"freq": 3e-7, "phase": 6.3e-7, "modulator": 5.3e-7},
    "synthesize": {"a": 2.8e-6, "w": 3.4e-6},
}


@pytest.mark.parametrize("op", sorted(OP_GAP_BOUNDS))
def test_float32_op_gradients_stay_near_float64_at_paper_shapes(paper_inputs, op):
    fn, inputs = paper_inputs[op]
    g64 = _op_gradients(fn, inputs, np.float64)
    g32 = _op_gradients(fn, inputs, np.float32)
    for name, bound in OP_GAP_BOUNDS[op].items():
        # a float32 input keeps a float32 gradient; freq and phase stay float64
        assert g32[name].dtype == (np.float32 if inputs[name][1] else np.float64)
        gap = np.max(np.abs(g32[name] - g64[name])) / np.max(np.abs(g64[name]))
        assert gap <= bound, (op, name, gap)


# the same gap for the Sinkhorn term's gradient in a desk-scale representation
# (C=128, T=345): the encoded 1 s mixture of draws 0-2, with its plan solved on
# each dtype's cost.  4x the largest gap, rounded up; measured p=1 4.4e-7, p=2 3.3e-7
SINKHORN_GAP_BOUNDS = {1: 1.8e-6, 2: 1.4e-6}


@pytest.mark.parametrize("p", sorted(SINKHORN_GAP_BOUNDS))
def test_float32_sinkhorn_gradient_stays_near_float64_at_desk_shape(p):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = voice_stem(rng, SAMPLE_RATE) + accomp_stem(rng, SAMPLE_RATE)
        a = encode_values(x, init_encoder(128, 512, 5, 128, 10, seed=seed)).astype(np.float32)
        assert a.shape == (128, 345)
        grads = []
        for dtype in (np.float32, np.float64):
            node, tape = Node(a.astype(dtype)), Tape()
            loss, _ = sinkhorn_loss(node, LossConfig(p=p), tape)
            tape.backward(loss)
            grads.append(node.grad)
        assert grads[0].dtype == np.float32
        gap = np.max(np.abs(grads[0] - grads[1])) / np.max(np.abs(grads[1]))
        assert gap <= SINKHORN_GAP_BOUNDS[p], (seed, gap)


def _desk_pools(seed=0):
    rng = np.random.default_rng(seed)
    voices, accomps = [], []
    for _ in range(2):
        voices += segment(voice_stem(rng, 4 * SAMPLE_RATE), SAMPLE_RATE, SAMPLE_RATE)
        accomps += segment(accomp_stem(rng, 4 * SAMPLE_RATE), SAMPLE_RATE, SAMPLE_RATE)
    return voices, accomps


def _desk_model(seed=0):
    return init_encoder(128, 512, 5, 128, 10, seed=seed), init_decoder(128, 512, 128)


def _float64_adam_step(params, grads, m, v, step, lr):
    """Adam with float64 moments and arithmetic, whole arrays at a time: the
    reference that float32 moments are measured against."""
    bc1, bc2 = 1.0 - 0.9 ** step, 1.0 - 0.999 ** step
    for name, p in params.items():
        m[name] = 0.9 * m[name] + (1.0 - 0.9) * grads[name]
        v[name] = 0.999 * v[name] + (1.0 - 0.999) * grads[name] * grads[name]
        p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + 1e-8)


def _float64_train(voices, accomps, enc, dec, cfg) -> list[float]:
    """``train`` all in float64: ``batch_gradients`` on the float64 parameters
    themselves, and :func:`_float64_adam_step`.  Returns the epoch means."""
    params = model_arrays(enc, dec)
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    step = 0

    def pairs(epoch):
        return make_training_pairs(voices, accomps, _epoch_seed(cfg.seed, epoch), cfg.gaussian_std)

    w = Node(kernel_matrix(dec))
    means = [float(np.mean([
        neg_snr(p.voice, synthesize(encode(p.noisy_voice, enc), w, dec.stride, len(p.voice))).value
        for p in pairs(1)]))]
    for epoch in range(1, cfg.epochs + 1):
        items, neg_snrs = pairs(epoch), []
        while batch := list(islice(items, cfg.batch_size)):
            grads, breakdowns = batch_gradients(batch, enc, dec, cfg)
            step += 1
            _float64_adam_step(params, grads, m, v, step, cfg.lr)
            neg_snrs += [b.neg_snr_db for b in breakdowns]
        means.append(float(np.mean(neg_snrs)))
    return means


# (epoch-mean dB, update L2 relative) bounds of a float32 desk run from the
# float64 run: 8 items, batch 4, 3 epochs, 6 steps; Sinkhorn with p=1.
# Measured over seeds 0-2, TV: 1.6e-4 dB and 3.5e-3; bounds ~3-6x that.
# Sinkhorn: 6.2e-4 dB and 2.0e-2 (encoder kernels); bounds ~4-5x that.  The
# Sinkhorn gaps were the same with that term in float64 (6.2e-4 dB, 2.0e-2):
# they come from the float32 encoder, whose small gradient entries Adam's
# normalized update amplifies, not from the term's float32 arithmetic.  Adam's
# float32 moments leave them as they were: over pool and model seeds 0-2, TV
# 1.2e-4 dB and 3.5e-3, Sinkhorn 6.2e-4 dB and 1.4e-2, with float32 moments
# and with float64 moments alike
RUN_GAP_BOUNDS = {"tv": (1e-3, 1e-2), "sinkhorn": (3e-3, 8e-2)}


def _check_desk_run_against_float64(tmp_path, variant):
    means_bound, update_bound = RUN_GAP_BOUNDS[variant]
    voices, accomps = _desk_pools()
    cfg = TrainConfig(batch_size=4, epochs=3, variant=variant, loss=LossConfig(omega=0.5, p=1),
                      seed=0, early_stop=False, lr=1e-3)
    enc, dec = _desk_model()
    init = {name: p.copy() for name, p in model_arrays(enc, dec).items()}
    means = train(voices, accomps, enc, dec, cfg,
                  checkpoint_path=tmp_path / "checkpoint.bin").epoch_mean_neg_snr
    # the master weights stay float64, in the arrays the caller passed
    assert all(p.dtype == np.float64 for p in model_arrays(enc, dec).values())
    trained = model_arrays(*load_model(tmp_path / "checkpoint.bin"))

    enc64, dec64 = _desk_model()
    means64 = _float64_train(voices, accomps, enc64, dec64, cfg)
    assert means64[-1] < means64[0] - 3.0  # the run does train
    np.testing.assert_allclose(means, means64, rtol=0, atol=means_bound)
    for name, p64 in model_arrays(enc64, dec64).items():
        update64 = p64 - init[name]
        gap = np.linalg.norm(trained[name] - p64) / np.linalg.norm(update64)
        assert gap <= update_bound, (name, gap)


def test_desk_training_stays_near_the_float64_run(tmp_path):
    _check_desk_run_against_float64(tmp_path, "tv")


def test_desk_sinkhorn_training_stays_near_the_float64_run(tmp_path):
    _check_desk_run_against_float64(tmp_path, "sinkhorn")


def test_master_weight_beyond_float32_is_refused_before_training():
    voices, accomps = _desk_pools()
    enc, dec = _desk_model()
    enc.dilated_kernels[0, 0, 0] = 1e39
    with pytest.raises(NumericalError, match="before training: the model's parameters are "
                                             "not finite in float32"):
        train(voices, accomps, enc, dec, TrainConfig(epochs=1))


def test_master_weights_that_outgrow_float32_stop_training(tmp_path, capsys):
    # Adam's first step moves a weight by about lr: at lr=1e39 the weights
    # leave float32's range, and the second step's cast refuses them; no numpy
    # warning is printed on the way, and no checkpoint is written
    out = tmp_path / "run"
    assert run(["synth-data", "--out", str(tmp_path / "stems"), "--tracks", "1",
                "--duration", "2"]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["train", "--stems", str(tmp_path / "stems"), "--out", str(out),
                    "--components", "16", "--stride", "64", "--kernel-len", "64",
                    "--epochs", "1", "--batch", "1", "--lr", "1e39"])
    assert code == 3
    err = capsys.readouterr().err
    assert err == ("numerical failure: step 2: the model's parameters are not finite in "
                   "float32\n")
    assert len((out / "train_log.jsonl").read_text().splitlines()) == 1
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("variant", ["tv", "sinkhorn"])
def test_forward_overflow_in_a_step_is_a_numerical_failure(variant):
    # first-layer kernels of 3e37 are finite in float32: a quiet voice's
    # reconstruction stays finite before training, but the louder mixture's
    # representation overflows in step 1.  Both variants refuse it there,
    # before the representation term, and no numpy warning is printed
    rng = np.random.default_rng(0)
    voices = [0.1 * s for s in segment(voice_stem(rng, 2 * SAMPLE_RATE), SAMPLE_RATE, SAMPLE_RATE)]
    accomps = segment(accomp_stem(rng, 2 * SAMPLE_RATE), SAMPLE_RATE, SAMPLE_RATE)
    enc, dec = init_encoder(16, 64, 5, 32, 10), init_decoder(16, 64, 32)
    enc.kernels[:] = 3e37
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match="^step 1: the mixture's representation is not finite$"):
            train(voices, accomps, enc, dec, TrainConfig(epochs=1, batch_size=1, variant=variant))


@pytest.mark.parametrize("loss", ["tv", "sinkhorn"])
def test_training_that_overflows_float32_exits_3_without_warnings(tmp_path, capsys, loss):
    # at lr=1e36 the first step leaves every weight finite in float32, and the
    # second step's forward pass overflows
    out = tmp_path / "run"
    assert run(["synth-data", "--out", str(tmp_path / "stems"), "--tracks", "1",
                "--duration", "2"]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["train", "--stems", str(tmp_path / "stems"), "--out", str(out),
                    "--components", "32", "--stride", "64", "--kernel-len", "64",
                    "--epochs", "1", "--batch", "1", "--lr", "1e36", "--loss", loss])
    assert code == 3
    assert capsys.readouterr().err == ("numerical failure: step 2: the mixture's representation "
                                       "is not finite\n")
    assert not (out / "checkpoint.bin").exists()
