"""Analytic gradients against the central-difference oracle, plus gradient
tape mechanics."""

import math

import numpy as np
import pytest

import waverep.losses
import waverep.training
from waverep import synth
from waverep.autodiff import Node, Tape, as_node, split_columns
from waverep.dataset import SAMPLE_RATE, TrainingPair
from waverep.decoder import build_kernels, decode_values, init_decoder, model_arrays, synthesize
from waverep.diagnostics import (
    GRAD_TOLERANCE,
    central_difference,
    grad_check_report,
    max_relative_error,
)
from waverep.encoder import conv1, conv2_dilated, encode, init_encoder, num_frames, relu_residual
from waverep.losses import LossConfig, neg_snr, sinkhorn_loss, total_loss, tv_loss
from waverep.training import TrainConfig


def test_every_op_matches_finite_differences():
    report = grad_check_report(seed=0)
    assert len(report) >= 20  # all layers, losses and both end-to-end variants
    for name, err in report.items():
        assert err < GRAD_TOLERANCE, f"{name}: {err:.3e}"


def test_report_covers_every_op_and_input():
    # each check the harness runs is named here, so dropping one fails the test
    params = ["dilated_kernels", "freq", "kernels", "modulator", "phase"]
    assert sorted(grad_check_report(seed=0)) == sorted(
        ["conv1/kernels", "conv2/kernels", "conv2/latent", "relu_residual/h1", "relu_residual/h2"]
        + [f"{label}/{name}" for label in ("build_kernels", "build_kernels_nosquare")
           for name in ("freq", "modulator", "phase")]
        + ["synthesize/kernels", "synthesize/representation", "neg_snr/estimate",
           "tv_loss/representation", "sinkhorn_loss_p1/representation",
           "sinkhorn_loss_p2/representation"]
        + ["conv1_stack2/kernels", "conv2_stack2/kernels", "conv2_stack2/latent",
           "synthesize_stack2/kernels", "synthesize_stack2/representation", "split_columns/stack"]
        + [f"total_{variant}/{name}" for variant in ("tv", "sinkhorn") for name in params])


def test_end_to_end_gradients_come_from_the_training_step(monkeypatch):
    # the total_* entries differentiate training.batch_gradients itself, not a copy
    real = waverep.training.batch_gradients
    calls = []

    def scaled(factor):
        def batch_gradients(items, enc, dec, cfg):
            calls.append((len(items), cfg.variant))
            grads, breakdowns = real(items, enc, dec, cfg)
            return {name: factor * g for name, g in grads.items()}, breakdowns
        return batch_gradients

    monkeypatch.setattr(waverep.training, "batch_gradients", scaled(1.0))
    report = grad_check_report(seed=0)
    assert calls == [(1, "tv"), (1, "sinkhorn")]
    assert max(v for k, v in report.items() if k.startswith("total_")) < GRAD_TOLERANCE

    monkeypatch.setattr(waverep.training, "batch_gradients", scaled(2.0))
    doubled = grad_check_report(seed=0)
    assert all(v > 0.3 for k, v in doubled.items() if k.startswith("total_"))
    assert {k: v for k, v in doubled.items() if not k.startswith("total_")} == \
        {k: v for k, v in report.items() if not k.startswith("total_")}


def test_report_is_deterministic():
    assert grad_check_report(seed=3) == grad_check_report(seed=3)


def test_phase_gradient_zero_at_cos_stationary_point():
    # at f=0, rho=0 the kernels sit on the crest of the cosine
    freq, phase, mod = Node(np.zeros(2)), Node(np.zeros(2)), Node(np.ones((2, 5)))
    tape = Tape()
    w = build_kernels(freq, phase, mod, True, tape)
    s = Node(float(w.value.sum()))

    def backward():
        w.add_grad(float(s.grad) * np.ones_like(w.value))
    tape.record(backward, s)
    tape.backward(s)
    np.testing.assert_array_equal(phase.grad, np.zeros(2))


def test_capped_neg_snr_has_zero_gradient(rng):
    x = rng.uniform(-1, 1, 20)
    est = Node(x.copy())
    tape = Tape()
    loss = neg_snr(x, est, tape=tape)
    tape.backward(loss)
    assert float(loss.value) == -120.0
    assert est.grad is None  # clamped plateau: nothing propagates


def test_shared_node_accumulates(rng):
    # the same node feeding two losses receives the sum of both gradients
    a = Node(np.abs(rng.normal(size=(3, 4))) + 0.5)
    tape = Tape()
    l1 = tv_loss(a, tape)
    l2 = tv_loss(a, tape)
    total = Node(float(l1.value) + float(l2.value))

    def backward():
        l1.add_grad(total.grad)
        l2.add_grad(total.grad)
    tape.record(backward, total)
    tape.backward(total)
    single_tape = Tape()
    b = Node(a.value.copy())
    tv_single = tv_loss(b, single_tape)
    single_tape.backward(tv_single)
    np.testing.assert_allclose(a.grad, 2.0 * b.grad, rtol=1e-12)


def test_backward_skips_ops_whose_output_got_no_gradient():
    def fail():
        raise RuntimeError("backward ran")

    unreached, root = Node(2.0), Node(3.0)
    tape = Tape()
    tape.record(fail, unreached)
    tape.record(lambda: None, root)
    tape.backward(root)  # nothing reached `unreached`, so fail() is skipped

    # once a gradient reaches the node, its op runs
    reached, root = Node(2.0), Node(3.0)
    tape = Tape()
    tape.record(fail, reached)
    tape.record(lambda: reached.add_grad(root.grad), root)
    with pytest.raises(RuntimeError, match="backward ran"):
        tape.backward(root)


def test_split_columns_routes_each_block_gradient_to_its_columns(rng):
    a = Node(rng.normal(size=(2, 6)))
    tape = Tape()
    parts = split_columns(a, 3, tape)
    for k, part in enumerate(parts):
        np.testing.assert_array_equal(part.value, a.value[:, 2 * k : 2 * k + 2])
    g0, g2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    root = Node(0.0)

    def backward():  # blocks 0 and 2 reach the root, block 1 does not
        parts[0].add_grad(g0)
        parts[2].add_grad(g2)
    tape.record(backward, root)
    tape.backward(root)
    np.testing.assert_array_equal(a.grad, np.concatenate([g0, np.zeros((2, 2)), g2], axis=1))
    with pytest.raises(ValueError, match="equal blocks"):
        split_columns(a, 4)


def test_owned_gradient_is_kept_and_any_other_is_copied(rng):
    g, g2 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    kept, copied = Node(np.zeros((2, 3))), Node(np.zeros((2, 3)))
    kept.add_grad(g, owned=True)
    copied.add_grad(g)
    assert kept.grad is g and not np.shares_memory(copied.grad, g)
    want = copied.grad + g2
    kept.add_grad(g2, owned=True)  # a later gradient adds in place
    assert kept.grad is g
    np.testing.assert_array_equal(kept.grad, want)


@pytest.mark.parametrize("linear", [False, True])
def test_relu_residual_inputs_end_with_their_own_buffers(rng, linear):
    # both inputs receive the one gradient array, so neither may keep it
    h1, h2 = Node(rng.normal(size=(3, 4))), Node(rng.normal(size=(3, 4)))
    tape = Tape()
    out = relu_residual(h2, h1, tape, linear=linear)
    root = Node(0.0)
    tape.record(lambda: out.add_grad(rng.normal(size=(3, 4))), root)
    tape.backward(root)
    grads = [h1.grad, h2.grad, out.grad]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(grads) for b in grads[i + 1:])
    np.testing.assert_array_equal(h1.grad, h2.grad)


def test_split_blocks_end_with_their_own_buffers(rng):
    # synthesize hands its representation gradient over to the block it read
    a = Node(rng.normal(size=(4, 6)))
    w = Node(rng.normal(size=(4, 8)))
    tape = Tape()
    parts = split_columns(a, 2, tape)
    y = synthesize(parts[0], w, 4, 20, tape)
    rep = tv_loss(parts[1], tape)
    root = Node(0.0)

    def backward():
        y.add_grad(np.ones(20))
        rep.add_grad(1.0)
    tape.record(backward, root)
    tape.backward(root)
    grads = [a.grad, parts[0].grad, parts[1].grad, w.grad]
    assert not any(np.shares_memory(p, q) for i, p in enumerate(grads) for q in grads[i + 1:])
    np.testing.assert_array_equal(a.grad, np.concatenate([parts[0].grad, parts[1].grad], axis=1))


@pytest.mark.parametrize("variant", ["tv", "sinkhorn"])
def test_no_two_gradients_of_a_step_share_memory(rng, monkeypatch, variant):
    # every node a two-item step records, and every parameter, ends with a
    # gradient array of its own
    outputs = []
    real_record = Tape.record

    def record(self, op, out):
        outputs.append(out)
        real_record(self, op, out)

    monkeypatch.setattr(Tape, "record", record)
    enc, dec = init_encoder(6, 32, 3, 8, 2, seed=0), init_decoder(6, 32, 8)
    items = []
    for _ in range(2):
        voice = rng.uniform(-0.5, 0.5, 128)
        items.append(TrainingPair(voice, voice + 1e-3 * rng.normal(size=128),
                                  voice + rng.uniform(-0.5, 0.5, 128)))
    grads, _ = waverep.training.batch_gradients(items, enc, dec, TrainConfig(variant=variant))
    arrays = list(grads.values()) + [n.grad for n in outputs if n.grad is not None]
    assert len(arrays) > 2 * 10
    assert not any(np.shares_memory(p, q) for i, p in enumerate(arrays) for q in arrays[i + 1:])


def test_empty_tape_rejected():
    with pytest.raises(ValueError, match="empty tape"):
        Tape().backward(Node(1.0))


def test_batch_gradients_zero_where_no_gradient_reaches(rng, monkeypatch):
    # with the neg-SNR floor at +inf every reconstruction term sits on the
    # floor, so no gradient reaches the decoder, while the representation
    # term still reaches the encoder
    monkeypatch.setattr(waverep.losses, "SNR_FLOOR_DB", math.inf)
    enc, dec = init_encoder(6, 16, 2, 8, 2, seed=0), init_decoder(6, 16, 8)
    voice = rng.uniform(-0.5, 0.5, 64)
    pair = TrainingPair(voice, voice + 1e-3 * rng.normal(size=64), voice + rng.uniform(-0.5, 0.5, 64))
    grads, (bd,) = waverep.training.batch_gradients([pair], enc, dec, TrainConfig())
    assert bd.neg_snr_db == math.inf
    for name in ("freq", "phase", "modulator"):
        np.testing.assert_array_equal(grads[name], np.zeros_like(getattr(dec, name)), strict=True)
    assert grads["kernels"].shape == enc.kernels.shape and np.any(grads["kernels"])


# variant, (C, L, stride) and relative tolerance of each directional-derivative
# case; the gaps reached 1.0e-5 over nine seeds (TV) and 8.6e-4 over sixteen
# (Sinkhorn, whose plan left free gave 19% at one seed)
DIRECTIONAL_CASES = {
    "tv-paper": ("tv", (800, 2048, 256), 1e-4),
    "sinkhorn-p1-desk": ("sinkhorn", (128, 512, 128), 2e-3),
}


@pytest.mark.parametrize("variant, scale, tolerance", DIRECTIONAL_CASES.values(),
                         ids=DIRECTIONAL_CASES.keys())
def test_batch_gradients_match_a_directional_derivative(rng, variant, scale, tolerance):
    # a central difference of a 1 s item's objective along a random direction
    # of all five tensors against <grad, direction>, the objective recomputed
    # by the unstacked, untaped encode and the chunked decode.  The Sinkhorn
    # plan is detached by design, so it is held at the step's own plan; the
    # kinks of the ReLU and of the L1 cost make its gap erratic in the step.
    c, l, stride = scale
    voice, accomp = synth.voice_stem(rng, SAMPLE_RATE), synth.accomp_stem(rng, SAMPLE_RATE)
    pair = TrainingPair(voice, voice + rng.normal(0, 1e-4, SAMPLE_RATE), voice + accomp)
    enc, dec = init_encoder(c, l, 5, stride, 10, seed=0), init_decoder(c, l, stride)
    cfg = TrainConfig(variant=variant)
    grads, (bd,) = waverep.training.batch_gradients([pair], enc, dec, cfg)
    params = model_arrays(enc, dec)
    origin = {name: arr.copy() for name, arr in params.items()}
    direction = {name: rng.standard_normal(arr.shape) for name, arr in params.items()}

    def objective(step):
        for name, arr in params.items():
            arr[...] = origin[name] + step * direction[name]
        xhat = decode_values(encode(pair.noisy_voice, enc).value, dec, SAMPLE_RATE)
        return float(total_loss(pair.voice, xhat, encode(pair.mixture, enc), cfg.loss,
                                variant, plan=bd.plan).total.value)

    step = 1e-7
    numeric = (objective(step) - objective(-step)) / (2 * step)
    analytic = sum(float(np.vdot(grads[name], direction[name])) for name in params)
    assert abs(numeric - analytic) <= tolerance * abs(analytic)


# (input, step, relative tolerance) of each input of each per-op directional-
# derivative case at the paper configuration, set from the worst gap over
# sixteen seeds: relu_residual 6.2e-12, build_kernels freq 4.0e-7, phase
# 7.2e-8, modulator 1.3e-12, neg_snr 1.5e-8 and tv_loss 3.3e-12.  relu_residual
# and tv_loss are piecewise linear with their inputs off the kinks, and
# build_kernels is linear in the modulator, so only rounding is left there;
# the 2048-tap carriers make the truncation error in freq steep in the step
_BUILD_KERNELS_INPUTS = [("freq", 1e-8, 2e-6), ("phase", 1e-5, 1e-6), ("modulator", 1e-2, 1e-10)]
NONLINEAR_OPS = {
    "relu_residual": [("h2", 1e-2, 1e-10), ("h1", 1e-2, 1e-10)],
    "build_kernels": _BUILD_KERNELS_INPUTS,
    "build_kernels_nosquare": _BUILD_KERNELS_INPUTS,
    "neg_snr": [("estimate", 1e-5, 1e-7)],
    "tv_loss": [("representation", 1e-2, 1e-10)],
}


def _nonlinear_op(name, rng):
    """``(op, inputs)``: the taped op ``name`` as ``op(nodes, tape)`` at the paper
    configuration (C=800, L=2048, 1 s at stride 256, so T=173 frames per signal),
    differentiable in each of ``inputs``."""
    c, l, t = 800, 2048, num_frames(SAMPLE_RATE, 256)
    if name == "relu_residual":
        # the latents of a two-signal stack, as a training item encodes them,
        # with every pre-activation at least 0.1 away from the ReLU's kink
        h1 = rng.normal(size=(c, 2 * t))
        pre = rng.choice([-1.0, 1.0], size=h1.shape) * rng.uniform(0.1, 1.0, h1.shape)
        return lambda nodes, tape: relu_residual(*nodes, tape), [pre - h1, h1]
    if name.startswith("build_kernels"):
        square = name == "build_kernels"
        dec = init_decoder(c, l, 256, square)
        return (lambda nodes, tape: build_kernels(*nodes, square, tape),
                [dec.freq, dec.phase + rng.uniform(-np.pi, np.pi, c), dec.modulator])
    if name == "neg_snr":
        voice = synth.voice_stem(rng, SAMPLE_RATE)
        return (lambda nodes, tape: neg_snr(voice, nodes[0], tape),
                [voice + 0.1 * rng.normal(size=SAMPLE_RATE)])
    assert name == "tv_loss"
    # a checkerboard of low and high cells: every neighbour difference along
    # either axis is at least 0.1 away from the |.| kink
    checker = np.add.outer(np.arange(c), np.arange(t)) % 2
    return lambda nodes, tape: tv_loss(nodes[0], tape), [0.1 + 0.3 * checker + rng.uniform(0, 0.2, (c, t))]


@pytest.mark.parametrize("name", NONLINEAR_OPS)
def test_nonlinear_op_matches_a_directional_derivative(rng, name):
    # for each input, a central difference of <op(x), y> along a random
    # direction of that input against <grad, direction>, the gradient replayed
    # by the op's own backward closure from a taped functional as in the
    # adjoint test
    op, inputs = _nonlinear_op(name, rng)
    nodes, tape = [Node(x.copy()) for x in inputs], Tape()
    out = op(nodes, tape)
    y = rng.normal(size=np.shape(out.value))
    root = Node(float(np.vdot(out.value, y)))

    def backward():
        out.add_grad(float(root.grad) * y)
    tape.record(backward, root)
    tape.backward(root)
    failures = []
    for i, (label, step, tolerance) in enumerate(NONLINEAR_OPS[name]):
        direction = rng.standard_normal(inputs[i].shape)

        def functional(h):
            moved = [as_node(x + h * direction if j == i else x) for j, x in enumerate(inputs)]
            return float(np.vdot(op(moved, None).value, y))

        numeric = (functional(step) - functional(-step)) / (2 * step)
        analytic = float(np.vdot(nodes[i].grad, direction))
        gap = abs(numeric - analytic) / abs(analytic)
        if not gap <= tolerance:
            failures.append(f"{label}: {gap:.2e} > {tolerance:g}")
    assert not failures, failures


def test_backward_seed_scales_gradient(rng):
    a = Node(np.abs(rng.normal(size=(3, 4))) + 0.5)
    tape = Tape()
    loss = tv_loss(a, tape)
    tape.backward(loss, seed=0.25)
    b = Node(a.value.copy())
    tape2 = Tape()
    loss2 = tv_loss(b, tape2)
    tape2.backward(loss2)
    np.testing.assert_allclose(a.grad, 0.25 * b.grad, rtol=1e-12)


def test_sinkhorn_gradient_with_fixed_plan_both_exponents(rng):
    # independent re-derivation of the diagnostics check at another seed
    for p in (1, 2):
        a = np.abs(rng.normal(1.0, 0.6, size=(3, 4))) + 0.1
        cfg = LossConfig(lam=1.5, p=p, max_iters=5000, tau=1e-10)
        _, plan = sinkhorn_loss(as_node(a), cfg)
        tape = Tape()
        an = Node(a)
        loss, _ = sinkhorn_loss(an, cfg, tape, plan=plan)
        tape.backward(loss)
        numeric = central_difference(
            lambda: float(sinkhorn_loss(as_node(a), cfg, plan=plan)[0].value), a)
        assert max_relative_error(an.grad, numeric) < GRAD_TOLERANCE


# (C, L, stride, L2, dilation, n, N) of an n-signal stack
ADJOINT_SHAPES = {
    # the paper configuration: N = 44100 is not a multiple of the stride, L/stride = 8
    "paper": (800, 2048, 256, 5, 10, 3, 44100),
    "ragged-N": (16, 64, 16, 5, 10, 3, 16 * 70 + 9),
    "overlap8": (16, 128, 16, 5, 10, 3, 16 * 70),
    # 13 frames per signal, fewer than the 40-frame right context of conv2
    "short-stack": (800, 2048, 256, 5, 10, 3, 256 * 12 + 100),
}
ADJOINT_OPS = ["conv1/kernels", "conv2/latent", "conv2/kernels", "synthesize/representation",
               "synthesize/kernels", "split_columns/stack"]


def _linear_op(name, shape, rng):
    """``(op, x)``: the op ``<op>/<input>`` as ``op(node, tape)``, linear in the
    named input, with its other inputs fixed at random values of ``shape``."""
    c, l, stride, l2, dilation, n, length = shape
    signals = rng.uniform(-1, 1, (n, length))
    latent = rng.normal(size=(c, n * num_frames(length, stride)))
    kernels = rng.normal(size=(c, l))
    if name == "conv1/kernels":
        return lambda k, tape: conv1(signals, k, stride, tape), kernels
    if name == "conv2/latent":
        k2 = as_node(rng.normal(size=(c, l2, c)))
        return lambda h, tape: conv2_dilated(h, k2, dilation, tape, signals=n), latent
    if name == "conv2/kernels":
        h = as_node(latent)
        return (lambda k, tape: conv2_dilated(h, k, dilation, tape, signals=n),
                rng.normal(size=(c, l2, c)))
    if name == "synthesize/representation":
        w = as_node(kernels)
        return lambda a, tape: synthesize(a, w, stride, length, tape, signals=n), latent
    if name == "synthesize/kernels":
        a = as_node(latent)
        return lambda w, tape: synthesize(a, w, stride, length, tape, signals=n), kernels
    assert name == "split_columns/stack"
    return lambda a, tape: split_columns(a, n, tape), latent


@pytest.mark.parametrize("shape", ADJOINT_SHAPES.values(), ids=ADJOINT_SHAPES.keys())
@pytest.mark.parametrize("name", ADJOINT_OPS)
def test_backward_is_the_adjoint(rng, name, shape):
    # Claerbout's dot-product test <A x, y> = <x, A^T y>, with A^T the op's own
    # backward closure replayed from a taped functional <A x, y>
    op, x = _linear_op(name, shape, rng)
    node, tape = Node(x), Tape()
    outs = op(node, tape)
    outs = outs if isinstance(outs, list) else [outs]
    ys = [rng.normal(size=out.shape) for out in outs]
    root = Node(sum(float(np.vdot(out.value, y)) for out, y in zip(outs, ys)))

    def backward():
        for out, y in zip(outs, ys):
            out.add_grad(float(root.grad) * y)
    tape.record(backward, root)
    tape.backward(root)
    lhs, rhs = float(root.value), float(np.vdot(x, node.grad))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
