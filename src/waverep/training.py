"""Training loop: Adam (fixed betas 0.9 / 0.999 and eps 1e-8, float32
moments) over the float64 encoder/decoder parameters on batch-mean gradients
computed in float32 (the decoder kernels built once per step), optional early
stopping on the epoch-mean reconstruction loss, and deterministic behavior as
a function of (seed, config, data).
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from .autodiff import Node, Tape, split_columns
from .checkpoint import save_model
from .dataset import TrainingPair, make_training_pairs
from .decoder import (DecoderParameters, build_kernels, cast_pair, check_pair, kernel_matrix,
                      model_arrays, replace_arrays, synthesize)
from .encoder import EncoderParameters, encode
from .errors import NumericalError, finite
from .losses import LOSS_VARIANTS, LossBreakdown, LossConfig, neg_snr, total_loss


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
#: elements per block of :func:`adam_step`'s update
ADAM_BLOCK = 1 << 15
#: largest gradient magnitude :func:`adam_step` takes: its square, and so the
#: bias-corrected second moment, stays below float32's 3.4e38
ADAM_GRAD_MAX = 1e19


@dataclass
class AdamState:
    """Adam's step count and its first and second moments, one float32 array
    per parameter name (the parameters themselves may be float64)."""

    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adam(params: dict[str, np.ndarray], lr: float) -> AdamState:
    state = AdamState(lr=lr)
    for name, p in params.items():
        state.m[name] = np.zeros(np.shape(p), dtype=np.float32)
        state.v[name] = np.zeros(np.shape(p), dtype=np.float32)
    return state


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """Bias-corrected Adam update, applied to the parameter arrays in place.

    Every gradient is checked before anything changes: a gradient of the
    wrong shape, or one that is not finite or exceeds ``ADAM_GRAD_MAX`` in
    magnitude, leaves the parameters and the state as they were.  The update
    runs block by block (leading-axis slices of about ``ADAM_BLOCK``
    elements), so that its elementwise passes stay in cache, with the same
    bits as one whole-array pass.  The moments and the normalized step
    ``m_hat / (sqrt(v_hat) + eps)`` are float32 (a float64 gradient is cast
    one block at a time); the step is scaled by the learning rate in float64
    and applied to the parameters in their own dtype."""
    for name, p in params.items():
        g = grads[name]
        if np.shape(g) != p.shape:
            raise ValueError(f"gradient shape {np.shape(g)} != parameter shape {p.shape} for {name!r}")
        # NaN fails the comparisons too; no full-size |g| temporary
        if not (-ADAM_GRAD_MAX <= np.min(g, initial=0.0) and np.max(g, initial=0.0) <= ADAM_GRAD_MAX):
            raise NumericalError(f"gradient for {name!r} at step {state.step + 1} is not finite "
                                 f"or exceeds {ADAM_GRAD_MAX:g} in magnitude")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for name, p in params.items():
        p, g, m, v = (np.atleast_1d(a) for a in (p, grads[name], state.m[name], state.v[name]))
        rows = max(1, ADAM_BLOCK * len(p) // max(p.size, 1))
        for r in range(0, len(p), rows):
            b = slice(r, r + rows)
            gb = np.asarray(g[b], dtype=np.float32)
            mb, vb = m[b], v[b]
            mb *= ADAM_BETA1
            mb += (1.0 - ADAM_BETA1) * gb
            vb *= ADAM_BETA2
            vb += (1.0 - ADAM_BETA2) * gb * gb
            # the learning rate scales the float32 step in float64, whatever
            # numpy's promotion rules would make of a float32 array times lr
            p[b] -= np.multiply((mb / bc1) / (np.sqrt(vb / bc2) + ADAM_EPS), state.lr, dtype=np.float64)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    epochs: int = 10
    variant: str = "tv"            # one of LOSS_VARIANTS
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0
    early_stop: bool = True
    lr: float = 1e-4
    gaussian_std: float = 1e-4

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.variant not in LOSS_VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r} (expected one of {LOSS_VARIANTS})")
        for name in ("lr", "gaussian_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class TrainResult:
    history: list[dict]             # one record per optimizer step
    epoch_mean_neg_snr: list[float]  # index 0 is the pre-training baseline
    early_stopped: bool

    @property
    def epochs_run(self) -> int:
        return len(self.epoch_mean_neg_snr) - 1


def _epoch_seed(seed: int, epoch: int) -> int:
    return (seed * 1_000_003 + epoch) % 2**63


def _item_loss(pair: TrainingPair, enc: EncoderParameters, kernels: Node, stride: int,
               cfg: TrainConfig, tape: Tape | None = None) -> LossBreakdown:
    """One item's objective: denoising with ``kernels``, plus the mixture's representation term.

    The noisy voice and the mixture are encoded as one stack of two signals,
    in the encoder kernels' dtype, and the representation term runs in that
    dtype too (the Sinkhorn plan itself is solved in float64).  The mixture's
    representation is checked before that term: :class:`NumericalError` if
    it is not finite."""
    stack = encode(np.stack([pair.noisy_voice, pair.mixture]), enc, tape)
    a_v, a_m = split_columns(stack, 2, tape)
    xhat = synthesize(a_v, kernels, stride, len(pair.voice), tape)
    finite("the mixture's representation is not finite", lambda: a_m.value)
    return total_loss(pair.voice, xhat, a_m, cfg.loss, cfg.variant, tape)


def batch_gradients(items: Sequence[TrainingPair], enc: EncoderParameters, dec: DecoderParameters,
                    cfg: TrainConfig) -> tuple[dict[str, np.ndarray], list[LossBreakdown]]:
    """Batch-mean gradient for every trained tensor, and each item's loss breakdown.

    Each gradient has its parameter's dtype, and so has the arithmetic that
    makes it: with float32 kernels and modulators the items are computed and
    summed in float32.

    The kernels are built once, on a step-level tape replayed once per batch.
    Each item runs and is replayed (seed 1/B) on its own tape, so only one item's
    activations are alive at a time, and adds its dL/dW to the shared kernels.
    The batch is not stacked into one encode: all of its activations would
    then be alive at once."""
    nodes = {name: Node(arr) for name, arr in model_arrays(enc, dec).items()}
    enc_nodes, _ = replace_arrays(enc, dec, nodes)
    kernel_tape = Tape()
    w = build_kernels(nodes["freq"], nodes["phase"], nodes["modulator"], dec.square_freq, kernel_tape)
    breakdowns = []
    for pair in items:
        tape = Tape()
        bd = _item_loss(pair, enc_nodes, w, dec.stride, cfg, tape)
        tape.backward(bd.total, 1.0 / len(items))
        breakdowns.append(bd)
    # w.grad already holds the batch-mean dL/dW: a zero seed adds nothing to it,
    # and where no item reached w (all on the neg-SNR floor) it still gives
    # freq/phase/modulator zero gradients; the representation term always
    # reaches the encoder
    kernel_tape.backward(w, 0.0)
    return {name: node.grad for name, node in nodes.items()}, breakdowns


@contextmanager
def _checked(where: str):
    """numpy's floating-point warnings off, for a pass whose every result is
    checked: the encoder's and decoder's outputs by :func:`_item_loss` and
    :func:`losses.neg_snr`, the gradients by :func:`adam_step`.  A
    :class:`NumericalError` raised inside is raised again naming ``where``."""
    try:
        with np.errstate(all="ignore"):
            yield
    except NumericalError as exc:
        raise NumericalError(f"{where}: {exc}") from exc


def train(
    voice_segments: Sequence[np.ndarray],
    accomp_segments: Sequence[np.ndarray],
    enc: EncoderParameters,
    dec: DecoderParameters,
    cfg: TrainConfig,
    log_path=None,
    checkpoint_path=None,
) -> TrainResult:
    """Optimize the autoencoder on pre-segmented stems.

    Every epoch reshuffles both pools and regenerates corruption noise,
    deterministically in ``cfg.seed``.  Per batch item the noisy voice is
    encoded and decoded against the clean voice (reconstruction term) and the
    synthetic mixture is encoded for the representation term.  Early stopping
    triggers when the epoch-mean reconstruction loss stops decreasing.
    Parameter arrays inside ``enc``/``dec`` are updated in place.

    The parameters stay float64, and Adam's moments are float32.  Each step,
    and the pre-training baseline pass, computes on a float32 copy of the
    model made by :func:`decoder.cast_pair`, which raises
    :class:`NumericalError` if a parameter is not finite in float32.
    """
    if not len(voice_segments) or not len(accomp_segments):
        raise ValueError("training needs non-empty voice and accompaniment segment pools")
    check_pair(enc, dec)
    params = model_arrays(enc, dec)
    adam = init_adam(params, lr=cfg.lr)
    history: list[dict] = []

    def pairs_for(epoch: int):
        return make_training_pairs(voice_segments, accomp_segments,
                                   _epoch_seed(cfg.seed, epoch), cfg.gaussian_std)

    with open(os.devnull if log_path is None else log_path, "w") as log_file:
        # pre-training baseline over the first epoch's stream, no updates: it
        # reports the reconstruction term only, so only that term is computed
        enc32, dec32 = cast_pair(enc, dec, np.float32, "before training")
        with _checked("before training"):
            w = Node(kernel_matrix(dec32))
            baseline = []
            for pair in pairs_for(1):
                xhat = synthesize(encode(pair.noisy_voice, enc32), w, dec.stride, len(pair.voice))
                baseline.append(float(neg_snr(pair.voice, xhat).value))
        epoch_means = [float(np.mean(baseline))]
        del enc32, dec32, w  # each step casts its own model

        early_stopped = False
        for epoch in range(1, cfg.epochs + 1):
            epoch_neg_snrs: list[float] = []
            pairs = pairs_for(epoch)
            while batch := list(islice(pairs, cfg.batch_size)):
                where = f"step {len(history) + 1}"
                model = cast_pair(enc, dec, np.float32, where)
                with _checked(where):
                    grads, breakdowns = batch_gradients(batch, *model, cfg)
                adam_step(params, grads, adam)
                # one model's worth of arrays: free them before the next step allocates its own
                del grads, model
                record = {
                    "step": len(history) + 1,
                    "epoch": epoch,
                    "neg_snr": float(np.mean([b.neg_snr_db for b in breakdowns])),
                    "rep_loss": float(np.mean([b.rep_loss for b in breakdowns])),
                    "total": float(np.mean([float(b.total.value) for b in breakdowns])),
                    "saturation": max((b.plan.saturation for b in breakdowns if b.plan), default=0.0),
                }
                history.append(record)
                log_file.write(json.dumps(record) + "\n")
                epoch_neg_snrs.extend(b.neg_snr_db for b in breakdowns)

            epoch_means.append(float(np.mean(epoch_neg_snrs)))
            if cfg.early_stop and epoch >= 2 and epoch_means[epoch] >= epoch_means[epoch - 1]:
                early_stopped = True
                break

    if checkpoint_path is not None:
        save_model(checkpoint_path, enc, dec)
    return TrainResult(history, epoch_means, early_stopped)
