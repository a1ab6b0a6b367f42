"""Training loop: Adam (fixed betas 0.9 / 0.999 and eps 1e-8) over the
encoder/decoder parameters on batch-mean gradients (the decoder kernels built
once per step), optional early stopping on the epoch-mean reconstruction
loss, and deterministic behavior as a function of (seed, config, data).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from .autodiff import Node, Tape, split_columns
from .checkpoint import save_model
from .dataset import TrainingPair, make_training_pairs
from .decoder import DecoderParameters, build_kernels, check_pair, kernel_matrix, synthesize
from .encoder import EncoderParameters, encode
from .errors import NumericalError
from .losses import LOSS_VARIANTS, LossBreakdown, LossConfig, neg_snr, total_loss


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adam(params: dict[str, np.ndarray], lr: float) -> AdamState:
    state = AdamState(lr=lr)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros_like(p)
    return state


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """Bias-corrected Adam update, applied to the parameter arrays in place.

    Every gradient is checked before anything changes: a gradient of the
    wrong shape, or one that is not finite, leaves the parameters and the
    state as they were."""
    gs = {name: np.asarray(grads[name], dtype=np.float64) for name in params}
    for name, p in params.items():
        g = gs[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for {name!r} at step {state.step + 1}")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for name, p in params.items():
        g = gs[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


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


def _param_dict(enc: EncoderParameters, dec: DecoderParameters) -> dict[str, np.ndarray]:
    # the decoder kernels themselves are deliberately absent: they are
    # rebuilt from freq/phase/modulator once per optimizer step
    return {
        "kernels": enc.kernels,
        "dilated_kernels": enc.dilated_kernels,
        "freq": dec.freq,
        "phase": dec.phase,
        "modulator": dec.modulator,
    }


def _epoch_seed(seed: int, epoch: int) -> int:
    return (seed * 1_000_003 + epoch) % 2**63


def _item_loss(pair: TrainingPair, enc: EncoderParameters, kernels: Node, stride: int,
               cfg: TrainConfig, tape: Tape | None = None) -> LossBreakdown:
    """One item's objective: denoising with ``kernels``, plus the mixture's representation term.

    The noisy voice and the mixture are encoded as one stack of two signals."""
    stack = encode(np.stack([pair.noisy_voice, pair.mixture]), enc, tape)
    a_v, a_m = split_columns(stack, 2, tape)
    xhat = synthesize(a_v, kernels, stride, len(pair.voice), tape)
    return total_loss(pair.voice, xhat, a_m, cfg.loss, cfg.variant, tape)


def batch_gradients(items: Sequence[TrainingPair], enc: EncoderParameters, dec: DecoderParameters,
                    cfg: TrainConfig) -> tuple[dict[str, np.ndarray], list[LossBreakdown]]:
    """Batch-mean gradient for every trained tensor, and each item's loss breakdown.

    The kernels are built once, on a step-level tape replayed once per batch.
    Each item runs and is replayed (seed 1/B) on its own tape, so only one item's
    activations are alive at a time, and adds its dL/dW to the shared kernels.
    The batch is not stacked into one encode: all of its activations would
    then be alive at once."""
    nodes = {name: Node(arr) for name, arr in _param_dict(enc, dec).items()}
    enc_nodes = EncoderParameters(nodes["kernels"], nodes["dilated_kernels"], enc.stride, enc.dilation)
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
    """
    if not len(voice_segments) or not len(accomp_segments):
        raise ValueError("training needs non-empty voice and accompaniment segment pools")
    check_pair(enc, dec)
    params = _param_dict(enc, dec)
    adam = init_adam(params, lr=cfg.lr)
    history: list[dict] = []

    def pairs_for(epoch: int):
        return make_training_pairs(voice_segments, accomp_segments,
                                   _epoch_seed(cfg.seed, epoch), cfg.gaussian_std)

    with open(os.devnull if log_path is None else log_path, "w") as log_file:
        # pre-training baseline over the first epoch's stream, no updates: it
        # reports the reconstruction term only, so only that term is computed
        w = Node(kernel_matrix(dec))
        baseline = []
        for pair in pairs_for(1):
            xhat = synthesize(encode(pair.noisy_voice, enc), w, dec.stride, len(pair.voice))
            baseline.append(float(neg_snr(pair.voice, xhat).value))
        epoch_means = [float(np.mean(baseline))]

        early_stopped = False
        for epoch in range(1, cfg.epochs + 1):
            epoch_neg_snrs: list[float] = []
            pairs = pairs_for(epoch)
            while batch := list(islice(pairs, cfg.batch_size)):
                grads, breakdowns = batch_gradients(batch, enc, dec, cfg)
                adam_step(params, grads, adam)
                # one model's worth of arrays: free them before the next step allocates its own
                del grads
                record = {
                    "step": len(history) + 1,
                    "epoch": epoch,
                    "neg_snr": float(np.mean([b.neg_snr_db for b in breakdowns])),
                    "rep_loss": float(np.mean([b.rep_loss for b in breakdowns])),
                    "total": float(np.mean([float(b.total.value) for b in breakdowns])),
                    "saturation": float(max(b.saturation for b in breakdowns)),
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
