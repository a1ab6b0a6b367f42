"""Workload definitions and seeded input generation.

Every workload is one user session in a fresh interpreter: train a model
with ``training.train()``, ``evaluate`` an init checkpoint (model path and
STFT baseline) and ``reconstruct`` / ``separate`` a long pair through
``cli.run``.  The phases run in rounds; the round count is set by the
run's seconds and the workload's nominal round time, so both sides of a
comparison do the same work.  The workloads differ in scale, loss, input sizes and repetitions per round, so
that each one is dominated by a different layer.  The program sees only the files written by :func:`make_inputs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Scale:
    components: int
    kernel_len: int
    stride: int
    kernel2_len: int = 5
    dilation: int = 10


PAPER = Scale(components=800, kernel_len=2048, stride=256)
DESK = Scale(components=128, kernel_len=512, stride=128)

PHASES = ("train", "eval", "eval_stft", "infer")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train_scale: Scale
    eval_scale: Scale         # scale of the init checkpoint that evaluate / infer load
    loss: str                 # "tv" or "sinkhorn"
    train_items: int          # 1 s voice segments per train() call
    epochs: int               # epochs per train() call, early stop off
    eval_tracks: int          # stem pairs for `evaluate`
    eval_track_s: float       # seconds per evaluation stem
    long_s: float             # seconds of the reconstruct / separate pair
    per_round: tuple[int, int, int, int]  # repetitions of each phase per round, in PHASES order
    round_s: float            # nominal seconds per round (2-core Xeon VM); sets the round count


BATCH = 4         # items per optimizer step
LR = 1e-4         # the CLI default
LAM, P = 0.5, 1   # the README walkthrough's Sinkhorn strength and exponent


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-tv-paper",
        why="paper-scale training with the TV loss: encoder and decoder ops dominate, the losses are idle",
        train_scale=PAPER, eval_scale=PAPER, loss="tv", train_items=12, epochs=2,
        eval_tracks=4, eval_track_s=1.0, long_s=10.0, per_round=(1, 1, 1, 1), round_s=14.0,
    ),
    Workload(
        name="train-sinkhorn-desk",
        why="desk-scale training with the Sinkhorn loss: pairwise cost and plan-cost backward dominate",
        train_scale=DESK, eval_scale=DESK, loss="sinkhorn", train_items=8, epochs=2,
        eval_tracks=24, eval_track_s=1.0, long_s=30.0, per_round=(2, 2, 1, 2), round_s=7.5,
    ),
    Workload(
        name="forward-paper",
        why="paper-scale evaluate, reconstruct and separate on long inputs: forward-only, no tape, memory-heavy",
        train_scale=DESK, eval_scale=PAPER, loss="tv", train_items=16, epochs=2,
        eval_tracks=8, eval_track_s=1.0, long_s=60.0, per_round=(4, 1, 1, 1), round_s=14.0,
    ),
)}


def _sub_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def make_inputs(waverep, workload: Workload, seed: int, work: Path) -> None:
    """Write the stems and the init checkpoint for one run into ``work``.

    ``train/``: ``train_items`` one-second stem pairs (one segment each);
    ``eval/``: ``eval_tracks`` pairs for ``evaluate``; ``long/``: one
    ``long_s`` pair for ``reconstruct`` / ``separate``; ``init.bin``: the
    initial parameters that evaluation loads and training starts from, plus
    ``init_train.bin`` for training when it runs at another scale.
    """
    synth = waverep.synth
    synth.synth_data(work / "train", seed=_sub_seed(seed, 0),
                     n_tracks=workload.train_items, duration=1.0)
    synth.synth_data(work / "eval", seed=_sub_seed(seed, 1),
                     n_tracks=workload.eval_tracks, duration=workload.eval_track_s)
    synth.synth_data(work / "long", seed=_sub_seed(seed, 2), n_tracks=1,
                     duration=workload.long_s)
    _save_init(waverep, work / "init.bin", workload.eval_scale, _sub_seed(seed, 3))
    if workload.train_scale != workload.eval_scale:
        _save_init(waverep, work / "init_train.bin", workload.train_scale, _sub_seed(seed, 4))


def _save_init(waverep, path: Path, sc: Scale, seed: int) -> None:
    enc = waverep.init_encoder(sc.components, sc.kernel_len, sc.kernel2_len,
                               sc.stride, sc.dilation, seed=seed)
    dec = waverep.init_decoder(sc.components, sc.kernel_len, sc.stride)
    waverep.save_model(path, enc, dec)
