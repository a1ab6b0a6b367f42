"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity once its assertions hold.
"""

import time

import numpy as np
import pytest

from waverep.autodiff import as_node
from waverep.cli import run
from waverep.dataset import SAMPLE_RATE, is_active, segment
from waverep.decoder import decode_values, init_decoder
from waverep.diagnostics import (
    GRAD_TOLERANCE,
    assignment_cost,
    grad_check_report,
    random_cost_matrix,
)
from waverep.encoder import encode_values, init_encoder
from waverep.errors import SaturationError
from waverep.evaluation import additivity, evaluate, istft, si_sdr, stft, w_do
from waverep.losses import LossConfig, normalize_simplex, pairwise_cost, sinkhorn_plan, tv_loss
from waverep.synth import accomp_stem, voice_stem
from waverep.training import TrainConfig, train


def test_criterion_1_gradient_correctness():
    start = time.time()
    report = grad_check_report(seed=0)
    elapsed = time.time() - start
    worst = max(report.values())
    assert worst < GRAD_TOLERANCE, report
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: gradients match central differences, "
          f"max relative error {worst:.2e} < 1e-4 in {elapsed:.1f}s")


def test_criterion_2_sinkhorn_oracle_equivalence():
    rng = np.random.default_rng(0)
    worst_gap = 0.0
    for t in (3, 4):
        for _ in range(3):
            m = random_cost_matrix(rng, t)
            opt = assignment_cost(m)
            plan = sinkhorn_plan(m, lam=50.0, max_iters=2000, tau=1e-9)
            cost = float((plan.plan * m).sum())
            worst_gap = max(worst_gap, abs(cost - opt) / opt)
            assert abs(cost - opt) / opt < 0.01
            for lam in (0.5, 1.0, 5.0, 20.0, 50.0):
                p = sinkhorn_plan(m, lam=lam, max_iters=2000, tau=1e-9)
                # 1e-12 slack: at strong regularization the plan IS the optimal
                # permutation and the two sums merely round differently
                assert float((p.plan * m).sum()) >= opt - 1e-12
    print(f"\nPASS criterion 2: transport cost within {worst_gap:.3%} of the "
          f"enumerated assignment optimum at lambda=50, never undershooting it")


def test_criterion_3_sinkhorn_marginals():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        t = int(rng.integers(3, 9))
        plan = sinkhorn_plan(random_cost_matrix(rng, t), lam=2.0, max_iters=10_000, tau=1e-6)
        assert plan.converged
        rows = plan.plan.sum(axis=1)
        cols = plan.plan.sum(axis=0)
        spread = max(float(rows.max() - rows.min()), float(cols.max() - cols.min()))
        worst = max(worst, spread)
        assert spread < 1e-6
    print(f"\nPASS criterion 3: row/column sums mutually agree within {worst:.2e} "
          f"(<1e-6) on 100 random cost matrices at tau=1e-6")


def test_criterion_4_additivity_identity():
    rng = np.random.default_rng(2)
    enc = init_encoder(6, 16, 3, 8, 2, seed=0)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(40, 200))
        x_v = rng.uniform(-1, 1, n)
        x_ac = rng.uniform(-1, 1, n)
        value = additivity(*(encode_values(x, enc, linear=True) for x in (x_v + x_ac, x_v, x_ac)))
        worst = max(worst, abs(value - 1.0))
        assert value == pytest.approx(1.0, abs=1e-6)
    print(f"\nPASS criterion 4: linear-encoder additivity equals 1.0 "
          f"(max |deviation| {worst:.2e} < 1e-6) on arbitrary additive triples")


def test_criterion_5_metric_identities():
    rng = np.random.default_rng(3)
    ref = rng.uniform(-1, 1, 300)
    est = ref + 0.2 * rng.normal(size=300)
    base = si_sdr(ref, est)
    worst = 0.0
    for a in (0.25, 2.0, 40.0):
        worst = max(worst, abs(si_sdr(ref, a * est) - base))
    worst = max(worst, abs(si_sdr(ref, -est) - base))
    assert worst < 1e-9

    assert float(tv_loss(np.full((5, 9), 2.5)).value) == 0.0

    y = np.array([[1.0, 0.0], [0.5, 0.0]])
    z = np.array([[0.0, 2.0], [0.0, 0.3]])
    wdo_disjoint, _, _ = w_do(y, z)
    assert wdo_disjoint == 1.0
    v = np.abs(rng.normal(size=(4, 6))) + 0.1
    wdo_identical, psr, sir = w_do(v, v)
    assert psr == pytest.approx(1.0) and sir == pytest.approx(1.0)
    assert wdo_identical == pytest.approx(0.0, abs=1e-12)
    print(f"\nPASS criterion 5: SI-SDR scale/sign invariant (|delta| {worst:.1e} "
          f"< 1e-9 dB), TV(constant)=0, W-DO disjoint=1 and identical=0")


def test_criterion_6_stft_baseline():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, SAMPLE_RATE)
    y = istft(stft(x), len(x))
    interior = slice(2048, SAMPLE_RATE - 2048)
    roundtrip = si_sdr(x[interior], y[interior])
    assert roundtrip > 40.0

    t = np.arange(2 * SAMPLE_RATE) / SAMPLE_RATE
    voice = 0.4 * np.sin(2 * np.pi * 500 * t) + 0.25 * np.sin(2 * np.pi * 900 * t)
    accomp = 0.4 * np.sin(2 * np.pi * 6000 * t) + 0.3 * np.sin(2 * np.pi * 9000 * t)
    report = evaluate([("disjoint", voice, accomp)])
    bm = min(row.si_sdr_bm for row in report.rows)
    assert bm > 20.0
    print(f"\nPASS criterion 6: STFT round trip {roundtrip:.1f} dB (>40), "
          f"disjoint-band oracle masking {bm:.1f} dB SI-SDR-BM (>20)")


@pytest.mark.slow
def test_criterion_7_desk_scale_training():
    rng = np.random.default_rng(7)
    n = 6 * SAMPLE_RATE
    voices, accomps = [], []
    for _ in range(4):
        voices.extend(segment(voice_stem(rng, n), SAMPLE_RATE, SAMPLE_RATE))
        accomps.extend(segment(accomp_stem(rng, n), SAMPLE_RATE, SAMPLE_RATE))
    assert len(voices) >= 20
    assert all(is_active(v) for v in voices)

    enc = init_encoder(128, 512, 5, 128, 10, seed=0)
    dec = init_decoder(128, 512, 128)
    cfg = TrainConfig(batch_size=4, epochs=10, variant="tv",
                      loss=LossConfig(omega=0.5), seed=0, early_stop=False, lr=1e-3)
    start = time.time()
    result = train(voices, accomps, enc, dec, cfg)
    elapsed = time.time() - start
    assert elapsed < 900.0
    assert result.epochs_run == 10
    assert result.epoch_mean_neg_snr[-1] < result.epoch_mean_neg_snr[0]

    sdrs = [si_sdr(v, decode_values(encode_values(v, enc), dec, len(v))) for v in voices]
    median_sdr = float(np.median(sdrs))
    assert median_sdr > 10.0
    print(f"\nPASS criterion 7: epoch-mean neg-SNR {result.epoch_mean_neg_snr[0]:.2f} -> "
          f"{result.epoch_mean_neg_snr[-1]:.2f} dB over 10 epochs, median train SI-SDR "
          f"{median_sdr:.1f} dB (>10) in {elapsed:.0f}s")


def test_criterion_8_lambda_saturation():
    # small trained model supplies a realistic representation
    rng = np.random.default_rng(8)
    n = 2 * SAMPLE_RATE
    voices = segment(voice_stem(rng, n), 22050, 22050)
    accomps = segment(accomp_stem(rng, n), 22050, 22050)
    enc = init_encoder(16, 64, 3, 64, 4, seed=1)
    dec = init_decoder(16, 64, 64)
    train(voices, accomps, enc, dec,
          TrainConfig(batch_size=4, epochs=2, variant="tv", seed=1, early_stop=False, lr=1e-3))

    mixture = voices[0] + accomps[1]
    a_m = encode_values(mixture, enc)
    m = pairwise_cost(normalize_simplex(as_node(a_m)).value, p=1)
    fractions = []
    for lam in (0.5, 1.5, 5.0, 10.0):
        plan = sinkhorn_plan(m, lam=lam, max_iters=200, tau=1e-6)
        assert np.all(np.isfinite(plan.plan))
        fractions.append(plan.saturation)
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    hostile = np.array([[800.0, 900.0, 850.0], [0.0, 0.1, 0.2], [0.3, 0.0, 0.1]])
    with pytest.raises(SaturationError):
        sinkhorn_plan(hostile, lam=1.0)
    print(f"\nPASS criterion 8: Gibbs-kernel underflow fraction non-decreasing in "
          f"lambda {fractions}, full-row underflow raises the saturation error (no NaN)")


@pytest.mark.slow
def test_criterion_9_end_to_end_determinism(tmp_path):
    digests = []
    for name in ("run_a", "run_b"):
        base = tmp_path / name
        assert run(["synth-data", "--out", str(base / "stems"), "--seed", "13",
                    "--tracks", "2", "--duration", "3"]) == 0
        assert run(["train", "--stems", str(base / "stems"), "--out", str(base / "model"),
                    "--components", "24", "--stride", "256", "--kernel-len", "256",
                    "--epochs", "2", "--batch", "4", "--seed", "13", "--lr", "1e-3",
                    "--loss", "sinkhorn", "--omega", "0.5", "--lambda", "1.0"]) == 0
        assert run(["evaluate", "--stems", str(base / "stems"),
                    "--checkpoint", str(base / "model" / "checkpoint.bin"),
                    "--out", str(base / "eval")]) == 0
        digests.append((
            (base / "model" / "checkpoint.bin").read_bytes(),
            (base / "eval" / "report.csv").read_bytes(),
        ))
    assert digests[0][0] == digests[1][0]
    assert digests[0][1] == digests[1][1]
    print("\nPASS criterion 9: repeated synth-data/train/evaluate runs produce "
          "bitwise-identical checkpoints and CSV reports")
