"""Command-line front end.

Subcommands: synth-data, train, encode, reconstruct, separate, evaluate,
export, grad-check, ot-check.  Exit codes: 0 success, 1 usage error, 2 data
error, 3 numerical failure.  Every command that writes outputs echoes its
resolved configuration into the output directory for reproducibility.

Flags take precedence over an optional key=value config file (--config):
keys use the flag spelling without the leading dashes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import checkpoint, diagnostics, synth
from .dataset import SAMPLE_RATE, load_and_downmix, segment
from .decoder import decode_chunks, init_decoder
from .encoder import encode_chunks, encode_values, init_encoder, num_frames
from .errors import DataError, NumericalError
from .evaluation import evaluate, oracle_separate, si_sdr
from .export import export_representation
from .losses import LossConfig, neg_snr
from .training import TrainConfig, train
from .wavio import write_wav

TRAIN_SEGMENT_LEN = SAMPLE_RATE
TRAIN_HOP = SAMPLE_RATE // 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # an abbreviated flag would slip past the config file's exact-spelling
        # match and let the file override it, so abbreviations are refused
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        raise UsageError(message)


def _on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected 'on' or 'off'")
    return value == "on"


def build_parser() -> _Parser:
    parser = _Parser(prog="waverep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--components", type=int, default=800, help="number of components C")
        p.add_argument("--stride", type=int, default=256, help="analysis/synthesis stride")
        p.add_argument("--kernel-len", type=int, default=2048, help="first-layer kernel length")
        p.add_argument("--kernel2-len", type=int, default=5, help="second-layer kernel length")
        p.add_argument("--dilation", type=int, default=10, help="second-layer dilation factor")
        p.add_argument("--square-freq", type=_on_off, default=True, metavar="{on,off}",
                       help="square the normalized carrier frequencies (default on)")

    def add_loss_flags(p):
        p.add_argument("--loss", choices=("tv", "sinkhorn"), default="tv",
                       help="representation loss")
        p.add_argument("--omega", type=float, default=1.0, help="representation loss weight")
        p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                       help="Gibbs-kernel scale in K = exp(-lambda*M); the entropic "
                            "regularization strength is 1/lambda, so a smaller lambda "
                            "regularizes more")
        p.add_argument("--p", type=int, choices=(1, 2), default=1,
                       help="pairwise frame-distance exponent")
        p.add_argument("--sinkhorn-iters", type=int, default=100)
        p.add_argument("--tau", type=float, default=1e-6)

    p = sub.add_parser("synth-data", help="generate deterministic synthetic stems")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tracks", type=int, default=4)
    p.add_argument("--duration", type=float, default=6.0, help="seconds per stem")
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("train", help="train the autoencoder on paired stems")
    p.add_argument("--stems", required=True, help="directory of *_voice.wav / *_accomp.wav pairs")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--gaussian-std", type=float, default=1e-4)
    p.add_argument("--no-early-stop", action="store_true")
    p.add_argument("--config", help="key=value config file; flags override it")
    add_loss_flags(p)
    add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode a WAV file, write the representation CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("input")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("reconstruct", help="encode+decode a WAV file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("input")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("separate", help="oracle binary-mask separation of voice from a mixture")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("voice")
    p.add_argument("accomp")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("evaluate", help="segment-level metrics over paired stems")
    p.add_argument("--stems", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--baseline", choices=("stft",), help="evaluate the STFT masking baseline")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export", help="export a representation as CSV + PGM image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("input")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("grad-check", help="verify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("ot-check", help="verify the Sinkhorn solver against brute-force transport")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ot_check)
    return parser


def _apply_config_file(args, argv: list[str]) -> None:
    """Fill in values from a key=value file for flags absent from argv."""
    if getattr(args, "config", None) is None:
        return
    path = Path(args.config)
    if not path.is_file():
        raise DataError(f"config file not found: {path}")
    casts = {
        "loss": str, "omega": float, "lam": float, "p": int,
        "sinkhorn_iters": int, "tau": float,
        "epochs": int, "batch": int, "seed": int, "lr": float,
        "gaussian_std": float, "components": int, "stride": int,
        "kernel_len": int, "kernel2_len": int, "dilation": int,
        "square_freq": _on_off,
    }
    alias = {"lambda": "lam"}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        dest = alias.get(key.strip(), key.strip().replace("-", "_"))
        if dest not in casts:
            raise DataError(f"{path}:{lineno}: unknown config key {key.strip()!r}")
        flag = "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")
        if any(tok == flag or tok.startswith(flag + "=") for tok in argv):
            continue  # explicit flag wins
        try:
            setattr(args, dest, casts[dest](value.strip()))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DataError(f"{path}:{lineno}: bad value for {key.strip()!r}: {exc}") from exc


def _echo_config(out_dir: Path, args) -> None:
    skip = {"func", "command", "config"}
    lines = [f"command={args.command}"]
    for key in sorted(vars(args)):
        if key in skip:
            continue
        lines.append(f"{key}={getattr(args, key)}")
    (out_dir / "run_config.txt").write_text("\n".join(lines) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(out, args)
    return out


def _discover_stems(stems_dir) -> list[tuple[str, Path, Path]]:
    stems_dir = Path(stems_dir)
    if not stems_dir.is_dir():
        raise DataError(f"stems directory not found: {stems_dir}")
    pairs = []
    for voice_path in sorted(stems_dir.glob("*_voice.wav")):
        accomp_path = voice_path.with_name(voice_path.name.replace("_voice.wav", "_accomp.wav"))
        if not accomp_path.is_file():
            raise DataError(f"missing accompaniment stem for {voice_path.name}")
        pairs.append((voice_path.name[: -len("_voice.wav")], voice_path, accomp_path))
    if not pairs:
        raise DataError(f"no *_voice.wav stems found in {stems_dir}")
    return pairs


def _score_db(metric, ref: np.ndarray, est: np.ndarray) -> str:
    """``metric(ref, est)`` in dB; a silent stem is valid input that no ratio can score."""
    if float(ref @ ref) == 0.0:
        return "n/a (silent reference)"
    return f"{float(metric(ref, est)):.3f} dB"


def cmd_synth_data(args) -> int:
    out = _out_dir(args)
    pairs = synth.synth_data(out, seed=args.seed, n_tracks=args.tracks, duration=args.duration)
    print(f"wrote {2 * len(pairs)} stems to {out}")
    return 0


def cmd_train(args) -> int:
    # the settings are checked before any stem is read or output written
    cfg = TrainConfig(
        batch_size=args.batch,
        epochs=args.epochs,
        variant=args.loss,
        loss=LossConfig(omega=args.omega, lam=args.lam, p=args.p,
                        max_iters=args.sinkhorn_iters, tau=args.tau),
        seed=args.seed,
        early_stop=not args.no_early_stop,
        lr=args.lr,
        gaussian_std=args.gaussian_std,
    )
    out = _out_dir(args)
    voice_segs, accomp_segs = [], []
    for _, vp, ap in _discover_stems(args.stems):
        voice_segs.extend(segment(load_and_downmix(vp), TRAIN_SEGMENT_LEN, TRAIN_HOP))
        accomp_segs.extend(segment(load_and_downmix(ap), TRAIN_SEGMENT_LEN, TRAIN_HOP))
    voice_segs = [s for s in voice_segs if float(s @ s) > 0.0]
    if not voice_segs:
        raise DataError("all voice segments are silent")

    enc = init_encoder(args.components, args.kernel_len, args.kernel2_len,
                       args.stride, args.dilation, seed=args.seed)
    dec = init_decoder(args.components, args.kernel_len, args.stride, args.square_freq)
    result = train(voice_segs, accomp_segs, enc, dec, cfg,
                   log_path=out / "train_log.jsonl",
                   checkpoint_path=out / "checkpoint.bin")
    print(f"trained {result.epochs_run} epochs on {len(voice_segs)} voice segments"
          + (" (early stop)" if result.early_stopped else ""))
    print("epoch-mean neg-SNR (dB):",
          " ".join(f"{m:.3f}" for m in result.epoch_mean_neg_snr))
    print(f"checkpoint: {out / 'checkpoint.bin'}")
    return 0


def cmd_encode(args) -> int:
    out = _out_dir(args)
    enc, _ = checkpoint.load_model(args.checkpoint)
    x = load_and_downmix(args.input)
    a = encode_values(x, enc)
    csv_path = out / (Path(args.input).stem + "_rep.csv")
    np.savetxt(csv_path, a, delimiter=",", fmt="%.10g")
    print(f"representation {a.shape[0]}x{a.shape[1]} "
          f"({num_frames(len(x), enc.stride)} frames) -> {csv_path}")
    return 0


def cmd_reconstruct(args) -> int:
    out = _out_dir(args)
    enc, dec = checkpoint.load_model(args.checkpoint)
    x = load_and_downmix(args.input)
    xhat = decode_chunks(encode_chunks(x, enc), dec, len(x))
    wav_path = out / (Path(args.input).stem + "_recon.wav")
    write_wav(wav_path, xhat)
    print(f"neg-SNR: {_score_db(lambda r, e: neg_snr(r, e).value, x, xhat)}")
    print(f"SI-SDR: {_score_db(si_sdr, x, xhat)}")
    print(f"wrote {wav_path}")
    return 0


def cmd_separate(args) -> int:
    out = _out_dir(args)
    enc, dec = checkpoint.load_model(args.checkpoint)
    voice = load_and_downmix(args.voice)
    accomp = load_and_downmix(args.accomp)
    n = min(len(voice), len(accomp))
    voice, accomp = voice[:n], accomp[:n]
    streams = zip(*(encode_chunks(x, enc) for x in (voice + accomp, voice, accomp)))
    sep = decode_chunks(((t0, oracle_separate(z_m, z_v, z_ac))
                         for (t0, z_m), (_, z_v), (_, z_ac) in streams), dec, n)
    wav_path = out / (Path(args.voice).stem + "_separated.wav")
    write_wav(wav_path, sep)
    print(f"SI-SDR (masked separation): {_score_db(si_sdr, voice, sep)}")
    print(f"wrote {wav_path}")
    return 0


def cmd_evaluate(args) -> int:
    if (args.checkpoint is None) == (args.baseline is None):
        raise UsageError("evaluate needs exactly one of --checkpoint or --baseline")
    out = _out_dir(args)
    tracks = [
        (name, load_and_downmix(vp), load_and_downmix(ap))
        for name, vp, ap in _discover_stems(args.stems)
    ]
    if args.baseline:
        report = evaluate(tracks, baseline=True)
    else:
        enc, dec = checkpoint.load_model(args.checkpoint)
        report = evaluate(tracks, enc, dec)
    report.to_csv(out / "report.csv")
    (out / "summary.txt").write_text(report.summary() + "\n")
    print(report.summary())
    return 0


def cmd_export(args) -> int:
    out = _out_dir(args)
    enc, dec = checkpoint.load_model(args.checkpoint)
    x = load_and_downmix(args.input)
    a = encode_values(x, enc)
    csv_path, pgm_path = export_representation(a, out / Path(args.input).stem, dec.freq)
    print(f"wrote {csv_path} and {pgm_path}")
    return 0


def cmd_grad_check(args) -> int:
    report = diagnostics.grad_check_report(seed=args.seed)
    for name in sorted(report):
        print(f"{name}: {report[name]:.3e}")
    worst = max(report.values())
    ok = worst < diagnostics.GRAD_TOLERANCE
    print(f"max relative error: {worst:.3e} (tolerance {diagnostics.GRAD_TOLERANCE:g}) "
          f"-> {'OK' if ok else 'FAIL'}")
    return 0 if ok else 3


def cmd_ot_check(args) -> int:
    report = diagnostics.ot_check_report(seed=args.seed)
    print(f"assignment gap at strong regularization: {report['assignment_gap']:.3%}")
    print(f"transport cost >= exact optimum for all strengths: {report['never_undershoots']}")
    print(f"worst row-sum spread: {report['row_sum_spread']:.3e}")
    print(f"worst col-sum spread: {report['col_sum_spread']:.3e}")
    print("OK" if report["ok"] else "FAIL")
    return 0 if report["ok"] else 3


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args, argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
