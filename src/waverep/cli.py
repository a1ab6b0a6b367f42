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
from .decoder import DecoderParameters, check_pair, decode_chunks, init_decoder
from .encoder import encode_chunks, encode_values, init_encoder
from .errors import DataError, NumericalError, finite
from .evaluation import evaluate, mixture_and_sources, oracle_separate, si_sdr
from .export import export_representation, write_csv
from .losses import DISTANCE_EXPONENTS, LOSS_VARIANTS, LossConfig, neg_snr
from .training import TrainConfig, train
from .wavio import write_wav

TRAIN_SEGMENT_LEN = SAMPLE_RATE
TRAIN_HOP = SAMPLE_RATE // 2


class UsageError(Exception):
    """A command line that a parser, or a command's settings check, refuses;
    ``parser`` is the parser that refused it, whose usage is printed."""

    def __init__(self, message: str, parser: argparse.ArgumentParser | None = None):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # an abbreviation that is unique today can become ambiguous, or name
        # another flag, once a flag is added, so flags are spelled in full
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        raise UsageError(message, self)

    def parse_known_args(self, args=None, namespace=None):
        # a command refuses the arguments it does not know itself, so that the
        # usage printed is its own rather than the root parser's
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected 'on' or 'off'")
    return value == "on"


def build_parser() -> _Parser:
    # the train, loss and --square-freq defaults and choices are read from
    # TrainConfig/LossConfig/DecoderParameters
    parser = _Parser(prog="waverep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's name -> its parser

    def add_model_flags(p):
        p.add_argument("--components", type=int, default=800, help="number of components C")
        p.add_argument("--stride", type=int, default=256, help="analysis/synthesis stride")
        p.add_argument("--kernel-len", type=int, default=2048, help="first-layer kernel length")
        p.add_argument("--kernel2-len", type=int, default=5, help="second-layer kernel length")
        p.add_argument("--dilation", type=int, default=10, help="second-layer dilation factor")
        p.add_argument("--square-freq", type=_on_off, default=DecoderParameters.square_freq,
                       metavar="{on,off}",
                       help="square the normalized carrier frequencies (default "
                            f"{'on' if DecoderParameters.square_freq else 'off'})")

    def add_loss_flags(p):
        p.add_argument("--loss", choices=LOSS_VARIANTS, default=TrainConfig.variant,
                       help="representation loss")
        p.add_argument("--omega", type=float, default=LossConfig.omega,
                       help="representation loss weight")
        p.add_argument("--lambda", dest="lam", type=float, default=LossConfig.lam,
                       help="Gibbs-kernel scale in K = exp(-lambda*M); the entropic "
                            "regularization strength is 1/lambda, so a smaller lambda "
                            "regularizes more")
        p.add_argument("--p", type=int, choices=DISTANCE_EXPONENTS, default=LossConfig.p,
                       help="pairwise frame-distance exponent")
        p.add_argument("--sinkhorn-iters", type=int, default=LossConfig.max_iters)
        p.add_argument("--tau", type=float, default=LossConfig.tau)

    p = sub.add_parser("synth-data", help="generate deterministic synthetic stems")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tracks", type=int, default=4)
    p.add_argument("--duration", type=float, default=6.0, help="seconds per stem")
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("train", help="train the autoencoder on paired stems")
    p.add_argument("--stems", required=True, help="directory of *_voice.wav / *_accomp.wav pairs")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--gaussian-std", type=float, default=TrainConfig.gaussian_std)
    p.add_argument("--early-stop", type=_on_off, default=TrainConfig.early_stop, metavar="{on,off}",
                   help="stop once the epoch-mean reconstruction loss stops falling")
    p.add_argument("--config", help="key=value config file; flags override it")
    add_loss_flags(p)
    add_model_flags(p)
    p.set_defaults(func=cmd_train)

    # the model commands: name, handler, positional inputs, help
    for name, func, inputs, help in (
        ("encode", cmd_encode, ["input"], "encode a WAV file, write the representation CSV"),
        ("reconstruct", cmd_reconstruct, ["input"], "encode+decode a WAV file"),
        ("separate", cmd_separate, ["voice", "accomp"],
         "oracle binary-mask separation of voice from a mixture"),
        ("export", cmd_export, ["input"], "export a representation as CSV + PGM image"),
    ):
        p = sub.add_parser(name, help=help)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--out", required=True)
        for arg in inputs:
            p.add_argument(arg)
        p.set_defaults(func=func)

    p = sub.add_parser("evaluate", help="segment-level metrics over paired stems")
    p.add_argument("--stems", required=True)
    p.add_argument("--out", required=True)
    frontend = p.add_mutually_exclusive_group(required=True)
    frontend.add_argument("--checkpoint")
    frontend.add_argument("--baseline", choices=("stft",), help="evaluate the STFT masking baseline")
    p.set_defaults(func=cmd_evaluate)

    for name, func, help in (
        ("grad-check", cmd_grad_check, "verify analytic gradients against finite differences"),
        ("ot-check", cmd_ot_check, "verify the Sinkhorn solver against brute-force transport"),
    ):
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)
    return parser


def _parse_with_config(parser: _Parser, argv: list[str]):
    """Parse argv with each key=value line of its --config file read as a
    --key=value flag placed before the command line, which therefore wins."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    path = Path(args.config)
    if not path.is_file():
        raise DataError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 text file ({exc})") from exc
    flags = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        flag = f"--{key.strip().replace('_', '-')}={value.strip()}"
        try:
            parser.parse_args([argv[0], flag] + argv[1:])
        except UsageError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        flags.append(flag)
    return parser.parse_args(argv[:1] + flags + argv[1:])


def _out_dir(args) -> Path:
    """Make the output directory and echo the resolved configuration into it."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"command={args.command}"] + [
        f"{key}={value}" for key, value in sorted(vars(args).items())
        if key not in ("func", "command", "config")]
    (out / "run_config.txt").write_text("\n".join(lines) + "\n")
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


def _write_estimate(args, label: str, ref: np.ndarray, est: np.ndarray, name: str) -> int:
    """Print ``label: <SI-SDR of est against ref>``, then write ``est`` as
    ``<out>/<name>`` and print its path: the estimate is scored before the
    output directory is made, so a failure leaves no output."""
    print(f"{label}: {_score_db(si_sdr, ref, est)}")
    wav_path = _out_dir(args) / name
    write_wav(wav_path, est)
    print(f"wrote {wav_path}")
    return 0


def _encode_input(args) -> tuple[np.ndarray, DecoderParameters]:
    """The float64 representation of ``args.input`` under ``args.checkpoint``,
    and the model's decoder, for ``encode`` and ``export``: read and computed
    before the output directory is made, so a failure leaves no output."""
    enc, dec = checkpoint.load_model(args.checkpoint)
    x = load_and_downmix(args.input)
    a = finite(f"{args.checkpoint} on {args.input}: the representation is not finite",
               lambda: encode_values(x, enc))
    return a, dec


def cmd_synth_data(args) -> int:
    # synth_data checks its settings before it makes the directory
    pairs = synth.synth_data(args.out, seed=args.seed, n_tracks=args.tracks, duration=args.duration)
    out = _out_dir(args)
    print(f"wrote {2 * len(pairs)} stems to {out}")
    return 0


def cmd_train(args) -> int:
    # settings and model are checked before any stem is read, stems before any output
    cfg = TrainConfig(
        batch_size=args.batch,
        epochs=args.epochs,
        variant=args.loss,
        loss=LossConfig(omega=args.omega, lam=args.lam, p=args.p,
                        max_iters=args.sinkhorn_iters, tau=args.tau),
        seed=args.seed,
        early_stop=args.early_stop,
        lr=args.lr,
        gaussian_std=args.gaussian_std,
    )
    enc = init_encoder(args.components, args.kernel_len, args.kernel2_len,
                       args.stride, args.dilation, seed=args.seed)
    dec = init_decoder(args.components, args.kernel_len, args.stride, args.square_freq)
    try:
        check_pair(enc, dec)
    except ValueError as exc:  # flags that do not describe one model
        raise UsageError(str(exc)) from exc
    voice_segs, accomp_segs = [], []
    for _, vp, ap in _discover_stems(args.stems):
        voice_segs.extend(segment(load_and_downmix(vp), TRAIN_SEGMENT_LEN, TRAIN_HOP))
        accomp_segs.extend(segment(load_and_downmix(ap), TRAIN_SEGMENT_LEN, TRAIN_HOP))
    voice_segs = [s for s in voice_segs if float(s @ s) > 0.0]
    if not voice_segs:
        raise DataError("all voice segments are silent")

    out = _out_dir(args)
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
    a, _ = _encode_input(args)
    csv_path = _out_dir(args) / (Path(args.input).stem + "_rep.csv")
    write_csv(csv_path, a)
    print(f"representation {a.shape[0]}x{a.shape[1]} ({a.shape[1]} frames) -> {csv_path}")
    return 0


def cmd_reconstruct(args) -> int:
    enc, dec = checkpoint.load_model(args.checkpoint, np.float32)
    x = load_and_downmix(args.input)
    xhat = finite(f"{args.checkpoint} on {args.input}: the decoded output is not finite in float32",
                  lambda: decode_chunks(encode_chunks(x, enc), dec, len(x)))
    print(f"neg-SNR: {_score_db(lambda r, e: neg_snr(r, e).value, x, xhat)}")
    return _write_estimate(args, "SI-SDR", x, xhat, Path(args.input).stem + "_recon.wav")


def cmd_separate(args) -> int:
    enc, dec = checkpoint.load_model(args.checkpoint, np.float32)
    voice = load_and_downmix(args.voice)
    accomp = load_and_downmix(args.accomp)
    n = min(len(voice), len(accomp))
    voice, accomp = voice[:n], accomp[:n]
    # the mixture is masked from its sources' pre-activations, block by block
    blocks = zip(*(encode_chunks(x, enc, linear=True) for x in (voice, accomp)))
    masked = (oracle_separate(*mixture_and_sources(*pair)) for pair in blocks)
    sep = finite(f"{args.checkpoint} on {args.voice} and {args.accomp}: the decoded output is "
                 "not finite in float32", lambda: decode_chunks(masked, dec, n))
    return _write_estimate(args, "SI-SDR (masked separation)", voice, sep,
                           Path(args.voice).stem + "_separated.wav")


def cmd_evaluate(args) -> int:
    enc = dec = None  # the STFT baseline
    if args.checkpoint is not None:
        enc, dec = checkpoint.load_model(args.checkpoint, np.float32)
    tracks = [
        (name, load_and_downmix(vp), load_and_downmix(ap))
        for name, vp, ap in _discover_stems(args.stems)
    ]
    # a stem set with no active voice segment fails before any output
    report = evaluate(tracks, enc, dec)
    out = _out_dir(args)
    report.to_csv(out / "report.csv")
    (out / "summary.txt").write_text(report.summary() + "\n")
    print(report.summary())
    return 0


def cmd_export(args) -> int:
    a, dec = _encode_input(args)
    csv_path, pgm_path = export_representation(a, _out_dir(args) / Path(args.input).stem, dec.freq)
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
    args = None
    try:
        args = _parse_with_config(parser, argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        # the parser that refused the command line, else the command that refused its settings
        (exc.parser or parser.commands[args.command]).print_usage(sys.stderr)
        return 1
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
