"""One workload session in a fresh interpreter; ``run.py`` spawns it.

Set-up is everything a user pays before the first useful result: the
interpreter, ``import waverep``, loading the training stems and loading the
init checkpoint.  With ``--setup-only`` the session stops there.

Otherwise the session runs ``round(--seconds / round_s)`` rounds of its
workload's phases (train, evaluate, evaluate --baseline stft, reconstruct +
separate), checks every output, and prints one JSON object as its last line
of standard output.  With ``--trace 1`` each phase instead runs untraced,
traced and untraced again; all three must write identical bytes, and the
traced pass yields the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import resource
import statistics
import struct
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from waverep import checkpoint, cli, dataset, decoder, encoder, losses, training  # noqa: E402

import reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import BATCH, LAM, LR, P, PHASES, WORKLOADS, Workload  # noqa: E402

SAMPLE_RATE = 44100
SEGMENT = SAMPLE_RATE        # `evaluate` cuts 1 s segments
ACTIVE_DB = -10.0            # `evaluate`'s default activity threshold
ENTRY_POINTS = ("training.train", "cli.run")

#: layer functions the per-layer metrics read; a missing one is reported
REQUIRED = (
    "encoder.conv1", "encoder.conv2_dilated", "encoder.relu_residual", "encoder.encode",
    "decoder.build_kernels", "decoder.synthesize",
    "losses.pairwise_cost", "losses.sinkhorn_loss", "losses.sinkhorn_plan",
    "losses.normalize_simplex", "losses.tv_loss", "losses.neg_snr",
    "training.adam_step", "training.train",
    "dataset.make_training_pairs", "dataset.load_and_downmix", "dataset.segment",
    "evaluation.evaluate", "evaluation.oracle_separate", "evaluation.additivity",
    "evaluation.stft", "evaluation.istft", "evaluation.w_do", "evaluation.si_sdr",
    "wavio.read_wav", "wavio.write_wav", "checkpoint.load_model", "checkpoint.save_model",
    "cli.run",
)


def read_mono_f32(path) -> np.ndarray:
    """Samples of a mono IEEE-float32 WAV file, parsed without the package."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a WAV file")
    fmt = data = None
    pos = 12
    while pos + 8 <= len(blob):
        cid, size = struct.unpack_from("<4sI", blob, pos)
        if cid == b"fmt ":
            fmt = blob[pos + 8 : pos + 8 + size]
        elif cid == b"data":
            data = blob[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    tag, channels, _, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
    if (tag, channels, bits) != (3, 1, 32):
        raise ValueError(f"{path}: expected mono float32, got tag {tag}, {channels} ch, {bits} bit")
    return np.frombuffer(data, dtype="<f4").astype(np.float64)


def active_segments(voice: np.ndarray) -> int:
    """Segments `evaluate` keeps: 1 s, zero-padded, at least -10 dB energy."""
    count = 0
    for start in range(0, voice.size, SEGMENT):
        x = voice[start : start + SEGMENT]
        count += 10.0 * math.log10(float(x @ x) + 1e-24) >= ACTIVE_DB
    return count


def read_report(path) -> list[dict[str, float]]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [{k: (float(v) if i > 1 else v) for i, (k, v) in enumerate(zip(header, line.split(",")))}
            for line in lines[1:]]


@dataclasses.dataclass
class Rep:
    seconds: float             # timed wall time
    rate: float                # work per second
    digest: str                # hash of every output the rep wrote
    quality: float = math.nan


class Session:
    def __init__(self, workload: Workload, work: Path, seed: int):
        self.w = workload
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.model_segments = 0
        self.reps: dict[str, list[Rep]] = {}
        self.tracer: Tracer | None = None
        # set-up: the training pools and the init parameters
        voice, accomp = [], []
        for vp in sorted((work / "train").glob("*_voice.wav")):
            ap = vp.with_name(vp.name.replace("_voice", "_accomp"))
            voice += dataset.segment(dataset.load_and_downmix(vp), SEGMENT, SEGMENT)
            accomp += dataset.segment(dataset.load_and_downmix(ap), SEGMENT, SEGMENT)
        self.voice, self.accomp = voice, accomp
        self.init = work / "init.bin"
        train_init = work / "init_train.bin"
        self.enc0, self.dec0 = checkpoint.load_model(train_init if train_init.exists() else self.init)
        self.trained = work / "trained.bin"
        self.eval_dir = work / "eval"
        self.long_voice = work / "long" / "track00_voice.wav"
        self.long_accomp = work / "long" / "track00_accomp.wav"

    # -- bookkeeping ------------------------------------------------------
    def tally(self, ops: int, problems: list[str]) -> None:
        """Count ``ops`` attempted; all of them fail if any check failed."""
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems += problems

    def same_output(self, key: str, digest: str) -> list[str]:
        """Every repetition of a phase must write the same bytes."""
        if self.digests.setdefault(key, digest) != digest:
            return [f"{key}: output bytes differ between repetitions"]
        return []

    def quiet_cli(self, argv: list) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.run([str(a) for a in argv])

    def timed(self, fn):
        """``(fn(), seconds)``; traced when ``self.tracer`` is set, so that the
        spans cover exactly the timed region.  ``fn`` looks the program's
        functions up when called, so it reaches the tracer's wrappers."""
        if self.tracer is not None:
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()

    # -- phases -----------------------------------------------------------
    def train(self) -> Rep:
        w = self.w
        enc = dataclasses.replace(self.enc0, kernels=self.enc0.kernels.copy(),
                                  dilated_kernels=self.enc0.dilated_kernels.copy())
        dec = dataclasses.replace(self.dec0, freq=self.dec0.freq.copy(),
                                  phase=self.dec0.phase.copy(), modulator=self.dec0.modulator.copy())
        cfg = training.TrainConfig(
            batch_size=BATCH, epochs=w.epochs, variant=w.loss, seed=self.seed,
            early_stop=False, lr=LR, loss=losses.LossConfig(lam=LAM, p=P),
        )
        steps = w.epochs * -(-len(self.voice) // BATCH)
        try:
            result, dt = self.timed(lambda: training.train(
                self.voice, self.accomp, enc, dec, cfg,
                log_path=self.work / "train_log.jsonl", checkpoint_path=self.trained))
        except Exception as exc:  # a program failure is a counted failure, not a crash
            self.tally(steps, [f"train raised {exc!r}"])
            return Rep(math.nan, math.nan, "")

        problems = []
        means = result.epoch_mean_neg_snr
        if len(result.history) != steps or len(means) != w.epochs + 1:
            problems.append(f"train: {len(result.history)} step records and {len(means)} epoch means")
        if not all(math.isfinite(v) for rec in result.history for v in rec.values()):
            problems.append("train: a history record has a non-finite value")
        if not (means[-1] < means[0]):
            problems.append(f"train: final neg-SNR {means[-1]:.3f} dB is not below "
                            f"the baseline {means[0]:.3f} dB")
        digest = hashlib.sha256(self.trained.read_bytes()).hexdigest()
        self.tally(steps, problems + self.same_output("train", digest))
        # residual energy left after training, relative to the pre-training pass
        residual = 10.0 ** ((means[-1] - means[0]) / 10.0)
        return Rep(dt, len(self.voice) * w.epochs / dt, digest, residual)

    def evaluate(self, baseline: bool) -> Rep:
        key = "eval_stft" if baseline else "eval"
        out = self.work / key
        source = ["--baseline", "stft"] if baseline else ["--checkpoint", self.init]
        expected = sum(active_segments(read_mono_f32(p)) for p in sorted(self.eval_dir.glob("*_voice.wav")))
        rc, dt = self.timed(lambda: self.quiet_cli(["evaluate", "--stems", self.eval_dir, "--out", out, *source]))
        if rc != 0:
            self.tally(1 + expected, [f"{key}: exit code {rc}"])
            return Rep(dt, math.nan, "")
        blob = (out / "report.csv").read_bytes()
        rows = read_report(out / "report.csv")
        digest = hashlib.sha256(blob).hexdigest()
        problems = self.same_output(key, digest)
        if len(rows) != expected:
            problems.append(f"{key}: {len(rows)} report rows, {expected} active segments")
        self.tally(1 + expected, problems)
        if not baseline:
            self.model_segments = len(rows)
        column = "si_sdr_bm" if baseline else "additivity"
        return Rep(dt, len(rows) / dt, digest, statistics.median(r[column] for r in rows))

    def infer(self) -> Rep:
        out = self.work / "infer"
        (rc_rec, rc_sep), dt = self.timed(lambda: (
            self.quiet_cli(["reconstruct", "--checkpoint", self.init, "--out", out, self.long_voice]),
            self.quiet_cli(["separate", "--checkpoint", self.init, "--out", out,
                            self.long_voice, self.long_accomp])))
        if rc_rec != 0 or rc_sep != 0:
            self.tally(2, [f"reconstruct / separate: exit codes {rc_rec} / {rc_sep}"])
            return Rep(dt, math.nan, "")
        n_voice = read_mono_f32(self.long_voice).size
        n_mix = min(n_voice, read_mono_f32(self.long_accomp).size)
        problems = []
        digest = hashlib.sha256()
        for name, n in (("track00_voice_recon.wav", n_voice), ("track00_voice_separated.wav", n_mix)):
            got = read_mono_f32(out / name).size
            if got != n:
                problems.append(f"{name}: {got} samples, the input has {n}")
            digest.update((out / name).read_bytes())
        self.tally(2, problems + self.same_output("infer", digest.hexdigest()))
        return Rep(dt, 2 * self.w.long_s / dt, digest.hexdigest())

    def run_phase(self, phase: str) -> Rep:
        if phase == "train":
            return self.train()
        if phase in ("eval", "eval_stft"):
            return self.evaluate(baseline=phase == "eval_stft")
        return self.infer()

    def reference_check(self) -> None:
        """encode -> decode of a 1 s excerpt against the formulas in PAPER.md."""
        enc, dec = checkpoint.load_model(self.init)
        x = read_mono_f32(next(iter(sorted(self.eval_dir.glob("*_voice.wav")))))[:SAMPLE_RATE]
        a = encoder.encode_values(x, enc)
        y = decoder.decode_values(a, dec, x.size)
        a_ref = reference.encode(x, enc.kernels, enc.dilated_kernels, enc.stride, enc.dilation)
        y_ref = reference.decode(a_ref, dec.freq, dec.phase, dec.modulator, dec.stride, x.size, dec.square_freq)
        err = max(reference.rel_error(a, a_ref), reference.rel_error(y, y_ref))
        self.tally(1, [] if err <= reference.REL_TOL else
                   [f"encode/decode differ from the reference by {err:.3e} (tolerance {reference.REL_TOL:g})"])


# -- measured and traced runs ---------------------------------------------

def measure(session: Session, seconds: float) -> dict[str, tuple[float, str]]:
    """Run ``seconds / round_s`` rounds of every phase, at least one."""
    reps = session.reps = {phase: [] for phase in PHASES}
    for _ in range(max(1, round(seconds / session.w.round_s))):
        for phase, count in zip(PHASES, session.w.per_round):
            for _ in range(count):
                reps[phase].append(session.run_phase(phase))
    session.reference_check()

    def median_rate(phase):
        rates = [r.rate for r in reps[phase] if math.isfinite(r.rate)]
        return statistics.median(rates) if rates else math.nan

    return {
        "train_items_per_s": (median_rate("train"), "items/s"),
        "train_residual_ratio": (reps["train"][0].quality, "ratio"),
        "eval_segments_per_s": (median_rate("eval"), "segments/s"),
        "infer_audio_s_per_s": (median_rate("infer"), "s/s"),
        "eval_additivity": (reps["eval"][0].quality, "ratio"),
        "eval_stft_si_sdr_bm_db": (reps["eval_stft"][0].quality, "dB"),
    }


def _conv1_flops(args, out):
    kern, tape = args.get("kernels"), args.get("tape")
    if kern is None or out is None:
        return {}
    c, length = kern.value.shape
    flop = 2.0 * c * length * out.value.shape[1]
    return {"flop_fwd": flop, "flop_bwd": flop if tape is not None else 0.0}


def _conv2_flops(args, out):
    kern, tape = args.get("kernels"), args.get("tape")
    if kern is None or out is None:
        return {}
    c_out, taps, c_in = kern.value.shape
    flop = 2.0 * c_out * taps * c_in * out.value.shape[1]
    return {"flop_fwd": flop, "flop_bwd": 2.0 * flop if tape is not None else 0.0}


def _plan_stats(args, plan):
    return {"iters": getattr(plan, "iterations", 0), "converged": float(getattr(plan, "converged", 0))}


def _read_mib(args, result):
    path = args.get("path")
    return {"mib": Path(path).stat().st_size / 2**20} if path is not None else {}


HOOKS = {
    "encoder.conv1": _conv1_flops,
    "encoder.conv2_dilated": _conv2_flops,
    "losses.sinkhorn_plan": _plan_stats,
    "wavio.read_wav": _read_mib,
}


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float,
                  trained_items: int, model_segments: int) -> dict[str, tuple[float, str]]:
    st = tracer.stats()
    notes = tracer.notes

    def self_s(name, kind="call"):
        s = st.get((name, kind))
        return s.self_s if s else 0.0

    def total_s(name):
        s = st.get((name, "call"))
        return s.total_s if s else 0.0

    def calls(name):
        s = st.get((name, "call"))
        return s.calls if s else 0

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for fn in ("encoder.conv1", "encoder.conv2_dilated", "encoder.relu_residual",
               "decoder.build_kernels", "decoder.synthesize", "losses.normalize_simplex",
               "losses.tv_loss", "losses.neg_snr"):
        m[f"{fn}.fwd_s"] = (self_s(fn), "s")
        m[f"{fn}.bwd_s"] = (self_s(fn, "bwd"), "s")
    for fn in ("encoder.conv1", "encoder.conv2_dilated"):
        flop = notes[f"{fn}.flop_fwd"] + notes[f"{fn}.flop_bwd"]
        m[f"{fn}.gflops"] = (ratio(flop, self_s(fn) + self_s(fn, "bwd")) / 1e9, "GFLOP/s")
    m["encoder.encode.calls"] = (calls("encoder.encode"), "count")
    m["decoder.build_kernels.calls"] = (calls("decoder.build_kernels"), "count")
    recorded = st.get(("decoder.build_kernels", "call"))
    m["decoder.build_kernels.per_step"] = (
        ratio(recorded.recorded if recorded else 0, calls("training.adam_step")), "count")
    plans = calls("losses.sinkhorn_plan")
    m["losses.pairwise_cost.s"] = (total_s("losses.pairwise_cost"), "s")
    m["losses.sinkhorn_loss.bwd_s"] = (self_s("losses.sinkhorn_loss", "bwd"), "s")
    m["losses.sinkhorn_plan.s"] = (total_s("losses.sinkhorn_plan"), "s")
    m["losses.sinkhorn_plan.iters_mean"] = (ratio(notes["losses.sinkhorn_plan.iters"], plans), "count")
    m["losses.sinkhorn_plan.converged_frac"] = (ratio(notes["losses.sinkhorn_plan.converged"], plans), "ratio")
    m["autodiff.Tape.record.per_item"] = (ratio(notes["autodiff.Tape.record.calls"], trained_items), "count")
    m["autodiff.Tape.backward.s"] = (total_s("autodiff.Tape.backward"), "s")
    m["training.adam_step.calls"] = (calls("training.adam_step"), "count")
    m["training.adam_step.s"] = (total_s("training.adam_step"), "s")
    m["training.train.self_s"] = (self_s("training.train"), "s")
    for fn in ("dataset.make_training_pairs", "dataset.load_and_downmix", "dataset.segment",
               "evaluation.oracle_separate", "evaluation.additivity", "evaluation.stft",
               "evaluation.istft", "evaluation.w_do", "evaluation.si_sdr",
               "wavio.read_wav", "wavio.write_wav", "checkpoint.load_model", "checkpoint.save_model"):
        m[f"{fn}.s"] = (total_s(fn), "s")
    in_eval = tracer.stats(under="evaluation.evaluate").get(("encoder.encode", "call"))
    m["evaluation.evaluate.encodes_per_segment"] = (
        ratio(in_eval.calls if in_eval else 0, model_segments), "count")
    m["wavio.read_wav.mib"] = (notes["wavio.read_wav.mib"], "MiB")
    m["cli.run.self_s"] = (self_s("cli.run"), "s")

    # module shares of the whole traced session, and of the train() calls alone
    for key, stats, wall in (("share", st, traced_s),
                             ("train_share", tracer.stats(under="training.train"),
                              total_s("training.train"))):
        by_module: dict[str, float] = {}
        for (name, _), s in stats.items():
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + s.self_s
        for module in ("encoder", "decoder", "losses", "autodiff", "training", "dataset",
                       "evaluation", "wavio", "checkpoint", "cli"):
            m[f"trace.{key}.{module}"] = (ratio(by_module.get(module, 0.0), wall), "ratio")
    named = sum(s.self_s for (name, _), s in st.items() if name not in ENTRY_POINTS)
    m["trace.coverage_frac"] = (ratio(named, traced_s), "ratio")
    m["trace.overhead_frac"] = (ratio(traced_s - untraced_s, untraced_s), "ratio")
    return m


def trace(session: Session) -> dict[str, tuple[float, str]]:
    """Each phase untraced, traced, untraced again: all three must write the
    same bytes, and the overhead compares the traced pass with the mean of
    the untraced ones (which brackets the warm-up of the first)."""
    untraced = traced = 0.0
    tracer = Tracer(required=REQUIRED, hooks=HOOKS)
    for phase in PHASES:
        before = session.run_phase(phase)
        session.tracer = tracer
        try:
            spanned = session.run_phase(phase)
        finally:
            session.tracer = None
        after = session.run_phase(phase)
        untraced += (before.seconds + after.seconds) / 2
        traced += spanned.seconds
        session.tally(1, [] if before.digest == spanned.digest == after.digest else
                      [f"{phase}: traced and untraced runs wrote different bytes"])
    session.reference_check()
    for name in tracer.missing:
        print(f"perfbench: traced name {name} no longer exists; its metrics read 0", file=sys.stderr)
    return layer_metrics(tracer, traced, untraced,
                         len(session.voice) * session.w.epochs, session.model_segments)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", required=True, type=float,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    session = Session(WORKLOADS[args.workload], args.work, args.seed)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    metrics = trace(session) if args.trace else measure(session, args.seconds)
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "samples": {phase: [r.rate for r in reps] for phase, reps in session.reps.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
