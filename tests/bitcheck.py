"""Run one CLI session in two source trees and list every output that differs.

Usage, from anywhere::

    python tests/bitcheck.py PARENT_TREE CHANGE_TREE

Each tree is a checkout with a ``src/`` directory.  For each tree the script
runs ``python -m waverep`` on that tree's ``src/``, in a fresh directory and
with relative paths, so that the two sessions see the same arguments:

- ``synth-data``: two 3 s stem pairs, and one 18 s pair;
- ``train`` at desk scale (C=128, L=512, stride 128) and at paper scale
  (C=800, L=2048, stride 256), each with the TV term and with the Sinkhorn
  term at p=1, one epoch, early stopping off, and three more at desk scale
  with the Sinkhorn term (train only): at ``--lambda 5000``, where the Gibbs
  kernel underflows and the log's ``saturation`` is not 0; at ``--lambda 5``,
  where a plan takes tens of iterations; and at ``--p 2 --lambda 50``, where
  every plan stops unconverged at the iteration cap;
- with each trained checkpoint: ``reconstruct``, ``separate``, ``export``
  and ``evaluate --checkpoint``, and ``reconstruct`` and ``separate`` of the
  18 s pair, which streams at least 4 blocks of 1024 frames at either scale
  where a 3 s stem is one block (only WAVs: ``export``'s CSV would be about
  40 MB at that length);
- ``evaluate --baseline stft``, ``grad-check`` and ``ot-check``.

Each command's standard output, standard error and exit code are saved as
files beside its outputs.  Every file of the two sessions is then compared
byte for byte: each one that differs, or exists in one session only, is
printed.  For a differing checkpoint (``.bin``) or WAV file in both sessions,
each array that differs is printed below it with its largest absolute
difference and that difference relative to the parent's largest magnitude in
the array; the files are read with CHANGE_TREE's ``waverep``.  The exit code
is 0 when no file differs, 1 when one does and 2 on a usage error.  pytest
does not collect this script; a session takes about 40 s on two cores.

The CSVs and the checks' reports print 10 and 4 significant digits, so a
float64 change below that shows in no file: the unit tests that compare
bits (conv2 against its padded form, build_kernels against whole arrays)
cover the library path.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SCALES = {
    "desk": ["--components", "128", "--stride", "128", "--kernel-len", "512"],
    "paper": ["--components", "800", "--stride", "256", "--kernel-len", "2048"],
}
LOSSES = {"tv": ["--loss", "tv"], "sinkhorn": ["--loss", "sinkhorn", "--p", "1"]}
VOICE, ACCOMP = "stems/track00_voice.wav", "stems/track00_accomp.wav"
LONG_VOICE, LONG_ACCOMP = "long-stems/track00_voice.wav", "long-stems/track00_accomp.wav"


def commands() -> list[tuple[str, list[str]]]:
    """The session: (name, waverep arguments) in the order they run."""
    cmds = [("synth-data", ["synth-data", "--out", "stems", "--seed", "7", "--tracks", "2",
                            "--duration", "3"]),
            ("synth-data-long", ["synth-data", "--out", "long-stems", "--seed", "8", "--tracks",
                                 "1", "--duration", "18"])]
    for scale, scale_args in SCALES.items():
        for loss, loss_args in LOSSES.items():
            run = f"{scale}-{loss}"
            ckpt = ["--checkpoint", f"{run}/train/checkpoint.bin"]
            cmds += [
                (f"{run}-train", ["train", "--stems", "stems", "--out", f"{run}/train", "--epochs",
                                  "1", "--early-stop", "off", *loss_args, *scale_args]),
                (f"{run}-reconstruct", ["reconstruct", *ckpt, "--out", f"{run}/rec", VOICE]),
                (f"{run}-separate", ["separate", *ckpt, "--out", f"{run}/sep", VOICE, ACCOMP]),
                (f"{run}-export", ["export", *ckpt, "--out", f"{run}/img", VOICE]),
                (f"{run}-evaluate", ["evaluate", *ckpt, "--stems", "stems", "--out", f"{run}/eval"]),
                (f"{run}-reconstruct-long", ["reconstruct", *ckpt, "--out", f"{run}/rec-long",
                                             LONG_VOICE]),
                (f"{run}-separate-long", ["separate", *ckpt, "--out", f"{run}/sep-long",
                                          LONG_VOICE, LONG_ACCOMP]),
            ]
    for run, loss_args in (("lambda5000", [*LOSSES["sinkhorn"], "--lambda", "5000"]),
                           ("lambda5", [*LOSSES["sinkhorn"], "--lambda", "5"]),
                           ("p2-lambda50", ["--loss", "sinkhorn", "--p", "2", "--lambda", "50"])):
        cmds.append((f"desk-sinkhorn-{run}-train",
                     ["train", "--stems", "stems", "--out", f"desk-sinkhorn-{run}/train", "--epochs",
                      "1", "--early-stop", "off", *loss_args, *SCALES["desk"]]))
    return cmds + [
        ("evaluate-stft", ["evaluate", "--baseline", "stft", "--stems", "stems", "--out", "eval-stft"]),
        ("grad-check", ["grad-check"]),
        ("ot-check", ["ot-check"]),
    ]


def session(tree: Path, work: Path) -> None:
    """Run every command with ``tree``'s sources in ``work``, logging each one under ``logs/``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    logs = work / "logs"
    logs.mkdir(parents=True)
    for name, args in commands():
        proc = subprocess.run([sys.executable, "-m", "waverep", *args], cwd=work, env=env,
                              capture_output=True)
        (logs / f"{name}.stdout").write_bytes(proc.stdout)
        (logs / f"{name}.stderr").write_bytes(proc.stderr)
        (logs / f"{name}.exit").write_text(f"{proc.returncode}\n")


def differing(a: Path, b: Path) -> list[str]:
    """Relative paths of the files that differ between the trees ``a`` and ``b``."""
    files = {p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()}
    return sorted(str(f) for f in files
                  if not ((a / f).is_file() and (b / f).is_file()
                          and (a / f).read_bytes() == (b / f).read_bytes()))


def array_gaps(a: Path, b: Path) -> list[str]:
    """One line per array that differs between the checkpoints or WAV files
    ``a`` and ``b``: its largest absolute difference, and that over ``a``'s
    largest magnitude."""
    from waverep.checkpoint import load_arrays
    from waverep.errors import DataError
    from waverep.wavio import read_wav

    def arrays(path: Path) -> dict:
        return load_arrays(path) if path.suffix == ".bin" else {"samples": read_wav(path)[0]}

    try:
        old, new = arrays(a), arrays(b)
    except DataError as exc:  # an unreadable output is itself a finding
        return [f"  unreadable: {exc}"]
    lines = []
    for name in sorted(old.keys() | new.keys()):
        x, y = old.get(name), new.get(name)
        if x is None or y is None or x.shape != y.shape:
            shapes = [None if z is None else z.shape for z in (x, y)]
            lines.append(f"  {name}: shapes {shapes[0]} and {shapes[1]}")
        elif not np.array_equal(x, y):
            with np.errstate(all="ignore"):
                gap = float(np.max(np.abs(y.astype(np.float64) - x)))
                scale = float(np.max(np.abs(x)))
            rel = gap / scale if scale else math.inf
            lines.append(f"  {name}: max abs {gap:.3g}, max rel {rel:.3g}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(t).resolve() for t in argv]
    sys.path.insert(0, str(trees[1] / "src"))
    with tempfile.TemporaryDirectory(prefix="bitcheck-") as tmp:
        works = [Path(tmp) / side for side in ("parent", "change")]
        for tree, work in zip(trees, works):
            session(tree, work)
        diff = differing(*works)
        n_files = sum(1 for p in works[0].rglob("*") if p.is_file())
        for f in diff:
            print(f"differs: {f}")
            pair = [work / f for work in works]
            if pair[0].suffix in (".bin", ".wav") and all(p.is_file() for p in pair):
                for line in array_gaps(*pair):
                    print(line)
    print(f"{len(diff)} of {n_files} files differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
