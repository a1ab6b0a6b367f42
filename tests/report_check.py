"""Compare the float32 commands' outputs with the float64 library path.

    PYTHONPATH=src python tests/report_check.py CHECKPOINT STEMS_DIR EVAL_DIR
    PYTHONPATH=src python tests/report_check.py streaming CHECKPOINT VOICE ACCOMP RECON_WAV

In the first form ``EVAL_DIR`` holds the ``report.csv`` and ``summary.txt``
that ``waverep evaluate --checkpoint CHECKPOINT --stems STEMS_DIR`` wrote.  The
script prints each report column's largest gap from ``evaluation.evaluate`` on
the float64 ``load_model`` pair, the summary's largest distance in units of
its last printed digit and the oracle mask cells that flip between float64 and
float32, and exits 1 above ``REPORT_TOLERANCES`` or one summary unit.

In the ``streaming`` form ``RECON_WAV`` is what ``waverep reconstruct
--checkpoint CHECKPOINT VOICE`` wrote.  The script prints its largest gap (max
abs over max) from the float64 streamed path and the oracle mask cells of the
``VOICE``/``ACCOMP`` pair that flip between float64 and float32, and exits 1
above ``FLOAT32_GAP`` or ``MASK_FLIP_SHARE`` of the cells.

``test_cli`` holds the commands to the same bounds through :func:`compare`
and :func:`compare_streaming`.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from waverep.checkpoint import load_model
from waverep.cli import _discover_stems
from waverep.dataset import load_and_downmix
from waverep.decoder import decode_chunks
from waverep.encoder import encode_chunks, encode_values
from waverep.evaluation import (active_segments, binary_mask, evaluate, mixture_and_sources,
                                model_representations)
from waverep.wavio import read_wav

#: largest gap allowed per report column: absolute, except for ``sir`` (a
#: ratio), which is relative
REPORT_TOLERANCES = {"si_sdr": 1e-4, "si_sdr_bm": 1e-4, "additivity": 1e-6, "w_do": 1e-6,
                     "psr": 1e-6, "sir": 1e-5}
#: the last digit ``summary.txt`` prints
SUMMARY_UNIT = 1e-4
#: largest gap (max abs over max) allowed between the float32 streaming
#: commands and the float64 path, for representations and output signals
FLOAT32_GAP = 1e-6
#: largest share of a pair's oracle mask cells allowed to flip in float32
MASK_FLIP_SHARE = 1e-6


class Comparison(NamedTuple):
    gaps: dict[str, float]  # largest gap per report column
    summary_units: int      # largest summary distance, in SUMMARY_UNITs
    flipped: int            # oracle mask cells that differ
    cells: int              # oracle mask cells of the evaluated segments
    segments: int

    def ok(self) -> bool:
        return (all(gap <= REPORT_TOLERANCES[name] for name, gap in self.gaps.items())
                and self.summary_units <= 1)

    def __str__(self) -> str:
        return ("float32 evaluate: largest gaps "
                + ", ".join(f"{name} {gap:.2e}" for name, gap in self.gaps.items())
                + f" (sir relative); summary within {self.summary_units} unit(s) of its last digit; "
                f"{self.flipped} of {self.cells} mask cells flipped in {self.segments} segments")


def _summary_numbers(text: str) -> list[float]:
    return [float(t.split("=")[-1]) for t in text.replace(":", " ").split() if "=" in t]


def compare(checkpoint, stems, eval_dir) -> Comparison:
    tracks = [(name, load_and_downmix(v), load_and_downmix(a))
              for name, v, a in _discover_stems(stems)]
    enc64, dec64 = load_model(checkpoint)
    ref = evaluate(tracks, enc64, dec64)
    header, *lines = (Path(eval_dir) / "report.csv").read_text().splitlines()
    names = header.split(",")[2:]
    if set(names) != set(REPORT_TOLERANCES) or len(lines) != len(ref.rows):
        raise ValueError(f"{eval_dir}: report.csv does not match the reference's columns and rows")
    gaps = dict.fromkeys(names, 0.0)
    for line, row in zip(lines, ref.rows):
        for name, value in zip(names, map(float, line.split(",")[2:])):
            want = getattr(row, name)
            if value != want:  # equal infinities have no gap
                gap = abs(value - want) / (abs(want) if name == "sir" else 1.0)
                gaps[name] = max(gaps[name], gap)

    got = _summary_numbers((Path(eval_dir) / "summary.txt").read_text())
    want = _summary_numbers(ref.summary())
    if len(got) != len(want):
        raise ValueError(f"{eval_dir}: summary.txt does not match the reference's values")
    units = max(round(abs(g - w) / SUMMARY_UNIT) for g, w in zip(got, want))

    enc32 = load_model(checkpoint, np.float32)[0]
    flipped = cells = 0
    for _, _, x_v, x_ac in active_segments(tracks):
        m64, m32 = (binary_mask(*(np.abs(z) for z in model_representations(x_v, x_ac, enc)[1:]))
                    for enc in (enc64, enc32))
        flipped += int(np.sum(m64 != m32))
        cells += m64.size
    return Comparison(gaps, units, flipped, cells, len(lines))


class StreamingComparison(NamedTuple):
    gap: float    # reconstruct's WAV from the float64 streamed path, max abs over max
    flipped: int  # oracle mask cells of the whole pair that differ
    cells: int

    def ok(self) -> bool:
        return self.gap <= FLOAT32_GAP and self.flipped <= MASK_FLIP_SHARE * self.cells

    def __str__(self) -> str:
        return (f"float32 reconstruct: max relative gap {self.gap:.2e}; "
                f"separate: {self.flipped} of {self.cells} mask cells flipped")


def compare_streaming(checkpoint, voice, accomp, recon) -> StreamingComparison:
    enc64, dec64 = load_model(checkpoint)
    x_v, x_ac = load_and_downmix(voice), load_and_downmix(accomp)
    ref = decode_chunks(encode_chunks(x_v, enc64), dec64, x_v.size)
    gap = float(np.max(np.abs(read_wav(recon)[0][:, 0] - ref)) / np.max(np.abs(ref)))
    masks = []
    for enc in (enc64, load_model(checkpoint, np.float32)[0]):
        _, z_v, z_ac = mixture_and_sources(*(encode_values(x, enc, linear=True) for x in (x_v, x_ac)))
        masks.append(binary_mask(np.abs(z_v), np.abs(z_ac)))
    return StreamingComparison(gap, int(np.sum(masks[0] != masks[1])), masks[0].size)


if __name__ == "__main__":
    if sys.argv[1] == "streaming":
        result = compare_streaming(*sys.argv[2:])
    else:
        result = compare(*sys.argv[1:])
    print(result)
    sys.exit(0 if result.ok() else 1)
