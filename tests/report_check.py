"""Compare a float32 ``waverep evaluate`` report with the float64 library path.

    PYTHONPATH=src python tests/report_check.py CHECKPOINT STEMS_DIR EVAL_DIR

``EVAL_DIR`` holds the ``report.csv`` and ``summary.txt`` that ``waverep
evaluate --checkpoint CHECKPOINT --stems STEMS_DIR`` wrote.  The script prints
each report column's largest gap from ``evaluation.evaluate`` on the float64
``load_model`` pair, the summary's largest distance in units of its last
printed digit and the oracle mask cells that flip between float64 and float32,
and exits 1 above ``REPORT_TOLERANCES`` or one summary unit.  ``test_cli``
holds the command to the same bounds through :func:`compare`.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from waverep.checkpoint import load_model
from waverep.cli import _discover_stems
from waverep.dataset import load_and_downmix
from waverep.evaluation import active_segments, binary_mask, evaluate, model_representations

#: largest gap allowed per report column: absolute, except for ``sir`` (a
#: ratio), which is relative
REPORT_TOLERANCES = {"si_sdr": 1e-4, "si_sdr_bm": 1e-4, "additivity": 1e-6, "w_do": 1e-6,
                     "psr": 1e-6, "sir": 1e-5}
#: the last digit ``summary.txt`` prints
SUMMARY_UNIT = 1e-4


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


if __name__ == "__main__":
    result = compare(*sys.argv[1:])
    print(result)
    sys.exit(0 if result.ok() else 1)
