"""Export a representation as CSV plus a portable graymap (PGM) image.

The CSV holds the raw matrix, each value to 10 significant digits.  The image
is meant for eyes: rows are sorted by carrier frequency, values are compressed
with log1p (magnitudes span orders of magnitude) and min-max mapped to 0..255.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .wavio import write_file


def export_representation(a: np.ndarray, out_base, carrier_freq) -> tuple[Path, Path]:
    """Write ``<out_base>.csv`` and ``<out_base>.pgm`` together, keeping every
    dot of ``out_base``'s name; returns both paths."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a (C, T) matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("representation contains non-finite values")
    order = np.argsort(np.asarray(carrier_freq), kind="stable")
    if order.size != a.shape[0]:
        raise ValueError("carrier_freq length must match the number of rows")
    img = np.log1p(np.maximum(a[order], 0.0))
    lo, hi = img.min(), img.max()
    if hi > lo:
        pixels = np.round((img - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        pixels = np.zeros(img.shape, dtype=np.uint8)

    csv_path, pgm_path = Path(f"{out_base}.csv"), Path(f"{out_base}.pgm")
    # np.savetxt's rows, one at a time: no text copy of the whole matrix
    row_fmt = ",".join(["%.10g"] * a.shape[1]) + "\n"
    write_file({csv_path: (row_fmt % tuple(row) for row in a),
                pgm_path: [f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n", pixels]})
    return csv_path, pgm_path
