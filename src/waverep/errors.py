"""Exception types shared across the package, and the checked-numerics helper."""

import numpy as np


class DataError(Exception):
    """Unusable input data: bad files, wrong sample rate, empty datasets."""


class CheckpointError(DataError):
    """Malformed checkpoint file: bad magic, version, or checksum."""


class NumericalError(Exception):
    """A computation produced unusable numbers (NaN/Inf gradients etc.)."""


class SaturationError(NumericalError):
    """The Gibbs kernel exp(-lambda * M) underflowed so badly that the
    Sinkhorn scaling would divide by zero.  Raised instead of letting NaNs
    propagate into the loss."""

    def __init__(self, lam, saturation_fraction):
        self.lam = lam
        self.saturation_fraction = saturation_fraction
        super().__init__(
            f"lambda-saturation: exp(-lambda*M) with lambda={lam} underflowed "
            f"to zero on a full row or column "
            f"({saturation_fraction:.1%} of kernel entries are zero); "
            f"reduce lambda or rescale the cost matrix"
        )


def finite(message: str, compute):
    """``compute()`` (a number, an array or a sequence of arrays), run with
    numpy's floating-point warnings off; :class:`NumericalError` with
    ``message`` if any part of it is not finite."""
    with np.errstate(all="ignore"):
        result = compute()
    parts = result if isinstance(result, (list, tuple)) else (result,)
    if not all(np.isfinite(part).all() for part in parts):
        raise NumericalError(message)
    return result
