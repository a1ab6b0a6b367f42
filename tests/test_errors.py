import math
import warnings

import numpy as np
import pytest

from waverep.errors import NumericalError, finite


@pytest.mark.parametrize("value", [1.5, np.arange(3.0), [np.zeros(2), np.ones((2, 2))],
                                   (np.float32(2.0), np.ones(1, dtype=np.float32))],
                         ids=["number", "array", "list", "tuple"])
def test_finite_result_comes_back_as_the_same_object(value):
    assert finite("unused", lambda: value) is value


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 1])
def test_non_finite_part_of_a_list_raises_with_the_message(bad, where):
    arrays = [np.ones(3), np.ones((2, 2))]
    arrays[where].flat[-1] = bad
    with pytest.raises(NumericalError, match=r"^the sum \(of x\) is not finite$"):
        finite("the sum (of x) is not finite", lambda: arrays)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_number_raises(bad):
    with pytest.raises(NumericalError, match="number"):
        finite("number", lambda: bad)


def test_overflow_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="overflow"):
            finite("overflow", lambda: [np.full(4, 1e308) * 10.0, np.float64(1e308) ** 2,
                                        np.full(2, 1e38, dtype=np.float32).sum() * 1e10,
                                        np.zeros(1) / 0.0])
