import math

import pytest

from metacausal.reproduce import confusion_row, measure_convergence_cell


@pytest.mark.parametrize("fn", [measure_convergence_cell, confusion_row])
@pytest.mark.parametrize("scale", [-1.0, 0.0, math.nan, math.inf])
def test_scale_must_be_positive_and_finite(fn, scale):
    with pytest.raises(ValueError, match="scale"):
        fn(1, 0.0, scale=scale)
