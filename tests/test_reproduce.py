import math

import pytest

from metacausal.reproduce import confusion_row, measure_convergence_cell


@pytest.mark.parametrize("fn", [measure_convergence_cell, confusion_row])
@pytest.mark.parametrize("scale", [-1.0, 0.0, math.nan, math.inf])
def test_scale_must_be_positive_and_finite(fn, scale):
    with pytest.raises(ValueError, match="scale"):
        fn(1, 0.0, scale=scale)


def test_confusion_row_same_tally_with_two_workers():
    # With two workers each dataset's discovery runs inside a worker process,
    # where it stays serial; with one, its k = 2 stage may fan out here.
    one = confusion_row(2, 0.0, scale=0.02, workers=1, k_max=2)
    two = confusion_row(2, 0.0, scale=0.02, workers=2, k_max=2)
    assert one == two
    assert sum(two.values()) == 2
