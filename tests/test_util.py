"""Shared helpers: gap convention and ordered map."""
import numpy as np
import pytest

from riskshed.util import gap_percent, map_ordered


def test_gap_percent_anchors_on_lower_bound():
    assert gap_percent(-100.0, -95.0) == pytest.approx(5.0)
    assert gap_percent(100.0, 104.0) == pytest.approx(4.0)
    assert gap_percent(-50.0, -50.0) == 0.0
    assert gap_percent(0.0, 0.0) == 0.0
    assert np.isinf(gap_percent(0.0, 3.0))


def test_map_ordered_preserves_order():
    items = list(range(20))
    fn = lambda k: k * k
    assert map_ordered(fn, items, threads=1) == [k * k for k in items]
    assert map_ordered(fn, items, threads=4) == [k * k for k in items]
