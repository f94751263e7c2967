"""The jet-order table of the per-point pipeline."""

import pytest

from finsler import catalog
from finsler.engine import REQUIRED_ORDERS, ChartJets
from finsler.errors import OrderUnsupported
from finsler.metric import SamplePoint

P = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])


@pytest.mark.parametrize("attr", sorted(REQUIRED_ORDERS))
def test_required_orders_are_exact(attr):
    """Each attribute computes at its listed orders and at none lower."""
    metric = catalog.randers_pflat(3)
    px, py = REQUIRED_ORDERS[attr]
    getattr(ChartJets(metric, P, px, py), attr).value()
    for lower in ((px - 1, py), (px, py - 1)):
        if min(lower) >= 0:
            with pytest.raises(OrderUnsupported):
                getattr(ChartJets(metric, P, *lower), attr)
