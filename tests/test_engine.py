"""The jet-order table of the per-point pipeline and the identity suites."""

import pytest

from finsler import catalog
from finsler.engine import REQUIRED_ORDERS, ChartJets, chart
from finsler.errors import OrderUnsupported
from finsler.metric import SamplePoint
from finsler.suites import SUITES

P = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])


def evaluate(name, cj):
    """Suite ``name`` on cj, or attribute ``name`` of cj."""
    return SUITES[name](cj) if name in SUITES else getattr(cj, name).value()


@pytest.mark.parametrize("attr", sorted(REQUIRED_ORDERS))
def test_required_orders_are_exact(attr):
    """Each attribute or suite computes at its listed orders and at none
    lower."""
    metric = catalog.randers_pflat(3)
    px, py = REQUIRED_ORDERS[attr]
    evaluate(attr, ChartJets(metric, P, px, py))
    for lower in ((px - 1, py), (px, py - 1)):
        if min(lower) >= 0:
            with pytest.raises(OrderUnsupported):
                evaluate(attr, ChartJets(metric, P, *lower))


@pytest.mark.parametrize("names,orders", [
    (("C", "bianchi"), (3, 5)),
    (("A", "bianchi"), (3, 7)),
])
def test_chart_takes_largest_orders_per_axis(names, orders):
    cj = chart(catalog.funk(3), P, *names)
    assert (cj.px, cj.py) == orders
