"""The jet-order table of the per-point pipeline and the identity suites."""

import math

import pytest

from finsler import catalog, engine
from finsler.engine import REQUIRED_ORDERS, ChartJets, chart
from finsler.errors import OrderUnsupported
from finsler.jets import Jet
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


class TestWork:
    """Each product runs at the budget its result is read at."""

    def test_products_and_pair_volume(self, monkeypatch):
        """One funk point with every suite makes at most 97 products over
        at most 6.0e6 coefficient pairs x components (88 and 5.44e6 when
        written; 160 and 1.50e7 when phi, hbar, k and Ntensor multiplied at
        the chart's budget and the jet inverse multiplied by constants)."""
        work = []
        mul, einsum = Jet.__mul__, engine.jet_einsum

        def counted_mul(self, other):
            out = mul(self, other)
            if isinstance(other, Jet):
                work.append(len(out.space.mI) * math.prod(out.shape))
            return out

        def counted_einsum(subscripts, a, b):
            out = einsum(subscripts, a, b)
            s1, s2 = subscripts.split("->")[0].split(",")
            extent = dict(zip(s1, a.shape))
            extent.update(zip(s2, b.shape))
            work.append(len(out.space.mI) * math.prod(extent.values()))
            return out

        monkeypatch.setattr(Jet, "__mul__", counted_mul)
        monkeypatch.setattr(Jet, "__rmul__", counted_mul)
        monkeypatch.setattr(engine, "jet_einsum", counted_einsum)
        cj = chart(catalog.funk(3), P, *SUITES)
        for suite in SUITES.values():
            suite(cj)
        assert len(work) <= 97
        assert sum(work) <= 6.0e6

    @pytest.mark.parametrize("attr", ["phi", "hbar", "k", "Ntensor", "B",
                                      "A"])
    def test_attribute_budgets(self, attr):
        """Multiplying at a lower budget leaves every attribute's own
        budget at the chart's minus its required orders."""
        cj = chart(catalog.funk(3), P, *SUITES)
        space = getattr(cj, attr).space
        px, py = REQUIRED_ORDERS[attr]
        assert (space.px, space.py) == (cj.px - px, cj.py - py)
