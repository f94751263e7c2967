"""The jet-order table of the per-point pipeline and the identity suites."""

import math

import numpy as np
import pytest

from finsler import catalog, jets
from finsler.engine import REQUIRED_ORDERS, ChartJets, chart
from finsler.errors import OrderUnsupported
from finsler.jets import get_space
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


def count_work(monkeypatch):
    """Counters of the jet work that runs: the number of products, and the
    coefficient pairs x components of every product and series in the
    space it runs in, recorded by wrapping the one kernel, jets._convolve
    (an einsum counts every label's extent, contracted ones included)."""
    counts = {"products": 0, "pairs": 0}
    convolve, product = jets._convolve, jets._product

    def counted_convolve(I, J, starts, a, b, subscripts=None):
        if subscripts is None:
            comps = np.broadcast_shapes(a.shape[1:], b.shape[1:])
        else:
            s1, s2 = subscripts.split("->")[0].split(",")
            extent = dict(zip(s1[1:], a.shape[1:]))
            extent.update(zip(s2[1:], b.shape[1:]))
            comps = extent.values()
        counts["pairs"] += len(I) * math.prod(comps)
        return convolve(I, J, starts, a, b, subscripts)

    def counted_product(a, b, subscripts=None):
        counts["products"] += 1
        return product(a, b, subscripts)

    monkeypatch.setattr(jets, "_convolve", counted_convolve)
    monkeypatch.setattr(jets, "_product", counted_product)
    return counts


class TestWork:
    """Each product runs at the budget its result is read at, in the space
    of its operands' supports."""

    # per default metric, at most so many products and pairs x components
    # (funk: 88 and 3.09e6 when written; 5.98e6 when every product ran in
    # its budget space and g_inv was inverted at chart - (0, 2))
    VERIFY_WORK = {
        "euclidean": (79, 1.04e5),
        "riemannian_space_form(kappa=1)": (83, 2.95e6),
        "riemannian_space_form(kappa=-1)": (83, 2.95e6),
        "funk": (88, 3.10e6),
        "randers_pflat": (82, 2.39e6),
        "perturbed_riemannian(seed=0)": (94, 2.98e6),
    }

    def test_products_and_pair_volume(self, monkeypatch):
        """One point per default metric with every suite; prints the true
        counts, which do not depend on timing."""
        for metric in catalog.default_metrics(3):
            counts = count_work(monkeypatch)
            cj = chart(metric, P, *SUITES)
            for suite in SUITES.values():
                suite(cj)
            print(f"verify {metric.name}: {counts['products']} products, "
                  f"{counts['pairs']:,} pairs x components")
            products, pairs = self.VERIFY_WORK[metric.name]
            assert counts["products"] <= products
            assert counts["pairs"] <= pairs

    def test_perturbed_riemannian_L_pair_volume(self, monkeypatch):
        """Its L multiplies x-only sines by y-only monomials, so only its
        final sqrt runs at the full (3, 7) budget: at most 5e5 pairs x
        components (5.29e6 when every product and series ran there)."""
        counts = count_work(monkeypatch)
        xs, ys = get_space(3, 3, 7).seed(P.x, P.y)
        catalog.perturbed_riemannian(3).evaluate(xs, ys)
        print(f"L of perturbed_riemannian at (3, 7): {counts['pairs']:,} "
              "pairs x components")
        assert counts["pairs"] <= 5e5

    @pytest.mark.parametrize("attr", ["g_inv", "G", "phi", "hbar", "k",
                                      "Ntensor", "B", "A"])
    def test_attribute_budgets(self, attr):
        """Multiplying at a lower budget leaves every attribute's own
        budget at the chart's minus its required orders."""
        cj = chart(catalog.funk(3), P, *SUITES)
        space = getattr(cj, attr).space
        px, py = REQUIRED_ORDERS[attr]
        assert (space.px, space.py) == (cj.px - px, cj.py - py)
