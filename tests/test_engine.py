"""The jet-order table of the per-point pipeline and the identity suites."""

import dataclasses
import math

import numpy as np
import pytest

from finsler import catalog, engine, jets
from finsler.engine import REQUIRED_ORDERS, ChartJets, chart
from finsler.errors import OrderUnsupported
from finsler.jets import d_y, get_space, shared
from finsler.metric import SamplePoint
from finsler.suites import SUITES

P = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])
P4 = SamplePoint([0.1, -0.2, 0.15, 0.05], [0.7, -0.3, 1.1, 0.4])


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


@pytest.mark.parametrize("lam", [1e-8, 1e8])
@pytest.mark.parametrize("metric", catalog.default_metrics(3),
                         ids=lambda m: m.name)
def test_rescaling_L(metric, lam):
    """Under L -> lam L, g^-1 goes as lam^-2 and the spray G is unchanged,
    to rounding: the jet inverse has no scale of its own."""
    scaled = dataclasses.replace(
        metric, evaluate=lambda x, y: lam * metric.evaluate(x, y))
    base, cj = chart(metric, P, "G"), chart(scaled, P, "G")
    for ref, new in ((base.g_inv.c, lam ** 2 * cj.g_inv.c),
                     (base.G.c, cj.G.c)):
        # relative, except for euclidean's G, which is 0
        tol = 1e-14 * (np.abs(ref).max() or 1.0)
        assert np.abs(new - ref).max() <= tol


def count_work(monkeypatch):
    """Counters of the jet work that runs: the number of products, and the
    coefficient pairs x components of every product, series and inverse
    in the space it runs in, recorded by wrapping the one kernel,
    jets._convolve (an einsum counts every label's extent, contracted ones
    included, and a matmul of n x n matrices n^3)."""
    counts = {"products": 0, "pairs": 0}
    convolve, product = jets._convolve, jets._product

    def counted_convolve(I, J, starts, a, b, op=np.multiply):
        if op is np.multiply:
            comps = np.broadcast_shapes(a.shape[1:], b.shape[1:])
        elif op is np.matmul:
            comps = a.shape[1:] + b.shape[-1:]
        else:
            s1, s2 = op.args[0].split("->")[0].split(",")
            extent = dict(zip(s1[1:], a.shape[1:]))
            extent.update(zip(s2[1:], b.shape[1:]))
            comps = extent.values()
        counts["pairs"] += len(I) * math.prod(comps)
        return convolve(I, J, starts, a, b, op)

    def counted_product(a, b, op=np.multiply):
        counts["products"] += 1
        return product(a, b, op)

    monkeypatch.setattr(jets, "_convolve", counted_convolve)
    monkeypatch.setattr(jets, "_product", counted_product)
    return counts


class TestWork:
    """Each product runs at the budget its result is read at, in the space
    of its operands' supports."""

    # per default metric, at most so many products and pairs x components
    # (funk: 46 and 2.84e6 when written; 88 and 3.09e6 when g_inv ran
    # Gauss-Jordan on jet products; 5.98e6 when every product ran in its
    # budget space and g_inv was inverted at chart - (0, 2); 2.85e6 when
    # phi, hbar, Ntensor, F and R_low were built at the chart's budget
    # though suites read only their values and phi's first y-derivative)
    VERIFY_WORK = {
        "euclidean": (37, 7.1e4),
        "riemannian_space_form(kappa=1)": (41, 1.24e6),
        "riemannian_space_form(kappa=-1)": (41, 1.24e6),
        "funk": (46, 1.38e6),
        "randers_pflat": (40, 9.1e5),
        "perturbed_riemannian(seed=0)": (52, 1.26e6),
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

    # the attributes only suites read, at the budget they read them at
    READ_BUDGETS = {"phi": (0, 1), "hbar": (0, 0), "Ntensor": (0, 0),
                    "F": (0, 0), "R_low": (0, 0)}

    @pytest.mark.parametrize("attr", ["g_inv", "G", "phi", "hbar", "k",
                                      "Ntensor", "F", "R_low", "B", "A"])
    def test_attribute_budgets(self, attr):
        """Multiplying at a lower budget leaves every engine attribute's
        own budget at the chart's minus its required orders; one that
        only suites read is built at their budget."""
        cj = chart(catalog.funk(3), P, *SUITES)
        space = getattr(cj, attr).space
        px, py = REQUIRED_ORDERS[attr]
        assert (space.px, space.py) == self.READ_BUDGETS.get(
            attr, (cj.px - px, cj.py - py))

    @pytest.mark.parametrize("metric,p", [
        *(pytest.param(m, P, id=m.name) for m in catalog.default_metrics(3)),
        pytest.param(catalog.randers_pflat(4), P4, id="randers_pflat-n4")])
    def test_read_budget_values_exact(self, monkeypatch, metric, p):
        """Values and first y-derivatives do not depend on the budget: each
        attribute built at its readers' budget equals, bit for bit, the
        same attribute built at the chart's."""
        names = ("hbar", "Ntensor", "F", "R_low")
        low = chart(metric, p, *SUITES)
        lows = [getattr(low, a) for a in names] + [low.phi, d_y(low.phi)]
        monkeypatch.setattr(engine, "_values", lambda *js: shared(list(js)))
        full = chart(metric, p, *SUITES)
        phi = full._phi(full.L)
        highs = [getattr(full, a) for a in names] + [phi, d_y(phi)]
        for lo, hi in zip(lows, highs):
            assert lo.space.T < hi.space.T
            assert np.array_equal(lo.value(), hi.value())
