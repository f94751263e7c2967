"""The jet-order table of the per-point pipeline and the identity suites."""

import dataclasses
import math

import numpy as np
import pytest

from finsler import catalog, engine, jets
from finsler.dsl import metric_from_dsl
from finsler.engine import REQUIRED_ORDERS, ChartJets, chart
from finsler.errors import OrderUnsupported
from finsler.jets import d_x, d_y, get_space, jet_einsum, restrict, shared
from finsler.metric import SamplePoint
from finsler.sampling import SamplingSpec, sample_points
from finsler.suites import SUITES, run_suites, suite_bianchi

P = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])
P4 = SamplePoint([0.1, -0.2, 0.15, 0.05], [0.7, -0.3, 1.1, 0.4])


def evaluate(name, cj):
    """Suite ``name`` on cj, or attribute ``name`` of cj."""
    return SUITES[name](cj) if name in SUITES else getattr(cj, name)


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
    (("C", "bianchi"), (2, 5)),
    (("A", "bianchi"), (2, 7)),
    (("lemma21", "N_x2"), (3, 4)),
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
    """Counters of the jet work that runs: the number of products, the
    coefficient pairs x components of every product, series and inverse
    in the space it runs in, recorded by wrapping the one kernel,
    jets._convolve (an einsum counts every label's extent, contracted ones
    included, and a matmul of n x n matrices n^3), the number of formal
    derivatives (each of d_x and d_y takes all n at once), and the number
    of restrictions that copy coefficients rather than return a view."""
    counts = {"products": 0, "pairs": 0, "derivatives": 0, "copies": 0}
    convolve, product = jets._convolve, jets._product
    derivatives, restrict = jets._derivatives, jets.restrict

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

    def counted_derivatives(jet, axis):
        counts["derivatives"] += 1
        return derivatives(jet, axis)

    def counted_restrict(jet, px, py):
        out = restrict(jet, px, py)
        counts["copies"] += not np.may_share_memory(out.c, jet.c)
        return out

    monkeypatch.setattr(jets, "_convolve", counted_convolve)
    monkeypatch.setattr(jets, "_product", counted_product)
    monkeypatch.setattr(jets, "_derivatives", counted_derivatives)
    for module in (jets, engine):  # engine imports restrict by name
        monkeypatch.setattr(module, "restrict", counted_restrict)
    return counts


class TestWork:
    """Each product runs at the budget its result is read at, in the space
    of its operands' supports."""

    # per default metric, at most so many products, pairs x components,
    # formal derivatives and copying restrictions of one point of verify
    # with every suite (derivatives and copies bounded since a product
    # restricts each operand once, straight to its block: then 32 and
    # 8-83, now 30 and 4-78; euclidean made 11 copies when an operand could
    # be restricted twice; funk: 46 and 2.84e6 when
    # written; 88 and 3.09e6 when g_inv ran Gauss-Jordan on jet products;
    # 5.98e6 when every product ran in its budget space and g_inv was
    # inverted at chart - (0, 2); 2.85e6 when phi, hbar, Ntensor, F and
    # R_low were built at the chart's budget though suites read only their
    # values and phi's first y-derivative; funk 46 products when hbar,
    # Ntensor, F and R_low were jets at (0, 0) and suites took d_y of C
    # and B again; 40 products and 1.38e6 when verify read every suite
    # from one chart at (3, 7) and h_cov ran at its operand's budget; 57
    # and 5.19e5 when bianchi read a second chart at (3, 5) that reran the
    # G -> Rhat chain; the (3, 3) companion that only Rhat_x reads reruns
    # G -> N on about two thirds of those pairs; perturbed 4.65e5 then,
    # 3.04e5 once its L evaluated each symmetric entry once)
    VERIFY_WORK = {
        "euclidean": (38, 3.46e4, 30, 4),
        "riemannian_space_form(kappa=1)": (46, 2.72e5, 30, 6),
        "riemannian_space_form(kappa=-1)": (46, 2.72e5, 30, 6),
        "funk": (56, 3.27e5, 30, 26),
        "randers_pflat": (44, 2.11e5, 30, 18),
        "perturbed_riemannian(seed=0)": (68, 3.04e5, 30, 78),
    }

    def test_products_and_pair_volume(self, monkeypatch):
        """One point per default metric through ``run_suites`` with every
        suite, the path verify takes; prints the true counts, which do not
        depend on timing."""
        for metric in catalog.default_metrics(3):
            counts = count_work(monkeypatch)
            run_suites(metric, [P], sorted(SUITES))
            print(f"verify {metric.name}: {counts['products']} products, "
                  f"{counts['pairs']:,} pairs x components, "
                  f"{counts['derivatives']} derivatives, "
                  f"{counts['copies']} copying restrictions")
            products, pairs, derivatives, copies = self.VERIFY_WORK[
                metric.name]
            assert counts["products"] <= products
            assert counts["pairs"] <= pairs
            assert counts["derivatives"] <= derivatives
            assert counts["copies"] <= copies

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

    @pytest.mark.parametrize("attr", ["g_inv", "G", "phi", "k", "B", "A"])
    def test_attribute_budgets(self, attr):
        """Multiplying at a lower budget leaves every engine attribute's
        own budget at the chart's minus its required orders; phi, which
        only suites read, is built at their budget (0, 1)."""
        cj = chart(catalog.funk(3), P, *SUITES)
        space = getattr(cj, attr).space
        px, py = REQUIRED_ORDERS[attr]
        assert (space.px, space.py) == ((0, 1) if attr == "phi" else
                                        (cj.px - px, cj.py - py))

    @pytest.mark.parametrize("metric,p", [
        *(pytest.param(m, P, id=m.name) for m in catalog.default_metrics(3)),
        pytest.param(catalog.randers_pflat(4), P4, id="randers_pflat-n4")])
    def test_read_budget_values_exact(self, metric, p):
        """The forms suites read only as values equal, bit for bit, the
        same formulas as jet arithmetic at budget (0, 0); D2C and D2B are
        d_y of C and B with the direction moved first; phi and its first
        y-derivative, built at their readers' budget, equal phi built at
        the chart's."""
        cj = chart(metric, p, *SUITES)
        ell, g, C, B, k, R = (restrict(getattr(cj, a), 0, 0)
                              for a in ("ell", "g", "C", "B", "k", "R"))
        lC = jet_einsum("x,y->xy", ell, C)
        jets_at_values = {
            "hbar": g - jet_einsum("i,j->ij", ell, ell),
            "Ntensor": k * (g + jet_einsum("x,y->xy", ell, ell))
            + (1.0 / 3.0) * (B + 2.0 * lC + 2.0 * lC.tr(1, 0)),
            "F": (1.0 / 3.0) * (B + 2.0 * jet_einsum("x,y->xy", C, ell)),
            "R_low": jet_einsum("iw,ixyz->xyzw", g, R),
        }
        for name, jet in jets_at_values.items():
            assert isinstance(getattr(cj, name), np.ndarray)
            assert np.array_equal(getattr(cj, name), jet.value())
        for d2, field in ((cj.D2C, cj.C), (cj.D2B, cj.B)):
            assert np.array_equal(d2.value(),
                                  np.moveaxis(d_y(field).value(), -1, 0))
        phi = cj._phi(cj.L)
        for lo, hi in ((cj.phi, phi), (d_y(cj.phi), d_y(phi))):
            assert lo.space.T < hi.space.T
            assert np.array_equal(lo.value(), hi.value())


class TestCharts:
    """verify reads the requested suites from one chart at the largest
    orders they need, and bianchi reads its one third x-order, Rhat_x,
    from a companion chart at (3, 3) built only for it."""

    @pytest.mark.parametrize("metric,p", [
        *(pytest.param(m, P, id=m.name) for m in catalog.default_metrics(3)),
        pytest.param(catalog.randers_pflat(4), P4, id="randers_pflat-n4")])
    def test_records_equal_one_bounding_chart(self, metric, p):
        """Every residual equals, float for float, the suite's residual on
        one chart at the orders of every suite, whichever suites verify
        reads and so whatever its chart's orders: a product's pairs
        I + J = K are the same, in the same order, in every space that
        holds K."""
        q = SamplePoint(-0.5 * p.x, p.y[::-1])
        on_one = []
        for pt in (p, q):
            cj = chart(metric, pt, *SUITES)
            on_one.append({name: suite(cj) for name, suite in SUITES.items()})
        for names in (sorted(SUITES), ["bianchi", "theorem21"],
                      ["lemma21"]):
            want = [(name, ident, idx, float(value))
                    for idx, by_suite in enumerate(on_one) for name in names
                    for ident, value in by_suite[name].items()]
            got = [(r["suite"], r["identity"], r["sample"], r["residual"])
                   for r in run_suites(metric, [p, q], names)]
            assert got == want

    @pytest.mark.parametrize("names,orders", [
        (sorted(SUITES), [(2, 7), (3, 3)]),
        (["lemma21", "bianchi"], [(2, 5), (3, 3)]),
        (["bianchi", "lemma21"], [(2, 5), (3, 3)]),
        *(([name], [REQUIRED_ORDERS[name]] + [(3, 3)] * (name == "bianchi"))
          for name in SUITES)])
    def test_one_chart_per_maximal_order(self, monkeypatch, names, orders):
        built = []
        init = ChartJets.__init__

        def counted_init(self, metric, p, px, py):
            built.append((px, py))
            init(self, metric, p, px, py)

        monkeypatch.setattr(ChartJets, "__init__", counted_init)
        run_suites(catalog.funk(3), [P], names)
        print(f"verify {', '.join(names)}: charts at {built}")
        assert built == orders


class TestCompanion:
    """bianchi's h_cov of Rhat takes its x-derivative from Rhat_x, Rhat at
    (1, 0) from the N of a companion chart at (3, 3): bit for bit what a
    chart at (3, 5), where Rhat holds (1, 1), gave."""

    METRICS = catalog.default_metrics(3) + [
        catalog.randers_pflat(4),
        metric_from_dsl(
            "sqrt(norm2(y)) + b * dot(x, y) / sqrt(1 + b^2 * norm2(x))", 3,
            name="randers-dsl", constants={"b": 0.3})]

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("metric", METRICS,
                             ids=lambda m: f"{m.name}-n{m.n}")
    def test_equals_one_chart_at_3_5(self, metric, seed):
        for p in sample_points(metric, SamplingSpec(count=2, seed=seed)):
            cj = chart(metric, p, "bianchi")
            assert (cj.px, cj.py) == (2, 5)
            old = ChartJets(metric, p, 3, 5)
            # bianchi on the (3, 5) chart, through the h_cov it read there
            old.Rhat_x = None
            old.h_cov = lambda F, contravariant_first, Fx: _h_cov_3_5(old, F)
            hR = cj.h_cov(cj.Rhat, contravariant_first=True, Fx=cj.Rhat_x)
            want = _h_cov_3_5(old, old.Rhat)
            assert np.array_equal(hR.value(), want.value())
            got, want = suite_bianchi(cj), suite_bianchi(old)
            assert len(got) == 5 and got.keys() == want.keys()
            for ident in want:
                assert np.array_equal(got[ident], want[ident]), ident


def _h_cov_3_5(cj, F):
    """h_cov(F, contravariant_first=True) of a rank-3 jet F as bianchi
    read it from a chart at (3, 5): F cut to (1, 1), both derivatives of
    that cut."""
    F = restrict(F, 1, 1)
    dxF, dyF, N = shared([d_x(F), d_y(F), cj.N])
    out = dxF - jet_einsum("abcm,mw->abcw", dyF, N)
    out, Gamma, F = shared([out, cj.Gamma, F])
    out = out + jet_einsum("amw,mbc->abcw", Gamma, F)
    out = out - jet_einsum("mbw,amc->abcw", Gamma, F)
    return out - jet_einsum("mcw,abm->abcw", Gamma, F)
