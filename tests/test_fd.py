"""Finite-difference pipeline as an independent cross-check of the jet
engine."""

import math

import numpy as np
import pytest

from finsler import catalog
from finsler.engine import ChartJets
from finsler.fdpipe import FDPipeline, _richardson
from finsler.jets import d_x, d_y
from finsler.metric import SamplePoint
from finsler.sampling import SamplingSpec, sample_points

P = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])


class TestAgreement:
    def test_funk_all_quantities(self):
        metric = catalog.funk(3)
        fd = FDPipeline(metric)
        for p in sample_points(metric, SamplingSpec(count=5, seed=41)):
            cj = ChartJets(metric, p, 2, 4)
            T = fd.tensors(p)
            for name, jet in [("g", cj.g), ("G", cj.G), ("N", cj.N),
                              ("Rhat", cj.Rhat), ("H", cj.H),
                              ("k", cj.k)]:
                jv = np.asarray(jet.value())
                fv = np.asarray(T[name])
                rel = np.abs(jv - fv).max() / max(np.abs(jv).max(), 1e-12)
                assert rel < 1e-4, (name, rel)

    def test_c_form_randers(self):
        metric = catalog.randers_pflat(3)
        fd = FDPipeline(metric)
        C_fd = fd.c_form(P)
        C_jet = ChartJets(metric, P, 2, 5).C.value()
        assert np.abs(C_fd - C_jet).max() < 1e-3

    def test_c_form_vanishes_on_constant(self):
        fd = FDPipeline(catalog.funk(3))
        assert np.abs(fd.c_form(P)).max() < 1e-3

    def test_euclidean_exact_zeros(self):
        fd = FDPipeline(catalog.euclidean(3))
        T = fd.tensors(P)
        assert np.abs(T["G"]).max() < 1e-10
        assert np.abs(T["Rhat"]).max() < 1e-9
        assert abs(T["k"]) < 1e-9

    def test_space_form_k(self):
        fd = FDPipeline(catalog.riemannian_space_form(3, 1.0))
        assert fd.tensors(P)["k"] == pytest.approx(1.0, abs=1e-4)


class TestStencils:
    """The FD pipeline's Richardson-extrapolated stencils on scalar
    fields: first and second partials against closed forms and jets."""

    def test_against_closed_form(self):
        def f(x, y):
            return math.sin(x[0]) * float(y @ y)

        fd = FDPipeline(catalog.euclidean(3))
        grad = _richardson(lambda hh: fd._grad(f, P.x, P.y, "x", hh), 1e-3)
        expected = math.cos(P.x[0]) * float(P.y @ P.y)
        assert grad[0] == pytest.approx(expected, abs=1e-8)
        assert abs(grad[1]) < 1e-8

    def test_zero_field(self):
        fd = FDPipeline(catalog.euclidean(3))

        def zero(x, y):
            return 0.0

        h = fd._h(P)
        for arr in (fd._grad(zero, P.x, P.y, "x", h),
                    fd._grad(zero, P.x, P.y, "y", h),
                    fd._mixed_xy(zero, P.x, P.y, h),
                    fd._hess_yy(zero, P.x, P.y, h)):
            assert np.abs(arr).max() == 0.0

    def test_agreement_with_jets_on_funk(self):
        metric = catalog.funk(3)
        L = ChartJets(metric, P, 1, 2).L
        jet = {(1, 0): d_x(L), (0, 1): d_y(L), (1, 1): d_y(d_x(L)),
               (0, 2): d_y(d_y(L))}
        fd = FDPipeline(metric)
        x, y, f, h = P.x, P.y, fd._L, fd._h(P)
        stencils = {
            (1, 0): lambda hh: fd._grad(f, x, y, "x", hh),
            (0, 1): lambda hh: fd._grad(f, x, y, "y", hh),
            (1, 1): lambda hh: fd._mixed_xy(f, x, y, hh),  # [x, y] axes
            (0, 2): lambda hh: fd._hess_yy(f, x, y, hh),
        }
        for key, stencil in stencils.items():
            jv, fv = jet[key].value(), _richardson(stencil, h)
            rel = np.abs(jv - fv).max() / max(np.abs(jv).max(), 1e-12)
            assert rel < 1e-5, (key, rel)
