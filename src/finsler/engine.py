"""Per-point evaluation pipeline.

``ChartJets`` expands the fundamental function L as a truncated Taylor jet
around one sample point and derives every tensor of interest (metric,
spray, nonlinear connection, Berwald coefficients, curvature, deviation,
scalar curvature and its vertical-derivative ladder C, B, A) by formal
differentiation and jet arithmetic.  Everything is exact to machine
precision within the jet truncation; requesting a quantity beyond the
truncation raises :class:`OrderUnsupported`.

Index conventions (component storage):

* ``ell[j] = dL/dy^j``; ``g[i,j] = d2E/dy^i dy^j`` with E = L^2/2.
* ``N[i,j] = dG^i/dy^j``; ``Gamma[i,j,k] = d2G^i/dy^j dy^k``.
* ``Rhat[i,j,k]``: slots (X, Y) = (j, k).
* Covariant-derivative direction is always the appended LAST axis; the
  intrinsic notation puts the direction first, so e.g. the intrinsic
  (D2 C)(X, Y) is ``d_y(C)[Y, X]`` here.
* ``B``, ``A`` are stored in intrinsic slot order (X, Y) / (X, Y, Z)
  where X is the differentiation slot.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DegenerateMetric, DomainError
from .jets import (Jet, d_x, d_y, get_space, jet_einsum, jet_matrix_inverse,
                   jstack, restrict, shared)
from .metric import FinslerMetric, SamplePoint

_LETTERS = "abcdefgh"

# minimum jet orders (px, py) each pipeline attribute and each identity
# suite of finsler.suites needs; the single source of jet orders.  An
# attribute that only suites read is built at their budget, not the chart's
REQUIRED_ORDERS = {
    "L": (0, 0), "E": (0, 0), "ell": (0, 1), "g": (0, 2), "g_inv": (1, 2),
    "phi": (0, 1), "hbar": (0, 2), "G": (1, 2), "N": (1, 3),
    "Gamma": (1, 4), "Rhat": (2, 4), "H": (2, 4), "k": (2, 4),
    "C": (2, 5), "B": (2, 6), "A": (2, 7), "Ntensor": (2, 6), "F": (2, 6),
    "R": (2, 5), "R_low": (2, 5),
    # suites differentiate past the attributes they read (bianchi takes
    # h_cov of Rhat, lemma23 and lemma31 take d_y of B)
    "lemma21": (1, 4), "lemma22": (2, 6), "lemma23": (2, 7),
    "theorem21": (2, 6), "corollary21": (2, 6), "prop21": (2, 6),
    "lemma31": (2, 7), "bianchi": (3, 5),
}


def _values(*jets):
    """The jets at budget (0, 0), for attributes suites read only as values."""
    return [restrict(j, 0, 0) for j in jets]


def chart(metric: FinslerMetric, p: SamplePoint, *names) -> ChartJets:
    """A :class:`ChartJets` at p with, on each axis, the largest jet order
    that the named attributes or suites need."""
    orders = [REQUIRED_ORDERS[name] for name in names]
    return ChartJets(metric, p, max(px for px, _ in orders),
                     max(py for _, py in orders))


class ChartJets:
    """All Berwald-geometry quantities at one sample point, as jets."""

    def __init__(self, metric: FinslerMetric, p: SamplePoint, px: int, py: int):
        metric.check_point(p)
        self.metric = metric
        self.p = p
        self.n = metric.n
        self.px = px
        self.py = py
        self.space = get_space(metric.n, px, py)
        xs, ys = self.space.seed(p.x, p.y)
        self.yjet = jstack(ys)
        L = metric.evaluate(xs, ys)
        if not isinstance(L, Jet):
            raise TypeError("metric evaluator must compose with jet scalars")
        if L.value() <= 0.0:
            raise DomainError(
                f"L = {L.value():.6g} <= 0 at x={p.x.tolist()}, "
                f"y={p.y.tolist()}")
        self.L = L

    # ---- structural frame --------------------------------------------
    @cached_property
    def E(self):
        return 0.5 * self.L * self.L

    @cached_property
    def ell(self):
        return d_y(self.L)

    @cached_property
    def g(self):
        return d_y(d_y(self.E))

    @cached_property
    def g_inv(self):
        gv = self.g.value()
        ev = np.linalg.eigvalsh(gv)
        if ev[0] <= 1e-9 * abs(ev[-1]):
            raise DegenerateMetric(
                f"fundamental tensor not positive definite at "
                f"x={self.p.x.tolist()}, y={self.p.y.tolist()} "
                f"(smallest eigenvalue {ev[0]:.3e})", min_eigenvalue=ev[0])
        # at the budget of G, its only reader
        return jet_matrix_inverse(restrict(self.g, self.px - 1, self.py - 2))

    @cached_property
    def phi(self):
        # suites read its value and its first fiber derivative
        return self._phi(restrict(self.L, 0, 1))

    def _phi(self, L):
        """phi = I - y (x) (ell / L), at the budget of ell or of L (the jet
        L or one of its restrictions), whichever is lower."""
        return np.eye(self.n) - jet_einsum("i,j->ij", self.yjet,
                                           self.ell * L.reciprocal())

    @cached_property
    def hbar(self):
        ell, g = _values(self.ell, self.g)
        return g - jet_einsum("i,j->ij", ell, ell)

    # ---- spray and connection ----------------------------------------
    @cached_property
    def G(self):
        # G^i = 1/4 g^{ih}( y^k d2(L^2)/dy^h dx^k - d(L^2)/dx^h ); with
        # E = L^2/2 the prefactor becomes 1/2.  This normalization makes
        # the Berwald coefficients of a Riemannian metric equal its
        # Christoffel symbols and anchors k = kappa on the space forms.
        dEx = d_x(self.E)              # [k]
        # [k, h] = d2E/dx^k dy^h; all three at the budget of G
        dEx, dExy, g_inv = shared([dEx, d_y(dEx), self.g_inv])
        lhs = jet_einsum("k,kh->h", self.yjet, dExy) - dEx
        return 0.5 * jet_einsum("ih,h->i", g_inv, lhs)

    @cached_property
    def N(self):
        return d_y(self.G)

    @cached_property
    def Gamma(self):
        return d_y(self.N)

    def delta(self, F):
        """Horizontal basis derivative, direction appended last:
        (delta F)[..., c] = dF/dx^c - N^m_c dF/dy^m."""
        sub = _LETTERS[:len(F.shape)]
        dxF, dyF, N = shared([d_x(F), d_y(F), self.N])
        return dxF - jet_einsum(f"{sub}m,mw->{sub}w", dyF, N)

    def h_cov(self, F, contravariant_first=False):
        """Berwald horizontal covariant derivative of a tensor-valued jet
        field; new covariant slot appended last."""
        r = len(F.shape)
        sub = _LETTERS[:r]
        out, Gamma, F = shared([self.delta(F), self.Gamma, F])
        if contravariant_first:
            fsub = "m" + sub[1:]
            out = out + jet_einsum(f"{sub[0]}mw,{fsub}->{sub}w", Gamma, F)
            cov = range(1, r)
        else:
            cov = range(r)
        for t in cov:
            fsub = sub[:t] + "m" + sub[t + 1:]
            out = out - jet_einsum(f"m{sub[t]}w,{fsub}->{sub}w", Gamma, F)
        return out

    # ---- curvature ----------------------------------------------------
    @cached_property
    def Rhat(self):
        dN = self.delta(self.N)        # [i, j, c]
        return dN - dN.tr(0, 2, 1)     # delta_c N^i_j - delta_j N^i_c

    @cached_property
    def H(self):
        return jet_einsum("k,ikj->ij", self.yjet, self.Rhat)

    @cached_property
    def k(self):
        tr, L = shared([self.H.trace(0, 1), self.L])
        return tr * (L * L).reciprocal() * (1.0 / (self.n - 1))

    # ---- scalar-curvature ladder -------------------------------------
    @cached_property
    def C(self):
        return self.L * d_y(self.k)

    @cached_property
    def B(self):
        dC = d_y(self.C)               # [arg j, direction c]
        m = dC.tr(1, 0)                # intrinsic slots (X=direction, Y=arg)
        pm = self._project(m)
        return self.L * pm

    @cached_property
    def A(self):
        dB = d_y(self.B)               # [x, y, direction c]
        m = dB.tr(2, 0, 1)             # intrinsic slots (X=dir, Y, Z)
        pm = self._project(m)
        return self.L * pm

    def _project(self, m):
        """phi composed into every slot of m, one einsum per slot; for
        rank 3: "ax,abc->xbc", then "by,xbc->xyc", then "cz,xyc->xyz"."""
        src, dst = "abc"[:len(m.shape)], "xyz"[:len(m.shape)]
        phi = self._phi(shared([m, self.L])[1])
        for t in range(len(src)):
            m_sub = dst[:t] + src[t:]
            out = dst[:t + 1] + src[t + 1:]
            m = jet_einsum(f"{src[t]}{dst[t]},{m_sub}->{out}", phi, m)
        return m

    @cached_property
    def Ntensor(self):
        B, k, ell, C, g = _values(self.B, self.k, self.ell, self.C, self.g)
        lC = jet_einsum("x,y->xy", ell, C)
        Cl = lC.tr(1, 0)
        core = g + jet_einsum("x,y->xy", ell, ell)
        return k * core + (1.0 / 3.0) * (B + 2.0 * lC + 2.0 * Cl)

    @cached_property
    def F(self):
        B, C, ell = _values(self.B, self.C, self.ell)
        Cl = jet_einsum("x,y->xy", C, ell)
        return (1.0 / 3.0) * (B + 2.0 * Cl)

    # ---- full h-curvature --------------------------------------------
    @cached_property
    def R(self):
        """R(X, Y)Z as [i, x, y, z]; the vertical derivative of Rhat in
        the Z direction."""
        return d_y(self.Rhat)

    @cached_property
    def R_low(self):
        return jet_einsum("iw,ixyz->xyzw", *_values(self.g, self.R))
