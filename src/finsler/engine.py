"""Per-point evaluation pipeline.

``ChartJets`` expands the fundamental function L as a truncated Taylor jet
around one sample point and derives every tensor of interest (metric,
spray, nonlinear connection, Berwald coefficients, curvature, deviation,
scalar curvature and its vertical-derivative ladder C, B, A) by formal
differentiation and jet arithmetic; the forms read only at the point
(hbar, N, F and R_low) are arrays of values.  Everything is exact to
machine precision within the jet truncation; requesting a quantity
beyond the truncation raises :class:`OrderUnsupported`; bianchi's one read
past its chart, Rhat's third x-order, is on a (3, 3) chart (``Rhat_x``).

Index conventions (component storage):

* ``ell[j] = dL/dy^j``; ``g[i,j] = d2E/dy^i dy^j`` with E = L^2/2.
* ``N[i,j] = dG^i/dy^j``; ``Gamma[i,j,k] = d2G^i/dy^j dy^k``.
* ``Rhat[i,j,k]``: slots (X, Y) = (j, k).
* Covariant-derivative direction is always the appended LAST axis; the
  intrinsic notation puts the direction first, so e.g. the intrinsic
  (D2 C)(X, Y) is ``d_y(C)[Y, X]`` here.
* ``D2C``, ``D2B``, ``B`` and ``A`` are stored in intrinsic slot order
  (X, Y) / (X, Y, Z) where X is the differentiation slot.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .jets import (Jet, d_x, d_y, get_space, jet_einsum, jet_matrix_inverse,
                   jstack, restrict, shared)
from .metric import (FinslerMetric, SamplePoint, check_finite, check_g,
                     check_L)

_LETTERS = "abcdefgh"

# minimum jet orders (px, py) each pipeline attribute and each identity
# suite of finsler.suites needs; the single source of jet orders.  An
# attribute that only suites read is built at their budget, not the chart's
REQUIRED_ORDERS = {
    "L": (0, 0), "E": (0, 0), "ell": (0, 1), "g": (0, 2), "g_inv": (1, 2),
    "phi": (0, 1), "hbar": (0, 2), "G": (1, 2), "N": (1, 3),
    "Gamma": (1, 4), "Rhat": (2, 4), "H": (2, 4), "k": (2, 4),
    "C": (2, 5), "D2C": (2, 6), "B": (2, 6), "D2B": (2, 7), "A": (2, 7),
    "Ntensor": (2, 6), "F": (2, 6), "R": (2, 5), "R_low": (2, 5),
    # a suite differentiates past the attributes it reads: bianchi takes
    # h_cov of Rhat, one x-order past its chart; Rhat_x reads that from
    # N_x2 on a companion chart, as G at (2, 1) reads L at (2, 3) and
    # (3, 2), and (3, 3) is the smallest rectangle that holds both
    "N_x2": (3, 3),
    "lemma21": (1, 4), "lemma22": (2, 6), "lemma23": (2, 7),
    "theorem21": (2, 6), "corollary21": (2, 6), "prop21": (2, 6),
    "lemma31": (2, 7), "bianchi": (2, 5),
}


def chart(metric: FinslerMetric, p: SamplePoint, *names) -> ChartJets:
    """A :class:`ChartJets` at p with, on each axis, the largest jet order
    that the named attributes or suites need."""
    orders = [REQUIRED_ORDERS[name] for name in names]
    return ChartJets(metric, p, max(px for px, _ in orders),
                     max(py for _, py in orders))


class ChartJets:
    """All Berwald-geometry quantities at one sample point.  An attribute
    built by a jet operation is a :class:`Jet`; one that is NumPy algebra
    on other attributes' values is an array."""

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
        L = metric.evaluate(xs, ys)  # a float if constant in x and y
        self.L = L if isinstance(L, Jet) else self.space.constant(L)
        check_L(self.L, p)

    # ---- structural frame --------------------------------------------
    @cached_property
    def E(self):
        with np.errstate(over="ignore", invalid="ignore"):  # g checks E
            return 0.5 * self.L * self.L

    @cached_property
    def ell(self):
        return d_y(self.L)

    @cached_property
    def g(self):
        with np.errstate(over="ignore"):
            g = d_y(d_y(self.E))
        check_finite("E = L^2/2 or g", np.append(self.E.c, g.c), self.p.x,
                     self.p.y)
        return g

    @cached_property
    def g_inv(self):
        check_g(self.g.value(), self.p.x, self.p.y)
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
        ell = self.ell.value()
        return self.g.value() - np.einsum("i,j->ij", ell, ell)

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

    def delta(self, F, Fx):
        """Horizontal basis derivative, direction appended last, with d_x
        of Fx: (delta F)[..., c] = dFx/dx^c - N^m_c dF/dy^m."""
        sub = _LETTERS[:len(F.shape)]
        dxF, dyF, N = shared([d_x(Fx), d_y(F), self.N])
        return dxF - jet_einsum(f"{sub}m,mw->{sub}w", dyF, N)

    def h_cov(self, F, contravariant_first=False, Fx=None):
        """Berwald horizontal covariant derivative of a tensor-valued jet
        field; new covariant slot appended last.  Suites read only its
        value, so d_x reads Fx (F, or F at more x-orders) cut to (1, 0),
        d_y reads F cut to (0, 1), and the result is a jet at (0, 0)."""
        r = len(F.shape)
        sub = _LETTERS[:r]
        Fx, F = restrict(F if Fx is None else Fx, 1, 0), restrict(F, 0, 1)
        out, Gamma, F = shared([self.delta(F, Fx), self.Gamma, F])
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
        return self._torsion(self.N)

    @cached_property
    def Rhat_x(self):
        """Rhat at (1, 0), dN/dx read from N_x2 on a companion chart."""
        return self._torsion(chart(self.metric, self.p, "N_x2").N_x2)

    N_x2 = property(lambda self: restrict(self.N, 2, 0))  # N at (2, 0)

    def _torsion(self, Nx):
        dN = self.delta(self.N, Nx)    # [i, j, c]
        return dN - dN.tr(0, 2, 1)     # delta_c N^i_j - delta_j N^i_c

    @cached_property
    def H(self):
        return jet_einsum("k,ikj->ij", self.yjet, self.Rhat)

    @cached_property
    def k(self):
        tr, L = shared([self.H.trace(0, 1), self.L])
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            L2 = L * L
            inv = L2.reciprocal()
        check_finite("L^2", np.append(L2.c, inv.c), self.p.x, self.p.y)
        return tr * inv * (1.0 / (self.n - 1))

    # ---- scalar-curvature ladder -------------------------------------
    @cached_property
    def C(self):
        return self.L * d_y(self.k)

    @cached_property
    def D2C(self):
        return d_y(self.C).tr(1, 0)    # intrinsic slots (X=direction, Y)

    @cached_property
    def B(self):
        return self.L * self._project(self.D2C)

    @cached_property
    def D2B(self):
        return d_y(self.B).tr(2, 0, 1)  # intrinsic slots (X=dir, Y, Z)

    @cached_property
    def A(self):
        return self.L * self._project(self.D2B)

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
        B, k, ell, C, g = (a.value() for a in (self.B, self.k, self.ell,
                                               self.C, self.g))
        lC = np.einsum("x,y->xy", ell, C)
        core = g + np.einsum("x,y->xy", ell, ell)
        return k * core + (1.0 / 3.0) * (B + 2.0 * lC + 2.0 * lC.T)

    @cached_property
    def F(self):
        B, C, ell = self.B.value(), self.C.value(), self.ell.value()
        return (1.0 / 3.0) * (B + 2.0 * np.einsum("x,y->xy", C, ell))

    # ---- full h-curvature --------------------------------------------
    @cached_property
    def R(self):
        """R(X, Y)Z as [i, x, y, z]; the vertical derivative of Rhat in
        the Z direction."""
        return d_y(self.Rhat)

    @cached_property
    def R_low(self):
        return np.einsum("iw,ixyz->xyzw", self.g.value(), self.R.value())
