"""Finite-difference pipeline: an independent re-computation of the
metric, spray, connection, torsion, deviation, and scalar curvature
using only float evaluations of L and central-difference stencils (one
Richardson extrapolation level).

This backend shares no differentiation code with the jet engine, which
is what makes it a meaningful cross-check oracle.  It deliberately stops
at the first vertical derivative of the scalar curvature (the C form):
deeper members of the derivative ladder amplify FD noise beyond any
useful tolerance and are only available on the jet backend.

Every derivative is :func:`_d1` or :func:`_d2` of a float- or
array-valued f(x, y), with the derivative axes after f's own.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMetric, DomainError
from .metric import FinslerMetric, SamplePoint


def _richardson(stencil, h):
    """(4 T(h/2) - T(h)) / 3 for a tensor-valued stencil callable."""
    return (4.0 * np.asarray(stencil(h / 2.0)) - np.asarray(stencil(h))) / 3.0


def _base_h(x, y):
    """Step of the metric-level stencils at (x, y)."""
    return 1e-3 * (1.0 + float(np.max(np.abs(np.concatenate([x, y])))))


def _d1(f, x, y, var, h):
    """(f(+h) - f(-h)) / 2h in each component q of var ("x" or "y"),
    as [..., q]."""
    n = len(x)
    z = np.concatenate([x, y])
    out = []
    for q in range(n) if var == "x" else range(n, 2 * n):
        zp, zm = z.copy(), z.copy()
        zp[q] += h
        zm[q] -= h
        out.append((f(zp[:n], zp[n:]) - f(zm[:n], zm[n:])) / (2.0 * h))
    out = np.array(out)  # in C order: matmul and einsum sums follow layout
    return np.ascontiguousarray(out.transpose(*range(1, out.ndim), 0))


def _d2(f, x, y, va, vb, h):
    """Second partials d2 f / d(va)^i d(vb)^j as [..., i, j]: the
    four-point stencil, or for va == vb the three-point stencil on the
    diagonal and the upper triangle mirrored."""
    n = len(x)
    z = np.concatenate([x, y])
    a = 0 if va == "x" else n
    b = 0 if vb == "x" else n
    sym = va == vb
    f0 = f(x, y) if sym else None
    out = None
    for i in range(n):
        for j in range(i if sym else 0, n):
            if sym and i == j:
                zp, zm = z.copy(), z.copy()
                zp[a + i] += h
                zm[a + i] -= h
                val = (f(zp[:n], zp[n:]) - 2.0 * f0
                       + f(zm[:n], zm[n:])) / (h * h)
            else:
                val = 0.0
                for si in (1.0, -1.0):
                    for sj in (1.0, -1.0):
                        zz = z.copy()
                        zz[a + i] += si * h
                        zz[b + j] += sj * h
                        val += si * sj * f(zz[:n], zz[n:])
                val = val / (4.0 * h * h)
            if out is None:
                out = np.empty(np.shape(val) + (n, n))
            out[..., i, j] = val
            if sym:
                out[..., j, i] = val
    return out


class FDPipeline:
    """All FD-backend quantities for one metric; evaluation is pointwise
    through :meth:`tensors` and :meth:`c_form`."""

    def __init__(self, metric: FinslerMetric):
        self.metric = metric

    def _L(self, x, y):
        return float(self.metric.evaluate(list(x), list(y)))

    def _E(self, x, y):
        v = self._L(x, y)
        return 0.5 * v * v

    def g_at(self, x, y, h):
        return _richardson(lambda hh: _d2(self._E, x, y, "y", "y", hh), h)

    def spray_at(self, x, y, h):
        g = self.g_at(x, y, h)
        ev = np.linalg.eigvalsh(g)
        if ev[0] <= 1e-9 * abs(ev[-1]):
            raise DegenerateMetric(
                f"fundamental tensor not positive definite at "
                f"x={list(x)}, y={list(y)} (smallest eigenvalue {ev[0]:.3e})",
                min_eigenvalue=float(ev[0]))
        dEx = _richardson(lambda hh: _d1(self._E, x, y, "x", hh), h)
        dExy = _richardson(lambda hh: _d2(self._E, x, y, "x", "y", hh), h)
        lhs = np.asarray(y) @ dExy - dEx  # sum_k y^k d2E/dx^k dy^j - dE/dx^j
        return 0.5 * np.linalg.solve(g, lhs)

    def _n_rhat(self, x, y, h):
        """N^i_j = dG^i/dy^j and Rhat^i_jk = delta_k N^i_j - delta_j N^i_k
        from spray evaluations at inner step h."""
        def G(xx, yy):
            return self.spray_at(xx, yy, h)

        N = _richardson(lambda hh: _d1(G, x, y, "y", hh), h)
        # wider outer step: each spray evaluation carries ~1e-9 noise,
        # and second differences divide it by hh^2
        h2 = 20.0 * h
        Gxy = _richardson(lambda hh: _d2(G, x, y, "x", "y", hh), h2)
        Gyy = _richardson(lambda hh: _d2(G, x, y, "y", "y", hh), h2)
        # delta_c N^i_j = d2G^i/dx^c dy^j - N^m_c d2G^i/dy^m dy^j
        dN = np.einsum("icj->ijc", Gxy) - np.einsum(
            "mc,ijm->ijc", N, np.einsum("imj->ijm", Gyy))
        return N, dN - dN.transpose(0, 2, 1)

    def tensors(self, p: SamplePoint):
        """Dict of FD-backend values at p: L, g, G, N, Rhat, H, k."""
        self.metric.check_point(p)
        x, y = p.x, p.y
        h = _base_h(x, y)
        L = self._L(x, y)
        if L <= 0.0:
            raise DomainError(
                f"L = {L:.6g} <= 0 at x={x.tolist()}, y={y.tolist()}")
        g = self.g_at(x, y, h)
        G = self.spray_at(x, y, h)
        N, Rhat = self._n_rhat(x, y, h)
        H = np.einsum("k,ikj->ij", y, Rhat)
        k = float(np.trace(H)) / ((p.n - 1) * L * L)
        return {"L": L, "g": g, "G": G, "N": N, "Rhat": Rhat,
                "H": H, "k": k}

    def c_form(self, p: SamplePoint):
        """C = L dk/dy by a plain central difference of the scalar
        curvature closure (no Richardson: each evaluation is itself a
        deep FD pipeline)."""
        def k(x, y):
            L = self._L(x, y)
            Rhat = self._n_rhat(x, y, _base_h(x, y))[1]
            H = np.einsum("k,ikj->ij", y, Rhat)
            return float(np.trace(H)) / ((p.n - 1) * L * L)

        h = 1e-2 * (1.0 + float(np.max(np.abs(p.y))))
        return self._L(p.x, p.y) * _d1(k, p.x, p.y, "y", h)
