"""Finite-difference pipeline: an independent re-computation of the
metric, spray, connection, torsion, deviation, and scalar curvature
using only array evaluations of L and central-difference stencils (one
Richardson extrapolation level).

This backend shares no differentiation code with the jet engine, which
is what makes it a meaningful cross-check oracle; it shares only the
checks of L and g (:mod:`finsler.metric`).  It deliberately stops at the
first vertical derivative of the scalar curvature (the C form): deeper
members of the derivative ladder amplify FD noise beyond any useful
tolerance and are only available on the jet backend.

Every derivative is :func:`_d1` or :func:`_d2` of a float- or
array-valued f(x, y) of a batch of points (..., n), with the batch axes
first and the derivative axes after f's own.  A stencil evaluates f once
on all its points, as one more batch axis, and a Richardson pair puts its
two steps on one batch axis more, so nested stencils call L once per
innermost Richardson pair.  Each stencil writes its shifted points once,
component-major and contiguous; unshifted components stay exact.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, DomainError
from .metric import FinslerMetric, SamplePoint, check_g, check_L


def _richardson(stencil, f, x, y, *vars, h):
    """(4 T(h/2) - T(h)) / 3 for T = stencil(f, x, y, *vars, step), in one
    call of the stencil: the two steps are a new last batch axis."""
    hh = np.stack(np.broadcast_arrays(h / 2.0, h), axis=-1)
    T = stencil(f, x[..., None, :], y[..., None, :], *vars, hh)
    a = x.ndim - 1
    T = T.transpose(a, *range(a), *range(a + 1, T.ndim))
    return (4.0 * T[0] - T[1]) / 3.0


def _base_h(x, y):
    """Step of the metric-level stencils at each point (x, y)."""
    z = np.concatenate([x, y], axis=-1)
    return 1e-3 * (1.0 + np.max(np.abs(z), axis=-1))


def _trail(h, k):
    """The step h (a scalar, or one per batch point) with k unit axes
    appended, so it broadcasts over the axes after the batch."""
    h = np.asarray(h)
    return h.reshape(h.shape + (1,) * k)


def _last_first(a):
    """a with its last axis moved first, as a view."""
    return a.transpose(-1, *range(a.ndim - 1))


def _at(f, x, y, h, S):
    """f at the stencil points (x, y) + h S[r], one row r of the sign
    table S (m, 2n) each, in one call, as [..., r] after f's own axes.  A
    half of (x, y) that S shifts is the (..., m, n) view of a C-ordered
    block (n, ..., m); a half it does not shift is a broadcast view."""
    n, m, h = x.shape[-1], len(S), _trail(h, 2)
    lead = np.broadcast_shapes(x.shape[:-1], y.shape[:-1], h.shape[:-2])

    def shifted(u, s):
        u = u[..., None, :]
        if not s.any():
            return np.broadcast_to(u, lead + (m, n))
        pts = np.empty((n,) + lead + (m,))
        np.add(_last_first(u), _last_first(s * h), out=pts)
        pts = pts.transpose(*range(1, pts.ndim), 0)
        # u + 0 h is u but for u = -0.0: then copy the unshifted entries
        if np.signbit(u[u == 0]).any():
            np.copyto(pts, u, where=s == 0)
        return pts

    F = np.asarray(f(shifted(x, S[:, :n]), shifted(y, S[:, n:])))
    r = len(lead)
    return F.transpose(*range(r), *range(r + 1, F.ndim), r)


def _d1(f, x, y, var, h):
    """(f(+h) - f(-h)) / 2h in each component q of var ("x" or "y"),
    as [..., q]."""
    n = x.shape[-1]
    a = 0 if var == "x" else n
    q = np.arange(n)
    S = np.zeros((2 * n, 2 * n))
    S[q, a + q] = 1.0
    S[n + q, a + q] = -1.0
    F = _at(f, x, y, h, S)
    h = _trail(h, F.ndim - x.ndim + 1)
    # in C order: matmul and einsum sums follow layout
    return np.ascontiguousarray((F[..., :n] - F[..., n:]) / (2.0 * h))


_SIGNS = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))


@functools.cache
def _d2_signs(n, va, vb, diagonal=True):
    """_d2's sign table, and the (i, j) of its P pairs: the upper triangle
    for va == vb, else the full grid, row-major, or its off-diagonal pairs
    for diagonal=False.  Rows: the four sign pairs of each (i, j); for
    va == vb then +h and -h on the diagonal and the unshifted point."""
    a, b = (0 if va == "x" else n), (0 if vb == "x" else n)
    sym = va == vb
    I, J = np.triu_indices(n, 1) if sym else np.indices((n, n)).reshape(2, -1)
    I, J = (I, J) if diagonal else (I[I != J], J[I != J])
    P, r, q = len(I), np.arange(len(I)), np.arange(n)
    S = np.zeros((4 * P + (2 * n + 1 if sym else 0), 2 * n))
    for c, (si, sj) in enumerate(_SIGNS):
        S[c * P + r, a + I] = si
        S[c * P + r, b + J] = sj
    if sym:
        S[4 * P + q, a + q] = 1.0
        S[4 * P + n + q, a + q] = -1.0
    return S, I, J


def _d2(f, x, y, va, vb, h, diagonal=True):
    """Second partials d2 f / d(va)^i d(vb)^j as [..., i, j]: the
    four-point stencil, or for va == vb the three-point stencil on the
    diagonal and the upper triangle mirrored.  For diagonal=False
    (va != vb) the pairs i == j are not evaluated and read 0."""
    n = x.shape[-1]
    S, I, J = _d2_signs(n, va, vb, diagonal)
    P = len(I)
    F = _at(f, x, y, h, S)
    h = _trail(h, F.ndim - x.ndim + 1)
    val = 0.0
    for c, (si, sj) in enumerate(_SIGNS):
        val = val + si * sj * F[..., c * P:(c + 1) * P]
    val = val / (4.0 * h * h)
    if P == n * n:
        return np.ascontiguousarray(val.reshape(F.shape[:-1] + (n, n)))
    out = np.zeros(F.shape[:-1] + (n, n))
    out[..., I, J] = val
    if va == vb:
        out[..., J, I] = val
        fp, fm = F[..., 4 * P:4 * P + n], F[..., 4 * P + n:4 * P + 2 * n]
        out[..., range(n), range(n)] = (fp - 2.0 * F[..., -1:] + fm) / (h * h)
    return out


class _Outside(DomainError):
    """L was to be evaluated at x, outside the metric's domain."""

    def __init__(self, x, desc):
        super().__init__(f"x={x.tolist()} outside chart domain ({desc})")
        self.x = x


class FDPipeline:
    """All FD-backend quantities for one metric; evaluation is pointwise,
    one pass per point, through :meth:`tensors` (and :meth:`c_form`, its
    C).  The other methods take x and y of any batch shape (..., n) and a
    step h that is a scalar or has the batch's number of axes."""

    def __init__(self, metric: FinslerMetric):
        self.metric = metric

    def _L(self, x, y):
        # one call of L on a batch inside the domain; a constant L is 0-d
        if self.metric.domain is not None:
            inside = np.asarray(self.metric.domain(x))
            if inside.shape != x.shape[:-1]:
                raise ConfigError(f"{self.metric.name}: domain of x of shape "
                                  f"{x.shape} has shape {inside.shape}")
            if not inside.all():
                raise _Outside(x[~inside][0], self.metric.domain_desc)
        v = self.metric.evaluate(list(_last_first(x)), list(_last_first(y)))
        return v if np.ndim(v) else np.broadcast_to(v, x.shape[:-1])

    def _E(self, x, y):
        v = self._L(x, y)
        return 0.5 * v * v

    def spray_at(self, x, y, h):
        """(g, G): the metric tensor and the spray at step h."""
        g = _richardson(_d2, self._E, x, y, "y", "y", h=h)
        check_g(g, x, y)
        dEx = _richardson(_d1, self._E, x, y, "x", h=h)
        dExy = _richardson(_d2, self._E, x, y, "x", "y", h=h)
        # sum_k y^k d2E/dx^k dy^j - dE/dx^j, as a stacked matmul
        lhs = (y[..., None, :] @ dExy)[..., 0, :] - dEx
        return g, 0.5 * np.linalg.solve(g, lhs[..., None])[..., 0]

    def _curvature(self, x, y, L):
        """N^i_j = dG^i/dy^j, Rhat^i_jk = delta_k N^i_j - delta_j N^i_k,
        H^i_j = y^k Rhat^i_kj and k = tr H / ((n-1) L^2), from spray
        evaluations at the base step."""
        h = _base_h(x, y)
        hs = _trail(h, 2)  # per point, over a pair's step and stencil axes

        def G(xx, yy):
            return self.spray_at(xx, yy, hs)[1]

        N = _richardson(_d1, G, x, y, "y", h=h)
        # wider outer step: each spray evaluation carries ~1e-9 noise, and
        # second differences divide it by h^2; Rhat cancels Gxy's c == j
        Gxy = _richardson(functools.partial(_d2, diagonal=False), G, x, y,
                          "x", "y", h=20.0 * h)
        Gyy = _richardson(_d2, G, x, y, "y", "y", h=20.0 * h)
        # delta_c N^i_j = d2G^i/dx^c dy^j - N^m_c d2G^i/dy^m dy^j
        dN = np.einsum("...icj->...ijc", Gxy) - np.einsum(
            "...mc,...ijm->...ijc", N, np.einsum("...imj->...ijm", Gyy))
        Rhat = dN - np.swapaxes(dN, -1, -2)
        H = np.einsum("...k,...ikj->...ij", y, Rhat)
        k = np.trace(H, axis1=-2, axis2=-1) / ((y.shape[-1] - 1) * L * L)
        return N, Rhat, H, k

    def tensors(self, p: SamplePoint):
        """Dict of FD-backend values at p: L, g, G, N, Rhat, H, k and C =
        L dk/dy, from one curvature pass over p.y and the 2n directions
        p.y +- h e_q at which C's plain central difference reads k (no
        Richardson: each k is itself a deep FD pipeline)."""
        L = check_L(self.metric.L(p), p)
        n, h = p.n, 1e-2 * (1.0 + float(np.max(np.abs(p.y))))
        e = np.concatenate([np.eye(n), -np.eye(n)])
        yq = np.where(e != 0, p.y + h * e, p.y)  # -0.0 stays where unshifted
        x = np.broadcast_to(p.x, (2 * n + 1, n))
        try:
            g, G = self.spray_at(p.x, p.y, _base_h(p.x, p.y))
            N, Rhat, H, k = self._curvature(
                x, np.concatenate([p.y[None], yq]),
                np.concatenate([[L], self._L(x[1:], yq)]))
        except _Outside as e:
            raise DomainError(
                f"FD stencils at x={p.x.tolist()}, y={p.y.tolist()} reach "
                f"x={e.x.tolist()}, {np.linalg.norm(e.x - p.x):.3g} away, "
                f"outside chart domain ({self.metric.domain_desc})") from None
        return {"L": L, "g": g, "G": G, "N": N[0], "Rhat": Rhat[0],
                "H": H[0], "k": float(k[0]),
                "C": L * ((k[1:n + 1] - k[n + 1:]) / (2.0 * h))}

    def c_form(self, p: SamplePoint):
        """C = L dk/dy at p, as :meth:`tensors` computes it."""
        return self.tensors(p)["C"]
