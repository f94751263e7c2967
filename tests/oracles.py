"""Independent numerical oracles used by the test suite.

These share no code with the jet engine: Christoffel symbols and the
Riemann tensor are obtained by plain central differences of the metric
component matrix a_ij(x) of a Riemannian metric, and the flag curvature
of a projectively flat metric by central differences of L in x alone.
"""

import numpy as np


def christoffel_fd(a_fn, x, h=1e-5):
    """Gamma^i_jk of a Riemannian metric given its component matrix
    a_fn(x) -> (n, n), by central differences."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    ainv = np.linalg.inv(a_fn(x))
    da = np.empty((n, n, n))  # da[l, j, k] = d a_jk / dx^l
    for l in range(n):
        xp, xm = x.copy(), x.copy()
        xp[l] += h
        xm[l] -= h
        da[l] = (a_fn(xp) - a_fn(xm)) / (2.0 * h)
    return (0.5 * np.einsum("il,jlk->ijk", ainv, da)
            + 0.5 * np.einsum("il,klj->ijk", ainv, da)
            - 0.5 * np.einsum("il,ljk->ijk", ainv, da))


def riemann_fd(a_fn, x, h=1e-4):
    """R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj + Gamma Gamma terms,
    by central differences of the Christoffel oracle."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    dG = np.empty((n, n, n, n))  # dG[m, i, j, l] = d Gamma^i_jl / dx^m
    for m in range(n):
        xp, xm = x.copy(), x.copy()
        xp[m] += h
        xm[m] -= h
        dG[m] = (christoffel_fd(a_fn, xp) - christoffel_fd(a_fn, xm)) \
            / (2.0 * h)
    G = christoffel_fd(a_fn, x)
    return (np.einsum("kilj->ijkl", dG) - np.einsum("likj->ijkl", dG)
            + np.einsum("ikm,mlj->ijkl", G, G)
            - np.einsum("ilm,mkj->ijkl", G, G))


def deviation_fd(a_fn, x, y, h=1e-4):
    """Jacobi endomorphism H^i_j = R^i_kjl y^k y^l of a Riemannian
    metric (indices per riemann_fd)."""
    R = riemann_fd(a_fn, x, h)
    y = np.asarray(y, dtype=float)
    return np.einsum("ijkl,j,l->ik", R, y, y)


def space_form_a(kappa):
    """Component matrix of the constant-curvature conformal model."""

    def a_fn(x):
        x = np.asarray(x, dtype=float)
        conf = 1.0 + 0.25 * kappa * np.dot(x, x)
        return np.eye(len(x)) / conf ** 2

    return a_fn


def k_pflat(metric, p, h=1e-3):
    """Flag curvature K of a projectively flat Finsler metric F at p:
    K = (P^2 - P_{x^k} y^k) / F^2 with projective factor P = F_{x^k} y^k
    / (2F) (Chern-Shen, Riemann-Finsler Geometry, ch. 8; Shen, Trans. AMS
    2003).  With f(t) = F(x + t y, y), F_{x^k} y^k = f'(0) and P_{x^k} y^k
    = f''/(2f) - f'^2/(2f^2) at 0; f' and f'' are five-point central
    differences of float calls of L, so only x moves."""
    x = np.asarray(p.x, dtype=float)
    y = np.asarray(p.y, dtype=float)
    fm2, fm1, f0, f1, f2 = (float(metric.evaluate((x + s * h * y).tolist(),
                                                  y.tolist()))
                            for s in (-2, -1, 0, 1, 2))
    d1 = (fm2 - 8.0 * fm1 + 8.0 * f1 - f2) / (12.0 * h)
    d2 = (-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * f1 - f2) / (12.0 * h * h)
    P = d1 / (2.0 * f0)
    dP = d2 / (2.0 * f0) - d1 * d1 / (2.0 * f0 * f0)
    return (P * P - dP) / (f0 * f0)
