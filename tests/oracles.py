"""Independent numerical oracles used by the test suite.

Most share no code with the jet engine: Christoffel symbols and the
Riemann tensor are central differences of the component matrix a_ij(x)
of a Riemannian metric, which ``riemannian_a`` reads off float calls of
L by polarization (Riemannian metrics only), and the flag curvature of
a projectively flat metric is central differences of L in x alone.
``H_spray`` reads the spray of a chart but none of the connection or
curvature built from it, and ``projected_norms`` reads the two forms
that Prop 2.1 compares.
"""

import numpy as np

from finsler.jets import d_x, d_y


def _central(f, x, h):
    """[d f / dx^l for each l], by central differences."""
    return np.array([(f(x + h * e) - f(x - h * e)) / (2.0 * h)
                     for e in np.eye(len(x))])


def christoffel_fd(a_fn, x, h=1e-5):
    """Gamma^i_jk of a Riemannian metric given its component matrix
    a_fn(x) -> (n, n), by central differences."""
    x = np.asarray(x, dtype=float)
    ainv = np.linalg.inv(a_fn(x))
    da = _central(a_fn, x, h)  # da[l, j, k] = d a_jk / dx^l
    return (0.5 * np.einsum("il,jlk->ijk", ainv, da)
            + 0.5 * np.einsum("il,klj->ijk", ainv, da)
            - 0.5 * np.einsum("il,ljk->ijk", ainv, da))


def riemann_fd(a_fn, x, h=1e-4):
    """R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj + Gamma Gamma terms,
    by central differences of the Christoffel oracle."""
    dG = _central(lambda z: christoffel_fd(a_fn, z), x, h)  # [m] = d_m Gamma
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


def riemannian_a(metric):
    """x -> a(x) of a Riemannian L by polarization of float calls of L:
    a_ii = L(e_i)^2 and a_ij = (L(e_i + e_j)^2 - L(e_i - e_j)^2) / 4.
    Raises where L^2 != y.a(x).y at one generic y."""
    e, y = np.eye(metric.n), np.cos(np.arange(1.0, metric.n + 1))

    def a_fn(x):
        q = lambda v: float(metric.evaluate(x.tolist(), v.tolist())) ** 2
        a = np.array([[q(u) if i == j else (q(u + v) - q(u - v)) / 4.0
                       for j, v in enumerate(e)] for i, u in enumerate(e)])
        if not abs(q(y) - y @ a @ y) <= 1e-12 * q(y):  # NaN fails too
            raise ValueError(f"{metric.name}: L^2 not quadratic at x={x}")
        return a

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


def H_spray(cj):
    """The Riemann curvature R^i_k from the spray alone (Shen, Lectures
    on Finsler Geometry, 2001, ch. 6):
    R^i_k = 2 dG^i/dx^k - y^j d2G^i/dx^j dy^k + 2 G^j d2G^i/dy^j dy^k
            - N^i_j N^j_k,  with N^i_j = dG^i/dy^j.
    It uses no delta, no Rhat and no antisymmetrization, so it is a
    second formula for the deviation tensor H of a chart at (2, 4)."""
    G = cj.G
    y = cj.p.y
    Gx, N = d_x(G).value(), d_y(G).value()  # [i, k]
    Gxy = d_y(d_x(G)).value()  # [i, j, k]: d/dx^j, then d/dy^k
    Gyy = d_y(d_y(G)).value()  # [i, j, k]
    return (2.0 * Gx - np.einsum("j,ijk->ik", y, Gxy)
            + 2.0 * np.einsum("j,ijk->ik", G.value(), Gyy) - N @ N)


def projected_norms(cj):
    """max |PR| and max |PN| at a chart: the lowered curvature and the N
    form with phi in every slot.  Prop 2.1 says that on a space of scalar
    curvature one vanishes exactly when the other does."""
    phi = cj.phi.value()
    PR = np.einsum("ax,by,cz,dw,abcd->xyzw", phi, phi, phi, phi, cj.R_low)
    return np.abs(PR).max(), np.abs(phi.T @ cj.Ntensor @ phi).max()
