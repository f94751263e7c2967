"""Identity-verification suites.

Each suite maps a prepared :class:`~finsler.engine.ChartJets` to a dict
of named normalized residuals.  Suite keys double as the config-file
vocabulary of the command-line tool; the identity keys inside each suite
name what is being checked.

Residuals are normalized by the magnitude of the largest participating
term (floored at 1) so that identities mixing scales remain comparable.
"""

from __future__ import annotations

import numpy as np

from .engine import ChartJets, chart
from .jets import d_y

# ---------------------------------------------------------------------------
# helpers


def _mx(arr):
    """max |arr| of a number or an array, 0.0 if it is empty."""
    return float(np.maximum.reduce(abs(arr), None, initial=0.0))


def _rel(diff, *refs):
    scale = max([1.0] + [_mx(r) for r in refs])
    return _mx(diff) / scale


def isotropy(H, k, L, phi):
    """|H - k L^2 phi| / max(|H|, L^2): zero iff the deviation tensor H
    is isotropic.  Shared by the theorem21 suite and classification."""
    return _mx(H - k * L * L * phi) / max(_mx(H), L * L)


# ---------------------------------------------------------------------------
# suites


def suite_lemma21(cj: ChartJets):
    """Structural-frame identities: pairings with the direction vector,
    horizontal constancy of L and ell, fiber derivatives of L, ell, phi,
    and the projector's action on ell and hbar."""
    y = cj.p.y
    L = cj.L.value()
    ell = cj.ell.value()
    g = cj.g.value()
    phi = cj.phi.value()
    hbar = cj.hbar
    n = cj.n
    res = {
        "ell_pairs_to_L": _rel(ell @ y - L, L),
        "phi_kills_direction": _rel(phi @ y, phi),
        "hbar_kills_direction": _rel(hbar @ y, hbar),
        "metric_splits": _rel(g - (hbar + np.outer(ell, ell)), g),
        "phi_trace": _rel(np.trace(phi) - (n - 1), n - 1),
        "project_ell_vanishes": _rel(phi.T @ ell, ell),
        "project_hbar_fixed": _rel(phi.T @ hbar @ phi - hbar, hbar),
    }
    # horizontal constancy
    res["horizontal_L"] = _rel(cj.h_cov(cj.L).value(), L)
    res["horizontal_ell"] = _rel(cj.h_cov(cj.ell).value(), ell)
    # fiber derivatives
    res["fiber_L_is_ell"] = _rel(d_y(cj.L).value() - ell, ell)
    res["fiber_ell_is_hbar"] = _rel(d_y(cj.ell).value() - hbar / L, hbar / L)
    dphi = d_y(cj.phi).value()  # [i, j, c], c the direction
    pred = -(np.einsum("jc,i->ijc", hbar, y)
             + L * np.einsum("ic,j->ijc", phi, ell)) / (L * L)
    res["fiber_phi"] = _rel(dphi - pred, dphi, pred)
    return res


def suite_lemma22(cj: ChartJets):
    """Properties of the first curvature-derivative form C."""
    y = cj.p.y
    C = cj.C.value()
    phi = cj.phi.value()
    D2C = cj.D2C.value()  # [direction X, argument Y]
    return {
        "C_kills_direction": _rel(C @ y, C),
        "C_is_indicatory": _rel(phi.T @ C - C, C),
        "fiber_C_direction_first": _rel(y @ D2C, C),
        "fiber_C_direction_second": _rel(D2C @ y + C, C),
    }


def suite_lemma23(cj: ChartJets):
    """Properties of the second curvature-derivative form B."""
    y = cj.p.y
    L = cj.L.value()
    C = cj.C.value()
    B = cj.B.value()
    ell = cj.ell.value()
    phi = cj.phi.value()
    D2C = cj.D2C.value()
    D2B = cj.D2B.value()  # [X=direction, Y, Z]
    return {
        "B_kills_direction": _rel(B @ y, B, C),
        "B_is_indicatory": _rel(phi.T @ B @ phi - B, B),
        "fiber_B_direction_first": _rel(np.einsum("x,xyz->yz", y, D2B),
                                        B, C),
        "B_from_C": _rel(B - (L * D2C + np.outer(C, ell)), B, C),
        "B_symmetric": _rel(B - B.T, B, C),
        "fiber_B_direction_mid": _rel(
            np.einsum("xyz,y->xz", D2B, y) + B, B, C),
        "fiber_B_direction_last": _rel(
            np.einsum("xyz,z->xy", D2B, y) + B, B, C),
    }


def suite_theorem21(cj: ChartJets):
    """Scalar-curvature characterization: the deviation tensor is
    isotropic iff the torsion and full curvature take their special
    forms."""
    y = cj.p.y
    L = cj.L.value()
    k = cj.k.value()
    ell = cj.ell.value()
    phi = cj.phi.value()
    hbar = cj.hbar
    H = cj.H.value()
    Rhat = cj.Rhat.value()
    R = cj.R.value()
    C = cj.C.value()
    B = cj.B.value()

    iso = isotropy(H, k, L, phi)

    psi = k * ell + C / 3.0
    tors = L * (np.einsum("iy,x->ixy", phi, psi)
                - np.einsum("ix,y->ixy", phi, psi))
    torsion_form = _rel(tors - Rhat, Rhat, tors)

    brk = B / 3.0 + k * hbar
    t1 = np.einsum("iy,z,x->ixyz", phi, ell, psi)
    t2 = (np.einsum("iy,zx->ixyz", phi, brk)
          + (2.0 / 3.0) * np.einsum("iy,x,z->ixyz", phi, ell, C))
    t3 = (1.0 / 3.0) * np.einsum("x,y,iz->ixyz", ell, C, phi)
    t4 = (1.0 / L) * np.einsum("xz,i,y->ixyz", hbar, y, psi)
    rhs = t1 + t2 + t3 + t4
    rhs = rhs - rhs.transpose(0, 2, 1, 3)
    curvature_form = _rel(rhs - R, R, rhs)

    return {
        "deviation_isotropic": iso,
        "torsion_form": torsion_form,
        "curvature_form": curvature_form,
    }


def suite_corollary21(cj: ChartJets):
    """Symmetry-split identities of the lowered curvature on
    scalar-curvature spaces, in terms of the auxiliary forms N and F."""
    hbar = cj.hbar
    Rl = cj.R_low
    Nt = cj.Ntensor
    F = cj.F

    lhs_a = Rl - Rl.transpose(0, 1, 3, 2)
    rhs_a = (np.einsum("zx,wy->xyzw", hbar, Nt)
             + np.einsum("wy,zx->xyzw", hbar, Nt))
    rhs_a = rhs_a - rhs_a.transpose(1, 0, 2, 3)

    lhs_b = Rl + Rl.transpose(0, 1, 3, 2)
    rhs_b = (np.einsum("wy,zx->xyzw", hbar, F)
             + np.einsum("zy,wx->xyzw", hbar, F)
             + np.einsum("wz,yx->xyzw", hbar, F))
    rhs_b = rhs_b - rhs_b.transpose(1, 0, 2, 3)

    return {
        "antisymmetric_part": _rel(lhs_a - rhs_a, Rl, rhs_a),
        "symmetric_part": _rel(lhs_b - rhs_b, Rl, rhs_b),
    }


def suite_prop21(cj: ChartJets):
    """The projected curvature (phi in every slot of R_low) has its closed
    expression in B and k.  Prop 2.1's projected N and F forms are not
    checked: by the definitions of Ntensor and F they hold on every metric,
    given lemma21's frame identities and lemma23's B_is_indicatory."""
    k = cj.k.value()
    phi = cj.phi.value()
    hbar = cj.hbar
    Rl = cj.R_low
    B = cj.B.value()

    PR = np.einsum("ax,by,cz,dw,abcd->xyzw", phi, phi, phi, phi, Rl)
    rhs = np.einsum("yw,zx->xyzw", hbar, B / 3.0 + k * hbar)
    rhs = rhs - rhs.transpose(1, 0, 2, 3)
    return {"projected_curvature_form": _rel(PR - rhs, Rl, rhs)}


def suite_lemma31(cj: ChartJets):
    """Third curvature-derivative form A: its expansion in B, and the
    antisymmetry obstruction that forces constancy."""
    L = cj.L.value()
    ell = cj.ell.value()
    C = cj.C.value()
    B = cj.B.value()
    A = cj.A.value()
    hbar = cj.hbar
    D2B = cj.D2B.value()

    expansion = (L * D2B + np.einsum("z,xy->xyz", ell, B)
                 + np.einsum("y,xz->xyz", ell, B))
    M = A + np.einsum("x,yz->xyz", C, hbar)
    return {
        "A_from_B": _rel(A - expansion, A, B),
        "constancy_obstruction": _rel(M - M.transpose(1, 0, 2), A, B),
    }


def suite_bianchi(cj: ChartJets):
    """Universal identities: torsion antisymmetry, reconstruction of the
    torsion from the deviation tensor, contraction of the full curvature
    back to the torsion, and the cyclic (Bianchi-type) identity for the
    horizontal derivative of the torsion."""
    y = cj.p.y
    Rhat = cj.Rhat.value()
    H = cj.H.value()
    R = cj.R.value()

    dH = d_y(cj.H).value()  # [i, j, c]
    D2H = dH.transpose(0, 2, 1)  # direction first
    rec = (D2H - D2H.transpose(0, 2, 1)) / 3.0

    hR = cj.h_cov(cj.Rhat, contravariant_first=True, Fx=cj.Rhat_x).value()
    t = hR.transpose(0, 3, 1, 2)
    cyc = t + t.transpose(0, 2, 3, 1) + t.transpose(0, 3, 1, 2)

    return {
        "torsion_antisymmetry": _rel(Rhat + Rhat.transpose(0, 2, 1), Rhat),
        "deviation_kills_direction": _rel(H @ y, Rhat),
        "torsion_from_deviation": _rel(rec - Rhat, Rhat),
        "curvature_contracts_to_torsion": _rel(
            np.einsum("ixyz,z->ixy", R, y) - Rhat, Rhat),
        "cyclic_identity": _rel(cyc, hR),
    }


# ---------------------------------------------------------------------------
# registry

SUITES = {
    "lemma21": suite_lemma21,
    "lemma22": suite_lemma22,
    "lemma23": suite_lemma23,
    "theorem21": suite_theorem21,
    "corollary21": suite_corollary21,
    "prop21": suite_prop21,
    "lemma31": suite_lemma31,
    "bianchi": suite_bianchi,
}

# suites that hold on every Finsler metric (the rest assume the
# scalar-curvature property)
UNIVERSAL_SUITES = ("lemma21", "lemma22", "lemma23", "lemma31", "bianchi")


def run_suites(metric, points, names):
    """Evaluate the named suites at each point, all on one chart at the
    orders they need (``engine.chart``); returns a list of one record
    (suite, identity, point index, residual) per identity, per point and
    then per suite in ``names`` order."""
    names = list(names)
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
    records = []
    for idx, p in enumerate(points):
        cj = chart(metric, p, *names)
        for name in names:
            for ident, value in SUITES[name](cj).items():
                records.append({
                    "suite": name,
                    "identity": ident,
                    "sample": idx,
                    "residual": float(value),
                })
    return records
