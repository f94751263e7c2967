"""Built-in reference metrics with known curvature behavior.

Each constructor returns a :class:`FinslerMetric`; the module-level
``CATALOG`` maps string keys (as used in run configs) to entry metadata.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .jets import dot, sin, sqrt
from .metric import FinslerMetric


def _ball(r2):
    """The domain |x|^2 < r2 of x (..., n)."""
    return lambda x: np.einsum("...i,...i", x, x) < r2


def euclidean(n):
    """L = |y|; flat, k = 0 everywhere."""

    def L(x, y):
        return sqrt(dot(y, y))

    return FinslerMetric(n=n, evaluate=L, name="euclidean")


def riemannian_space_form(n, kappa=1.0):
    """Conformal model of the Riemannian space form of constant sectional
    curvature kappa: a_ij = delta_ij / (1 + (kappa/4)|x|^2)^2."""

    def L(x, y):
        conf = 1.0 + 0.25 * kappa * dot(x, x)
        return sqrt(dot(y, y)) / conf

    domain, desc = None, "all of R^n"
    if kappa < 0:
        r2max = -4.0 / kappa  # conformal factor must stay positive
        domain = _ball(0.99 * r2max)
        desc = f"|x|^2 < {r2max:g} (conformal factor positive)"
    return FinslerMetric(n=n, evaluate=L,
                         name=f"riemannian_space_form(kappa={kappa:g})",
                         domain=domain, domain_desc=desc)


def funk(n):
    """Funk metric on the open unit ball; constant flag curvature -1/4."""

    def L(x, y):
        xx = dot(x, x)
        xy = dot(x, y)
        yy = dot(y, y)
        one_m = 1.0 - xx
        return (sqrt(one_m * yy + xy * xy) + xy) / one_m

    return FinslerMetric(n=n, evaluate=L, name="funk", domain=_ball(1.0),
                         domain_desc="open unit ball |x| < 1")


def randers_pflat(n):
    """Projectively flat Randers metric L = |y| + <x, y> on |x| < 1;
    of scalar (non-constant) curvature."""

    def L(x, y):
        return sqrt(dot(y, y)) + dot(x, y)

    return FinslerMetric(n=n, evaluate=L, name="randers_pflat",
                         domain=_ball(1.0),
                         domain_desc="open unit ball |x| < 1")


def perturbed_riemannian(n, seed=0, eps=0.3):
    """Riemannian metric a_ij = delta_ij + eps * S_ij(x) with S a seeded
    smooth symmetric trigonometric perturbation; generically not of
    scalar curvature."""

    rng = np.random.Generator(np.random.Philox(seed))
    m = 2  # harmonics per entry
    amp = rng.uniform(-1.0, 1.0, size=(n, n, m)) / (2.0 * m)
    freq = rng.uniform(0.5, 2.0, size=(n, n, m, n))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, n, m))
    # symmetrize so that S_ij == S_ji exactly: L may read a_ij for a_ji
    amp = 0.5 * (amp + amp.transpose(1, 0, 2))
    freq = 0.5 * (freq + freq.transpose(1, 0, 2, 3))
    phase = 0.5 * (phase + phase.transpose(1, 0, 2))

    def a_entry(i, j, x):
        acc = 1.0 if i == j else 0.0
        for t in range(m):
            arg = phase[i, j, t]
            for q in range(n):
                arg = arg + freq[i, j, t, q] * x[q]
            acc = acc + eps * amp[i, j, t] * sin(arg)
        return acc

    def L(x, y):
        acc, a = None, {}
        for i in range(n):
            for j in range(n):
                a[i, j] = a[j, i] if j < i else a_entry(i, j, x)
                term = a[i, j] * y[i] * y[j]
                acc = term if acc is None else acc + term
        return sqrt(acc)

    return FinslerMetric(n=n, evaluate=L,
                         name=f"perturbed_riemannian(seed={seed})")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    build: object  # (n, **params) -> FinslerMetric
    expected_verdict: str
    expected_k: Optional[float]  # None: nonconstant / undefined


CATALOG = {
    "euclidean": CatalogEntry(
        "euclidean", euclidean, "constant", 0.0),
    "riemannian_space_form": CatalogEntry(
        "riemannian_space_form", riemannian_space_form, "constant", None),
    "funk": CatalogEntry(
        "funk", funk, "constant", -0.25),
    "randers_pflat": CatalogEntry(
        "randers_pflat", randers_pflat, "scalar", None),
    "perturbed_riemannian": CatalogEntry(
        "perturbed_riemannian", perturbed_riemannian, "generic", None),
}


def build_catalog_metric(key, n, **params):
    if key not in CATALOG:
        raise ConfigError(f"unknown catalog metric {key!r}; "
                          f"known: {sorted(CATALOG)}")
    build = CATALOG[key].build
    known = list(inspect.signature(build).parameters.values())[1:]  # after n
    names = [p.name for p in known]
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ConfigError(f"unknown params {unknown} for catalog metric "
                          f"{key!r}; known: {names}")
    for p in known:
        if p.name in params and not _param_ok(params[p.name], p.default):
            kind = ("a non-negative integer" if isinstance(p.default, int)
                    else "a finite number")
            raise ConfigError(f"param {p.name!r} of catalog metric {key!r} "
                              f"must be {kind}, got {params[p.name]!r}")
    return build(n, **params)


def _param_ok(value, default):
    """Whether a config value fits a builder parameter; the default's type
    says which: int defaults (seeds) take non-negative integers, float
    defaults any finite number (compared, not converted, so a huge JSON
    integer cannot overflow).  JSON booleans are never numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if isinstance(default, int):
        return isinstance(value, int) and value >= 0
    return abs(value) <= sys.float_info.max


def default_metrics(n=3, seed=0):
    """The standard fixture set used by the verification suites."""
    return [
        euclidean(n),
        riemannian_space_form(n, 1.0),
        riemannian_space_form(n, -1.0),
        funk(n),
        randers_pflat(n),
        perturbed_riemannian(n, seed=seed),
    ]
