"""Covariance under a linear change of chart (x, y) -> (Ax, Ay): k is a
scalar on the tangent bundle, so the metric pulled back by A has, at
(x, y), the k of the metric at (Ax, Ay), and C = L dk/dy picks up A^T.
This needs no known answer: it checks the whole chain from L to k on
every metric alike."""

import dataclasses

import numpy as np
import pytest

from finsler import catalog
from finsler.engine import chart
from finsler.fdpipe import FDPipeline
from finsler.metric import SamplePoint
from finsler.sampling import SamplingSpec, sample_points
from finsler.scalarclass import classify


def random_chart(n, seed):
    """A seeded A (n, n) with singular values in [0.15, 1.5], so cond(A) <=
    10 and a ball of radius 0.4 maps into |Ax| <= 0.6, where the FD k of
    funk is within 1e-5 (it is off by 1e-3 at |x| = 0.85)."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return U @ np.diag(rng.uniform(0.15, 1.5, size=n)) @ V.T


def pull_back(metric, A):
    """L~(x, y) = L(Ax, Ay) over floats, arrays and jets alike, on the
    domain x -> domain(x A^T) of a batch x (..., n)."""

    def mix(v):
        out = []
        for row in A:
            acc = float(row[0]) * v[0]
            for a, c in zip(row[1:], v[1:]):
                acc = acc + float(a) * c
            out.append(acc)
        return out

    domain = metric.domain
    return dataclasses.replace(
        metric, name=f"{metric.name} by A",
        evaluate=lambda x, y: metric.evaluate(mix(x), mix(y)),
        domain=None if domain is None else lambda x: domain(x @ A.T))


# each metric with the seed of its chart
METRICS = list(enumerate(catalog.default_metrics(3)))
IDS = [metric.name for _, metric in METRICS]


@pytest.mark.parametrize("seed,metric", METRICS, ids=IDS)
def test_k_and_C_under_a_linear_chart(seed, metric):
    """Jet k~ = k within 1e-13 relative and C~ = A^T C within 1e-13 of
    max(1, |C|); the FD k~ within 1e-4 of the jet k."""
    A = random_chart(3, seed)
    assert np.linalg.cond(A) <= 10.0
    pulled = pull_back(metric, A)
    fd = FDPipeline(pulled)
    for q in sample_points(pulled, SamplingSpec(count=2, seed=1)):
        p = SamplePoint(A @ q.x, A @ q.y)
        got, want = chart(pulled, q, "C"), chart(metric, p, "C")
        k, C = want.k.value(), want.C.value()
        assert abs(got.k.value() - k) <= 1e-13 * max(1.0, abs(k))
        np.testing.assert_allclose(
            got.C.value(), A.T @ C, rtol=0,
            atol=1e-13 * max(1.0, np.max(np.abs(C))))
        assert abs(fd.tensors(q)["k"] - k) <= 1e-4


@pytest.mark.parametrize("seed,metric", METRICS, ids=IDS)
def test_verdict_under_a_linear_chart(seed, metric):
    A = random_chart(3, seed)
    spec = SamplingSpec(count=3, seed=2)
    assert classify(pull_back(metric, A), spec).verdict == classify(
        metric, spec).verdict
