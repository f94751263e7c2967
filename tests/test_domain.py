"""Domain rules: L is a positive number, g is positive definite, and sqrt,
log and powers take arguments in their domain.  Each rule has one definition,
so both backends, the metric language and sampling reject an input
alike, with the same typed error and message."""

import dataclasses
import json
import logging
import warnings

import numpy as np
import pytest

from finsler import catalog, cli, jets
from finsler.dsl import eval_ast, metric_from_dsl, parse_metric
from finsler.engine import chart
from finsler.errors import (ConfigError, DegenerateMetric, DomainError,
                            EvalDomainError)
from finsler.fdpipe import FDPipeline, _base_h
from finsler.metric import FinslerMetric, SamplePoint
from finsler.sampling import SamplingSpec, sample_points
from finsler.scalarclass import classify
from finsler.suites import UNIVERSAL_SUITES, run_suites


def _outcome(f):
    """(type name, message) of the error f raises, or None."""
    try:
        f()
    except Exception as e:
        return type(e).__name__, str(e)
    return None


def _small_ball(x, y):
    """A Python metric with no declared domain: real only for
    |x|^2 < 1/40, which sqrt alone enforces."""
    return jets.sqrt(1 - 40 * jets.dot(x, x)) * jets.sqrt(jets.dot(y, y))


def _nan_where_x1_positive(x, y):
    """|y|, made NaN by multiplication (not by sqrt or log) where x1 > 0."""
    x1 = x[0].value() if isinstance(x[0], jets.Jet) else x[0]
    norm = jets.sqrt(jets.dot(y, y))
    return norm * np.nan if np.any(np.asarray(x1) > 0) else norm


class TestSampling:
    def test_undeclared_domain_keeps_only_positive_L(self):
        """sqrt checks a float argument as it checks a jet's, so a draw
        outside the metric's natural domain is rejected, not kept with
        a NaN L that the suites then trip over."""
        metric = FinslerMetric(n=3, evaluate=_small_ball, name="small_ball")
        points = sample_points(metric, SamplingSpec(count=20, seed=0))
        assert len(points) == 20
        assert all(metric.L(p) > 0.0 for p in points)
        records = run_suites(metric, points, UNIVERSAL_SUITES)
        assert max(r["residual"] for r in records) < 1e-10

    def test_nan_L_has_a_reason_of_its_own(self, caplog):
        metric = FinslerMetric(n=3, evaluate=_nan_where_x1_positive,
                               name="nan_half")
        caplog.set_level(logging.DEBUG, logger="finsler")
        points = sample_points(metric, SamplingSpec(count=10, seed=0))
        assert all(p.x[0] <= 0.0 for p in points)
        text = [r.getMessage() for r in caplog.records if r.name == "finsler"]
        assert text and all("(L is NaN)" in t for t in text)

    def test_nan_everywhere_counts_its_reason(self):
        metric = FinslerMetric(
            n=3, evaluate=lambda x, y: jets.sqrt(jets.dot(y, y)) * np.nan)
        with pytest.raises(DomainError, match="L is NaN: 300"):
            sample_points(metric, SamplingSpec(count=2, seed=0))


class TestBackendParity:
    """Both backends raise the same type with the same message."""

    P_NAN = SamplePoint([0.1, 0.0, 0.0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("evaluate,p", [
        # L = -0.2 < 0
        (lambda x, y: jets.sqrt(jets.dot(y, y)) + 2 * jets.dot(x, y),
         SamplePoint([-0.6, 0.0, 0.0], [1.0, 0.0, 0.0])),
        # g has signature (+, +, -)
        (lambda x, y: jets.sqrt(y[0] * y[0] + y[1] * y[1] - y[2] * y[2]),
         SamplePoint([0.0, 0.0, 0.0], [1.0, 0.0, 0.1])),
        # NaN by multiplication
        (_nan_where_x1_positive, P_NAN),
        # L depends on neither x nor y, so g = 0
        (lambda x, y: 1.0, SamplePoint([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])),
    ], ids=["L-negative", "g-indefinite", "L-nan", "L-constant"])
    def test_same_error(self, evaluate, p):
        metric = FinslerMetric(n=3, evaluate=evaluate)
        jet = _outcome(lambda: chart(metric, p, "G").G)
        fd = _outcome(lambda: FDPipeline(metric).tensors(p))
        assert jet is not None and jet[0] in ("DomainError",
                                              "DegenerateMetric")
        assert jet == fd

    def test_nan_L_is_a_domain_error(self):
        metric = FinslerMetric(n=3, evaluate=_nan_where_x1_positive)
        for f in (lambda: chart(metric, self.P_NAN, "G"),
                  lambda: FDPipeline(metric).tensors(self.P_NAN),
                  lambda: FDPipeline(metric).c_form(self.P_NAN)):
            with pytest.raises(DomainError, match="L is NaN at x="):
                f()

    def test_c_form_checks_its_point(self):
        """c_form checks the point as tensors does: outside funk's ball
        both raise DomainError, where c_form once fell through to a
        LinAlgError."""
        fd = FDPipeline(catalog.funk(3))
        p = SamplePoint([1.2, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert _outcome(lambda: fd.c_form(p)) == _outcome(
            lambda: fd.tensors(p))
        with pytest.raises(DomainError, match="outside chart domain"):
            fd.c_form(p)

    def test_c_form_checks_L(self):
        metric = FinslerMetric(
            n=3, evaluate=lambda x, y: jets.sqrt(jets.dot(y, y))
            + 2 * jets.dot(x, y))
        p = SamplePoint([-0.6, 0.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="L = -0.2 <= 0 at x="):
            FDPipeline(metric).c_form(p)


P = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])
H_P = _base_h(P.x, P.y)
# reached from P only by the spray's inner +h stencil along e2 around the
# curvature's outer 20h stencil along e1
INNER_X = P.x + 20.0 * H_P * np.eye(3)[0] + H_P * np.eye(3)[1]
NORMAL = np.array([1.0, 2.0, -2.0]) / 3.0  # a unit normal off the axes


class TestFDReach:
    """The FD backend evaluates L only on batches whose every x the
    metric's domain holds: each call of L is checked first, on exactly
    its own points, so a point whose stencils leave the domain is refused
    before L is evaluated outside it.  tensors, and c_form through it,
    reach about 21h from the point (h = 1e-3 (1 + max |x|, |y|))."""

    Y = [0.3, 1.0, 0.0]

    @pytest.mark.parametrize("x1", [0.98, 0.99, 0.999])
    def test_near_the_boundary(self, x1):
        """Where the stencils once printed RuntimeWarnings and ended in a
        LinAlgError, or named a stencil point, or no point at all."""
        metric = catalog.funk(3)
        p = SamplePoint([x1, 0.0, 0.0], self.Y)
        fd = FDPipeline(metric)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (fd.tensors, fd.c_form):
                with pytest.raises(DomainError) as info:
                    f(p)
                assert str(info.value).startswith(
                    f"FD stencils at x={p.x.tolist()}, y={p.y.tolist()} "
                    "reach x=")
                assert str(info.value).endswith(
                    "outside chart domain (open unit ball |x| < 1)")
        assert chart(metric, p, "k").k.value() == pytest.approx(-0.25,
                                                                abs=1e-12)

    @pytest.mark.parametrize("name", ["tensors", "c_form"])
    def test_checks_exactly_the_points_it_evaluates(self, name):
        """Inside the domain the results are those without a domain, and
        each call of L is on exactly the batch of x that the domain
        checked just before it, bit for bit.  The spray's mixed term moves
        x along y/|y| of each spray point, so the x of the stencils are
        2,301 distinct points (505 when it moved x along the axes)."""
        funk = catalog.funk(3)
        p = SamplePoint([0.9, 0.0, 0.0], self.Y)
        calls = []

        def evaluate(x, y):
            X = np.stack(np.broadcast_arrays(*x, *y)[:3], axis=-1)
            calls.append(("evaluate", X))
            return funk.evaluate(x, y)

        def domain(x):
            calls.append(("domain", np.array(x)))
            return funk.domain(x)

        got = getattr(FDPipeline(dataclasses.replace(
            funk, evaluate=evaluate, domain=domain)), name)(p)
        want = getattr(FDPipeline(dataclasses.replace(funk, domain=None)),
                       name)(p)
        assert [kind for kind, _ in calls] == ["domain", "evaluate"] * (
            len(calls) // 2)
        for (_, checked), (_, evaluated) in zip(calls[::2], calls[1::2]):
            assert np.array_equal(np.broadcast_to(checked, evaluated.shape),
                                  evaluated)
        rows = {tuple(r) for _, X in calls for r in X.reshape(-1, 3).tolist()}
        assert len(rows) == 2301
        for a, b in (zip(got.values(), want.values()) if name == "tensors"
                     else [(got, want)]):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name,domain", [
        ("all-but-one-x", lambda x: np.linalg.norm(
            x - INNER_X, axis=-1) > 1e-2 * H_P),
        ("half-space", lambda x: x @ NORMAL < NORMAL @ P.x + 5.0 * H_P),
    ], ids=["all-but-one-x", "half-space"])
    def test_refuses_a_point_whose_stencils_leave(self, name, domain):
        """A domain that excludes only one x the stencils reach, and one
        bounded by a plane not aligned with the axes: DomainError names
        the sample point and an x outside, and L is never evaluated
        outside the domain."""
        rows = []
        metric = catalog.euclidean(3)

        def evaluate(x, y):
            rows.extend(np.stack(np.broadcast_arrays(*x, *y)[:3], axis=-1)
                        .reshape(-1, 3).tolist())
            return metric.evaluate(x, y)

        fd = FDPipeline(dataclasses.replace(
            metric, evaluate=evaluate, domain=domain, domain_desc=name))
        with pytest.raises(DomainError) as info:
            fd.tensors(P)
        message = str(info.value)
        assert message.startswith(
            f"FD stencils at x={P.x.tolist()}, y={P.y.tolist()} reach x=")
        assert message.endswith(f"outside chart domain ({name})")
        named = np.array(json.loads(message.split(" reach x=")[1]
                                    .split("]")[0] + "]"))
        assert not domain(named)
        if name == "all-but-one-x":
            assert np.allclose(named, INNER_X, rtol=0, atol=1e-12)
        assert rows and np.all(domain(np.array(rows)))

    def test_domain_of_one_point_only(self):
        """A domain written for one x, not a batch, ends in a typed error
        that names the metric, never in a check of the wrong rows."""
        metric = dataclasses.replace(catalog.euclidean(3), name="one_x",
                                     domain=lambda x: x[0] < 0.2)
        assert metric.in_domain([0.1, 0.0, 0.0])
        with pytest.raises(ConfigError, match="^one_x: domain of x of "
                                              "shape"):
            FDPipeline(metric).tensors(P)

    @pytest.mark.parametrize("path", ["sample_points", "jet", "fd"])
    def test_elementwise_domain(self, path):
        """A domain whose result is elementwise, not one bool per x, ends
        in a ConfigError naming the metric on every path, not in numpy's
        ambiguous truth value."""
        metric = FinslerMetric(n=3, evaluate=catalog.euclidean(3).evaluate,
                               name="elementwise",
                               domain=lambda x: np.abs(x) < 1)
        spec = SamplingSpec(count=2, seed=0)
        run = {"sample_points": lambda: sample_points(metric, spec),
               "jet": lambda: classify(metric, spec, backend="jet"),
               "fd": lambda: classify(metric, spec, backend="fd")}[path]
        with pytest.raises(ConfigError, match=r"^elementwise: domain of x "
                                              r"of shape \(3,\) has shape "
                                              r"\(3,\)$"):
            run()

    def test_domain_that_cannot_take_a_batch(self):
        """A domain that raises on a batch, such as a ball written with
        float(x . x), raises its own error on the first batch, before L
        is evaluated anywhere but at the sample point itself."""
        rows = []
        funk = catalog.funk(3)

        def evaluate(x, y):
            rows.extend(np.stack(np.broadcast_arrays(*x, *y)[:3], axis=-1)
                        .reshape(-1, 3).tolist())
            return funk.evaluate(x, y)

        metric = dataclasses.replace(
            funk, evaluate=evaluate,
            domain=lambda x: float(np.dot(x, x)) < 1.0)
        p = SamplePoint([0.5, 0.0, 0.0], self.Y)
        with pytest.raises((TypeError, ValueError)):
            FDPipeline(metric).tensors(p)
        assert rows == [p.x.tolist()]

    def test_degenerate_before_the_stencils_leave(self):
        """Batches are checked in the order they are evaluated: where g
        is degenerate at p, the spray's first batch, which moves only y,
        ends in DegenerateMetric, though the x-stencils after it would
        leave this domain, as they do for the Euclidean metric."""
        p = SamplePoint([0.1, 0.2, 0.0], [0.6, 0.8, 0.0])
        for source, error in (("sqrt(y1^2 + y2^2)", DegenerateMetric),
                              ("sqrt(y1^2 + y2^2 + y3^2)", DomainError)):
            metric = dataclasses.replace(
                metric_from_dsl(source, 3), domain_desc="x1 < c",
                domain=lambda x: x[..., 0] < 0.1 + 1e-4)
            with pytest.raises(error):
                FDPipeline(metric).tensors(p)


class TestConstantL:
    """An evaluator that ignores x and y returns a float, not a jet: it
    is read as a constant jet, and g = 0 ends in DegenerateMetric."""

    METRIC = FinslerMetric(n=3, evaluate=lambda x, y: 1.0, name="constant")

    @pytest.mark.parametrize("backend", ["jet", "fd"])
    def test_classify_raises_degenerate(self, backend):
        with pytest.raises(DegenerateMetric) as info:
            classify(self.METRIC, SamplingSpec(count=2, seed=0),
                     backend=backend)
        assert info.value.min_eigenvalue == 0.0

    def test_cli_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_build_metric", lambda cfg: self.METRIC)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"metric": {}}))
        assert cli.main(["verify", "--config", str(path)]) == cli.EXIT_RUNTIME
        assert "not positive definite" in capsys.readouterr().err


class TestFunctionArguments:
    """sqrt and log check a float, an array and a jet alike: a typed
    error, never a NaN with a RuntimeWarning."""

    @staticmethod
    def _arguments():
        u = jets.get_space(2, 1, 1).seed([0.3, -0.2], [1.1, 0.7])[1][0]
        return {"float": -1.0, "array": np.array([1.0, -1.0]),
                "jet": u - 2.0}

    @pytest.mark.parametrize("kind", ["float", "array", "jet"])
    @pytest.mark.parametrize("name", ["sqrt", "log"])
    def test_negative_argument(self, name, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvalDomainError, match=f"^{name} of a"):
                getattr(jets, name)(self._arguments()[kind])

    def test_zero(self):
        """sqrt is defined at 0 and its derivative is not; log is not."""
        assert jets.sqrt(0.0) == 0.0
        np.testing.assert_array_equal(jets.sqrt(np.zeros(2)), 0.0)
        u = jets.get_space(2, 1, 1).seed([0.0, 0.0], [1.0, 0.0])[0][0]
        for f, arg in ((jets.sqrt, u), (jets.log, u), (jets.log, 0.0)):
            with pytest.raises(EvalDomainError, match="non-positive"):
                f(arg)

    @pytest.mark.parametrize("seed,message", [
        (False, "sqrt of a negative value (in 'sqrt(y1)')"),
        (True, "sqrt of a non-positive value (in 'sqrt(y1)')"),
    ], ids=["float", "jet"])
    def test_dsl_names_the_subexpression(self, seed, message):
        """The language keeps only the naming: its messages are those of
        the generic functions, with the failing subexpression."""
        x, y = [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]
        if seed:
            x, y = jets.get_space(3, 1, 1).seed(x, y)
        with pytest.raises(EvalDomainError) as info:
            eval_ast(parse_metric("sqrt(y1)", 3), x, y)
        assert str(info.value) == message


NEGATIVE = "non-integer power of a negative value"
NON_POSITIVE = "non-integer power of a non-positive value"


class TestPowerRule:
    """One power rule, jets.jpow, for a float, an array and a jet base and
    exponent alike; the language's '^' only names the subexpression."""

    @staticmethod
    def _point(kind):
        x, y = [0.0, 0.5, 0.0], [1.0, 0.0, 0.0]
        if kind == "array":
            return [np.full(2, v) for v in x], [np.full(2, v) for v in y]
        if kind == "jet":
            return jets.get_space(3, 1, 1).seed(x, y)
        return x, y

    @pytest.mark.parametrize("src,outcome", [
        ("(x1 - 1)^0.5", {"float": NEGATIVE, "array": NEGATIVE,
                          "jet": NON_POSITIVE}),
        ("x1^0.5", {"float": 0.0, "array": 0.0, "jet": NON_POSITIVE}),
        ("x1^-1", {"float": "division by zero", "array": "division by zero",
                   "jet": "division by (near) zero"}),
        ("x1^-0.5", {"float": "division by zero",
                     "array": "division by zero", "jet": NON_POSITIVE}),
        ("(x1 - 1)^x2", {"float": NEGATIVE, "array": NEGATIVE,
                         "jet": NON_POSITIVE}),
    ], ids=["non-integer-negative", "non-integer-zero", "integer-zero",
            "negative-non-integer-zero", "jet-exponent"])
    @pytest.mark.parametrize("kind", ["float", "array", "jet"])
    def test_at_x1_zero(self, src, outcome, kind):
        """At x1 = 0, each rule gives one value or one message per kind of
        argument, and never a RuntimeWarning."""
        want, ast = outcome[kind], parse_metric(src, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(want, float):
                np.testing.assert_array_equal(
                    eval_ast(ast, *self._point(kind)), want)
                return
            with pytest.raises(EvalDomainError) as info:
                eval_ast(ast, *self._point(kind))
        assert str(info.value).startswith(f"{want} (in ")
