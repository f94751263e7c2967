"""Metric expression language: parsing, evaluation, errors, round-trip."""

import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler import catalog
from finsler.dsl import (MAX_DEPTH, MetricAst, ast_to_source, eval_ast,
                         metric_from_dsl, parse_metric)
from finsler.engine import chart
from finsler.fdpipe import FDPipeline
from finsler.jets import get_space
from finsler.errors import (ArityError, DomainError, DslError,
                            DslSyntaxError, EvalDomainError, HomogeneityError,
                            IndexOutOfRange, UnknownIdentifier)
from finsler.metric import FinslerMetric, SamplePoint
from finsler.sampling import SamplingSpec, sample_points

EUCLID = "sqrt(norm2(y))"
FUNK = ("(sqrt((1 - norm2(x)) * norm2(y) + dot(x, y)^2) + dot(x, y))"
        " / (1 - norm2(x))")
RANDERS = "sqrt(norm2(y)) + dot(x, y)"


class TestParsing:
    def test_euclidean(self):
        ast = parse_metric(EUCLID, 3)
        assert ast.n == 3
        assert ast.constants == ()

    def test_syntax_error_position(self):
        with pytest.raises(DslSyntaxError) as info:
            parse_metric("sqrt(", 3)
        assert info.value.line == 1
        assert info.value.column == 6

    def test_multiline_position(self):
        with pytest.raises(DslSyntaxError) as info:
            parse_metric("sqrt(norm2(y))\n + @", 3)
        assert info.value.line == 2
        assert info.value.column == 4

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier):
            parse_metric("foo(y1)", 3)

    def test_arity_error(self):
        with pytest.raises(ArityError):
            parse_metric("sqrt(y1, y2)", 3)
        with pytest.raises(ArityError):
            parse_metric("dot(x)", 3)

    def test_vector_args_only(self):
        with pytest.raises(ArityError):
            parse_metric("dot(x1, y)", 3)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            parse_metric("y4", 3)
        with pytest.raises(IndexOutOfRange):
            parse_metric("x0", 3)

    def test_bare_vector_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_metric("x + y1", 3)

    def test_bare_vector_reported_in_source_order(self):
        """A bare vector is rejected as it is read, before a later error."""
        with pytest.raises(DslSyntaxError, match="vector symbol 'x'") as info:
            parse_metric("x + y9", 3)
        assert (info.value.line, info.value.column) == (1, 1)
        # inside dot/norm2 at any depth the vector is an argument, and the
        # call reports it
        with pytest.raises(ArityError):
            parse_metric("dot(sqrt(x), y)", 3)

    def test_constants_collected(self):
        ast = parse_metric("b * sqrt(norm2(y)) + a * dot(x, y) / a", 3)
        assert ast.constants == ("a", "b")

    @pytest.mark.parametrize("src,error,message", [
        ("\u00b2", DslSyntaxError, "1:1: malformed number '\u00b2'"),
        ("y1 + 1\u00b2", DslSyntaxError, "1:6: malformed number '1\u00b2'"),
        ("\u00bd + y1", DslSyntaxError, "1:1: unexpected character '\u00bd'"),
        ("x\u00b2", IndexOutOfRange, "1:1: x\u00b2: index must be in 1..3"),
    ], ids=["superscript", "superscript-in-number", "fraction",
            "superscript-index"])
    def test_unicode_numerals(self, src, error, message):
        """A numeral str.isdigit() takes but float() does not is a
        malformed number, and one it does not take cannot start a name."""
        with pytest.raises(error) as info:
            parse_metric(src, 3)
        assert type(info.value) is error and str(info.value) == message

    def test_unicode_names_and_digits(self):
        ast = parse_metric("\u00e9 * y\u0663 + _c", 3)
        assert ast == parse_metric("\u00e9 * y3 + _c", 3)
        assert ast.constants == ("_c", "\u00e9")

    @pytest.mark.parametrize("src", [
        "(" * 400 + "y1" + ")" * 400, "-" * 2000 + "y1",
        "sqrt(norm2(y))" + " + 0 * y1" * 3000,
    ], ids=["parentheses", "unary-minus", "long-sum"])
    def test_nesting_bound(self, src):
        with pytest.raises(DslSyntaxError, match="nested deeper than"):
            metric_from_dsl(src, 3)

    def test_nesting_bound_is_the_tree_height(self):
        """A tree MAX_DEPTH high parses, evaluates on jets and prints; one
        level more is rejected at the token that passes the bound."""
        deep = "(" * (MAX_DEPTH - 1) + "y1" + ")" * (MAX_DEPTH - 1)
        assert parse_metric(deep, 3) == parse_metric("y1", 3)
        # sqrt(norm2(y)) is 3 high, and each '+' adds a level
        chain = "sqrt(norm2(y))" + " + 0 * y1" * (MAX_DEPTH - 3)
        ast = parse_metric(chain, 3)
        assert parse_metric(ast_to_source(ast), 3) == ast
        metric = metric_from_dsl(chain, 3)
        p = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])
        assert chart(metric, p, "k").k.value() == pytest.approx(0, abs=1e-12)
        with pytest.raises(DslSyntaxError) as info:
            parse_metric(chain + " + 0 * y1", 3)
        assert (info.value.line, info.value.column) == (1, len(chain) + 2)
        # printing adds no level: a negative exponent needs no parentheses
        chain = "2^-y1" + " + 0 * y1" * (MAX_DEPTH - 3)
        assert ast_to_source(parse_metric(chain, 3)) == chain

    def test_precedence(self):
        ast = parse_metric("1 + 2 * y1 ^ 2", 3)
        assert eval_ast(ast, [0, 0, 0], [3.0, 0, 0]) == pytest.approx(19.0)
        ast = parse_metric("-y1^2", 3)  # unary minus binds looser than ^
        assert eval_ast(ast, [0, 0, 0], [3.0, 0, 0]) == pytest.approx(-9.0)

    @pytest.mark.parametrize("src", [
        EUCLID, FUNK, RANDERS,
        "1 - 2 - 3", "2 ^ 3 ^ 2", "a * y1 + b / (y2 - c)",
        "-(y1 + y2) * y3", "6 / 2 / 3",
    ])
    def test_round_trip(self, src):
        ast = parse_metric(src, 3)
        printed = ast_to_source(ast)
        again = parse_metric(printed, 3)
        assert ast == again, printed
        # positions are not compared: spacing does not change the tree
        assert parse_metric(" " + src.replace(" ", "  "), 3) == ast


class TestEvaluation:
    def test_euclidean_345(self):
        ast = parse_metric(EUCLID, 3)
        assert eval_ast(ast, [0, 0, 0], [3.0, 4.0, 0.0]) == pytest.approx(5.0)

    def test_funk_at_origin(self):
        ast = parse_metric(FUNK, 3)
        assert eval_ast(ast, [0.0, 0.0, 0.0],
                        [1.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_homogeneity(self):
        ast = parse_metric(FUNK, 3)
        rng = np.random.Generator(np.random.Philox(8))
        for _ in range(10):
            x = rng.uniform(-0.4, 0.4, 3)
            y = rng.normal(size=3)
            one = eval_ast(ast, list(x), list(y))
            two = eval_ast(ast, list(x), list(2.0 * y))
            assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_constants(self):
        ast = parse_metric("sqrt(norm2(y)) / (1 + kappa * norm2(x))", 3)
        assert ast.constants == ("kappa",)
        val = eval_ast(ast, [1.0, 0, 0], [2.0, 0, 0],
                       constants={"kappa": 3.0})
        assert val == pytest.approx(0.5)
        with pytest.raises(UnknownIdentifier):
            eval_ast(ast, [0, 0, 0], [1, 0, 0])

    def test_sqrt_domain_error(self):
        ast = parse_metric("sqrt(y1)", 3)
        with pytest.raises(EvalDomainError) as info:
            eval_ast(ast, [0, 0, 0], [-1.0, 1.0, 1.0])
        assert "sqrt" in str(info.value)

    def test_division_by_zero(self):
        ast = parse_metric("y1 / x1", 3)
        with pytest.raises(EvalDomainError):
            eval_ast(ast, [0.0, 0, 0], [1.0, 0, 0])

    @pytest.mark.parametrize("src", [
        EUCLID, FUNK,
        "sqrt(norm2(y)) + b * dot(x, y) / sqrt(1 + b^2 * norm2(x))",
        "(y1^4 + y2^4 + y3^4)^0.25 - x1^3 * y2 / (2 + x2)",
        "(1 + y1^2)^(x1 + 0.5) * y2^-2",
    ])
    def test_rows_match_scalar_calls(self, src):
        """Arrays of components are evaluated elementwise: equal, bit for
        bit, to one float call per row."""
        ast = parse_metric(src, 3)
        rng = np.random.Generator(np.random.Philox(3))
        X = rng.uniform(-0.4, 0.4, size=(4, 5, 3))
        Y = rng.normal(size=(4, 5, 3))
        out = eval_ast(ast, list(np.moveaxis(X, -1, 0)),
                       list(np.moveaxis(Y, -1, 0)), {"b": 0.3})
        rows = [eval_ast(ast, x.tolist(), y.tolist(), {"b": 0.3})
                for x, y in zip(X.reshape(-1, 3), Y.reshape(-1, 3))]
        assert out.shape == (4, 5)
        assert out.tobytes() == np.array(rows).reshape(4, 5).tobytes()

    @pytest.mark.parametrize("src,bad_y1", [
        ("sqrt(y1) + y2", -1.0), ("y2 + 1 / y1", 0.0),
        ("y2 + y1^1.5", -1.0), ("y2 + y1^-1", 0.0),
    ], ids=["sqrt-negative", "divide-zero", "fractional-power-negative",
            "negative-power-zero"])
    def test_bad_row_raises_as_scalar_call(self, src, bad_y1):
        """One row out of the domain raises the scalar call's error, with
        the same subexpression, and no RuntimeWarning."""
        ast = parse_metric(src, 3)
        Y = np.ones((5, 3))
        Y[3, 0] = bad_y1
        with pytest.raises(EvalDomainError) as scalar:
            eval_ast(ast, [0.0] * 3, Y[3].tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvalDomainError) as batch:
                eval_ast(ast, [np.zeros(5)] * 3, list(Y.T))
        assert batch.value.subexpression == scalar.value.subexpression
        assert str(batch.value) == str(scalar.value)

    def test_overflow_is_a_non_finite_result(self):
        """On a float, an array and seeded jets alike."""
        ast = parse_metric("y1 * 1e300 * 1e300 + y2", 3)
        xs, ys = get_space(3, 0, 1).seed(np.zeros(3), np.ones(3))
        for x, y in [([0.0] * 3, [2.0, 1.0, 1.0]),
                     ([0.0] * 3, [np.array([1.0, 2.0]), 1.0, 1.0]),
                     (xs, ys)]:
            with pytest.raises(EvalDomainError, match="non-finite"):
                eval_ast(ast, x, y)

    @pytest.mark.parametrize("src,build", [
        (EUCLID, catalog.euclidean),
        (FUNK, catalog.funk),
        (RANDERS, catalog.randers_pflat),
    ])
    def test_matches_catalog(self, src, build):
        """DSL evaluation equals the native implementation at 100 random
        valid points."""
        metric = build(3)
        ast = parse_metric(src, 3)
        for p in sample_points(metric, SamplingSpec(count=100, seed=9)):
            native = metric.L(p)
            parsed = eval_ast(ast, list(p.x), list(p.y))
            assert parsed == pytest.approx(native, rel=1e-12)


class TestVaryingExponent:
    """A base raised to a power that depends on x or y: exp(b log a) on
    jets, np.power on floats and arrays."""

    def test_value(self):
        ast = parse_metric("sqrt(norm2(y)) * 2^x1", 3)
        x, y = [0.5, 0.0, 0.0], [3.0, 4.0, 0.0]
        assert eval_ast(ast, x, y) == pytest.approx(5.0 * 2.0 ** 0.5)
        xs, ys = get_space(3, 1, 1).seed(x, y)
        assert eval_ast(ast, xs, ys).value() == pytest.approx(
            5.0 * 2.0 ** 0.5, rel=1e-14)

    def test_x_partial(self):
        """d/dx1 of |y| 2^x1 is log 2 times L."""
        ast = parse_metric("sqrt(norm2(y)) * 2^x1", 3)
        xs, ys = get_space(3, 1, 1).seed([0.3, -0.1, 0.2], [0.7, -0.3, 1.1])
        L = eval_ast(ast, xs, ys)
        assert L.dx(0).value() == pytest.approx(np.log(2.0) * L.value(),
                                                rel=1e-14)

    @pytest.mark.parametrize("src", [
        "sqrt(norm2(y)) * 2^x1", "sqrt(norm2(y)) * (1 + x1^2)^x2",
    ])
    def test_jet_k_matches_fd_k(self, src):
        metric = metric_from_dsl(src, 3)
        fd = FDPipeline(metric)
        for p in sample_points(metric, SamplingSpec(count=3, seed=5)):
            k_jet = chart(metric, p, "k").k.value()
            assert fd.tensors(p)["k"] == pytest.approx(k_jet, abs=1e-4)

    @pytest.mark.parametrize("src,x1,sub", [
        ("(-2)^x1 * sqrt(norm2(y))", 0.0, "(-2)^x1"),
        ("(x1 - 1)^x2 * sqrt(norm2(y))", 0.0, "(x1 - 1)^x2"),
    ], ids=["negative-constant-base", "negative-jet-base"])
    def test_negative_base(self, src, x1, sub):
        ast = parse_metric(src, 3)
        xs, ys = get_space(3, 1, 1).seed([x1, 0.2, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(EvalDomainError) as info:
            eval_ast(ast, xs, ys)
        assert info.value.subexpression == sub


class TestMetricConstruction:
    def test_jet_composition(self):
        """DSL metrics run through the whole pipeline."""
        metric = metric_from_dsl(FUNK, 3, name="funk-dsl")
        p = SamplePoint([0.1, -0.2, 0.15], [0.7, -0.3, 1.1])
        k = chart(metric, p, "k").k.value()
        assert k == pytest.approx(-0.25, abs=1e-10)

    def test_homogeneity_rejection(self):
        with pytest.raises(HomogeneityError):
            metric_from_dsl("norm2(y)", 3)  # degree 2, not 1

    def test_sampling_rejects_draws_outside_natural_domain(self):
        """Draws where L cannot be evaluated are rejected, not fatal."""
        metric = metric_from_dsl("sqrt(1 - norm2(x)) * sqrt(norm2(y))", 3)
        points = sample_points(metric,
                               SamplingSpec(count=5, seed=0, radius=1.5))
        assert len(points) == 5
        assert all(np.linalg.norm(p.x) < 1.0 for p in points)

    def test_sampling_gives_up_on_empty_domain(self):
        def nowhere(x, y):
            raise EvalDomainError("sqrt of a negative value")

        metric = FinslerMetric(n=3, evaluate=nowhere, name="nowhere")
        with pytest.raises(DomainError):
            sample_points(metric, SamplingSpec(count=2, seed=0))

    def test_sampling_logs_each_rejected_draw(self, caplog):
        """One DEBUG record on the 'finsler' logger per rejected draw,
        naming its reason; accepted draws log nothing."""
        calls = {"domain": 0, "L": 0}

        def domain(x):
            calls["domain"] += 1
            return x[0] < 0.2

        def L(x, y):
            calls["L"] += 1
            if x[1] < -0.1:
                raise EvalDomainError("sqrt of a negative value")
            norm = float(np.sqrt(sum(v * v for v in y)))
            return -norm if x[2] < -0.1 else norm

        metric = FinslerMetric(n=3, evaluate=L, name="patchy",
                               domain=domain)
        caplog.set_level(logging.DEBUG, logger="finsler")
        count = 10
        sample_points(metric, SamplingSpec(count=count, seed=4))
        records = [r for r in caplog.records if r.name == "finsler"]
        assert all(r.levelno == logging.DEBUG for r in records)
        # in_domain runs once per draw and once more inside metric.L
        draws = calls["domain"] - calls["L"]
        assert len(records) == draws - count
        text = [r.getMessage() for r in records]
        for reason in ("outside domain", "L <= 0",
                       "EvalDomainError: sqrt of a negative value"):
            assert any(f"({reason})" in t for t in text), reason
        assert all(t.startswith("patchy: rejected sample draw") for t in text)


_PIECES = ["x", "y", "x1", "y2", "y3", "y4", "x0", "a", "b", "sqrt", "dot",
           "norm2", "foo", "1", "2.5", "1e-3", "1e", ".", "+", "-", "*", "/",
           "^", "(", ")", ",", " ", "\n", "(" * 250, "-" * 1200, "\u00b2", "@"]


@given(st.one_of(
    st.text(alphabet="xy0123456789.eE+-*/^(), \n_abdmnoqrst\u00b2\u00bd@",
            max_size=40),
    st.lists(st.sampled_from(_PIECES), max_size=80).map("".join)))
@settings(max_examples=300, deadline=None)
def test_parse_returns_ast_or_typed_error(src):
    """Any text over the language's alphabet parses, or raises a DslError
    whose line:column lies in the source (or just past a line's end)."""
    try:
        ast = parse_metric(src, 3)
    except DslError as e:
        lines = src.split("\n")
        assert 1 <= e.line <= len(lines)
        assert 1 <= e.column <= len(lines[e.line - 1]) + 1
    else:
        assert isinstance(ast, MetricAst)


_LEAVES = st.sampled_from(["0", "2", "0.25", ".5", "3.", "007", "1e-3",
                           "2.5E+2", "1e999", "1e-999", "a", "b", "x1", "x3",
                           "y1", "y2", "dot(x, y)", "norm2(y)"])


@st.composite
def _valid_sources(draw, depth=4):
    """Sources the grammar accepts: a tree depth operators deep over
    numbers (a literal past the float range reads as inf, one below it as
    0), constants, components and vector calls, each operator binary,
    unary minus or sqrt, and each operand of a binary operator
    parenthesized or not."""
    if not depth:
        return draw(_LEAVES)
    form = draw(st.sampled_from(["binary", "binary", "-", "sqrt"]))
    inner = [draw(_valid_sources(depth - 1))
             for _ in range(2 if form == "binary" else 1)]
    if form == "binary":
        left, right = (f"({s})" if draw(st.booleans()) else s for s in inner)
        return f"{left} {draw(st.sampled_from('+-*/^'))} {right}"
    return f"-{inner[0]}" if form == "-" else f"sqrt({inner[0]})"


def _value_or_error(ast):
    try:
        return repr(eval_ast(ast, [0.1, -0.2, 0.3], [0.7, -0.3, 1.1],
                             {"a": 0.5, "b": -1.5}))
    except EvalDomainError as e:
        return type(e), str(e)


@given(_valid_sources())
@settings(max_examples=300, deadline=None)
def test_printed_source_round_trips(src):
    """The printed source parses back to the same tree, printing it again
    gives the same text, and both trees give the same value or the same
    typed error: each operand that would reassociate is parenthesized."""
    ast = parse_metric(src, 3)
    printed = ast_to_source(ast)
    again = parse_metric(printed, 3)
    assert again == ast, printed
    assert ast_to_source(again) == printed
    assert _value_or_error(again) == _value_or_error(ast)
