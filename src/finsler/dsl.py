"""A small expression language for defining fundamental functions L(x, y).

Grammar (conventional infix, whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, binds tightest
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Names: ``x1..xn`` / ``y1..yn`` (coordinate components), the vector
symbols ``x`` / ``y`` (only as arguments of ``dot``/``norm2``), the
built-ins ``sqrt(u)``, ``dot(u, v)``, ``norm2(u)``, and named constants
bound from the run configuration.  A name starts with a letter
(``str.isalpha``) or ``_`` and goes on with letters, digits and ``_``; a
number is a run of decimal digits and ``.`` with an optional exponent, as
``float`` reads it.  The tree may be at most ``MAX_DEPTH`` (100) levels
high, a parenthesis counting as a level: ``y1``, ``(y1)`` and ``1 + 2 +
3`` are 1, 2 and 3 high.  Evaluation is generic over floats, arrays
(elementwise) and jet scalars.  Errors carry a 1-based line:column; a
character or number that cannot be read is reported first, and otherwise
the first error the parser reads, left to right.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from . import jets
from .errors import (ArityError, DslSyntaxError, EvalDomainError,
                     IndexOutOfRange, UnknownIdentifier)
from .metric import FinslerMetric, SamplePoint

# ---------------------------------------------------------------------------
# tokens

Token = namedtuple("Token", "kind text pos")  # pos: (line, column)

# re's \w is str.isalnum() or '_', \s is str.isspace(), and \d is
# str.isdecimal(): the digits float() reads
_TOKEN = re.compile(r"""
    (?P<num>[\d.]+(?:[eE](?:[+-]|(?=\d))[\d.]*)?)
  | (?P<name>[^\W\d]\w*)
  | (?P<op>[-+*/^(),])
  | (?P<newline>\n)
  | (?P<space>[^\S\n]+)
  | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(source: str):
    # numerals of str.isdigit() that \d does not take, such as '²', lex
    # as digits, and float() rejects them
    lexed = source.translate({ord(c): "0" for c in set(source)
                              if c.isdigit() and not c.isdecimal()})
    tokens, line, line_start = [], 1, 0
    for m in _TOKEN.finditer(lexed):
        kind, text = m.lastgroup, source[m.start():m.end()]
        pos = (line, m.start() - line_start + 1)
        if kind == "name" and not (text[0].isalpha() or text[0] == "_"):
            kind, text = "bad", text[0]  # a numeral such as '½'
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise DslSyntaxError(f"unexpected character {text!r}", *pos)
        elif kind != "space":
            if kind == "num":
                try:
                    float(text)
                except ValueError:
                    raise DslSyntaxError(f"malformed number {text!r}", *pos)
            tokens.append(Token(kind, text, pos))
    tokens.append(Token("end", "", (line, len(source) - line_start + 1)))
    return tokens


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Node:
    """One node of the tree.  op is the operator or function read (``+ - *
    / ^ sqrt dot norm2``), ``"neg"`` for unary minus, or a leaf kind:
    ``"num"``, ``"const"``, ``"x"`` or ``"y"`` (a coordinate component),
    or ``"vec"`` (a vector symbol, inside dot/norm2 only).  args holds the
    operand nodes, or the leaf's one value: the number, the constant's
    name, the 0-based index, or ``"x"`` or ``"y"``."""

    op: str
    args: tuple
    # (line, column), 1-based; == compares trees without their positions
    pos: Tuple[int, int] = field(compare=False)


@dataclass(frozen=True)
class MetricAst:
    root: Node
    n: int
    constants: tuple  # names of free constants, sorted


_FUNCS = {"sqrt": 1, "dot": 2, "norm2": 1}

MAX_DEPTH = 100  # the tree's height, a parenthesis counting as a level


class _Parser:
    """One pass over the tokens: each method returns a subtree and its
    height, and the free constants are collected as they are read."""

    def __init__(self, tokens, n):
        self.tokens = tokens
        self.i = 0
        self.n = n
        self.open = 0  # levels around the current operand
        self.vector_calls = 0  # enclosing dot(...) / norm2(...) calls
        self.constants = set()

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def at(self, *texts):
        return self.peek().text in texts

    def expect_op(self, text):
        t = self.next()
        if t.text != text:
            raise DslSyntaxError(
                f"expected {text!r}, found {t.text or 'end of input'!r}",
                *t.pos)

    def level(self, t, *heights):
        """The height of a node at token t over subtrees of these heights."""
        height = 1 + max(heights, default=0)
        if height > MAX_DEPTH:
            raise DslSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", *t.pos)
        return height

    def expr(self, ops="+-*/"):
        """A left-associative chain over the operators ops[:2]: a sum of
        terms, and a term a product of unary operands."""
        node, h = self.expr(ops[2:]) if ops[2:] else self.unary()
        while self.at(*ops[:2]):
            t = self.next()
            right, hr = self.expr(ops[2:]) if ops[2:] else self.unary()
            node, h = Node(t.text, (node, right), t.pos), self.level(t, h, hr)
        return node, h

    def unary(self):
        """unary := '-' unary | atom ('^' unary)?"""
        t = self.peek()
        self.level(t, self.open)  # each open level is one of the tree's
        self.open += 1
        if t.text == "-":
            self.next()
            arg, h = self.unary()
            node, h = Node("neg", (arg,), t.pos), self.level(t, h)
        else:
            node, h = self.atom()
            if self.at("^"):
                t = self.next()
                right, hr = self.unary()
                node, h = Node("^", (node, right), t.pos), self.level(t, h, hr)
        self.open -= 1
        return node, h

    def atom(self):
        t = self.next()
        if t.kind == "num":
            return Node("num", (float(t.text),), t.pos), 1
        if t.text == "(":
            node, h = self.expr()
            self.expect_op(")")
            return node, self.level(t, h)
        if t.kind == "name":
            return self.call(t) if self.at("(") else (self.name_atom(t), 1)
        raise DslSyntaxError(
            f"expected a value, found {t.text or 'end of input'!r}", *t.pos)

    def call(self, t):
        name = t.text
        if name not in _FUNCS:
            raise UnknownIdentifier(f"unknown function {name!r}", *t.pos)
        self.next()  # '('
        vector_call = name in ("dot", "norm2")
        self.vector_calls += vector_call
        args = [self.expr()]
        while self.at(","):
            self.next()
            args.append(self.expr())
        self.expect_op(")")
        self.vector_calls -= vector_call
        want = _FUNCS[name]
        if len(args) != want:
            raise ArityError(
                f"{name} takes {want} argument(s), got {len(args)}", *t.pos)
        args, heights = zip(*args)
        if vector_call and not all(a.op == "vec" for a in args):
            raise ArityError(f"{name} arguments must be the vector symbols "
                             "'x' or 'y'", *t.pos)
        return Node(name, args, t.pos), self.level(t, *heights)

    def name_atom(self, t):
        name = t.text
        if name in ("x", "y"):
            if not self.vector_calls:
                raise DslSyntaxError(
                    f"vector symbol {name!r} is only valid inside "
                    "dot(...) or norm2(...)", *t.pos)
            return Node("vec", (name,), t.pos)
        if name[0] in "xy" and name[1:].isdigit():
            # a numeral int() rejects, such as x², is out of range too
            idx = int(name[1:]) if name[1:].isdecimal() else 0
            if not 1 <= idx <= self.n:
                raise IndexOutOfRange(
                    f"{name}: index must be in 1..{self.n}", *t.pos)
            return Node(name[0], (idx - 1,), t.pos)
        self.constants.add(name)
        return Node("const", (name,), t.pos)


def parse_metric(source: str, n: int) -> MetricAst:
    """Parse DSL source into an AST; raises DslSyntaxError /
    UnknownIdentifier / ArityError / IndexOutOfRange with 1-based
    line:column on malformed input."""
    parser = _Parser(_tokenize(source), n)
    root, _ = parser.expr()
    t = parser.peek()
    if t.kind != "end":
        raise DslSyntaxError(f"unexpected trailing input {t.text!r}", *t.pos)
    return MetricAst(root=root, n=n, constants=tuple(sorted(parser.constants)))


# ---------------------------------------------------------------------------
# evaluation


def _near_zero(v):
    c = v.c[0] if isinstance(v, jets.Jet) else v
    return bool(np.any(np.abs(c) < jets._DIV_EPS))


def _fail(message, node):
    raise EvalDomainError(message, subexpression=ast_to_source(node))


def _named(node, op):
    """op(), with an EvalDomainError of jet arithmetic named by node."""
    try:
        return op()
    except EvalDomainError as e:
        _fail(str(e), node)


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _ev(node, x, y, consts):
    # a module-level walk: a nested recursive closure would be a reference
    # cycle holding x and y until the cyclic garbage collector runs
    op, args = node.op, node.args
    if op == "num":
        return args[0]
    if op == "const":
        return float(consts[args[0]])
    if op == "x" or op == "y":
        return (x if op == "x" else y)[args[0]]
    if op == "dot" or op == "norm2":  # norm2(u) is dot(u, u)
        vecs = {"x": x, "y": y}
        return jets.dot(vecs[args[0].args[0]], vecs[args[-1].args[0]])
    a = _ev(args[0], x, y, consts)
    if op == "neg":
        return -a
    if op == "sqrt":
        return _named(node, lambda: jets.sqrt(a))
    b = _ev(args[1], x, y, consts)
    if op == "/":
        if _near_zero(b):
            _fail("division by zero", node)
        return a / b
    if op == "^":
        return _named(node, lambda: jets.jpow(a, b))
    return _ARITH[op](a, b)


def eval_ast(ast: MetricAst, x, y, constants: dict = None):
    """Evaluate over generic scalars; x and y are length-n sequences of
    floats, of arrays of one batch shape (evaluated elementwise), or of
    jet numbers.  Every domain check is elementwise: if any row leaves
    the domain, EvalDomainError names the subexpression and no row of it
    is evaluated."""
    consts = constants or {}
    missing = [c for c in ast.constants if c not in consts]
    if missing:
        raise UnknownIdentifier(
            f"unbound constant(s): {', '.join(missing)}")
    # overflow gives inf, as in float arithmetic; the check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        val = _ev(ast.root, x, y, consts)
    if not np.all(np.isfinite(val.c if isinstance(val, jets.Jet) else val)):
        _fail("non-finite result", ast.root)
    if isinstance(val, jets.Jet):
        return val
    return float(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# printing (round-trip support)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def ast_to_source(node, parent_prec=0) -> str:
    if isinstance(node, MetricAst):
        return ast_to_source(node.root)
    if not isinstance(node, Node):
        raise TypeError(f"not an AST node: {node!r}")
    op, args = node.op, node.args
    if op == "num":  # a literal past the float range reads as inf
        text = repr(args[0]) if args[0] < np.inf else "1e999"
        return text[:-2] if text.endswith(".0") else text
    if op == "x" or op == "y":
        return f"{op}{args[0] + 1}"
    if op == "const" or op == "vec":
        return args[0]
    if op not in _PREC:  # a call
        return f"{op}({', '.join(ast_to_source(a) for a in args)})"
    prec = _PREC[op]
    if op == "neg":
        text = "-" + ast_to_source(args[0], prec)
    else:
        # the right operand of the left-associative + - * / needs a
        # strictly higher context; ^ takes an atom on its left and a
        # unary operand on its right
        lprec, rprec = ((prec + 1, _PREC["neg"]) if op == "^"
                        else (prec, prec + 1))
        left = ast_to_source(args[0], lprec)
        right = ast_to_source(args[1], rprec)
        text = f"{left}^{right}" if op == "^" else f"{left} {op} {right}"
    return f"({text})" if parent_prec > prec else text


# ---------------------------------------------------------------------------
# metric construction


def metric_from_dsl(source: str, n: int, name: str = "dsl-metric",
                    constants: dict = None) -> FinslerMetric:
    """Build a FinslerMetric on all of R^n from DSL source and verify
    degree-1 homogeneity at a few sample points (HomogeneityError on
    failure)."""
    ast = parse_metric(source, n)

    def L(x, y):
        return eval_ast(ast, x, y, constants)

    metric = FinslerMetric(n=n, evaluate=L, name=name)
    rng = np.random.Generator(np.random.Philox(7))
    check_points = []
    for _ in range(5):
        xv = rng.uniform(-0.2, 0.2, size=n)
        yv = rng.normal(size=n)
        yv /= np.linalg.norm(yv)
        check_points.append(SamplePoint(xv, yv))
    metric.check_homogeneity(check_points)
    return metric
