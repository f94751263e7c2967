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
    # (line, column), 1-based; == compares trees without their positions
    pos: Tuple[int, int] = field(compare=False)


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class Const(Node):
    name: str


@dataclass(frozen=True)
class Var(Node):
    group: str  # 'x' or 'y'
    index: int  # 0-based


@dataclass(frozen=True)
class VecRef(Node):
    group: str  # 'x' or 'y' as a whole vector (inside dot/norm2 only)


@dataclass(frozen=True)
class Unary(Node):
    op: str
    arg: Node


@dataclass(frozen=True)
class Binary(Node):
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class Call(Node):
    func: str
    args: tuple


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
            node, h = Binary(t.pos, t.text, node, right), self.level(t, h, hr)
        return node, h

    def unary(self):
        """unary := '-' unary | atom ('^' unary)?"""
        t = self.peek()
        self.level(t, self.open)  # each open level is one of the tree's
        self.open += 1
        if t.text == "-":
            self.next()
            arg, h = self.unary()
            node, h = Unary(t.pos, "-", arg), self.level(t, h)
        else:
            node, h = self.atom()
            if self.at("^"):
                t = self.next()
                right, hr = self.unary()
                node, h = Binary(t.pos, "^", node, right), self.level(t, h, hr)
        self.open -= 1
        return node, h

    def atom(self):
        t = self.next()
        if t.kind == "num":
            return Num(t.pos, float(t.text)), 1
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
        if vector_call and not all(isinstance(a, VecRef) for a in args):
            raise ArityError(f"{name} arguments must be the vector symbols "
                             "'x' or 'y'", *t.pos)
        return Call(t.pos, name, args), self.level(t, *heights)

    def name_atom(self, t):
        name = t.text
        if name in ("x", "y"):
            if not self.vector_calls:
                raise DslSyntaxError(
                    f"vector symbol {name!r} is only valid inside "
                    "dot(...) or norm2(...)", *t.pos)
            return VecRef(t.pos, name)
        if name[0] in "xy" and name[1:].isdigit():
            # a numeral int() rejects, such as x², is out of range too
            idx = int(name[1:]) if name[1:].isdecimal() else 0
            if not 1 <= idx <= self.n:
                raise IndexOutOfRange(
                    f"{name}: index must be in 1..{self.n}", *t.pos)
            return Var(t.pos, name[0], idx - 1)
        self.constants.add(name)
        return Const(t.pos, name)


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


def _ev(node, x, y, consts):
    # a module-level walk: a nested recursive closure would be a reference
    # cycle holding x and y until the cyclic garbage collector runs
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return float(consts[node.name])
    if isinstance(node, Var):
        return (x if node.group == "x" else y)[node.index]
    if isinstance(node, Unary):
        return -_ev(node.arg, x, y, consts)
    if isinstance(node, Binary):
        a = _ev(node.left, x, y, consts)
        b = _ev(node.right, x, y, consts)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if _near_zero(b):
                _fail("division by zero", node)
            return a / b
        return _named(node, lambda: jets.jpow(a, b))  # '^'
    if isinstance(node, Call):
        if node.func == "sqrt":
            arg = _ev(node.args[0], x, y, consts)
            return _named(node, lambda: jets.sqrt(arg))
        vecs = {"x": x, "y": y}
        if node.func == "dot":
            return jets.dot(vecs[node.args[0].group],
                            vecs[node.args[1].group])
        if node.func == "norm2":
            u = vecs[node.args[0].group]
            return jets.dot(u, u)
    raise EvalDomainError(f"cannot evaluate node {node!r}")


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
    if isinstance(val, jets.Jet):
        return val
    if not np.all(np.isfinite(val)):
        _fail("non-finite result", ast.root)
    return float(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# printing (round-trip support)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def ast_to_source(node, parent_prec=0) -> str:
    if isinstance(node, MetricAst):
        return ast_to_source(node.root)
    if isinstance(node, Num):
        text = repr(node.value)
        return text[:-2] if text.endswith(".0") else text
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Var):
        return f"{node.group}{node.index + 1}"
    if isinstance(node, VecRef):
        return node.group
    if isinstance(node, Unary):
        inner = ast_to_source(node.arg, _PREC["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PREC["neg"] else text
    if isinstance(node, Binary):
        prec = _PREC[node.op]
        left = ast_to_source(node.left, prec)
        # right operand of -, / needs a strictly higher context; ^ is
        # right-associative so its right side reuses the same precedence
        rprec = prec if node.op in ("+", "*", "^") else prec + 1
        right = ast_to_source(node.right, rprec)
        text = f"{left} {node.op} {right}" if node.op != "^" \
            else f"{left}^{right}"
        return f"({text})" if parent_prec > prec else text
    if isinstance(node, Call):
        args = ", ".join(ast_to_source(a) for a in node.args)
        return f"{node.func}({args})"
    raise TypeError(f"not an AST node: {node!r}")


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
