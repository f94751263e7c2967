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
bound from the run configuration.  Evaluation is generic over floats,
arrays (elementwise) and jet scalars.  All reported positions are 1-based
line:column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import jets
from .errors import (ArityError, DslSyntaxError, EvalDomainError,
                     IndexOutOfRange, UnknownIdentifier)
from .metric import FinslerMetric, SamplePoint

# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class Token:
    kind: str  # 'num', 'name', 'op', 'end'
    text: str
    line: int
    column: int


_OPS = set("+-*/^(),")


def _tokenize(source: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _OPS:
            tokens.append(Token("op", ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            seen_e = False
            while j < len(source):
                c = source[j]
                if c.isdigit() or c == ".":
                    j += 1
                elif c in "eE" and not seen_e and j + 1 < len(source) and (
                        source[j + 1].isdigit() or source[j + 1] in "+-"):
                    seen_e = True
                    j += 2 if source[j + 1] in "+-" else 1
                else:
                    break
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise DslSyntaxError(f"malformed number {text!r}",
                                     line=line, column=col)
            tokens.append(Token("num", text, line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(source) and (source[j].isalnum()
                                       or source[j] == "_"):
                j += 1
            tokens.append(Token("name", source[i:j], line, col))
            col += j - i
            i = j
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}",
                             line=line, column=col)
    tokens.append(Token("end", "", line, col))
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


class _Parser:
    def __init__(self, tokens, n):
        self.tokens = tokens
        self.i = 0
        self.n = n

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, text):
        t = self.next()
        if t.kind != "op" or t.text != text:
            raise DslSyntaxError(
                f"expected {text!r}, found {t.text or 'end of input'!r}",
                line=t.line, column=t.column)
        return t

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise DslSyntaxError(f"unexpected trailing input {t.text!r}",
                                 line=t.line, column=t.column)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            t = self.next()
            node = Binary((t.line, t.column), t.text, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            t = self.next()
            node = Binary((t.line, t.column), t.text, node, self.unary())
        return node

    def unary(self):
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.next()
            return Unary((t.line, t.column), "-", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.next()
            node = Binary((t.line, t.column), "^", node, self.unary())
        return node

    def atom(self):
        t = self.next()
        pos = (t.line, t.column)
        if t.kind == "num":
            return Num(pos, float(t.text))
        if t.kind == "op" and t.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if t.kind == "name":
            name = t.text
            if self.peek().kind == "op" and self.peek().text == "(":
                return self.call(name, pos)
            return self.name_atom(name, pos)
        raise DslSyntaxError(
            f"expected a value, found {t.text or 'end of input'!r}",
            line=t.line, column=t.column)

    def call(self, name, pos):
        if name not in _FUNCS:
            raise UnknownIdentifier(f"unknown function {name!r}",
                                    line=pos[0], column=pos[1])
        self.expect_op("(")
        args = [self.expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.next()
            args.append(self.expr())
        self.expect_op(")")
        want = _FUNCS[name]
        if len(args) != want:
            raise ArityError(
                f"{name} takes {want} argument(s), got {len(args)}",
                line=pos[0], column=pos[1])
        if name in ("dot", "norm2"):
            for a in args:
                if not isinstance(a, VecRef):
                    raise ArityError(
                        f"{name} arguments must be the vector symbols "
                        "'x' or 'y'", line=pos[0], column=pos[1])
        return Call(pos, name, tuple(args))

    def name_atom(self, name, pos):
        if name in ("x", "y"):
            return VecRef(pos, name)
        if name[0] in "xy" and name[1:].isdigit():
            idx = int(name[1:])
            if not 1 <= idx <= self.n:
                raise IndexOutOfRange(
                    f"{name}: index must be in 1..{self.n}",
                    line=pos[0], column=pos[1])
            return Var(pos, name[0], idx - 1)
        return Const(pos, name)


def parse_metric(source: str, n: int) -> MetricAst:
    """Parse DSL source into an AST; raises DslSyntaxError /
    UnknownIdentifier / ArityError / IndexOutOfRange with 1-based
    line:column on malformed input."""
    root = _Parser(_tokenize(source), n).parse()
    _reject_bare_vectors(root)
    consts = sorted(_free_constants(root))
    return MetricAst(root=root, n=n, constants=tuple(consts))


def _reject_bare_vectors(node):
    """VecRef is only meaningful inside dot/norm2."""
    if isinstance(node, VecRef):
        raise DslSyntaxError(
            f"vector symbol {node.group!r} is only valid inside "
            "dot(...) or norm2(...)",
            line=node.pos[0], column=node.pos[1])
    for child in _children(node):
        _reject_bare_vectors(child)


def _children(node):
    if isinstance(node, Unary):
        return (node.arg,)
    if isinstance(node, Binary):
        return (node.left, node.right)
    if isinstance(node, Call):
        if node.func in ("dot", "norm2"):
            return ()  # VecRef arguments are legitimate here
        return node.args
    return ()


def _free_constants(node):
    if isinstance(node, Const):
        return {node.name}
    out = set()
    for child in _children(node):
        out |= _free_constants(child)
    return out


# ---------------------------------------------------------------------------
# evaluation


def _near_zero(v):
    c = v.c[0] if isinstance(v, jets.Jet) else v
    return bool(np.any(np.abs(c) < 1e-300))


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
        # '^'; a varying exponent is exp(b log a)
        if isinstance(b, jets.Jet):
            return _named(node, lambda: jets.jpow(a, b))
        if isinstance(a, jets.Jet):
            return _named(node, lambda: a ** b)
        if np.any((np.asarray(a) < 0) & (np.floor(b) != b)):
            _fail("fractional power of a negative value", node)
        if np.any((np.asarray(a) == 0) & (np.asarray(b) < 0)):
            _fail("division by zero", node)
        return np.power(a, b)
    if isinstance(node, Call):
        if node.func == "sqrt":
            arg = _ev(node.args[0], x, y, consts)
            if not isinstance(arg, jets.Jet) and np.any(np.asarray(arg) < 0):
                _fail("sqrt of a negative value", node)
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
