"""Span tracer, and the patches that open spans at finsler's public boundaries.

The tracer keeps one stack of open spans. When a span closes, its duration
is added to the child time of its parent, and its self time (duration minus
child time) to the total of its name. The self times of all spans under one
root therefore add up to the root's duration.

Engine spans also keep the time of their direct ``jets.*`` children
("attributed" time), so the cost of a ``ChartJets`` attribute includes the
jet products it causes, as in the ROADMAP baseline.

Spans are recorded from outside the package: ``instrument`` replaces public
functions and methods with timing wrappers and restores them on exit. Names
imported with ``from .jets import jet_einsum`` are separate references in
each module, so a function is replaced in every ``finsler`` module that
holds it, not only in the module that defines it.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def layer(name):
    return name.split(".", 1)[0]


class Tracer:
    """Aggregates span self times and exact work counts in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans: [name, start, child_s, jets_child_s]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.attributed_s = defaultdict(float)
        self.counts = defaultdict(int)

    def enter(self, name):
        self.stack.append([name, self.clock(), 0.0, 0.0])

    def exit(self):
        name, start, child_s, jets_child_s = self.stack.pop()
        dur = self.clock() - start
        own = dur - child_s
        self.self_s[name] += own
        self.total_s[name] += dur
        self.attributed_s[name] += own + jets_child_s
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            if layer(name) == "jets":
                parent[3] += dur
        return dur

    @contextmanager
    def span(self, name):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self.undo = []

    def set(self, owner, attr, value):
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_item(self, mapping, key, value):
        self.undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def everywhere(self, original, replacement):
        """Replace every module-level reference to ``original`` in finsler."""
        for modname, module in list(sys.modules.items()):
            if modname != "finsler" and not modname.startswith("finsler."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self):
        while self.undo:
            owner, key, value = self.undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)


def _size(shape):
    return math.prod(shape)


def _count_product(tracer, a, b, out, iter_size):
    """Exact work of one coefficient convolution: pairs x components."""
    pairs = len(a.space.mI)
    item = out.c.dtype.itemsize
    comp_out = _size(out.c.shape[1:])
    c = tracer.counts
    c["jets.products"] += 1
    c["jets.pair_volume"] += pairs * iter_size
    c["jets.bytes_computed"] += item * (
        pairs * (_size(a.c.shape[1:]) + _size(b.c.shape[1:]) + comp_out)
        + a.space.T * comp_out)


def _einsum_iter_size(subscripts, a, b):
    lhs = subscripts.split("->")[0]
    s1, s2 = lhs.split(",")
    extent = dict(zip(s1, a.shape))
    extent.update(zip(s2, b.shape))
    return _size(extent.values())


@contextmanager
def instrument(tracer):
    """Install spans and counters on finsler's public boundaries."""
    from functools import cached_property

    from finsler import dsl, engine, fdpipe, jets, sampling, scalarclass, \
        suites
    from finsler.metric import FinslerMetric

    Jet = jets.Jet
    patches = _Patches()
    try:
        # jets: products, formal derivatives, inverse, space builds
        mul = Jet.__mul__

        def traced_mul(self, other):
            if not isinstance(other, Jet):
                return mul(self, other)
            tracer.enter("jets.product")
            try:
                out = mul(self, other)
            finally:
                tracer.exit()
            _count_product(tracer, self, other, out, _size(out.c.shape[1:]))
            return out

        patches.set(Jet, "__mul__", traced_mul)
        patches.set(Jet, "__rmul__", traced_mul)

        einsum = jets.jet_einsum

        def traced_einsum(subscripts, a, b):
            tracer.enter("jets.product")
            try:
                out = einsum(subscripts, a, b)
            finally:
                tracer.exit()
            _count_product(tracer, a, b, out,
                           _einsum_iter_size(subscripts, a, b))
            return out

        patches.everywhere(einsum, traced_einsum)
        for fn in (jets.d_x, jets.d_y):
            patches.everywhere(fn, tracer.wrap("jets.deriv", fn))
        for meth in ("dx", "dy"):
            patches.set(Jet, meth,
                        tracer.wrap("jets.deriv", getattr(Jet, meth)))
        inverse = jets.jet_matrix_inverse
        patches.everywhere(inverse, tracer.wrap("jets.inverse", inverse))

        patches.set(jets.JetSpace, "__init__", _counted(
            tracer, "jets.space_builds",
            tracer.wrap("jets.space_build", jets.JetSpace.__init__)))

        # engine: construction, every cached attribute, and h_cov; delta
        # is a step of Rhat and h_cov, so its time stays with its caller
        CJ = engine.ChartJets
        for name in ("__init__", "h_cov"):
            label = "init" if name == "__init__" else name
            patches.set(CJ, name, tracer.wrap(f"engine.{label}",
                                              getattr(CJ, name)))
        for name, value in list(vars(CJ).items()):
            if isinstance(value, cached_property):
                prop = cached_property(tracer.wrap(f"engine.{name}",
                                                   value.func))
                prop.__set_name__(CJ, name)
                patches.set(CJ, name, prop)

        # suites (called through the SUITES registry), classification
        for name, fn in list(suites.SUITES.items()):
            patches.set_item(suites.SUITES, name,
                             tracer.wrap(f"suites.{name}", fn))
        classify = scalarclass.classify
        patches.everywhere(classify,
                           tracer.wrap("scalarclass.classify", classify))

        # FD pipeline
        FD = fdpipe.FDPipeline
        for name in ("tensors", "c_form"):
            patches.set(FD, name,
                        tracer.wrap(f"fdpipe.{name}", getattr(FD, name)))
        patches.set(FD, "spray_at",
                    _counted(tracer, "fdpipe.spray_evals", FD.spray_at))

        # expression language
        eval_ast = dsl.eval_ast
        patches.everywhere(eval_ast, _counted(
            tracer, "dsl.eval_calls", tracer.wrap("dsl.eval", eval_ast)))

        # metric: calls to L by argument kind; every metric built while
        # instrumented gets a counting evaluator
        metric_init = FinslerMetric.__init__

        def counted_metric_init(self, *args, **kwargs):
            metric_init(self, *args, **kwargs)
            evaluate = self.evaluate

            def counted_evaluate(x, y):
                kind = "jet" if isinstance(y[0], Jet) else "float"
                tracer.counts[f"metric.L_calls_{kind}"] += 1
                return evaluate(x, y)

            object.__setattr__(self, "evaluate", counted_evaluate)

        patches.set(FinslerMetric, "__init__", counted_metric_init)
        for meth in ("in_domain", "L"):
            original = getattr(FinslerMetric, meth)
            patches.set(FinslerMetric, meth,
                        _counted(tracer, f"metric.{meth}_method", original))

        # sampling: each draw is checked with in_domain once, and once more
        # inside metric.L when it lands in the domain
        sample_points = sampling.sample_points

        def traced_sample_points(metric, spec):
            c = tracer.counts
            before = c["metric.in_domain_method"] - c["metric.L_method"]
            tracer.enter("sampling.sample")
            try:
                points = sample_points(metric, spec)
            finally:
                tracer.exit()
            c["sampling.draws"] += (c["metric.in_domain_method"]
                                    - c["metric.L_method"] - before)
            c["sampling.kept"] += len(points)
            return points

        patches.everywhere(sample_points, traced_sample_points)
        yield tracer
    finally:
        patches.restore()


@contextmanager
def space_builds():
    """Record ``(n, px, py)`` of every ``JetSpace`` built inside the block.

    Records arguments only and times nothing, so untraced runs may use it.
    """
    from finsler import jets

    built = []
    space_init = jets.JetSpace.__init__

    def recording_init(self, n, px, py):
        space_init(self, n, px, py)
        built.append((n, px, py))

    patches = _Patches()
    try:
        patches.set(jets.JetSpace, "__init__", recording_init)
        yield built
    finally:
        patches.restore()


def _counted(tracer, key, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return counted
