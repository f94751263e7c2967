"""Command-line front door.

Subcommands::

    finsler tensors  --config cfg.json [--out r.jsonl] [--samples N]
                     [--seed S] [--backend jet|fd]
    finsler verify   --config cfg.json ...
    finsler classify --config cfg.json ...

The config is a JSON document; a key not shown is a config error::

    {
      "metric": {"catalog": "funk", "dimension": 3, "params": {}}
                -- or --
                {"dsl": "sqrt(norm2(y))", "dimension": 3,
                 "constants": {}, "name": "euclid"},
      "sampling": {"count": 20, "seed": 0, "radius": 0.4},
      "backend": "jet",
      "suites": ["bianchi", "theorem21"],   // verify only; "all" allowed
      "tolerances": {"default": 1e-6, "bianchi": 1e-6},
      "output": "report.jsonl"
    }

Reports are line-delimited JSON with sorted keys (byte-identical across
runs of the same config); the first line is a header echoing the
configuration.  Exit codes: 0 pass, 1 identity failure, 2 config/parse
error, 3 runtime domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from . import __version__
from .catalog import _param_ok, build_catalog_metric
from .dsl import metric_from_dsl
from .errors import ConfigError, DslError, FinslerError
from .sampling import SamplingSpec, sample_points
from .scalarclass import BACKENDS, check_dimension, classify, records
from .suites import SUITES, run_suites

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

DEFAULT_TOL = 1e-6


def _not_json(token):  # json.load reads NaN and Infinity; JSON has neither
    raise ValueError(f"{token} is not a JSON value")


def _check_keys(obj, known, where):
    for key in obj:
        if key not in known:
            raise ConfigError(f"unknown {where} key {key!r}; known: "
                              f"{sorted(known)}")


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_not_json)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except ValueError as e:  # bad JSON or UTF-8, or an int too long to read
        raise ConfigError(f"malformed config {path}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _check_keys(cfg, ("metric", "sampling", "backend", "suites",
                      "tolerances", "output"), "config")
    return cfg


def _build_metric(cfg):
    spec = cfg.get("metric")
    if not isinstance(spec, dict):
        raise ConfigError("config needs a 'metric' object")
    _check_keys(spec, ("catalog", "dsl", "dimension", "params", "constants",
                       "name"), "metric")
    has_catalog = "catalog" in spec
    has_dsl = "dsl" in spec
    if has_catalog == has_dsl:
        raise ConfigError(
            "metric must specify exactly one of 'catalog' or 'dsl'")
    n = spec.get("dimension", 3)
    if not isinstance(n, int) or n < 2:
        raise ConfigError(f"invalid dimension {n!r}")
    for key in ("catalog", "dsl", "name"):
        if not isinstance(spec.get(key, ""), str):
            raise ConfigError(f"metric {key!r} must be a string, "
                              f"got {spec[key]!r}")
    if has_catalog:
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("'params' must be an object")
        return build_catalog_metric(spec["catalog"], n, **params)
    constants = spec.get("constants", {})
    if not isinstance(constants, dict):
        raise ConfigError("'constants' must be an object")
    for key, value in constants.items():
        if not _param_ok(value, 0.0):  # the rule of float catalog params
            raise ConfigError(f"constant {key!r} must be a finite number, "
                              f"got {value!r}")
    return metric_from_dsl(spec["dsl"], n,
                           name=spec.get("name", "dsl-metric"),
                           constants=constants)


def _sampling(cfg, args):
    s = cfg.get("sampling", {})
    if not isinstance(s, dict):
        raise ConfigError("'sampling' must be an object")
    _check_keys(s, ("count", "seed", "radius"), "sampling")
    count = (args.samples if args.samples is not None
             else s.get("count", SamplingSpec.count))
    seed = args.seed if args.seed is not None else s.get("seed", 0)
    if not (_param_ok(count, 0) and count >= 1):
        raise ConfigError(f"sample count must be >= 1, got {count!r}")
    if not _param_ok(seed, 0):
        raise ConfigError(
            f"sampling seed must be a non-negative integer, got {seed!r}")
    radius = s.get("radius")
    # metrics square |x|, so the square of the radius must be finite
    if radius is not None and not (
            _param_ok(radius, 0.0)
            and 0 < radius < math.sqrt(sys.float_info.max)):
        raise ConfigError(f"invalid sampling radius {radius!r}")
    return SamplingSpec(count=count, seed=seed, radius=radius)


def _backend(cfg, args):
    b = args.backend if args.backend is not None else cfg.get("backend",
                                                              "jet")
    if b not in BACKENDS:
        raise ConfigError(f"backend must be {' or '.join(map(repr, BACKENDS))}"
                          f", got {b!r}")
    return b


def _tolerances(cfg):
    tols = cfg.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError("'tolerances' must be an object")
    _check_keys(tols, ("default", *SUITES), "tolerance")
    for key, val in tols.items():
        if not (_param_ok(val, 0.0) and val > 0):
            raise ConfigError(
                f"tolerance {key!r} must be a positive finite number")
    return tols


@contextmanager
def _report_stream(cfg, args):
    """The report file named by --out or the config's "output", closed
    on exit; standard output when neither is given.  Commands enter it
    before any work, so a bad path fails at once."""
    path = args.out if args.out is not None else cfg.get("output")
    if path is None:
        yield sys.stdout
        return
    if not isinstance(path, str):
        raise ConfigError(f"'output' must be a file name, got {path!r}")
    try:
        stream = open(path, "w", encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot write report {path}: {e}")
    with stream:
        yield stream


def _emit(stream, obj):
    stream.write(json.dumps(obj, sort_keys=True) + "\n")


def _header(command, cfg, metric, spec, backend):
    return {
        "tool": "finsler",
        "version": __version__,
        "command": command,
        "metric": metric.name,
        "dimension": metric.n,
        "backend": backend,
        "seed": spec.seed,
        "samples": spec.count,
        "config": cfg,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_tensors(cfg, args):
    metric = _build_metric(cfg)
    spec = _sampling(cfg, args)
    backend = _backend(cfg, args)
    with _report_stream(cfg, args) as stream:
        points = sample_points(metric, spec)
        rows = [dict({k: np.asarray(v).tolist() for k, v in rec.items()},
                     sample=idx, x=p.x.tolist(), y=p.y.tolist())
                for idx, (p, rec) in enumerate(
                    zip(points, records(metric, points, backend)))]
        # written only once every point has succeeded, as verify and
        # classify do: a runtime error leaves the report empty
        _emit(stream, _header("tensors", cfg, metric, spec, backend))
        for row in rows:
            _emit(stream, row)
    return EXIT_PASS


def cmd_verify(cfg, args):
    metric = _build_metric(cfg)
    spec = _sampling(cfg, args)
    backend = _backend(cfg, args)
    if backend != "jet":
        raise ConfigError("verify requires the jet backend")
    names = cfg.get("suites", "all")
    if names == "all":
        names = sorted(SUITES)
    if not isinstance(names, list) or not names:
        raise ConfigError("'suites' must be 'all' or a nonempty list")
    for name in names:
        if not isinstance(name, str) or name not in SUITES:
            raise ConfigError(
                f"unknown suite {name!r}; known: {sorted(SUITES)}")
    tols = _tolerances(cfg)
    default_tol = tols.get("default", DEFAULT_TOL)

    failed = False
    with _report_stream(cfg, args) as stream:
        records = run_suites(metric, sample_points(metric, spec), names)
        _emit(stream, _header("verify", cfg, metric, spec, "jet"))
        summary = {}
        for rec in records:
            tol = tols.get(rec["suite"], default_tol)
            ok = rec["residual"] < tol
            failed = failed or not ok
            out = dict(rec)
            out["tolerance"] = tol
            out["pass"] = ok
            _emit(stream, out)
            key = f"{rec['suite']}.{rec['identity']}"
            summary[key] = max(summary.get(key, 0.0), rec["residual"])
        _emit(stream, {"summary": "max_residual_per_identity",
                       "values": summary})
    return EXIT_FAIL if failed else EXIT_PASS


def cmd_classify(cfg, args):
    metric = _build_metric(cfg)
    spec = _sampling(cfg, args)
    backend = _backend(cfg, args)
    check_dimension(metric.n)
    with _report_stream(cfg, args) as stream:
        report = classify(metric, spec, backend=backend)
        _emit(stream, _header("classify", cfg, metric, spec, backend))
        _emit(stream, asdict(report))
    if report.verdict == "constant":
        line = (f"{metric.name}: constant "
                f"(k={report.k_mean:.4f}±{report.k_std:.4f})")
    elif report.verdict == "scalar":
        line = (f"{metric.name}: scalar "
                f"(k={report.k_mean:.4f} nonconstant)")
    else:
        line = f"{metric.name}: generic"
    print(line)
    return EXIT_PASS


# ---------------------------------------------------------------------------


@functools.cache  # parsing leaves a parser as it was, so build it once
def make_parser():
    """The CLI parser, built on the first call; the ``cmd_*`` functions
    are bound then, so a later rebinding of one is not seen."""
    parser = argparse.ArgumentParser(
        prog="finsler",
        description="Berwald-geometry tensor computation, identity "
                    "verification, and scalar-curvature classification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("tensors", cmd_tensors), ("verify", cmd_verify),
                     ("classify", cmd_classify)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--backend", choices=BACKENDS, default=None)
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.func(cfg, args)
    except (ConfigError, DslError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FinslerError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
