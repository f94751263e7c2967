"""Workloads, and one op: a call of ``finsler.cli.main`` on one generated
config, timed and checked.

A workload is a fixed cycle of configs. Its seed only chooses the sampling
seed each op passes to the program; the program sees nothing but the
generated config file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
import traceback
from dataclasses import dataclass
from typing import Optional

from finsler import catalog, cli, suites

# The Randers metric of demos/04_dsl_and_cli.py (b = 0.3).
DSL_RANDERS = {
    "dsl": "sqrt(norm2(y)) + b * dot(x, y) / sqrt(1 + b^2 * norm2(x))",
    "dimension": 3, "name": "randers-dsl", "constants": {"b": 0.3},
}


@dataclass(frozen=True)
class Config:
    """One CLI invocation shape; ``verdict`` defaults to the catalog's."""

    label: str
    command: str  # "verify" | "classify"
    metric: dict
    samples: int
    backend: str = "jet"
    verdict: Optional[str] = None

    def expected(self):
        """Expected verdict and k (None: k is not checked)."""
        entry = catalog.CATALOG.get(self.metric.get("catalog"))
        if entry is None:
            return self.verdict, None
        return self.verdict or entry.expected_verdict, entry.expected_k


def _catalog(key, n, **params):
    spec = {"catalog": key, "dimension": n}
    if params:
        spec["params"] = params
    return spec


def _verify_n3():
    # the fixture set of catalog.default_metrics(3), in its order
    specs = [("euclidean", _catalog("euclidean", 3)),
             ("space_form+1", _catalog("riemannian_space_form", 3,
                                       kappa=1.0)),
             ("space_form-1", _catalog("riemannian_space_form", 3,
                                       kappa=-1.0)),
             ("funk", _catalog("funk", 3)),
             ("randers_pflat", _catalog("randers_pflat", 3)),
             ("perturbed_riemannian", _catalog("perturbed_riemannian", 3,
                                               seed=0))]
    return [Config(label, "verify", spec, 1) for label, spec in specs]


def _classify_fd_n3():
    # |C| of the DSL Randers metric is small: at about 2% of sample points
    # it is under the FD tolerance, so one point can read as "constant"
    # (see README.md); three points make that practically impossible
    return [Config("funk", "classify", _catalog("funk", 3), 1, "fd"),
            Config("randers_pflat", "classify", _catalog("randers_pflat", 3),
                   1, "fd"),
            Config("randers-dsl", "classify", DSL_RANDERS, 3, "fd",
                   verdict="scalar")]


WORKLOADS = {
    "verify-n3": _verify_n3,
    "classify-fd-n3": _classify_fd_n3,
}


def op_seeds(seed):
    """Endless stream of sampling seeds, one per op of a workload run."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2 ** 31)


@dataclass
class OpResult:
    label: str
    seed: int
    points: int
    seconds: float
    exit_code: Optional[int]
    ok: bool
    reason: str = ""
    report_sha256: str = ""

    def record(self):
        return {"op": self.label, "sample_seed": self.seed,
                "points": self.points, "seconds": self.seconds,
                "exit": self.exit_code, "ok": self.ok, "reason": self.reason,
                "report_sha256": self.report_sha256}


def run_op(config, seed, workdir, tracer=None):
    """Run one op; a crash or a wrong result makes a failed OpResult."""
    cfg_path = os.path.join(workdir, "config.json")
    out_path = os.path.join(workdir, "report.jsonl")
    doc = {"metric": config.metric, "backend": config.backend,
           "sampling": {"count": config.samples, "seed": seed}}
    if config.command == "verify":
        doc["suites"] = "all"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    argv = [config.command, "--config", cfg_path, "--out", out_path]
    stdout, stderr = io.StringIO(), io.StringIO()
    exit_code = None
    reason = ""
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            if tracer is None:
                exit_code = cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    exit_code = cli.main(argv)
        except Exception:  # an op failure must not stop the run
            reason = "exception: " + traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
    data = b""
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            data = fh.read()
        os.remove(out_path)
    if not reason:
        check = _check_verify if config.command == "verify" \
            else _check_classify
        try:
            lines = [json.loads(line) for line in data.decode().splitlines()]
            reason = check(config, exit_code, lines, stdout.getvalue(),
                           stderr.getvalue())
        except (ValueError, KeyError, TypeError, IndexError) as e:
            reason = f"unreadable report: {e!r}"
    digest = hashlib.sha256(data).hexdigest() if data else ""
    return OpResult(config.label, seed, config.samples, seconds, exit_code,
                    not reason, reason, digest)


def _check_verify(config, exit_code, lines, stdout, stderr):
    verdict, _ = config.expected()
    want_exit = cli.EXIT_PASS if verdict in ("constant", "scalar") \
        else cli.EXIT_FAIL
    if exit_code != want_exit:
        return f"exit {exit_code}, expected {want_exit}: {stderr.strip()}"
    if len(lines) < 2 or lines[0].get("command") != "verify" \
            or lines[-1].get("summary") != "max_residual_per_identity":
        return "malformed verify report"
    records = lines[1:-1]
    seen = {(r["suite"], r["sample"]) for r in records}
    want = {(s, i) for s in suites.SUITES for i in range(config.samples)}
    if seen != want:
        return f"report covers {sorted(seen)}, expected {sorted(want)}"
    failing = {r["suite"] for r in records if not r["pass"]}
    bad_universal = failing & set(suites.UNIVERSAL_SUITES)
    if bad_universal:
        return f"universal suites failed: {sorted(bad_universal)}"
    if want_exit == cli.EXIT_PASS and failing:
        return f"suites failed: {sorted(failing)}"
    return ""


def _check_classify(config, exit_code, lines, stdout, stderr):
    verdict, k = config.expected()
    if exit_code != cli.EXIT_PASS:
        return f"exit {exit_code}: {stderr.strip()}"
    if len(lines) != 2:
        return "malformed classify report"
    report = lines[1]
    if report["verdict"] != verdict:
        return f"verdict {report['verdict']!r}, expected {verdict!r}"
    if len(report["k_samples"]) != config.samples:
        return f"{len(report['k_samples'])} k samples, expected " \
               f"{config.samples}"
    if k is not None:
        tol = 1e-8 if config.backend == "jet" else 1e-3 * (1.0 + abs(k))
        if abs(report["k_mean"] - k) > tol:
            return f"k_mean {report['k_mean']!r}, expected {k!r}"
    if f": {verdict}" not in stdout:
        return f"verdict line {stdout.strip()!r}"
    return ""
