"""Benchmark harness for finsler: drives ``finsler.cli.main`` on a workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-n3 --seed 1 --seconds 55 \
        --trace 0

The load is a closed loop with one client: one process calls ``cli.main``
once per op, in sequence, cycling through the workload's configs for
``--seconds`` seconds; every config runs at least once, and after the first
cycle no op starts that should end after the time limit. Each op is
checked for correctness; a failed op is counted, and the run goes on.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` repeats one cycle of ops, each op untraced and traced, for
``--seconds`` seconds in the same way, and reports per-point layer metrics
from the traced ops (see README.md for their definitions).

Standard output holds one JSON line per op (with the sha256 of its report),
a run record, and, last, the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
SETUP_PROBES = 9

ENGINE_ATTRS = ("init", "g_inv", "G", "Rhat", "H", "k", "C", "B", "A",
                "R_low", "h_cov")
PER_POINT_COUNTS = ("jets.products", "jets.pair_volume",
                    "jets.bytes_computed", "jets.space_builds",
                    "fdpipe.spray_evals", "metric.L_calls_float",
                    "metric.L_calls_jet", "dsl.eval_calls")
COUNT_UNITS = {"jets.bytes_computed": "B/point"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def points_per_s(results, configs):
    """Throughput of a balanced mix: one point of every config.

    Each config contributes the median seconds per point of its passing
    ops, so the figure does not depend on where the time limit cut the
    cycle. The median, not the fastest op, because the shared host makes
    ops slow in phases of tens of seconds and fast only now and then: the
    fastest op of a run is a rare event and varies most from run to run.
    """
    per_point = []
    for config in configs:
        times = [r.seconds / r.points for r in results
                 if r.label == config.label and r.ok]
        if times:
            per_point.append(statistics.median(times))
    return len(per_point) / sum(per_point) if per_point else 0.0


def setup_seconds(keys):
    """Median over fresh processes of import + the run's JetSpace builds."""
    args = [f"{n},{px},{py}" for n, px, py in keys]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *args],
            capture_output=True, text=True, timeout=120, check=True,
            cwd=ROOT)
        probe = json.loads(proc.stdout.splitlines()[-1])
        samples.append(probe["import_s"] + probe["spaces_s"])
    return statistics.median(samples)


def untraced_run(configs, seed, seconds, workdir):
    import ops
    import tracer as tracing
    from finsler import jets

    jets.get_space.cache_clear()
    seeds = ops.op_seeds(seed)
    results = []
    deadline = time.perf_counter() + seconds
    with tracing.space_builds() as built:
        while True:
            config = configs[len(results) % len(configs)]
            # after one full cycle, start an op only if it should end in
            # time, judged by the last op of the same config
            if len(results) >= len(configs) and time.perf_counter() \
                    + results[-len(configs)].seconds > deadline:
                break
            results.append(ops.run_op(config, next(seeds), workdir))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = end_to_end_metrics(results, configs, setup_seconds(built),
                                 peak_mb)
    return results, metrics, []


def end_to_end_metrics(results, configs, setup_s, peak_mb):
    return {
        "points_per_s": (points_per_s(results, configs), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": (sum(r.ok for r in results) / len(results), "ratio"),
    }


def traced_run(configs, seed, seconds, workdir):
    """Run each op of one cycle untraced and traced, until time is up.

    The two runs of an op follow each other, in alternating order, so both
    see the same machine state; the JetSpace cache is cleared before each,
    so each builds its spaces as one CLI invocation does.
    """
    import ops
    import tracer as tracing
    from finsler import jets

    seeds = ops.op_seeds(seed)
    cycle = [(config, next(seeds)) for config in configs]
    tracer = tracing.Tracer()
    problems, cycle_counts = [], []
    # the first op of a process runs cold; keep it out of the comparison
    results = [ops.run_op(*cycle[0], workdir)]
    seconds_by_mode = {False: 0.0, True: 0.0}
    points = 0
    deadline = time.perf_counter() + seconds
    cycle_s = 0.0
    # after the first cycle, start one only if it should end in time
    while not cycle_counts or time.perf_counter() + cycle_s < deadline:
        cycle_start = time.perf_counter()
        counts_before = dict(tracer.counts)
        for index, (config, op_seed) in enumerate(cycle):
            parity = (len(cycle_counts) + index) % 2
            for traced in (parity == 1, parity == 0):
                jets.get_space.cache_clear()
                if not traced:
                    result = ops.run_op(config, op_seed, workdir)
                else:
                    with tracing.instrument(tracer):
                        result = _traced_op(ops, tracer, config, op_seed,
                                            workdir, problems)
                    points += result.points
                results.append(result)
                seconds_by_mode[traced] += result.seconds
        cycle_counts.append({k: v - counts_before.get(k, 0)
                             for k, v in tracer.counts.items()})
        cycle_s = time.perf_counter() - cycle_start
    if any(c != cycle_counts[0] for c in cycle_counts):
        problems.append(f"work counters differ between identical cycles: "
                        f"{cycle_counts}")
    overhead = seconds_by_mode[True] / seconds_by_mode[False]
    return results, layer_metrics(tracer, points, overhead), problems


def _traced_op(ops, tracer, config, op_seed, workdir, problems):
    """One traced op; checks that its self times add up to its duration."""
    root_before = tracer.total_s["cli.main"]
    self_before = sum(tracer.self_s.values())
    result = ops.run_op(config, op_seed, workdir, tracer)
    root = tracer.total_s["cli.main"] - root_before
    accounted = sum(tracer.self_s.values()) - self_before
    if tracer.stack or abs(accounted - root) > 1e-6 * root:
        problems.append(f"{config.label}: self times add to {accounted!r} s, "
                        f"op took {root!r} s, open spans {tracer.stack}")
    return result


def layer_metrics(tracer, points, overhead):
    """Per-point layer metrics; see README.md for the definitions."""
    own, attributed, counts = tracer.self_s, tracer.attributed_s, \
        tracer.counts

    def per_point(value):
        return value / points

    def layer_self(prefix):
        return per_point(sum(v for k, v in own.items()
                             if k.startswith(prefix)))

    out = {
        "jets.product_s": own["jets.product"],
        "jets.deriv_s": own["jets.deriv"],
        "jets.inverse_s": tracer.total_s["jets.inverse"],
        "jets.space_build_s": own["jets.space_build"],
    }
    out = {k: (per_point(v), "s/point") for k, v in out.items()}
    out["jets.self_s"] = (layer_self("jets."), "s/point")
    engine_named = {f"engine.{a}" for a in ENGINE_ATTRS}
    for name in sorted(engine_named):
        out[f"{name}_s"] = (per_point(attributed[name]), "s/point")
    out["engine.other_s"] = (per_point(sum(
        v for k, v in attributed.items()
        if k.startswith("engine.") and k not in engine_named)), "s/point")
    out["engine.self_s"] = (layer_self("engine."), "s/point")
    from finsler import suites
    for name in sorted(suites.SUITES):
        out[f"suites.{name}_s"] = (per_point(own[f"suites.{name}"]),
                                   "s/point")
    out["scalarclass.classify_self_s"] = (
        per_point(own["scalarclass.classify"]), "s/point")
    out["fdpipe.tensors_s"] = (per_point(own["fdpipe.tensors"]), "s/point")
    out["fdpipe.c_form_s"] = (per_point(own["fdpipe.c_form"]), "s/point")
    out["dsl.eval_s"] = (per_point(own["dsl.eval"]), "s/point")
    out["sampling.sample_s"] = (per_point(own["sampling.sample"]), "s/point")
    draws = counts["sampling.draws"]
    out["sampling.accept_ratio"] = (
        counts["sampling.kept"] / draws if draws else 0.0, "ratio")
    out["cli.self_s"] = (per_point(own["cli.main"]), "s/point")
    for name in PER_POINT_COUNTS:
        out[name] = (per_point(counts[name]),
                     COUNT_UNITS.get(name, "count/point"))
    out["trace.op_s"] = (per_point(tracer.total_s["cli.main"]), "s/point")
    out["trace.overhead"] = (overhead, "ratio")
    return out


def run_record(args):
    import numpy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "git_sha": sha,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "blas": blas, "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "finsler" / "cli.py").is_file():
        print(f"perfbench: no finsler source under {SRC}", file=sys.stderr)
        return 2
    # one BLAS/OpenMP thread: the load is one client on a 2-core box; set
    # before numpy is first imported, and inherited by the setup probes
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import finsler
    if Path(finsler.__file__).resolve().parent != (SRC / "finsler").resolve():
        print(f"perfbench: imported finsler from {finsler.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import ops

    if args.workload not in ops.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(ops.WORKLOADS)}", file=sys.stderr)
        return 2
    configs = ops.WORKLOADS[args.workload]()
    run = traced_run if args.trace else untraced_run
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        results, metrics, problems = run(configs, args.seed, args.seconds,
                                         work)
    for result in results:
        print(json.dumps(result.record()))
        if not result.ok:
            print(f"perfbench: op {result.label} (sample seed "
                  f"{result.seed}) failed: {result.reason}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"record": run_record(args)}))
    failed = sum(not r.ok for r in results)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
