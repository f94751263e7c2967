"""Tests of the benchmark harness itself (not of finsler).

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
from pathlib import Path

import pytest

import ops
import run
import tracer as tracer_mod
from finsler import catalog, cli, jets

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_times_on_synthetic_span_tree():
    # cli.main [0, 10]
    #   engine.A [1, 6]
    #     jets.product [2, 3]
    #     engine.B [3.5, 5]
    #       jets.product [4, 4.5]
    #   suites.s [7, 9]
    tr = tracer_mod.Tracer(clock=FakeClock([0, 1, 2, 3, 3.5, 4, 4.5, 5, 6,
                                            7, 9, 10]))
    tr.enter("cli.main")
    tr.enter("engine.A")
    tr.enter("jets.product")
    tr.exit()
    tr.enter("engine.B")
    tr.enter("jets.product")
    tr.exit()
    tr.exit()
    tr.exit()
    tr.enter("suites.s")
    tr.exit()
    tr.exit()
    assert not tr.stack
    assert tr.self_s == {"cli.main": 3.0, "engine.A": 2.5, "engine.B": 1.0,
                         "jets.product": 1.5, "suites.s": 2.0}
    assert sum(tr.self_s.values()) == tr.total_s["cli.main"] == 10.0
    # engine spans keep the jet products they cause directly, not those
    # of a nested engine span
    assert tr.attributed_s["engine.A"] == 3.5
    assert tr.attributed_s["engine.B"] == 1.5
    assert tr.attributed_s["suites.s"] == 2.0


def test_span_closes_when_the_call_raises():
    tr = tracer_mod.Tracer()

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tr.wrap("jets.product", boom)()
    assert not tr.stack
    assert tr.total_s["jets.product"] >= 0.0


def test_wrong_expected_verdict_is_a_failed_op(tmp_path):
    config = ops.Config("randers_pflat", "classify",
                        {"catalog": "randers_pflat", "dimension": 3}, 1,
                        "fd", verdict="constant")
    result = ops.run_op(config, 0, str(tmp_path))
    assert not result.ok
    assert "verdict 'scalar', expected 'constant'" in result.reason
    assert result.exit_code == cli.EXIT_PASS
    assert len(result.report_sha256) == 64


def test_crash_and_config_error_are_failed_ops(tmp_path, monkeypatch):
    bad = ops.Config("nope", "classify", {"catalog": "nope", "dimension": 3},
                     1, "fd", verdict="constant")
    result = ops.run_op(bad, 0, str(tmp_path))
    assert not result.ok and result.exit_code == cli.EXIT_CONFIG

    def crash(argv):
        raise RuntimeError("crash")

    monkeypatch.setattr(ops.cli, "main", crash)
    good = ops.WORKLOADS["classify-fd-n3"]()[0]
    result = ops.run_op(good, 0, str(tmp_path))
    assert not result.ok and "RuntimeError: crash" in result.reason


def _traced_counts(config, seed, workdir):
    jets.get_space.cache_clear()
    tr = tracer_mod.Tracer()
    with tracer_mod.instrument(tr):
        result = ops.run_op(config, seed, workdir, tr)
    assert result.ok, result.reason
    return dict(tr.counts)


def test_counters_repeat_across_in_process_runs(tmp_path):
    config = ops.Config("euclidean", "verify",
                        {"catalog": "euclidean", "dimension": 2}, 1)
    first = _traced_counts(config, 3, str(tmp_path))
    second = _traced_counts(config, 3, str(tmp_path))
    assert first == second
    assert first["jets.products"] > 0 and first["jets.space_builds"] == 1
    assert first["metric.L_calls_jet"] == 1
    # every patch is undone
    assert jets.jet_einsum.__module__ == "finsler.jets"
    assert jets.Jet.__mul__.__qualname__ == "Jet.__mul__"
    from finsler import engine
    assert engine.jet_einsum is jets.jet_einsum


def test_verify_configs_are_the_default_metric_set():
    built = [cli._build_metric({"metric": c.metric})
             for c in ops.WORKLOADS["verify-n3"]()]
    assert [m.name for m in built] == \
        [m.name for m in catalog.default_metrics(3)]


def test_op_seeds_follow_the_workload_seed():
    a, b = ops.op_seeds(1), ops.op_seeds(1)
    assert [next(a) for _ in range(4)] == [next(b) for _ in range(4)]
    assert next(ops.op_seeds(1)) != next(ops.op_seeds(2))


def test_metrics_are_the_ones_benchmark_json_declares():
    configs = ops.WORKLOADS["classify-fd-n3"]()
    results = [ops.OpResult(c.label, 0, c.samples, 1.0, 0, True)
               for c in configs]
    e2e = run.end_to_end_metrics(results, configs, 0.2, 40.0)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {name: unit for name, (_, unit) in e2e.items()}
    assert e2e["points_per_s"][0] == pytest.approx(
        len(configs) / sum(1.0 / c.samples for c in configs))
    tr = tracer_mod.Tracer()
    tr.counts["sampling.draws"] = 1
    layer = run.layer_metrics(tr, 1, 1.0)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: unit for name, (_, unit) in layer.items()}
    assert {w["name"] for w in SPEC["workloads"]} <= set(ops.WORKLOADS)
