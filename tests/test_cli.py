"""Command-line interface: subcommands, exit codes, report formats,
and byte-level determinism."""

import json
from pathlib import Path

import pytest

import finsler
from finsler.cli import main


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


@pytest.fixture
def funk_cfg(tmp_path):
    return write_config(tmp_path, "funk.json", {
        "metric": {"catalog": "funk", "dimension": 3},
        "sampling": {"count": 3, "seed": 1},
        "suites": ["bianchi", "theorem21"],
    })


class TestTensors:
    def test_euclidean_all_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json", {
            "metric": {"catalog": "euclidean", "dimension": 3},
            "sampling": {"count": 1, "seed": 0},
        })
        out = str(tmp_path / "r.jsonl")
        assert main(["tensors", "--config", cfg, "--out", out]) == 0
        header, record = read_jsonl(out)
        assert header["command"] == "tensors"
        for block in ("G", "N", "Gamma", "Rhat", "H", "C", "B", "A"):
            flat = json.dumps(record[block])
            assert "e-" in flat or set(flat) <= set("[],. 0")  # all ~0
        assert record["k"] == 0.0

    def test_funk_k_column(self, tmp_path, funk_cfg):
        out = str(tmp_path / "r.jsonl")
        assert main(["tensors", "--config", funk_cfg, "--out", out,
                     "--samples", "5"]) == 0
        records = read_jsonl(out)[1:]
        assert len(records) == 5
        for rec in records:
            assert rec["k"] == pytest.approx(-0.25, abs=1e-10)

    def test_homogeneity_rejection_exit3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {
            "metric": {"dsl": "norm2(y)", "dimension": 3},
        })
        assert main(["tensors", "--config", cfg]) == 3
        assert "homogeneous" in capsys.readouterr().err


class TestVerify:
    def test_funk_passes(self, tmp_path, funk_cfg):
        out = str(tmp_path / "r.jsonl")
        assert main(["verify", "--config", funk_cfg, "--out", out]) == 0
        lines = read_jsonl(out)
        assert lines[0]["command"] == "verify"
        assert lines[0]["version"] == finsler.__version__
        body, summary = lines[1:-1], lines[-1]
        assert all(rec["pass"] for rec in body)
        assert summary["summary"] == "max_residual_per_identity"

    def test_negative_control_fails_but_universal_passes(self, tmp_path):
        cfg = write_config(tmp_path, "p.json", {
            "metric": {"catalog": "perturbed_riemannian", "dimension": 3,
                       "params": {"seed": 0}},
            "sampling": {"count": 3, "seed": 2},
            "suites": ["bianchi", "theorem21"],
        })
        out = str(tmp_path / "r.jsonl")
        assert main(["verify", "--config", cfg, "--out", out]) == 1
        body = [r for r in read_jsonl(out) if "suite" in r]
        assert all(r["pass"] for r in body if r["suite"] == "bianchi")
        assert any(not r["pass"] for r in body
                   if r["suite"] == "theorem21")

    def test_empty_suites_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "metric": {"catalog": "funk", "dimension": 3},
            "suites": [],
        })
        assert main(["verify", "--config", cfg]) == 2

    def test_unknown_suite_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "metric": {"catalog": "funk", "dimension": 3},
            "suites": ["nope"],
        })
        assert main(["verify", "--config", cfg]) == 2

    def test_deterministic_reports(self, tmp_path, funk_cfg):
        out1 = str(tmp_path / "r1.jsonl")
        out2 = str(tmp_path / "r2.jsonl")
        assert main(["verify", "--config", funk_cfg, "--out", out1]) == 0
        assert main(["verify", "--config", funk_cfg, "--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()


class TestClassify:
    def test_funk_line(self, tmp_path, funk_cfg, capsys):
        out = str(tmp_path / "r.jsonl")
        assert main(["classify", "--config", funk_cfg,
                     "--out", out]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed.startswith("funk: constant (k=-0.2500")
        report = read_jsonl(out)[1]
        assert report["verdict"] == "constant"

    def test_randers_scalar(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "r.json", {
            "metric": {"catalog": "randers_pflat", "dimension": 3},
            "sampling": {"count": 4, "seed": 3},
        })
        assert main(["classify", "--config", cfg]) == 0
        printed = capsys.readouterr().out
        assert "randers_pflat: scalar" in printed
        assert "nonconstant" in printed

    def test_euclidean_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json", {
            "metric": {"catalog": "euclidean", "dimension": 3},
            "sampling": {"count": 2, "seed": 0},
        })
        assert main(["classify", "--config", cfg]) == 0
        assert "euclidean: constant (k=0.0000±0.0000)" in \
            capsys.readouterr().out


class TestConfigValidation:
    def test_missing_file(self, capsys):
        assert main(["verify", "--config", "/nonexistent.json"]) == 2

    def test_both_metric_sources(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "metric": {"catalog": "funk", "dsl": "sqrt(norm2(y))",
                       "dimension": 3},
        })
        assert main(["tensors", "--config", cfg]) == 2

    def test_unknown_catalog_key(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "metric": {"catalog": "hilbert", "dimension": 3},
        })
        assert main(["tensors", "--config", cfg]) == 2

    def test_dsl_syntax_error_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "metric": {"dsl": "sqrt(", "dimension": 3},
        })
        assert main(["tensors", "--config", cfg]) == 2

    def test_bad_sample_count(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "metric": {"catalog": "funk", "dimension": 3},
            "sampling": {"count": 0},
        })
        assert main(["tensors", "--config", cfg]) == 2

    @pytest.mark.parametrize("change", [
        {"sampling": {"count": 1, "seed": "abc"}},
        {"sampling": {"count": 1, "seed": 1.5}},
        {"sampling": {"count": 1, "seed": -1}},
        {"sampling": {"count": True}},
        {"sampling": {"count": 1, "radius": True}},
        {"sampling": {"count": 1, "radius": float("inf")}},
        {"tolerances": {"default": True}},
        {"metric": {"catalog": "funk", "dimension": 3,
                    "params": {"kappa": 1}}},
        {"tolerances": {"default": float("inf")}},
        {"tolerances": {"theorem21": float("inf")}},
        {"metric": {"catalog": "riemannian_space_form", "dimension": 3,
                    "params": {"kappa": "x"}}},
        {"metric": {"catalog": "riemannian_space_form", "dimension": 3,
                    "params": {"kappa": True}}},
        {"metric": {"catalog": "riemannian_space_form", "dimension": 3,
                    "params": {"kappa": float("nan")}}},
        {"metric": {"catalog": "perturbed_riemannian", "dimension": 3,
                    "params": {"seed": "abc"}}},
        {"metric": {"catalog": "perturbed_riemannian", "dimension": 3,
                    "params": {"seed": True}}},
        {"metric": {"catalog": "perturbed_riemannian", "dimension": 3,
                    "params": {"seed": 1.5}}},
        {"metric": {"catalog": "perturbed_riemannian", "dimension": 3,
                    "params": {"seed": -1}}},
        {"metric": {"catalog": "perturbed_riemannian", "dimension": 3,
                    "params": {"eps": "0.3"}}},
    ], ids=["seed-string", "seed-float", "seed-negative", "count-bool",
            "radius-bool", "radius-infinity", "tolerance-bool",
            "unknown-param", "tolerance-infinity", "suite-tolerance-infinity",
            "param-kappa-string", "param-kappa-bool", "param-kappa-nan",
            "param-seed-string", "param-seed-bool", "param-seed-float",
            "param-seed-negative", "param-eps-string"])
    def test_bad_value_config_error(self, tmp_path, capsys, change):
        cfg = {"metric": {"catalog": "funk", "dimension": 3},
               "sampling": {"count": 1, "seed": 0}}
        cfg.update(change)
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["verify", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_fd_backend_tensors(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "metric": {"catalog": "funk", "dimension": 3},
            "sampling": {"count": 1, "seed": 5},
            "backend": "fd",
        })
        out = str(tmp_path / "r.jsonl")
        assert main(["tensors", "--config", cfg, "--out", out]) == 0
        record = read_jsonl(out)[1]
        assert record["k"] == pytest.approx(-0.25, abs=1e-3)
