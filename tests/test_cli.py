"""Command-line interface: subcommands, exit codes, report formats,
and byte-level determinism."""

import json
from pathlib import Path

import pytest

import finsler
from finsler import cli
from finsler.cli import main


RANDERS_B = "sqrt(norm2(y)) + b * dot(x, y)"


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

    @pytest.mark.parametrize("dsl,message", [
        ("2", "not positively homogeneous"),
        ("0", "could not draw 1 valid sample points"),
    ], ids=["constant-L", "zero-L"])
    def test_dsl_without_variables_exit3(self, tmp_path, capsys, dsl,
                                         message):
        """A constant L is caught as a typed error: 2 is not homogeneous,
        0 is homogeneous but has no point with L > 0."""
        cfg = write_config(tmp_path, "c.json", {
            "metric": {"dsl": dsl, "dimension": 3},
            "sampling": {"count": 1},
        })
        assert main(["classify", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_dsl_overflow_exit3(self, tmp_path, capsys):
        """An L whose jet overflows to inf is one typed error line, also
        with RuntimeWarning as an error: no homogeneity check on inf, and
        no traceback."""
        cfg = write_config(tmp_path, "o.json", {
            "metric": {"dsl": "sqrt(norm2(y)) * 1e200 * 1e200",
                       "dimension": 3},
            "sampling": {"count": 2},
        })
        assert main(["verify", "--config", cfg]) == 3
        assert capsys.readouterr().err == (
            "error: non-finite result (in "
            "'sqrt(norm2(y)) * 1e+200 * 1e+200')\n")

    @pytest.mark.parametrize("metric,sampling,reason", [
        ({"dsl": "-sqrt(norm2(y))", "dimension": 3}, {"count": 1},
         "L <= 0: 200"),
        ({"catalog": "funk", "dimension": 3}, {"count": 1, "radius": 50},
         "outside domain: 200"),
    ], ids=["negative-L", "radius-past-domain"])
    def test_sampling_error_counts_rejections(self, tmp_path, capsys,
                                              metric, sampling, reason):
        """The sampling error names why the draws were rejected, not only
        the domain."""
        cfg = write_config(tmp_path, "c.json", {
            "metric": metric, "sampling": sampling,
        })
        assert main(["classify", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: could not draw 1 valid sample points")
        assert f"rejected draws by reason: {reason}\n" in err

    def test_fd_stencils_past_the_domain_exit3(self, tmp_path, capsys):
        """A sample point near funk's boundary whose FD stencils leave the
        ball: one error line naming the sample point, not a stencil
        point or a traceback, and a report without records."""
        cfg = write_config(tmp_path, "edge.json", {
            "metric": {"catalog": "funk", "dimension": 3},
            "sampling": {"seed": 0, "radius": 0.999},
        })
        out = str(tmp_path / "t.jsonl")
        assert main(["tensors", "--config", cfg, "--backend", "fd",
                     "--out", out]) == 3
        err = capsys.readouterr().err
        assert read_jsonl(out) == []
        metric = finsler.build_catalog_metric("funk", 3)
        fd = finsler.FDPipeline(metric)

        def leaves(p):
            try:
                fd.tensors(p)
                fd.c_form(p)
            except finsler.DomainError:
                return True
            return False

        bad = next(p for p in finsler.sample_points(
            metric, finsler.SamplingSpec(20, 0, 0.999)) if leaves(p))
        assert err.startswith(f"error: FD stencils at x={bad.x.tolist()}, "
                              f"y={bad.y.tolist()} reach x=")
        assert "Traceback" not in err and err.count("\n") == 1


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

    @pytest.mark.parametrize("catalog,verdict", [
        ("randers_pflat", "scalar"), ("funk", "constant")])
    def test_one_sample(self, tmp_path, capsys, catalog, verdict):
        """One sample has no k spread to witness constancy, so only C
        decides."""
        cfg = write_config(tmp_path, "c.json", {
            "metric": {"catalog": catalog, "dimension": 3},
            "sampling": {"count": 1, "seed": 0},
        })
        assert main(["classify", "--config", cfg, "--backend", "jet"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith(f"{catalog}: {verdict} ")

    @pytest.mark.parametrize("existing", [None, b"an earlier report\n"],
                             ids=["absent", "existing"])
    def test_dimension_two_leaves_report(self, tmp_path, capsys, existing):
        """The dimension rule runs before the report is opened: no report
        is created, and an existing one is left as it was."""
        cfg = write_config(tmp_path, "d2.json", {
            "metric": {"catalog": "funk", "dimension": 2}})
        out = tmp_path / "r.jsonl"
        if existing is not None:
            out.write_bytes(existing)
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: classification requires dimension n >= 3, got 2\n")
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing

    def test_euclidean_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json", {
            "metric": {"catalog": "euclidean", "dimension": 3},
            "sampling": {"count": 2, "seed": 0},
        })
        assert main(["classify", "--config", cfg]) == 0
        assert "euclidean: constant (k=0.0000±0.0000)" in \
            capsys.readouterr().out


class TestParser:
    """main builds its parser once per process; a parse leaves nothing
    behind, so a bad call or one with options changes no later run."""

    def test_reused_parser_changes_no_report(self, tmp_path, funk_cfg):
        def reports():
            got = []
            for command in ("verify", "classify"):
                out = tmp_path / f"{command}.jsonl"
                assert main([command, "--config", funk_cfg,
                             "--out", str(out)]) == 0
                got.append(out.read_bytes())
            return got

        before = reports()
        for bad in (["verify"], ["nope", "--config", funk_cfg],
                    ["classify", "--config", funk_cfg, "--samples", "two"],
                    ["verify", "--config", funk_cfg, "--backend", "gpu"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
        out = str(tmp_path / "other.jsonl")
        assert main(["classify", "--config", funk_cfg, "--out", out,
                     "--samples", "2", "--seed", "7", "--backend", "fd"]) == 0
        assert reports() == before
        assert cli.make_parser() is cli.make_parser()


class TestConfigValidation:
    def test_missing_file(self, capsys):
        assert main(["verify", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("content", [
        b'{"sampling": {"seed": ' + b"9" * 5000 + b"}}", b'{"name": "\xff"}',
    ], ids=["integer-too-long", "not-utf8"])
    def test_unreadable_config_error(self, tmp_path, capsys, content):
        """JSON that json.load cannot read, however it fails, is a config
        error."""
        path = tmp_path / "c.json"
        path.write_bytes(content)
        assert main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: malformed")

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
        {"metric": {"catalog": "riemannian_space_form", "dimension": 3},
         "sampling": {"count": 1, "radius": 1e308}},
        {"metric": {"catalog": "riemannian_space_form", "dimension": 3},
         "sampling": {"count": 1, "radius": 1e200}},
        {"sampling": {"count": 1, "radius": 10 ** 400}},
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
        {"tolerances": {"default": 10 ** 400}},
        {"metric": {"catalog": "riemannian_space_form", "dimension": 3,
                    "params": {"kappa": 10 ** 400}}},
        {"suites": [["lemma21"]]},
        {"metric": {"catalog": ["funk"], "dimension": 3}},
        {"metric": {"catalog": {"funk": 1}, "dimension": 3}},
        {"metric": {"dsl": 5, "dimension": 3}},
        {"metric": {"dsl": RANDERS_B, "dimension": 3,
                    "constants": {"b": "x"}}},
        {"metric": {"dsl": RANDERS_B, "dimension": 3,
                    "constants": {"b": None}}},
        {"metric": {"dsl": RANDERS_B, "dimension": 3,
                    "constants": {"b": 10 ** 400}}},
        {"metric": {"dsl": RANDERS_B, "dimension": 3,
                    "constants": {"b": True}}},
        {"metric": {"dsl": RANDERS_B, "dimension": 3, "constants": "b"}},
        {"metric": {"dsl": "sqrt(norm2(y))", "dimension": 3, "name": 5}},
        {"output": ["r.jsonl"]},
        {"output": True},
        {"output": 1},
        {"suite": ["lemma21"]},
        {"metric": {"catalog": "funk", "dimension": 3, "parms": {"x": 1}}},
        {"sampling": {"cout": 2, "seed": 0}},
        {"note": float("nan")},
        {"metric": {"catalog": "funk", "dimension": 3,
                    "constants": {"b": float("nan")}}},
    ], ids=["seed-string", "seed-float", "seed-negative", "count-bool",
            "radius-bool", "radius-infinity", "radius-1e308",
            "radius-square-overflow", "radius-huge-int", "tolerance-bool",
            "unknown-param", "tolerance-infinity", "suite-tolerance-infinity",
            "param-kappa-string", "param-kappa-bool", "param-kappa-nan",
            "param-seed-string", "param-seed-bool", "param-seed-float",
            "param-seed-negative", "param-eps-string", "tolerance-huge-int",
            "kappa-huge-int", "suite-list", "catalog-list", "catalog-object",
            "dsl-number", "constant-string", "constant-null",
            "constant-huge-int", "constant-bool", "constants-string",
            "name-number", "output-list", "output-bool", "output-int",
            "config-key-misspelled", "metric-key-misspelled",
            "sampling-key-misspelled", "nan-unknown-key",
            "nan-unread-constant"])
    def test_bad_value_config_error(self, tmp_path, capsys, change):
        cfg = {"metric": {"catalog": "funk", "dimension": 3},
               "sampling": {"count": 1, "seed": 0}}
        cfg.update(change)
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["verify", "--config", path]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_default_sample_count(self):
        """A config without a count takes SamplingSpec's default, 20."""
        args = cli.make_parser().parse_args(["verify", "--config", "c"])
        assert cli._sampling({}, args) == finsler.SamplingSpec()
        assert finsler.SamplingSpec().count == 20

    @pytest.mark.parametrize("change, key", [
        ({"suite": ["lemma21"]}, "suite"),
        ({"metric": {"catalog": "funk", "parms": {"x": 1}}}, "parms"),
        ({"sampling": {"cout": 2}}, "cout"),
    ], ids=["config", "metric", "sampling"])
    def test_unknown_key_named(self, tmp_path, capsys, change, key):
        """A key that nothing reads is a config error naming it and the
        keys its object takes, not silently ignored."""
        cfg = {"metric": {"catalog": "funk"}, "sampling": {"count": 1}}
        cfg.update(change)
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["verify", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown ")
        assert f"key {key!r}; known: [" in err and err.count("\n") == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_json_constants(self, tmp_path, capsys, value):
        """json.load reads NaN and Infinity, which JSON does not allow: the
        config is malformed even where a flag overrides the value."""
        path = write_config(tmp_path, "c.json", {
            "metric": {"catalog": "funk"}, "sampling": {"count": value}})
        assert main(["verify", "--config", path, "--samples", "1"]) == 2
        token = json.dumps(value)
        assert capsys.readouterr().err == (
            f"config error: malformed config {path}: {token} is not a JSON "
            "value\n")

    @pytest.mark.parametrize("via", ["--out", "output"])
    def test_unwritable_report_config_error(self, tmp_path, capsys, via):
        path = str(tmp_path / "missing" / "r.jsonl")
        cfg = {"metric": {"catalog": "funk", "dimension": 3},
               "sampling": {"count": 1, "seed": 0}}
        argv = ["--out", path] if via == "--out" else []
        if via == "output":
            cfg["output"] = path
        config = write_config(tmp_path, "c.json", cfg)
        assert main(["tensors", "--config", config] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write report {path}")

    @pytest.mark.parametrize("command", ["tensors", "verify", "classify"])
    def test_unwritable_report_before_work(self, tmp_path, capsys,
                                           monkeypatch, command):
        """The report path is opened before any point is sampled."""
        def work(*args, **kwargs):
            raise AssertionError("sampled before the report path was opened")

        monkeypatch.setattr(cli, "sample_points", work)
        monkeypatch.setattr(cli, "classify", work)
        path = str(tmp_path / "missing" / "r.jsonl")
        config = write_config(tmp_path, "c.json", {
            "metric": {"catalog": "funk", "dimension": 3}})
        assert main([command, "--config", config, "--out", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write report {path}")

    def test_deep_dsl_config_error(self, tmp_path, capsys):
        """An expression nested past the parser's bound is a config error,
        not a RecursionError."""
        cfg = write_config(tmp_path, "c.json", {"metric": {
            "dsl": "(" * 400 + "y1" + ")" * 400, "dimension": 3}})
        assert main(["tensors", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "nested deeper" in err

    @pytest.mark.parametrize("key,code", [("bianchy", 2), ("bianchi", 1)],
                             ids=["misspelled-suite", "suite"])
    def test_tolerance_keys(self, tmp_path, capsys, key, code):
        """A tolerance key names a suite or 'default'; a misspelled key is
        a config error, not silently the default."""
        path = write_config(tmp_path, "c.json", {
            "metric": {"catalog": "funk", "dimension": 3},
            "sampling": {"count": 1, "seed": 0},
            "suites": ["bianchi"], "tolerances": {key: 1e-30},
        })
        assert main(["verify", "--config", path]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("config error:") and repr(key) in err

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
