"""Reference reports: the command-line runs whose reports are committed
under ``tests/reference/``, how to run one, and how far a rerun may
drift from its reference.

``test_reference.py`` reruns every run and compares it with its
reference.  A reference changes only when it is regenerated, all at
once, by running this file from the repository root::

    PYTHONPATH=src python tests/refgate.py

``PYTHONPATH=src python tests/refgate.py drift`` writes nothing: it
reruns every run and prints each one whose record is not byte-identical
to its reference, with its worst float drift, and a summary line.

``PYTHONPATH=src python tests/refgate.py digest`` writes nothing either:
it reruns every run and prints the sha256 of each record (exit code,
standard output, standard error and report), then one digest of them
all, so two commits can be compared byte for byte.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from finsler.cli import main

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# the fixture set of catalog.default_metrics(3), in its order
METRICS = {
    "euclidean": {"catalog": "euclidean", "dimension": 3},
    "space_form_pos": {"catalog": "riemannian_space_form", "dimension": 3,
                       "params": {"kappa": 1.0}},
    "space_form_neg": {"catalog": "riemannian_space_form", "dimension": 3,
                       "params": {"kappa": -1.0}},
    "funk": {"catalog": "funk", "dimension": 3},
    "randers_pflat": {"catalog": "randers_pflat", "dimension": 3},
    "perturbed_riemannian": {"catalog": "perturbed_riemannian",
                             "dimension": 3, "params": {"seed": 0}},
}
# the Randers metric of demos/04_dsl_and_cli.py
DSL_RANDERS = {
    "dsl": "sqrt(norm2(y)) + b * dot(x, y) / sqrt(1 + b^2 * norm2(x))",
    "dimension": 3, "name": "randers-dsl", "constants": {"b": 0.3},
}
SEEDS = (0, 7)
SUITE_SETS = {"all": "all", "lemma21": ["lemma21"],
              "bianchi+theorem21": ["bianchi", "theorem21"]}


def _config(metric, seed, **extra):
    return dict({"metric": metric, "sampling": {"count": 2, "seed": seed}},
                **extra)


def runs():
    """{run id: (subcommand, backend, config)} for every reference run."""
    out = {}
    for label, metric in METRICS.items():
        for seed in SEEDS:
            for key, suites in SUITE_SETS.items():
                out[f"verify-{label}-s{seed}-{key}"] = (
                    "verify", "jet", _config(metric, seed, suites=suites))
    fd_metrics = dict(METRICS, randers_dsl=DSL_RANDERS)
    for backend, metrics in (("jet", METRICS), ("fd", fd_metrics)):
        for command in ("classify", "tensors"):
            for label, metric in metrics.items():
                for seed in SEEDS:
                    out[f"{command}-{backend}-{label}-s{seed}"] = (
                        command, backend, _config(metric, seed))
    # the config of acceptance test 9 (determinism)
    out["verify-acceptance9"] = ("verify", "jet", {
        "metric": {"catalog": "funk", "dimension": 3},
        "sampling": {"count": 5, "seed": 115},
        "suites": "all",
    })
    return out


def run(command, backend, config):
    """One in-process CLI run: its exit code, standard output, standard
    error and report lines (parsed)."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        report = Path(tmp) / "report.jsonl"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(report),
                         "--backend", backend])
        lines = report.read_text().splitlines() if report.exists() else []
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "report": [json.loads(line) for line in lines]}


# ---------------------------------------------------------------------------
# bounds

JET_BOUND = 1e-12

# FD output is a difference quotient of L, so it amplifies the rounding
# of L: a relative change u = 1.1e-16 in the values of L moves an m-th
# difference at step h by about u / h^m, times (4 * 2^m + 1) / 3 for the
# Richardson level.  With the steps of finsler.fdpipe (h = 1e-3 at the
# metric level, 20 h for the second differences of the spray, 1e-2 for
# the plain difference of k that gives C) the drift estimates are
#   g, G:        5.7 u / h^2                       6.3e-10
#   N:           3 * 6.3e-10 / h                   1.9e-6
#   Rhat, H, k:  5.7 * 6.3e-10 / (20 h)^2          9.0e-6
#   C:           9.0e-6 / (2 * 1e-2)               4.5e-4
# and each bound is ten times its estimate, rounded up.  Giving every
# value of L a random relative error of 1e-16 moves these reference runs
# by at most 1.1e-9, 7.9e-7, 3.5e-6 and 2.3e-5.  The classify report
# reads k_mean, k_std and the isotropy residual off k and H, and |C| off C.
FD_BOUNDS = {"L": JET_BOUND, "g": 1e-8, "G": 1e-8, "N": 2e-5,
             "Rhat": 1e-4, "H": 1e-4, "k": 1e-4, "k_mean": 1e-4,
             "k_std": 1e-4, "max_isotropy_residual": 1e-4,
             "C": 5e-3, "max_C_norm": 5e-3}


def bound(backend, path):
    """Largest |drift| / max(1, |reference|) a float at ``path`` (its
    keys from the report line down) may show."""
    if backend == "fd":
        for key in reversed(path):
            if key in FD_BOUNDS:
                return FD_BOUNDS[key]
    return JET_BOUND


def differences(backend, ref, new, path=()):
    """Every way ``new`` differs from ``ref`` beyond its bound: types,
    keys, lengths, strings, integers and booleans exactly; floats within
    the bound of their path."""
    if type(ref) is not type(new):
        return [f"{path}: {type(new).__name__} != "
                f"{type(ref).__name__} in the reference"]
    if isinstance(ref, dict):
        if sorted(ref) != sorted(new):
            return [f"{path}: keys {sorted(new)} != {sorted(ref)}"]
        return [d for key in ref
                for d in differences(backend, ref[key], new[key],
                                     path + (key,))]
    if isinstance(ref, list):
        if len(ref) != len(new):
            return [f"{path}: length {len(new)} != {len(ref)}"]
        return [d for i, (r, v) in enumerate(zip(ref, new))
                for d in differences(backend, r, v, path + (i,))]
    if isinstance(ref, float):
        b = bound(backend, path)
        if not abs(new - ref) <= b * max(1.0, abs(ref)):
            return [f"{path}: {new!r} != {ref!r} (bound {b:g})"]
        return []
    return [] if new == ref else [f"{path}: {new!r} != {ref!r}"]


_NUMBER = re.compile(r"-?\d+\.\d+")


def text_differences(ref, new):
    """A printed text with its decimals masked must match exactly; each
    decimal may move by one unit of its last printed digit."""
    if _NUMBER.sub("#", ref) != _NUMBER.sub("#", new):
        return [f"text {new!r} != {ref!r}"]
    out = []
    for r, v in zip(_NUMBER.findall(ref), _NUMBER.findall(new)):
        unit = 10.0 ** -len(r.split(".")[1])
        if abs(float(v) - float(r)) > unit * 1.0001:
            out.append(f"printed {v} != {r}")
    return out


def _path(run_id):
    return REFERENCE_DIR / f"{run_id}.json"


def load(run_id):
    return json.loads(_path(run_id).read_text())


def _record(command, backend, config):
    """The text of a reference file for one run."""
    record = {"command": command, "backend": backend, "config": config}
    record.update(run(command, backend, config))
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def regenerate():
    REFERENCE_DIR.mkdir(exist_ok=True)
    for old in REFERENCE_DIR.glob("*.json"):
        old.unlink()
    for run_id, (command, backend, config) in runs().items():
        _path(run_id).write_text(_record(command, backend, config))
    print(f"wrote {len(runs())} reference reports to {REFERENCE_DIR}",
          file=sys.stderr)


def float_drifts(backend, ref, new, path=()):
    """(drift, bound) of each float of ``new`` that has a float at the
    same place in ``ref``; the drift is |new - ref| / max(1, |ref|)."""
    if isinstance(ref, dict) and isinstance(new, dict):
        for key in ref.keys() & new.keys():
            yield from float_drifts(backend, ref[key], new[key], path + (key,))
    elif isinstance(ref, list) and isinstance(new, list):
        for i, (r, v) in enumerate(zip(ref, new)):
            yield from float_drifts(backend, r, v, path + (i,))
    elif isinstance(ref, float) and isinstance(new, float):
        yield abs(new - ref) / max(1.0, abs(ref)), bound(backend, path)


def drift():
    """Rerun every run, write nothing, and print how far each report
    that is not byte-identical to its reference moved."""
    all_runs = runs()
    identical, worst_jet = 0, 0.0
    for run_id, (command, backend, config) in all_runs.items():
        text = _record(command, backend, config)
        if text == _path(run_id).read_text():
            identical += 1
            continue
        drifts = list(float_drifts(backend, load(run_id)["report"],
                                   json.loads(text)["report"]))
        worst, b = max(drifts, key=lambda d: d[0] / d[1], default=(0.0, 1.0))
        print(f"{run_id}: worst float drift {worst:.2g} (bound {b:g})")
        if backend == "jet":
            worst_jet = max([worst_jet] + [d for d, _ in drifts])
    print(f"{identical} of {len(all_runs)} byte-identical; worst jet drift "
          f"{worst_jet:.2g} (bound {JET_BOUND:g})")


def digest():
    """Rerun every run, write nothing, and print the sha256 of each
    record and a combined digest of those lines."""
    combined = hashlib.sha256()
    for run_id, (command, backend, config) in runs().items():
        text = _record(command, backend, config)
        line = f"{run_id} {hashlib.sha256(text.encode()).hexdigest()}\n"
        print(line, end="")
        combined.update(line.encode())
    print(f"combined {combined.hexdigest()}")


if __name__ == "__main__":
    if sys.argv[1:] == ["drift"]:
        drift()
    elif sys.argv[1:] == ["digest"]:
        digest()
    elif sys.argv[1:]:
        sys.exit("usage: refgate.py [drift | digest]")
    else:
        regenerate()
