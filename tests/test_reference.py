"""Reference-report gate: every run of ``refgate.runs()`` still gives its
committed reference report (``tests/reference/``), up to the float bounds
of ``refgate``.  Exit codes, standard error, verdicts, pass flags and the
report schema must match exactly."""

import pytest

import refgate

RUNS = refgate.runs()


def test_every_reference_has_a_run():
    on_disk = {p.stem for p in refgate.REFERENCE_DIR.glob("*.json")}
    assert on_disk == set(RUNS)


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_matches_reference(run_id):
    command, backend, config = RUNS[run_id]
    ref = refgate.load(run_id)
    assert (ref["command"], ref["backend"], ref["config"]) == \
        (command, backend, config)
    new = refgate.run(command, backend, config)
    assert new["exit"] == ref["exit"]
    assert new["stderr"] == ref["stderr"]
    problems = refgate.text_differences(ref["stdout"], new["stdout"])
    problems += refgate.differences(backend, ref["report"], new["report"])
    assert not problems, "\n".join(problems[:20])


def test_drift_names_a_removed_record():
    """drift pairs verify records by (suite, identity, sample): a report
    with one record fewer drifts by nothing and names the record it
    lost, where pairing by place read unrelated residuals against each
    other."""
    ref = refgate.load("verify-perturbed_riemannian-s7-all")["report"]
    gone = ref[1]
    new = [line for line in ref if line is not gone]
    by_place = max(d for d, _ in refgate.float_drifts("jet", ref, new))
    lines, worst = refgate.report_drift("run", "jet", ref, new)
    print(f"one record removed: drift {worst} by key, {by_place:.2g} by "
          "place")
    assert by_place > 1e-12 and worst == 0.0
    assert lines == [
        "run: worst float drift 0 (bound 1e-12)",
        f"run: removed record {gone['suite']}.{gone['identity']} sample "
        f"{gone['sample']}"]
