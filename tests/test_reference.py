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
