"""What `sievebench` needs of `sievelab`, run as the benchmark runs it.

The benchmark's set-up probe imports `sievelab.numerics` and calls
`integrate`, its probe jobs call `numerics.derivative_central`, and its
tracer wraps every layer module named in `sievebench.tracer.LAYERS`.  Both
calls below start fresh interpreters, as a benchmark run does.
"""

from sievebench import checks
from sievebench.jobs import job_list
from sievebench.run import run_pass, setup_probe


def test_setup_probe_runs():
    seconds, kernel_s = setup_probe()  # raises if the probe exits non-zero
    assert seconds > 0.0 and kernel_s > 0.0


def test_traced_constants_pass_checks_clean():
    jobs = job_list("constants", 1)
    result = run_pass(jobs, trace=True, keep_output=True, keep_spans=False)
    assert "crashed" not in result
    records = {record["id"]: record for record in result["jobs"]}
    assert [record["error"] for record in records.values()] == [None] * len(jobs)
    assert {record["exit"] for record in records.values()} == {0}
    faults = {job["id"]: checks.check(job, records[job["id"]]["output"])[0] for job in jobs}
    assert {id_: found for id_, found in faults.items() if found} == {}
    assert result["trace"]["spans"]["numerics.derivative_central"]["calls"] > 0
    assert result["trace"]["spans"]["numerics.integrate"]["calls"] > 0
