"""What `sievebench` needs of `sievelab`, run as the benchmark runs it.

The benchmark's set-up probe imports `sievelab.numerics` and calls
`integrate`, its probe jobs call `numerics.derivative_central`, and its
tracer wraps every layer module named in `sievebench.tracer.LAYERS`.  One
traced pass of each workload's seed-1 job list runs through the
benchmark's own output checks.  Every call below starts a fresh
interpreter, as a benchmark run does.
"""

import pytest

from sievebench import checks
from sievebench.jobs import WORKLOADS, job_list
from sievebench.run import run_pass, setup_probe


def test_setup_probe_runs():
    seconds, kernel_s = setup_probe()  # raises if the probe exits non-zero
    assert seconds > 0.0 and kernel_s > 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_checks_clean(workload):
    jobs = job_list(workload, 1)
    result = run_pass(jobs, trace=True, keep_output=True, keep_spans=False)
    assert "crashed" not in result
    records = {record["id"]: record for record in result["jobs"]}
    assert [record["error"] for record in records.values()] == [None] * len(jobs)
    assert {record["exit"] for record in records.values()} == {0}
    faults = {job["id"]: checks.check(job, records[job["id"]]["output"])[0] for job in jobs}
    assert {id_: found for id_, found in faults.items() if found} == {}
    if workload == "constants":
        assert result["trace"]["spans"]["numerics.derivative_central"]["calls"] > 0
        assert result["trace"]["spans"]["numerics.integrate"]["calls"] > 0
