"""One pass of a job list, run in a fresh process.

Reads ``{"jobs": [...], "trace": bool, "keep_output": bool,
"keep_spans": bool}`` as JSON on stdin and prints one JSON object on
stdout: per-job seconds, exit code, error and output hash, the median
time of the speed loop sampled right before and right after the job, the
pass wall time (the sum of the job times), the process's peak RSS and,
when tracing, the span summary and, if asked, the raw spans.  sievelab is
imported from ``src/`` of the checkout this file lives in, before any
timing starts; the speed loop runs and output is hashed outside the job
timings, so only the jobs themselves are timed.
"""

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import speed
from . import tracer as tracing

SRC = Path(__file__).resolve().parent.parent / "src"
# Samples of the speed loop taken before the first job and after each job.
KERNEL_SAMPLES = 3


def import_sievelab():
    """Import the program under test from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    import sievelab.cli
    if not Path(sievelab.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"sievelab was imported from {sievelab.cli.__file__}, not {SRC}")
    return sys.modules


def run_job(job: dict, modules) -> tuple[str, int, str]:
    """(stdout, exit code, stderr) of one job; library checks exit 0.

    Library functions are looked up through their modules at call time, so
    the tracer's wrappers see every call.
    """
    kind = job["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = modules["sievelab.cli"].main(list(job["argv"]))
            except SystemExit as exc:  # argparse rejects a command line this way
                code = exc.code
        return out.getvalue(), code, err.getvalue()
    sf = modules["sievelab.sieve_functions"]
    if kind == "probe":
        derivative = modules["sievelab.numerics"].derivative_central
        outer, inner = (sf.F_lin, sf.f_lin) if job["fn"] == "F" else (sf.f_lin, sf.F_lin)
        pairs = [[derivative(lambda x: x * outer(x), s, job["h"]), inner(s - 1.0)]
                 for s in job["s"]]
        return json.dumps(pairs), 0, ""
    if kind == "pair":
        th = modules["sievelab.thresholds"]
        a, b, tau = job["a"], job["b"], Fraction(job["tau"])
        linear = th.linear_threshold(a, b, tau)
        general = th.dh_threshold_linear(tau, b / ((b - a) * float(tau)), b / float(tau))
        return json.dumps({"linear": linear, "general": general}), 0, ""
    raise ValueError(f"unknown job kind {kind!r}")


def run_pass(jobs: list[dict], trace: bool, keep_spans: bool = False) -> dict:
    """Run every job once, timing each; trace when asked."""
    modules = import_sievelab()
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    call = tracer.wrap(run_job, "job") if tracer else run_job
    records = []
    kernel = [[speed.sample() for _ in range(KERNEL_SAMPLES)]]
    for job in jobs:
        error, output, code, stderr = None, "", None, ""
        if tracer:
            tracer.job = job["id"]
        start = time.perf_counter()
        try:
            output, code, stderr = call(job, modules)
        except Exception as exc:  # a failing job is counted, the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        kernel.append([speed.sample() for _ in range(KERNEL_SAMPLES)])
        records.append({"id": job["id"], "seconds": seconds, "exit": code,
                        "error": error, "stderr": stderr, "output": output})
    for record, before, after in zip(records, kernel, kernel[1:]):
        record["kernel_s"] = statistics.median(before + after)
        record["sha256"] = hashlib.sha256(record["output"].encode()).hexdigest()
    result = {"wall_s": sum(r["seconds"] for r in records), "jobs": records,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        if keep_spans:
            result["raw_spans"] = tracer.spans
        result["trace"] = {"spans": tracing.summarize(tracer.spans),
                           "span_count": len(tracer.spans),
                           "counts": tracer.counts,
                           "job_s": result["wall_s"]}
    return result


def main() -> int:
    request = json.load(sys.stdin)
    result = run_pass(request["jobs"], request["trace"], request.get("keep_spans", False))
    if not request["keep_output"]:
        for record in result["jobs"]:
            del record["output"]
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
