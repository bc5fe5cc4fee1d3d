"""Benchmark entry point: ``python3 -m sievebench.run --workload W --seed N --seconds S --trace 0|1``.

Single process, single thread, closed loop: one caller runs a workload's
job list back to back, one pass per fresh worker process, so every
command is paid cold, as a CLI user pays it.  Passes start until
``--seconds`` have gone by, and at least MIN_PASSES run.  The job lists
are shaped so that the median job and the tail percentile fall inside a
group of like jobs whatever the number of passes.

Every end-to-end time is scaled to the host's reference speed: each job
and each set-up probe by the speed loop sampled right before and right
after it (see speed.py).  The unscaled medians go to the details.

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it interleaves untraced and traced
passes and reports the per-layer metrics.  Outputs are checked and
compared across passes after the timed work.  The last line of stdout is
the result object; details, including every job's inputs, go to
``sievebench/out/``.
"""

import argparse
import gzip
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from . import checks, speed, tracer
from .jobs import WORKLOADS, job_list

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 4
SETUP_PROBES = 7
# Past this many seconds no pass starts, so a much slower program still
# ends a run inside three minutes.
HARD_STOP_S = 100.0
WORKER_TIMEOUT_S = 60
TAIL_BEYOND = 10
# The load is single-threaded, so numpy's OpenBLAS gets one thread.  Left
# to itself it starts a pool of nproc threads at import, which takes about
# half of numpy's import time and varies with how soon the host runs the
# other vCPU: set-up read 0.10 s or 0.18 s for minutes at a time.
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}

SETUP_PROBE = """\
import time
from sievebench import speed
before = [speed.sample() for _ in range(3)]
start = time.perf_counter()
import contextlib, io, math, sys
sys.path.insert(0, {src!r})
import sievelab.cli
from sievelab import arith, lattice_points, localdata, numerics, quadforms
with contextlib.redirect_stdout(io.StringIO()):
    sievelab.cli.main(["automorphs", "--form=1,1,-3,0,0,0", "--H", "0"])
form = quadforms.TernaryForm(1, 1, -3)
numerics.integrate(math.exp, 0.0, 1.0)
arith.factorint(30)
localdata.build_local_table(form, 1, "x1", 7)
lattice_points.enumerate_points(form, 1, 3.0)
elapsed = time.perf_counter() - start
import statistics
print(elapsed, statistics.median(before + [speed.sample() for _ in range(3)]))
"""


def setup_probe() -> tuple[float, float]:
    """(seconds, speed-loop seconds) of sievelab's import plus first-call
    set-up, in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE.format(src=str(SRC))], env=ENV,
                          cwd=ROOT, check=True, capture_output=True, text=True, timeout=60)
    seconds, kernel = done.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(kernel)


def scaled(seconds: float, kernel_s: float) -> float:
    """`seconds` at the reference speed of the host (see speed.py)."""
    return seconds * speed.REF_S / kernel_s


def scaled_wall(result: dict) -> float:
    """A pass's wall time, each job scaled by the speed sampled around it."""
    return sum(scaled(r["seconds"], r["kernel_s"]) for r in result["jobs"])


def run_pass(jobs: list[dict], trace: bool, keep_output: bool, keep_spans: bool) -> dict:
    """One pass in a fresh worker process; a crashed worker fails every job."""
    request = json.dumps({"jobs": jobs, "trace": trace, "keep_output": keep_output,
                          "keep_spans": keep_spans})
    try:
        done = subprocess.run([sys.executable, "-m", "sievebench.worker"], input=request,
                              env=ENV, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reason = f"worker timed out after {WORKER_TIMEOUT_S} s"
    else:
        if done.returncode == 0:
            return json.loads(done.stdout)
        reason = f"worker exited with {done.returncode}: {done.stderr.strip()[-300:]}"
    return {"crashed": reason, "wall_s": None, "peak_rss_mb": None,
            "jobs": [{"id": j["id"], "seconds": None, "exit": None, "error": reason,
                      "sha256": None, "output": ""} for j in jobs]}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def judge(jobs: list[dict], passes: list[dict]) -> tuple[dict, list[dict], dict]:
    """Failures per job id and execution counts, from checks and repetition.

    An execution fails when it raised or crashed, exited non-zero, or
    printed other bytes than the first pass did for that job; every
    execution of a job whose first output fails its check fails too.
    """
    first = {r["id"]: r for r in passes[0]["jobs"]}
    reasons: dict[str, list[str]] = {}
    measures: dict[str, dict] = {}
    for job in jobs:
        record = first[job["id"]]
        if record["error"] is None and record["exit"] == 0:
            found, measures[job["id"]] = checks.check(job, record["output"])
            if found:
                reasons[job["id"]] = found
    failed = 0
    executions = []
    for index, result in enumerate(passes):
        for record in result["jobs"]:
            why = list(reasons.get(record["id"], []))
            if record["error"] is not None:
                why.append(record["error"])
            elif record["exit"] != 0:
                why.append(f"exit code {record['exit']}: {record.get('stderr', '')[-200:]}")
            if record["sha256"] != first[record["id"]]["sha256"]:
                why.append(f"output differs from the first pass in pass {index}")
            if why:
                failed += 1
                executions.append({"pass": index, "id": record["id"], "reasons": why})
    return {"attempted": sum(len(p["jobs"]) for p in passes), "failed": failed}, executions, measures


def layer_metrics(names: list[str], traced: list[dict], untraced: list[dict],
                  measures: dict) -> dict[str, float]:
    """Per-layer metrics, each the median over the traced passes."""
    overhead = (statistics.median(scaled_wall(p) for p in traced)
                / statistics.median(scaled_wall(p) for p in untraced) - 1.0)
    accuracy = {
        "sieve_functions.recursion_residual_max": max(
            [m["residual"] for m in measures.values() if "residual" in m], default=0.0),
        "thresholds.crosscheck_max": max(
            [m["crosscheck"] for m in measures.values() if "crosscheck" in m], default=0.0),
    }
    per_pass = []
    for result in traced:
        spans = result["trace"]["spans"]
        modules = tracer.by_module(spans)
        counts = result["trace"]["counts"]
        job_s = result["trace"]["job_s"]

        def stat(name, key):
            return spans.get(name, {}).get(key, 0)

        primes = counts.get("localdata.primes_tabulated", 0)
        points = counts.get("lattice_points.points_found", 0)
        enum_s = stat("lattice_points.enumerate_points", "s")
        derived = {
            "localdata.primes_tabulated": primes,
            "localdata.ms_per_prime": (1000.0 * stat("localdata.build_local_table", "s")
                                       / primes if primes else 0.0),
            "lattice_points.points_found": points,
            "lattice_points.points_per_s": points / enum_s if enum_s else 0.0,
            "trace.overhead_frac": overhead,
            **accuracy,
        }
        values = {}
        for name in names:
            key, field = name.rsplit(".", 1)
            if name in derived:
                values[name] = derived[name]
            elif key in tracer.LAYERS and field == "self_frac":
                values[name] = modules.get(key, {}).get("self_s", 0.0) / job_s
            elif key in tracer.LAYERS:
                values[name] = modules.get(key, {}).get(field, 0)
            elif field in ("calls", "s", "self_s"):
                values[name] = stat(key, field)
            else:
                raise KeyError(f"no rule computes per-layer metric {name}")
        per_pass.append(values)
    return {name: _median([v[name] for v in per_pass]) for name in names}


def _median(values: list) -> float | int:
    """The median; for counts, which repeat exactly, an observed count."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sievebench")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sievelab" / "cli.py").is_file():
        print(f"sievebench: no sievelab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    started = time.monotonic()
    jobs = job_list(args.workload, args.seed)
    # Set-up probes run between passes, so they sample the same stretch of
    # machine time; the first one compiles byte-code and is dropped.  A
    # traced run alternates untraced and traced passes.
    setup = [] if args.trace else [setup_probe()]
    passes = []
    while True:
        elapsed = time.monotonic() - started
        if elapsed >= HARD_STOP_S or not (args.trace and len(passes) % 2
                                           or elapsed < args.seconds
                                           or len(passes) < MIN_PASSES):
            break
        traced = bool(args.trace and len(passes) % 2)
        if not args.trace:
            setup.append(setup_probe())
        passes.append(run_pass(jobs, traced, keep_output=not passes,
                               keep_spans=len(passes) == 1) | {"traced": traced})
    while setup and len(setup) <= SETUP_PROBES:
        setup.append(setup_probe())
    setup = setup[1:]
    measured_s = time.monotonic() - started

    totals, failures, measures = judge(jobs, passes)
    ok = [p for p in passes if "crashed" not in p]
    untraced = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    job_times = [scaled(r["seconds"], r["kernel_s"]) for p in untraced for r in p["jobs"]]
    tail_value, tail_pct = tail(job_times) if job_times else (float("nan"), 0.0)
    detail = {"jobs_attempted": totals["attempted"], "jobs_failed": totals["failed"],
              "failed_frac": totals["failed"] / totals["attempted"],
              "job_count": len(job_times), "job_tail_percentile": tail_pct,
              "passes": len(passes), "measured_s": measured_s}
    if untraced:
        detail |= {"unscaled_wall_s": statistics.median(p["wall_s"] for p in untraced),
                   "unscaled_job_p50_ms": 1000.0 * statistics.median(
                       r["seconds"] for p in untraced for r in p["jobs"]),
                   "kernel_s": statistics.median(
                       r["kernel_s"] for p in untraced for r in p["jobs"])}

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layer_metrics(names, traced, untraced, measures) if traced and untraced else {}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "setup_s": statistics.median(scaled(*probe) for probe in setup),
            "wall_s": statistics.median(scaled_wall(p) for p in untraced),
            "job_p50_ms": 1000.0 * statistics.median(job_times),
            "job_tail_ms": 1000.0 * tail_value,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        } if untraced else {}
    correct = not failures and len(values) == len(names)
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names if n in values}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    first_traced = traced[0] if traced else None
    record = {
        "args": vars(args), "jobs": jobs, "metrics": metrics, "detail": detail,
        "failures": failures, "measures": measures, "setup_s": setup,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": metadata.version("numpy"), "platform": platform.platform()},
        "passes": [{k: v for k, v in p.items() if k not in ("jobs", "trace", "raw_spans")}
                   | {"job_s": {r["id"]: r["seconds"] for r in p["jobs"]},
                      "kernel_s": {r["id"]: r.get("kernel_s") for r in p["jobs"]},
                      "sha256": {r["id"]: r["sha256"] for r in p["jobs"]}}
                   for p in passes],
        "trace": first_traced["trace"] if first_traced else None,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if first_traced and "raw_spans" in first_traced:
        with gzip.open(stem.with_suffix(".spans.jsonl.gz"), "wt") as fh:
            for span in first_traced["raw_spans"]:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({"correct": correct, "attempted": totals["attempted"],
                      "failed": totals["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
