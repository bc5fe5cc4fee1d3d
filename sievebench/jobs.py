"""Seeded job lists, one per workload.

A job is one CLI command or one library check; a pass runs a workload's
job list once, in a fresh process.  The seed picks forms from the pool,
output formats and where inside each stratum a size or an abscissa falls.
Sizes are stratified, with a few percent of seeded jitter, so that the
cost of a pass hardly depends on the seed while no two seeds share inputs.
Within one job list no (form, t) is used twice except by the two
reference jobs of ``points``, whose sizes differ, so no cache that lives
for one process can serve one job from another's work.
"""

import random

from .pool import POOL, REFERENCE

WORKLOADS = ("constants", "local", "points")
PROJECTIONS = ("x1", "x1x2", "x1x2x3")

# constants: probes of the F/f recursion in every window of F on (3, 7) and
# of f on (2, 8), and window pairs (a, b) with 1 <= a < 3 < a + 5 < b <= 8
# on a grid of A_STRATA x B_STRATA cells.  Adaptive quadrature cost jumps
# with the panel count: jitter of 10% of a cell moved some pairs' panel
# counts by a third, 2% by under 2%, so seeded points stay that close to
# the centre of their strata.
F_WINDOWS = ((3.0, 5.0), (5.0, 7.0))
f_WINDOWS = ((2.0, 4.0), (4.0, 6.0), (6.0, 8.0))
PROBES_PER_WINDOW = 4
PROBE_STEP = 1e-4
A_STRATA, B_STRATA = 3, 2
TAUS = ("25/128", "1/4")
STRATUM_SPREAD = 0.02

# local: every projection at each of three p_max strata, nine jobs, so the
# median job and the tail each fall inside one stratum's group of jobs.
PMAX_STRATA = (100, 175, 250)
PMAX_JITTER = 3

# points: relative jitter of T around each slot's base value.
T_JITTER = 0.02


def _stratum_point(rng: random.Random, lo: float, hi: float, i: int, k: int) -> float:
    """Seeded point near the centre of the i-th of k equal strata of (lo, hi)."""
    return lo + (hi - lo) * (i + 0.5 + rng.uniform(-STRATUM_SPREAD, STRATUM_SPREAD)) / k


def _jitter(rng: random.Random, base: float) -> str:
    return str(round(base * (1.0 + rng.uniform(-T_JITTER, T_JITTER)), 1))


def _constants(rng: random.Random) -> list[dict]:
    jobs = [{"kind": "cli", "argv": ["constants", "--mode", mode,
                                     "--output", rng.choice(("text", "json", "csv"))]}
            for mode in ("unconditional", "selberg")]
    for fn, windows in (("F", F_WINDOWS), ("f", f_WINDOWS)):
        for lo, hi in windows:
            jobs.append({"kind": "probe", "fn": fn, "h": PROBE_STEP, "s": [
                _stratum_point(rng, lo, hi, i, PROBES_PER_WINDOW)
                for i in range(PROBES_PER_WINDOW)]})
    for i in range(A_STRATA):
        for j in range(B_STRATA):
            a = _stratum_point(rng, 1.0, 3.0, i, A_STRATA)
            b = 8.0 - (3.0 - a) * _stratum_point(rng, 0.0, 1.0, j, B_STRATA)
            jobs.append({"kind": "pair", "a": a, "b": b, "tau": TAUS[(i + j) % 2]})
    return jobs


def _local(rng: random.Random) -> list[dict]:
    slots = [(pmax, projection) for pmax in PMAX_STRATA for projection in PROJECTIONS]
    jobs = []
    for (form, t), (pmax, projection) in zip(rng.sample(POOL, len(slots)), slots):
        pmax += rng.randint(-PMAX_JITTER, PMAX_JITTER)
        jobs.append({"kind": "cli", "argv": [
            "local", f"--form={form}", f"--t={t}", "--projection", projection,
            "--pmax", str(pmax), "--output", "json"]})
    return jobs


def _points(rng: random.Random) -> list[dict]:
    """Nine jobs; four cost clearly less and four clearly more than the fixed
    reference job at T = 1000, so the median job is always that one."""
    ref_form, ref_t = REFERENCE
    forms = iter(rng.sample(POOL, 7))

    def form_args():
        form, t = next(forms)
        return [f"--form={form}", f"--t={t}"]

    return [
        {"kind": "cli", "argv": ["automorphs", f"--form={next(forms)[0]}",
                                 "--H", str(rng.randint(3, 6)), "--output", "json"]},
        {"kind": "cli", "argv": ["enumerate", *form_args(), "--R", str(rng.randint(16, 24))]},
        {"kind": "cli", "argv": ["enumerate", *form_args(), "--T", _jitter(rng, 450)]},
        {"kind": "cli", "argv": ["census", *form_args(), "--T", _jitter(rng, 550),
                                 "--projection", "x1", "--r", str(rng.randint(1, 6)),
                                 "--output", "json"]},
        {"kind": "cli", "baseline": "equidist_T1000", "argv": [
            "equidist", f"--form={ref_form}", f"--t={ref_t}", "--T", "1000",
            "--dmax", "30", "--output", "json"]},
        {"kind": "cli", "argv": ["census", *form_args(), "--T", _jitter(rng, 1500),
                                 "--projection", "x1x2x3", "--r", str(rng.randint(1, 6)),
                                 "--output", "json"]},
        {"kind": "cli", "argv": ["equidist", *form_args(), "--T", _jitter(rng, 1500),
                                 "--projection", rng.choice(PROJECTIONS),
                                 "--dmax", str(rng.randint(20, 40)), "--output", "json"]},
        {"kind": "cli", "argv": ["equidist", *form_args(), "--T", _jitter(rng, 600),
                                 "--projection", rng.choice(PROJECTIONS),
                                 "--dmax", str(rng.randint(20, 40)), "--trend",
                                 "--output", "json"]},
        {"kind": "cli", "baseline": "census_r6_T2000", "argv": [
            "census", f"--form={ref_form}", f"--t={ref_t}", "--T", "2000",
            "--r", "6", "--output", "json"]},
    ]


def job_list(workload: str, seed: int) -> list[dict]:
    """The fixed job list of one pass of `workload` for `seed`, with ids."""
    make = {"constants": _constants, "local": _local, "points": _points}[workload]
    jobs = make(random.Random(f"{workload}:{seed}"))
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}-{i:02d}"
    return jobs
