"""Output checks, run on each distinct job output outside the timed region.

``check(job, output)`` returns the reasons the output is wrong (empty
when it is right) and the accuracy measures it read.  JSON is checked
field by field, and keys the checks do not know are allowed.  The oracles
are the benchmark's own (``arith``) and never sievelab's.
"""

import json
import math
import re
from fractions import Fraction

from . import arith
from .pool import coefficients

# Frozen baselines for the reference quadric x1^2 + x2^2 - 3 x3^2 = 1,
# c0 = 2, projection x1.  Copied from tests/test_lattice_points.py at
# commit 3649d41, where they were frozen from the first run verified
# against the exhaustive enumeration oracle.
X_T1000 = 5391.305969887667
RD_T1000 = {11: -66.12532672476084, 13: -77.48045140597105, 17: -59.220103214681046}
LEVEL_D30_T1000 = 1549.8575366154707
X_T2000 = 10929.629927237653
CENSUS_R6_T2000 = (10929.629927237653, 17306)
BASELINE_TOL = 1e-9

# Criteria 7 and 6 of tests/test_acceptance.py: the F/f recursion
# residual, and the gap between the two threshold routes.
RESIDUAL_TOL = 1e-3
CROSSCHECK_TOL = 1e-6

ORACLE_PMAX = 23
PUBLISHED_R = {"x1": 6, "x1x2": 16, "x1x2x3": 26}
KAPPA = {"x1": 1, "x1x2": 2, "x1x2x3": 3}
TREND = re.compile(r"trend: mean \|R_d\|/X (\S+) -> (\S+) on T -> 2T: (ok|GREW)$")


def options(argv: list[str]) -> dict:
    """``--key value`` and ``--key=value`` pairs of a command line; flags map to True."""
    out, i = {}, 1
    while i < len(argv):
        key = argv[i][2:]
        if "=" in key:
            key, value = key.split("=", 1)
            out[key] = value
            i += 1
        elif i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check(job: dict, output: str) -> tuple[list[str], dict]:
    """(reasons the output is wrong, accuracy measures) for one job."""
    try:
        if job["kind"] == "probe":
            return _probe(output)
        if job["kind"] == "pair":
            return _pair(output)
        command = job["argv"][0]
        opts = options(job["argv"])
        if command == "constants":
            return _constants(opts, output), {}
        if command == "enumerate":
            return _enumerate(opts, output), {}
        payload = json.loads(output)
        return {"local": _local, "equidist": _equidist, "census": _census,
                "automorphs": _automorphs}[command](opts, payload, job), {}
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}


def _probe(output: str):
    residual = max(abs(lhs - rhs) for lhs, rhs in json.loads(output))
    reasons = [] if residual <= RESIDUAL_TOL else [
        f"recursion residual {residual:.3g} exceeds {RESIDUAL_TOL}"]
    return reasons, {"residual": residual}


def _pair(output: str):
    values = json.loads(output)
    gap = abs(values["linear"] - values["general"])
    reasons = [] if gap <= CROSSCHECK_TOL else [
        f"threshold routes differ by {gap:.3g} (> {CROSSCHECK_TOL})"]
    return reasons, {"crosscheck": gap}


def _constants(opts: dict, output: str) -> list[str]:
    fmt = opts.get("output", "text")
    if fmt == "json":
        payload = json.loads(output)
        failing = [row["name"] for row in payload["rows"] if row["pass"] is not True]
        reasons = [f"row fails: {name}" for name in failing]
        if payload["all_pass"] is not True:
            reasons.append("all_pass is not true")
        if payload["mode"] != opts["mode"]:
            reasons.append(f"mode {payload['mode']} != {opts['mode']}")
        return reasons
    lines = output.rstrip("\n").splitlines()
    if fmt == "csv":
        if lines[0] != "name,computed,expected,pass":
            return [f"csv header {lines[0]!r}"]
        return [f"row fails: {line}" for line in lines[1:] if not line.endswith(",1")]
    reasons = [] if lines[-1] == "overall: pass" else [f"last line {lines[-1]!r}"]
    return reasons + [f"row fails: {line}" for line in lines[2:-1] if line.endswith("| NO")]


def _local(opts: dict, payload: dict, job: dict) -> list[str]:
    c, t, variant = coefficients(opts["form"]), int(opts["t"]), opts["projection"]
    pmax = int(opts["pmax"])
    dt = int(arith.det(c)) * t
    reasons = []
    if payload["findings"]:
        reasons.append(f"findings: {payload['findings']}")
    entries = payload["entries"]
    primes = arith.primes_up_to(pmax)
    if [e["p"] for e in entries] != primes:
        return reasons + ["tabulated primes are not exactly the primes <= pmax"]
    bad = []
    for e in entries:
        p, n, n0 = e["p"], e["count_V"], e["count_V0"]
        if e["is_bad"] != (n0 == n):
            reasons.append(f"p={p}: is_bad disagrees with the counts")
        if e["is_bad"]:
            bad.append(p)
        omega = Fraction(0) if (p in arith.BAD_SET or n0 == n) else Fraction(n0, n)
        if e["omega"] != f"{omega.numerator}/{omega.denominator}":
            reasons.append(f"p={p}: omega {e['omega']} != {omega}")
        good = p != 2 and dt % p != 0
        if e["cassels_agree"] is not (True if good else None):
            reasons.append(f"p={p}: cassels_agree is {e['cassels_agree']}")
        if good and n != p * p + arith.legendre(-dt, p) * p:
            reasons.append(f"p={p}: count_V {n} != p^2 + (-dt|p) p")
        if p <= ORACLE_PMAX:
            if n != arith.count_mod_p(c, t, p):
                reasons.append(f"p={p}: count_V {n} != brute-force count")
            if n0 != arith.count_mod_p(c, t, p, variant):
                reasons.append(f"p={p}: count_V0 {n0} != brute-force count")
    if payload["bad_primes"] != bad or not set(bad) <= arith.BAD_SET:
        reasons.append(f"bad primes {payload['bad_primes']} (counted {bad})")
    return reasons


def _squarefree_coprime(d: int) -> bool:
    f = arith.factor(d)
    return all(e == 1 for e in f.values()) and not set(f) & arith.BAD_SET


def _equidist(opts: dict, payload: dict, job: dict) -> list[str]:
    reasons = []
    x = payload["X"]
    dmax = int(opts.get("dmax", 30))
    projection = opts.get("projection", "x1")
    rows = payload["rows"]
    moduli = [1] + [d for d in range(2, dmax + 1) if _squarefree_coprime(d)]
    if [r["d"] for r in rows] != moduli or not x > 1:
        return [f"moduli {[r['d'] for r in rows]} or X = {x} malformed"]
    for r in rows:
        if not _close(r["R_d"], r["mass"] - r["expected"], 1e-9 * x):
            reasons.append(f"d={r['d']}: R_d != mass - expected")
        if not _close(r["R_d_over_X"], r["R_d"] / x, 1e-12):
            reasons.append(f"d={r['d']}: R_d/X inconsistent")
    if rows[0]["R_d"] != 0.0 or not _close(rows[0]["mass"], x, 1e-9 * x):
        reasons.append("d=1 row is not (X, X, 0)")
    level = math.fsum(4 ** len(arith.factor(r["d"])) * abs(r["R_d"])
                      for r in rows if 1 < r["d"] < dmax)
    if not _close(payload["level_statistic"], level, 1e-9 * max(1.0, level)):
        reasons.append(f"level statistic {payload['level_statistic']} != {level}")
    reference = x / math.log(x) ** (KAPPA[projection] + 1)
    if not _close(payload["reference_X_log"], reference, 1e-9 * reference):
        reasons.append("reference_X_log != X / log^(kappa+1) X")
    trend = payload.get("trend")
    if bool(trend) != bool(opts.get("trend")):
        reasons.append(f"trend line {'missing' if not trend else 'unexpected'}")
    elif trend:
        match = TREND.match(trend)
        mean1 = math.fsum(abs(r["R_d"]) / x for r in rows[1:]) / (len(rows) - 1)
        if not match or not _close(float(match[1]), mean1, 1e-9 * mean1):
            reasons.append(f"trend line {trend!r} disagrees with the rows")
        elif (match[3] == "GREW") != (float(match[2]) > 2.0 * float(match[1])):
            reasons.append(f"trend verdict {match[3]} disagrees with its means")
    if job.get("baseline") == "equidist_T1000":
        if not _close(x, X_T1000, BASELINE_TOL):
            reasons.append(f"X = {x!r} != frozen {X_T1000!r}")
        by_d = {r["d"]: r["R_d"] for r in rows}
        for d, expected in RD_T1000.items():
            if not _close(by_d[d], expected, BASELINE_TOL):
                reasons.append(f"R_{d} = {by_d[d]!r} != frozen {expected!r}")
        if not _close(payload["level_statistic"], LEVEL_D30_T1000, BASELINE_TOL):
            reasons.append(f"level statistic != frozen {LEVEL_D30_T1000!r}")
    return reasons


def _census(opts: dict, payload: dict, job: dict) -> list[str]:
    reasons = []
    x, weighted, raw = payload["X"], payload["weighted"], payload["raw_count"]
    projection = opts.get("projection", "x1")
    if not (x > 0 and 0.0 <= weighted <= x * (1 + 1e-12)):
        reasons.append(f"weighted {weighted} outside [0, X = {x}]")
    if not (isinstance(raw, int) and raw >= 0):
        reasons.append(f"raw_count {raw!r} is not a count")
    if not _close(payload["ratio"], weighted / x, 1e-12):
        reasons.append("ratio != weighted / X")
    if payload["published_r"] != PUBLISHED_R[projection] or payload["r"] != int(opts["r"]):
        reasons.append("published_r or r does not match the command")
    if job.get("baseline") == "census_r6_T2000":
        if not (_close(weighted, CENSUS_R6_T2000[0], BASELINE_TOL)
                and raw == CENSUS_R6_T2000[1] and _close(x, X_T2000, BASELINE_TOL)):
            reasons.append(f"census ({weighted!r}, {raw}, X={x!r}) != frozen "
                           f"{CENSUS_R6_T2000} with X={X_T2000!r}")
    return reasons


def weight(x, T: float, c0: float) -> float:
    """The radial C^2 cutoff F_T of the paper, written independently."""
    r = math.sqrt(sum(float(v) ** 2 for v in x))
    lo, hi = T / c0, c0 * T
    if r <= lo:
        return 1.0
    if r >= hi:
        return 0.0
    s = (r - lo) / (hi - lo)
    return 1.0 - s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)


def _enumerate(opts: dict, output: str) -> list[str]:
    c, t = coefficients(opts["form"]), int(opts["t"])
    lines = output.rstrip("\n").split("\n")
    if lines[0] != "x1,x2,x3,weight":
        return [f"csv header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    points = [tuple(int(v) for v in row[:3]) for row in rows]
    c0 = float(opts.get("c0", 2.0))
    T = float(opts["T"]) if "T" in opts else None
    radius = float(opts["R"]) if "R" in opts else c0 * T
    reasons = []
    if any(a >= b for a, b in zip(points, points[1:])):
        reasons.append("points are not strictly increasing")
    wrong = [p for p in points
             if arith.eval_form(c, p) != t or sum(v * v for v in p) > radius * radius]
    if wrong:
        reasons.append(f"{len(wrong)} listed points are off the quadric or outside the ball, e.g. {wrong[0]}")
    if T is None:
        if any(row[3] for row in rows):
            reasons.append("weights given without --T")
        if points != arith.points_in_ball(c, t, radius):
            reasons.append("point list differs from the brute-force oracle")
    else:
        off = [p for p, row in zip(points, rows)
               if not _close(float(row[3]), weight(p, T, c0), 1e-9)]
        if off:
            reasons.append(f"{len(off)} weights differ from F_T, e.g. at {off[0]}")
    return reasons


def _automorphs(opts: dict, payload: dict, job: dict) -> list[str]:
    c = coefficients(opts["form"])
    height = int(opts["H"])
    g2 = [[2 * c[0], c[3], c[4]], [c[3], 2 * c[1], c[5]], [c[4], c[5], 2 * c[2]]]
    gens = payload["generators"]
    reasons = []
    if payload["count"] != len(gens):
        reasons.append("count != number of generators")
    if [[1, 0, 0], [0, 1, 0], [0, 0, 1]] not in gens:
        reasons.append("identity missing")
    if any(a >= b for a, b in zip(gens, gens[1:])):
        reasons.append("generators are not strictly increasing")
    for m in gens:
        mt_g_m = [[sum(m[k][i] * g2[k][l] * m[l][j] for k in range(3) for l in range(3))
                   for j in range(3)] for i in range(3)]
        d = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
             - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
             + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if mt_g_m != g2 or d != 1 or max(abs(v) for row in m for v in row) > height:
            reasons.append(f"{m} is not an automorph of height <= {height} with det 1")
    return reasons
