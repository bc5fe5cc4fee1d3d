"""Tests of the benchmark's own arithmetic, oracles, job lists and span maths.

They run sievelab only on tiny inputs and never run a workload.
"""

import contextlib
import io
import json
import subprocess
import sys

import pytest

from sievebench import arith, checks, jobs, pool, run, speed, tracer


def cli(*argv: str) -> str:
    from sievelab import cli as sievelab_cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert sievelab_cli.main(list(argv)) == 0
    return out.getvalue()


# -- span arithmetic -------------------------------------------------------

SPANS = [
    # name, start, end, parent, job, raised
    ("job", 0.0, 10.0, -1, "j", False),
    ("cli.main", 0.5, 9.5, 0, "j", False),
    ("numerics.integrate", 1.0, 5.0, 1, "j", False),
    ("numerics.integrate", 2.0, 3.0, 2, "j", False),
    ("arith.factorint", 6.0, 7.0, 1, "j", False),
    ("arith.factorint", 7.5, 8.0, 1, "j", True),
]


def test_self_time_on_a_synthetic_tree():
    summary = tracer.summarize(SPANS)
    integrate = summary["numerics.integrate"]
    assert integrate["calls"] == 2
    assert integrate["s"] == pytest.approx(4.0)        # nested call not counted twice
    assert integrate["self_s"] == pytest.approx(4.0)   # (4 - 1) + 1
    assert summary["cli.main"]["self_s"] == pytest.approx(9.0 - 4.0 - 1.0 - 0.5)
    assert summary["job"]["self_s"] == pytest.approx(1.0)
    assert summary["arith.factorint"] == {"calls": 2, "s": pytest.approx(1.5),
                                          "self_s": pytest.approx(1.5), "errors": 1}
    modules = tracer.by_module(summary)
    assert modules["numerics"]["self_s"] == pytest.approx(4.0)
    assert modules["arith"]["errors"] == 1
    total_self = sum(m["self_s"] for m in modules.values())
    assert total_self == pytest.approx(10.0)            # self times partition the job


def test_coverage_merges_overlaps_and_clips():
    assert tracer._covered([(1.0, 3.0), (2.0, 4.0), (5.0, 12.0)], 0.0, 10.0) == pytest.approx(8.0)
    assert tracer._covered([], 0.0, 1.0) == 0.0


def test_wrapper_links_parents_counts_results_and_errors():
    t = tracer.Tracer()

    def inner(n):
        if n < 0:
            raise ValueError(n)
        return list(range(n))

    wrapped_inner = t.wrap(inner, "lattice_points.enumerate_points")
    outer = t.wrap(lambda n: wrapped_inner(n), "cli.main")
    t.job = "j1"
    assert outer(3) == [0, 1, 2]
    with pytest.raises(ValueError):
        outer(-1)
    names = [(s[0], s[3], s[4], s[5]) for s in t.spans]
    assert names == [("cli.main", -1, "j1", False),
                     ("lattice_points.enumerate_points", 0, "j1", False),
                     ("cli.main", -1, "j1", True),
                     ("lattice_points.enumerate_points", 2, "j1", True)]
    assert t.counts == {"lattice_points.points_found": 3}


def test_worker_samples_the_speed_loop_around_each_job_and_roots_spans_at_it():
    request = {"jobs": [{"id": "pair", "kind": "pair", "a": 2.0, "b": 7.5, "tau": "1/4"}],
               "trace": True, "keep_output": False, "keep_spans": True}
    done = subprocess.run([sys.executable, "-m", "sievebench.worker"], input=json.dumps(request),
                          cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=60)
    result = json.loads(done.stdout)
    (record,) = result["jobs"]
    assert record["error"] is None and record["exit"] == 0 and record["kernel_s"] > 0
    assert result["wall_s"] == record["seconds"]
    root, *inner = result["raw_spans"]
    assert root[0] == "job" and root[3] == -1 and inner
    assert all(span[3] >= 0 for span in inner)
    assert run.scaled_wall(result) == pytest.approx(
        record["seconds"] * speed.REF_S / record["kernel_s"])


def test_tail_leaves_ten_values_beyond():
    value, percentile = run.tail([float(v) for v in range(1, 101)])
    assert value == 90.0 and percentile == 90.0


# -- pool and job lists ----------------------------------------------------

def test_pool_entries_meet_the_hypotheses():
    assert len(pool.POOL) >= 20
    assert sum(form.split(",")[3:] != ["0", "0", "0"] for form, _ in pool.POOL) >= 10
    for form, t in pool.POOL + [pool.REFERENCE]:
        assert pool.problems(form, t) == [], (form, t)


def test_pool_verifier_rejects_forms_outside_the_hypotheses():
    assert "form is not certified anisotropic" in pool.problems("1,1,-2,0,0,0", 3)
    assert "form is definite" in pool.problems("1,1,3,0,0,0", 1)
    assert any("not square-free" in p for p in pool.problems("1,1,-3,0,0,0", 3))
    assert any("outside B" in p for p in pool.problems("1,1,-11,0,0,0", 1))
    assert pool.problems("1,1,-3,1,0,0", 1)  # d(f) = -9/4


def test_anisotropy_against_known_forms():
    assert arith.obstructed_places((1, 1, -3, 0, 0, 0)) == [2, 3]
    assert arith.obstructed_places((1, 1, -2, 0, 0, 0)) == []
    assert arith.obstructed_places((1, 1, 1, 0, 0, 0)) != []  # definite: no real zero


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_lists_are_seeded_and_share_no_cache_key(workload):
    a, b = jobs.job_list(workload, 5), jobs.job_list(workload, 6)
    assert a == jobs.job_list(workload, 5)
    assert a != b and len(a) == len(b)
    forms = [checks.options(j["argv"]).get("form") for j in a if j["kind"] == "cli"]
    forms = [f for f in forms if f and f != pool.REFERENCE[0]]
    assert len(forms) == len(set(forms))
    keys = [json.dumps({k: v for k, v in j.items() if k != "id"}, sort_keys=True) for j in a]
    assert len(keys) == len(set(keys))


# -- oracles catch wrong output --------------------------------------------

def _cli_job(*argv):
    return {"kind": "cli", "argv": list(argv)}


def test_local_oracles_catch_a_wrong_count():
    job = _cli_job("local", "--form=-1,2,-3,2,-2,0", "--t=3", "--projection", "x1x2",
                   "--pmax", "31", "--output", "json")
    payload = json.loads(cli(*job["argv"]))
    assert checks.check(job, json.dumps(payload)) == ([], {})
    low = next(e for e in payload["entries"] if e["p"] == 13)
    low["count_V0"] += 1
    assert any("p=13: count_V0" in r for r in checks.check(job, json.dumps(payload))[0])
    low["count_V0"] -= 1
    high = next(e for e in payload["entries"] if e["p"] == 31)  # beyond the O(p^3) oracle
    high["count_V"] += 31
    assert any("p=31: count_V" in r for r in checks.check(job, json.dumps(payload))[0])


def test_enumeration_oracle_catches_missing_and_false_points():
    job = _cli_job("enumerate", "--form=2,-1,-3,2,0,2", "--t=3", "--R", "7")
    output = cli(*job["argv"])
    assert checks.check(job, output) == ([], {})
    lines = output.splitlines()
    assert len(lines) > 3
    missing = "\n".join(lines[:2] + lines[3:]) + "\n"
    assert any("brute-force" in r for r in checks.check(job, missing)[0])
    false_point = "\n".join(lines + ["7,7,7,"]) + "\n"
    assert any("off the quadric" in r for r in checks.check(job, false_point)[0])


def test_weight_check_catches_a_wrong_weight():
    job = _cli_job("enumerate", "--form=1,1,-3,0,0,0", "--t=1", "--T", "10")
    lines = cli(*job["argv"]).splitlines()
    assert checks.check(job, "\n".join(lines) + "\n") == ([], {})
    x1, x2, x3, w = lines[-1].split(",")
    lines[-1] = f"{x1},{x2},{x3},{float(w) + 1e-6!r}"
    assert any("weights differ" in r for r in checks.check(job, "\n".join(lines) + "\n")[0])


def test_baselines_catch_a_different_sequence():
    job = {"baseline": "equidist_T1000", **_cli_job(
        "equidist", "--form=1,1,-3,0,0,0", "--t=1", "--T", "60", "--dmax", "30",
        "--output", "json")}
    reasons = checks.check(job, cli(*job["argv"]))[0]
    assert any("frozen" in r for r in reasons)
    del job["baseline"]
    assert checks.check(job, cli(*job["argv"])) == ([], {})

    job = {"baseline": "census_r6_T2000", **_cli_job(
        "census", "--form=1,1,-3,0,0,0", "--t=1", "--T", "60", "--r", "6", "--output", "json")}
    assert any("frozen" in r for r in checks.check(job, cli(*job["argv"]))[0])


def test_equidist_consistency_catches_a_wrong_residual():
    job = _cli_job("equidist", "--form=1,-2,-5,0,0,0", "--t=1", "--T", "40",
                   "--dmax", "20", "--trend", "--output", "json")
    payload = json.loads(cli(*job["argv"]))
    assert checks.check(job, json.dumps(payload)) == ([], {})
    payload["rows"][2]["R_d"] += 1.0
    assert any("R_d != mass - expected" in r for r in checks.check(job, json.dumps(payload))[0])


def test_automorph_check_catches_a_non_automorph():
    job = _cli_job("automorphs", "--form=1,1,-3,0,0,0", "--H", "2", "--output", "json")
    payload = json.loads(cli(*job["argv"]))
    assert checks.check(job, json.dumps(payload)) == ([], {})
    payload["generators"][-1][0][0] += 1
    assert any("not an automorph" in r for r in checks.check(job, json.dumps(payload))[0])


def test_constants_and_quadrature_checks_catch_failures():
    text = "mode=selberg\nquantity | computed | expected | pass\nI1 | 1 | [0, 2] | NO\noverall: FAIL\n"
    assert len(checks.check(_cli_job("constants", "--mode", "selberg"), text)[0]) == 2
    csv = "name,computed,expected,pass\nI1,1,[0; 2],0\n"
    assert checks.check(_cli_job("constants", "--output", "csv"), csv)[0]
    reasons, measures = checks.check({"kind": "probe"}, json.dumps([[1.0, 1.0 + 2e-3]]))
    assert reasons and measures["residual"] == pytest.approx(2e-3)
    reasons, _ = checks.check({"kind": "pair"}, json.dumps({"linear": 6.0, "general": 6.00001}))
    assert reasons
