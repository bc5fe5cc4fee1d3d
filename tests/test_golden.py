"""Byte-for-byte golden output of every `sievelab` subcommand and format.

Each case runs `cli.main` on the reference quadric x1^2 + x2^2 - 3 x3^2 = 1
and compares its stdout with `tests/golden/<case>.txt`.  Sizes follow the
README where they are cheap (constants, local --pmax 97, enumerate --R 3,
automorphs --H 3) and are smaller for equidist and census.  Three more
cases run non-diagonal forms at sizes where most slices are solved by
factorization: 1,-2,-1,0,-2,2 at t = -2, whose ellipse centre drifts with
the slice (n_k = 2 + 3 k^2), and -1,2,5,2,0,2 at t = 5, whose slice
lattice has denominator delta = 9.  Two more have an odd middle
coefficient b in the slice frame: 1,-1,5,-1,1,0 at t = -1, whose binary
part is x^2 + xy + 5y^2, and 2,5,-2,1,1,1 at t = 2, with a > 1, delta = 13
and a trend line.  Two equidist cases pin many moduli rather than the 7
of dmax 30: the reference form at dmax 200 (x1x2x3) and the drift form at
dmax 150 with a trend line.

The files are rewritten from the current code by

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.regenerate()"

which should only be run when an output change is intended and stated.
"""

import contextlib
import io
from pathlib import Path

import pytest

from sievelab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

FORM = ["--form", "1,1,-3,0,0,0", "--t", "1"]
LOCAL = ["local", *FORM, "--pmax", "97"]
EQUIDIST = ["equidist", *FORM, "--T", "200", "--dmax", "30"]
CENSUS = ["census", *FORM, "--T", "300", "--r", "6"]
AUTOMORPHS = ["automorphs", "--form", "1,1,-3,0,0,0", "--H", "3"]
DRIFT = ["--form", "1,-2,-1,0,-2,2", "--t", "-2"]
DELTA9 = ["--form=-1,2,5,2,0,2", "--t", "5"]
ODD_B = ["--form", "1,-1,5,-1,1,0", "--t", "-1"]
ODD_B_A2 = ["--form", "2,5,-2,1,1,1", "--t", "2"]

CASES = {
    "constants_text": ["constants", "--mode", "unconditional"],
    "constants_json": ["constants", "--mode", "unconditional", "--output", "json"],
    "constants_csv": ["constants", "--mode", "unconditional", "--output", "csv"],
    "constants_selberg_text": ["constants", "--mode", "selberg"],
    "constants_selberg_json": ["constants", "--mode", "selberg", "--output", "json"],
    "constants_selberg_csv": ["constants", "--mode", "selberg", "--output", "csv"],
    "local_text": LOCAL,
    "local_json": [*LOCAL, "--output", "json"],
    "local_csv": [*LOCAL, "--output", "csv"],
    "local_x1x2_text": [*LOCAL, "--projection", "x1x2"],
    "equidist_text": EQUIDIST,
    "equidist_json": [*EQUIDIST, "--output", "json"],
    "equidist_csv": [*EQUIDIST, "--output", "csv"],
    "equidist_trend_text": [*EQUIDIST, "--trend"],
    "equidist_trend_json": [*EQUIDIST, "--trend", "--output", "json"],
    "census_text": CENSUS,
    "census_json": [*CENSUS, "--output", "json"],
    "census_csv": [*CENSUS, "--output", "csv"],
    "census_x1x2x3_selberg_text": ["census", *FORM, "--T", "300", "--r", "3",
                                   "--projection", "x1x2x3", "--mode", "selberg"],
    "census_drift_x1x2_text": ["census", *DRIFT, "--T", "300", "--r", "2",
                               "--projection", "x1x2"],
    "equidist_drift_x1x2x3_json": ["equidist", *DRIFT, "--T", "200", "--dmax", "30",
                                   "--projection", "x1x2x3", "--output", "json"],
    "census_delta9_x1x2x3_json": ["census", *DELTA9, "--T", "300", "--r", "3",
                                  "--projection", "x1x2x3", "--output", "json"],
    "census_oddb_x1x2x3_json": ["census", *ODD_B, "--T", "300",
                                "--projection", "x1x2x3", "--output", "json"],
    "equidist_oddb_trend_text": ["equidist", *ODD_B_A2, "--T", "200", "--dmax", "30",
                                 "--trend"],
    "equidist_dmax200_x1x2x3_text": ["equidist", *FORM, "--T", "400", "--dmax", "200",
                                     "--projection", "x1x2x3"],
    "equidist_drift_dmax150_trend_json": ["equidist", *DRIFT, "--T", "300",
                                          "--dmax", "150", "--projection", "x1x2",
                                          "--trend", "--output", "json"],
    "enumerate_R3": ["enumerate", *FORM, "--R", "3"],
    "enumerate_T20": ["enumerate", *FORM, "--T", "20"],
    "automorphs_text": AUTOMORPHS,
    "automorphs_json": [*AUTOMORPHS, "--output", "json"],
    "automorphs_csv": [*AUTOMORPHS, "--output", "csv"],
}


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(run(argv)[1])


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    code, out = run(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


def test_out_file_matches_golden(tmp_path):
    target = tmp_path / "local.csv"
    code, out = run([*CASES["local_csv"], "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text() == (GOLDEN / "local_csv.txt").read_text()
