"""Command-line front end.

Subcommands:

    constants   recompute the threshold constants and compare to expectations
    local       local counts, densities and bad primes for a form mod p
    equidist    weighted-sequence residuals R_d and the level statistic
    census      almost-prime census of a weighted sequence
    enumerate   integer points on f = t in a ball, as CSV
    automorphs  integral automorphs of a form by bounded search

Each subcommand computes its data once and returns its exit code with one
view per output format it supports: text lines, a JSON payload, or a CSV
header and rows.  `_emit` builds only the requested view and writes it.
`_json` lays out the JSON view from the C encoder, byte for byte as
`json.dumps(indent=2, sort_keys=True)`, its oracle in tests/test_cli.py.
equidist's rows, level statistic and trend come from one `residual_Rd`
call per sequence.

Flags mirror an optional key=value config file (--config); explicit flags
win.  All floating point output uses 10 significant digits and runs are
fully deterministic, so identical configs produce byte-identical output.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error.
"""

import argparse
import json
import math
import sys
from itertools import chain

from .errors import SieveLabError
from .lattice_points import (build_sequence, census, enumerate_points, find_automorphs,
                             level_statistic, residual_Rd, weight_FT)
from .localdata import SIEVED, VARIANTS, build_local_table
from .quadforms import TernaryForm, det_form
from .thresholds import reproduce_constants

# Published almost-prime orders by projection and theta mode.
_PUBLISHED_R = {
    "x1": {"unconditional": 6, "selberg": 5},
    "x1x2": {"unconditional": 16, "selberg": 14},
    "x1x2x3": {"unconditional": 26, "selberg": 22},
}

# Config-file values accepted for an on/off flag such as --trend.
_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}


def _parse_inputs(args) -> None:
    """Parse --form in place and check the inputs the subcommands share.

    argparse `choices` already restrict projection, mode and output.  The
    finiteness check runs last, so every input an earlier check rejects
    keeps its message; NaN gets past the comparisons before it.
    """
    args.form = TernaryForm.from_string(args.form) if getattr(args, "form", None) else None
    if getattr(args, "t", None) == 0:
        raise SieveLabError("t must be a nonzero integer")
    if getattr(args, "T", None) is not None and args.T < 10:
        raise SieveLabError("T must be >= 10")
    if getattr(args, "c0", 2.0) <= 1:
        raise SieveLabError("c0 must exceed 1")
    if args.form is not None and det_form(args.form) == 0:
        raise SieveLabError("form is degenerate (zero determinant)")
    if getattr(args, "dmax", 2) < 2:
        raise SieveLabError(f"--dmax must be >= 2, got {args.dmax}")
    if getattr(args, "dmax", 2) > 10 ** 4:
        raise SieveLabError(f"--dmax must be <= 10^4, got {args.dmax}")
    if getattr(args, "r", 0) < 0:
        raise SieveLabError(f"--r must be >= 0, got {args.r}")
    for name in ("T", "c0", "R"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise SieveLabError(f"{name} must be finite, got {value}")


def _emit(args, views: dict) -> None:
    """Build the requested view and write it to --out or stdout, line by line.

    A view is a zero-argument function returning text lines ("text"), a
    JSON-ready payload with str keys ("json", see `_json`) or a CSV header
    line and an iterable of rows ("csv"), each row written as it comes.
    """
    kind = getattr(args, "output", None) or next(iter(views))
    data = views[kind]()
    if kind == "json":
        lines = [_json(data)]
    elif kind == "csv":
        header, rows = data
        lines = chain([header], (",".join(map(str, row)) for row in rows))
    else:
        lines = data
    fh = open(args.out, "w") if args.out else sys.stdout
    try:
        fh.writelines(line + "\n" for line in lines)
    finally:
        if args.out:
            fh.close()


# C-coded encoders by item separator, one per indent level of `_json`.
_ENCODERS: dict[str, json.JSONEncoder] = {}


def _json(data, pad: str = "\n") -> str:
    """`json.dumps(data, indent=2, sort_keys=True)` byte for byte, str keys only.

    pad is the newline and indent before data's closing bracket.  Scalars,
    and containers of scalars and empty containers, take one C-encoder call
    whose item separator carries the indent; nested containers recurse.
    """
    inner = pad + "  "
    enc = _ENCODERS.get(inner) or _ENCODERS.setdefault(
        inner, json.JSONEncoder(separators=("," + inner, ": "), sort_keys=True))
    if not data or not isinstance(data, (list, tuple, dict)):
        return enc.encode(data)
    for v in data.values() if isinstance(data, dict) else data:
        if isinstance(v, (list, tuple, dict)) and v:
            break
    else:
        flat = enc.encode(data)
        return flat[0] + inner + flat[1:-1] + pad + flat[-1]
    if isinstance(data, dict):
        parts = [f"{enc.encode(k)}: {_json(data[k], inner)}" for k in sorted(data)]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    return "[" + inner + ("," + inner).join([_json(v, inner) for v in data]) + pad + "]"


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def cmd_constants(args) -> tuple[int, dict]:
    report = reproduce_constants(args.mode)
    rows = report.rows

    def as_text():
        width = max(len(r.name) for r in rows)
        return [f"mode={report.mode}  theta={report.theta}  tau={report.tau}",
                f"{'quantity'.ljust(width)} | {'computed'.ljust(24)} | "
                f"{'expected'.ljust(28)} | pass",
                *(f"{r.name.ljust(width)} | {r.computed.ljust(24)} | "
                  f"{r.expected.ljust(28)} | {'yes' if r.passed else 'NO'}"
                  for r in rows),
                f"overall: {'pass' if report.all_pass else 'FAIL'}"]

    def as_json():
        return {"mode": report.mode, "theta": str(report.theta),
                "tau": str(report.tau), "all_pass": report.all_pass,
                "rows": [{"name": r.name, "computed": r.computed,
                          "expected": r.expected, "pass": r.passed} for r in rows]}

    def as_csv():
        return "name,computed,expected,pass", [
            (r.name.replace(",", ";"), r.computed, r.expected.replace(",", ";"),
             int(r.passed)) for r in rows]

    return (0 if report.all_pass else 1), {"text": as_text, "json": as_json, "csv": as_csv}


def cmd_local(args) -> tuple[int, dict]:
    if args.form is None or args.t is None:
        raise SieveLabError("local requires --form and --t")
    table = build_local_table(args.form, args.t, args.projection, args.pmax)
    entries = [table.entries[p] for p in sorted(table.entries)]
    bad = sorted(table.bad_primes)

    def as_text():
        lines = [f"form {args.form.to_string()}  t={args.t}  variant={args.projection}",
                 "p | count_V | count_V0 | omega(p)/p | bad | cassels_agree"]
        for e in entries:
            agree = "-" if e.cassels_agree is None else ("yes" if e.cassels_agree else "NO")
            lines.append(f"{e.p} | {e.count_V} | {e.count_V0} | "
                         f"{e.omega_over_p.numerator}/{e.omega_over_p.denominator} | "
                         f"{'yes' if e.is_bad else 'no'} | {agree}")
        lines.append(f"bad primes <= {args.pmax}: {bad if bad else 'none'}")
        lines.extend(f"finding: {s}" for s in table.findings)
        lines.append(f"note: {table.caveat}")
        return lines

    def as_json():
        return {
            "form": args.form.to_string(), "t": args.t, "variant": args.projection,
            "bad_primes": bad, "findings": table.findings,
            "caveat": table.caveat,
            "entries": [{
                "p": e.p, "count_V": e.count_V, "count_V0": e.count_V0,
                "omega": f"{e.omega_over_p.numerator}/{e.omega_over_p.denominator}",
                "is_bad": e.is_bad, "cassels_agree": e.cassels_agree,
            } for e in entries],
        }

    def as_csv():
        return "p,count_V,count_V0,omega_num,omega_den,is_bad,cassels_agree", [
            (e.p, e.count_V, e.count_V0, e.omega_over_p.numerator,
             e.omega_over_p.denominator, int(e.is_bad),
             "" if e.cassels_agree is None else int(e.cassels_agree))
            for e in entries]

    return (1 if table.findings else 0), {"text": as_text, "json": as_json, "csv": as_csv}


def cmd_equidist(args) -> tuple[int, dict]:
    if args.form is None or args.t is None or args.T is None:
        raise SieveLabError("equidist requires --form, --t and --T")
    table = build_local_table(args.form, args.t, args.projection,
                              max(7, args.dmax))
    # the CSV view has no trend line, so it needs no 2T sequence
    Ts = [args.T, 2 * args.T] if args.trend and args.output != "csv" else [args.T]
    seq, *doubled = build_sequence(args.form, args.t, Ts, args.c0, args.projection)
    _require_mass(seq, args)

    rows = residual_Rd(seq, table, args.dmax)
    stat = level_statistic(rows, float(args.dmax))
    kappa = len(SIEVED[args.projection])
    ref = seq.X / math.log(seq.X) ** (kappa + 1)

    trend = []
    if doubled:
        mean1 = _mean_ratio(rows, seq.X)
        mean2 = _mean_ratio(residual_Rd(doubled[0], table, args.dmax), doubled[0].X)
        grew = mean2 > 2.0 * mean1
        trend = [f"trend: mean |R_d|/X {_fmt(mean1)} -> {_fmt(mean2)} "
                 f"on T -> 2T: {'GREW' if grew else 'ok'}"]

    def cells():
        return [(str(d), *map(_fmt, (m, e, r, r / seq.X))) for d, _, m, e, r in rows]

    def as_text():
        return [f"form {args.form.to_string()}  t={args.t}  T={_fmt(args.T)}  "
                f"projection={args.projection}  X={_fmt(seq.X)}",
                "d | |A_d| | omega(d)/d * X | R_d | R_d/X",
                *(" | ".join(row) for row in cells()),
                f"level statistic (d < {args.dmax}): {_fmt(stat)}",
                f"X / log^{kappa + 1} X: {_fmt(ref)}",
                *trend]

    def as_json():
        return {
            "form": args.form.to_string(), "t": args.t, "T": args.T,
            "projection": args.projection, "X": seq.X,
            "rows": [{"d": d, "mass": m, "expected": e, "R_d": r, "R_d_over_X": r / seq.X}
                     for d, _, m, e, r in rows],
            "level_statistic": stat, "reference_X_log": ref,
            **({"trend": trend[0]} if trend else {}),
        }

    def as_csv():
        return "d,mass,expected,R_d,R_d_over_X", cells()

    return 0, {"text": as_text, "json": as_json, "csv": as_csv}


def _require_mass(seq, args) -> None:
    """Refuse a sequence with X = 0: no ratio to X means anything."""
    if not seq.X:
        raise SieveLabError("no point with a nonzero projection lies within "
                            f"c0*T = {_fmt(args.c0 * args.T)}, so X = 0")


def _mean_ratio(rows, X: float) -> float:
    """Mean of |R_d|/X over the `residual_Rd` rows with d > 1."""
    vals = [abs(r / X) for d, *_, r in rows if d > 1]
    return sum(vals) / len(vals) if vals else 0.0


def cmd_census(args) -> tuple[int, dict]:
    if args.form is None or args.t is None or args.T is None:
        raise SieveLabError("census requires --form, --t and --T")
    [seq] = build_sequence(args.form, args.t, [args.T], args.c0, args.projection)
    _require_mass(seq, args)
    weighted, raw = census(seq, args.r)
    ratio = weighted / seq.X
    published = _PUBLISHED_R[args.projection][args.mode]

    def as_text():
        return [f"form {args.form.to_string()}  t={args.t}  T={_fmt(args.T)}  "
                f"projection={args.projection}",
                f"census(r={args.r}): weighted {_fmt(weighted)}  raw {raw}",
                f"X = {_fmt(seq.X)}  census/X = {_fmt(ratio)}",
                f"published r for {args.projection} ({args.mode} mode): {published}"]

    def as_json():
        return {"form": args.form.to_string(), "t": args.t, "T": args.T,
                "projection": args.projection, "r": args.r, "X": seq.X,
                "weighted": weighted, "raw_count": raw, "ratio": ratio,
                "published_r": published, "mode": args.mode}

    def as_csv():
        return "r,weighted,raw_count,X,ratio", [
            (args.r, _fmt(weighted), raw, _fmt(seq.X), _fmt(ratio))]

    return 0, {"text": as_text, "json": as_json, "csv": as_csv}


def cmd_enumerate(args) -> tuple[int, dict]:
    if args.form is None or args.t is None:
        raise SieveLabError("enumerate requires --form and --t")
    radius = args.R
    if radius is None:
        if args.T is None:
            raise SieveLabError("enumerate requires --R (or --T with --c0)")
        radius = args.c0 * args.T
    points = enumerate_points(args.form, args.t, radius)

    def as_csv():
        return "x1,x2,x3,weight", (
            (*x, "" if args.T is None else _fmt(weight_FT(x, args.T, args.c0)))
            for x in points)

    return 0, {"csv": as_csv}


def cmd_automorphs(args) -> tuple[int, dict]:
    if args.form is None:
        raise SieveLabError("automorphs requires --form")
    gens = find_automorphs(args.form, args.H)

    def as_text():
        return [f"form {args.form.to_string()}  height={args.H}  count={len(gens)}",
                *("  " + "; ".join(" ".join(f"{e:3d}" for e in row) for row in m)
                  for m in gens)]

    def as_json():
        return {"form": args.form.to_string(), "search_height": args.H,
                "count": len(gens), "generators": [[list(row) for row in m] for m in gens]}

    def as_csv():
        return "m11,m12,m13,m21,m22,m23,m31,m32,m33", [
            [e for row in m for e in row] for m in gens]

    return 0, {"text": as_text, "json": as_json, "csv": as_csv}


# Flags by name; each subcommand takes the ones listed for it below.
_FLAGS = {
    "form": {"help": "a11,a22,a33,a12,a13,a23"},
    "t": {"type": int}, "T": {"type": float}, "c0": {"type": float, "default": 2.0},
    "projection": {"choices": VARIANTS, "default": "x1"},
    "mode": {"choices": ("unconditional", "selberg"), "default": "unconditional"},
    "output": {"choices": ("text", "json", "csv")},
    "out": {"help": "write output to FILE instead of stdout"},
    "pmax": {"type": int, "default": 100}, "dmax": {"type": int, "default": 30},
    "r": {"type": int, "default": 6},
    "trend": {"action": "store_true",
              "help": "also run at 2T and flag residual-ratio growth"},
    "R": {"type": float, "help": "enumeration radius (default c0*T)"},
    "H": {"type": int, "default": 3, "help": "entry height bound"},
}

# Subcommand, help and flags; `cmd_<subcommand>` runs it.
_SUBCOMMANDS = (
    ("constants", "reproduce the threshold constants", "mode output out"),
    ("local", "local counts and densities mod p", "form t projection output out pmax"),
    ("equidist", "equidistribution residuals",
     "form t T c0 projection output out dmax trend"),
    ("census", "almost-prime census", "form t T c0 projection mode output out r"),
    ("enumerate", "integer points in a ball, as CSV", "form t T c0 out R"),
    ("automorphs", "integral automorphs of a form", "form output out H"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievelab",
        description="Weighted-sieve constants and quadric point statistics.")
    parser.add_argument("--config", help="key=value file mirroring flag names")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, about, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=about)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


# Built once per process and reused by every call of `main`; the probe
# finds --config before the full parse.
_PARSER = _build_parser()
_CONFIG_PROBE = argparse.ArgumentParser(add_help=False)
_CONFIG_PROBE.add_argument("--config")


def _apply_config_file(argv: list[str]) -> list[str]:
    """Fold key=value file entries in after the subcommand (explicit flags win).

    A key naming an on/off flag (--trend) takes a boolean value: 1, true,
    yes or on sets the flag; 0, false, no or off leaves it unset.  A key for
    another subcommand's flag is skipped; argparse rejects any other key.
    """
    known, _ = _CONFIG_PROBE.parse_known_args(argv)
    flags_of = {name: flags.split() for name, _, flags in _SUBCOMMANDS}
    at = next((i for i, tok in enumerate(argv) if tok in flags_of), None)
    if not known.config or at is None:
        return argv  # without a subcommand argparse reports the error
    own = flags_of[argv[at]]
    injected = []
    with open(known.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SieveLabError(f"bad config line (want key=value): {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            flag = f"--{key}"
            if flag in argv or value == "" or (key in _FLAGS and key not in own):
                continue
            if _FLAGS.get(key, {}).get("action") != "store_true":
                injected.extend([flag, value])
            elif value.lower() not in _SWITCH_VALUES:
                raise SieveLabError(f"config key {key!r} wants a boolean, got {value!r}")
            elif _SWITCH_VALUES[value.lower()]:
                injected.append(flag)
    return argv[: at + 1] + injected + argv[at + 1 :]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _PARSER.parse_args(_apply_config_file(argv))
        _parse_inputs(args)
        # looked up by name at call time, so a wrapper rebound there sees the call
        code, views = globals()[f"cmd_{args.command}"](args)
        _emit(args, views)
        return code
    except (SieveLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
