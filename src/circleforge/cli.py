"""Command-line front end.

Every command is deterministic: identical flags (and seed, where sampling is
involved) produce byte-identical output.  Floating-point values are printed
with 12 significant digits; counts are printed exactly.  Random sampling uses
numpy's PCG64 generator seeded from --seed, so samples reproduce across
platforms.

Exit codes: 0 success, 2 precondition violation or unusable file path,
3 budget refusal.

A handler returns its JSON payload, or the payload together with the CSV
header and columns that `--format csv` prints instead; `_emit` writes them.
"""

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import arcints, arcs, moments, powersums, repcount, sseries
from .errors import BudgetError, PreconditionError
from .scan import (DEFAULT_TRUNCATION, PredictionRecord, PsiSpec, predict as predict_target,
                   record_columns, scan as run_scan)

# error class: (stderr kind, exit code); OSError is an unusable --out or --cache-dir path,
# MemoryError a request larger than the memory the process may use
EXIT_CODES = {
    PreconditionError: ("precondition", 2),
    BudgetError: ("budget", 3),
    MemoryError: ("budget", 3),
    OSError: ("io", 2),
}


def _f(x) -> float:
    """Round-trip through 12 significant digits for stable printing."""
    return float(f"{float(x):.12g}")


def _fields(result, *drop) -> dict:
    """A result dataclass's fields less `drop`, every float (in dicts too) through
    `_f`, and a complex field x as x_re and x_im."""
    def value(v):
        if isinstance(v, dict):
            return {k: value(x) for k, x in v.items()}
        return _f(v) if isinstance(v, float) else v
    payload = {}
    for key in (f.name for f in dataclasses.fields(result) if f.name not in drop):
        v = getattr(result, key)
        parts = {f"{key}_re": v.real, f"{key}_im": v.imag} if isinstance(v, complex) else {key: v}
        payload.update({k: value(x) for k, x in parts.items()})
    return payload


def _emit(args, out, payload: dict, header=None, columns=None, records=False) -> None:
    """Write one report to `out` (the opened --out file) or stdout.  JSON
    writes the payload; CSV writes header and columns, or the payload as a
    one-row table.  Per-record columns (`records`, scan's) go to --out under
    JSON too, and the JSON payload then stays on stdout.  Columns are written
    in blocks of 2^12 rows, each row through one format string: %d for
    integer and bool columns, %.12g for float columns."""
    stream = out or sys.stdout
    if args.fmt == "json":
        target = sys.stdout if records else stream
        json.dump(payload, target, sort_keys=True)
        target.write("\n")
        if not (records and out):
            return
    writer = csv.writer(stream, lineterminator="\n")
    if header is None:  # the payload's floats print by repr
        writer.writerows([sorted(payload), [payload[k] for k in sorted(payload)]])
        return
    writer.writerow(header)
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%.12g" if c.dtype.kind == "f" else "%d" for c in columns) + "\n"
    # a block's Python scalars take about 1 MiB (270 bytes per scan row)
    for lo in range(0, len(columns[0]), 2**12):
        block = zip(*(c[lo : lo + 2**12].tolist() for c in columns))
        stream.writelines(row % r for r in block)


def _require(args, *flags) -> None:
    missing = [flag for flag in flags if getattr(args, flag) is None]
    if missing:
        raise PreconditionError(f"{args.subcommand} requires --{', --'.join(missing)}")


def _rational_alpha(args) -> Fraction:
    _require(args, "q", "a")
    if args.q <= 0:
        raise PreconditionError("--q must be positive")
    return Fraction(args.a, args.q) % 1


def _check_sample(args, X: int) -> None:
    """The refusals of --sample and --seed over (X/2, X].  A sampling command
    raises these, then its own refusals, and only then draws its sample."""
    if args.sample < 0 or args.seed < 0:
        raise PreconditionError("--sample and --seed must be >= 0")
    if args.sample and X >= 2**63:
        raise PreconditionError("sampling needs --limit below 2^63")
    if args.sample and args.sample > X - X // 2:
        raise PreconditionError("sample larger than the admissible range (X/2, X]")


def _sample_set(args, X: int) -> arcs.ExceptionalSample:
    """The --sample members of (X/2, X] drawn from --seed (after _check_sample)."""
    if args.sample == 0:
        return arcs.ExceptionalSample(members=())
    rng = np.random.default_rng(args.seed)
    lo, hi = X // 2 + 1, X
    # the same draw as from np.arange(lo, hi + 1), without building that range
    members = lo + rng.choice(hi - lo + 1, size=args.sample, replace=False)
    return arcs.ExceptionalSample(members=tuple(int(v) for v in np.sort(members)))


def _dispatch(args, table: dict, selector: str):
    """Run the handler that `table` names for the --`selector` flag."""
    _require(args, selector)
    flags, handler = table[getattr(args, selector)]
    _require(args, *flags)
    return handler(args)


def _gauss(args):
    _require(args, "k", "q", "a")
    value = powersums.gauss_sum(args.k, args.q, args.a).value
    return {
        "k": args.k,
        "q": args.q,
        "a": args.a,
        "re": _f(value.real),
        "im": _f(value.imag),
        "abs": _f(abs(value)),
    }


def _sseries(args):
    _require(args, "n")
    if args.q is not None:
        return _fields(sseries.series_term(args.q, args.n))
    return _fields(sseries.truncated_singular_series(args.n, args.trunc))


def _count(args):
    if args.n is not None:
        return {"n": args.n, "R": repcount.rep_count_single(args.n)}
    _require(args, "limit")
    values = repcount.rep_count_range(args.limit, cache_dir=args.cache_dir).values
    if args.fmt == "csv":  # skips the list of X Python ints that only JSON prints
        return {}, ("n", "R"), (np.arange(1, args.limit + 1), values[1:])
    return {
        "X": args.limit,
        "total": int(values.sum()),
        "values": [int(v) for v in values[1:]],
    }


def _counted(result):
    payload = {"label": result.label, "count": result.count}
    payload.update({f"param_{k}": v for k, v in result.parameters.items()})
    if result.parts:
        payload.update({f"part_{k}": v for k, v in result.parts.items()})
    return payload


def _multiplicity(args):
    mset = moments.cube_multiplicity(args.P)
    return {
        "P3": mset.P3,
        "cardinality": int(len(mset.members)),
        "max_multiplicity": mset.max_multiplicity,
        "least_positive": int(mset.members[mset.members > 0].min())
        if len(mset.members)
        else None,
    }


def _weyl(args):
    alpha = _rational_alpha(args)
    value = arcs.weyl_sum(args.k, args.P, alpha)
    return {
        "k": args.k,
        "P": args.P,
        "alpha": f"{alpha.numerator}/{alpha.denominator}",
        "re": _f(value.real),
        "im": _f(value.imag),
    }


def _classify(args):
    alpha = _rational_alpha(args)
    label = arcs.classify_arc(alpha, args.Q, args.limit, args.trunc)
    return {
        "alpha": f"{alpha.numerator}/{alpha.denominator}",
        "q": label.q,
        "a": label.a,
        "kind": label.kind,
        "peak": int(label.peak),
        "peak_q": label.peak_q,
        "peak_a": label.peak_a,
    }


def _arc_report(result, *drop):
    """An arc integral's payload less `drop`, and its per-arc table as columns."""
    columns = result.arc_columns
    return _fields(result, "arc_columns", *drop), list(columns), columns.values()


def _major_integral(args):
    result = arcints.major_arc_integral(args.n, args.limit, args.trunc, grid=args.grid)
    return _arc_report(result, "approx_rel_change")


def _singular_integral(args):
    return _fields(arcints.singular_integral(args.n, args.limit, args.trunc), "imag_residual")


def _pruned(args):
    _check_sample(args, args.limit)
    arcints.check_pruned(args.limit, args.Q, args.grid)
    result = arcints.pruned_integral_diagnostic(args.limit, args.Q, _sample_set(args, args.limit),
                                                grid=args.grid)
    return _arc_report(result, "square_majorant_rel_change", "cubic_approx_rel_change")


def _predict(args):
    _require(args, "n")
    return _fields(predict_target(args.n, args.trunc), "exceptional")


def _scan(args):
    _require(args, "limit")
    psi = PsiSpec.parse(args.psi)
    report = run_scan(args.limit, psi, args.trunc, cache_dir=args.cache_dir)
    summary = _fields(report, "counts", "series", "tails", "flags")
    header = [f.name for f in dataclasses.fields(PredictionRecord)]
    return summary, header, record_columns(report), True  # records: see _emit


def _shifted(args):
    _check_sample(args, args.limit)
    moments.check_shifted(args.P, args.sample)
    return _counted(moments.shifted_cube_correlation(args.P, _sample_set(args, args.limit).members))


# --moment name: (required flags, handler)
MOMENTS = {
    "pair-collisions": (("P",), lambda args: _counted(
        moments.count_sixth_pair_collisions(args.P))),
    "cube-sixth": (("limit",), lambda args: _counted(
        moments.count_cube_sixth_correlation(args.limit))),
    "eighth": (("P",), lambda args: _counted(moments.sixth_power_eighth_moment(args.P))),
    "multiplicity": (("P",), _multiplicity),
    "shifted": (("P", "limit"), _shifted),
}

# --op name: (required flags, handler)
ARC_OPS = {
    "weyl": (("k", "P"), _weyl),
    "classify": (("limit", "Q"), _classify),
    "major-integral": (("n", "limit"), _major_integral),
    "singular-integral": (("n", "limit"), _singular_integral),
    "pruned": (("limit", "Q"), _pruned),
}

# subcommand: (help text, handler)
COMMANDS = {
    "gauss": ("complete power-residue exponential sum S_k(q, a)", _gauss),
    "sseries": ("singular-series terms and truncations", _sseries),
    "count": ("exact representation counts", _count),
    "moments": ("exact mean-value counts", lambda args: _dispatch(args, MOMENTS, "moment")),
    "arcs": ("Weyl sums, arc classification, quadrature diagnostics",
             lambda args: _dispatch(args, ARC_OPS, "op")),
    "predict": ("exact count against main term for one target", _predict),
    "scan": ("empirical exceptional-set scan up to a limit", _scan),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a precondition error (exit 2, one line)."""

    def error(self, message):
        raise PreconditionError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="circleforge",
        description="Exact and numerical diagnostics for counts of "
        "two squares, two cubes and two sixth powers.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (helptext, _) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--limit", type=int, help="range bound X")
        p.add_argument("--trunc", type=int, default=DEFAULT_TRUNCATION, help="truncation level W")
        p.add_argument("--psi", default="log", help='growth function: "log" | "log^A" | "pow:d"')
        p.add_argument("--n", type=int, help="target integer")
        p.add_argument("--k", type=int, help="exponent in {2, 3, 6}")
        p.add_argument("--q", type=int, help="modulus / rational denominator")
        p.add_argument("--a", type=int, help="residue / rational numerator")
        p.add_argument("--P", type=int, help="variable range bound")
        p.add_argument("--Q", type=int, help="arc dissection level")
        p.add_argument("--sample", type=int, default=0, help="random sample size")
        p.add_argument("--seed", type=int, default=0, help="64-bit sampling seed (PCG64)")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        p.add_argument("--cache-dir", dest="cache_dir", help="spectrum cache directory",
                       default=os.environ.get("CIRCLEFORGE_CACHE") or None)
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--op", help="arcs operation", choices=ARC_OPS)
        p.add_argument("--moment", help="moments operation", choices=MOMENTS)
        p.add_argument("--grid", type=int, default=10, help="grid density factor")
    return parser


def main(argv=None) -> int:
    fmt = "json"
    try:
        args = build_parser().parse_args(argv)
        fmt = args.fmt
        # --out is opened before the work, so an unusable path fails first
        with open(args.out, "w") if args.out else contextlib.nullcontext() as out:
            report = COMMANDS[args.subcommand][1](args)
            _emit(args, out, *(report if isinstance(report, tuple) else (report,)))
        return 0
    except tuple(EXIT_CODES) as exc:
        kind, code = next(v for cls, v in EXIT_CODES.items() if isinstance(exc, cls))
        message = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else "")
        if fmt == "csv":
            sys.stderr.write(f"error,{kind},{json.dumps(message)}\n")
        else:
            sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
