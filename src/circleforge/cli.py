"""Command-line front end.

Every command is deterministic: identical flags (and seed, where sampling is
involved) produce byte-identical output.  Floating-point values are printed
with 12 significant digits; counts are printed exactly.  Random sampling uses
numpy's PCG64 generator seeded from --seed, so samples reproduce across
platforms.

Exit codes: 0 success, 2 precondition violation or unusable file path,
3 budget refusal or failed convergence contract.
"""

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arcints, arcs, moments, powersums, repcount, sseries
from .errors import BudgetError, ConvergenceError, PreconditionError
from .scan import PsiSpec, predict as predict_target, record_rows, scan as run_scan

CACHE_ENV = "CIRCLEFORGE_CACHE"


@dataclass
class CommandConfig:
    subcommand: str
    limit: int | None = None
    trunc: int = 1000
    psi: str = "log"
    n: int | None = None
    k: int | None = None
    q: int | None = None
    a: int | None = None
    P: int | None = None
    Q: int | None = None
    sample: int = 0
    seed: int = 0
    fmt: str = "json"
    cache_dir: str | None = None
    out: str | None = None
    op: str | None = None
    moment: str | None = None
    grid: int = 10


def _f(x) -> float:
    """Round-trip through 12 significant digits for stable printing."""
    return float(f"{float(x):.12g}")


def _emit(config: CommandConfig, payload: dict, rows=None, header=None) -> None:
    """Write one report. JSON: single object. CSV: header + rows (payload keys
    become a comment-free single summary row when no row iterator is given)."""
    stream = open(config.out, "w") if config.out else sys.stdout
    try:
        if config.fmt == "json":
            json.dump(payload, stream, sort_keys=True)
            stream.write("\n")
        else:
            writer = csv.writer(stream, lineterminator="\n")
            if rows is None:
                keys = sorted(payload)
                writer.writerow(keys)
                writer.writerow([payload[k] for k in keys])
            else:
                writer.writerow(header)
                for row in rows:
                    writer.writerow(row)
    finally:
        if config.out:
            stream.close()


def _emit_error(config: CommandConfig, kind: str, message: str) -> None:
    if config.fmt == "csv":
        sys.stderr.write(f"error,{kind},{json.dumps(message)}\n")
    else:
        sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def _require(config: CommandConfig, **named) -> None:
    missing = [flag for flag, value in named.items() if value is None]
    if missing:
        raise PreconditionError(
            f"{config.subcommand} requires --{', --'.join(missing)}"
        )


def _rational_alpha(config: CommandConfig) -> Fraction:
    _require(config, q=config.q, a=config.a)
    if config.q <= 0:
        raise PreconditionError("--q must be positive")
    return Fraction(config.a, config.q) % 1


def _sample_set(config: CommandConfig, X: int) -> arcs.ExceptionalSample:
    if config.sample <= 0:
        return arcs.ExceptionalSample(members=())
    rng = np.random.default_rng(config.seed)
    lo, hi = X // 2 + 1, X
    if config.sample > hi - lo + 1:
        raise PreconditionError("sample larger than the admissible range (X/2, X]")
    members = rng.choice(np.arange(lo, hi + 1), size=config.sample, replace=False)
    return arcs.ExceptionalSample(members=tuple(int(v) for v in np.sort(members)))


def _run_gauss(config: CommandConfig) -> None:
    _require(config, k=config.k, q=config.q, a=config.a)
    value = powersums.gauss_sum(config.k, config.q, config.a).value
    _emit(
        config,
        {
            "k": config.k,
            "q": config.q,
            "a": config.a,
            "re": _f(value.real),
            "im": _f(value.imag),
            "abs": _f(abs(value)),
        },
    )


def _run_sseries(config: CommandConfig) -> None:
    _require(config, n=config.n)
    if config.q is not None:
        term = sseries.series_term(config.q, config.n)
        _emit(config, {"q": term.q, "n": term.n, "value": _f(term.value)})
        return
    value = sseries.truncated_singular_series(config.n, config.trunc)
    _emit(
        config,
        {
            "n": value.n,
            "W": value.W,
            "value": _f(value.value),
            "tail_estimate": _f(value.tail_estimate),
        },
    )


def _run_count(config: CommandConfig) -> None:
    if config.n is not None:
        _emit(config, {"n": config.n, "R": repcount.rep_count_single(config.n)})
        return
    _require(config, limit=config.limit)
    counts = repcount.rep_count_range(config.limit, cache_dir=config.cache_dir)
    rows = ((n, int(counts.values[n])) for n in range(1, config.limit + 1))
    if config.fmt == "json":
        _emit(
            config,
            {
                "X": config.limit,
                "total": int(counts.values.sum()),
                "values": [int(v) for v in counts.values[1:]],
            },
        )
    else:
        _emit(config, {}, rows=rows, header=["n", "R"])


def _run_moments(config: CommandConfig) -> None:
    _require(config, moment=config.moment)
    name = config.moment
    if name == "pair-collisions":
        _require(config, P=config.P)
        result = moments.count_sixth_pair_collisions(config.P)
    elif name == "cube-sixth":
        _require(config, limit=config.limit)
        result = moments.count_cube_sixth_correlation(config.limit)
    elif name == "eighth":
        _require(config, P=config.P)
        result = moments.sixth_power_eighth_moment(config.P)
    elif name == "multiplicity":
        _require(config, P=config.P)
        mset = moments.cube_multiplicity(config.P)
        _emit(
            config,
            {
                "P3": mset.P3,
                "cardinality": int(len(mset.members)),
                "max_multiplicity": mset.max_multiplicity,
                "least_positive": int(mset.members[mset.members > 0].min())
                if len(mset.members)
                else None,
            },
        )
        return
    elif name == "shifted":
        _require(config, P=config.P, limit=config.limit)
        sample = _sample_set(config, config.limit)
        result = moments.shifted_cube_correlation(config.P, sample.members)
    else:
        raise PreconditionError(f"unknown moment {name!r}")
    payload = {"label": result.label, "count": result.count}
    payload.update({f"param_{k}": v for k, v in result.parameters.items()})
    if result.parts:
        payload.update({f"part_{k}": v for k, v in result.parts.items()})
    _emit(config, payload)


def _run_arcs(config: CommandConfig) -> None:
    _require(config, op=config.op)
    op = config.op
    if op == "weyl":
        _require(config, k=config.k, P=config.P)
        alpha = _rational_alpha(config)
        value = arcs.weyl_sum(config.k, config.P, alpha)
        _emit(
            config,
            {
                "k": config.k,
                "P": config.P,
                "alpha": f"{alpha.numerator}/{alpha.denominator}",
                "re": _f(value.real),
                "im": _f(value.imag),
            },
        )
    elif op == "classify":
        _require(config, limit=config.limit, Q=config.Q)
        alpha = _rational_alpha(config)
        label = arcs.classify_arc(alpha, config.Q, config.limit, config.trunc)
        _emit(
            config,
            {
                "alpha": f"{alpha.numerator}/{alpha.denominator}",
                "q": label.q,
                "a": label.a,
                "kind": label.kind,
                "peak": int(label.peak),
                "peak_q": label.peak_q,
                "peak_a": label.peak_a,
            },
        )
    elif op == "major-integral":
        _require(config, n=config.n, limit=config.limit)
        result = arcints.major_arc_integral(
            config.n, config.limit, config.trunc, grid=config.grid
        )
        _emit(
            config,
            {
                "n": result.n,
                "X": result.X,
                "W": result.W,
                "value_re": _f(result.value.real),
                "value_im": _f(result.value.imag),
                "approx_re": _f(result.approx_value.real),
                "approx_im": _f(result.approx_value.imag),
                "difference": _f(result.difference),
                "value_rel_change": _f(result.value_rel_change),
                "grid_points": result.grid_points,
            },
            rows=(
                (r.q, r.a, r.Q, f"{r.integral_re:.12g}", f"{r.integral_im:.12g}",
                 f"{r.abs_value:.12g}", r.grid_points)
                for r in result.arc_rows
            )
            if config.fmt == "csv"
            else None,
            header=["q", "a", "Q", "integral_re", "integral_im", "abs", "grid_points"],
        )
    elif op == "singular-integral":
        _require(config, n=config.n, limit=config.limit)
        result = arcints.singular_integral(config.n, config.limit, config.trunc)
        _emit(
            config,
            {
                "n": result.n,
                "X": result.X,
                "W": result.W,
                "value": _f(result.value),
                "reference": _f(result.reference),
                "rel_change": _f(result.rel_change),
                "grid_points": result.grid_points,
            },
        )
    elif op == "pruned":
        _require(config, limit=config.limit, Q=config.Q)
        sample = _sample_set(config, config.limit)
        result = arcints.pruned_integral_diagnostic(
            config.limit, config.Q, sample, grid=config.grid
        )
        _emit(
            config,
            {
                "X": result.X,
                "Q": result.Q,
                "sample_size": result.sample_size,
                "raw": _f(result.raw),
                "square_majorant": _f(result.square_majorant),
                "cubic_approx": _f(result.cubic_approx),
                "raw_rel_change": _f(result.raw_rel_change),
                "bound_X_sqrtZ": _f(result.bound_shapes["X*sqrt(Z)"]),
                "bound_X_power_Z": _f(result.bound_shapes["X^(1-delta^2)*Z"]),
                "grid_points": result.grid_points,
            },
            rows=(
                (r.q, r.a, r.Q, f"{r.integral_re:.12g}", f"{r.integral_im:.12g}",
                 f"{r.abs_value:.12g}", r.grid_points)
                for r in result.arc_rows
            )
            if config.fmt == "csv"
            else None,
            header=["q", "a", "Q", "integral_re", "integral_im", "abs", "grid_points"],
        )
    else:
        raise PreconditionError(f"unknown arcs op {op!r}")


def _run_predict(config: CommandConfig) -> None:
    _require(config, n=config.n)
    record = predict_target(config.n, config.trunc)
    _emit(
        config,
        {
            "n": record.n,
            "R": record.R,
            "S_W": _f(record.S_W),
            "tail_estimate": _f(record.tail_estimate),
            "main": _f(record.main),
            "abs_err": _f(record.abs_err),
            "rel_err": _f(record.rel_err),
        },
    )


def _run_scan(config: CommandConfig) -> None:
    _require(config, limit=config.limit)
    psi = PsiSpec.parse(config.psi)
    # --out is opened before the scan, so an unusable path fails before the work
    with open(config.out, "w") if config.out else contextlib.nullcontext(sys.stdout) as fh:
        report = run_scan(config.limit, psi, config.trunc, cache_dir=config.cache_dir)
        summary = report.summary()
        summary["rel_err_quantiles"] = {
            k: _f(v) for k, v in summary["rel_err_quantiles"].items()
        }
        summary["rel_err_median_asymptotic"] = _f(summary["rel_err_median_asymptotic"])
        summary["exceptional_proportion"] = _f(summary["exceptional_proportion"])
        if config.fmt == "json":
            json.dump(summary, sys.stdout, sort_keys=True)
            sys.stdout.write("\n")
        # per-record CSV to --out, or to stdout when the format is csv
        if config.out or config.fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["n", "R", "S_W", "tail_estimate", "main", "abs_err", "rel_err", "exceptional"]
            )
            for row in record_rows(report):
                writer.writerow(row)


_DISPATCH = {
    "gauss": _run_gauss,
    "sseries": _run_sseries,
    "count": _run_count,
    "moments": _run_moments,
    "arcs": _run_arcs,
    "predict": _run_predict,
    "scan": _run_scan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circleforge",
        description="Exact and numerical diagnostics for counts of "
        "two squares, two cubes and two sixth powers.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, helptext in [
        ("gauss", "complete power-residue exponential sum S_k(q, a)"),
        ("sseries", "singular-series terms and truncations"),
        ("count", "exact representation counts"),
        ("moments", "exact mean-value counts"),
        ("arcs", "Weyl sums, arc classification, quadrature diagnostics"),
        ("predict", "exact count against main term for one target"),
        ("scan", "empirical exceptional-set scan up to a limit"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--limit", type=int, help="range bound X")
        p.add_argument("--trunc", type=int, default=1000, help="truncation level W")
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
        p.add_argument("--cache-dir", dest="cache_dir", help="spectrum cache directory")
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--op", help="arcs operation", choices=(
            "weyl", "classify", "major-integral", "singular-integral", "pruned"))
        p.add_argument("--moment", help="moments operation", choices=(
            "pair-collisions", "cube-sixth", "eighth", "multiplicity", "shifted"))
        p.add_argument("--grid", type=int, default=10, help="grid density factor")
    return parser


def parse_config(argv) -> CommandConfig:
    args = build_parser().parse_args(argv)
    config = CommandConfig(**vars(args))
    if config.cache_dir is None:
        config.cache_dir = os.environ.get(CACHE_ENV) or None
    return config


def run(config: CommandConfig) -> int:
    try:
        _DISPATCH[config.subcommand](config)
        return 0
    except PreconditionError as exc:
        _emit_error(config, "precondition", str(exc))
        return 2
    except BudgetError as exc:
        _emit_error(config, "budget", str(exc))
        return 3
    except ConvergenceError as exc:
        _emit_error(config, "convergence", str(exc))
        return 3
    except OSError as exc:  # an unusable --out or --cache-dir path
        _emit_error(config, "io", str(exc))
        return 2


def main(argv=None) -> int:
    return run(parse_config(argv))


if __name__ == "__main__":
    sys.exit(main())
