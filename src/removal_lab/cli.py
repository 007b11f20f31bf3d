"""Batch command-line front end.

Every subcommand reads its inputs from files, runs one operation, and prints a
single JSON report (schema-versioned, sorted keys) to stdout; artifact-producing
subcommands also write their artifact to --out.  Reruns with identical inputs,
flags, and seed produce byte-identical reports.  Exit codes: 0 success, 1 usage
error, 2 structured domain failure with an evidence report.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import CaseAAbort, RemovalLabError, ResourceCapError, RetryCapError, VerificationError
from .fields import Subspace
from .fourier import regularity_norm, transform
from .patterns import (
    complexity1_check,
    generic_count,
    pattern_stats,
    read_family,
    read_pattern,
    subpattern,
    write_pattern,
)
from .ramsey import decide_dichotomy
from .regularize import green_regularize, regular_model, regularity_recolor
from .removal import induced_removal, inhomogeneous_reduce
from .space import CAP_ENV_VAR, read_coloring, read_table, write_coloring, write_table

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for domain failures, so usage errors must exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _emit(report: dict, out_path: str | None) -> None:
    report = {"schema": SCHEMA, **report}
    text = json.dumps(report, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def _fail(exc: Exception) -> int:
    evidence: dict = {"schema": SCHEMA, "error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, CaseAAbort):
        evidence["phase"] = exc.phase
        evidence["dichotomy"] = exc.dichotomy.as_dict()
    elif isinstance(exc, RetryCapError):
        evidence["attempts"] = exc.attempts
        evidence["stats"] = exc.stats
    elif isinstance(exc, ResourceCapError):
        evidence["requested"] = exc.requested
        evidence["cap"] = exc.cap
    elif isinstance(exc, VerificationError) and exc.evidence is not None:
        evidence["evidence"] = exc.evidence
    sys.stdout.write(json.dumps(evidence, sort_keys=True, default=str) + "\n")
    return 2


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite")
    return value


def _density(args) -> dict:
    st = pattern_stats(read_pattern(args.pattern), read_coloring(args.coloring))
    return {
        "density": str(st.density),
        "density_float": float(st.density),
        "instances": st.instance_count,
        "solutions": st.total_solutions,
    }


def _stats(args) -> dict:
    pattern = read_pattern(args.pattern)
    coloring = read_coloring(args.coloring)
    st = pattern_stats(pattern, coloring)
    return {
        "instances": st.instance_count,
        "solutions": st.total_solutions,
        "density": str(st.density),
        "nonzero_instances": st.nonzero_instance_count,
        "generic_instances": generic_count(pattern, coloring, st.nonzero_instance_count),
        "is_free": st.is_free,
    }


def _subpattern(args) -> dict:
    pattern = read_pattern(args.pattern)
    idx = [int(t) for t in args.indices.split(",") if t.strip()]
    sub = subpattern(pattern, idx)
    if args.out:
        write_pattern(args.out, sub)
    return {"indices": idx, "pattern": sub.to_dict()}


def _complexity(args) -> dict:
    pattern = read_pattern(args.pattern)
    return {"p": pattern.p, "complexity_1": bool(complexity1_check(pattern.rows, pattern.p))}


def _fourier(args) -> dict:
    if (args.coloring is None) == (args.table is None):
        raise ValueError("need exactly one of --coloring / --table")
    if args.coloring is not None:
        coloring = read_coloring(args.coloring)
        if not 1 <= args.color <= coloring.r:
            raise ValueError(f"--color must lie in 1..{coloring.r}")
        space = coloring.space
        values = coloring.indicator(args.color)
    else:
        values, space = read_table(args.table)
    norm, witness = regularity_norm(values, space)
    if args.out:
        write_table(args.out, space, np.abs(transform(values, space)))
    return {"norm": norm, "witness": witness}


def _regularize(args) -> dict:
    coloring = read_coloring(args.coloring)
    full = Subspace.full(coloring.space.p, coloring.space.n)
    return green_regularize(coloring.indicators(), coloring.space, full, args.eps).as_dict()


def _model(args) -> dict:
    coloring = read_coloring(args.coloring)
    full = Subspace.full(coloring.space.p, coloring.space.n)
    return regular_model(coloring.indicators(), coloring.space, full, args.eps, seed=args.seed).as_dict()


def _recolor(args) -> dict:
    report = regularity_recolor(read_coloring(args.coloring), args.eps, args.eps_reg, seed=args.seed)
    if args.out:
        write_coloring(args.out, report.coloring)
    return report.as_dict()


def _dichotomy(args) -> dict:
    result = decide_dichotomy(read_family(args.family)).as_dict()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(result, sort_keys=True) + "\n")
    return result


def _remove(args) -> dict:
    family = read_family(args.family)
    coloring = read_coloring(args.coloring)
    report = induced_removal(
        coloring, family, args.eps, eps_rado=args.eps_rado, eps_reg=args.eps_reg, seed=args.seed,
        acknowledge_complexity=args.acknowledge_complexity,
    )
    if args.out:
        write_coloring(args.out, report.coloring)
    return report.as_dict()


def _reduce(args) -> dict:
    family = read_family(args.family)
    coloring = read_coloring(args.coloring)
    groups = args.offsets.split(";")
    if len(groups) != len(family):
        raise ValueError("need one offset group per family member")
    pairs = [(h, tuple(int(t) for t in g.split(",") if t.strip())) for h, g in zip(family, groups)]
    red = inhomogeneous_reduce(coloring, pairs)
    if args.out:
        write_coloring(args.out, red.coloring)
    return {
        "b_size": int(red.b_points.size),
        "b_points": [int(x) for x in red.b_points],
        "quotient_dim": red.tilde_space.n,
        "quotient_colors": red.coloring.r,
        "expansion_counts": [len(e) for e in red.expansions],
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by later calls."""
    top = _Parser(prog="removal-lab", description=__doc__)
    top.add_argument("--cap", type=_positive_int, help="override the ambient point cap")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, run, help):
        s = sub.add_parser(name, help=help)
        s.set_defaults(run=run)
        return s

    s = add("density", _density, "exact instance density of a pattern in a coloring")
    s.add_argument("--pattern", required=True)
    s.add_argument("--coloring", required=True)
    s.add_argument("--out")

    s = add("stats", _stats, "full instance statistics of a pattern in a coloring")
    s.add_argument("--pattern", required=True)
    s.add_argument("--coloring", required=True)
    s.add_argument("--out")

    s = add("subpattern", _subpattern, "induced pattern on a subset of variables")
    s.add_argument("--pattern", required=True)
    s.add_argument("--indices", required=True, help="comma-separated 1-based variable indices")
    s.add_argument("--out")

    s = add("complexity", _complexity, "complexity-1 criterion for a pattern's matrix")
    s.add_argument("--pattern", required=True)
    s.add_argument("--out")

    s = add("fourier", _fourier, "largest nontrivial coefficient of a table or color indicator")
    s.add_argument("--coloring")
    s.add_argument("--table")
    s.add_argument("--color", type=int, default=1)
    s.add_argument("--out", help="write the transform magnitudes as a table")

    s = add("regularize", _regularize, "refine V until all color indicators are mostly regular")
    s.add_argument("--coloring", required=True)
    s.add_argument("--eps", type=_finite_float, required=True)
    s.add_argument("--out")

    s = add("model", _model, "verified regular model for the color indicators")
    s.add_argument("--coloring", required=True)
    s.add_argument("--eps", type=_finite_float, required=True)
    s.add_argument("--seed", type=_nonnegative_int, default=0)
    s.add_argument("--out")

    s = add("recolor", _recolor, "regularize a coloring by changing few points")
    s.add_argument("--coloring", required=True)
    s.add_argument("--eps", type=_finite_float, required=True)
    s.add_argument("--eps-reg", type=_finite_float, default=0.05)
    s.add_argument("--seed", type=_nonnegative_int, default=0)
    s.add_argument("--out", help="path for the recolored coloring")

    s = add("dichotomy", _dichotomy, "Case A / Case B decision for a pattern family")
    s.add_argument("--family", required=True)
    s.add_argument("--out", help="path for the witness or certificate JSON")

    s = add("remove", _remove, "make a coloring family-free by bounded recoloring")
    s.add_argument("--family", required=True)
    s.add_argument("--coloring", required=True)
    s.add_argument("--eps", type=_finite_float, required=True)
    s.add_argument("--eps-rado", type=_finite_float, default=0.1)
    s.add_argument("--eps-reg", type=_finite_float, default=0.05)
    s.add_argument("--seed", type=_nonnegative_int, default=0)
    s.add_argument("--acknowledge-complexity", action="store_true",
                   help="run even if the complexity-1 criterion fails or cannot be decided")
    s.add_argument("--out", help="path for the output coloring")

    s = add("reduce", _reduce, "encode inhomogeneous systems over a quotient coloring")
    s.add_argument("--family", required=True)
    s.add_argument("--coloring", required=True)
    s.add_argument("--offsets", required=True,
                   help="per-pattern offset groups: comma within a group, ';' between")
    s.add_argument("--out", help="path for the quotient coloring")
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # --cap holds for this call only: the caller's value, or its absence, comes back
    saved = os.environ.get(CAP_ENV_VAR)
    if args.cap is not None:
        os.environ[CAP_ENV_VAR] = str(args.cap)
    try:
        report = {"command": args.command, **args.run(args)}
        # the pure reporters copy their report to --out; the others wrote their artifact there
        reporters = ("density", "stats", "complexity", "regularize", "model")
        _emit(report, args.out if args.command in reporters else None)
        return 0
    except RemovalLabError as exc:
        return _fail(exc)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        os.environ.pop(CAP_ENV_VAR, None)
        if saved is not None:
            os.environ[CAP_ENV_VAR] = saved


if __name__ == "__main__":
    sys.exit(main())
