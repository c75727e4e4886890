"""Command-line front end for the AKKT toolkit.

Subcommands
-----------
penalty         generate a penalty-path AKKT sequence and export it
certify-akkt    generate a sequence and certify the AKKT conditions on it
check-kkt       test exact KKT stationarity at a candidate point
certify-convex  convex-case weak-efficiency certificate from a sequence
oracle          brute-force weak-efficiency scan over a box (n <= 3)
catalog         list the built-in problems

Every verdict-bearing run emits one JSON report (stdout, or ``--report``),
byte-identical across repeated runs with the same arguments and seed.

Exit codes: 0 verdict holds; 1 verdict fails or is inconclusive;
2 usage/configuration error or an output path that cannot be written;
3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .certify import (
    NORMALIZATION_NOTE,
    certify_weak_efficiency_convex,
    check_akkt_conditions,
    check_kkt,
    kkt_from_akkt,
    weak_efficiency_oracle,
)
from .minnorm import ConvergenceError
from .penalty import (
    PenaltyConfig,
    generate_akkt_sequence,
    geometric_schedule,
    save_sequence_csv,
)
from .problem import Problem, catalog, resolve_problem
from .subdiff import DEFAULT_EPS_ACT, MODEL_NOTE
from .tape import DomainError

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class UsageError(ValueError):
    """Bad command-line input (maps to exit status 2)."""


def _parse_point(text: str, pr: Problem) -> np.ndarray:
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"--point must be comma-separated reals, got {text!r}") from None
    if len(vals) != pr.n:
        raise UsageError(
            f"--point has {len(vals)} coordinates but problem {pr.name!r} has n={pr.n}"
        )
    return np.asarray(vals, dtype=float)


def _parse_schedule(text: str) -> tuple:
    if text.startswith("geometric:"):
        body = text[len("geometric:"):]
        lo, sep, hi = body.partition("..")
        if not sep:
            raise UsageError(
                f"geometric schedule must look like geometric:A..B, got {text!r}"
            )
        try:
            return geometric_schedule(float(lo), float(hi))
        except ValueError as e:
            raise UsageError(f"bad geometric schedule {text!r}: {e}") from None
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(
            f"--schedule must be geometric:A..B or a comma list of weights, got {text!r}"
        ) from None


def _parse_box(text: str, pr: Problem) -> tuple[np.ndarray, np.ndarray]:
    lo_text, sep, hi_text = text.partition("..")
    if not sep:
        raise UsageError(f"--box must look like LO..HI (points comma-separated), got {text!r}")
    return _parse_point(lo_text, pr), _parse_point(hi_text, pr)


def _record_payload(rec) -> dict:
    out = {
        "k": rec.k,
        "x": rec.x,
        "residual_m": rec.residual,
        "residual_m_prime": rec.residual_prime,
        "stationarity": rec.stationarity,
        "phi": rec.phi,
        "phi_k": rec.phi_k,
        "e2": rec.e2,
        "feasibility": rec.feasibility.aggregate,
        "iterations": rec.iterations,
        "flagged": rec.flagged,
        "status": rec.status,
    }
    if rec.mult is not None:
        out["lambda"] = rec.mult.lam
        out["mu"] = rec.mult.mu
        out["tau"] = rec.mult.tau
        out["sigma"] = rec.sigma
    return out


def _sequence(args, pr: Problem, point):
    """The penalty path of the sequence commands: (its PenaltyConfig as
    report parameters, the sequence)."""
    schedule = {} if args.schedule is None else {"schedule": _parse_schedule(args.schedule)}
    cfg = PenaltyConfig(delta=args.delta, eps_act=args.eps_act, **schedule)
    return dataclasses.asdict(cfg), generate_akkt_sequence(pr, point, cfg)


# Each point command maps (args, problem, point) to (verdict holds,
# report fields, sequence or None); `_run` adds the rest of the report.

def _penalty(args, pr, point):
    params, seq = _sequence(args, pr, point)
    flagged = [r.k for r in seq.records if r.flagged]
    return bool(seq.records) and not flagged, {
        "parameters": params,
        "records": [_record_payload(r) for r in seq.records],
        "flagged_weights": flagged,
        "notes": [MODEL_NOTE],
    }, seq


def _certify_akkt(args, pr, point):
    params, seq = _sequence(args, pr, point)
    verdicts = check_akkt_conditions(
        seq.records, pr, point, tol=args.tol,
        eps_act=args.eps_act, residual_mode=args.mode,
    )
    recovery = kkt_from_akkt(seq.records, pr, point, eps_act=args.eps_act)
    return all(v.outcome == "holds" for v in verdicts), {
        "parameters": params | {"tol": args.tol, "mode": args.mode},
        "conditions": verdicts,
        "kkt_recovery": {
            "outcome": recovery.outcome,
            "residual": recovery.residual,
            "evidence": recovery.evidence,
        },
        "records": [_record_payload(r) for r in seq.records],
        "notes": [MODEL_NOTE, NORMALIZATION_NOTE],
    }, seq


def _check_kkt(args, pr, point):
    res = check_kkt(pr, point, eps_act=args.eps_act, tol=args.tol)
    return res.holds, {
        "parameters": {"tol": args.tol, "eps_act": args.eps_act},
        "residual": res.residual,
        "multipliers": {"lambda": res.mult.lam, "mu": res.mult.mu, "tau": res.mult.tau},
        "active_inequalities": res.active_inequalities,
        "notes": [MODEL_NOTE, NORMALIZATION_NOTE],
    }, None


def _certify_convex(args, pr, point):
    params, seq = _sequence(args, pr, point)
    cert = certify_weak_efficiency_convex(
        pr, point, seq.records, tol=args.tol, seed=args.seed, eps_act=args.eps_act,
    )
    return cert.certified, {
        "parameters": params | {"tol": args.tol, "seed": args.seed},
        "conditions": cert.verdicts,
        "evidence": cert.evidence,
        "notes": [MODEL_NOTE, NORMALIZATION_NOTE],
    }, seq


def _oracle(args, pr, point):
    lo, hi = _parse_box(args.box, pr)
    res = weak_efficiency_oracle(pr, point, lo, hi, step=args.step)
    return res.weakly_efficient, dataclasses.asdict(res) | {
        "parameters": {"box_lo": lo, "box_hi": hi, "step": args.step},
        "notes": [MODEL_NOTE],
    }, None


_HANDLERS = {
    "penalty": _penalty,
    "certify-akkt": _certify_akkt,
    "check-kkt": _check_kkt,
    "certify-convex": _certify_convex,
    "oracle": _oracle,
}


def _run(args) -> tuple:
    """(exit code, report, sequence or None) of one parsed command."""
    report = {"tool": "akkt", "command": args.command, "seed": getattr(args, "seed", None)}
    if args.command == "catalog":
        holds, seq = True, None
        report["problems"] = [
            {
                "name": pr.name,
                "source": f"builtin:{pr.name}",
                "n": pr.n,
                "objectives": pr.p,
                "inequalities": pr.m,
                "equalities": pr.r,
                "convex_flags": [fn.convex for fn in pr.objectives],
            }
            for pr in catalog()
        ]
    else:
        pr = resolve_problem(args.problem)
        point = _parse_point(args.point, pr)
        report.update(problem=pr.name, source=args.problem, point=point)
        holds, fields, seq = _HANDLERS[args.command](args, pr, point)
        report.update(fields)
    report["verdict"] = "holds" if holds else "fails"
    return (EXIT_HOLDS if holds else EXIT_FAILS), report, seq


_REPORT_HELP = "write the JSON report to this path instead of stdout"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akkt",
        description="Generate and certify approximate-KKT sequences for "
                    "nonsmooth multiobjective problems.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *, tol=None, eps_act=True, sequence=False):
        """A point command; only the flags it reads: --tol (with this
        default) and --eps-act where a verdict or a model uses them, and
        the penalty-path flags on the sequence commands."""
        sub = subs.add_parser(name, help=help)
        sub.add_argument("problem", help="problem source: a file path or builtin:<name>")
        sub.add_argument("--point", required=True,
                         help="candidate point, comma-separated reals")
        if tol is not None:
            sub.add_argument("--tol", type=float, default=tol,
                             help=f"verdict tolerance (default {tol:g})")
        if eps_act:
            sub.add_argument("--eps-act", type=float, default=DEFAULT_EPS_ACT, dest="eps_act",
                             help="activity tolerance for subdifferential polytopes")
        sub.add_argument("--seed", type=int, default=0,
                         help="seed for sampled spot checks (default 0)")
        sub.add_argument("--report", default=None, help=_REPORT_HELP)
        if sequence:
            sub.add_argument("--delta", type=float, default=PenaltyConfig.delta,
                             help="trust-ball radius around the candidate point")
            sub.add_argument("--schedule", default=None,
                             help="penalty weights: geometric:A..B or a comma list")
            sub.add_argument("--csv", default=None,
                             help="also export the sequence records as CSV to this path")
        return sub

    command("penalty", "generate a penalty-path AKKT sequence", sequence=True)
    command("certify-akkt", "certify the AKKT conditions on a sequence",
            tol=1e-2, sequence=True).add_argument(
        "--mode", choices=("general", "prime"), default="general",
        help="equality-sign handling in the residual (default general)")
    command("check-kkt", "test exact KKT stationarity at a point", tol=1e-6)
    command("certify-convex", "convex-case weak-efficiency certificate",
            tol=1e-6, sequence=True)
    p = command("oracle", "brute-force weak-efficiency scan (n <= 3)", eps_act=False)
    p.add_argument("--box", required=True,
                   help="search box LO..HI with comma-separated corner points; "
                        "use the --box=-1..1 form for a negative lower corner")
    p.add_argument("--step", type=float, default=1e-3,
                   help="grid step (default 1e-3)")

    subs.add_parser("catalog", help="list the built-in problems").add_argument(
        "--report", default=None, help=_REPORT_HELP)
    return parser


# `main` parses with one parser per process: parsing leaves a parser
# unchanged, so repeated in-process calls need not rebuild the tree.
_parser = functools.cache(build_parser)


def _encode(obj):
    """What json cannot encode itself: numpy arrays and scalars, and
    dataclasses (as the dict of their fields; json encodes the values,
    so nothing is deep-copied as by `dataclasses.asdict`)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(report: dict, path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, default=_encode) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    tol = getattr(args, "tol", 0.0)
    if not (tol >= 0 and math.isfinite(tol)):
        print(f"error: --tol must be finite and >= 0, got {tol!r}", file=sys.stderr)
        return EXIT_USAGE
    seed = getattr(args, "seed", 0)
    if seed < 0:
        print(f"error: --seed must be >= 0, got {seed}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, report, seq = _run(args)
    except (DomainError, ConvergenceError, FloatingPointError) as e:
        # must precede ValueError: DomainError is a ValueError subclass
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (KeyError, OSError, ValueError) as e:
        # a UsageError, unknown builtin, unreadable file, schema violation,
        # infeasible base point, unsatisfied convexity hypothesis, ...
        msg = e.args[0] if e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_USAGE
    # the CSV first, so that a CSV that cannot be written leaves no report
    path = getattr(args, "csv", None)
    try:
        if path:
            save_sequence_csv(seq, path)
        path = args.report
        _emit(report, path)
    except OSError as e:
        print(f"error: cannot write {path}: {e.strerror or e}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
