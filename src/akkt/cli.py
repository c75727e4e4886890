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
2 usage/configuration error; 3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
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

_SEQUENCE_COMMANDS = ("penalty", "certify-akkt", "certify-convex")


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
    lo = _parse_point(lo_text, pr)
    hi = _parse_point(hi_text, pr)
    return lo, hi


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


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


def _verdict_payload(verdicts) -> list[dict]:
    return [
        {
            "condition": v.condition,
            "outcome": v.outcome,
            "evidence": v.evidence,
            "tolerance": v.tolerance,
        }
        for v in verdicts
    ]


def _build_config(args, pr: Problem) -> PenaltyConfig:
    kwargs = {}
    if args.schedule is not None:
        kwargs["schedule"] = _parse_schedule(args.schedule)
    if args.delta is not None:
        kwargs["delta"] = args.delta
    if args.eps_act is not None:
        kwargs["eps_act"] = args.eps_act
    try:
        return PenaltyConfig(**kwargs)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _base_report(args, pr: Problem | None = None, point=None) -> dict:
    rep = {"tool": "akkt", "command": args.command, "seed": getattr(args, "seed", None)}
    if pr is not None:
        rep["problem"] = pr.name
        rep["source"] = args.problem
    if point is not None:
        rep["point"] = point
    return rep


def _cmd_penalty(args):
    pr = resolve_problem(args.problem)
    point = _parse_point(args.point, pr)
    cfg = _build_config(args, pr)
    seq = generate_akkt_sequence(pr, point, cfg)
    flagged = [r.k for r in seq.records if r.flagged]
    report = _base_report(args, pr, point)
    report.update({
        "parameters": {
            "delta": cfg.delta,
            "schedule": cfg.schedule,
            "eps_act": cfg.eps_act,
        },
        "verdict": "holds" if seq.records and not flagged else "fails",
        "records": [_record_payload(r) for r in seq.records],
        "flagged_weights": flagged,
        "notes": [MODEL_NOTE],
    })
    code = EXIT_HOLDS if report["verdict"] == "holds" else EXIT_FAILS
    return code, report, seq


def _cmd_certify_akkt(args):
    pr = resolve_problem(args.problem)
    point = _parse_point(args.point, pr)
    cfg = _build_config(args, pr)
    seq = generate_akkt_sequence(pr, point, cfg)
    verdicts = check_akkt_conditions(
        seq.records, pr, point, tol=args.tol,
        eps_act=cfg.eps_act, residual_mode=args.mode,
    )
    recovery = kkt_from_akkt(seq.records, pr, point, eps_act=cfg.eps_act)
    all_hold = all(v.outcome == "holds" for v in verdicts)
    report = _base_report(args, pr, point)
    report.update({
        "parameters": {
            "delta": cfg.delta,
            "schedule": cfg.schedule,
            "tol": args.tol,
            "eps_act": cfg.eps_act,
            "mode": args.mode,
        },
        "verdict": "holds" if all_hold else "fails",
        "conditions": _verdict_payload(verdicts),
        "kkt_recovery": {
            "outcome": recovery.outcome,
            "residual": recovery.residual,
            "evidence": recovery.evidence,
        },
        "records": [_record_payload(r) for r in seq.records],
        "notes": [MODEL_NOTE, NORMALIZATION_NOTE],
    })
    code = EXIT_HOLDS if all_hold else EXIT_FAILS
    return code, report, seq


def _cmd_check_kkt(args):
    pr = resolve_problem(args.problem)
    point = _parse_point(args.point, pr)
    eps_act = args.eps_act if args.eps_act is not None else DEFAULT_EPS_ACT
    res = check_kkt(pr, point, eps_act=eps_act, tol=args.tol)
    report = _base_report(args, pr, point)
    report.update({
        "parameters": {"tol": args.tol, "eps_act": eps_act},
        "verdict": "holds" if res.holds else "fails",
        "residual": res.residual,
        "multipliers": {
            "lambda": res.mult.lam,
            "mu": res.mult.mu,
            "tau": res.mult.tau,
        },
        "active_inequalities": res.active_inequalities,
        "notes": [MODEL_NOTE, NORMALIZATION_NOTE],
    })
    code = EXIT_HOLDS if res.holds else EXIT_FAILS
    return code, report, None


def _cmd_certify_convex(args):
    pr = resolve_problem(args.problem)
    point = _parse_point(args.point, pr)
    cfg = _build_config(args, pr)
    seq = generate_akkt_sequence(pr, point, cfg)
    cert = certify_weak_efficiency_convex(
        pr, point, seq.records, tol=args.tol, seed=args.seed, eps_act=cfg.eps_act,
    )
    report = _base_report(args, pr, point)
    report.update({
        "parameters": {
            "delta": cfg.delta,
            "schedule": cfg.schedule,
            "tol": args.tol,
            "eps_act": cfg.eps_act,
            "seed": args.seed,
        },
        "verdict": "holds" if cert.certified else "fails",
        "conditions": _verdict_payload(cert.verdicts),
        "evidence": cert.evidence,
        "notes": [MODEL_NOTE, NORMALIZATION_NOTE],
    })
    code = EXIT_HOLDS if cert.certified else EXIT_FAILS
    return code, report, seq


def _cmd_oracle(args):
    pr = resolve_problem(args.problem)
    point = _parse_point(args.point, pr)
    lo, hi = _parse_box(args.box, pr)
    try:
        res = weak_efficiency_oracle(pr, point, lo, hi, step=args.step)
    except DomainError:
        raise  # a ValueError too, but a numerical failure: main() exits 3
    except ValueError as e:
        raise UsageError(str(e)) from None
    report = _base_report(args, pr, point)
    report.update({
        "parameters": {"box_lo": lo, "box_hi": hi, "step": args.step},
        "verdict": "holds" if res.weakly_efficient else "fails",
        "weakly_efficient": res.weakly_efficient,
        "counterexample": res.counterexample,
        "points_checked": res.points_checked,
        "feasible_points": res.feasible_points,
        "notes": [MODEL_NOTE],
    })
    code = EXIT_HOLDS if res.weakly_efficient else EXIT_FAILS
    return code, report, None


def _cmd_catalog(args):
    rows = [
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
    report = _base_report(args)
    report.update({"verdict": "holds", "problems": rows})
    return EXIT_HOLDS, report, None


_HANDLERS = {
    "penalty": _cmd_penalty,
    "certify-akkt": _cmd_certify_akkt,
    "check-kkt": _cmd_check_kkt,
    "certify-convex": _cmd_certify_convex,
    "oracle": _cmd_oracle,
    "catalog": _cmd_catalog,
}


def _add_common(sub, *, point=True, tol_default=1e-6):
    if point:
        sub.add_argument("problem", help="problem source: a file path or builtin:<name>")
        sub.add_argument("--point", required=True,
                         help="candidate point, comma-separated reals")
    sub.add_argument("--tol", type=float, default=tol_default,
                     help=f"verdict tolerance (default {tol_default:g})")
    sub.add_argument("--eps-act", type=float, default=None, dest="eps_act",
                     help="activity tolerance for subdifferential polytopes")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for sampled spot checks (default 0)")
    sub.add_argument("--report", default=None,
                     help="write the JSON report to this path instead of stdout")


def _add_sequence_flags(sub):
    sub.add_argument("--delta", type=float, default=None,
                     help="trust-ball radius around the candidate point")
    sub.add_argument("--schedule", default=None,
                     help="penalty weights: geometric:A..B or a comma list")
    sub.add_argument("--csv", default=None,
                     help="also export the sequence records as CSV to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akkt",
        description="Generate and certify approximate-KKT sequences for "
                    "nonsmooth multiobjective problems.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("penalty", help="generate a penalty-path AKKT sequence")
    _add_common(p)
    _add_sequence_flags(p)

    p = subs.add_parser("certify-akkt", help="certify the AKKT conditions on a sequence")
    _add_common(p, tol_default=1e-2)
    _add_sequence_flags(p)
    p.add_argument("--mode", choices=("general", "prime"), default="general",
                   help="equality-sign handling in the residual (default general)")

    p = subs.add_parser("check-kkt", help="test exact KKT stationarity at a point")
    _add_common(p)

    p = subs.add_parser("certify-convex",
                        help="convex-case weak-efficiency certificate")
    _add_common(p)
    _add_sequence_flags(p)

    p = subs.add_parser("oracle", help="brute-force weak-efficiency scan (n <= 3)")
    _add_common(p)
    p.add_argument("--box", required=True,
                   help="search box LO..HI with comma-separated corner points; "
                        "use the --box=-1..1 form for a negative lower corner")
    p.add_argument("--step", type=float, default=1e-3,
                   help="grid step (default 1e-3)")

    p = subs.add_parser("catalog", help="list the built-in problems")
    p.add_argument("--report", default=None,
                   help="write the JSON report to this path instead of stdout")

    return parser


def _emit(report: dict, path: str | None) -> None:
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "csv", None) and args.command not in _SEQUENCE_COMMANDS:
        print(f"error: --csv is not supported by {args.command!r}", file=sys.stderr)
        return EXIT_USAGE
    tol = getattr(args, "tol", 0.0)
    if not (tol >= 0 and math.isfinite(tol)):
        print(f"error: --tol must be finite and >= 0, got {tol!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, report, seq = _HANDLERS[args.command](args)
    except (DomainError, ConvergenceError, FloatingPointError) as e:
        # must precede ValueError: DomainError is a ValueError subclass
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, OSError, ValueError) as e:
        # unknown builtin, unreadable file, schema violation, infeasible
        # base point, unsatisfied convexity hypothesis, ...
        msg = e.args[0] if e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_USAGE
    _emit(report, args.report)
    if seq is not None and getattr(args, "csv", None):
        save_sequence_csv(seq, args.csv)
    return code


if __name__ == "__main__":
    sys.exit(main())
