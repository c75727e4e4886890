"""Problem model: pointwise-max functions, constrained multiobjective
programs, JSON serialization, and the built-in catalog.

A function is f(x) = max_j piece_j(x) with smooth pieces; equality
constraints are restricted to a single smooth piece.  The JSON schema:

    {"name": str, "n": int,
     "objectives":   [{"pieces": [exprstr, ...], "convex": bool}, ...],
     "inequalities": [{"pieces": [exprstr, ...], "convex": bool}, ...],
     "equalities":   [exprstr, ...]}

`convex` is a user assertion, never verified at load time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .expr import Expr, ParseError, parse_expr, unparse
from .tape import Tape, compile_tape, eval_tapes, eval_values
from .tape import eval_grad  # noqa: F401 - perfbench's tracer test checks this binding


FEASIBILITY_TOL = 1e-8  # aggregate violation a base point may have


class ProblemFormatError(ValueError):
    """A problem file or dict violates the schema."""


@dataclass(frozen=True)
class PiecewiseMaxFn:
    """Pointwise max of smooth pieces, with a user-asserted convexity flag.

    The piece tapes are compiled once, at construction; every evaluation
    runs them through `eval_values` or `eval_tapes`.
    """

    pieces: tuple[Expr, ...]
    label: str = ""
    convex: bool = False
    tapes: tuple[Tape, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tapes", tuple(compile_tape(p) for p in self.pieces))

    def value(self, x) -> float:
        return max(eval_values(self.tapes, x))

    def value_and_gradients(self, x) -> tuple[float, list[float], list[np.ndarray]]:
        """Returns (max value, piece values, piece gradients)."""
        vals, grads = eval_tapes(self.tapes, x)
        return max(vals), vals, grads


@dataclass(frozen=True)
class Problem:
    """min (f_1..f_p) s.t. g_i <= 0, h_j = 0 on R^n.

    The equality tapes are compiled once, at construction, and run
    through `eval_values` or `eval_tapes` at every point.
    """

    name: str
    n: int
    objectives: tuple[PiecewiseMaxFn, ...]
    inequalities: tuple[PiecewiseMaxFn, ...] = ()
    equalities: tuple[Expr, ...] = ()
    eq_tapes: tuple[Tape, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "eq_tapes",
                           tuple(compile_tape(h) for h in self.equalities))

    def check_point(self, x, name: str = "x") -> np.ndarray:
        """x as a float64 array of shape (n,), the one form of a point of
        this problem; ValueError if it has another shape or a non-finite
        entry.  Plain Python past the conversion: the penalty kernels run
        it on every call."""
        xa = np.asarray(x, dtype=np.float64)
        if xa.shape != (self.n,):
            raise ValueError(f"{name} must have shape ({self.n},)")
        for v in xa.tolist():
            if not math.isfinite(v):
                raise ValueError("point contains non-finite values")
        return xa

    @property
    def p(self) -> int:
        return len(self.objectives)

    @property
    def m(self) -> int:
        return len(self.inequalities)

    @property
    def r(self) -> int:
        return len(self.equalities)


@dataclass(frozen=True)
class FeasibilityReport:
    ineq: float       # max_i max(g_i(x), 0)
    eq: float         # max_j |h_j(x)|
    aggregate: float  # max of the two


def constraint_values(pr: Problem, x) -> tuple[list[float], list[float]]:
    """(g_i(x) per inequality, h_j(x) per equality), in problem order;
    x must pass `Problem.check_point`."""
    xa = pr.check_point(x)
    return [g.value(xa) for g in pr.inequalities], eval_values(pr.eq_tapes, xa)


def feasibility_violation(pr: Problem, x) -> FeasibilityReport:
    gvals, hvals = constraint_values(pr, x)
    ineq = 0.0
    for v in gvals:
        ineq = max(ineq, v, 0.0)
    eq = 0.0
    for v in hvals:
        eq = max(eq, abs(v))
    return FeasibilityReport(ineq=ineq, eq=eq, aggregate=max(ineq, eq))


def check_feasible(pr: Problem, x, limit: float = FEASIBILITY_TOL) -> None:
    """ValueError unless x violates the constraints by at most `limit`
    (aggregate of `feasibility_violation`)."""
    violation = feasibility_violation(pr, x).aggregate
    if violation > limit:
        raise ValueError(
            f"point violates the constraints by {violation:.3e} (limit {limit:.0e})"
        )


def _parse_fn(entry, n: int, label: str) -> PiecewiseMaxFn:
    if not isinstance(entry, dict):
        raise ProblemFormatError(f"{label}: expected an object with 'pieces'")
    pieces = entry.get("pieces")
    if not isinstance(pieces, list) or not pieces:
        raise ProblemFormatError(f"{label}: 'pieces' must be a non-empty list")
    convex = entry.get("convex", False)
    if not isinstance(convex, bool):
        raise ProblemFormatError(f"{label}: 'convex' must be a boolean")
    parsed = []
    for idx, text in enumerate(pieces):
        if not isinstance(text, str):
            raise ProblemFormatError(f"{label}: piece {idx} must be a string")
        try:
            parsed.append(parse_expr(text, n))
        except ParseError as exc:
            raise ProblemFormatError(f"{label}: piece {idx}: {exc}") from exc
    return PiecewiseMaxFn(pieces=tuple(parsed), label=label, convex=convex)


def load_problem_dict(data) -> Problem:
    """Validate and build a Problem from a schema dict."""
    if not isinstance(data, dict):
        raise ProblemFormatError("problem must be a JSON object")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ProblemFormatError("'name' must be a string")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ProblemFormatError("'n' must be an integer >= 1")
    objectives = data.get("objectives")
    if not isinstance(objectives, list) or not objectives:
        raise ProblemFormatError("'objectives' must be a non-empty list")

    objs = tuple(
        _parse_fn(entry, n, f"objective {i}") for i, entry in enumerate(objectives)
    )
    ineqs = data.get("inequalities", [])
    if not isinstance(ineqs, list):
        raise ProblemFormatError("'inequalities' must be a list")
    ins = tuple(
        _parse_fn(entry, n, f"inequality {i}") for i, entry in enumerate(ineqs)
    )
    eqs_raw = data.get("equalities", [])
    if not isinstance(eqs_raw, list):
        raise ProblemFormatError("'equalities' must be a list")
    eqs = []
    for j, text in enumerate(eqs_raw):
        if not isinstance(text, str):
            raise ProblemFormatError(
                f"equality {j}: must be a single smooth expression string "
                "(piecewise equalities are not supported)"
            )
        try:
            eqs.append(parse_expr(text, n))
        except ParseError as exc:
            raise ProblemFormatError(f"equality {j}: {exc}") from exc

    extra = set(data) - {"name", "n", "objectives", "inequalities", "equalities"}
    if extra:
        raise ProblemFormatError(f"unknown keys: {sorted(extra)}")
    return Problem(name=name, n=n, objectives=objs, inequalities=ins, equalities=tuple(eqs))


def problem_to_dict(pr: Problem) -> dict:
    def fn_entry(fn: PiecewiseMaxFn) -> dict:
        return {"pieces": [unparse(p) for p in fn.pieces], "convex": fn.convex}

    return {
        "name": pr.name,
        "n": pr.n,
        "objectives": [fn_entry(f) for f in pr.objectives],
        "inequalities": [fn_entry(g) for g in pr.inequalities],
        "equalities": [unparse(h) for h in pr.equalities],
    }


def load_problem(path: str) -> Problem:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path} is not valid JSON: {exc}") from exc
    return load_problem_dict(data)


def save_problem(pr: Problem, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(pr), fh, indent=2, sort_keys=True)
        fh.write("\n")


_CATALOG_DEFS = (
    {
        "name": "mangasarian",
        "n": 1,
        "objectives": [{"pieces": ["x0"], "convex": True}],
        "inequalities": [{"pieces": ["x0^2"], "convex": True}],
        "equalities": [],
    },
    {
        "name": "abs-biobjective",
        "n": 1,
        "objectives": [
            {"pieces": ["x0", "-x0"], "convex": True},
            {"pieces": ["x0 - 1", "1 - x0"], "convex": True},
        ],
        "inequalities": [],
        "equalities": [],
    },
    {
        "name": "linear-tradeoff",
        "n": 2,
        "objectives": [
            {"pieces": ["x0"], "convex": True},
            {"pieces": ["x1"], "convex": True},
        ],
        "inequalities": [],
        "equalities": ["x0 + x1 - 1"],
    },
    {
        "name": "nonconvex-max",
        "n": 1,
        "objectives": [{"pieces": ["x0", "-2*x0"], "convex": False}],
        "inequalities": [{"pieces": ["x0 - 1"], "convex": False}],
        "equalities": [],
    },
)


def catalog() -> tuple[Problem, ...]:
    """Built-in test problems, loaded through the standard validator."""
    return tuple(load_problem_dict(d) for d in _CATALOG_DEFS)


def builtin(name: str) -> Problem:
    for d in _CATALOG_DEFS:
        if d["name"] == name:
            return load_problem_dict(d)
    known = ", ".join(d["name"] for d in _CATALOG_DEFS)
    raise KeyError(f"unknown builtin problem {name!r} (known: {known})")


def resolve_problem(source: str) -> Problem:
    """Load from 'builtin:<name>' or from a file path."""
    if source.startswith("builtin:"):
        try:
            return builtin(source[len("builtin:"):])
        except KeyError as exc:
            raise ProblemFormatError(str(exc)) from exc
    return load_problem(source)
