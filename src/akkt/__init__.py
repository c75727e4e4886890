"""Penalty-generated approximate-KKT sequences and certification for
nonsmooth multiobjective programs with max-of-smooth objectives and
constraints."""

from .backend import BACKEND
from .certify import (
    KktRecovery,
    KktResult,
    OracleResult,
    QncqResult,
    Verdict,
    certify_weak_efficiency_convex,
    check_akkt_conditions,
    check_kkt,
    check_qncq_sufficient,
    kkt_from_akkt,
    weak_efficiency_oracle,
)
from .expr import DomainError, Expr, ExprError, ParseError, parse_expr, unparse
from .minnorm import (
    ConvergenceError,
    MinNormResult,
    MultiplierTriple,
    min_norm_point,
    residual_m,
    residual_m_detail,
)
from .penalty import (
    PenaltyConfig,
    PenaltySequence,
    SequenceRecord,
    extract_multipliers,
    generate_akkt_sequence,
    geometric_schedule,
    save_sequence_csv,
    sequence_to_csv,
    solve_subproblem,
)
from .problem import (
    FeasibilityReport,
    PiecewiseMaxFn,
    Problem,
    builtin,
    catalog,
    feasibility_violation,
    load_problem,
    resolve_problem,
    save_problem,
)
from .subdiff import SubdiffPolytope, subdifferential
from .tape import eval_batch, eval_grad, eval_value

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ConvergenceError",
    "DomainError",
    "Expr",
    "ExprError",
    "FeasibilityReport",
    "KktRecovery",
    "KktResult",
    "MinNormResult",
    "MultiplierTriple",
    "OracleResult",
    "ParseError",
    "PenaltyConfig",
    "PenaltySequence",
    "PiecewiseMaxFn",
    "Problem",
    "QncqResult",
    "SequenceRecord",
    "SubdiffPolytope",
    "Verdict",
    "__version__",
    "builtin",
    "catalog",
    "certify_weak_efficiency_convex",
    "check_akkt_conditions",
    "check_kkt",
    "check_qncq_sufficient",
    "eval_batch",
    "eval_grad",
    "eval_value",
    "extract_multipliers",
    "feasibility_violation",
    "generate_akkt_sequence",
    "geometric_schedule",
    "kkt_from_akkt",
    "load_problem",
    "min_norm_point",
    "parse_expr",
    "residual_m",
    "residual_m_detail",
    "resolve_problem",
    "save_problem",
    "save_sequence_csv",
    "sequence_to_csv",
    "solve_subproblem",
    "subdifferential",
    "unparse",
]
