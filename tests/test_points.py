"""The point rule at every problem-level entry point: a point of a
problem is n finite reals (`Problem.check_point`), and nothing that
evaluates, solves or certifies at a point accepts another shape."""
import dataclasses
import math

import numpy as np
import pytest

from akkt.certify import (
    certify_weak_efficiency_convex,
    check_akkt_conditions,
    check_kkt,
    check_qncq_sufficient,
    kkt_from_akkt,
    weak_efficiency_oracle,
)
from akkt.minnorm import residual_m, residual_m_detail
from akkt.penalty import (
    ProblemKernel,
    extract_multipliers,
    generate_akkt_sequence,
    solve_subproblem,
    stationarity_model,
)
from akkt.problem import check_feasible, constraint_values, feasibility_violation


def _round(kern, x):
    n = kern.pr.n
    kern.subgrad_round(1.0, 1.0, 0.1, 1, 1, x, np.empty(n), np.empty(n))


# entry point name -> (name of the point in the message, call(pr, xbar, seq, x))
ENTRY_POINTS = {
    "ProblemKernel": ("xbar", lambda pr, xb, seq, x: ProblemKernel(pr, x)),
    "generate_akkt_sequence": ("xbar", lambda pr, xb, seq, x: generate_akkt_sequence(pr, x)),
    "eval_phik": ("x", lambda pr, xb, seq, x: ProblemKernel(pr, xb).eval_phik(1.0, x)),
    "subgradient": ("x", lambda pr, xb, seq, x: ProblemKernel(pr, xb).subgradient(1.0, x)),
    "subgrad_round": ("x", lambda pr, xb, seq, x: _round(ProblemKernel(pr, xb), x)),
    "solve_subproblem": ("x_init", lambda pr, xb, seq, x:
                         solve_subproblem(ProblemKernel(pr, xb), 1.0, x_init=x)),
    "stationarity_model": ("x", lambda pr, xb, seq, x:
                           stationarity_model(ProblemKernel(pr, xb), x, 1.0)),
    "extract_multipliers": ("x", lambda pr, xb, seq, x:
                            extract_multipliers(ProblemKernel(pr, xb), x, 1.0)),
    "constraint_values": ("x", lambda pr, xb, seq, x: constraint_values(pr, x)),
    "feasibility_violation": ("x", lambda pr, xb, seq, x: feasibility_violation(pr, x)),
    "check_feasible": ("x", lambda pr, xb, seq, x: check_feasible(pr, x)),
    "residual_m": ("x", lambda pr, xb, seq, x: residual_m(pr, x, seq.records[-1].mult)),
    "residual_m_detail": ("x", lambda pr, xb, seq, x:
                          residual_m_detail(pr, x, seq.records[-1].mult, mode="prime")),
    "check_akkt_conditions": ("xbar", lambda pr, xb, seq, x:
                              check_akkt_conditions(seq.records, pr, x, tol=1e-2)),
    "kkt_from_akkt": ("xbar", lambda pr, xb, seq, x: kkt_from_akkt(seq.records, pr, x)),
    "check_kkt": ("xbar", lambda pr, xb, seq, x: check_kkt(pr, x)),
    "check_qncq_sufficient": ("xbar", lambda pr, xb, seq, x: check_qncq_sufficient(pr, x)),
    "certify_weak_efficiency_convex": ("xbar", lambda pr, xb, seq, x:
                                       certify_weak_efficiency_convex(pr, x, seq.records)),
    "weak_efficiency_oracle": ("xbar", lambda pr, xb, seq, x:
                               weak_efficiency_oracle(pr, x, -10.0, 10.0, step=0.5)),
}

RECORD_CONSUMERS = {
    "check_akkt_conditions": lambda pr, xb, recs: check_akkt_conditions(recs, pr, xb, tol=1e-2),
    "kkt_from_akkt": lambda pr, xb, recs: kkt_from_akkt(recs, pr, xb),
    "certify_weak_efficiency_convex": lambda pr, xb, recs:
        certify_weak_efficiency_convex(pr, xb, recs),
}


def _wrong_shapes(xbar):
    """Too short, too long and 2-d variants of a valid point."""
    return xbar[:-1], np.append(xbar, 9.0), xbar[None, :]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_wrong_shape_refused(corpus, entry):
    name, call = ENTRY_POINTS[entry]
    for pr, xbar, seq in corpus:
        for x in _wrong_shapes(xbar):
            with pytest.raises(ValueError, match=rf"^{name} must have shape \({pr.n},\)$"):
                call(pr, xbar, seq, x)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_refused(corpus, entry):
    _, call = ENTRY_POINTS[entry]
    for pr, xbar, seq in corpus:
        for bad in (math.nan, math.inf):
            x = xbar.copy()
            x[0] = bad
            with pytest.raises(ValueError, match="^point contains non-finite values$"):
                call(pr, xbar, seq, x)


@pytest.mark.parametrize("entry", sorted(RECORD_CONSUMERS))
def test_record_of_wrong_length_refused(corpus, entry):
    for pr, xbar, seq in corpus:
        if entry == "certify_weak_efficiency_convex" and pr.name == "nonconvex-max":
            continue  # refused for its convexity flags before the records are read
        last = seq.records[-1]
        recs = seq.records[:-1] + (dataclasses.replace(last, x=np.append(last.x, 9.0)),)
        with pytest.raises(ValueError, match=rf"^record x must have shape \({pr.n},\)$"):
            RECORD_CONSUMERS[entry](pr, xbar, recs)


def test_check_point_returns_float64_vector(p3):
    x = p3.check_point([1, 2])
    assert x.dtype == np.float64 and x.tolist() == [1.0, 2.0]
    arr = np.array([0.5, 0.5])
    assert p3.check_point(arr) is arr


def test_one_feasibility_message(p1):
    # mangasarian at 0.5: x^2 <= 0 is violated by 0.25
    for call, limit in ((lambda: generate_akkt_sequence(p1, [0.5]), "1e-08"),
                        (lambda: check_qncq_sufficient(p1, [0.5]), "1e-08"),
                        (lambda: check_kkt(p1, [0.5]), "1e-06"),
                        (lambda: check_kkt(p1, [0.5], tol=0.1), "1e-01")):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == f"point violates the constraints by 2.500e-01 (limit {limit})"
    check_feasible(p1, [0.0])
