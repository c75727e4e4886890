"""The generated phi_k program (`emit_program`, run by `eval_phi_k` and
`subgrad_round`) against the interpreted loops it replaced, kept in
`_oracles`: status, bad instruction, every float and every point buffer
must agree bitwise."""
import struct

import numpy as np
import pytest

import akkt._kernels_py as kernels_py
from akkt.expr import DomainError
from akkt.penalty import ProblemKernel
from akkt.problem import builtin, load_problem_dict

from _oracles import phik_reference, round_reference
from _synthetic import random_point, random_problem

KS = (1.0, 1e2, 1e6)


def _bits(*values):
    floats = []
    for v in values:
        floats.extend(v if isinstance(v, (list, tuple, np.ndarray)) else [v])
    return struct.pack(f"<{len(floats)}d", *floats)


def _assert_phik_agrees(kern, k, x):
    got = kernels_py.eval_phi_k(*kern._program, k, x)
    ref = phik_reference(kern, k, x)
    assert got[:2] == ref[:2], (kern.pr.name, k, x)
    assert _bits(*got[2:]) == _bits(*ref[2:]), (kern.pr.name, k, x)
    return got


def _assert_round_agrees(kern, k, x, delta=1.0, c=0.1, L=40):
    n = len(x)
    outs = []
    for run in (lambda *a: kernels_py.subgrad_round(*kern._program, *a),
                lambda *a: round_reference(kern, *a)):
        x_io, x_best, x_avg = np.array(x, dtype=float), np.zeros(n), np.zeros(n)
        status, bad, f_best, halted, n_done = run(k, delta, c, L, max(1, L // 2),
                                                  x_io, x_best, x_avg)
        outs.append(((status, bad, halted, n_done), _bits(f_best, x_io, x_best, x_avg)))
    assert outs[0] == outs[1], (kern.pr.name, k, x)
    return outs[0][0]


@pytest.mark.parametrize("k", KS)
def test_random_problems_agree_bitwise(k):
    rng = np.random.default_rng(8)
    for _ in range(20):
        pr = random_problem(rng)
        kern = ProblemKernel(pr, random_point(rng, pr.n))
        for _ in range(3):
            assert _assert_phik_agrees(kern, k, random_point(rng, pr.n))[0] == 0
        assert _assert_round_agrees(kern, k, random_point(rng, pr.n))[0] == 0


@pytest.mark.parametrize("name, xbar", [
    ("mangasarian", [0.0]), ("abs-biobjective", [0.5]),
    ("linear-tradeoff", [0.5, 0.5]), ("nonconvex-max", [0.0]),
])
@pytest.mark.parametrize("k", KS)
def test_catalog_problems_agree_bitwise(name, xbar, k):
    rng = np.random.default_rng(9)
    kern = ProblemKernel(builtin(name), xbar)
    for x in [xbar] + [random_point(rng, len(xbar)) for _ in range(5)]:
        _assert_phik_agrees(kern, k, x)
        _assert_round_agrees(kern, k, x)


@pytest.mark.parametrize("name, xbar, x, d0", [
    ("abs-biobjective", [0.0], [0.0], 1.0),     # pieces x0, -x0 tie at 0
    ("abs-biobjective", [0.0], [-0.0], 1.0),
    ("abs-biobjective", [0.5], [0.5], 1.0),     # both objective gaps tie at 0
    ("nonconvex-max", [0.0], [0.0], 1.0),       # pieces x0, -2*x0 tie at 0
])
def test_exact_ties_keep_the_lowest_index(name, xbar, x, d0):
    kern = ProblemKernel(builtin(name), xbar)
    got = _assert_phik_agrees(kern, 1.0, x)
    # the proximal term x - xbar is the only other part of d here
    assert _bits(got[4][0]) == _bits(d0 + (x[0] - xbar[0]))
    _assert_round_agrees(kern, 1.0, x)


GUARDS = {"name": "guards", "n": 2,
          "objectives": [{"pieces": ["x0"]}, {"pieces": ["x1", "log(x0 - 1)"]}],
          "inequalities": [{"pieces": ["x0 - 10", "sqrt(x1 + 3)"]}],
          "equalities": ["x0 + 1/(x1 - 4)"]}


@pytest.mark.parametrize("x, status", [
    ([0.5, 0.0], 2),     # objective piece
    ([2.0, -5.0], 3),    # inequality piece
    ([2.0, 4.0], 1),     # equality
])
def test_guards_agree(x, status):
    kern = ProblemKernel(load_problem_dict(GUARDS), [2.0, 0.0])
    assert _assert_phik_agrees(kern, 1.0, x)[0] == status
    assert _assert_round_agrees(kern, 1.0, x)[0] == status


def test_guard_partway_through_a_round_agrees():
    # steps left from xbar until log(x0) trips; x_io carries that iterate out
    kern = ProblemKernel(load_problem_dict({
        "name": "edge", "n": 1, "objectives": [{"pieces": ["x0", "log(x0)"]}]}), [1.0])
    status, _, halted, n_done = _assert_round_agrees(kern, 1.0, [1.0], delta=5.0, c=0.5)
    assert (status, halted) == (2, 0) and 1 < n_done < 40


def test_zero_subgradient_halts_the_round():
    kern = ProblemKernel(load_problem_dict({
        "name": "flat", "n": 2, "objectives": [{"pieces": ["x0^2 + x1^2"]}]}), [0.0, 0.0])
    assert _assert_round_agrees(kern, 1.0, [0.0, 0.0]) == (0, -1, 1, 1)


def test_overflowing_objective_gap_agrees():
    kern = ProblemKernel(load_problem_dict({
        "name": "overflow", "n": 1, "objectives": [{"pieces": ["1e308*x0"]}],
        "equalities": ["0.5*x0 - 0.5*x0"]}), [1.0])
    assert _assert_phik_agrees(kern, 1.0, [-1.0])[:2] == (5, 2)
    assert _assert_round_agrees(kern, 1.0, [-1.0])[:2] == (5, 2)


def test_overflowing_subgradient_norm_ends_the_round():
    # d = 1e308 - 0.5 is finite but its norm is not, so the step would be 0
    kern = ProblemKernel(load_problem_dict({
        "name": "steep", "n": 1, "objectives": [{"pieces": ["1e308*x0"]}]}), [1.0])
    assert _assert_round_agrees(kern, 1.0, [0.5], delta=3.0, c=1.0, L=5) == (5, 2, 0, 1)
    with pytest.raises(DomainError, match="non-finite value in subexpression '1e"):
        kern.subgrad_round(1.0, 3.0, 1.0, 5, 1, np.array([0.5]), np.zeros(1), np.zeros(1))


def test_equal_problems_share_one_program():
    def problem():  # constants no other test uses, so nothing is cached yet
        return load_problem_dict({
            "name": "shared", "n": 2,
            "objectives": [{"pieces": ["x0 - 0.3125", "x1^2 + 0.3125"]}],
            "inequalities": [{"pieces": ["x0 + x1 - 3.3125"]}],
            "equalities": ["x0 - x1 + 0.3125"],
        })

    misses = kernels_py.emit_program.cache_info().misses
    a = ProblemKernel(problem(), [0.0, 0.0])
    b = ProblemKernel(problem(), [0.5, 0.5])
    assert kernels_py.emit_program.cache_info().misses == misses + 1
    assert a._program[1] is b._program[1]
    for kern in (a, b):
        _assert_phik_agrees(kern, 10.0, [0.25, -0.75])
        _assert_round_agrees(kern, 10.0, [0.25, -0.75])
