"""Bitwise parity between the compiled kernels and the pure-Python twin."""
import os

import numpy as np
import pytest

from akkt import _kernels_py
from akkt.backend import BACKEND
from akkt.expr import parse_expr
from akkt.penalty import ProblemKernel
from akkt.problem import builtin
from akkt.tape import bundle_tapes, compile_tape

from _synthetic import random_expr_text, random_point

compiled = pytest.importorskip(
    "akkt._kernels", reason="compiled kernel extension not built"
)

CASES = [
    ("mangasarian", [0.0], [0.3], [-0.7]),
    ("abs-biobjective", [0.5], [0.0], [1.2]),
    ("linear-tradeoff", [0.5, 0.5], [0.2, 0.9], [-0.3, 0.4]),
    ("nonconvex-max", [0.0], [0.5], [-0.5]),
]


def _phi_k_args(kern, k, x):
    b = kern.bundle
    xa = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    return (b.ops, b.arg, b.consts, b.starts, kern.obj_ps, kern.ineq_ps,
            kern.n_eq, kern.fbar, kern.xbar, float(k), xa, b.max_stack)


def test_backend_selection():
    if os.environ.get("AKKT_PURE_PYTHON"):
        assert BACKEND == "python"
    else:
        assert BACKEND == "compiled"


@pytest.mark.parametrize("name,xbar,xa,xb", CASES)
def test_eval_phi_k_parity(name, xbar, xa, xb):
    kern = ProblemKernel(builtin(name), xbar)
    for k in (1.0, 100.0, 1e6):
        for x in (xbar, xa, xb):
            got_c = compiled.eval_phi_k(*_phi_k_args(kern, k, x))
            got_p = _kernels_py.eval_phi_k(*_phi_k_args(kern, k, x))
            assert got_c == got_p


@pytest.mark.parametrize("name,xbar,xa,xb", CASES)
def test_subgrad_round_trajectory_parity(name, xbar, xa, xb):
    kern = ProblemKernel(builtin(name), xbar)
    b = kern.bundle
    n = kern.xbar.size
    for k, x0 in ((1.0, xa), (1e4, xb)):
        state = {}
        for mod in (compiled, _kernels_py):
            x_io = np.ascontiguousarray(np.asarray(x0, dtype=np.float64)).copy()
            x_best = np.zeros(n)
            x_avg = np.zeros(n)
            out = mod.subgrad_round(
                b.ops, b.arg, b.consts, b.starts, kern.obj_ps, kern.ineq_ps,
                kern.n_eq, kern.fbar, kern.xbar, float(k), 1.0, 0.05, 40, 20,
                x_io, x_best, x_avg, b.max_stack,
            )
            state[mod.__name__] = (tuple(out), x_io.copy(), x_best.copy(), x_avg.copy())
        (out_c, io_c, best_c, avg_c) = state["akkt._kernels"]
        (out_p, io_p, best_p, avg_p) = state["akkt._kernels_py"]
        assert out_c == out_p
        assert np.array_equal(io_c, io_p)
        assert np.array_equal(best_c, best_p)
        assert np.array_equal(avg_c, avg_p)


def test_eval_tape_parity_on_random_expressions():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        e = parse_expr(random_expr_text(rng, n), n)
        bundle = bundle_tapes([compile_tape(e)])
        x = np.ascontiguousarray(random_point(rng, n))
        results = []
        for mod in (compiled, _kernels_py):
            grad = np.zeros(n)
            out = mod.eval_tape(
                bundle.ops, bundle.arg, bundle.consts,
                int(bundle.starts[0]), int(bundle.starts[1]),
                x, grad, bundle.max_stack,
            )
            results.append((tuple(out), grad.copy()))
        assert results[0][0] == results[1][0]
        assert np.array_equal(results[0][1], results[1][1])
