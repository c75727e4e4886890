"""Tape evaluation paths: scalar helpers, precompiled pieces and
equalities, batch rows."""
import itertools

import numpy as np
import pytest

from akkt import _kernels_py
from akkt.certify import certify_weak_efficiency_convex, check_kkt, check_qncq_sufficient
from akkt.expr import DomainError, parse_expr, unparse
from akkt.minnorm import MultiplierTriple, residual_m_detail
from akkt.penalty import ProblemKernel, stationarity_model
from akkt.problem import PiecewiseMaxFn, Problem, constraint_values, load_problem_dict
from akkt.tape import compile_tape, eval_batch, eval_grad, eval_value

from _oracles import batch_reference
from _synthetic import random_expr_text, random_guarded_expr_text, random_point


def test_eval_helpers_agree_with_python_kernel():
    rng = np.random.default_rng(78)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        e = parse_expr(random_expr_text(rng, n), n)
        x = random_point(rng, n)
        v, g = eval_grad(e, x)
        assert v == eval_value(e, x)
        assert np.all(np.isfinite(g))


def _value_only_calls(e, n):
    """eval_value, PiecewiseMaxFn.value and constraint_values on the one
    expression e, each as a function of the point."""
    fn = PiecewiseMaxFn(pieces=(e,))
    pr = Problem(name="one", n=n, objectives=(fn,), inequalities=(fn,), equalities=(e,))
    return (lambda x: eval_value(e, x), fn.value, lambda x: constraint_values(pr, x))


def test_value_only_calls_run_the_interpreter_at_gradient_width_0(monkeypatch):
    widths = []
    run_tape = _kernels_py._run_tape

    def spy(ops, arg, consts, i0, i1, x, n, vs, gs):
        widths.append(n)
        return run_tape(ops, arg, consts, i0, i1, x, n, vs, gs)

    monkeypatch.setattr(_kernels_py, "_run_tape", spy)
    e = parse_expr("x0 * x1 + sin(x0) / x1", 2)
    x = [0.3, -1.2]
    for call in _value_only_calls(e, 2):
        call(x)
    eval_grad(e, x)
    assert widths == [0, 0, 0, 0, 2]  # constraint_values runs g and h


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestPrecompiledPieces:
    def test_bitwise_equal_to_eval_grad_without_cache_lookups(self):
        rng = np.random.default_rng(79)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            pieces = tuple(parse_expr(random_expr_text(rng, n), n)
                           for _ in range(int(rng.integers(1, 4))))
            fn = PiecewiseMaxFn(pieces=pieces)
            x = random_point(rng, n)
            before = compile_tape.cache_info()
            vmax, vals, grads = fn.value_and_gradients(x)
            value = fn.value(x)
            assert compile_tape.cache_info() == before
            ref = [eval_grad(piece, x) for piece in pieces]
            assert _bits(vals) == _bits([v for v, _ in ref])
            for g, (_, g_ref) in zip(grads, ref):
                assert _bits(g) == _bits(g_ref)
            assert _bits(value) == _bits(vmax) == _bits(max(v for v, _ in ref))

    def test_same_domain_error_as_eval_grad(self):
        pieces = tuple(parse_expr(t, 2) for t in ("x0 + x1", "log(x0 - 1)", "sqrt(x1 - 3)"))
        fn = PiecewiseMaxFn(pieces=pieces)
        for x in ([0.0, 5.0], [2.0, 0.0]):
            with pytest.raises(DomainError) as ref:
                for piece in pieces:
                    eval_grad(piece, x)
            for method in (fn.value, fn.value_and_gradients):
                with pytest.raises(DomainError) as got:
                    method(x)
                assert str(got.value) == str(ref.value)

    def test_bad_point_rejected_like_eval_grad(self):
        fn = PiecewiseMaxFn(pieces=(parse_expr("x0", 1),))
        with pytest.raises(ValueError, match="non-finite"):
            fn.value([float("nan")])

    def test_selection_keeps_lowest_index_on_ties(self):
        # at x = xbar the kernel's subgradient is the selected piece's gradient
        for texts, grad in ((["x0", "x1"], [1.0, 0.0]), (["x1", "x0"], [0.0, 1.0])):
            pr = load_problem_dict({"name": "tie", "n": 2, "objectives": [{"pieces": texts}]})
            kern = ProblemKernel(pr, [1.0, 1.0])
            assert kern.subgradient(1.0, [1.0, 1.0]).tolist() == grad


class TestPrecompiledEqualities:
    def test_no_cache_lookups(self, p3, seq_p3):
        kern = ProblemKernel(p3, [0.5, 0.5])
        x = np.array([0.2, 0.9])
        mult = MultiplierTriple(lam=np.array([0.5, 0.5]), mu=np.zeros(0),
                                tau=np.array([3.0]))
        before = compile_tape.cache_info()
        constraint_values(p3, x)
        stationarity_model(kern, x, 10.0)
        residual_m_detail(p3, x, mult, mode="general")
        check_kkt(p3, [0.5, 0.5])
        check_qncq_sufficient(p3, [0.5, 0.5])
        certify_weak_efficiency_convex(p3, [0.5, 0.5], seq_p3.records)
        assert compile_tape.cache_info() == before

    def test_same_errors_as_eval_grad(self):
        texts = ["x0 + x1", "log(x0 - 1)"]
        pr = load_problem_dict({"name": "eq", "n": 2,
                                "objectives": [{"pieces": ["x0"]}],
                                "equalities": texts})
        hs = [parse_expr(t, 2) for t in texts]
        for x, exc, h in (([0.0, 5.0], DomainError, hs[1]),
                          ([float("nan"), 0.0], ValueError, hs[0])):
            with pytest.raises(exc) as ref:
                eval_grad(h, x)
            with pytest.raises(exc) as got:
                constraint_values(pr, x)
            assert str(got.value) == str(ref.value)
        # a point of the wrong dimension is refused before any tape runs
        with pytest.raises(ValueError, match=r"^x must have shape \(2,\)$"):
            constraint_values(pr, [3.0])
        kern = ProblemKernel(pr, [2.0, -2.0])
        with pytest.raises(DomainError) as got:
            kern.eval_phik(1.0, [0.0, 5.0])
        with pytest.raises(DomainError) as ref:
            eval_grad(hs[1], [0.0, 5.0])
        assert str(got.value) == str(ref.value)


def test_negative_power_underflow_is_a_domain_error_everywhere():
    # x0^-3 at 1e-120: x0*x0*x0 underflows to 0, so 1/(x0*x0*x0) is not finite
    e = parse_expr("x0^-3", 1)
    with pytest.raises(DomainError) as ref:
        eval_grad(e, [1e-120])
    assert str(ref.value) == "non-finite value in subexpression 'x0^-3'"
    kern = ProblemKernel(load_problem_dict({"name": "pow", "n": 1,
                                            "objectives": [{"pieces": ["x0^-3"]}]}), [1.0])
    for call in (lambda: kern.eval_phik(1.0, [1e-120]), lambda: kern.subgradient(1.0, [1e-120])):
        with pytest.raises(DomainError) as got:
            call()
        assert str(got.value) == str(ref.value)
    values, ok = eval_batch(e, np.array([[1e-120], [1.0]]))
    assert ok.tolist() == [False, True]
    assert values[1] == eval_value(e, [1.0])


class TestKernelErrorLocation:
    """The kernels run every tape of a problem as one program; a guard
    tripped anywhere in it must name the piece that tripped it."""

    PROBLEM = {"name": "guards", "n": 2,
               "objectives": [{"pieces": ["x0"]}, {"pieces": ["x1", "log(x0 - 1)"]}],
               "inequalities": [{"pieces": ["x0 - 10", "sqrt(x1 + 3)"]}],
               "equalities": ["x0 + x1"]}

    @pytest.mark.parametrize("x, piece", [
        ([0.5, 0.0], "log(x0 - 1)"),     # second objective
        ([2.0, -5.0], "sqrt(x1 + 3)"),   # inequality
    ])
    def test_same_error_as_eval_grad(self, x, piece):
        kern = ProblemKernel(load_problem_dict(self.PROBLEM), [2.0, 0.0])
        with pytest.raises(DomainError) as ref:
            eval_grad(parse_expr(piece, 2), x)

        def one_round():
            x_io = np.array(x)
            kern.subgrad_round(1.0, 1.0, 0.1, 1, 1, x_io, np.empty(2), np.empty(2))

        calls = (lambda: kern.eval_phik(1.0, x), lambda: kern.subgradient(1.0, x), one_round)
        for call in calls:
            with pytest.raises(DomainError) as got:
                call()
            assert str(got.value) == str(ref.value)

    def test_objective_gap_overflowing_everywhere_names_the_objective_piece(self):
        # f(-1) - f(1) = -1e308 - 1e308 overflows to -inf: no objective is
        # selected, so no subgradient exists there
        kern = ProblemKernel(load_problem_dict({
            "name": "overflow", "n": 1, "objectives": [{"pieces": ["1e308*x0"]}],
            "equalities": ["0.5*x0 - 0.5*x0"]}), [1.0])

        def one_round():
            x_io = np.array([-1.0])
            kern.subgrad_round(1.0, 1.0, 0.1, 1, 1, x_io, np.empty(1), np.empty(1))

        calls = (lambda: kern.eval_phik(1.0, [-1.0]), lambda: kern.subgradient(1.0, [-1.0]),
                 one_round)
        for call in calls:
            with pytest.raises(DomainError) as got:
                call()
            assert str(got.value) == "non-finite value in subexpression '1e+308 * x0'"


class TestBatch:
    @pytest.mark.parametrize("text", ["1/exp(x0)", "exp(-exp(x0))"])
    def test_nonfinite_intermediate_flags_the_row(self, text):
        e = parse_expr(text, 1)
        with pytest.raises(DomainError, match="non-finite"):
            eval_value(e, [800.0])
        vals, ok = eval_batch(e, np.array([[800.0], [0.5]]))
        assert ok.tolist() == [False, True]
        assert vals[1] == pytest.approx(eval_value(e, [0.5]), rel=1e-12)

    @pytest.mark.parametrize("text, guard", [
        ("log(x0) + x2", lambda X: X[:, 0] > 0.0),  # x1 is not read
        ("sqrt(x2)", lambda X: X[:, 2] > 0.0),      # x0 and x1 are not read
        ("1.5", lambda X: np.ones(len(X), dtype=bool)),
    ])
    def test_nonfinite_input_in_any_column_flags_the_row(self, text, guard):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1.0, 1.0, size=(40, 3))
        for row, (col, bad) in enumerate(
            (col, bad) for col in (0, 1, 2) for bad in (np.nan, np.inf, -np.inf)
        ):
            X[3 * row, col] = bad
        X[30, :] = np.nan
        X[31, [0, 2]] = [np.inf, -np.inf]
        _, ok = eval_batch(parse_expr(text, 3), X)
        with np.errstate(invalid="ignore"):
            expected = np.isfinite(X).all(axis=1) & guard(X)
        assert ok.tolist() == expected.tolist()
        assert not ok[[3 * r for r in range(9)] + [30, 31]].any()

    @staticmethod
    def _guarded_cases(seed, count=150):
        """(expression, grid) pairs whose rows trip every guard, overflow
        exp and products, and evaluate cleanly."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(1, 3))
            yield (parse_expr(random_guarded_expr_text(rng, n), n),
                   np.array(list(itertools.product(
                       [-2.0, -0.5, 0.0, 0.5, 1.0, 3.0, 800.0], repeat=n))))

    def test_rendered_rows_agree_with_the_reference_loop(self):
        flagged = clean = 0
        for e, X in self._guarded_cases(31):
            vals, ok = eval_batch(e, X)
            ref_vals, ref_ok = batch_reference(e, X)
            assert ok.tolist() == ref_ok.tolist(), unparse(e)
            assert vals[ok].tobytes() == ref_vals[ok].tobytes(), unparse(e)
            flagged += int((~ok).sum())
            clean += int(ok.sum())
        assert flagged > 1000 and clean > 1000

    def test_scalar_and_batch_agree_on_domain_errors(self):
        # a row is ok exactly where every value-only call returns, and all
        # of them return eval_grad's value or raise eval_batch's error;
        # eval_grad also checks the gradient, so it may raise on an ok row
        for e, X in self._guarded_cases(32):
            calls = _value_only_calls(e, X.shape[1])
            _, ok = eval_batch(e, X)
            for x, good in zip(X, ok):
                outcomes = []
                for call in calls:
                    try:
                        outcomes.append(call(x))
                    except DomainError as err:
                        outcomes.append(str(err))
                value = outcomes[0]
                raised = isinstance(value, str)
                assert outcomes[1:] == [value, value if raised else ([value], [value])], (
                    unparse(e), x)
                assert good == (not raised), (unparse(e), x)
                if good:
                    try:
                        assert eval_grad(e, x)[0] == value
                    except DomainError as err:
                        assert str(err) == f"non-finite value in subexpression '{unparse(e)}'"

    def test_scalar_and_batch_agree_on_values(self):
        # numpy's ** and ufuncs may round an operation differently from
        # repeated multiplication and libm by about an ulp; the tolerance
        # leaves room for the tens of operations of each expression
        rng = np.random.default_rng(33)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            e = parse_expr(random_expr_text(rng, n), n)
            X = rng.uniform(-1.5, 1.5, size=(50, n))
            vals, ok = eval_batch(e, X)
            assert ok.all()
            for x, v in zip(X, vals):
                assert v == pytest.approx(eval_value(e, x), rel=1e-12, abs=1e-12), (unparse(e), x)

    def test_gradient_only_overflow_agrees_with_the_batch(self):
        # x0^-1 at 1e-200 is 1e200 with an infinite gradient: the row is
        # ok and every value-only call returns 1e200; only eval_grad raises
        e = parse_expr("x0^-1", 1)
        vals, ok = eval_batch(e, np.array([[1e-200]]))
        assert ok.tolist() == [True] and vals[0] == 1e200
        value, fn_value, cons = (call([1e-200]) for call in _value_only_calls(e, 1))
        assert value == fn_value == 1e200 and cons == ([1e200], [1e200])
        with pytest.raises(DomainError, match=r"^non-finite value in subexpression 'x0\^-1'$"):
            eval_grad(e, [1e-200])

    @pytest.mark.parametrize("text, rel", [
        ("x0^2", 0.0), ("x0^-1", 0.0), ("sin(x0)*x0/(x0 + 1)", 0.0),
        ("x0^3", 1e-15), ("x0^-2", 1e-15), ("x0^7", 1e-15),
    ])
    def test_powers_round_within_an_ulp_of_the_scalar_path(self, text, rel):
        X = np.random.default_rng(5).uniform(0.3, 3.0, size=(2000, 1))
        e = parse_expr(text, 1)
        vals, ok = eval_batch(e, X)
        assert ok.all()
        for x, v in zip(X, vals):
            assert abs(v - eval_value(e, x)) <= rel * abs(v), (text, x)
