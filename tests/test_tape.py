"""Tape evaluation paths: scalar helpers, precompiled pieces and
equalities, batch rows."""
import numpy as np
import pytest

from akkt.certify import certify_weak_efficiency_convex, check_kkt, check_qncq_sufficient
from akkt.expr import DomainError, parse_expr
from akkt.minnorm import MultiplierTriple, residual_m_detail
from akkt.penalty import ProblemKernel, stationarity_model
from akkt.problem import PiecewiseMaxFn, constraint_values, load_problem_dict
from akkt.tape import compile_tape, eval_batch, eval_grad, eval_value

from _synthetic import random_expr_text, random_point


def test_eval_helpers_agree_with_python_kernel():
    rng = np.random.default_rng(78)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        e = parse_expr(random_expr_text(rng, n), n)
        x = random_point(rng, n)
        v, g = eval_grad(e, x)
        assert v == eval_value(e, x)
        assert np.all(np.isfinite(g))


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
            sel_value, sel_grad = fn.max_piece(x)
            assert compile_tape.cache_info() == before
            ref = [eval_grad(piece, x) for piece in pieces]
            assert _bits(vals) == _bits([v for v, _ in ref])
            for g, (_, g_ref) in zip(grads, ref):
                assert _bits(g) == _bits(g_ref)
            assert _bits(value) == _bits(vmax) == _bits(max(v for v, _ in ref))
            first = [v for v, _ in ref].index(vmax)
            assert _bits(sel_value) == _bits(vmax)
            assert _bits(sel_grad) == _bits(ref[first][1])

    def test_same_domain_error_as_eval_grad(self):
        pieces = tuple(parse_expr(t, 2) for t in ("x0 + x1", "log(x0 - 1)", "sqrt(x1 - 3)"))
        fn = PiecewiseMaxFn(pieces=pieces)
        for x in ([0.0, 5.0], [2.0, 0.0]):
            with pytest.raises(DomainError) as ref:
                for piece in pieces:
                    eval_grad(piece, x)
            for method in (fn.value, fn.value_and_gradients, fn.max_piece):
                with pytest.raises(DomainError) as got:
                    method(x)
                assert str(got.value) == str(ref.value)

    def test_bad_point_rejected_like_eval_grad(self):
        fn = PiecewiseMaxFn(pieces=(parse_expr("x0", 1),))
        with pytest.raises(ValueError, match="non-finite"):
            fn.value([float("nan")])

    def test_selection_keeps_lowest_index_on_ties(self):
        for texts, grad in ((("x0", "x1"), [1.0, 0.0]), (("x1", "x0"), [0.0, 1.0])):
            fn = PiecewiseMaxFn(pieces=tuple(parse_expr(t, 2) for t in texts))
            value, g = fn.max_piece([1.0, 1.0])
            assert value == 1.0
            assert g.tolist() == grad


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
                          ([3.0], ValueError, hs[0]),
                          ([float("nan"), 0.0], ValueError, hs[0])):
            with pytest.raises(exc) as ref:
                eval_grad(h, x)
            with pytest.raises(exc) as got:
                constraint_values(pr, x)
            assert str(got.value) == str(ref.value)
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
