"""The tape evaluators rendered from the opcode table (`_kernels_py.OPS`)
against the hand-written interpreter they replaced, kept in `_oracles`:
the rendered interpreter behind `eval_tape` and the straight-line code
(`emit_tape`, reached through `Tape.compiled`) that runs in the phi_k
kernels and the spot checks must both give the reference's status, bad
instruction, value and gradient bitwise, and `eval_compiled` must return
and raise what `eval_tapes` does."""
import itertools
import math
import struct

import numpy as np
import pytest

import akkt._kernels_py as kernels_py
from akkt.expr import DomainError, Expr, parse_expr
from akkt.penalty import ProblemKernel
from akkt.problem import load_problem_dict
from akkt.tape import compile_tape, eval_compiled, eval_tapes

from _oracles import tape_reference
from _synthetic import random_expr_text, random_guarded_expr_text, random_point

INF = math.inf


def _rendered(tape, x):
    """(status, bad, value, gradient) from the rendered interpreter, as
    `eval_tape` runs it."""
    grad = [0.0] * len(x)
    status, bad, value = kernels_py.eval_tape(
        tape.ops, tape.arg, tape.consts, 0, len(tape.ops), x, grad, tape.max_stack)
    return (status, bad, 0.0, None) if status else (0, -1, value, tuple(grad))


def _bits(out):
    status, bad, value, grad = out
    floats = [value, *(grad or ())]
    return status, bad, struct.pack(f"<{len(floats)}d", *floats)


def _assert_agree(e, x):
    x = [float(v) for v in x]
    tape = compile_tape(e)
    ref = _bits(tape_reference(tape, x))
    got = tape.compiled(len(x))(x)
    assert _bits(got) == ref, (e, x)
    assert _bits(_rendered(tape, x)) == ref, (e, x)
    return got


def test_random_expressions_agree_bitwise():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        e = parse_expr(random_expr_text(rng, n), n)
        for _ in range(3):
            assert _assert_agree(e, random_point(rng, n))[0] == 0


def test_guarded_random_expressions_agree_bitwise():
    rng = np.random.default_rng(2025)
    statuses = set()
    for _ in range(150):
        n = int(rng.integers(1, 3))
        e = parse_expr(random_guarded_expr_text(rng, n), n)
        for x in itertools.product([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0, 800.0], repeat=n):
            statuses.add(_assert_agree(e, x)[0])
    assert statuses == {0, 1, 2, 3, 4, 5}


@pytest.mark.parametrize("text", [
    "x0^-3 + x1^-2*x0 - (x0 + 2)^-1",
    "(x0*x1 - 0.3)/(1.5 + x0^2) + exp(x1)/x0",
    "x0^5 - x1^4 + sqrt(x0^2 + 1)^-3",
])
def test_negative_powers_and_quotients_agree(text):
    rng = np.random.default_rng(7)
    e = parse_expr(text, 2)
    for _ in range(100):
        assert _assert_agree(e, rng.uniform(0.1, 3.0, size=2) * rng.choice([-1.0, 1.0], 2))[0] == 0


GUARD_CASES = [
    ("1/x0", [0.0], 1, 2),
    ("x0/(x1 - x1)", [1.0, 2.0], 1, 4),
    ("log(x0)", [0.0], 2, 1),
    ("log(x0)", [-1.0], 2, 1),
    ("sqrt(x0 - 1)", [1.0], 3, 3),
    ("sqrt(x0)", [-2.0], 3, 1),
    ("x0^-2", [0.0], 4, 1),
    ("x0^-2", [-0.0], 4, 1),
    ("exp(x0)", [800.0], 5, 1),
    ("exp(x0)*0", [800.0], 5, 1),       # inf never reaches the product
    ("x0^-3", [1e-120], 5, 1),          # 1/(x0*x0*x0) underflows to 1/0
    ("x0^-1", [5e-324], 5, 1),          # 1/x0 overflows
    ("x0^3", [1e200], 5, 1),
    ("x0*x0", [1e200], 5, 2),
    ("x0 + x0", [1e308], 5, 2),
    ("x0^-1", [1e-200], 5, 1),          # finite value, infinite gradient
    ("log(x0) + 1", [5e-324], 5, 3),    # gradient: last instruction
    ("x0 + x1", [math.nan, 0.0], 5, 0),
    ("x1 - x0", [-INF, 0.0], 5, 1),
]


@pytest.mark.parametrize("text, x, status, bad", GUARD_CASES)
def test_every_guard_agrees(text, x, status, bad):
    e = parse_expr(text, len(x))
    assert _assert_agree(e, x)[:2] == (status, bad)


@pytest.mark.parametrize("value", [INF, -INF, math.nan])
def test_non_finite_constant_is_read_from_the_pool(value):
    e = Expr("add", args=(Expr("var", index=0), Expr("const", value=value)))
    assert _assert_agree(e, [1.0])[:2] == (5, 1)
    assert _assert_agree(Expr("const", value=value), [1.0])[:2] == (5, 0)


@pytest.mark.parametrize("text", ["-x0*x1", "x0 - x0", "x1*x0 - x0*x1", "-(x0 + x1)^2"])
@pytest.mark.parametrize("x", [[0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
def test_signed_zeros_agree(text, x):
    assert _assert_agree(parse_expr(text, 2), x)[0] == 0


def _outcome(evaluate, tape, x):
    """The bits of (value, gradient), or the type and text of the error."""
    try:
        value, grad = evaluate(tape, x)
    except (DomainError, ValueError) as e:
        return type(e), str(e)
    return _bits((0, -1, value, tuple(grad)))


def _eval_tapes_one(tape, x):
    values, grads = eval_tapes((tape,), x)
    return values[0], grads[0]


def test_eval_compiled_returns_and_raises_what_eval_tapes_does():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(200):
        n = int(rng.integers(1, 5))
        e = parse_expr(random_expr_text(rng, n), n)
        cases += [(e, random_point(rng, n).tolist()) for _ in range(3)]
    # eval_compiled leaves the finiteness of the point to its caller
    cases += [(parse_expr(text, len(x)), x) for text, x, *_ in GUARD_CASES
              if all(map(math.isfinite, x))]
    cases += [(Expr("const", value=v), [1.0]) for v in (INF, -INF, math.nan)]
    cases.append((parse_expr("x0 + x1", 2), [1.0]))  # wrong dimension
    errors = 0
    for e, x in cases:
        tape = compile_tape(e)
        got = _outcome(eval_compiled, tape, x)
        assert got == _outcome(_eval_tapes_one, tape, np.array(x)), (e, x)
        errors += got[0] in (DomainError, ValueError)
    assert errors == 21


def test_wrong_dimension_is_refused():
    fn = compile_tape(parse_expr("x0 + 1", 1)).compiled(2)
    with pytest.raises(ValueError):
        fn([1.0])


def test_equal_problems_compile_each_tape_once_per_dimension(monkeypatch):
    emitted = []
    emit = kernels_py.emit_tape

    def counting(ops, arg, consts, n):
        emitted.append((ops, n))
        return emit(ops, arg, consts, n)

    monkeypatch.setattr(kernels_py, "emit_tape", counting)

    def problem():  # constants no other test uses, so no tape is cached yet
        return load_problem_dict({
            "name": "codegen", "n": 2,
            "objectives": [{"pieces": ["x0 - 0.4375", "x1^2 + 0.4375"]},
                           {"pieces": ["x0*x1 - 0.4375"]}],
            "inequalities": [{"pieces": ["x0 + x1 - 3.4375"]}],
            "equalities": ["x0 - x1 + 0.4375"],
        })

    a, b = problem(), problem()
    ProblemKernel(a, [0.0, 0.0])
    ProblemKernel(b, [0.5, 0.5])
    assert len(emitted) == 5 and len(set(emitted)) == 5
    tape = a.objectives[0].tapes[0]
    assert tape is b.objectives[0].tapes[0]
    assert tape.compiled(2) is tape.compiled(2)
    assert len(emitted) == 5
    assert tape.compiled(3) is not tape.compiled(2)
    assert len(emitted) == 6
