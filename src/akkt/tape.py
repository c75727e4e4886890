"""Compile expression trees to flat instruction tapes.

A tape is a postorder opcode sequence over a stack of (value, gradient)
pairs, so one sweep yields the exact analytic gradient.  Opcodes, their
arguments and the constant pool are plain tuples of ints and floats,
built once per expression.  `_kernels_py` (bound as `backend.kernels`)
defines each opcode once, in its table `OPS`, and renders three
evaluators from it: the interpreter serves one-off evaluations
(`eval_grad`, `eval_tapes`; `eval_values` at gradient width 0);
`Tape.compiled` turns a tape into straight-line Python once per
dimension for the penalty kernels' inner loop and for one-off
evaluations of many points (`eval_compiled`, which the convex
certifier's spot checks run), bitwise equal to the interpreter; and
`eval_batch` runs a values-only numpy version over rows.  Domain guards
(division by zero, log/sqrt of non-positive arguments, 0^negative, any
non-finite intermediate or computed gradient entry) abort evaluation
and name the offending subexpression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import backend
from ._kernels_py import OPS, STATUS_MESSAGES
from .expr import DomainError, Expr, unparse

OP_CONST = 0
OP_VAR = 1
OP_POW = 6

# every other node op is a row of the opcode table, under its own name
_TABLE_OPS = {name: (op, arity) for op, (name, arity, _, _) in OPS.items()}


@dataclass(frozen=True)
class Tape:
    ops: tuple[int, ...]       # opcodes, postorder
    arg: tuple[int, ...]       # const slot / var index / exponent
    consts: tuple[float, ...]  # constant pool
    max_stack: int
    nodes: tuple[Expr, ...]  # node per instruction, for error reporting
    n_min: int             # smallest dimension the tape accepts
    _compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def compiled(self, n: int):
        """The tape as straight-line code for points of dimension n
        (`emit_tape`), generated on first use and kept per n."""
        fn = self._compiled.get(n)
        if fn is None:
            fn = self._compiled[n] = backend.kernels.emit_tape(self.ops, self.arg, self.consts, n)
        return fn

    def check_dimension(self, n: int, points: str = "the point has") -> None:
        if self.n_min > n:
            raise ValueError(f"expression uses x{self.n_min - 1} but {points} dimension {n}")

    def domain_error(self, status: int, bad: int) -> DomainError:
        """The error of a nonzero status at this tape's instruction bad."""
        return DomainError(STATUS_MESSAGES[status], unparse(self.nodes[bad]))


@lru_cache(maxsize=1024)
def compile_tape(e: Expr) -> Tape:
    ops: list[int] = []
    arg: list[int] = []
    consts: list[float] = []
    nodes: list[Expr] = []
    depth = 0
    max_depth = 0
    n_min = 0

    def emit(node: Expr):
        nonlocal depth, max_depth, n_min
        if node.op == "const":
            ops.append(OP_CONST)
            arg.append(len(consts))
            consts.append(float(node.value))
            depth += 1
        elif node.op == "var":
            ops.append(OP_VAR)
            arg.append(node.index)
            n_min = max(n_min, node.index + 1)
            depth += 1
        elif node.op == "pow":
            emit(node.args[0])
            ops.append(OP_POW)
            arg.append(node.exponent)
        elif node.op in _TABLE_OPS:
            op, arity = _TABLE_OPS[node.op]
            for a in node.args:
                emit(a)
            ops.append(op)
            arg.append(0)
            depth -= arity - 1
        else:
            raise ValueError(f"unknown op {node.op!r}")
        nodes.append(node)
        max_depth = max(max_depth, depth)

    emit(e)
    return Tape(
        ops=tuple(ops),
        arg=tuple(arg),
        consts=tuple(consts),
        max_stack=max_depth,
        nodes=tuple(nodes),
        n_min=n_min,
    )


def _check_point(x) -> np.ndarray:
    xa = np.ascontiguousarray(x, dtype=np.float64)
    if xa.ndim != 1 or xa.size < 1:
        raise ValueError("point must be a 1-d sequence of reals")
    if not np.all(np.isfinite(xa)):
        raise ValueError("point contains non-finite values")
    return xa


def eval_grad(e: Expr, x) -> tuple[float, np.ndarray]:
    """Evaluate `e` at x, returning (value, gradient in R^len(x)).

    Raises DomainError on any guard violation or non-finite result and
    ValueError on a dimension mismatch or non-finite input.
    """
    values, grads = eval_tapes((compile_tape(e),), x)
    return values[0], grads[0]


def _run(tape: Tape, xa: np.ndarray, grad) -> float:
    """Value of a compiled tape at a point already passed by _check_point;
    the gradient goes into grad unless it is None."""
    tape.check_dimension(xa.size)
    status, bad, value = backend.kernels.eval_tape(
        tape.ops, tape.arg, tape.consts, 0, len(tape.ops), xa, grad, tape.max_stack
    )
    if status:
        raise tape.domain_error(status, bad)
    return value


def eval_tapes(tapes, x) -> tuple[list[float], list[np.ndarray]]:
    """Values and gradients of precompiled tapes at x, in order.

    The point is checked once for all tapes; results and errors are
    those of `eval_grad` on each source expression in turn.
    """
    xa = _check_point(x)
    grads = [np.zeros(xa.size, dtype=np.float64) for _ in tapes]
    return [_run(tape, xa, g) for tape, g in zip(tapes, grads)], grads


def eval_values(tapes, x) -> list[float]:
    """`eval_tapes`'s values, without gradients: a tape raises where
    `eval_batch` clears a row's ok, never for its gradient."""
    xa = _check_point(x)
    return [_run(tape, xa, None) for tape in tapes]


def eval_compiled(tape: Tape, x: list) -> tuple[float, tuple[float, ...]]:
    """Value and gradient of one tape at x, a list of finite floats,
    through the tape's generated code (`Tape.compiled`): `_run`'s value
    and gradient bitwise, the gradient as a tuple, and `_run`'s errors.
    x is not checked for finiteness; the caller passes points it built."""
    tape.check_dimension(len(x))
    status, bad, value, grad = tape.compiled(len(x))(x)
    if status:
        raise tape.domain_error(status, bad)
    return value, grad


def eval_value(e: Expr, x) -> float:
    return eval_values((compile_tape(e),), x)[0]


def eval_batch(e: Expr, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized values-only evaluation over rows of X (shape (m, n)).

    Returns (values, ok) where ok marks rows that evaluated cleanly;
    rows violating a domain guard or producing a non-finite intermediate
    get ok=False instead of raising, as `eval_value` would raise there.
    Values on rows with ok False are unspecified.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must have shape (m, n)")
    tape = compile_tape(e)
    tape.check_dimension(X.shape[1], "points have")
    ok = np.ones(X.shape[0], dtype=bool)
    for j in range(X.shape[1]):
        ok &= np.isfinite(X[:, j])
    with np.errstate(all="ignore"):
        values = backend.kernels.eval_rows(tape.ops, tape.arg, tape.consts, X, ok)
    return values, ok
