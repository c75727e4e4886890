"""Compile expression trees to flat instruction tapes.

A tape is a postorder opcode sequence over a stack of (value, gradient)
pairs, so one sweep yields the exact analytic gradient.  Opcodes, their
arguments and the constant pool are plain tuples of ints and floats,
built once per expression.  `_kernels_py` (bound as `backend.kernels`)
runs a tape two ways with one scalar semantics: its interpreter serves
one-off evaluations (`eval_grad`, `eval_tapes`), and `Tape.compiled`
turns a tape into straight-line Python once per dimension for the
penalty kernels' inner loop and for one-off evaluations of many points
(`eval_compiled`, which the convex certifier's spot checks run).  The
two give bitwise equal results.  `eval_batch` runs a values-only numpy
version over rows.  Domain guards (division by zero, log/sqrt of
non-positive arguments, 0^negative, any non-finite intermediate) abort
evaluation and name the offending subexpression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import backend
from .expr import DomainError, Expr, unparse

OP_CONST = 0
OP_VAR = 1
OP_ADD = 2
OP_SUB = 3
OP_MUL = 4
OP_DIV = 5
OP_POW = 6
OP_NEG = 7
OP_EXP = 8
OP_LOG = 9
OP_SIN = 10
OP_COS = 11
OP_SQRT = 12

_FUNC_OPS = {"exp": OP_EXP, "log": OP_LOG, "sin": OP_SIN, "cos": OP_COS, "sqrt": OP_SQRT}
_BIN_OPS = {"add": OP_ADD, "sub": OP_SUB, "mul": OP_MUL, "div": OP_DIV}

STATUS_MESSAGES = {
    1: "division by zero",
    2: "log of a non-positive value",
    3: "sqrt of a non-positive value",
    4: "zero raised to a negative power",
    5: "non-finite value",
}


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
        elif node.op in _BIN_OPS:
            emit(node.args[0])
            emit(node.args[1])
            ops.append(_BIN_OPS[node.op])
            arg.append(0)
            depth -= 1
        elif node.op == "neg":
            emit(node.args[0])
            ops.append(OP_NEG)
            arg.append(0)
        elif node.op == "pow":
            emit(node.args[0])
            ops.append(OP_POW)
            arg.append(node.exponent)
        elif node.op in _FUNC_OPS:
            emit(node.args[0])
            ops.append(_FUNC_OPS[node.op])
            arg.append(0)
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
    xa = _check_point(x)
    return _run(compile_tape(e), xa)


def _run(tape: Tape, xa: np.ndarray) -> tuple[float, np.ndarray]:
    """Evaluate a compiled tape at a point already passed by _check_point."""
    if tape.n_min > xa.size:
        raise ValueError(
            f"expression uses x{tape.n_min - 1} but the point has dimension {xa.size}"
        )
    grad = np.zeros(xa.size, dtype=np.float64)
    status, bad, value = backend.kernels.eval_tape(
        tape.ops, tape.arg, tape.consts, 0, len(tape.ops), xa, grad, tape.max_stack
    )
    if status:
        raise DomainError(STATUS_MESSAGES[status], unparse(tape.nodes[bad]))
    return value, grad


def eval_tapes(tapes, x) -> tuple[list[float], list[np.ndarray]]:
    """Values and gradients of precompiled tapes at x, in order.

    The point is checked once for all tapes; results and errors are
    those of `eval_grad` on each source expression in turn.
    """
    xa = _check_point(x)
    out = [_run(tape, xa) for tape in tapes]
    return [v for v, _ in out], [g for _, g in out]


def eval_compiled(tape: Tape, x: list) -> tuple[float, tuple[float, ...]]:
    """Value and gradient of one tape at x, a list of finite floats,
    through the tape's generated code (`Tape.compiled`): `_run`'s value
    and gradient bitwise, the gradient as a tuple, and `_run`'s errors.
    x is not checked for finiteness; the caller passes points it built."""
    if tape.n_min > len(x):
        raise ValueError(
            f"expression uses x{tape.n_min - 1} but the point has dimension {len(x)}"
        )
    status, bad, value, grad = tape.compiled(len(x))(x)
    if status:
        raise DomainError(STATUS_MESSAGES[status], unparse(tape.nodes[bad]))
    return value, grad


def eval_value(e: Expr, x) -> float:
    return eval_grad(e, x)[0]


def eval_batch(e: Expr, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized values-only evaluation over rows of X (shape (m, n)).

    Returns (values, ok) where ok marks rows that evaluated cleanly;
    rows violating a domain guard or producing a non-finite intermediate
    get ok=False instead of raising, as `eval_value` would raise there.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must have shape (m, n)")
    m = X.shape[0]
    tape = compile_tape(e)
    if tape.n_min > X.shape[1]:
        raise ValueError(
            f"expression uses x{tape.n_min - 1} but points have dimension {X.shape[1]}"
        )
    stack: list[np.ndarray] = []
    ok = np.ones(m, dtype=bool)
    for j in range(X.shape[1]):
        ok &= np.isfinite(X[:, j])
    with np.errstate(all="ignore"):
        for op, a in zip(tape.ops, tape.arg):
            if op == OP_CONST:
                stack.append(np.full(m, tape.consts[a]))
            elif op == OP_VAR:
                stack.append(X[:, a].copy())
            elif op == OP_ADD:
                b = stack.pop()
                stack[-1] = stack[-1] + b
            elif op == OP_SUB:
                b = stack.pop()
                stack[-1] = stack[-1] - b
            elif op == OP_MUL:
                b = stack.pop()
                stack[-1] = stack[-1] * b
            elif op == OP_DIV:
                b = stack.pop()
                ok &= b != 0.0
                stack[-1] = np.where(b != 0.0, stack[-1] / np.where(b == 0.0, 1.0, b), np.nan)
            elif op == OP_POW:
                base = stack[-1]
                # integer exponent so negative bases stay exact
                if a < 0:
                    ok &= base != 0.0
                    safe = np.where(base == 0.0, 1.0, base)
                    stack[-1] = safe ** a
                else:
                    stack[-1] = base ** a
            elif op == OP_NEG:
                stack[-1] = -stack[-1]
            elif op == OP_EXP:
                stack[-1] = np.exp(stack[-1])
            elif op == OP_LOG:
                v = stack[-1]
                ok &= v > 0.0
                stack[-1] = np.log(np.where(v > 0.0, v, 1.0))
            elif op == OP_SIN:
                stack[-1] = np.sin(stack[-1])
            elif op == OP_COS:
                stack[-1] = np.cos(stack[-1])
            elif op == OP_SQRT:
                v = stack[-1]
                ok &= v > 0.0
                stack[-1] = np.sqrt(np.where(v > 0.0, v, 1.0))
            ok &= np.isfinite(stack[-1])
    return stack[0], ok
