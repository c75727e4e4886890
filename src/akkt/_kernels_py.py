"""Tape evaluators and phi_k code generators on plain floats and `math`
calls, with a numpy twin for rows; this module defines the semantics of
a tape.

A tape is a postorder program over a stack of slots, each a value and
its gradient.  `OPS` defines every opcode but const, var and pow once,
as ordered steps over the operands' values A and B, their gradient
entries GA and GB, the new value V and a chain factor DC:

- ("guard", cond, status): the ok-condition of a domain guard, which
  reads one operand and names it first; scalar code leaves with the
  status where it is false;
- ("value", formula[, status]): the new value; with a status, the
  scalar formula raises OverflowError where its result is out of range
  and scalar code leaves with that status;
- ("chain", formula): the chain factor DC;
- ("grad", formula): each gradient entry of the result.

A and V share a slot in the straight-line code, so a row reads A only
before its value step and V only after it.  Three evaluators are
rendered from the table, with const, var and pow written out in each:

- `_run_tape`, the interpreter, rendered once at import; `eval_tape`
  runs it for one-off evaluations, at gradient width 0 for values only;
- `emit_tape`, straight-line code for one tape and dimension, with the
  interpreter's float operations in the same order, so its results are
  bitwise the interpreter's;
- `eval_rows`, values only over the rows of a numpy array, rendered once
  at import, behind `tape.eval_batch`.  A guard's condition is its row
  mask, and the guarded operand is evaluated at 1.0 on the rows it
  fails; pow keeps numpy's `**`.

`emit_program` compiles a problem's whole phi_k layer over the
`emit_tape` functions into two straight-line functions, phi_k with its
subgradient and a whole subgradient round, unrolled over the point's
coordinates; the kernels `eval_phi_k` and `subgrad_round` only call
them.  Rendered code holds only table text, opcodes, integer indices and
the repr of finite floats, never user text.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import cos, exp, inf, isfinite, log, sin, sqrt

import numpy as np

STATUS_MESSAGES = {
    1: "division by zero",
    2: "log of a non-positive value",
    3: "sqrt of a non-positive value",
    4: "zero raised to a negative power",
    5: "non-finite value",
}

# opcode: (name, arity, may turn finite operands non-finite in scalar
# code, steps); exp raises OverflowError there instead
OPS = {
    2: ("add", 2, True, (("value", "A + B"), ("grad", "GA + GB"))),
    3: ("sub", 2, True, (("value", "A - B"), ("grad", "GA - GB"))),
    4: ("mul", 2, True, (("grad", "GA * B + A * GB"), ("value", "A * B"))),
    5: ("div", 2, True, (("guard", "B != 0.0", 1), ("value", "A / B"),
                         ("grad", "(GA - V * GB) / B"))),
    7: ("neg", 1, False, (("value", "-A"), ("grad", "-GA"))),
    8: ("exp", 1, False, (("value", "exp(A)", 5), ("grad", "V * GA"))),
    9: ("log", 1, False, (("guard", "A > 0.0", 2), ("grad", "GA / A"), ("value", "log(A)"))),
    10: ("sin", 1, False, (("chain", "cos(A)"), ("value", "sin(A)"), ("grad", "DC * GA"))),
    11: ("cos", 1, False, (("chain", "-sin(A)"), ("value", "cos(A)"), ("grad", "DC * GA"))),
    12: ("sqrt", 1, False, (("guard", "A > 0.0", 3), ("value", "sqrt(A)"),
                           ("chain", "0.5 / V"), ("grad", "DC * GA"))),
}

_NAME = re.compile(r"\b(GA|GB|DC|A|B|V)\b")


def _scalar_lines(steps, names, fail, grad):
    """Lines of one row's steps in scalar code.  names maps the table's
    names to the evaluator's, fail(status) is the statement leaving with
    a status and grad(line) gives the lines of a gradient update."""
    out = []
    after_value = False
    for kind, text, *status in steps:
        used = set(_NAME.findall(text))
        if ("A" in used and after_value) or ("V" in used and not after_value):
            raise ValueError(f"step {text!r} reads A after or V before the value step")
        text = _NAME.sub(lambda m: names[m.group()], text)
        if kind == "guard":
            out.append(f"if not ({text}): " + fail(status[0]))
        elif kind == "value":
            after_value = True
            line = f"{names['V']} = {text}"
            out += [f"try: {line}", "except OverflowError: " + fail(status[0])] if status else [line]
        elif kind == "chain":
            out.append(f"{names['DC']} = {text}")
        else:
            out += grad(f"{names['GA']} = {text}")
    return out


# Every name the scalar rendered code reads besides its locals, `consts`
# (the constant pool bound per tape function) and the tape functions
# f{t} a program calls.
_EMIT_GLOBALS = {"__builtins__": {}, "OverflowError": OverflowError, "isfinite": isfinite,
                 "exp": exp, "log": log, "sin": sin, "cos": cos, "sqrt": sqrt,
                 "float": float, "range": range, "inf": inf}

_INTERPRETER = '''\
def _run_tape(ops, arg, consts, i0, i1, x, n, vs, gs):
    """Interpret instructions [i0, i1) over n gradient entries, len(x)
    or 0 for values only; result lands in vs[0]/gs[0].

    Returns (status, bad_instr).
    """
    sp = -1
    for i in range(i0, i1):
        op = ops[i]
        a = arg[i]
        if op == 0:  # const
            sp += 1
            vs[sp] = consts[a]
            g = gs[sp]
            for j in range(n):
                g[j] = 0.0
        elif op == 1:  # var
            sp += 1
            vs[sp] = x[a]
            g = gs[sp]
            for j in range(n):
                g[j] = 0.0
            if n:
                g[a] = 1.0
{rows}
        else:  # pow, integer exponent in a
            v0 = vs[sp]
            g = gs[sp]
            if a == 0:
                vs[sp] = 1.0
                for j in range(n):
                    g[j] = 0.0
            else:
                if v0 == 0.0 and a < 0:
                    return 4, i
                am = -a if a < 0 else a
                p = 1.0
                for _ in range(am - 1):
                    p = p * v0
                if a > 0:
                    vs[sp] = p * v0
                    dc = a * p
                else:
                    q = p * v0
                    if q == 0.0:  # underflow: 1/q would raise
                        return 5, i
                    v = 1.0 / q
                    vs[sp] = v
                    dc = a * v / v0
                for j in range(n):
                    g[j] = dc * g[j]
        if not isfinite(vs[sp]):
            return 5, i
    g = gs[0]
    for j in range(n):
        if not isfinite(g[j]):
            return 5, i1 - 1
    return 0, -1
'''


def _interpreter_row(op, name, arity, steps):
    # A and V are read from vs[sp], which the row overwrites only at its
    # value step, except that one the row reads in its gradient loop or
    # twice is held in a local, va or v
    reads = [(kind, _NAME.findall(text)) for kind, text, *_ in steps]
    local = {x for x in "AV" if sum(r.count(x) for _, r in reads) > 1
             or any(x in r for kind, r in reads if kind == "grad")}
    names = {"A": "va" if "A" in local else "vs[sp]", "B": "vb",
             "V": "v" if "V" in local else "vs[sp]", "GA": "ga[j]", "GB": "gb[j]", "DC": "dc"}
    lines = ["vb = vs[sp]", "gb = gs[sp]", "sp -= 1"] if arity == 2 else []
    lines += ["va = vs[sp]"] if "A" in local else []
    lines += ["ga = gs[sp]"] + _scalar_lines(
        steps, names, lambda status: f"return {status}, i",
        lambda line: ["for j in range(n):", "    " + line])
    lines += ["vs[sp] = v"] if "V" in local else []
    return f"        elif op == {op}:  # {name}\n" + "".join(f"            {s}\n" for s in lines)


_EVAL_ROWS = '''\
def eval_rows(ops, arg, consts, X, ok):
    """Values of one tape over the rows of X (shape (m, n)); clears ok
    (shape (m,)) on the rows where a guard fails or a value is not
    finite.  Values on those rows are unspecified.
    """
    m = X.shape[0]
    stack = []
    for op, a in zip(ops, arg):
        if op == 0:  # const
            stack.append(full(m, consts[a]))
        elif op == 1:  # var
            stack.append(X[:, a].copy())
{rows}
        else:  # pow, integer exponent in a, so negative bases stay exact
            if a < 0:
                ok &= stack[-1] != 0.0
                stack[-1] = where(stack[-1] == 0.0, 1.0, stack[-1])
            stack[-1] = stack[-1] ** a
        ok &= isfinite(stack[-1])
    return stack[0]
'''


def _rows_row(op, name, arity, steps):
    lines = ["vb = stack.pop()"] if arity == 2 else []
    for kind, text, *_ in steps:
        if kind in ("guard", "value"):
            text = _NAME.sub(lambda m: {"A": "stack[-1]", "B": "vb"}[m.group()], text)
        if kind == "guard":
            operand = text.split()[0]
            lines += [f"good = {text}", "ok &= good", f"{operand} = where(good, {operand}, 1.0)"]
        elif kind == "value":
            lines.append(f"stack[-1] = {text}")
    return f"        elif op == {op}:  # {name}\n" + "".join(f"            {s}\n" for s in lines)


def _render(template, row, source, namespace, fn):
    rows = "".join(row(op, name, arity, steps) for op, (name, arity, _, steps) in OPS.items())
    namespace = dict(namespace)
    exec(compile(template.replace("{rows}\n", rows), source, "exec"), namespace)
    return namespace[fn]


_run_tape = _render(_INTERPRETER, _interpreter_row, "<tape interpreter>", _EMIT_GLOBALS,
                    "_run_tape")
eval_rows = _render(_EVAL_ROWS, _rows_row, "<batch evaluator>", {
    "__builtins__": {}, "zip": zip, "full": np.full, "where": np.where,
    "isfinite": np.isfinite, "exp": np.exp, "log": np.log, "sin": np.sin,
    "cos": np.cos, "sqrt": np.sqrt}, "eval_rows")


def eval_tape(ops, arg, consts, start, end, x, grad_out, max_stack):
    """Evaluate one tape at x; writes the gradient into grad_out, or,
    with grad_out None, runs only the value and guard steps.

    Returns (status, bad_instr, value).
    """
    n = len(x) if grad_out is not None else 0
    xl = [float(v) for v in x]
    vs = [0.0] * max_stack
    gs = [[0.0] * n for _ in range(max_stack)]
    status, bad = _run_tape(ops, arg, consts, start, end, xl, n, vs, gs)
    if status:
        return status, bad, 0.0
    for j in range(n):
        grad_out[j] = gs[0][j]
    return 0, -1, vs[0]


# opcode: (arity, may turn non-finite, [(per gradient entry, line template)])
# over the slots {s} (result, first operand) and {b} (second operand),
# the instruction {i} and the gradient entry {j}
_EMIT_ROWS = {
    op: (arity, check, [("{j}" in line, line) for line in _scalar_lines(
        steps, {"A": "v{s}", "B": "v{b}", "V": "v{s}", "GA": "g{s}_{j}", "GB": "g{b}_{j}",
                "DC": "dc"},
        lambda status: f"return {status}, {{i}}, 0.0, None", lambda line: [line])])
    for op, (_, arity, check, steps) in OPS.items()
}


def emit_tape(ops, arg, consts, n):
    """Compile one tape into a straight-line function for points of
    dimension n: f(x) -> (status, bad_instr, value, gradient tuple).

    f unpacks x into exactly n floats and runs the float operations of
    `_run_tape` in the same order, densely over all n gradient entries,
    with stack slot s held in the locals v{s} and g{s}_{j}; its results
    are bitwise those of `_run_tape`.  The finiteness check is left out
    after a finite constant, pow 0 and the `OPS` rows that cannot turn
    finite operands non-finite.  A guard violation returns
    (status, i, 0.0, None) with i the index within this tape.  A
    non-finite constant is read from the pool.
    """
    J = range(n)
    body = ["".join(f"x{j}, " for j in J) + "= x"]
    out = body.append
    sp = -1
    fail = "return %d, %d, 0.0, None"
    for i, (op, a) in enumerate(zip(ops, arg)):
        a = int(a)
        check = op in (1, 6)  # var, pow: may be non-finite
        if op == 0:  # const
            sp += 1
            c = float(consts[a])
            if isfinite(c):
                out(f"v{sp} = {c!r}")
            else:
                out(f"v{sp} = consts[{a}]")
                check = True
            body.extend(f"g{sp}_{j} = 0.0" for j in J)
        elif op == 1:  # var
            sp += 1
            out(f"v{sp} = x{a}")
            body.extend(f"g{sp}_{j} = {'1.0' if j == a else '0.0'}" for j in J)
        elif op == 6:  # pow, integer exponent in a
            if a == 0:
                out(f"v{sp} = 1.0")
                body.extend(f"g{sp}_{j} = 0.0" for j in J)
                check = False
            else:
                out("p = 1.0" + f" * v{sp}" * (abs(a) - 1))
                if a > 0:
                    out(f"dc = {a} * p")
                    out(f"v{sp} = p * v{sp}")
                else:
                    out(f"if v{sp} == 0.0: " + fail % (4, i))
                    out(f"q = p * v{sp}")
                    out("if q == 0.0: " + fail % (5, i))
                    out("w = 1.0 / q")
                    out(f"dc = {a} * w / v{sp}")
                    out(f"v{sp} = w")
                body.extend(f"g{sp}_{j} = dc * g{sp}_{j}" for j in J)
        elif op in _EMIT_ROWS:
            arity, check, lines = _EMIT_ROWS[op]
            sp -= arity - 1
            for per_j, line in lines:
                if per_j:
                    body.extend(line.format(s=sp, b=sp + 1, i=i, j=j) for j in J)
                else:
                    out(line.format(s=sp, b=sp + 1, i=i))
        else:
            raise ValueError(f"unknown opcode {op!r}")
        if check:
            out(f"if not isfinite(v{sp}): " + fail % (5, i))
    grad = [f"g0_{j}" for j in J]
    out("if not (" + " and ".join(f"isfinite({g})" for g in grad) + "): "
        + fail % (5, len(ops) - 1))
    out("return 0, -1, v0, (" + "".join(f"{g}, " for g in grad) + ")")
    src = "def tape_fn(x):\n" + "".join(f"    {line}\n" for line in body)
    namespace = dict(_EMIT_GLOBALS, consts=consts)
    exec(compile(src, f"<tape n={n}>", "exec"), namespace)
    return namespace["tape_fn"]


@lru_cache(maxsize=128)
def emit_program(fns, starts, obj_ps, ineq_ps, n_eq, n):
    """Compile the phi_k layer of one problem into a pair of straight-
    line functions for points of dimension n, built once per distinct
    (tape functions, layout, n) and shared by every kernel over it:

        phik_fn(fbar, xbar, k, x) -> (status, bad_instr, phi, phi_k, d)
        round_fn(fbar, xbar, k, delta, c, L, tail_from, x_io, x_best_out,
                 x_avg_out) -> (status, bad_instr, f_best, halted, n_done)

    fns are the `emit_tape` functions of the program's tapes, starts[t]
    the index of tape t's first instruction in the whole program, and
    obj_ps / ineq_ps the tape ranges of the objectives and inequalities;
    the n_eq equality tapes come last.  The coordinates, the point's
    subgradient d and the round's state are locals x{j}, d{j}, ....
    Pieces are chosen by strict argmax, so exact ties keep the lowest
    tape index, and then the lowest objective index.  An objective gap
    that overflows to -inf everywhere is status 5 at objective 0's
    selected piece, and so is a round's step from a subgradient whose
    norm is not finite.
    """
    J = range(n)

    def seq(fmt, count=n):  # "a0, a1, " for fmt "a{}"
        return "".join(fmt.format(j) + ", " for j in range(count))

    def argmax(a, z, track):  # vb, gb of tapes [a, z); tb: last instruction of the winner
        tb = (lambda t: f"; tb = {starts[t + 1] - 1}") if track else (lambda t: "")
        out = [f"vb = v{a}; gb = g{a}" + tb(a)]
        for t in range(a + 1, z):
            out.append(f"if v{t} > vb: vb = v{t}; gb = g{t}" + tb(t))
        return out

    def penalty(v, g):  # pen += v^2 and d += (k v) * g
        return [f"pen += {v} * {v}", f"kc = k * {v}", f"{seq('q{}')}= {g}"] + [
            f"d{j} += kc * q{j}" for j in J]

    def core(fail):  # phi_k and d at x{j}; fail(bad) leaves with status s
        out = [f"xt = ({seq('x{}')})"]
        for t in range(len(fns)):
            out += [f"s, b, v{t}, g{t} = f{t}(xt)", "if s: " + fail(f"{starts[t]} + b")]
        for l in range(len(obj_ps) - 1):
            out += argmax(obj_ps[l], obj_ps[l + 1], l == 0)
            out += [f"phi = vb - fb{l}", "gs = gb"] if l == 0 else [
                f"fl = vb - fb{l}", "if fl > phi: phi = fl; gs = gb"]
        out += ["if phi == -inf: s = 5; " + fail("tb"), f"{seq('d{}')}= gs", "pen = 0.0"]
        for i in range(len(ineq_ps) - 1):
            out += argmax(ineq_ps[i], ineq_ps[i + 1], False) + ["if vb > 0.0:"]
            out += ["    " + line for line in penalty("vb", "gb")]
        for e in range(ineq_ps[-1], ineq_ps[-1] + n_eq):
            out += penalty(f"v{e}", f"g{e}")
        out += [f"e{j} = x{j} - xb{j}" for j in J] + [f"d{j} += e{j}" for j in J]
        return out + ["sq = 0.0" + "".join(f" + e{j} * e{j}" for j in J),
                      "phik = phi + 0.5 * k * pen + 0.5 * sq"]

    head = [f"{seq('fb{}', len(obj_ps) - 1)}= fbar", f"{seq('xb{}')}= xbar"]
    phik = head + [f"{seq('x{}')}= [float(v) for v in x]"] + core(
        lambda bad: f"return s, {bad}, 0.0, 0.0, ({'0.0, ' * n})")
    phik.append(f"return 0, -1, phi, phik, ({seq('d{}')})")
    rnd = head + [f"{seq('x{}')}= [float(v) for v in x_io]"] + [f"a{j} = 0.0" for j in J]
    rnd += ["n_avg = 0", "f_best = inf", f"x_best = ({seq('x{}')})", "halted = 0",
            "n_done = 0", "s = 0", "for t in range(1, L + 1):"]
    rnd += ["    " + line for line in core(lambda bad: f"bad = {bad}; break") + [
        "n_done = t",
        "if phik < f_best: f_best = phik; x_best = xt",
        "nd = sqrt(0.0" + "".join(f" + d{j} * d{j}" for j in J) + ")",
        "if nd == 0.0: halted = 1; break",
        "if not nd < inf: s = 5; bad = tb; break",
        "step = c / sqrt(t) / nd",
        *(f"x{j} = x{j} - step * d{j}" for j in J),
        *(f"e{j} = x{j} - xb{j}" for j in J),
        "r = sqrt(0.0" + "".join(f" + e{j} * e{j}" for j in J) + ")",
        "if r > delta:",
        "    sc = delta / r",
        *(f"    x{j} = xb{j} + sc * e{j}" for j in J),
        "if t >= tail_from:",
        *(f"    a{j} += x{j}" for j in J),
        "    n_avg += 1"]]
    rnd += [f"x_io[:] = ({seq('x{}')})", "if s: return s, bad, f_best, halted, n_done",
            "x_best_out[:] = x_best",
            f"x_avg_out[:] = ({seq('a{} / n_avg')}) if n_avg > 0 else ({seq('x{}')})",
            "return 0, -1, f_best, halted, n_done"]
    src = "".join(
        f"def {name}({args}):\n" + "".join(f"    {line}\n" for line in body)
        for name, args, body in (
            ("phik_fn", "fbar, xbar, k, x", phik),
            ("round_fn", "fbar, xbar, k, delta, c, L, tail_from, x_io, x_best_out, x_avg_out", rnd)))
    namespace = dict(_EMIT_GLOBALS, **{f"f{t}": fn for t, fn in enumerate(fns)})
    exec(compile(src, f"<program n={n}>", "exec"), namespace)
    return namespace["phik_fn"], namespace["round_fn"]


def eval_phi_k(ops, program, fbar, xbar, k, x):
    """Returns (status, bad_instr, phi, phi_k, d) at the point x, with d
    the one-selection subgradient of phi_k there (a tuple of n floats).

    program is the `emit_program` pair of the problem and ops the flat
    opcode sequence of its tapes, which only the benchmark tracer reads.
    """
    return program[0](fbar, xbar, k, x)


def subgrad_round(ops, program, fbar, xbar, k, delta, c, L, tail_from,
                  x_io, x_best_out, x_avg_out):
    """One restart round of normalized projected subgradient descent.

    Steps x <- Pi_ball(x - (c/sqrt(t)) d/||d||) for t = 1..L from x_io,
    tracking the best-by-value iterate and the average of the iterates
    with t >= tail_from.  x_io carries the last iterate out.  A zero
    subgradient (exact stationarity) ends the round early with halted 1;
    one whose norm is not finite ends it with status 5.

    Returns (status, bad_instr, f_best, halted, n_done).
    """
    return program[1](fbar, xbar, k, delta, c, L, tail_from, x_io, x_best_out, x_avg_out)
