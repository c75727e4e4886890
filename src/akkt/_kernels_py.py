"""Tape interpreter, tape and phi_k code generators and inner-loop
kernels, on plain floats and `math` calls; this module defines the
scalar semantics of a tape.

`_run_tape` interprets a tape read as it is (tuples of ints and floats);
`eval_tape` runs it for one-off evaluations.  `emit_tape` compiles a
tape into a straight-line function that performs the same float
operations in the same order, so its results are bitwise the
interpreter's.  `emit_program` compiles a problem's whole phi_k layer
over those functions into two straight-line functions, phi_k with its
subgradient and a whole subgradient round, unrolled over the point's
coordinates; the kernels `eval_phi_k` and `subgrad_round` only call
them.  Status codes: 0 ok, 1 division by zero, 2 log domain, 3 sqrt
domain, 4 zero base with negative exponent, 5 non-finite value.
"""

from __future__ import annotations

from functools import lru_cache
from math import cos, exp, inf, isfinite, log, sin, sqrt


def _run_tape(ops, arg, consts, i0, i1, x, n, vs, gs):
    """Interpret instructions [i0, i1); result lands in vs[0]/gs[0].

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
            g[a] = 1.0
        elif op == 2:  # add
            b = vs[sp]
            gb = gs[sp]
            sp -= 1
            vs[sp] = vs[sp] + b
            ga = gs[sp]
            for j in range(n):
                ga[j] = ga[j] + gb[j]
        elif op == 3:  # sub
            b = vs[sp]
            gb = gs[sp]
            sp -= 1
            vs[sp] = vs[sp] - b
            ga = gs[sp]
            for j in range(n):
                ga[j] = ga[j] - gb[j]
        elif op == 4:  # mul
            b = vs[sp]
            gb = gs[sp]
            sp -= 1
            va = vs[sp]
            vs[sp] = va * b
            ga = gs[sp]
            for j in range(n):
                ga[j] = ga[j] * b + va * gb[j]
        elif op == 5:  # div
            b = vs[sp]
            gb = gs[sp]
            sp -= 1
            if b == 0.0:
                return 1, i
            v = vs[sp] / b
            vs[sp] = v
            ga = gs[sp]
            for j in range(n):
                ga[j] = (ga[j] - v * gb[j]) / b
        elif op == 6:  # pow, integer exponent in a
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
        elif op == 7:  # neg
            vs[sp] = -vs[sp]
            g = gs[sp]
            for j in range(n):
                g[j] = -g[j]
        elif op == 8:  # exp
            try:
                v = exp(vs[sp])
            except OverflowError:  # C exp would return inf
                v = float("inf")
            vs[sp] = v
            g = gs[sp]
            for j in range(n):
                g[j] = v * g[j]
        elif op == 9:  # log
            v0 = vs[sp]
            if v0 <= 0.0:
                return 2, i
            vs[sp] = log(v0)
            g = gs[sp]
            for j in range(n):
                g[j] = g[j] / v0
        elif op == 10:  # sin
            v0 = vs[sp]
            vs[sp] = sin(v0)
            c = cos(v0)
            g = gs[sp]
            for j in range(n):
                g[j] = c * g[j]
        elif op == 11:  # cos
            v0 = vs[sp]
            vs[sp] = cos(v0)
            s = -sin(v0)
            g = gs[sp]
            for j in range(n):
                g[j] = s * g[j]
        else:  # sqrt
            v0 = vs[sp]
            if v0 <= 0.0:
                return 3, i
            v = sqrt(v0)
            vs[sp] = v
            dc = 0.5 / v
            g = gs[sp]
            for j in range(n):
                g[j] = dc * g[j]
        if not isfinite(vs[sp]):
            return 5, i
    g = gs[0]
    for j in range(n):
        if not isfinite(g[j]):
            return 5, i1 - 1
    return 0, -1


def eval_tape(ops, arg, consts, start, end, x, grad_out, max_stack):
    """Evaluate one tape at x; writes the gradient into grad_out.

    Returns (status, bad_instr, value).
    """
    n = len(x)
    xl = [float(v) for v in x]
    vs = [0.0] * max_stack
    gs = [[0.0] * n for _ in range(max_stack)]
    status, bad = _run_tape(ops, arg, consts, start, end, xl, n, vs, gs)
    if status:
        return status, bad, 0.0
    for j in range(n):
        grad_out[j] = gs[0][j]
    return 0, -1, vs[0]


# Every name emitted code reads besides its locals, `consts` (the
# constant pool bound per tape function) and the tape functions f{t} a
# program calls.
_EMIT_GLOBALS = {"__builtins__": {}, "OverflowError": OverflowError, "isfinite": isfinite,
                 "exp": exp, "log": log, "sin": sin, "cos": cos, "sqrt": sqrt,
                 "float": float, "range": range, "inf": inf}


def emit_tape(ops, arg, consts, n):
    """Compile one tape into a straight-line function for points of
    dimension n: f(x) -> (status, bad_instr, value, gradient tuple).

    f unpacks x into exactly n floats and runs the float operations of
    `_run_tape` in the same order, densely over all n gradient entries,
    with stack slot s held in the locals v{s} and g{s}_{j}; its results
    are bitwise those of `_run_tape`.  The finiteness check is left out
    after instructions that cannot turn finite operands non-finite
    (a finite constant, pow 0, neg, exp, which raises instead, and log,
    sin, cos, sqrt behind their guards).  A guard violation returns
    (status, i, 0.0, None) with i the index within this tape.  The
    source holds only opcode translations, integer indices and the repr
    of finite floats; a non-finite constant is read from the pool.
    """
    J = range(n)
    body = ["".join(f"x{j}, " for j in J) + "= x"]
    out = body.append
    sp = -1
    fail = "return %d, %d, 0.0, None"
    for i, (op, a) in enumerate(zip(ops, arg)):
        a = int(a)
        check = op in (1, 2, 3, 4, 5, 6)  # var, binary ops, pow: may turn non-finite
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
        elif op <= 5:  # add, sub, mul, div: slot s op= slot b
            sp -= 1
            s, b = sp, sp + 1
            if op == 2:
                out(f"v{s} = v{s} + v{b}")
                body.extend(f"g{s}_{j} = g{s}_{j} + g{b}_{j}" for j in J)
            elif op == 3:
                out(f"v{s} = v{s} - v{b}")
                body.extend(f"g{s}_{j} = g{s}_{j} - g{b}_{j}" for j in J)
            elif op == 4:
                body.extend(f"g{s}_{j} = g{s}_{j} * v{b} + v{s} * g{b}_{j}" for j in J)
                out(f"v{s} = v{s} * v{b}")
            else:
                out(f"if v{b} == 0.0: " + fail % (1, i))
                out(f"v{s} = v{s} / v{b}")
                body.extend(f"g{s}_{j} = (g{s}_{j} - v{s} * g{b}_{j}) / v{b}" for j in J)
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
        elif op == 7:  # neg
            out(f"v{sp} = -v{sp}")
            body.extend(f"g{sp}_{j} = -g{sp}_{j}" for j in J)
        elif op == 8:  # exp
            out(f"try: v{sp} = exp(v{sp})")
            out("except OverflowError: " + fail % (5, i))
            body.extend(f"g{sp}_{j} = v{sp} * g{sp}_{j}" for j in J)
        elif op == 9:  # log
            out(f"if v{sp} <= 0.0: " + fail % (2, i))
            body.extend(f"g{sp}_{j} = g{sp}_{j} / v{sp}" for j in J)
            out(f"v{sp} = log(v{sp})")
        elif op == 10:  # sin
            out(f"dc = cos(v{sp})")
            out(f"v{sp} = sin(v{sp})")
            body.extend(f"g{sp}_{j} = dc * g{sp}_{j}" for j in J)
        elif op == 11:  # cos
            out(f"dc = -sin(v{sp})")
            out(f"v{sp} = cos(v{sp})")
            body.extend(f"g{sp}_{j} = dc * g{sp}_{j}" for j in J)
        elif op == 12:  # sqrt
            out(f"if v{sp} <= 0.0: " + fail % (3, i))
            out(f"v{sp} = sqrt(v{sp})")
            out(f"dc = 0.5 / v{sp}")
            body.extend(f"g{sp}_{j} = dc * g{sp}_{j}" for j in J)
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
