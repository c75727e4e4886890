"""Tape interpreter and inner-loop kernels, on plain floats and `math`
calls.  Programs arrive as Python sequences of ints and floats (tape
tuples, or the lists `ProblemKernel` concatenates once) and are read
as they are; only the point is copied into a list per call.  Status
codes: 0 ok, 1 division by zero, 2 log domain, 3 sqrt domain, 4 zero
base with negative exponent, 5 non-finite value.
"""

from __future__ import annotations

from math import cos, exp, isfinite, log, sin, sqrt


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
                    v = 1.0 / (p * v0)
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


def _workspace(n, max_stack, T):
    """Scratch of `_phik_at`: the value/gradient stack, per-tape values
    and gradients, and the subgradient d."""
    return ([0.0] * max_stack, [[0.0] * n for _ in range(max_stack)],
            [0.0] * T, [[0.0] * n for _ in range(T)], [0.0] * n)


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


def _phik_at(ops, arg, consts, starts, obj_ps, ineq_ps, n_eq, fbar, xbar, k, x, n,
             vs, gs, values, grads, d):
    """phi_k value and one-selection subgradient at x; fills d in place.

    Returns (status, bad_instr, phi, phik).  Active pieces are chosen by
    strict argmax, so exact ties keep the lowest tape index.
    """
    T = len(starts) - 1
    for tp in range(T):
        status, bad = _run_tape(ops, arg, consts, starts[tp], starts[tp + 1], x, n, vs, gs)
        if status:
            return status, bad, 0.0, 0.0
        values[tp] = vs[0]
        gt = grads[tp]
        g0 = gs[0]
        for j in range(n):
            gt[j] = g0[j]

    p = len(obj_ps) - 1
    phi = float("-inf")
    jstar = -1
    for l in range(p):
        vbest = float("-inf")
        jb = -1
        for j in range(obj_ps[l], obj_ps[l + 1]):
            if values[j] > vbest:
                vbest = values[j]
                jb = j
        fl = vbest - fbar[l]
        if fl > phi:
            phi = fl
            jstar = jb
    gsel = grads[jstar]
    for j in range(n):
        d[j] = gsel[j]

    pen = 0.0
    m = len(ineq_ps) - 1
    for i in range(m):
        vbest = float("-inf")
        jb = -1
        for j in range(ineq_ps[i], ineq_ps[i + 1]):
            if values[j] > vbest:
                vbest = values[j]
                jb = j
        if vbest > 0.0:
            pen += vbest * vbest
            kc = k * vbest
            gj = grads[jb]
            for j in range(n):
                d[j] += kc * gj[j]
    e0 = ineq_ps[m]
    for q in range(n_eq):
        h = values[e0 + q]
        pen += h * h
        kc = k * h
        gj = grads[e0 + q]
        for j in range(n):
            d[j] += kc * gj[j]

    sq = 0.0
    for j in range(n):
        dj = x[j] - xbar[j]
        sq += dj * dj
        d[j] += dj
    phik = phi + 0.5 * k * pen + 0.5 * sq
    return 0, -1, phi, phik


def eval_phi_k(ops, arg, consts, starts, obj_ps, ineq_ps, n_eq, fbar, xbar, k, x, max_stack):
    """Returns (status, bad_instr, phi, phi_k, d) at the point x, with d
    the one-selection subgradient of phi_k there (a list of n floats)."""
    n = len(x)
    vs, gs, values, grads, d = _workspace(n, max_stack, len(starts) - 1)
    status, bad, phi, phik = _phik_at(
        ops, arg, consts, starts, obj_ps, ineq_ps, n_eq, fbar, xbar,
        k, [float(v) for v in x], n, vs, gs, values, grads, d,
    )
    return status, bad, phi, phik, d


def subgrad_round(ops, arg, consts, starts, obj_ps, ineq_ps, n_eq, fbar, xbar,
                  k, delta, c, L, tail_from, x_io, x_best_out, x_avg_out, max_stack):
    """One restart round of normalized projected subgradient descent.

    Steps x <- Pi_ball(x - (c/sqrt(t)) d/||d||) for t = 1..L from x_io,
    tracking the best-by-value iterate and the average of the iterates
    with t >= tail_from.  x_io carries the last iterate out.  A zero
    subgradient (exact stationarity) ends the round early with halted 1.

    Returns (status, bad_instr, f_best, halted, n_done).
    """
    n = len(x_io)
    x = [float(v) for v in x_io]
    vs, gs, values, grads, d = _workspace(n, max_stack, len(starts) - 1)
    avg = [0.0] * n
    n_avg = 0
    f_best = float("inf")
    x_best = list(x)
    halted = 0
    n_done = 0

    for t in range(1, L + 1):
        status, bad, phi, phik = _phik_at(
            ops, arg, consts, starts, obj_ps, ineq_ps, n_eq,
            fbar, xbar, k, x, n, vs, gs, values, grads, d,
        )
        if status:
            for j in range(n):
                x_io[j] = x[j]
            return status, bad, f_best, halted, n_done
        n_done = t
        if phik < f_best:
            f_best = phik
            x_best = list(x)
        nd = 0.0
        for j in range(n):
            nd += d[j] * d[j]
        nd = sqrt(nd)
        if nd == 0.0:
            halted = 1
            break
        step = c / sqrt(t) / nd
        for j in range(n):
            x[j] = x[j] - step * d[j]
        r2 = 0.0
        for j in range(n):
            dj = x[j] - xbar[j]
            r2 += dj * dj
        r = sqrt(r2)
        if r > delta:
            sc = delta / r
            for j in range(n):
                x[j] = xbar[j] + sc * (x[j] - xbar[j])
        if t >= tail_from:
            for j in range(n):
                avg[j] += x[j]
            n_avg += 1

    for j in range(n):
        x_io[j] = x[j]
        x_best_out[j] = x_best[j]
        x_avg_out[j] = avg[j] / n_avg if n_avg > 0 else x[j]
    return 0, -1, f_best, halted, n_done
