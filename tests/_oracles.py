"""Oracles and references the implementation is checked against.

The oracles share no code with the package's own solvers: the min-norm oracle
enumerates faces of the feasible product of simplices and solves exact
equality-constrained systems; the inner-solver oracle is a 1-D grid scan
refined by bisection on an explicit derivative; the gradient oracle is a
central finite difference.  The one-selection subgradient reference
evaluates phi_k piece by piece through the scalar tape path instead of
the kernel's single pass over the problem's concatenated program.

The phi_k, subgradient-round, Wolfe, grid-oracle and spot-check
references are not independent: they are the interpreted loops that the
generated phi_k program, the prescaled Wolfe linear minimization oracle,
the constraints-first grid scan and the convex certifier's block-drawn,
generated-code spot checks replaced, kept to check those bitwise.  They
run the package's tape functions, batch evaluator and Wolfe helpers.

The tape interpreter and the numpy batch loop are the hand-written
evaluators that the opcode table's renderings (`_kernels_py.OPS`)
replaced, kept to check the interpreter and the straight-line code
bitwise and the batch evaluator on the rows it marks ok.
"""
import itertools
import math

import numpy as np

from akkt.certify import OracleResult
from akkt.minnorm import ConvergenceError, MinNormResult, _affine_min_norm, _validate_factors
from akkt.expr import DomainError
from akkt.tape import _check_point, compile_tape, eval_batch, eval_grad, eval_tapes, eval_value


def min_norm_oracle(factors):
    """Exact min of ||sum_f scale_f * (conv comb of factor generators)||.

    A convex quadratic over a product of simplices attains its minimum on
    a face; on the face with support S the minimizer solves the
    equality-constrained stationarity system.  Enumerate every support
    combination, solve each system by least squares, keep feasible
    candidates, and return the smallest norm.
    """
    columns = []     # scaled generator columns per factor
    for scale, gens in factors:
        g = np.asarray(gens, dtype=float)
        columns.append(float(scale) * g.T)    # (dim, k_f)
    dim = columns[0].shape[0]

    best = None
    supports_per_factor = [
        [s for size in range(1, c.shape[1] + 1)
         for s in itertools.combinations(range(c.shape[1]), size)]
        for c in columns
    ]
    for combo in itertools.product(*supports_per_factor):
        A = np.hstack([c[:, list(s)] for c, s in zip(columns, combo)])
        n_w = A.shape[1]
        C = np.zeros((len(combo), n_w))
        offset = 0
        for fi, s in enumerate(combo):
            C[fi, offset:offset + len(s)] = 1.0
            offset += len(s)
        kkt = np.zeros((n_w + len(combo), n_w + len(combo)))
        kkt[:n_w, :n_w] = 2.0 * (A.T @ A)
        kkt[:n_w, n_w:] = C.T
        kkt[n_w:, :n_w] = C
        rhs = np.zeros(n_w + len(combo))
        rhs[n_w:] = 1.0
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        w = sol[:n_w]
        if np.any(w < -1e-9) or np.max(np.abs(C @ w - 1.0)) > 1e-9:
            continue
        val = float(np.linalg.norm(A @ w))
        if best is None or val < best:
            best = val
    return best


def p1_inner_oracle(k: float, delta: float = 1.0) -> float:
    """Minimizer of x + (k/2)x^4 + x^2/2 over [-delta, delta]: grid scan
    at step 1e-3 refined by bisection on the increasing derivative
    1 + 2k x^3 + x."""
    xs = np.arange(-delta, delta + 5e-4, 1e-3)
    vals = xs + 0.5 * k * xs ** 4 + 0.5 * xs ** 2
    i = int(np.argmin(vals))
    lo = max(-delta, float(xs[i]) - 1e-3)
    hi = min(delta, float(xs[i]) + 1e-3)

    def deriv(x):
        return 1.0 + 2.0 * k * x ** 3 + x

    if deriv(lo) >= 0.0:
        return lo
    if deriv(hi) <= 0.0:
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if deriv(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def central_fd_gradient(expr, x, step: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (eval_value(expr, hi) - eval_value(expr, lo)) / (2.0 * step)
    return out


def one_selection_subgradient(kern, k: float, x) -> np.ndarray:
    """Single-selection subgradient of phi_k at x from per-function
    evaluations, with the kernel's tie-breaking (strict argmax keeps the
    lowest piece index, then the lowest objective index)."""
    pr = kern.pr
    phi = -math.inf
    d = None
    for l, fobj in enumerate(pr.objectives):
        v, g = max_piece(fobj, x)
        fl = v - float(kern.fbar[l])
        if fl > phi:
            phi = fl
            d = g
    for gfn in pr.inequalities:
        v, g = max_piece(gfn, x)
        if v > 0.0:
            d += (k * v) * g
    for h in pr.equalities:
        hv, hg = eval_grad(h, x)
        d += (k * hv) * hg
    d += x - kern.xbar
    return d


def _layout(kern):
    """(fns, starts, obj_ps, ineq_ps, n_eq) of kern's problem: its tapes'
    straight-line functions laid out objectives, inequalities,
    equalities, with each tape's first instruction in the whole program."""
    pr = kern.pr
    tapes, obj_ps = [], [0]
    for fobj in pr.objectives:
        tapes.extend(fobj.tapes)
        obj_ps.append(len(tapes))
    ineq_ps = [len(tapes)]
    for gfn in pr.inequalities:
        tapes.extend(gfn.tapes)
        ineq_ps.append(len(tapes))
    tapes.extend(pr.eq_tapes)
    starts = [0]
    for t in tapes:
        starts.append(starts[-1] + len(t.ops))
    return [t.compiled(pr.n) for t in tapes], starts, obj_ps, ineq_ps, pr.r


def _phik_at(fns, starts, obj_ps, ineq_ps, n_eq, fbar, xbar, k, x, n, values, grads, d):
    """phi_k value and one-selection subgradient at x; fills d in place.
    Returns (status, bad_instr, phi, phik).  An objective gap that
    overflows to -inf everywhere is status 5 at objective 0's piece."""
    for tp, fn in enumerate(fns):
        status, bad, values[tp], grads[tp] = fn(x)
        if status:
            return status, starts[tp] + bad, 0.0, 0.0

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
        if l == 0:
            j0 = jb
        fl = vbest - fbar[l]
        if fl > phi:
            phi = fl
            jstar = jb
    if jstar < 0:
        return 5, starts[j0 + 1] - 1, 0.0, 0.0
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


def phik_reference(kern, k, x):
    """(status, bad_instr, phi, phi_k, d) of kern at x, d a list."""
    fns, starts, obj_ps, ineq_ps, n_eq = _layout(kern)
    n = len(x)
    d = [0.0] * n
    status, bad, phi, phik = _phik_at(
        fns, starts, obj_ps, ineq_ps, n_eq, kern.fbar.tolist(), kern.xbar.tolist(),
        float(k), [float(v) for v in x], n, [0.0] * len(fns), [None] * len(fns), d)
    return status, bad, phi, phik, d


def round_reference(kern, k, delta, c, L, tail_from, x_io, x_best_out, x_avg_out):
    """One restart round of kern from x_io, writing the three point
    buffers; returns (status, bad_instr, f_best, halted, n_done)."""
    fns, starts, obj_ps, ineq_ps, n_eq = _layout(kern)
    fbar, xbar = kern.fbar.tolist(), kern.xbar.tolist()
    n = len(x_io)
    x = [float(v) for v in x_io]
    values, grads, d = [0.0] * len(fns), [None] * len(fns), [0.0] * n
    avg = [0.0] * n
    n_avg = 0
    f_best = float("inf")
    x_best = list(x)
    halted = 0
    n_done = 0

    for t in range(1, L + 1):
        status, bad, phi, phik = _phik_at(
            fns, starts, obj_ps, ineq_ps, n_eq, fbar, xbar, k, x, n, values, grads, d,
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
        nd = math.sqrt(nd)
        if nd == 0.0:
            halted = 1
            break
        if not nd < math.inf:  # at the last instruction of objective 0's selected piece
            j0 = max(range(obj_ps[0], obj_ps[1]), key=lambda j: (values[j], -j))
            for j in range(n):
                x_io[j] = x[j]
            return 5, starts[j0 + 1] - 1, f_best, halted, n_done
        step = c / math.sqrt(t) / nd
        for j in range(n):
            x[j] = x[j] - step * d[j]
        r2 = 0.0
        for j in range(n):
            dj = x[j] - xbar[j]
            r2 += dj * dj
        r = math.sqrt(r2)
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


def min_norm_point_reference(factors, tol: float = 1e-10) -> MinNormResult:
    """Wolfe's algorithm with the per-call LMO that scales the selected
    generator of every factor and forms G @ d even for one generator."""
    cleaned, n = _validate_factors(factors)
    total_gens = sum(G.shape[0] for _, G in cleaned)
    cap = max(100, 10 * total_gens * total_gens)

    def lmo(d):
        sel = []
        pt = np.zeros(n)
        for s, G in cleaned:
            j = int((G @ d).argmin())
            sel.append(j)
            pt = pt + s * G[j]
        return tuple(sel), pt

    sel0, v0 = lmo(np.zeros(n))
    corral_sel = [sel0]
    corral_pts = [v0]
    alpha = np.array([1.0])
    x = v0.copy()

    iterations = 0
    gap = np.inf
    certified = False
    while iterations < cap:
        iterations += 1
        sel, v = lmo(x)
        xx = float(x @ x)
        gap = xx - float(x @ v)
        if gap <= tol * max(1.0, xx):
            certified = True
            break
        if sel in corral_sel:
            break
        corral_sel.append(sel)
        corral_pts.append(v)
        alpha = np.append(alpha, 0.0)

        while True:
            P = np.vstack(corral_pts)
            beta = _affine_min_norm(P)
            if (beta >= -1e-12).all():
                alpha = np.clip(beta, 0.0, None)
                break
            neg = beta < alpha
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(neg, alpha / (alpha - beta), np.inf)
            ratios = np.where(beta < 0.0, ratios, np.inf)
            theta = float(np.min(ratios))
            alpha = (1.0 - theta) * alpha + theta * beta
            alpha[alpha < 1e-14] = 0.0
            keep = alpha > 0.0
            if not np.any(keep):
                keep[int(np.argmax(beta))] = True
                alpha[keep] = 1.0
            corral_sel = [s for s, k in zip(corral_sel, keep) if k]
            corral_pts = [p for p, k in zip(corral_pts, keep) if k]
            alpha = alpha[keep]
        x = alpha @ np.vstack(corral_pts)

    if not certified:
        xx = float(x @ x)
        _, v = lmo(x)
        gap = xx - float(x @ v)
        if gap > tol * max(1.0, xx):
            raise ConvergenceError(f"not certified after {iterations} iterations")

    total = float(alpha.sum())
    if total > 0:
        alpha = alpha / total
    weights = []
    for f, (s, G) in enumerate(cleaned):
        w = np.zeros(G.shape[0])
        for a, sel in zip(alpha, corral_sel):
            w[sel[f]] += a
        weights.append(w)
    return MinNormResult(point=x, norm=float(np.linalg.norm(x)), weights=tuple(weights),
                         iterations=iterations, gap=float(gap))


def weak_efficiency_oracle_reference(pr, xbar, lo, hi, step: float = 1e-3) -> OracleResult:
    """The grid scan that evaluates every objective, inequality and
    equality on every grid point and decodes each block's coordinates
    from the flat indices with divmod."""
    if pr.n > 3:
        raise ValueError("the grid oracle supports at most 3 variables")
    xb = _check_point(xbar)
    lo_a = np.broadcast_to(np.asarray(lo, dtype=np.float64), (pr.n,)).copy()
    hi_a = np.broadcast_to(np.asarray(hi, dtype=np.float64), (pr.n,)).copy()
    if not (np.all(np.isfinite(lo_a)) and np.all(np.isfinite(hi_a))):
        raise ValueError("the grid box corners must be finite")
    if np.any(lo_a > xb) or np.any(hi_a < xb):
        raise ValueError("the grid box must contain the candidate point")
    if not (step > 0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")

    def batch_max(fn, coords, ok):
        fmax = np.full(coords.shape[0], -np.inf)
        for piece in fn.pieces:
            vals, good = eval_batch(piece, coords)
            ok &= good
            fmax = np.maximum(fmax, vals)
        return fmax

    axes = [np.arange(lo_a[d], hi_a[d] + 0.5 * step, step) for d in range(pr.n)]
    counts = [len(a) for a in axes]
    total = int(np.prod(counts))
    fbar = np.array([fobj.value(xb) for fobj in pr.objectives])

    feasible_total = 0
    block = 1 << 16
    for start in range(0, total, block):
        coords = divmod_grid_block(axes, counts, start, min(block, total - start))
        ok = np.ones(coords.shape[0], dtype=bool)
        dominates = np.ones(coords.shape[0], dtype=bool)
        for l, fobj in enumerate(pr.objectives):
            dominates &= batch_max(fobj, coords, ok) < fbar[l] - 1e-9
        for gfn in pr.inequalities:
            ok &= batch_max(gfn, coords, ok) <= 1e-8
        for h in pr.equalities:
            vals, good = eval_batch(h, coords)
            ok &= good
            ok &= np.abs(vals) <= 1e-8

        feasible_total += int(ok.sum())
        hit = ok & dominates
        if np.any(hit):
            first = int(np.argmax(hit))
            return OracleResult(
                weakly_efficient=False,
                counterexample=tuple(float(v) for v in coords[first]),
                points_checked=total,
                feasible_points=feasible_total,
            )
    return OracleResult(
        weakly_efficient=True,
        counterexample=None,
        points_checked=total,
        feasible_points=feasible_total,
    )


def divmod_grid_block(axes, counts, start, size) -> np.ndarray:
    """Rows start .. start + size - 1 of the lexicographic grid over
    `axes` (last axis fastest), each flat index decoded with divmod."""
    idx = np.arange(start, start + size)
    coords = np.empty((size, len(axes)))
    rem = idx
    for d in range(len(axes) - 1, -1, -1):
        rem, col = np.divmod(rem, counts[d])
        coords[:, d] = axes[d][col]
    return coords


def spot_check_reference(pr, xb, seed: int) -> int:
    """The convex certifier's hypothesis spot checks as a per-point loop:
    one draw per point, every point through `eval_tapes`, the
    strict-argmax piece (`max_piece`) and the functions' `value`.  Pairs
    that trip a domain guard are skipped, and a function with none left
    is an error; returns the smallest number of pairs checked for any
    one function."""
    rng = np.random.default_rng(seed)
    for j, tape in enumerate(pr.eq_tapes):
        g0 = eval_tapes((tape,), xb)[1][0]
        for _ in range(10):
            pt = xb + rng.uniform(-1.0, 1.0, size=pr.n)
            g = eval_tapes((tape,), pt)[1][0]
            if float(np.max(np.abs(g - g0))) > 1e-9:
                raise ValueError(
                    f"equality constraint {j} is not affine: gradient varies "
                    f"by {float(np.max(np.abs(g - g0))):.3e} at {pt.tolist()}"
                )
    checked = []
    for fn in list(pr.objectives) + list(pr.inequalities):
        count = 0
        for _ in range(200):
            u = xb + rng.uniform(-1.0, 1.0, size=pr.n)
            v = xb + rng.uniform(-1.0, 1.0, size=pr.n)
            try:
                fu, grad_u = max_piece(fn, u)
                fv = fn.value(v)
            except DomainError:
                continue
            if fv < fu + float(grad_u @ (v - u)) - 1e-8:
                raise ValueError(
                    f"convexity assertion for '{fn.label}' is false: the "
                    f"subgradient inequality fails for u={u.tolist()}, "
                    f"v={v.tolist()}"
                )
            count += 1
        if count == 0:
            raise ValueError(
                f"convexity assertion for '{fn.label}' could not be spot-checked: "
                f"every drawn pair left its domain"
            )
        checked.append(count)
    return min(checked)


def _run_tape_reference(ops, arg, consts, i0, i1, x, n, vs, gs):
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
                v = math.exp(vs[sp])
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
            vs[sp] = math.log(v0)
            g = gs[sp]
            for j in range(n):
                g[j] = g[j] / v0
        elif op == 10:  # sin
            v0 = vs[sp]
            vs[sp] = math.sin(v0)
            c = math.cos(v0)
            g = gs[sp]
            for j in range(n):
                g[j] = c * g[j]
        elif op == 11:  # cos
            v0 = vs[sp]
            vs[sp] = math.cos(v0)
            s = -math.sin(v0)
            g = gs[sp]
            for j in range(n):
                g[j] = s * g[j]
        else:  # sqrt
            v0 = vs[sp]
            if v0 <= 0.0:
                return 3, i
            v = math.sqrt(v0)
            vs[sp] = v
            dc = 0.5 / v
            g = gs[sp]
            for j in range(n):
                g[j] = dc * g[j]
        if not math.isfinite(vs[sp]):
            return 5, i
    g = gs[0]
    for j in range(n):
        if not math.isfinite(g[j]):
            return 5, i1 - 1
    return 0, -1


def tape_reference(tape, x):
    """(status, bad_instr, value, gradient tuple) of a tape at x, a list
    of floats, through the hand-written interpreter; on a guard
    violation (status, bad_instr, 0.0, None)."""
    n = len(x)
    vs = [0.0] * tape.max_stack
    gs = [[0.0] * n for _ in range(tape.max_stack)]
    status, bad = _run_tape_reference(tape.ops, tape.arg, tape.consts, 0, len(tape.ops),
                                      [float(v) for v in x], n, vs, gs)
    return (status, bad, 0.0, None) if status else (0, -1, vs[0], tuple(gs[0]))


def batch_reference(e, X):
    """(values, ok) of e over the rows of X through the hand-written
    numpy loop; values where ok is False are NaN after a division by
    zero and otherwise what the masked operands give."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    m = X.shape[0]
    tape = compile_tape(e)
    stack = []
    ok = np.ones(m, dtype=bool)
    for j in range(X.shape[1]):
        ok &= np.isfinite(X[:, j])
    with np.errstate(all="ignore"):
        for op, a in zip(tape.ops, tape.arg):
            if op == 0:  # const
                stack.append(np.full(m, tape.consts[a]))
            elif op == 1:  # var
                stack.append(X[:, a].copy())
            elif op == 2:  # add
                b = stack.pop()
                stack[-1] = stack[-1] + b
            elif op == 3:  # sub
                b = stack.pop()
                stack[-1] = stack[-1] - b
            elif op == 4:  # mul
                b = stack.pop()
                stack[-1] = stack[-1] * b
            elif op == 5:  # div
                b = stack.pop()
                ok &= b != 0.0
                stack[-1] = np.where(b != 0.0, stack[-1] / np.where(b == 0.0, 1.0, b), np.nan)
            elif op == 6:  # pow
                base = stack[-1]
                # integer exponent so negative bases stay exact
                if a < 0:
                    ok &= base != 0.0
                    safe = np.where(base == 0.0, 1.0, base)
                    stack[-1] = safe ** a
                else:
                    stack[-1] = base ** a
            elif op == 7:  # neg
                stack[-1] = -stack[-1]
            elif op == 8:  # exp
                stack[-1] = np.exp(stack[-1])
            elif op == 9:  # log
                v = stack[-1]
                ok &= v > 0.0
                stack[-1] = np.log(np.where(v > 0.0, v, 1.0))
            elif op == 10:  # sin
                stack[-1] = np.sin(stack[-1])
            elif op == 11:  # cos
                stack[-1] = np.cos(stack[-1])
            elif op == 12:  # sqrt
                v = stack[-1]
                ok &= v > 0.0
                stack[-1] = np.sqrt(np.where(v > 0.0, v, 1.0))
            ok &= np.isfinite(stack[-1])
    return stack[0], ok


def max_piece(fn, x):
    """(value, gradient) of fn's strict-argmax piece at x: exact ties
    keep the lowest piece index, the kernels' selection rule."""
    vals, grads = eval_tapes(fn.tapes, x)
    jb = 0
    for j in range(1, len(vals)):
        if vals[j] > vals[jb]:
            jb = j
    return vals[jb], grads[jb]
