"""Oracles and references the implementation is checked against.

The oracles share no code with the package's own solvers: the min-norm oracle
enumerates faces of the feasible product of simplices and solves exact
equality-constrained systems; the inner-solver oracle is a 1-D grid scan
refined by bisection on an explicit derivative; the gradient oracle is a
central finite difference.  The one-selection subgradient reference
evaluates phi_k piece by piece through the scalar tape path instead of
the kernel's single pass over the problem's concatenated program.

The phi_k, subgradient-round and Wolfe references are not independent:
they are the interpreted loops that the generated phi_k program and the
prescaled Wolfe linear minimization oracle replaced, kept to check those
bitwise.  They run the package's tape functions and Wolfe helpers.
"""
import itertools
import math

import numpy as np

from akkt.minnorm import ConvergenceError, MinNormResult, _affine_min_norm, _validate_factors
from akkt.tape import eval_grad, eval_value


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
        v, g = fobj.max_piece(x)
        fl = v - float(kern.fbar[l])
        if fl > phi:
            phi = fl
            d = g
    for gfn in pr.inequalities:
        v, g = gfn.max_piece(x)
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
