"""Independent oracles the implementation is checked against.

These share no code with the package's own solvers: the min-norm oracle
enumerates faces of the feasible product of simplices and solves exact
equality-constrained systems; the inner-solver oracle is a 1-D grid scan
refined by bisection on an explicit derivative; the gradient oracle is a
central finite difference.  The one-selection subgradient reference
evaluates phi_k piece by piece through the scalar tape path instead of
the kernel's single pass over the problem's concatenated program.
"""
import itertools
import math

import numpy as np

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
