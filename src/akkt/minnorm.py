"""Minimum-norm points of Minkowski sums of scaled polytopes, and the
stationarity residual they induce.

The feasible set is P = sum_f scale_f * conv(G_f).  Wolfe's min-norm-
point algorithm runs with the linear minimization oracle decomposed per
factor (the LMO of a sum is the sum of the factor LMOs); ties pick the
lowest generator index, so runs are deterministic.  The result carries
convex weights per factor and is certified by the Wolfe criterion
<p, p - v> <= WOLFE_TOL * max(1, ||p||^2) against every generator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .problem import Problem
from .subdiff import DEFAULT_EPS_ACT, subdifferential
from .tape import eval_tapes
from .tape import eval_grad  # noqa: F401 - perfbench's tracer test checks this binding

WOLFE_TOL = 1e-10
MAX_SIGN_BRANCHES = 12


class ConvergenceError(RuntimeError):
    """Iteration cap exceeded without an optimality certificate."""


@dataclass(frozen=True)
class MinNormResult:
    point: np.ndarray
    norm: float
    weights: tuple[np.ndarray, ...]  # convex coefficients per factor
    iterations: int
    gap: float                       # certified Wolfe gap at exit


def _validate_factors(factors):
    if not factors:
        raise ValueError("at least one polytope factor is required")
    n = None
    cleaned = []
    for idx, (scale, gens) in enumerate(factors):
        s = float(scale)
        if not math.isfinite(s) or s < 0.0:
            raise ValueError(f"factor {idx}: scale must be finite and >= 0")
        G = np.atleast_2d(np.asarray(gens, dtype=np.float64))
        if G.size == 0:
            raise ValueError(f"factor {idx}: needs at least one generator")
        if not np.isfinite(G).all():
            raise ValueError(f"factor {idx}: generators must be finite")
        if n is None:
            n = G.shape[1]
        elif G.shape[1] != n:
            raise ValueError(f"factor {idx}: dimension mismatch")
        cleaned.append((s, G))
    return cleaned, n


def _affine_min_norm(P: np.ndarray) -> np.ndarray:
    """Coefficients beta (sum 1, signs free) minimizing ||beta @ P||."""
    q = P.shape[0]
    G = P @ P.T
    A = np.zeros((q + 1, q + 1))
    A[:q, :q] = G
    A[:q, q] = 1.0
    A[q, :q] = 1.0
    rhs = np.zeros(q + 1)
    rhs[q] = 1.0
    sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
    return sol[:q]


def min_norm_point(factors) -> MinNormResult:
    """Min-norm point of sum_f scale_f * conv(G_f) by Wolfe's algorithm.

    factors: sequence of (scale, generators) with generators of shape
    (k_f, n).  Raises ValueError on an empty factor list and
    ConvergenceError if the iteration cap 10 * (sum k_f)^2 is exhausted
    without the optimality certificate.  The linear minimization oracle
    uses each factor scaled once per call and takes the only generator
    of a one-generator factor without forming G @ d.
    """
    cleaned, n = _validate_factors(factors)
    total_gens = sum(G.shape[0] for _, G in cleaned)
    cap = max(100, 10 * total_gens * total_gens)

    scaled = [(G, s * G) for s, G in cleaned]  # row j of s * G is s * G[j]

    def lmo(d: np.ndarray):
        sel = []
        pt = np.zeros(n)
        for G, sG in scaled:
            # first minimum: lowest index wins ties
            j = int((G @ d).argmin()) if len(G) > 1 else 0
            sel.append(j)
            pt = pt + sG[j]
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
        if gap <= WOLFE_TOL * max(1.0, xx):
            certified = True
            break
        if sel in corral_sel:
            # numerically stalled: the best vertex is already in the corral
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
        if gap > WOLFE_TOL * max(1.0, xx):
            raise ConvergenceError(
                f"min-norm point not certified after {iterations} iterations "
                f"(gap {gap:.3e})"
            )

    total = float(alpha.sum())
    if total > 0:
        alpha = alpha / total
    weights = []
    for f, (s, G) in enumerate(cleaned):
        w = np.zeros(G.shape[0])
        for a, sel in zip(alpha, corral_sel):
            w[sel[f]] += a
        weights.append(w)
    return MinNormResult(
        point=x,
        norm=float(np.linalg.norm(x)),
        weights=tuple(weights),
        iterations=iterations,
        gap=float(gap),
    )


@dataclass(frozen=True, eq=False)
class MultiplierTriple:
    """Multipliers (lambda, mu, tau): lambda, mu >= 0; tau signed.

    When tagged a2_normalized the lambda weights sum to 1.
    """

    lam: np.ndarray
    mu: np.ndarray
    tau: np.ndarray
    a2_normalized: bool = False

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=np.float64)
        mu = np.asarray(self.mu, dtype=np.float64)
        tau = np.asarray(self.tau, dtype=np.float64)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "tau", tau)
        for name, arr in (("lam", lam), ("mu", mu), ("tau", tau)):
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be a finite 1-d vector")
        if np.any(lam < 0):
            raise ValueError("lambda weights must be >= 0")
        if np.any(mu < 0):
            raise ValueError("mu multipliers must be >= 0")
        if self.a2_normalized and abs(float(lam.sum()) - 1.0) > 1e-9:
            raise ValueError("a2_normalized multipliers must have sum(lambda) = 1")


def branch_sign(v: float) -> float:
    """An equality's branch sign at its value or multiplier v (-0.0 is +)."""
    return 1.0 if v >= 0.0 else -1.0


def _check_mult(pr: Problem, mult: MultiplierTriple):
    if mult.lam.shape != (pr.p,):
        raise ValueError(f"lambda must have shape ({pr.p},)")
    if mult.mu.shape != (pr.m,):
        raise ValueError(f"mu must have shape ({pr.m},)")
    if mult.tau.shape != (pr.r,):
        raise ValueError(f"tau must have shape ({pr.r},)")
    if float(mult.lam.sum()) == 0.0:
        raise ValueError("no objective carries weight: sum(lambda) must be positive")


def residual_m_detail(pr: Problem, x, mult: MultiplierTriple,
                      eps_act: float = DEFAULT_EPS_ACT, mode: str = "general"):
    """Stationarity residual with its witness.

    Returns (residual, MinNormResult, branch_signs).  mode 'general'
    minimizes over the 2^r equality sign branches (capped at r <= 12,
    ties keep the earliest branch in lexicographic order starting from
    all-plus); mode 'prime' fixes the single branch signs_j = sign(tau_j),
    whose equality contribution is exactly sum_j tau_j * grad h_j(x).
    Both modes assemble branches identically, so the general minimum is
    never above the prime value, and the two coincide bitwise when r = 0.
    x must pass `Problem.check_point`.
    """
    if mode not in ("general", "prime"):
        raise ValueError("mode must be 'general' or 'prime'")
    _check_mult(pr, mult)
    xa = pr.check_point(x)

    factors = []
    for l, fobj in enumerate(pr.objectives):
        lam = float(mult.lam[l])
        if lam > 0.0:
            factors.append((lam, subdifferential(fobj, xa, eps_act).generators))
    for i, gfn in enumerate(pr.inequalities):
        mu = float(mult.mu[i])
        if mu > 0.0:
            factors.append((mu, subdifferential(gfn, xa, eps_act).generators))

    grads_h = eval_tapes(pr.eq_tapes, xa)[1]

    if mode == "prime":
        branches = [tuple(branch_sign(float(t)) for t in mult.tau)]
    elif pr.r > MAX_SIGN_BRANCHES:
        raise ValueError(
            f"sign-branch enumeration supports at most {MAX_SIGN_BRANCHES} "
            f"equalities, got {pr.r}"
        )
    else:
        branches = itertools.product((1.0, -1.0), repeat=pr.r)
    best = None
    for signs in branches:
        branch = factors + [(abs(float(mult.tau[j])), (signs[j] * gh)[None, :])
                            for j, gh in enumerate(grads_h)]
        res = min_norm_point(branch)
        if best is None or res.norm < best[0]:
            best = (res.norm, res, signs)
    return best


def residual_m(pr: Problem, x, mult: MultiplierTriple,
               eps_act: float = DEFAULT_EPS_ACT, mode: str = "general") -> float:
    """Min-norm of sum(lam_l xi_l) + sum(mu_i eta_i) + sum(tau_j gamma_j)
    over the subdifferential polytopes at x.  See residual_m_detail."""
    return residual_m_detail(pr, x, mult, eps_act, mode)[0]
