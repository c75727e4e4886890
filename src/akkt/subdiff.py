"""Subdifferential polytopes for max-of-smooth functions.

The model of the subdifferential at x is the convex hull of the
gradients of the near-active pieces: piece j is active when
value_j(x) >= max_value(x) - eps_act (absolute tolerance).  For a
max-of-smooth function this hull equals the Clarke subdifferential at
kinks and over-approximates the limiting subdifferential, which every
certification report notes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import PiecewiseMaxFn, Problem
from .tape import _check_point

DEFAULT_EPS_ACT = 1e-6

MODEL_NOTE = (
    "subdifferentials are modeled as convex hulls of near-active piece "
    "gradients (Clarke hull); this over-approximates the limiting "
    "subdifferential, so zero-containment conclusions are conservative"
)


@dataclass(frozen=True)
class SubdiffPolytope:
    """conv(generators) modeling the subdifferential at `x`."""

    x: np.ndarray
    active: tuple[int, ...]      # piece indices, ascending
    generators: np.ndarray       # shape (len(active), n)
    eps_act: float
    value: float                 # max piece value at x


@dataclass(frozen=True)
class ActivitySimplex:
    """Objective indices whose gap f_l(x) - f_l(xbar) is within eps_act
    of phi(x); lambda weights outside this set must vanish."""

    active: tuple[int, ...]
    eps_act: float


def subdifferential(fn: PiecewiseMaxFn, x, eps_act: float = DEFAULT_EPS_ACT) -> SubdiffPolytope:
    """Polytope model of the subdifferential of `fn` at x."""
    if not eps_act >= 0:
        raise ValueError("eps_act must be >= 0")
    xa = _check_point(x)
    vmax, vals, grads = fn.value_and_gradients(xa)
    active = tuple(i for i, v in enumerate(vals) if v >= vmax - eps_act)
    gens = np.vstack([grads[i] for i in active])
    return SubdiffPolytope(x=xa, active=active, generators=gens, eps_act=eps_act, value=vmax)


def phi_value(pr: Problem, x, xbar, eps_act: float = DEFAULT_EPS_ACT) -> tuple[float, ActivitySimplex]:
    """Largest objective gap phi(x) = max_l (f_l(x) - f_l(xbar)) and the
    eps_act-active objective set.  phi(xbar) is exactly 0."""
    xa = _check_point(x)
    xb = _check_point(xbar)
    gaps = [f.value(xa) - f.value(xb) for f in pr.objectives]
    phi = max(gaps)
    active = tuple(l for l, gap in enumerate(gaps) if gap >= phi - eps_act)
    return phi, ActivitySimplex(active=active, eps_act=eps_act)
