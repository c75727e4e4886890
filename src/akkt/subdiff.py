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

from .problem import PiecewiseMaxFn
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


def subdifferential(fn: PiecewiseMaxFn, x, eps_act: float = DEFAULT_EPS_ACT) -> SubdiffPolytope:
    """Polytope model of the subdifferential of `fn` at x."""
    if not eps_act >= 0:
        raise ValueError("eps_act must be >= 0")
    xa = _check_point(x)
    vmax, vals, grads = fn.value_and_gradients(xa)
    active = tuple(i for i, v in enumerate(vals) if v >= vmax - eps_act)
    gens = np.vstack([grads[i] for i in active])
    return SubdiffPolytope(x=xa, active=active, generators=gens, eps_act=eps_act, value=vmax)

