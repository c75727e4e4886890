"""Seeded random expressions, problems, and multiplier triples.

Everything generated here but `random_guarded_expr_text` is guard-free
by construction: log and sqrt arguments are bounded below by positive
constants, exp arguments are kept small, and there is no division.  Any
point in the box [-1.5, 1.5]^n is therefore safe to evaluate, including
finite-difference shifts.
"""
import numpy as np

from akkt.minnorm import MultiplierTriple
from akkt.problem import Problem, load_problem_dict


def _poly(rng, n, max_terms=3, scale=1.0):
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        c = round(float(rng.uniform(-scale, scale)), 4)
        i = int(rng.integers(0, n))
        e = int(rng.integers(1, 4))
        terms.append(f"{c!r}*x{i}^{e}" if e > 1 else f"{c!r}*x{i}")
    terms.append(repr(round(float(rng.uniform(-1.0, 1.0)), 4)))
    return " + ".join(terms)


def _atom(rng, n):
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return f"({_poly(rng, n)})"
    if kind == 1:
        return f"sin({_poly(rng, n)})"
    if kind == 2:
        return f"cos({_poly(rng, n)})"
    if kind == 3:
        return f"exp({_poly(rng, n, scale=0.5)})"
    if kind == 4:
        return f"log(1.5 + ({_poly(rng, n, scale=0.5)})^2)"
    return f"sqrt(0.5 + ({_poly(rng, n, scale=0.5)})^2)"


def random_expr_text(rng, n):
    """A guard-free expression over x0..x{n-1} mixing all grammar ops."""
    parts = [_atom(rng, n) for _ in range(int(rng.integers(1, 4)))]
    text = parts[0]
    for part in parts[1:]:
        op = (" + ", " - ", "*")[int(rng.integers(0, 3))]
        text = f"{text}{op}{part}"
    if rng.random() < 0.2:
        text = f"-({text})"
    return text


def random_guarded_expr_text(rng, n, depth=4):
    """An expression over x0..x{n-1} of at most `depth` levels using
    every opcode with no bound on its operands, so division, log, sqrt,
    negative powers and exp can trip their guards or overflow."""
    kind = int(rng.integers(0, 13 if depth > 0 else 2))
    if kind == 0:
        return f"x{int(rng.integers(0, n))}"
    if kind == 1:
        return repr(float(rng.choice([0.0, 0.5, 2.0, 3.0])))
    a = random_guarded_expr_text(rng, n, depth - 1)
    if kind <= 5:
        return f"({a} {'+-*/'[kind - 2]} {random_guarded_expr_text(rng, n, depth - 1)})"
    if kind == 6:
        return f"({a})^{int(rng.integers(-3, 4))}"
    if kind == 7:
        return f"-({a})"
    return f"{('exp', 'log', 'sin', 'cos', 'sqrt')[kind - 8]}({a})"


def random_point(rng, n):
    return rng.uniform(-1.5, 1.5, size=n)


def random_problem(rng, r_min=0):
    """A random guard-free Problem (polynomial pieces)."""
    n = int(rng.integers(1, 4))
    p = int(rng.integers(1, 3))
    m = int(rng.integers(0, 3))
    r = int(rng.integers(r_min, 3))

    def fn_entry():
        k = int(rng.integers(1, 3))
        return {"pieces": [_poly(rng, n) for _ in range(k)], "convex": False}

    return load_problem_dict({
        "name": "synthetic",
        "n": n,
        "objectives": [fn_entry() for _ in range(p)],
        "inequalities": [fn_entry() for _ in range(m)],
        "equalities": [_poly(rng, n) for _ in range(r)],
    })


def random_multipliers(pr: Problem, rng) -> MultiplierTriple:
    lam = rng.uniform(0.0, 2.0, size=pr.p)
    lam[int(rng.integers(0, pr.p))] += 0.1   # keep sum(lambda) > 0
    mu = rng.uniform(0.0, 2.0, size=pr.m)
    tau = rng.uniform(-2.0, 2.0, size=pr.r)
    return MultiplierTriple(lam=lam, mu=mu, tau=tau)


def random_minnorm_instance(rng):
    """(factors, dim) with <= 3 factors of <= 5 generators each, dim <= 3."""
    dim = int(rng.integers(1, 4))
    n_factors = int(rng.integers(1, 4))
    factors = []
    for _ in range(n_factors):
        n_gens = int(rng.integers(1, 6))
        gens = rng.uniform(-2.0, 2.0, size=(n_gens, dim))
        scale = float(rng.uniform(0.1, 2.0))
        factors.append((scale, gens))
    return factors, dim
