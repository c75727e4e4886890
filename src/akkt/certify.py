"""Certification of AKKT/KKT-type optimality conditions.

Checks the named conditions — A0 (iterate convergence), A1 (residual to
zero), A2 (unit simplex weights), A3 (asymptotic complementarity), E1
(penalty multiplier reconstruction), E2 (objective upper bounds), SGN
(sign condition), SCZ (sum converging to zero) — against a generated
sequence; decides exact KKT at a point; recovers KKT multipliers from
an AKKT sequence; applies a sufficient test for the quasi-normality
constraint qualification (QNCQ); certifies weak efficiency under
convexity; and cross-validates with a brute-force grid oracle.

Limit statements on finite data are operationalized as tail criteria:
the last value must be below tolerance and the tail may not regress by
more than a factor of 10 (plus tolerance) between consecutive records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .minnorm import MultiplierTriple, branch_sign, min_norm_point, residual_m_detail
from .penalty import complementarity, e2_values
from .problem import Problem, check_feasible, constraint_values
from .subdiff import DEFAULT_EPS_ACT, subdifferential
from .tape import DomainError, eval_batch, eval_compiled, eval_tapes, eval_values
from .tape import eval_grad  # noqa: F401 - perfbench's tracer test checks this binding

NORMALIZATION_NOTE = (
    "KKT multipliers are reported with sum(lambda) = 1; by positive "
    "homogeneity of the stationarity residual this is equivalent to any "
    "positive scaling of (lambda, mu, tau)"
)

A2_TOL = 1e-12          # |sum(lambda) - 1| treated as exact
E1_REL_TOL = 1e-12      # relative reconstruction tolerance for mu, tau
TAIL_WINDOW = 3         # records in the tail for limit criteria
PAIRWISE_GATE = 1e-3    # normalized-multiplier tail convergence gate
VANISHING_LAMBDA = 1e-2 # normalized lambda mass below this = abnormal limit


@dataclass(frozen=True)
class Verdict:
    """One condition's outcome with its numeric evidence."""

    condition: str
    outcome: str            # "holds" | "fails" | "inconclusive"
    evidence: dict
    tolerance: float


def _tail(values: list, width: int = TAIL_WINDOW) -> list:
    return values[-width:] if len(values) > width else list(values)


def _tail_to_zero(values: list, tol: float) -> tuple[bool, dict]:
    """Finite-data reading of 'values -> 0': last <= tol and no tail
    regression beyond a factor of 10 plus tolerance."""
    last = values[-1]
    window = _tail(values, TAIL_WINDOW + 1)
    trend = all(b <= 10.0 * a + tol for a, b in zip(window, window[1:]))
    return (last <= tol) and trend, {
        "last": float(last),
        "tail": [float(v) for v in window],
        "trend_ok": bool(trend),
    }


def _clean_records(records, pr: Problem):
    """(the unflagged records, the number flagged); every unflagged
    record's x must pass `Problem.check_point`."""
    if not records:
        raise ValueError("record list must be non-empty")
    ordered = list(records)
    for a, b in zip(ordered, ordered[1:]):
        if not b.k > a.k:
            raise ValueError("records must be strictly ordered by k")
    clean = [r for r in ordered if not r.flagged and r.mult is not None]
    if not clean:
        raise ValueError("all records are flagged; nothing to certify")
    for r in clean:
        pr.check_point(r.x, "record x")
    return clean, len(ordered) - len(clean)


def check_akkt_conditions(records, pr: Problem, xbar, tol: float,
                          eps_act: float = DEFAULT_EPS_ACT,
                          residual_mode: str = "general") -> list:
    """Verdicts for A0-A3, E1, E2, SGN, SCZ on a record sequence.

    Every quantity is recomputed from the problem and the recorded
    (k, x, multipliers); flagged records are excluded (their count is
    reported).  residual_mode 'prime' checks A1 against the fixed
    equality-gradient residual (the AKKT' variant).  xbar and every
    unflagged record's x must pass `Problem.check_point`.
    """
    clean, flagged = _clean_records(records, pr)
    xb = pr.check_point(xbar, "xbar")
    base = {"flagged_records": flagged, "records": len(clean)}
    verdicts = []

    dists = [float(np.linalg.norm(r.x - xb)) for r in clean]
    ok, ev = _tail_to_zero(dists, tol)
    verdicts.append(Verdict("A0", "holds" if ok else "fails", base | ev, tol))

    residuals = []
    for r in clean:
        val, _, _ = residual_m_detail(pr, r.x, r.mult, eps_act, residual_mode)
        residuals.append(val)
    ok, ev = _tail_to_zero(residuals, tol)
    ev["mode"] = residual_mode
    verdicts.append(Verdict("A1", "holds" if ok else "fails", base | ev, tol))

    lam_err = max(abs(float(r.mult.lam.sum()) - 1.0) for r in clean)
    neg = min(
        min((float(r.mult.lam.min()) for r in clean), default=0.0),
        min((float(r.mult.mu.min()) for r in clean if r.mult.mu.size), default=0.0),
    )
    a2_ok = lam_err <= A2_TOL and neg >= 0.0
    verdicts.append(Verdict(
        "A2", "holds" if a2_ok else "fails",
        base | {"max_simplex_error": float(lam_err), "min_multiplier": float(neg)},
        A2_TOL,
    ))

    inactive = [i for i, gfn in enumerate(pr.inequalities)
                if gfn.value(xb) < -tol]
    worst_mu = 0.0
    a3_ok = True
    for r in _tail(clean):
        for i in inactive:
            mu_i = float(r.mult.mu[i])
            worst_mu = max(worst_mu, mu_i)
            if mu_i != 0.0:
                a3_ok = False
    verdicts.append(Verdict(
        "A3", "holds" if a3_ok else "fails",
        base | {"inactive_constraints": inactive, "max_tail_mu": worst_mu},
        tol,
    ))

    # constraint values (g(x), h(x)) per record, shared by E1, E2, SGN, SCZ
    cons = [constraint_values(pr, r.x) for r in clean]

    e1_err = 0.0
    e1_ok = True
    for r, (gvals, hvals) in zip(clean, cons):
        for i, gv in enumerate(gvals):
            ref = r.k * max(gv, 0.0)
            err = abs(float(r.mult.mu[i]) - ref) / max(1.0, abs(ref))
            e1_err = max(e1_err, err)
        for j, hv in enumerate(hvals):
            ref = r.k * abs(hv)
            err = abs(abs(float(r.mult.tau[j])) - ref) / max(1.0, ref)
            e1_err = max(e1_err, err)
            rec_sign = r.sigma[j] if j < len(r.sigma) else branch_sign(float(r.mult.tau[j]))
            if hv != 0.0 and rec_sign != branch_sign(hv):
                e1_ok = False
        if e1_err > E1_REL_TOL:
            e1_ok = False
    verdicts.append(Verdict(
        "E1", "holds" if e1_ok else "fails",
        base | {"max_relative_error": float(e1_err)}, E1_REL_TOL,
    ))

    fbar = [fobj.value(xb) for fobj in pr.objectives]
    e2_worst = -math.inf
    sgn_worst = math.inf
    comp_sums = []
    for r, (gvals, hvals) in zip(clean, cons):
        terms, comp = complementarity(r.mult, gvals, hvals)
        for lhs in e2_values(pr, r.x, fbar, comp):
            e2_worst = max(e2_worst, lhs)
        for term in terms:
            sgn_worst = min(sgn_worst, term)
        comp_sums.append(abs(comp))
    verdicts.append(Verdict(
        "E2", "holds" if e2_worst <= tol else "fails",
        base | {"max_lhs": float(e2_worst)}, tol,
    ))

    if math.isinf(sgn_worst):
        sgn_worst = 0.0
    verdicts.append(Verdict(
        "SGN", "holds" if sgn_worst >= -tol else "fails",
        base | {"min_term": float(sgn_worst)}, tol,
    ))

    ok, ev = _tail_to_zero(comp_sums, tol)
    verdicts.append(Verdict("SCZ", "holds" if ok else "fails", base | ev, tol))
    return verdicts


def _active_constraint_generators(pr: Problem, xb, eps_act: float):
    """Subdifferential generators of the eps_act-active inequalities at
    xb, then +grad h_j and -grad h_j per equality, in problem order.

    Returns (generators, active inequality indices, fold), where
    fold(weights) sums one weight per generator into (mu, tau).
    """
    gens = []
    kinds = []  # (True, i, 1.0) for mu_i | (False, j, sign) for tau_j
    active = []
    for i, gfn in enumerate(pr.inequalities):
        if gfn.value(xb) >= -eps_act:
            active.append(i)
            for g in subdifferential(gfn, xb, eps_act).generators:
                gens.append(g)
                kinds.append((True, i, 1.0))
    for j, hg in enumerate(eval_tapes(pr.eq_tapes, xb)[1]):
        gens.extend((hg, -hg))
        kinds.extend(((False, j, 1.0), (False, j, -1.0)))

    def fold(weights):
        mu = np.zeros(pr.m)
        tau = np.zeros(pr.r)
        for w, (on_mu, idx, sign) in zip(weights, kinds):
            (mu if on_mu else tau)[idx] += sign * w
        return mu, tau

    return gens, tuple(active), fold


@dataclass(frozen=True, eq=False)
class KktResult:
    holds: bool
    mult: MultiplierTriple
    residual: float
    active_inequalities: tuple


def check_kkt(pr: Problem, xbar, eps_act: float = DEFAULT_EPS_ACT,
              tol: float = 1e-6) -> KktResult:
    """Exact KKT decision at xbar.

    Minimizes || sum_l lam_l xi_l + sum_i mu_i eta_i + sum_j tau_j grad h_j ||
    over lam in the unit simplex, mu >= 0 supported on eps_act-active
    inequalities (complementarity), tau free, with xi_l and eta_i ranging
    over the subdifferential polytopes at xbar.  The cone program is a
    nonnegative least-squares system: piece-gradient columns for every
    objective (simplex enforced by a penalty row), active inequality
    generators and +-grad h_j as nonnegative columns.  holds iff the
    recomputed residual after normalization is <= tol.  xbar must pass
    `Problem.check_point` and `check_feasible` with limit tol.  The
    first call in a process imports `scipy.optimize` for its NNLS.
    """
    # imported here, not at module top, so that `import akkt` and every
    # other command start without scipy.optimize
    from scipy.optimize import nnls

    xb = pr.check_point(xbar, "xbar")
    check_feasible(pr, xb, tol)
    n = pr.n

    obj_cols = []
    owners = []
    for l, fobj in enumerate(pr.objectives):
        sd = subdifferential(fobj, xb, eps_act)
        for g in sd.generators:
            obj_cols.append(g)
            owners.append(l)
    cone_cols, active_ineq, fold = _active_constraint_generators(pr, xb, eps_act)

    n_obj = len(obj_cols)
    n_cone = len(cone_cols)
    A_main = np.zeros((n, n_obj + n_cone))
    if n_obj:
        A_main[:, :n_obj] = np.column_stack(obj_cols)
    if n_cone:
        A_main[:, n_obj:] = np.column_stack(cone_cols)
    rho = 1e6
    A = np.vstack([A_main, np.concatenate([np.full(n_obj, rho), np.zeros(n_cone)])])
    b = np.zeros(n + 1)
    b[n] = rho
    z, _ = nnls(A, b)

    lam_total = float(z[:n_obj].sum())
    if lam_total <= 0.0:
        raise RuntimeError("simplex penalty failed to assign objective weight")
    z = z / lam_total
    residual = float(np.linalg.norm(A_main @ z))

    lam = np.zeros(pr.p)
    for w, l in zip(z[:n_obj], owners):
        lam[l] += w
    mu, tau = fold(z[n_obj:])
    mult = MultiplierTriple(lam=lam, mu=mu, tau=tau, a2_normalized=True)
    return KktResult(
        holds=residual <= tol,
        mult=mult,
        residual=residual,
        active_inequalities=active_ineq,
    )


@dataclass(frozen=True, eq=False)
class KktRecovery:
    outcome: str                     # "recovered" | "not_recovered" | "inconclusive"
    limit: MultiplierTriple | None   # delta-normalized tail average
    residual: float                  # KKT residual at xbar of the simplex-rescaled limit
    evidence: dict


def kkt_from_akkt(records, pr: Problem, xbar, eps_act: float = DEFAULT_EPS_ACT,
                  tol: float = 1e-6) -> KktRecovery:
    """Recover limit KKT multipliers from an AKKT sequence.

    Each record's multipliers are normalized by delta_k = ||(lam, mu,
    tau)||_2 (>= 1/sqrt(p) since sum(lam) = 1).  If the normalized
    lambda mass of the tail vanishes (final <= 1e-2, non-increasing),
    the limit is abnormal and KKT is not recovered: the reported
    residual is evaluated with the sum(lam) = 1 rescaled tail average,
    which stays bounded away from 0.  Otherwise the tail must converge
    (pairwise distance <= 1e-3, else inconclusive — never a guess); the
    limit is the tail average and the KKT residual is evaluated at xbar
    with the subdifferential polytopes there (closedness of the
    subdifferential map).  xbar and every unflagged record's x must pass
    `Problem.check_point`.
    """
    clean, flagged = _clean_records(records, pr)
    xb = pr.check_point(xbar, "xbar")
    tail = _tail(clean)

    vecs = []
    lam_fracs = []
    for r in tail:
        v = np.concatenate([r.mult.lam, r.mult.mu, r.mult.tau])
        delta = float(np.linalg.norm(v))
        vecs.append(v / delta)
        lam_fracs.append(float(r.mult.lam.sum()) / delta)
    avg = np.mean(np.vstack(vecs), axis=0)
    p, m = pr.p, pr.m
    limit = MultiplierTriple(
        lam=np.maximum(avg[:p], 0.0), mu=np.maximum(avg[p:p + m], 0.0),
        tau=avg[p + m:],
    )
    evidence = {
        "flagged_records": flagged,
        "tail_ks": [float(r.k) for r in tail],
        "normalized_lambda_mass": [float(v) for v in lam_fracs],
    }

    def simplex_residual(mt: MultiplierTriple) -> float:
        s = float(mt.lam.sum())
        if s <= 0.0:
            return math.inf
        rescaled = MultiplierTriple(
            lam=mt.lam / s, mu=mt.mu / s, tau=mt.tau / s, a2_normalized=True,
        )
        val, _, _ = residual_m_detail(pr, xb, rescaled, eps_act, "general")
        return val

    vanishing = lam_fracs[-1] <= VANISHING_LAMBDA and all(
        b <= a * (1.0 + 1e-9) for a, b in zip(lam_fracs, lam_fracs[1:])
    )
    if vanishing:
        residual = simplex_residual(limit)
        evidence["reason"] = (
            "normalized lambda mass vanishes along the tail: the limit "
            "multiplier is abnormal (lambda = 0), which no KKT point admits"
        )
        return KktRecovery("not_recovered", limit, residual, evidence)

    gap = 0.0
    for a in range(len(vecs)):
        for b_ in range(a + 1, len(vecs)):
            gap = max(gap, float(np.linalg.norm(vecs[a] - vecs[b_])))
    evidence["max_pairwise_distance"] = gap
    if gap > PAIRWISE_GATE:
        evidence["reason"] = (
            f"normalized tail multipliers have not converged "
            f"(pairwise distance {gap:.3e} > {PAIRWISE_GATE:.0e})"
        )
        return KktRecovery("inconclusive", limit, math.nan, evidence)

    residual = simplex_residual(limit)
    outcome = "recovered" if residual <= tol else "not_recovered"
    return KktRecovery(outcome, limit, residual, evidence)


@dataclass(frozen=True, eq=False)
class QncqResult:
    outcome: str        # "holds" | "inconclusive"
    min_norm: float
    evidence: dict


def check_qncq_sufficient(pr: Problem, xbar, eps_act: float = DEFAULT_EPS_ACT,
                          tol: float = 1e-8, seed: int = 0) -> QncqResult:
    """One-sided QNCQ test at a feasible point.

    G collects the subdifferential generators of eps_act-active
    inequalities and +-grad h_j.  If the min-norm point of conv(G) has
    norm > tol, no nonzero nonnegative combination of constraint
    subgradients vanishes, so no abnormal multiplier exists and QNCQ
    holds.  Otherwise the outcome is inconclusive: the neighborhood
    sign property is sampled (1000 seeded points in shrinking balls) as
    supporting evidence, but the check never reports failure.  xbar
    must pass `Problem.check_point` and `check_feasible`.
    """
    xb = pr.check_point(xbar, "xbar")
    check_feasible(pr, xb)

    gens, _, fold = _active_constraint_generators(pr, xb, eps_act)
    if not gens:
        return QncqResult("holds", math.inf, {
            "reason": "no active constraint generators: QNCQ holds vacuously",
        })

    res = min_norm_point([(1.0, np.vstack(gens))])
    if res.norm > tol:
        return QncqResult("holds", res.norm, {
            "reason": "no nonnegative combination of active constraint "
                      "subgradients vanishes (min-norm point is nonzero)",
            "generators": len(gens),
        })

    mu, tau = fold(res.weights[0])
    evidence = {
        "candidate_mu": [float(v) for v in mu],
        "candidate_tau": [float(v) for v in tau],
    }
    nz_mu = [i for i in range(pr.m) if mu[i] > 1e-12]
    nz_tau = [j for j in range(pr.r) if abs(tau[j]) > 1e-12]
    if not nz_mu and not nz_tau:
        evidence["reason"] = (
            "zero lies in conv(G) only through cancellation; the min-norm "
            "weights give no nonzero abnormal candidate"
        )
        return QncqResult("inconclusive", res.norm, evidence)

    rng = np.random.default_rng(seed)
    support = []
    for radius in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        hits = 0
        for _ in range(200):
            pt = xb + radius * rng.uniform(-1.0, 1.0, size=pr.n)
            ok = all(mu[i] * pr.inequalities[i].value(pt) > 0.0 for i in nz_mu)
            if ok:
                ok = all(tau[j] * eval_values((pr.eq_tapes[j],), pt)[0] > 0.0
                         for j in nz_tau)
            hits += 1 if ok else 0
        support.append({"radius": radius, "support_points": hits})
    evidence["neighborhood_sampling"] = support
    evidence["reason"] = (
        "zero nonnegative combination of active constraint subgradients "
        "exists; sampled neighborhood sign evidence reported, but the "
        "sufficient test cannot decide QNCQ"
    )
    return QncqResult("inconclusive", res.norm, evidence)


@dataclass(frozen=True, eq=False)
class ConvexCertificate:
    certified: bool
    verdicts: tuple
    evidence: dict


def _spot_check_hypotheses(pr: Problem, xb: np.ndarray, seed: int) -> int:
    """Spot-check the convexity and affinity assertions of pr around xb
    on points drawn from a seeded generator; ValueError with the
    offending point or pair on a violation.

    Each equality's gradient must stay within 1e-9 of its value at xb
    at 10 points of the box xb + [-1, 1]^n.  Each objective and
    inequality f must satisfy f(v) >= f(u) + g(u) @ (v - u) - 1e-8 on
    200 pairs (u, v) from the same box, g(u) the gradient of the
    strict-argmax piece at u; a pair where a piece trips a domain guard
    at u or v is skipped, since convexity is only asserted on the
    domain, and a function with no pair left raises ValueError, since
    its assertion went unchecked.  Returns the smallest number of pairs
    checked for any one function.  The points of each function are
    drawn in one call and evaluated through the tapes' generated code.
    """
    rng = np.random.default_rng(seed)
    for j, tape in enumerate(pr.eq_tapes):
        g0 = np.asarray(eval_compiled(tape, xb.tolist())[1])
        for pt in xb + rng.uniform(-1.0, 1.0, size=(10, pr.n)):
            g = np.asarray(eval_compiled(tape, pt.tolist())[1])
            gap = float(np.max(np.abs(g - g0)))
            if gap > 1e-9:
                raise ValueError(
                    f"equality constraint {j} is not affine: gradient varies "
                    f"by {gap:.3e} at {pt.tolist()}"
                )

    checked = []
    for fn in pr.objectives + pr.inequalities:
        pairs = xb + rng.uniform(-1.0, 1.0, size=(200, 2, pr.n))
        steps = pairs[:, 1] - pairs[:, 0]
        count = 0
        for (u, v), step in zip(pairs.tolist(), steps):
            try:
                # max keeps the first of equal values: the strict-argmax
                # piece, ties to the lowest index, as the kernels select
                fu, grad_u = max((eval_compiled(tape, u) for tape in fn.tapes),
                                 key=lambda res: res[0])
                fv = max(eval_compiled(tape, v)[0] for tape in fn.tapes)
            except DomainError:
                continue
            if fv < fu + float(np.asarray(grad_u) @ step) - 1e-8:
                raise ValueError(
                    f"convexity assertion for '{fn.label}' is false: the "
                    f"subgradient inequality fails for u={u}, v={v}"
                )
            count += 1
        if count == 0:
            raise ValueError(
                f"convexity assertion for '{fn.label}' could not be spot-checked: "
                f"every drawn pair left its domain"
            )
        checked.append(count)
    return min(checked)


def certify_weak_efficiency_convex(pr: Problem, xbar, records,
                                   tol: float = 1e-6, seed: int = 0,
                                   eps_act: float = DEFAULT_EPS_ACT) -> ConvexCertificate:
    """Sufficient weak-efficiency certificate for convex problems.

    Requires every objective and inequality to carry the convex
    assertion and all equalities to be affine (gradients constant
    across 10 random points within 1e-9).  The convexity assertion is
    spot-checked on 200 seeded pairs per function, skipping a pair that
    leaves a function's domain; a violation raises with the offending
    pair, and so does a function whose every pair left its domain
    (`_spot_check_hypotheses`).  Certification then demands A0-A3
    on the records with the fixed-gradient residual (the AKKT' variant)
    at activity tolerance eps_act, plus SCZ.  Evidence includes the
    limit scalarization sum_l lam_l f_l(xbar) and, as
    `convexity_pairs_checked`, the smallest number of pairs checked for
    any one function.  xbar and every unflagged record's x must pass
    `Problem.check_point`.
    """
    xb = pr.check_point(xbar, "xbar")
    for fn in list(pr.objectives) + list(pr.inequalities):
        if not fn.convex:
            raise ValueError(
                f"convexity hypothesis not satisfied: '{fn.label}' does not "
                f"carry the convex assertion"
            )
    pairs_checked = _spot_check_hypotheses(pr, xb, seed)

    fragment = check_akkt_conditions(records, pr, xb, tol, eps_act=eps_act,
                                     residual_mode="prime")
    wanted = {"A0", "A1", "A2", "A3", "SCZ"}
    verdicts = tuple(v for v in fragment if v.condition in wanted)
    certified = all(v.outcome == "holds" for v in verdicts)

    clean, _ = _clean_records(records, pr)
    lam_limit = np.mean(np.vstack([r.mult.lam for r in _tail(clean)]), axis=0)
    scalarization = float(sum(
        lam_limit[l] * fobj.value(xb) for l, fobj in enumerate(pr.objectives)
    ))
    evidence = {
        "limit_lambda": [float(v) for v in lam_limit],
        "scalarization_at_point": scalarization,
        "convexity_pairs_checked": pairs_checked,
        "affine_points_checked": 10,
    }
    return ConvexCertificate(certified=certified, verdicts=verdicts,
                             evidence=evidence)


@dataclass(frozen=True)
class OracleResult:
    weakly_efficient: bool
    counterexample: tuple | None
    points_checked: int
    feasible_points: int


def _batch_max(fn, coords: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Row-wise max of fn's pieces over coords; clears ok in place on the
    rows where a piece is out of domain."""
    fmax = np.full(coords.shape[0], -np.inf)
    for piece in fn.pieces:
        vals, good = eval_batch(piece, coords)
        ok &= good
        fmax = np.maximum(fmax, vals)
    return fmax


def _grid_block(axes, counts, start: int, size: int) -> np.ndarray:
    """Rows start .. start + size - 1 of the lexicographic grid over axes
    (last axis fastest), as a (size, n) array.  Each axis column is a
    run-length pattern: axis d repeats each value for the product of the
    later counts, cycling through its values, so no flat index is decoded."""
    coords = np.empty((size, len(axes)))
    last, s0 = axes[-1], start % counts[-1]
    if counts[-1] < size:
        coords[:, -1] = np.resize(np.roll(last, -s0), size)
    else:  # at most one wrap: the axis from s0 on, then from its start
        head = last[s0:s0 + size]
        coords[:head.size, -1] = head
        coords[head.size:, -1] = last[:size - head.size]
    run = counts[-1]
    for d in range(len(axes) - 2, -1, -1):
        first, offset = divmod(start, run)
        n_runs = (offset + size - 1) // run + 1
        reps = np.full(n_runs, run)
        reps[0] -= offset
        reps[-1] -= n_runs * run - offset - size
        coords[:, d] = np.repeat(axes[d][(first + np.arange(n_runs)) % counts[d]], reps)
        run *= counts[d]
    return coords


def weak_efficiency_oracle(pr: Problem, xbar, lo, hi, step: float = 1e-3) -> OracleResult:
    """Brute-force weak-efficiency check on a grid (n <= 3).

    A counterexample is a grid point with constraint violation <= 1e-8
    that improves every objective by more than 1e-9.  Grid points where
    a domain guard trips, in a constraint or an objective, count as
    infeasible.  The constraints are evaluated on every grid point and
    the objectives only on the points that satisfy them.  The scan is
    lexicographic, in blocks of 65,536 points, and reports the first
    counterexample found; `feasible_points` then counts the feasible
    points up to the end of the block that holds it, not of the grid.
    xbar must pass `Problem.check_point`.
    """
    if pr.n > 3:
        raise ValueError("the grid oracle supports at most 3 variables")
    xb = pr.check_point(xbar, "xbar")
    lo_a = np.broadcast_to(np.asarray(lo, dtype=np.float64), (pr.n,)).copy()
    hi_a = np.broadcast_to(np.asarray(hi, dtype=np.float64), (pr.n,)).copy()
    if not (np.all(np.isfinite(lo_a)) and np.all(np.isfinite(hi_a))):
        raise ValueError("the grid box corners must be finite")
    if np.any(lo_a > xb) or np.any(hi_a < xb):
        raise ValueError("the grid box must contain the candidate point")
    if not (step > 0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")

    axes = [np.arange(lo_a[d], hi_a[d] + 0.5 * step, step) for d in range(pr.n)]
    counts = [len(a) for a in axes]
    total = int(np.prod(counts))
    fbar = np.array([fobj.value(xb) for fobj in pr.objectives])

    feasible_total = 0
    block = 1 << 16
    for start in range(0, total, block):
        coords = _grid_block(axes, counts, start, min(block, total - start))
        ok = np.ones(coords.shape[0], dtype=bool)
        for gfn in pr.inequalities:
            ok &= _batch_max(gfn, coords, ok) <= 1e-8
        for h in pr.equalities:
            vals, good = eval_batch(h, coords)
            ok &= good
            ok &= np.abs(vals) <= 1e-8

        feasible = coords[np.flatnonzero(ok)]
        ok = np.ones(feasible.shape[0], dtype=bool)
        dominates = np.ones(feasible.shape[0], dtype=bool)
        for l, fobj in enumerate(pr.objectives):
            dominates &= _batch_max(fobj, feasible, ok) < fbar[l] - 1e-9
        feasible_total += int(ok.sum())
        hit = ok & dominates
        if hit.any():
            return OracleResult(
                weakly_efficient=False,
                counterexample=tuple(float(v) for v in feasible[int(hit.argmax())]),
                points_checked=total,
                feasible_points=feasible_total,
            )
    return OracleResult(
        weakly_efficient=True,
        counterexample=None,
        points_checked=total,
        feasible_points=feasible_total,
    )
