"""Penalty path: inner subproblem solver, multiplier extraction, and
AKKT-style sequence generation.

For a base point xbar and penalty weight k the inner objective is

    phi_k(x) = phi(x) + (k/2) [ sum_i max(g_i(x), 0)^2 + sum_j h_j(x)^2 ]
               + (1/2) ||x - xbar||^2,

with phi(x) = max_l (f_l(x) - f_l(xbar)).  phi_k(xbar) = 0, so any
minimizer has phi_k <= 0.  Approximate minimizers x^k with multipliers
mu_i = k max(g_i, 0) and tau_j = k h_j then form the candidate sequence
whose stationarity certificates the certification layer checks.

The inner solver is a restart ladder of normalized projected
subgradient rounds: round r runs ROUND_LEN iterations with step
c_r / sqrt(t) (c_r = delta * STEP_FRAC * STEP_SHRINK^r), restarting
from the incumbent.  Each round proposes its best-by-value iterate and
the average of its tail iterates; the incumbent keeps the lowest
phi_k.  The ladder stops when the min-norm stationarity estimate of
the incumbent drops below STAT_TOL, INNER_CAP iterations are spent,
or the step floor is reached; up to POLISH_ROUNDS line searches along
the min-norm model direction follow.  The k-schedule is truncated once
the residual drops below RESIDUAL_STOP.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .backend import kernels
from .minnorm import (MinNormResult, MultiplierTriple, branch_sign, min_norm_point,
                      residual_m_detail)
from .problem import (FeasibilityReport, Problem, check_feasible, constraint_values,
                      feasibility_violation)
from .subdiff import DEFAULT_EPS_ACT, subdifferential
from .tape import DomainError, eval_tapes
from .tape import eval_grad  # noqa: F401 - perfbench's tracer test checks this binding

INNER_CAP = 5000        # total inner iterations per k
ROUND_LEN = 250         # iterations per restart round
STEP_FRAC = 0.1         # c_0 = delta * STEP_FRAC
STEP_SHRINK = 0.1       # c_{r+1} = STEP_SHRINK * c_r
STAT_TOL = 1e-8         # stop when stationarity <= this
RESIDUAL_STOP = 1e-8    # truncate the k-schedule below this
POLISH_ROUNDS = 40      # model-direction line searches after the ladder


def geometric_schedule(k_min: float = 1.0, k_max: float = 1e8):
    """Penalty weights k_min, 10 k_min, 100 k_min, ... up to k_max (inclusive)."""
    if not (k_min > 0 and math.isfinite(k_min)):
        raise ValueError("k_min must be positive and finite")
    if not (k_max >= k_min and math.isfinite(k_max)):
        raise ValueError("k_max must be >= k_min and finite")
    ks = [float(k_min)]
    while ks[-1] * 10.0 <= k_max * (1.0 + 1e-12):
        ks.append(ks[-1] * 10.0)
    return tuple(ks)


@dataclass(frozen=True)
class PenaltyConfig:
    """Knobs for the penalty path."""

    delta: float = 1.0                 # trust ball radius around xbar
    schedule: tuple = field(default_factory=geometric_schedule)
    eps_act: float = 1e-6              # activity tolerance for polytopes

    def __post_init__(self):
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError("delta must be positive and finite")
        sched = tuple(float(k) for k in self.schedule)
        if not sched:
            raise ValueError("schedule must be non-empty")
        for k in sched:
            if not (k > 0 and math.isfinite(k)):
                raise ValueError("schedule entries must be positive and finite")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ValueError("schedule must be strictly increasing")
        object.__setattr__(self, "schedule", sched)
        if not self.eps_act >= 0:
            raise ValueError("eps_act must be >= 0")


class ProblemKernel:
    """The tapes of one problem as the program the evaluation kernels
    run, anchored at a base point xbar (objective offsets fbar are
    frozen at build).

    The tapes are laid out objectives first, then inequalities, then
    equalities.  The program is the `emit_program` pair over the tapes'
    straight-line code for dimension n (`Tape.compiled`), built once
    per distinct layout of equal tapes and shared by every kernel over
    it; fbar and xbar are its only per-kernel data.  `fbar` and `xbar`
    stay numpy for callers; the kernels get list copies.  `xbar` is the
    kernel's own copy of the point, so that it cannot drift from the
    frozen fbar when the caller's array changes.  xbar and
    every point a method is given must pass `Problem.check_point`.
    """

    def __init__(self, pr: Problem, xbar):
        xb = pr.check_point(xbar, "xbar").copy()
        tapes = []
        obj_ps = [0]
        for fobj in pr.objectives:
            tapes.extend(fobj.tapes)
            obj_ps.append(len(tapes))
        ineq_ps = [len(tapes)]
        for gfn in pr.inequalities:
            tapes.extend(gfn.tapes)
            ineq_ps.append(len(tapes))
        tapes.extend(pr.eq_tapes)
        ops, starts = [], [0]
        for t in tapes:
            ops.extend(t.ops)
            starts.append(len(ops))
        self.pr = pr
        self.xbar = xb
        self.fbar = np.array([fobj.value(xb) for fobj in pr.objectives])
        self._tapes = tapes
        self._starts = starts
        program = kernels.emit_program(tuple(t.compiled(pr.n) for t in tapes), tuple(starts),
                                       tuple(obj_ps), tuple(ineq_ps), pr.r, pr.n)
        # ops is not run: the benchmark tracer counts its length as tape instructions
        self._program = (ops, program, self.fbar.tolist(), xb.tolist())

    def _raise_domain(self, status: int, bad: int):
        t = bisect_right(self._starts, bad) - 1
        raise self._tapes[t].domain_error(status, bad - self._starts[t])

    def _phi_k(self, k: float, x):
        x = self.pr.check_point(x)
        status, bad, phi, phik, d = kernels.eval_phi_k(*self._program, float(k), x)
        if status:
            self._raise_domain(status, bad)
        return phi, phik, d

    def eval_phik(self, k: float, x) -> tuple[float, float]:
        """(phi(x), phi_k(x)); raises DomainError on guard violations and
        ValueError on a point of the wrong shape or with non-finite values."""
        return self._phi_k(k, x)[:2]

    def subgradient(self, k: float, x) -> np.ndarray:
        """The kernel's one-selection subgradient of phi_k at x: strict
        argmax pieces, so exact ties keep the lowest piece index.  Raises
        as `eval_phik`."""
        return np.asarray(self._phi_k(k, x)[2])

    def subgrad_round(self, k: float, delta: float, c: float, L: int,
                      tail_from: int, x_io, x_best_out, x_avg_out):
        """One ladder round from x_io; see the kernel of the same name.
        Returns (f_best, n_done); raises as `eval_phik`."""
        self.pr.check_point(x_io)
        status, bad, f_best, _, n_done = kernels.subgrad_round(
            *self._program, float(k), float(delta), float(c),
            int(L), int(tail_from), x_io, x_best_out, x_avg_out,
        )
        if status:
            self._raise_domain(status, bad)
        return f_best, n_done


@dataclass(frozen=True, eq=False)
class StationarityModel:
    """Min-norm certificate for the subgradient model of phi_k at x."""

    value: float                 # min-norm over the assembled model
    lam: np.ndarray              # objective weights from the phi factor
    minnorm: MinNormResult


def stationarity_model(kern: ProblemKernel, x, k: float,
                       eps_act: float = DEFAULT_EPS_ACT) -> StationarityModel:
    """Assemble the polytope model of the subdifferential of phi_k at x
    and return its min-norm point.

    The phi factor collects the gradients of near-active pieces of
    near-active objectives (two-level eps_act rule); each violated
    inequality contributes k*max(g_i,0) times its subdifferential
    polytope, each nonzero equality k*|h_j| times its signed gradient,
    and the proximal term contributes x - xbar.  Objective weights
    lambda are read off the phi factor and sum to 1.
    """
    pr = kern.pr
    xa = pr.check_point(x)
    k = float(k)

    sds = [subdifferential(fobj, xa, eps_act) for fobj in pr.objectives]
    gaps = [sd.value - float(fb) for sd, fb in zip(sds, kern.fbar)]
    phi = max(gaps)
    gens0 = []
    owners = []
    for l, (sd, gap) in enumerate(zip(sds, gaps)):
        if gap >= phi - eps_act:
            gens0.append(sd.generators)
            owners += [l] * len(sd.active)
    factors = [(1.0, np.vstack(gens0))]

    for gfn in pr.inequalities:
        sd = subdifferential(gfn, xa, eps_act)
        if sd.value > 0.0:
            factors.append((k * sd.value, sd.generators))
    for hv, hg in zip(*eval_tapes(pr.eq_tapes, xa)):
        if hv != 0.0:
            factors.append((k * abs(hv), (branch_sign(hv) * hg)[None, :]))
    factors.append((1.0, (xa - kern.xbar)[None, :]))

    res = min_norm_point(factors)
    lam = np.zeros(pr.p)
    for w, l in zip(res.weights[0], owners):
        lam[l] += w
    s = float(lam.sum())
    if s > 0:
        lam = lam / s
    return StationarityModel(value=res.norm, lam=lam, minnorm=res)


def _polish(kern: ProblemKernel, k: float, x, phi: float, phik: float,
            model: StationarityModel, cfg: PenaltyConfig):
    """Descent along the min-norm model direction with a bisection line
    search on the directional derivative, from x with its phi, phi_k and
    stationarity model.  Deterministic; accepts a step only on strict
    phi_k improvement, so phi_k(x) <= 0 is preserved.

    Returns (x, phi, phik, StationarityModel, steps_taken).
    """
    steps = 0
    for _ in range(POLISH_ROUNDS):
        if model.value <= STAT_TOL:
            break
        dhat = -model.minnorm.point / model.value
        shift = x - kern.xbar
        b = float(shift @ dhat)
        disc = b * b - float(shift @ shift) + cfg.delta * cfg.delta
        t_hi = -b + math.sqrt(disc) if disc > 0 else 0.0
        if t_hi <= 0.0:
            break

        def deriv(t: float) -> float:
            try:
                return float(kern.subgradient(k, x + t * dhat) @ dhat)
            except DomainError:
                return math.inf  # out of domain: pull the bracket back

        if deriv(0.0) >= 0.0:
            break  # the model direction is not a strict descent direction
        lo, hi = 0.0, t_hi
        if deriv(t_hi) < 0.0:
            lo = t_hi  # descent all the way to the trust-ball boundary
        else:
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                if deriv(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
        if lo <= 0.0:
            break
        x_new = x + lo * dhat
        try:
            phi_new, phik_new = kern.eval_phik(k, x_new)
        except DomainError:
            break
        if not phik_new < phik:
            break
        x, phi, phik = x_new, phi_new, phik_new
        steps += 1
        model = stationarity_model(kern, x, k, cfg.eps_act)
    return x, phi, phik, model, steps


@dataclass(frozen=True, eq=False)
class InnerStatus:
    """Outcome of one inner subproblem solve."""

    x: np.ndarray
    phi: float
    phi_k: float
    stationarity: float
    iterations: int
    rounds: int
    polish_steps: int


def solve_subproblem(kern: ProblemKernel, k: float, cfg: PenaltyConfig | None = None,
                     x_init=None) -> InnerStatus:
    """Minimize phi_k over the delta-ball around xbar by the restart
    ladder.  Candidates always include xbar itself (phi_k(xbar) <= 0
    guards the certificate phi_k(x^k) <= 0) and, when given, x_init."""
    if cfg is None:
        cfg = PenaltyConfig()
    k = float(k)
    if not (k > 0 and math.isfinite(k)):
        raise ValueError("k must be positive and finite")
    n = kern.pr.n

    candidates = [kern.xbar.copy()]
    if x_init is not None:
        xi = kern.pr.check_point(x_init, "x_init")
        shift = xi - kern.xbar
        d = float(np.linalg.norm(shift))
        if d > cfg.delta:
            xi = kern.xbar + (cfg.delta / d) * shift
        candidates.append(xi)

    best_x = None
    best_phi = math.inf
    best_phik = math.inf
    for idx, xc in enumerate(candidates):
        try:
            phi, phik = kern.eval_phik(k, xc)
        except DomainError:
            if idx == 0:
                raise  # xbar itself must be evaluable
            continue
        if phik < best_phik:
            best_x, best_phi, best_phik = xc, phi, phik

    model = stationarity_model(kern, best_x, k, cfg.eps_act)
    stat = model.value
    total = 0
    rounds = 0
    c = cfg.delta * STEP_FRAC
    c_floor = 1e-13 * max(1.0, float(np.max(np.abs(kern.xbar))) if n else 1.0)

    while stat > STAT_TOL and total < INNER_CAP and c >= c_floor:
        L = min(ROUND_LEN, INNER_CAP - total)
        x_io = best_x.copy()
        x_round_best = np.empty(n)
        x_avg = np.empty(n)
        f_round_best, n_done = kern.subgrad_round(
            k, cfg.delta, c, L, max(1, L // 2), x_io, x_round_best, x_avg,
        )
        total += n_done
        rounds += 1
        if f_round_best < best_phik:
            phi_rb, _ = kern.eval_phik(k, x_round_best)
            best_x, best_phi, best_phik = x_round_best, phi_rb, f_round_best
        for xc in (x_avg, x_io):
            try:
                phi_c, phik_c = kern.eval_phik(k, xc)
            except DomainError:
                continue
            if phik_c < best_phik:
                best_x, best_phi, best_phik = xc.copy(), phi_c, phik_c
        model = stationarity_model(kern, best_x, k, cfg.eps_act)
        stat = model.value
        c *= STEP_SHRINK

    polish_steps = 0
    if stat > STAT_TOL:
        best_x, best_phi, best_phik, model, polish_steps = _polish(
            kern, k, best_x, best_phi, best_phik, model, cfg,
        )
        stat = model.value

    return InnerStatus(
        x=best_x,
        phi=best_phi,
        phi_k=best_phik,
        stationarity=stat,
        iterations=total,
        rounds=rounds,
        polish_steps=polish_steps,
    )


def extract_multipliers(kern: ProblemKernel, x, k: float,
                        eps_act: float = DEFAULT_EPS_ACT):
    """Multipliers of the penalty construction at x:

    mu_i = k * max(g_i(x), 0), tau_j = k * h_j(x) (signed; the branch
    sign sigma_j = sign(h_j) picks gamma_j = sigma_j grad h_j), and
    lambda from the min-norm weights of the phi factor (sums to 1).

    Returns (MultiplierTriple, sigma, StationarityModel).
    """
    pr = kern.pr
    xa = pr.check_point(x)
    k = float(k)
    model = stationarity_model(kern, xa, k, eps_act)
    gvals, hvals = constraint_values(pr, xa)
    mu = np.empty(pr.m)
    for i, gv in enumerate(gvals):
        mu[i] = k * max(gv, 0.0)
    tau = np.array([k * hv for hv in hvals])
    mult = MultiplierTriple(lam=model.lam, mu=mu, tau=tau, a2_normalized=True)
    return mult, tuple(branch_sign(hv) for hv in hvals), model


@dataclass(frozen=True, eq=False)
class SequenceRecord:
    """One penalty step: the candidate point with its certificates."""

    k: float
    x: np.ndarray
    mult: MultiplierTriple | None
    sigma: tuple
    residual: float            # min-norm stationarity residual, sign-branched
    residual_prime: float      # residual with gamma_j fixed to grad h_j
    stationarity: float        # min-norm of the phi_k model at x
    phi: float
    phi_k: float
    e2: tuple                  # per-objective upper-bound certificate values
    feasibility: FeasibilityReport
    iterations: int
    flagged: bool
    status: str


@dataclass(frozen=True, eq=False)
class PenaltySequence:
    """Output of the penalty path for one (problem, xbar)."""

    problem: Problem
    xbar: np.ndarray
    fbar: np.ndarray
    config: PenaltyConfig
    records: tuple


def complementarity(mult: MultiplierTriple, gvals, hvals) -> tuple[list[float], float]:
    """The terms mu_i g_i(x), then tau_j h_j(x), from constraint values
    at x, and their sum accumulated left to right."""
    terms = [float(mult.mu[i]) * v for i, v in enumerate(gvals)]
    terms += [float(mult.tau[j]) * v for j, v in enumerate(hvals)]
    total = 0.0
    for term in terms:
        total += term
    return terms, total


def e2_values(pr: Problem, x, fbar, comp: float) -> tuple:
    """f_l(x) - f_l(xbar) + comp/2 per objective, comp the complementarity
    sum at x; the penalty construction keeps every entry <= 0."""
    return tuple(f.value(x) - float(fbar[l]) + 0.5 * comp
                 for l, f in enumerate(pr.objectives))


def generate_akkt_sequence(pr: Problem, xbar, cfg: PenaltyConfig | None = None) -> PenaltySequence:
    """Run the penalty path at xbar over cfg.schedule.

    xbar must pass `Problem.check_point` and `check_feasible`.  The
    schedule truncates once the sign-branched residual drops below
    RESIDUAL_STOP.  A DomainError during an inner solve produces a
    flagged record (kept in the output) and the path continues from the
    last successful iterate.
    """
    if cfg is None:
        cfg = PenaltyConfig()
    kern = ProblemKernel(pr, xbar)
    check_feasible(pr, kern.xbar)

    records = []
    x_warm = None
    for k in cfg.schedule:
        try:
            inner = solve_subproblem(kern, k, cfg, x_init=x_warm)
        except DomainError as e:
            anchor = x_warm if x_warm is not None else kern.xbar
            records.append(SequenceRecord(
                k=float(k), x=np.array(anchor, copy=True), mult=None, sigma=(),
                residual=math.nan, residual_prime=math.nan, stationarity=math.nan,
                phi=math.nan, phi_k=math.nan, e2=(),
                feasibility=feasibility_violation(pr, anchor),
                iterations=0, flagged=True, status=str(e),
            ))
            continue
        mult, sigma, model = extract_multipliers(kern, inner.x, k, cfg.eps_act)
        res, _, _ = residual_m_detail(pr, inner.x, mult, cfg.eps_act, "general")
        res_p, _, _ = residual_m_detail(pr, inner.x, mult, cfg.eps_act, "prime")
        _, comp = complementarity(mult, *constraint_values(pr, inner.x))
        rec = SequenceRecord(
            k=float(k),
            x=inner.x.copy(),
            mult=mult,
            sigma=sigma,
            residual=res,
            residual_prime=res_p,
            stationarity=inner.stationarity,
            phi=inner.phi,
            phi_k=inner.phi_k,
            e2=e2_values(pr, inner.x, kern.fbar, comp),
            feasibility=feasibility_violation(pr, inner.x),
            iterations=inner.iterations,
            flagged=False,
            status="ok",
        )
        records.append(rec)
        x_warm = inner.x
        if res <= RESIDUAL_STOP:
            break
    return PenaltySequence(
        problem=pr, xbar=kern.xbar, fbar=kern.fbar, config=cfg,
        records=tuple(records),
    )


_CSV_COLUMNS = (
    "k", "x", "lambda", "mu", "tau", "residual_m", "residual_m_prime",
    "feas", "phi", "e2_max", "status",
)


def _join(vec) -> str:
    return ";".join(repr(float(v)) for v in vec)


def sequence_to_csv(seq: PenaltySequence) -> str:
    """Deterministic CSV of the sequence (one row per penalty step)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_COLUMNS)
    for rec in seq.records:
        if rec.mult is None:
            lam = mu = tau = ""
        else:
            lam = _join(rec.mult.lam)
            mu = _join(rec.mult.mu)
            tau = _join(rec.mult.tau)
        w.writerow([
            repr(float(rec.k)), _join(rec.x), lam, mu, tau,
            repr(float(rec.residual)), repr(float(rec.residual_prime)),
            repr(float(rec.feasibility.aggregate)), repr(float(rec.phi)),
            repr(float(max(rec.e2))) if rec.e2 else "nan",
            rec.status,
        ])
    return buf.getvalue()


def save_sequence_csv(seq: PenaltySequence, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(sequence_to_csv(seq))
