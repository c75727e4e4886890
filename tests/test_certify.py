"""Certification layer: AKKT verdicts, KKT decisions, recovery, QNCQ,
convex certificates, and the grid oracle."""
import dataclasses
import math

import numpy as np
import pytest

from akkt.certify import (
    _grid_block,
    certify_weak_efficiency_convex,
    check_akkt_conditions,
    check_kkt,
    check_qncq_sufficient,
    kkt_from_akkt,
    weak_efficiency_oracle,
)
from akkt.expr import DomainError
from akkt.minnorm import MultiplierTriple, residual_m
from akkt.penalty import (
    PenaltyConfig,
    ProblemKernel,
    SequenceRecord,
    extract_multipliers,
    generate_akkt_sequence,
)
from akkt.problem import builtin, feasibility_violation, load_problem_dict
from akkt.tape import eval_value

from _oracles import divmod_grid_block, weak_efficiency_oracle_reference
from _synthetic import _poly

CONDITIONS = ("A0", "A1", "A2", "A3", "E1", "E2", "SGN", "SCZ")


def record_at(pr, k, x, mult, sigma=()):
    """Hand-built record; the checker recomputes everything it judges."""
    xa = np.asarray(x, dtype=np.float64)
    return SequenceRecord(
        k=float(k), x=xa, mult=mult, sigma=tuple(sigma),
        residual=residual_m(pr, xa, mult), residual_prime=math.nan,
        stationarity=0.0, phi=0.0, phi_k=0.0, e2=(),
        feasibility=feasibility_violation(pr, xa),
        iterations=0, flagged=False, status="ok",
    )


def by_condition(verdicts):
    table = {v.condition: v for v in verdicts}
    assert tuple(table) == CONDITIONS
    return table


class TestAkktConditions:
    def test_corpus_holds_at_percent_tolerance(self, corpus):
        for pr, xbar, seq in corpus:
            vs = check_akkt_conditions(seq.records, pr, xbar, tol=1e-2)
            table = by_condition(vs)
            failing = [c for c, v in table.items() if v.outcome != "holds"]
            assert not failing, (pr.name, failing)

    def test_constant_exact_sequence_holds_at_zero_tolerance(self, p2):
        kern = ProblemKernel(p2, [0.5])
        records = []
        for k in (1.0, 2.0, 3.0):
            mult, sigma, _ = extract_multipliers(kern, np.array([0.5]), k)
            records.append(record_at(p2, k, [0.5], mult, sigma))
        vs = check_akkt_conditions(records, p2, [0.5], tol=0.0)
        assert all(v.outcome == "holds" for v in vs)
        assert records[0].mult.lam == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_tight_tolerance_fails(self, p1, seq_p1_1e6):
        vs = check_akkt_conditions(seq_p1_1e6.records, p1, [0.0], tol=1e-12)
        table = by_condition(vs)
        assert table["A0"].outcome == "fails"

    def test_a3_rejects_weight_on_inactive_constraint(self, p4):
        mult = MultiplierTriple(lam=[1.0], mu=[0.5], tau=[])
        records = [record_at(p4, k, [0.0], mult) for k in (1.0, 2.0)]
        table = by_condition(check_akkt_conditions(records, p4, [0.0], tol=1e-2))
        assert table["A3"].outcome == "fails"
        assert table["A3"].evidence["max_tail_mu"] == 0.5
        assert table["A3"].evidence["inactive_constraints"] == [0]
        # mu * g < 0 also breaks the sign condition
        assert table["SGN"].outcome == "fails"

    def test_e1_rejects_wrong_penalty_weight(self, p1):
        # at x = -0.5, k = 4 the construction gives mu = 1; use 2
        mult = MultiplierTriple(lam=[1.0], mu=[2.0], tau=[])
        records = [record_at(p1, 4.0, [-0.5], mult)]
        table = by_condition(check_akkt_conditions(records, p1, [0.0], tol=1e-2))
        assert table["E1"].outcome == "fails"
        assert table["E1"].evidence["max_relative_error"] == pytest.approx(1.0)
        assert table["SGN"].outcome == "holds"   # mu*g = 0.5 >= 0

    def test_sign_condition_rejects_flipped_equality_branch(self, p3):
        mult = MultiplierTriple(lam=[0.5, 0.5], mu=[], tau=[-1.0])
        records = [record_at(p3, 10.0, [0.55, 0.55], mult, sigma=(-1.0,))]
        table = by_condition(check_akkt_conditions(records, p3, [0.55, 0.55], tol=1e-2))
        assert table["SGN"].outcome == "fails"
        assert table["E1"].outcome == "fails"    # recorded branch fights sign(h)

    def test_prime_mode_reported_in_evidence(self, p3, seq_p3):
        vs = check_akkt_conditions(seq_p3.records, p3, [0.5, 0.5],
                                   tol=1e-2, residual_mode="prime")
        table = by_condition(vs)
        assert table["A1"].outcome == "holds"
        assert table["A1"].evidence["mode"] == "prime"

    def test_flagged_records_are_excluded_but_counted(self, p1, seq_p1):
        flagged = SequenceRecord(
            k=seq_p1.records[-1].k * 10, x=np.array([0.0]), mult=None, sigma=(),
            residual=math.nan, residual_prime=math.nan, stationarity=math.nan,
            phi=math.nan, phi_k=math.nan, e2=(),
            feasibility=feasibility_violation(p1, [0.0]),
            iterations=0, flagged=True, status="domain guard")
        vs = check_akkt_conditions(list(seq_p1.records) + [flagged], p1, [0.0], tol=1e-2)
        table = by_condition(vs)
        assert all(v.outcome == "holds" for v in vs)
        assert table["A0"].evidence["flagged_records"] == 1

    def test_empty_and_misordered_records_rejected(self, p1, seq_p1):
        with pytest.raises(ValueError):
            check_akkt_conditions([], p1, [0.0], tol=1e-2)
        twice = [seq_p1.records[0], seq_p1.records[0]]
        with pytest.raises(ValueError):
            check_akkt_conditions(twice, p1, [0.0], tol=1e-2)

    def test_implications_hold_recordwise(self, corpus):
        """E1-form weights make every complementarity term nonnegative,
        and with A0 + E2 the term sum vanishes along the sequence."""
        for pr, xbar, seq in corpus:
            for rec in seq.records:
                for i, gfn in enumerate(pr.inequalities):
                    assert float(rec.mult.mu[i]) * gfn.value(rec.x) >= 0.0
                for j, h in enumerate(pr.equalities):
                    assert float(rec.mult.tau[j]) * eval_value(h, rec.x) >= 0.0
            table = by_condition(
                check_akkt_conditions(seq.records, pr, xbar, tol=1e-2))
            if all(table[c].outcome == "holds" for c in ("A0", "SGN", "E2")):
                assert table["SCZ"].outcome == "holds"


class TestCheckKkt:
    def test_degenerate_point_is_not_kkt(self, p1):
        res = check_kkt(p1, [0.0])
        assert not res.holds
        assert abs(res.residual - 1.0) <= 1e-9
        assert res.active_inequalities == (0,)

    def test_biobjective_balance(self, p2):
        res = check_kkt(p2, [0.5])
        assert res.holds
        assert res.residual <= 1e-6
        assert res.mult.lam == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_equality_multiplier_sign(self, p3):
        res = check_kkt(p3, [0.5, 0.5])
        assert res.holds
        assert float(res.mult.tau[0]) == pytest.approx(-0.5, abs=1e-9)

    def test_inactive_constraint_carries_no_weight(self, p4):
        res = check_kkt(p4, [0.0])
        assert res.holds
        assert res.residual <= 1e-9
        assert float(res.mult.mu[0]) == 0.0
        assert res.active_inequalities == ()

    def test_infeasible_point_rejected(self, p1):
        with pytest.raises(ValueError):
            check_kkt(p1, [0.5])


class TestKktRecovery:
    def test_recovers_equality_limit(self, p3, seq_p3):
        rec = kkt_from_akkt(seq_p3.records, p3, np.array([0.5, 0.5]))
        assert rec.outcome == "recovered"
        assert rec.residual <= 1e-6
        assert rec.limit is not None

    def test_degenerate_limit_is_abnormal(self, p1, seq_p1):
        rec = kkt_from_akkt(seq_p1.records, p1, np.array([0.0]))
        assert rec.outcome == "not_recovered"
        mass = rec.evidence["normalized_lambda_mass"]
        assert mass[-1] <= 1e-2
        assert abs(rec.residual - 1.0) <= 1e-2

    def test_short_schedule_is_inconclusive_not_wrong(self, p1, seq_p1_1e6):
        rec = kkt_from_akkt(seq_p1_1e6.records, p1, np.array([0.0]))
        assert rec.outcome == "inconclusive"

    def test_constant_kkt_sequence_recovers_itself(self, p2):
        kern = ProblemKernel(p2, [0.5])
        records = []
        for k in (1.0, 2.0, 3.0):
            mult, sigma, _ = extract_multipliers(kern, np.array([0.5]), k)
            records.append(record_at(p2, k, [0.5], mult, sigma))
        rec = kkt_from_akkt(records, p2, np.array([0.5]))
        assert rec.outcome == "recovered"
        assert rec.residual <= 1e-9
        # delta-normalization of lam = (.5, .5) gives unit-norm (1, 1)/sqrt(2)
        assert rec.limit.lam == pytest.approx([0.5 / math.sqrt(0.5)] * 2, abs=1e-9)

    def test_oscillating_branch_is_inconclusive(self, p3):
        records = []
        for i, k in enumerate((1.0, 2.0, 3.0, 4.0)):
            mult = MultiplierTriple(lam=[0.5, 0.5], mu=[],
                                    tau=[0.5 if i % 2 == 0 else -0.5])
            records.append(record_at(p3, k, [0.5, 0.5], mult))
        rec = kkt_from_akkt(records, p3, np.array([0.5, 0.5]))
        assert rec.outcome == "inconclusive"
        assert rec.evidence["max_pairwise_distance"] > 1e-3


class TestQncq:
    def test_cancellation_only_is_inconclusive(self, p3):
        q = check_qncq_sufficient(p3, [0.5, 0.5])
        assert q.outcome == "inconclusive"
        assert q.min_norm <= 1e-8
        assert "cancellation" in q.evidence["reason"]

    def test_degenerate_inequality_is_inconclusive(self, p1):
        q = check_qncq_sufficient(p1, [0.0])
        assert q.outcome == "inconclusive"
        assert "cannot decide" in q.evidence["reason"]

    def test_no_active_constraints_holds_vacuously(self, p2):
        q = check_qncq_sufficient(p2, [0.5])
        assert q.outcome == "holds"
        assert math.isinf(q.min_norm)
        assert "vacuously" in q.evidence["reason"]

    def test_separated_generators_hold(self):
        pr = load_problem_dict({
            "name": "one-sided", "n": 1,
            "objectives": [{"pieces": ["x0^2"], "convex": True}],
            "inequalities": [{"pieces": ["x0"], "convex": True}],
            "equalities": [],
        })
        q = check_qncq_sufficient(pr, [0.0])
        assert q.outcome == "holds"
        assert q.min_norm == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_point_rejected(self, p1):
        with pytest.raises(ValueError):
            check_qncq_sufficient(p1, [0.5])

    def test_seeded_and_deterministic(self, p1):
        a = check_qncq_sufficient(p1, [0.0], seed=5)
        b = check_qncq_sufficient(p1, [0.0], seed=5)
        assert a.outcome == b.outcome
        assert a.min_norm == b.min_norm


class TestConvexCertificate:
    def test_certifies_biobjective(self, p2, seq_p2):
        cert = certify_weak_efficiency_convex(p2, [0.5], seq_p2.records)
        assert cert.certified
        conditions = {v.condition for v in cert.verdicts}
        assert conditions == {"A0", "A1", "A2", "A3", "SCZ"}

    def test_certifies_equality_tradeoff(self, p3, seq_p3):
        cert = certify_weak_efficiency_convex(p3, [0.5, 0.5], seq_p3.records)
        assert cert.certified

    def test_eps_act_reaches_the_a1_residual(self):
        pr = load_problem_dict({
            "name": "abs", "n": 1,
            "objectives": [{"pieces": ["x0", "-x0"], "convex": True}],
            "inequalities": [], "equalities": [],
        })
        mult = MultiplierTriple(lam=[1.0], mu=[], tau=[], a2_normalized=True)
        rec = record_at(pr, 1.0, [0.25], mult)
        a1 = {}
        for eps_act in (None, 1.0):
            kwargs = {} if eps_act is None else {"eps_act": eps_act}
            cert = certify_weak_efficiency_convex(pr, [0.0], [rec], **kwargs)
            a1[eps_act] = next(
                v for v in cert.verdicts if v.condition == "A1").evidence["last"]
        # the pieces differ by 0.5 at x = 0.25: only eps_act = 1 sees the kink
        assert a1[None] == pytest.approx(1.0)
        assert a1[1.0] <= 1e-12

    def test_missing_convex_assertion_rejected(self, p4, seq_p4):
        with pytest.raises(ValueError, match="convex assertion"):
            certify_weak_efficiency_convex(p4, [0.0], seq_p4.records)

    def test_false_convex_assertion_caught_by_sampling(self):
        pr = load_problem_dict({
            "name": "bent", "n": 1,
            "objectives": [{"pieces": ["sin(3*x0)"], "convex": True}],
            "inequalities": [], "equalities": [],
        })
        seq = generate_akkt_sequence(pr, [0.0], PenaltyConfig(schedule=(1.0,)))
        with pytest.raises(ValueError, match="convex"):
            certify_weak_efficiency_convex(pr, [0.0], seq.records)

    def test_nonaffine_equality_rejected(self):
        pr = load_problem_dict({
            "name": "curved-equality", "n": 1,
            "objectives": [{"pieces": ["x0^2"], "convex": True}],
            "inequalities": [], "equalities": ["x0^2"],
        })
        seq = generate_akkt_sequence(pr, [0.0], PenaltyConfig(schedule=(1.0,)))
        with pytest.raises(ValueError, match="affine"):
            certify_weak_efficiency_convex(pr, [0.0], seq.records)

    def test_seeded_and_deterministic(self, p2, seq_p2):
        a = certify_weak_efficiency_convex(p2, [0.5], seq_p2.records, seed=3)
        b = certify_weak_efficiency_convex(p2, [0.5], seq_p2.records, seed=3)
        assert a.certified == b.certified
        assert [v.outcome for v in a.verdicts] == [v.outcome for v in b.verdicts]


class TestOracle:
    def test_out_of_domain_grid_points_are_infeasible(self):
        # exp(x0) overflows beyond x0 ~ 709.8, so 750 and 800 are out of
        # domain although exp(-exp(x0)) - 1 reads -1 there in floating point
        pr = load_problem_dict({
            "name": "overflow", "n": 1,
            "objectives": [{"pieces": ["-x0"], "convex": True}],
            "inequalities": [{"pieces": ["exp(-exp(x0)) - 1"], "convex": False}],
            "equalities": [],
        })
        res = weak_efficiency_oracle(pr, [700.0], [700.0], [800.0], step=50.0)
        assert res.weakly_efficient
        assert (res.points_checked, res.feasible_points) == (3, 1)

    def test_unique_feasible_point_is_efficient(self, p1):
        res = weak_efficiency_oracle(p1, [0.0], [-1.0], [1.0])
        assert res.weakly_efficient
        assert res.counterexample is None
        assert res.feasible_points == 1
        assert res.points_checked == 2001

    def test_balanced_point_confirmed(self, p2):
        res = weak_efficiency_oracle(p2, [0.5], [-1.0], [2.0])
        assert res.weakly_efficient

    def test_dominated_point_refuted_with_witness(self, p2):
        res = weak_efficiency_oracle(p2, [3.0], [-1.0], [4.0])
        assert not res.weakly_efficient
        assert res.counterexample is not None
        x = res.counterexample[0]
        # the witness strictly improves both objectives
        assert abs(x) < 3.0 - 1e-9 and abs(x - 1.0) < 2.0 - 1e-9
        assert x == pytest.approx(-0.999, abs=1e-9)

    def test_equality_surface_confirmed(self, p3):
        res = weak_efficiency_oracle(p3, [0.5, 0.5], [0.0, 0.0], [1.0, 1.0])
        assert res.weakly_efficient
        assert res.feasible_points > 0

    def test_equal_runs_compare_equal(self, p2):
        weak = weak_efficiency_oracle(p2, [0.5], [-1.0], [2.0])
        refuted = weak_efficiency_oracle(p2, [3.0], [-1.0], [4.0])
        assert weak == weak_efficiency_oracle(p2, [0.5], [-1.0], [2.0])
        assert refuted == weak_efficiency_oracle(p2, [3.0], [-1.0], [4.0])
        assert weak != refuted
        assert weak != dataclasses.replace(weak, feasible_points=weak.feasible_points + 1)

    def test_dimension_cap(self):
        pr = load_problem_dict({
            "name": "wide", "n": 4,
            "objectives": [{"pieces": ["x0"], "convex": False}],
            "inequalities": [], "equalities": [],
        })
        with pytest.raises(ValueError):
            weak_efficiency_oracle(pr, [0.0] * 4, [-1.0] * 4, [1.0] * 4)

    def test_box_must_contain_point(self, p1):
        with pytest.raises(ValueError):
            weak_efficiency_oracle(p1, [0.0], [0.5], [1.0])

    def test_step_must_be_positive(self, p1):
        with pytest.raises(ValueError):
            weak_efficiency_oracle(p1, [0.0], [-1.0], [1.0], step=0.0)

    @pytest.mark.parametrize("lo, hi", [([math.nan], [1.0]), ([-1.0], [math.inf])])
    def test_box_corners_must_be_finite(self, p1, lo, hi):
        with pytest.raises(ValueError, match="box corners must be finite"):
            weak_efficiency_oracle(p1, [0.0], lo, hi)


def _oracle_fields(res):
    """Every OracleResult field, the counterexample's floats bitwise."""
    cx = res.counterexample
    return (res.weakly_efficient, None if cx is None else tuple(v.hex() for v in cx),
            res.points_checked, res.feasible_points)


def _guarded_atom(rng, n):
    """A piece that may trip a log, sqrt or division guard on the grid."""
    i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
    c = float(rng.integers(-4, 5)) / 8.0
    return (
        _poly(rng, n),
        f"log(x{i} + {c!r})",
        f"sqrt({c!r} - x{i})",
        f"{c!r} / x{i}",
        f"x{i} / (x{j} - {c!r})",
        f"x{i}^-2 - 4",
    )[int(rng.integers(0, 6))]


def _grid_exact_equality(rng, n):
    """An equality that holds exactly at some dyadic grid points."""
    i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
    c = float(rng.integers(-4, 5)) / 8.0
    return (f"x{i} - x{j}", f"x{i} * x{j}", f"x{i} + x{j} - {c!r}",
            f"x{i}^2 - x{j}", f"x{i} - {c!r}")[int(rng.integers(0, 5))]


def _guarded_problem(rng, n):
    def fn():
        return {"pieces": [_guarded_atom(rng, n) for _ in range(int(rng.integers(1, 3)))],
                "convex": False}

    def ineq():
        entry = fn()
        entry["pieces"] = [f"{p} - {float(rng.uniform(-1, 1))!r}" for p in entry["pieces"]]
        return entry

    return load_problem_dict({
        "name": "guarded", "n": n,
        "objectives": [fn() for _ in range(int(rng.integers(1, 4)))],
        "inequalities": [ineq() for _ in range(int(rng.integers(0, 3)))],
        "equalities": [_grid_exact_equality(rng, n) for _ in range(int(rng.integers(0, 2)))],
    })


# grid steps per dimension: the largest grids span 3-5 blocks of 65,536
# points and none ends on a block boundary
_STEPS = {1: (2.0 ** -6, 2.0 ** -16), 2: (2.0 ** -4, 2.0 ** -8), 3: (2.0 ** -2, 2.0 ** -5)}


def _oracle_case(seed):
    """(problem, candidate grid point, box corners, step) for one seed:
    n = 1..3 over the box [-1, 1]^n; the point is redrawn until every
    objective is defined there, the problem until such a point is found."""
    rng = np.random.default_rng([seed, 14])
    n = seed % 3 + 1
    step = _STEPS[n][int(rng.integers(0, 2))]
    lo = -np.ones(n)
    counts = int(round(2.0 / step)) + 1
    while True:
        pr = _guarded_problem(rng, n)
        for _ in range(50):
            xbar = lo + step * rng.integers(0, counts, size=n)
            try:
                [f.value(xbar) for f in pr.objectives]
            except DomainError:
                continue
            return pr, xbar, lo, lo + 2.0, step


class TestOracleAgainstReference:
    """The constraints-first scan gives the full scan's result field for
    field: the reference evaluates every function on every grid point."""

    @pytest.mark.parametrize("seed", range(36))
    def test_seeded_guarded_problems(self, seed):
        pr, xbar, lo, hi, step = _oracle_case(seed)
        got = weak_efficiency_oracle(pr, xbar, lo, hi, step=step)
        want = weak_efficiency_oracle_reference(pr, xbar, lo, hi, step=step)
        assert _oracle_fields(got) == _oracle_fields(want)

    def test_outcomes_covered(self):
        # the seeds above refute some points, confirm others, and give
        # grids without a single feasible point
        seen = set()
        for seed in range(36):
            pr, xbar, lo, hi, step = _oracle_case(seed)
            res = weak_efficiency_oracle(pr, xbar, lo, hi, step=step)
            seen.add((res.weakly_efficient, res.feasible_points == 0))
        assert seen == {(True, True), (True, False), (False, False)}

    def test_counterexample_in_a_later_block(self):
        # 131,073 grid points over [0, 4]: block 0 holds x0 < 2, where the
        # inequality leaves no feasible point; the sqrt guard of the
        # objective makes x0 <= 2.75 infeasible, and the first dominating
        # point is the next grid point, in block 1
        pr = load_problem_dict({
            "name": "later-block", "n": 1,
            "objectives": [{"pieces": ["sqrt(x0 - 2.75) - x0"], "convex": False}],
            "inequalities": [{"pieces": ["2.5 - x0"], "convex": True}],
            "equalities": [],
        })
        step = 2.0 ** -15
        got = weak_efficiency_oracle(pr, [3.5], [0.0], [4.0], step=step)
        assert _oracle_fields(got) == _oracle_fields(
            weak_efficiency_oracle_reference(pr, [3.5], [0.0], [4.0], step=step))
        assert not got.weakly_efficient
        assert got.counterexample == (2.75 + step,)
        assert got.points_checked == 131073
        # feasible points through the end of block 1 (x0 < 4), not to x0 = 4
        assert got.feasible_points == (4.0 - 2.75) / step - 1

    @pytest.mark.parametrize("problem, point, lo, hi, step", [
        ("mangasarian", [0.0], [-1.0], [1.0], 1e-3),
        ("abs-biobjective", [0.5], [-1.0], [2.0], 1e-3),
        ("abs-biobjective", [3.0], [-1.0], [4.0], 1e-3),
        ("linear-tradeoff", [0.5, 0.5], [0.0, 0.0], [1.0, 1.0], 1e-3),
        ("linear-tradeoff", [1.1, -0.1], [0.6, -0.6], [1.6, 0.4], 1e-3),
        ("linear-tradeoff", [0.5, 0.5], [-0.3, 0.1], [0.7, 0.9], 7e-4),
        ("nonconvex-max", [0.0], [-1.0], [1.0], 1e-4),
        ("nonconvex-max", [0.4], [-0.1], [0.9], 3e-3),
    ])
    def test_catalog_grids(self, problem, point, lo, hi, step):
        pr = builtin(problem)
        assert _oracle_fields(weak_efficiency_oracle(pr, point, lo, hi, step=step)) == \
            _oracle_fields(weak_efficiency_oracle_reference(pr, point, lo, hi, step=step))


class TestGridBlock:
    @pytest.mark.parametrize("counts", [(9,), (70001,), (13, 1), (1, 29), (7, 1, 11),
                                        (301, 300), (40, 1, 50), (51, 52, 53)])
    @pytest.mark.parametrize("block", [7, 1000, 1 << 16])
    def test_bitwise_equal_to_divmod_decoding(self, counts, block):
        rng = np.random.default_rng(len(counts) * block + sum(counts))
        axes = [np.sort(rng.normal(size=c)) for c in counts]
        total = math.prod(counts)
        starts = list(range(0, total, block))
        if len(starts) > 60:  # every block would be slow at block size 7
            starts = starts[:30] + starts[-30:]
        for start in starts:
            size = min(block, total - start)
            assert _grid_block(axes, list(counts), start, size).tobytes() == \
                divmod_grid_block(axes, list(counts), start, size).tobytes()

    def test_blocks_starting_mid_row(self):
        axes = [np.arange(5.0), np.arange(10.0, 17.0), np.arange(20.0, 23.0)]
        counts = [5, 7, 3]
        for start in range(105):
            for size in (1, 2, 4, 20, 105 - start):
                size = min(size, 105 - start)
                assert _grid_block(axes, counts, start, size).tobytes() == \
                    divmod_grid_block(axes, counts, start, size).tobytes()

