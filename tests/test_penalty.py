"""Penalty path: inner solves, multiplier extraction, sequences, CSV."""
import math

import numpy as np
import pytest

import akkt.penalty as penalty_mod
from akkt.expr import DomainError
from akkt.minnorm import residual_m
from akkt.penalty import (
    PenaltyConfig,
    ProblemKernel,
    extract_multipliers,
    generate_akkt_sequence,
    geometric_schedule,
    save_sequence_csv,
    sequence_to_csv,
    solve_subproblem,
)
from akkt.problem import builtin, feasibility_violation, load_problem_dict
from akkt.tape import eval_value

from _oracles import one_selection_subgradient, p1_inner_oracle
from _synthetic import random_point, random_problem


class TestSchedule:
    def test_default_runs_to_1e8(self):
        ks = geometric_schedule()
        assert len(ks) == 9
        assert ks[0] == 1.0
        assert ks[-1] == 1e8

    def test_custom_endpoint_inclusive(self):
        assert geometric_schedule(1.0, 1e6) == (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_schedule(0.0, 10.0)
        with pytest.raises(ValueError):
            geometric_schedule(10.0, 1.0)
        with pytest.raises(ValueError):
            geometric_schedule(1.0, 10.0, ratio=1.0)


class TestConfig:
    def test_defaults(self):
        cfg = PenaltyConfig()
        assert cfg.delta == 1.0
        assert cfg.schedule == geometric_schedule()
        assert cfg.eps_act == 1e-6

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            PenaltyConfig(delta=0.0)

    def test_bad_schedule(self):
        with pytest.raises(ValueError):
            PenaltyConfig(schedule=())
        with pytest.raises(ValueError):
            PenaltyConfig(schedule=(1.0, -2.0))
        with pytest.raises(ValueError):
            PenaltyConfig(schedule=(10.0, 10.0))

    @pytest.mark.parametrize("eps_act", [-1e-9, math.nan])
    def test_bad_eps_act(self, eps_act):
        with pytest.raises(ValueError, match="eps_act"):
            PenaltyConfig(eps_act=eps_act)


class TestInnerSolve:
    def test_phi_k_closed_form(self, p1):
        kern = ProblemKernel(p1, [0.0])
        # phi_k(x) = x + (k/2) x^4 + (1/2) x^2 for the scalar problem
        phi, phik = kern.eval_phik(2.0, np.array([-0.5]))
        assert phi == -0.5
        assert phik == pytest.approx(-0.3125, abs=1e-12)
        assert kern.eval_phik(2.0, np.array([0.0])) == (0.0, 0.0)

    def test_scalar_minimizer_matches_grid_oracle(self, p1):
        kern = ProblemKernel(p1, [0.0])
        for k in (1.0, 100.0, 1e4):
            inner = solve_subproblem(kern, k)
            assert abs(float(inner.x[0]) - p1_inner_oracle(k)) <= 1e-6

    def test_scalar_minimizer_at_unit_weight(self, p1):
        kern = ProblemKernel(p1, [0.0])
        inner = solve_subproblem(kern, 1.0)
        assert float(inner.x[0]) == pytest.approx(-0.590, abs=1e-2)

    def test_large_weight_pins_near_base(self, p1):
        kern = ProblemKernel(p1, [0.0])
        inner = solve_subproblem(kern, 1e6)
        assert abs(float(inner.x[0])) <= 1e-2
        assert float(inner.x[0]) < 0.0

    def test_smooth_unconstrained_hits_zero_exactly(self):
        pr = builtin("abs-biobjective")
        kern = ProblemKernel(pr, [0.5])
        inner = solve_subproblem(kern, 1.0)
        assert inner.phi_k <= 0.0

    def test_never_worse_than_base(self, corpus):
        for pr, xbar, seq in corpus:
            kern = ProblemKernel(pr, xbar)
            inner = solve_subproblem(kern, 10.0)
            assert inner.phi_k <= 0.0

    def test_invalid_weight(self, p1):
        kern = ProblemKernel(p1, [0.0])
        with pytest.raises(ValueError):
            solve_subproblem(kern, 0.0)
        with pytest.raises(ValueError):
            solve_subproblem(kern, math.inf)

    def test_bad_warm_start_shape(self, p1):
        kern = ProblemKernel(p1, [0.0])
        with pytest.raises(ValueError):
            solve_subproblem(kern, 1.0, x_init=[0.0, 0.0])


class TestKernelSubgradient:
    CASES = [
        ("mangasarian", [0.0], [0.3], [-0.7]),
        ("abs-biobjective", [0.5], [0.0], [1.2]),
        ("linear-tradeoff", [0.5, 0.5], [0.2, 0.9], [-0.3, 0.4]),
        ("nonconvex-max", [0.0], [0.5], [-0.5]),
    ]

    @pytest.mark.parametrize("name,xbar,xa,xb", CASES)
    def test_bitwise_equal_to_reference_on_catalog(self, name, xbar, xa, xb):
        kern = ProblemKernel(builtin(name), xbar)
        for k in (1.0, 100.0, 1e6):
            for x in (xbar, xa, xb):
                x = np.array(x)
                ref = one_selection_subgradient(kern, k, x)
                assert kern.subgradient(k, x).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name,xbar", [("abs-biobjective", [0.5]),
                                           ("nonconvex-max", [0.0])])
    def test_tie_at_zero_keeps_lowest_index(self, name, xbar):
        # abs-biobjective: both objective gaps are 0 at xbar; nonconvex-max:
        # the pieces x0 and -2*x0 are both 0.  The first gradient is +1.
        kern = ProblemKernel(builtin(name), xbar)
        assert kern.subgradient(1.0, xbar).tolist() == [1.0]

    def test_bitwise_equal_to_reference_with_equalities(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            pr = random_problem(rng, r_min=1)
            kern = ProblemKernel(pr, random_point(rng, pr.n))
            for k in (1.0, 1e2, 1e6):
                x = random_point(rng, pr.n)
                ref = one_selection_subgradient(kern, k, x)
                assert kern.subgradient(k, x).tobytes() == ref.tobytes()

    def test_polish_stops_when_the_line_search_leaves_the_domain(self):
        pr = load_problem_dict({"name": "log", "n": 1,
                                "objectives": [{"pieces": ["log(x0)"]}]})
        kern = ProblemKernel(pr, [0.5])
        cfg = PenaltyConfig()
        misses = []
        subgradient = kern.subgradient

        def counting(k, x):
            try:
                return subgradient(k, x)
            except DomainError:
                misses.append(float(x[0]))
                raise

        kern.subgradient = counting
        x0 = kern.xbar.copy()
        phi, phik = kern.eval_phik(1.0, x0)
        model = penalty_mod.stationarity_model(kern, x0, 1.0)
        x, _, phik_new, _, steps = penalty_mod._polish(kern, 1.0, x0, phi, phik, model, cfg)
        assert min(misses) < 0.0   # the bracket reached past log's domain
        assert steps >= 1
        assert 0.0 < float(x[0]) < 0.5
        assert phik_new < phik


class TestExtractMultipliers:
    def test_inequality_weight(self, p1):
        kern = ProblemKernel(p1, [0.0])
        mult, sigma, model = extract_multipliers(kern, np.array([-0.5]), 4.0)
        assert mult.mu[0] == 1.0          # 4 * max((-0.5)^2, 0)
        assert np.array_equal(mult.lam, [1.0])
        assert mult.tau.size == 0
        assert sigma == ()

    def test_equality_weight_signed(self, p3):
        kern = ProblemKernel(p3, [0.5, 0.5])
        x = np.array([0.55, 0.55])
        mult, sigma, model = extract_multipliers(kern, x, 10.0)
        assert float(mult.tau[0]) == pytest.approx(1.0, rel=1e-12)
        assert sigma == (1.0,)

    def test_feasible_point_gives_zero_constraint_weights(self, p3):
        kern = ProblemKernel(p3, [0.5, 0.5])
        mult, sigma, model = extract_multipliers(kern, np.array([0.5, 0.5]), 100.0)
        assert float(mult.tau[0]) == 0.0
        assert sigma == (1.0,)            # zero takes the + branch

    def test_lambda_is_normalized(self, p3):
        kern = ProblemKernel(p3, [0.5, 0.5])
        mult, _, _ = extract_multipliers(kern, np.array([0.4, 0.45]), 10.0)
        assert float(mult.lam.sum()) == pytest.approx(1.0, abs=1e-9)
        assert np.all(mult.lam >= 0)


class TestSequence:
    def test_record_counts(self, corpus):
        for pr, xbar, seq in corpus:
            expect = {"mangasarian": 9, "abs-biobjective": 1,
                      "linear-tradeoff": 9, "nonconvex-max": 1}[pr.name]
            assert len(seq.records) == expect, pr.name

    def test_truncation_happens_below_stop(self, seq_p2):
        assert len(seq_p2.records) == 1
        assert seq_p2.records[0].residual <= penalty_mod.RESIDUAL_STOP

    def test_all_records_clean(self, corpus):
        for pr, xbar, seq in corpus:
            for rec in seq.records:
                assert not rec.flagged
                assert rec.status == "ok"

    def test_weights_match_their_construction(self, corpus):
        """mu = k max(g, 0) and tau = k h, bitwise, on every record."""
        for pr, xbar, seq in corpus:
            for rec in seq.records:
                for i, gfn in enumerate(pr.inequalities):
                    assert float(rec.mult.mu[i]) == rec.k * max(gfn.value(rec.x), 0.0)
                for j, h in enumerate(pr.equalities):
                    hv = eval_value(h, rec.x)
                    assert float(rec.mult.tau[j]) == rec.k * hv
                    assert rec.sigma[j] == (1.0 if hv >= 0.0 else -1.0)

    def test_lambda_supported_on_near_best_objectives(self, corpus):
        for pr, xbar, seq in corpus:
            kern = ProblemKernel(pr, xbar)
            for rec in seq.records:
                gaps = [f.value(rec.x) - float(kern.fbar[l])
                        for l, f in enumerate(pr.objectives)]
                top = max(gaps)
                for l in range(pr.p):
                    if float(rec.mult.lam[l]) > 0.0:
                        assert gaps[l] >= top - seq.config.eps_act - 1e-12

    def test_upper_bound_certificates_nonpositive(self, corpus):
        for pr, xbar, seq in corpus:
            for rec in seq.records:
                assert rec.phi_k <= 0.0
                assert all(v <= 1e-12 for v in rec.e2)

    def test_residual_recomputes(self, corpus):
        for pr, xbar, seq in corpus:
            for rec in seq.records:
                again = residual_m(pr, rec.x, rec.mult, seq.config.eps_act, "general")
                assert again == rec.residual
                assert rec.residual <= rec.residual_prime

    def test_residual_bounded_by_model_plus_drift(self, corpus):
        for pr, xbar, seq in corpus:
            for rec in seq.records:
                drift = float(np.linalg.norm(rec.x - seq.xbar))
                assert rec.residual <= rec.stationarity + drift + 1e-9

    def test_final_scalar_record_converged(self, seq_p1):
        last = seq_p1.records[-1]
        assert abs(float(last.x[0])) <= 1e-2
        assert last.residual <= 1e-2

    def test_infeasible_base_rejected(self, p1):
        with pytest.raises(ValueError):
            generate_akkt_sequence(p1, [0.5])

    def test_flagged_record_on_inner_failure(self, p1, monkeypatch):
        orig = penalty_mod.solve_subproblem

        def failing(kern, k, cfg=None, x_init=None):
            if k >= 10.0:
                raise DomainError("forced failure", "log")
            return orig(kern, k, cfg, x_init)

        monkeypatch.setattr(penalty_mod, "solve_subproblem", failing)
        seq = generate_akkt_sequence(p1, [0.0], PenaltyConfig(schedule=(1.0, 10.0)))
        assert len(seq.records) == 2
        good, bad = seq.records
        assert not good.flagged and bad.flagged
        assert bad.mult is None
        assert math.isnan(bad.residual)
        assert "forced failure" in bad.status
        # the path anchors the flagged record at the last good iterate
        assert np.array_equal(bad.x, good.x)


class TestCsv:
    HEADER = ("k,x,lambda,mu,tau,residual_m,residual_m_prime,"
              "feas,phi,e2_max,status")

    def test_header_and_shape(self, seq_p3):
        lines = sequence_to_csv(seq_p3).splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 1 + len(seq_p3.records)

    def test_first_row_values(self, seq_p3):
        row = sequence_to_csv(seq_p3).splitlines()[1].split(",")
        assert float(row[0]) == 1.0
        x = [float(v) for v in row[1].split(";")]
        assert x == pytest.approx([1 / 3, 1 / 3], abs=1e-6)
        assert float(row[4]) == pytest.approx(-1 / 3, abs=1e-6)   # tau = k h
        assert float(row[7]) == pytest.approx(1 / 3, abs=1e-6)    # feas = |h|
        assert row[10] == "ok"

    def test_round_trip_consistency(self, seq_p1):
        lines = sequence_to_csv(seq_p1).splitlines()[1:]
        for rec, line in zip(seq_p1.records, lines):
            row = line.split(",")
            assert float(row[0]) == rec.k
            assert float(row[5]) == rec.residual
            assert float(row[6]) == rec.residual_prime
            assert float(row[9]) == max(rec.e2)

    def test_regeneration_is_byte_identical(self, p3, seq_p3):
        again = generate_akkt_sequence(p3, [0.5, 0.5])
        assert sequence_to_csv(again) == sequence_to_csv(seq_p3)

    def test_flagged_row_shape(self, p1, monkeypatch):
        monkeypatch.setattr(
            penalty_mod, "solve_subproblem",
            lambda *a, **kw: (_ for _ in ()).throw(DomainError("bad", "log")))
        seq = generate_akkt_sequence(p1, [0.0], PenaltyConfig(schedule=(1.0,)))
        row = sequence_to_csv(seq).splitlines()[1].split(",")
        assert row[2] == "" and row[3] == "" and row[4] == ""
        assert row[5] == "nan"
        assert "bad" in row[10]

    def test_save_writes_identical_text(self, seq_p2, tmp_path):
        path = tmp_path / "seq.csv"
        save_sequence_csv(seq_p2, path)
        assert path.read_text() == sequence_to_csv(seq_p2)
        assert path.read_text().endswith("\n")
