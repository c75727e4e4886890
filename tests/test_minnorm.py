"""Wolfe min-norm points, residuals, and the general/prime relation."""
import struct

import numpy as np
import pytest

from akkt.minnorm import (
    MultiplierTriple,
    min_norm_point,
    residual_m,
    residual_m_detail,
)
from akkt.problem import load_problem_dict

from _oracles import min_norm_oracle, min_norm_point_reference
from _synthetic import (
    random_minnorm_instance,
    random_multipliers,
    random_point,
    random_problem,
)


class TestMinNormPoint:
    def test_singleton_polytope(self):
        res = min_norm_point([(1.0, [[3.0, 4.0]])])
        assert res.norm == 5.0
        assert np.array_equal(res.point, [3.0, 4.0])

    def test_horizontal_segment(self):
        res = min_norm_point([(1.0, [[-1.0, 1.0], [1.0, 1.0]])])
        assert res.norm == pytest.approx(1.0, abs=1e-12)
        assert res.point == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_minkowski_sum_contains_origin(self):
        res = min_norm_point([(1.0, [[1.0, 0.0]]), (1.0, [[-1.0, 0.0]])])
        assert res.norm == 0.0

    def test_empty_factor_list_rejected(self):
        with pytest.raises(ValueError):
            min_norm_point([])

    def test_scale_zero_factor_contributes_nothing(self):
        res = min_norm_point([(1.0, [[2.0]]), (0.0, [[100.0]])])
        assert res.norm == 2.0

    def test_weights_form_a_simplex_per_factor(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            factors, _ = random_minnorm_instance(rng)
            res = min_norm_point(factors)
            assert len(res.weights) == len(factors)
            for w, (_, gens) in zip(res.weights, factors):
                w = np.asarray(w)
                assert w.shape == (np.asarray(gens).shape[0],)
                assert np.all(w >= -1e-15)
                assert float(w.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_point_reconstructs_from_weights(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            factors, dim = random_minnorm_instance(rng)
            res = min_norm_point(factors)
            rebuilt = np.zeros(dim)
            for (scale, gens), w in zip(factors, res.weights):
                rebuilt += scale * (np.asarray(w) @ np.asarray(gens))
            assert np.linalg.norm(rebuilt - res.point) <= 1e-9

    def test_wolfe_optimality_certificate(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            factors, _ = random_minnorm_instance(rng)
            res = min_norm_point(factors)
            p = res.point
            support = sum(
                scale * float(np.min(np.asarray(gens) @ p))
                for scale, gens in factors
            )
            assert float(p @ p) - support <= 1e-10 * max(1.0, float(p @ p)) + 1e-12

    def test_matches_face_enumeration_oracle(self):
        rng = np.random.default_rng(20260815)
        for _ in range(10):
            factors, _ = random_minnorm_instance(rng)
            res = min_norm_point(factors)
            assert abs(res.norm - min_norm_oracle(factors)) <= 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(24)
        factors, _ = random_minnorm_instance(rng)
        a = min_norm_point(factors)
        b = min_norm_point(factors)
        assert a.norm == b.norm
        assert np.array_equal(a.point, b.point)

    def test_matches_the_per_call_lmo_bitwise(self):
        """The prescaled LMO, which also skips one-generator factors, gives
        the reference loop's result bit for bit, on factor sets with
        single generators, duplicate generators (ties) and zero scales."""
        rng = np.random.default_rng(25)

        def bits(res):
            return (res.point.tobytes(), struct.pack("<2d", res.norm, res.gap),
                    [w.tobytes() for w in res.weights], res.iterations)

        for case in range(60):
            factors, dim = random_minnorm_instance(rng)
            factors = [(s, np.asarray(g)) for s, g in factors]
            factors.append((float(rng.uniform(0.1, 2.0)), rng.uniform(-2.0, 2.0, (1, dim))))
            f = int(rng.integers(0, len(factors)))
            s, g = factors[f]
            factors[f] = (s, np.vstack([g, g[::-1]]))
            if case % 3 == 0:
                factors[int(rng.integers(0, len(factors)))] = (0.0, factors[0][1])
            if case % 5 == 0:
                factors = [(s, g[:1]) for s, g in factors]
            assert bits(min_norm_point(factors)) == bits(min_norm_point_reference(factors))


class TestMultiplierTriple:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            MultiplierTriple(lam=[-0.1], mu=[], tau=[])

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            MultiplierTriple(lam=[1.0], mu=[-1.0], tau=[])

    def test_signed_tau_allowed(self):
        t = MultiplierTriple(lam=[1.0], mu=[], tau=[-0.5])
        assert t.tau[0] == -0.5

    def test_a2_normalization_enforced_when_tagged(self):
        with pytest.raises(ValueError):
            MultiplierTriple(lam=[0.4, 0.4], mu=[], tau=[], a2_normalized=True)


class TestResidual:
    def test_mangasarian_cancelling_multipliers(self, p1):
        mult = MultiplierTriple(lam=[1.0], mu=[1.0], tau=[])
        assert residual_m(p1, [-0.5], mult) == 0.0

    def test_mangasarian_objective_alone(self, p1):
        mult = MultiplierTriple(lam=[1.0], mu=[0.0], tau=[])
        assert residual_m(p1, [-0.5], mult) == 1.0

    def test_linear_tradeoff_exact_cancellation(self, p3):
        mult = MultiplierTriple(lam=[0.5, 0.5], mu=[], tau=[-0.5])
        assert residual_m(p3, [0.5, 0.5], mult, mode="general") == 0.0
        assert residual_m(p3, [0.5, 0.5], mult, mode="prime") == 0.0

    def test_prime_reports_sign_branch_of_tau(self, p3):
        mult = MultiplierTriple(lam=[0.5, 0.5], mu=[], tau=[-0.5])
        _, _, signs = residual_m_detail(p3, [0.5, 0.5], mult, mode="prime")
        assert signs == (-1.0,)

    def test_zero_lambda_sum_rejected(self, p1):
        mult = MultiplierTriple(lam=[0.0], mu=[1.0], tau=[])
        with pytest.raises(ValueError):
            residual_m(p1, [0.0], mult)

    def test_dimension_mismatch_rejected(self, p3):
        mult = MultiplierTriple(lam=[1.0], mu=[], tau=[])
        with pytest.raises(ValueError):
            residual_m(p3, [0.5, 0.5], mult)

    def test_bad_mode_rejected(self, p1):
        mult = MultiplierTriple(lam=[1.0], mu=[0.0], tau=[])
        with pytest.raises(ValueError):
            residual_m(p1, [0.0], mult, mode="both")

    def test_sign_branch_cap(self):
        n_eq = 13
        pr = load_problem_dict({
            "name": "many-eq", "n": 1,
            "objectives": [{"pieces": ["x0"], "convex": False}],
            "inequalities": [],
            "equalities": ["x0"] * n_eq,
        })
        mult = MultiplierTriple(lam=[1.0], mu=[], tau=[0.1] * n_eq)
        with pytest.raises(ValueError):
            residual_m(pr, [0.0], mult, mode="general")
        # prime mode has a single branch and stays available
        assert residual_m(pr, [0.0], mult, mode="prime") >= 0.0

    def test_general_never_exceeds_prime(self):
        rng = np.random.default_rng(25)
        for _ in range(40):
            pr = random_problem(rng, r_min=1)
            x = random_point(rng, pr.n)
            mult = random_multipliers(pr, rng)
            general = residual_m(pr, x, mult, mode="general")
            prime = residual_m(pr, x, mult, mode="prime")
            assert general <= prime

    def test_modes_coincide_bitwise_when_no_equalities(self):
        rng = np.random.default_rng(26)
        count = 0
        while count < 20:
            pr = random_problem(rng)
            if pr.r != 0:
                continue
            count += 1
            x = random_point(rng, pr.n)
            mult = random_multipliers(pr, rng)
            assert (residual_m(pr, x, mult, mode="general")
                    == residual_m(pr, x, mult, mode="prime"))

    def test_positive_homogeneity_exact_for_binary_scales(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            pr = random_problem(rng)
            x = random_point(rng, pr.n)
            mult = random_multipliers(pr, rng)
            base = residual_m(pr, x, mult)
            for c in (0.5, 4.0):
                scaled = MultiplierTriple(
                    lam=c * mult.lam, mu=c * mult.mu, tau=c * mult.tau)
                assert residual_m(pr, x, scaled) == c * base
