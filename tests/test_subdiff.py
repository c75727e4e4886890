"""Subdifferential polytopes and the scalarization phi."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akkt.problem import PiecewiseMaxFn, builtin, load_problem_dict
from akkt.expr import parse_expr
from akkt.subdiff import phi_value, subdifferential

from _synthetic import _poly


def _fn(*pieces, n=1):
    return PiecewiseMaxFn(pieces=tuple(parse_expr(t, n) for t in pieces))


class TestSubdifferential:
    def test_abs_away_from_kink_is_singleton(self):
        poly = subdifferential(_fn("x0", "-x0"), [1.0], eps_act=1e-8)
        assert poly.active == (0,)
        assert np.array_equal(poly.generators, [[1.0]])

    def test_abs_at_kink_has_both_generators(self):
        poly = subdifferential(_fn("x0", "-x0"), [0.0])
        assert poly.active == (0, 1)
        assert np.array_equal(poly.generators, [[1.0], [-1.0]])

    @pytest.mark.parametrize("eps_act", [-1e-9, float("nan")])
    def test_bad_eps_act(self, eps_act):
        with pytest.raises(ValueError, match="eps_act"):
            subdifferential(_fn("x0", "-x0"), [0.0], eps_act=eps_act)

    def test_smooth_single_piece_is_gradient(self):
        poly = subdifferential(_fn("x0^2"), [3.0])
        assert np.array_equal(poly.generators, [[6.0]])

    def test_strict_dominance_gives_singleton(self):
        poly = subdifferential(_fn("x0", "x0 - 5"), [0.0], eps_act=1e-3)
        assert poly.active == (0,)

    def test_generator_norms_bounded_by_active_piece_gradients(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            fn = PiecewiseMaxFn(pieces=tuple(
                parse_expr(_poly(rng, n), n)
                for _ in range(int(rng.integers(1, 4)))
            ))
            x = rng.uniform(-1.0, 1.0, size=n)
            poly = subdifferential(fn, x, eps_act=1e-4)
            norms = np.linalg.norm(poly.generators, axis=1)
            assert np.all(norms <= np.max(norms) + 0.0)
            assert len(poly.active) == poly.generators.shape[0] >= 1

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_activity_monotone_in_eps(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3))
        fn = PiecewiseMaxFn(pieces=tuple(
            parse_expr(_poly(rng, n), n) for _ in range(int(rng.integers(1, 5)))
        ))
        x = rng.uniform(-1.0, 1.0, size=n)
        eps_small = float(rng.uniform(0.0, 0.5))
        eps_large = eps_small + float(rng.uniform(0.0, 0.5))
        small = set(subdifferential(fn, x, eps_small).active)
        large = set(subdifferential(fn, x, eps_large).active)
        assert small <= large


class TestPhi:
    def test_phi_at_base_point_is_exactly_zero(self):
        rng = np.random.default_rng(12)
        for pr in [builtin(n) for n in
                   ("mangasarian", "abs-biobjective", "linear-tradeoff",
                    "nonconvex-max")]:
            for _ in range(5):
                xb = rng.uniform(-1.0, 1.0, size=pr.n)
                value, active = phi_value(pr, xb, xb)
                assert value == 0.0
                assert len(active.active) >= 1

    def test_abs_biobjective_value(self, p2):
        value, _ = phi_value(p2, [0.0], [0.5])
        assert value == 0.5

    def test_mangasarian_value(self, p1):
        value, _ = phi_value(p1, [-0.25], [0.0])
        assert value == -0.25

    def test_active_set_respects_eps(self, p2):
        _, tight = phi_value(p2, [0.0], [0.5], eps_act=1e-9)
        _, loose = phi_value(p2, [0.0], [0.5], eps_act=2.0)
        assert set(tight.active) <= set(loose.active)
        assert loose.active == (0, 1)

    def test_max_structure(self):
        pr = load_problem_dict({
            "name": "two-obj", "n": 1,
            "objectives": [
                {"pieces": ["x0^2"], "convex": True},
                {"pieces": ["1 - x0"], "convex": True},
            ],
            "inequalities": [], "equalities": [],
        })
        value, active = phi_value(pr, [2.0], [0.0])
        # f1 gap = 4 - 0, f2 gap = -1 - 1 = -2 -> max 4, objective 0 active
        assert value == 4.0
        assert active.active == (0,)
