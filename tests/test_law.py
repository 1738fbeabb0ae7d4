"""Cohesive-law unit tests: branch values, derivatives vs finite differences,
convexity and bound properties."""

import numpy as np
import pytest

from cohesim.law import (
    CohesiveLaw,
    FrozenHistory,
    HypothesisError,
    PrototypeEnvelope,
    TabulatedEnvelope,
    law_constants,
)


@pytest.fixture(scope="module")
def proto():
    return CohesiveLaw(PrototypeEnvelope(g_c=1.0, xi_c=1.0))


def central_dw(law, w, xi, h=1e-6):
    return (law.psi(w + h, xi) - law.psi(w - h, xi)) / (2.0 * h)


def central_dxi(law, w, xi, h=1e-6):
    return (law.psi(w, xi + h) - law.psi(w, xi - h)) / (2.0 * h)


class TestPsiValue:
    def test_origin_is_zero(self, proto):
        assert proto.psi(0.0, 0.0) == 0.0

    def test_envelope_at_cap_equals_gc(self, proto):
        assert proto.psi(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_unloading_branch_hand_value(self, proto):
        # psi_hat(0.5) = 0.75, psi_hat'(0.5) = 1:
        # 0.75 - 1 * (0.25 - 0.09) / (2 * 0.5) = 0.59
        assert proto.psi(0.3, 0.5) == pytest.approx(0.59, abs=1e-15)

    def test_even_in_w(self, proto):
        rng = np.random.default_rng(0)
        w = rng.uniform(-2, 2, 200)
        xi = rng.uniform(0, 2, 200)
        assert np.array_equal(proto.psi(w, xi), proto.psi(-w, xi))

    def test_monotone_in_abs_w_and_xi(self, proto):
        w = np.linspace(0.0, 2.0, 101)
        for xi in (0.0, 0.3, 1.0, 1.7):
            vals = proto.psi(w, xi)
            assert np.all(np.diff(vals) >= -1e-14)
        xi = np.linspace(0.0, 2.0, 101)
        for wv in (0.0, 0.2, 0.9, 1.5):
            vals = proto.psi(wv, xi)
            assert np.all(np.diff(vals) >= -1e-14)

    def test_branch_continuity_across_kink(self, proto):
        d = 1e-8
        for xi in (0.2, 0.5, 1.0, 1.3):
            lo = proto.psi(xi - d, xi)
            hi = proto.psi(xi + d, xi)
            assert hi - lo == pytest.approx(0.0, abs=1e-6 * max(1.0, abs(hi)))

    def test_negative_xi_rejected(self, proto):
        with pytest.raises(ValueError):
            proto.psi(0.1, -0.1)


class TestDpsiDw:
    def test_odd_zero(self, proto):
        assert proto.dpsi_dw(0.0, 0.5) == 0.0

    def test_elastic_secant(self, proto):
        # c_0.5 = psi_hat'(0.5)/0.5 = 2, times w = 0.3
        assert proto.dpsi_dw(0.3, 0.5) == pytest.approx(0.6, abs=1e-15)
        fd = central_dw(proto, 0.3, 0.5)
        assert proto.dpsi_dw(0.3, 0.5) == pytest.approx(fd, rel=1e-8)

    def test_beyond_cap_zero(self, proto):
        assert proto.dpsi_dw(1.2, 1.2) == 0.0
        assert central_dw(proto, 1.2, 1.2) == pytest.approx(0.0, abs=1e-9)

    def test_origin_raises(self, proto):
        with pytest.raises(ValueError, match="directional"):
            proto.dpsi_dw(0.0, 0.0)

    def test_branches_agree_on_kink(self, proto):
        d = 1e-8
        for xi in (0.25, 0.7, 1.0):
            inner = proto.dpsi_dw(xi - d, xi)
            outer = proto.dpsi_dw(xi + d, xi)
            assert inner == pytest.approx(outer, abs=1e-6)

    def test_matches_finite_difference_away_from_kinks(self, proto):
        rng = np.random.default_rng(42)
        count = 0
        while count < 10_000:
            w = rng.uniform(-2.0, 2.0, 4096)
            xi = rng.uniform(0.0, 2.0, 4096)
            keep = (np.abs(np.abs(w) - xi) > 1e-3) & (np.abs(w) + xi > 1e-3)
            keep &= np.abs(np.abs(w) - 1.0) > 1e-3  # psi_hat'' jumps at xi_c
            w, xi = w[keep], xi[keep]
            exact = proto.dpsi_dw(w, xi)
            fd = central_dw(proto, w, xi)
            assert np.all(np.abs(exact - fd) <= 1e-6 * np.maximum(1.0, np.abs(exact)))
            count += w.size

    def test_bounded_by_threshold(self, proto):
        rng = np.random.default_rng(7)
        w = rng.uniform(-3.0, 3.0, 10_000)
        xi = rng.uniform(0.0, 3.0, 10_000)
        xi[np.abs(w) + xi == 0.0] = 1e-6
        assert np.all(np.abs(proto.dpsi_dw(w, xi)) <= proto.psi_prime_0 + 1e-14)


class TestDirectionalDerivative:
    def test_origin_one_sided(self, proto):
        assert proto.dpsi_dw_directional(0.0, 0.0, -2.0) == pytest.approx(4.0)
        assert proto.dpsi_dw_directional(0.0, 0.0, 0.0) == 0.0

    def test_matches_partial_away_from_origin(self, proto):
        assert proto.dpsi_dw_directional(0.3, 0.5, 2.0) == pytest.approx(1.2)

    def test_positive_homogeneity(self, proto):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w, xi, phi = rng.uniform(-1, 1), rng.uniform(0, 1), rng.uniform(-2, 2)
            k = rng.uniform(0.1, 5.0)
            a = proto.dpsi_dw_directional(w, xi, k * phi)
            b = k * proto.dpsi_dw_directional(w, xi, phi)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_derivative_bound_random_sample(self, proto):
        rng = np.random.default_rng(11)
        w = rng.uniform(-3, 3, 10_000)
        xi = rng.uniform(0, 3, 10_000)
        phi = rng.uniform(-5, 5, 10_000)
        val = proto.dpsi_dw_directional(w, xi, phi)
        assert np.all(np.abs(val) <= proto.psi_prime_0 * np.abs(phi) + 1e-12)


class TestDpsiDxi:
    def test_zero_on_cone_boundary(self, proto):
        assert proto.dpsi_dxi(0.5, 0.5) == 0.0

    def test_zero_beyond_cap(self, proto):
        assert proto.dpsi_dxi(0.2, 2.0) == 0.0

    def test_interior_value_and_fd(self, proto):
        # prototype: dpsi_dxi(0, xi) = (g_c/xi_c) (xi^2 - w^2)/xi^2 = 1 at (0, 0.5)
        val = proto.dpsi_dxi(0.0, 0.5)
        assert val == pytest.approx(1.0, abs=1e-14)
        assert val == pytest.approx(central_dxi(proto, 0.0, 0.5), rel=1e-8)

    def test_origin_directional_slope(self, proto):
        assert proto.dpsi_dxi(0.0, 0.0) == pytest.approx(0.5 * proto.psi_prime_0)

    def test_nonnegative_everywhere(self, proto):
        rng = np.random.default_rng(5)
        w = rng.uniform(-2, 2, 10_000)
        xi = rng.uniform(0, 2, 10_000)
        assert np.all(proto.dpsi_dxi(w, xi) >= 0.0)

    def test_matches_finite_difference_inside_cone(self, proto):
        rng = np.random.default_rng(8)
        xi = rng.uniform(0.05, 0.95, 2000)
        w = rng.uniform(-1.0, 1.0, 2000) * (xi - 2e-3)
        keep = np.abs(np.abs(w) - xi) > 1e-3
        w, xi = w[keep], xi[keep]
        exact = proto.dpsi_dxi(w, xi)
        fd = central_dxi(proto, w, xi)
        assert np.all(np.abs(exact - fd) <= 1e-6 * np.maximum(1.0, np.abs(exact)))


class TestSplit:
    def test_rest_split(self, proto):
        assert proto.split(0.0, 0.0) == (0.0, 0.0)

    def test_dissipated_is_linear_in_xi(self, proto):
        # prototype: psi_d(xi) = (g_c/xi_c) xi below the cap
        s, d = proto.split(0.0, 0.5)
        assert s == pytest.approx(0.0, abs=1e-15)
        assert d == pytest.approx(0.5, abs=1e-15)
        assert proto.split(0.0, 1.7)[1] == pytest.approx(1.0)  # capped at g_c

    def test_stored_is_quadratic(self, proto):
        s, d = proto.split(0.3, 0.5)
        assert s == pytest.approx(0.09, abs=1e-15)  # 0.5 * c_xi * w^2 = 0.5*2*0.09
        assert d == pytest.approx(0.5, abs=1e-15)

    def test_split_sums_to_total(self, proto):
        rng = np.random.default_rng(13)
        w = rng.uniform(-2, 2, 1000)
        xi = rng.uniform(0, 2, 1000)
        s, d = proto.split(w, xi)
        assert np.allclose(s + d, proto.psi(w, xi), atol=1e-15)

    def test_stored_nonnegative_inside_cone(self, proto):
        rng = np.random.default_rng(17)
        xi = rng.uniform(1e-6, 2, 1000)
        w = rng.uniform(-1, 1, 1000) * xi
        s, _ = proto.split(w, xi)
        assert np.all(s >= -1e-15)


class TestLawConstants:
    def test_prototype_closed_forms(self, proto):
        c = proto.constants
        assert c.beta == pytest.approx(2.0)
        assert c.psi_prime_0 == pytest.approx(2.0)
        assert c.lambda_conv == pytest.approx(-1.0)
        assert c.h3_holds  # psi_hat' affine on [0, xi_c]

    def test_beta_matches_fd_second_derivative(self, proto):
        h = 1e-5
        ws = np.linspace(2 * h, 1.0 - 2 * h, 57)
        d2 = (proto.psi(ws + h, 0.0) - 2 * proto.psi(ws, 0.0) + proto.psi(ws - h, 0.0)) / h**2
        assert -d2.min() == pytest.approx(proto.beta, rel=1e-4)

    def test_tabulated_prototype_recovers_constants(self):
        ref = PrototypeEnvelope(1.0, 1.0)
        grid = np.linspace(0.0, 1.0, 21)
        env = TabulatedEnvelope(grid, *ref.value_slope(grid))
        c = law_constants(env)
        # the Hermite interpolant of a parabola is exact
        assert c.beta == pytest.approx(2.0, rel=1e-8)
        assert c.psi_prime_0 == pytest.approx(2.0, rel=1e-12)

    def test_tiny_beta_tabulated_is_admissible(self):
        # nearly linear envelope: admissible, with a small positive beta
        grid = np.linspace(0.0, 1.0, 11)
        eps = 1e-3
        psi = grid - 0.5 * eps * grid**2
        dpsi = 1.0 - eps * grid
        c = law_constants(TabulatedEnvelope(grid, psi, dpsi))
        assert c.beta == pytest.approx(eps, rel=1e-6)

    def test_tabulated_beta_bounds_every_curvature_value(self):
        # psi_hat'' is linear on each Hermite piece; here its minimum, -4.8,
        # is the first piece's value at its right end, the left limit at the
        # knot w = 0.5, which an evaluation only approaches
        env = TabulatedEnvelope([0.0, 0.5, 1.0], [0.0, 0.8, 1.0], [2.0, 0.8, 0.0])
        c0, c1 = env._d2.c[:, 0]
        assert env.beta() == -(c0 * 0.5 + c1) == 4.8000000000000025
        ws = np.concatenate([np.linspace(0.0, 1.0, 100001), env.grid,
                             np.nextafter(env.grid[1:], 0.0), np.nextafter(env.grid[:-1], 1.0)])
        assert np.all(env.curvature(ws) >= -env.beta())
        assert env.curvature(np.nextafter(0.5, 0.0)) < -4.8

    def test_validation_names_h1(self):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(HypothesisError, match=r"\(H1\)"):
            law_constants(TabulatedEnvelope(grid, grid + 0.1, np.ones(5)))  # psi_hat(0) != 0
        with pytest.raises(HypothesisError, match=r"\(H1\)"):
            law_constants(TabulatedEnvelope(grid, grid**2, 2 * grid))  # convex envelope
        with pytest.raises(HypothesisError, match=r"\(H1\)"):
            # zero activation slope
            law_constants(TabulatedEnvelope(grid, grid**0.5 * 0, np.zeros(5)))

    def test_exactly_linear_envelope_rejected(self):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(HypothesisError, match=r"\(H2\)"):
            law_constants(TabulatedEnvelope(grid, grid.copy(), np.ones(5)))


class TestLambdaConvexity:
    @pytest.mark.parametrize("xi_factor", [0.0, 0.1, 1.0, 2.0])
    def test_midpoint_convexity_of_shifted_density(self, proto, xi_factor):
        xi = xi_factor * proto.xi_c
        beta = proto.beta
        rng = np.random.default_rng(int(xi_factor * 10) + 1)
        a = rng.uniform(-2.5, 2.5, 10_000)
        b = rng.uniform(-2.5, 2.5, 10_000)

        def g(w):
            return proto.psi(w, xi) + 0.5 * beta * w**2

        mid = g(0.5 * (a + b))
        assert np.all(mid <= 0.5 * (g(a) + g(b)) + 1e-10)


class TestFrozenHistory:
    """The per-step terms of a fixed history, which the law evaluates too,
    give the branch formulas' values bit for bit, on both envelopes."""

    @staticmethod
    def laws():
        # tabulated: a cubic softening envelope, psi_hat = 1 - (1 - w)^3 on [0, 1]
        grid = np.linspace(0.0, 1.0, 17)
        cubic = TabulatedEnvelope(grid, 1.0 - (1.0 - grid) ** 3, 3.0 * (1.0 - grid) ** 2)
        return [CohesiveLaw(PrototypeEnvelope(1.0, 0.2)), CohesiveLaw(cubic)]

    @staticmethod
    def exact_curvature(law, w, xi):
        # the secant stiffness on the elastic branch, psi_hat''(|w|) elsewhere
        aw = np.abs(w)
        c_el = law.env.value_slope(xi)[1] / xi
        return np.where(aw <= xi, c_el, law.env.curvature(aw))

    @staticmethod
    def branch_formulas(law, w, xi):
        """``psi`` and ``dpsi_dw`` entry by entry, from the envelope's value
        and slope at ``|w|`` and ``xi``."""
        psi, dpsi = [], []
        at_w, at_xi = law.env.value_slope(np.abs(w)), law.env.value_slope(xi)
        for wj, xj, vw, sw, vx, sx in zip(w, xi, *at_w, *at_xi):
            aw = abs(wj)
            psi.append(vw if aw >= xj else vx - sx * (xj * xj - wj * wj) / (2.0 * xj))
            dpsi.append(sx / xj * wj if aw <= xj else sw * np.sign(wj))
        return np.array(psi), np.array(dpsi)

    def test_bit_identical_to_law(self):
        rng = np.random.default_rng(2024)
        for law in self.laws():
            xi_c = law.xi_c
            xi = np.concatenate([rng.uniform(1e-4, 1.5 * xi_c, 400),
                                 rng.uniform(1.01 * xi_c, 3.0 * xi_c, 100)])
            w = rng.uniform(-2.0, 2.0, xi.size) * xi
            # the tie |w| = xi, on both signs, and openings beyond xi_c
            w[:40] = xi[:40]
            w[40:80] = -xi[40:80]
            w[80:120] = np.sign(w[80:120]) * rng.uniform(1.1, 4.0, 40) * xi_c
            hist = law.frozen(xi)
            psi, dpsi, aw, elastic = hist.evaluate(w)
            ref_psi, ref_dpsi = self.branch_formulas(law, w, xi)
            assert psi.tobytes() == ref_psi.tobytes() == law.psi(w, xi).tobytes()
            assert dpsi.tobytes() == ref_dpsi.tobytes() == law.dpsi_dw(w, xi).tobytes()
            assert np.array_equal(aw, np.abs(w))
            assert np.array_equal(elastic, np.abs(w) <= xi)
            assert np.array_equal(hist.curvature(aw, elastic),
                                  self.exact_curvature(law, w, xi))
            assert np.array_equal(hist.c_xi, law.env.value_slope(xi)[1] / xi)

    @staticmethod
    def full_branch(hist, w):
        """``evaluate`` and ``curvature`` through the envelope at every
        opening, as a step with a pair on or beyond its cone makes them."""
        aw = np.abs(w)
        elastic = aw <= hist.xi
        value, slope = hist.env.value_slope(aw)
        unload = hist.psi_xi - hist.slope_xi * (hist.xi_sq - w**2) / hist.two_xi
        return (np.where(aw >= hist.xi, value, unload),
                np.where(elastic, hist.c_xi * w, slope * np.sign(w)), aw, elastic,
                np.where(elastic, hist.c_xi, hist.env.curvature(aw)))

    def test_inside_the_cone_is_the_full_branch_bit_for_bit(self, monkeypatch):
        # openings strictly inside their cones, signed zeros among them, read
        # no envelope; one opening on the tie |w| = xi, infinite or NaN, or
        # one history xi = 0, makes the envelope pass, and the curvature
        # reads the envelope only off the elastic branch.  Every output is
        # the full branch's bit for bit
        rng = np.random.default_rng(35)
        for law in self.laws():
            env = law.env
            xi = rng.uniform(1e-4, 1.5 * law.xi_c, 200)
            inside = rng.uniform(-1.0, 1.0, xi.size) * xi
            inside[:2] = 0.0, -0.0
            no_history = xi.copy()
            no_history[7] = 0.0
            cases = [(inside, xi, False, False), (inside, no_history, True, True)]
            for special, elastic in ((xi[7], True), (-xi[7], True), (np.inf, False),
                                     (-np.inf, False), (np.nan, False)):
                w = inside.copy()
                w[7] = special
                cases.append((w, xi, True, not elastic))
            for w, hist_xi, envelope, loading in cases:
                hist = FrozenHistory(env, hist_xi)
                with np.errstate(invalid="ignore", divide="ignore"):
                    ref = self.full_branch(hist, w)
                    calls = []
                    for name in ("value_slope", "curvature"):
                        real = getattr(env, name)
                        monkeypatch.setattr(env, name, lambda x, real=real, name=name:
                                            calls.append(name) or real(x))
                    out = hist.evaluate(w)
                    curvature = hist.curvature(*out[2:])
                    monkeypatch.undo()
                assert calls == ["value_slope"] * envelope + ["curvature"] * loading
                for got, want in zip((*out, curvature), ref):
                    assert got.tobytes() == want.tobytes()
                # branches() flags the strictly-inside point it decided, and
                # the curvature that takes the flag is the same
                with np.errstate(invalid="ignore", divide="ignore"):
                    *flagged, inside = hist.branches(w)
                    flagged_curvature = hist.curvature(*flagged[2:], inside)
                assert inside is (not envelope)
                for got, want in zip((*flagged, flagged_curvature), ref):
                    assert got.tobytes() == want.tobytes()

    def test_cone_evaluation_is_evaluate_bit_for_bit(self):
        # max-updated histories xi = max(xi_prev, |w|): grown pairs on |w| = xi,
        # on both signs and beyond the cap, interior pairs, signed zeros, and a
        # NaN and an infinite opening, whose histories the max-update makes
        # NaN and infinite
        rng = np.random.default_rng(23)
        for law in self.laws():
            xi_prev = rng.uniform(1e-4, 1.5 * law.xi_c, 300)
            w = rng.uniform(-1.0, 1.0, xi_prev.size) * xi_prev
            w[:50] *= rng.uniform(1.0, 3.0, 50) / np.abs(w[:50]) * xi_prev[:50]
            w[50:60], w[60:70], w[70], w[71] = 0.0, -0.0, np.nan, -np.inf
            xi = np.maximum(xi_prev, np.abs(w))
            grown = np.abs(w) == xi
            assert grown[:50].all() and grown[71] and not grown[72:].any()
            assert (np.sign(w[:50]) < 0).any() and (w[:50] > law.xi_c).any()
            hist = law.frozen(xi)
            with np.errstate(invalid="ignore"):
                psi, dpsi = hist.evaluate_on_cone(w)
                ref_psi, ref_dpsi = hist.evaluate(w)[:2]
                # with |w| passed in, as the step's max-update forms it
                given = hist.evaluate_on_cone(w, np.abs(w))
            assert psi.tobytes() == ref_psi.tobytes()
            assert dpsi.tobytes() == ref_dpsi.tobytes()
            assert given[0].tobytes() == psi.tobytes() and given[1].tobytes() == dpsi.tobytes()
            assert np.isnan(psi[70]) and np.isnan(dpsi[70])
            assert psi[71] == law.env.psi_at_cap
            assert np.signbit(dpsi[60:70]).all() and not np.signbit(dpsi[50:60]).any()

    def test_value_slope_matches_the_closed_forms(self):
        # psi_hat and psi_hat' from one envelope pass: the prototype's
        # g_c x (2 - x) and 2 (g_c / xi_c) (1 - x) with x = w / xi_c, and the
        # cubic 1 - (1 - w)^3, which its Hermite interpolant reproduces; at
        # the origin, at the cap and beyond it the slope is the left limit,
        # then +0.0, and the value the cap's
        rng = np.random.default_rng(7)
        proto, cubic = (law.env for law in self.laws())
        w = np.concatenate([[0.0, 0.2, 0.4, np.inf], rng.uniform(0.0, 0.2, 200)])
        value, slope = proto.value_slope(w)
        x = np.minimum(w / 0.2, 1.0)
        assert np.allclose(value, x * (2.0 - x), rtol=1e-15, atol=0.0)
        assert np.allclose(slope, 10.0 * (1.0 - x), rtol=1e-15, atol=1e-15)
        assert value[:4].tolist() == [0.0, 1.0, 1.0, 1.0]
        assert slope[:4].tolist() == [10.0, 0.0, 0.0, 0.0]
        w = np.concatenate([[0.0, 1.0, 2.0, np.inf], rng.uniform(0.0, 1.0, 200)])
        value, slope = cubic.value_slope(w)
        x = np.minimum(w, 1.0)
        assert np.allclose(value, 1.0 - (1.0 - x) ** 3, rtol=1e-14, atol=1e-15)
        assert np.allclose(slope, 3.0 * (1.0 - x) ** 2, rtol=1e-13, atol=1e-14)
        assert value[0] == 0.0 and slope[0] == 3.0
        assert value[1] == value[2] == value[3] == cubic.psi_at_cap == 1.0
        assert slope[1] == 0.0 and slope[2:4].tolist() == [0.0, 0.0]
        assert not np.signbit(slope[1:4]).any()

    def test_nonpositive_history_rejected(self, proto):
        with pytest.raises(ValueError, match="xi > 0"):
            proto.frozen(np.array([0.1, 0.0]))
