"""Potential, nonlinearity, energy and derivative representations."""

import numpy as np
import pytest
from scipy.integrate import quad

from multibump.gluing import ExtendedPoint, extended_gradient
from multibump.grid import Field, resolvent_solve
from multibump.model import (
    Nonlinearity,
    Potential,
    energy,
    hessian_form,
    l2_residual,
    positive_gauge,
)
from multibump.semiclassical import scaled_potential
from multibump.stationary import limit_profile, limit_profile_derivative


class TestPotential:
    def test_constant(self, grid24):
        V = Potential.const(2.0)
        assert np.all(V.sample(grid24) == 2.0)
        assert V.curvature_at(0.3) == 0.0

    def test_cosine(self, grid24):
        V = Potential.cosine(0.5, shift=0.1)
        vals = V.sample(grid24)
        assert vals[0] == pytest.approx(1.0 + 0.5 + 0.1)  # x = -24 is an integer
        assert V.curvature_at(0.0) == pytest.approx(-0.5 * (2 * np.pi) ** 2)

    def test_tabulated_periodic(self, grid24):
        table = 1.0 + 0.5 * np.cos(2 * np.pi * np.arange(32) / 32)
        V = Potential.tabulated(table)
        cos = Potential.cosine(0.5)
        # table nodes coincide with grid nodes (h = 1/32), so sampling is exact
        assert np.max(np.abs(V.sample(grid24) - cos.sample(grid24))) < 1e-12

    @pytest.mark.parametrize("x0", [0.0, 0.3, 0.45])
    def test_tabulated_curvature_is_the_sampled_cosine(self, x0):
        # V = 1 - 0.3 cos(2 pi x) + 0.3 in 64 samples, at a node (0.0) and
        # between nodes (0.3, 0.45); V'' = 0.3 (2 pi)^2 cos(2 pi x)
        V = Potential.tabulated(1.0 - 0.3 * np.cos(2 * np.pi * np.arange(64) / 64), shift=0.3)
        exact = Potential.cosine(-0.3, shift=0.3).curvature_at(x0)
        assert V.curvature_at(x0) == pytest.approx(exact, rel=0.01)

    def test_positive_gauge_shifts_negative_potential(self, grid24):
        V = Potential.const(-2.0)
        shifted, c = positive_gauge(V, grid24)
        assert c > 2.0
        assert shifted.kind == "constant" and np.all(shifted.sample(grid24) == -2.0 + c)

    def test_positive_gauge_identity_when_positive(self, grid24, vcos):
        shifted, c = positive_gauge(vcos, grid24)
        assert c == 0.0 and shifted is vcos

    def test_tabulated_compares_and_hashes_by_value(self):
        a, b = Potential.tabulated([1.0, 2.0]), Potential.tabulated([1.0, 2.0])
        assert a == b and hash(a) == hash(b)
        assert a.shifted(0.5) == b.shifted(0.5) and a.shifted(0.5) != b
        assert a != Potential.tabulated([1.0, 3.0])
        assert a != Potential.tabulated([1.0, 2.0, 1.0])
        assert a != Potential.cosine(0.5) and a != "tabulated"
        assert {a: "first"}[b] == "first"
        assert len({a, b, Potential.tabulated([1.0, 3.0]), Potential.const(1.0)}) == 3

    def test_table_is_a_frozen_copy(self):
        values = np.array([1.0, 2.0])
        V = Potential.tabulated(values)
        key = hash(V)
        values[0] = 5.0  # the caller's array is not the potential's
        assert V.table[0] == 1.0 and hash(V) == key
        with pytest.raises(ValueError):
            V.table[0] = 5.0


_BASES = {
    "constant": Potential.const(1.3),
    "cosine": Potential.cosine(-0.3, shift=0.3),
    "tabulated": Potential.tabulated(1.0 - 0.3 * np.cos(2 * np.pi * np.arange(64) / 64),
                                     shift=0.3),
}


class TestRescaledFrame:
    """scaled_potential(V, eps) is V's own rule at scale eps: x -> V(eps x)."""

    @pytest.mark.parametrize("kind", sorted(_BASES))
    @pytest.mark.parametrize("eps", [0.2, 0.05, 0.013])
    def test_samples_v_at_eps_x(self, kind, eps, grid24):
        V = _BASES[kind]
        scaled = scaled_potential(V, eps)
        assert np.array_equal(scaled.sample(grid24), V.evaluate(eps * grid24.x))

    def test_rescaling_composes(self, grid24):
        V = _BASES["cosine"]
        twice = scaled_potential(scaled_potential(V, 0.5), 0.25)
        assert twice.scale == 0.125
        assert np.array_equal(twice.sample(grid24), V.evaluate(0.125 * grid24.x))

    @pytest.mark.parametrize("x0", [0.0, 0.7, 3.1])
    @pytest.mark.parametrize("eps", [0.2, 0.05])
    def test_cosine_curvature_is_eps_squared_v2(self, x0, eps):
        V = _BASES["cosine"]
        expected = eps**2 * V.curvature_at(eps * x0)
        assert scaled_potential(V, eps).curvature_at(x0) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("x0", [0.0, 1.5, 2.25])
    def test_tabulated_curvature_is_the_sampled_cosine(self, x0):
        # at eps = 0.2 the step is one table spacing of the base, 1/(64 eps) in x
        table = scaled_potential(_BASES["tabulated"], 0.2).curvature_at(x0)
        cosine = scaled_potential(_BASES["cosine"], 0.2).curvature_at(x0)
        assert table == pytest.approx(cosine, rel=0.01)

    @pytest.mark.parametrize("kind", sorted(_BASES))
    def test_shift_adds_exactly_c(self, kind, grid24):
        # the shift is added to the value, never to the argument: one rounding
        # of shift + c, and the base sampled at the same eps x
        scaled = scaled_potential(_BASES[kind], 0.05)
        shifted = scaled.shifted(0.75)
        assert shifted.scale == scaled.scale and shifted.shift == scaled.shift + 0.75
        np.testing.assert_allclose(shifted.sample(grid24) - scaled.sample(grid24), 0.75,
                                   rtol=0.0, atol=1e-15)


class TestNonlinearity:
    def test_rejects_p_at_most_two(self):
        with pytest.raises(ValueError):
            Nonlinearity(2.0)

    def test_pointwise_values(self, f4):
        s = np.array([-2.0, 0.0, 3.0])
        assert np.allclose(f4.f(s), s**3)
        assert np.allclose(f4.fprime(s), 3 * s**2)
        assert np.allclose(f4.F(s), s**4 / 4)
        assert np.allclose(f4.g(s**2), s**2)

    def test_density_form_in_place(self, f8):
        density = np.array([0.5, 0.0, 4.0])
        expected = f8.g(density)
        assert f8.g(density, out=density) is density
        assert np.array_equal(density, expected)

    def test_derivative_consistency(self, f8):
        s, t = 1.3, 1e-5
        fd = (f8.f(s + t) - f8.f(s - t)) / (2 * t)
        assert fd == pytest.approx(f8.fprime(s), rel=1e-8)
        fd_F = (f8.F(s + t) - f8.F(s - t)) / (2 * t)
        assert fd_F == pytest.approx(f8.f(s), rel=1e-8)

    def test_monotone_quotient(self, f4):
        # f(s)/|s| nondecreasing and f(s) s > 0 away from zero
        s = np.linspace(-3, 3, 101)
        s = s[np.abs(s) > 1e-3]
        quot = f4.f(s) / np.abs(s)
        assert np.all(np.diff(quot) >= 0)
        assert np.all(f4.f(s) * s > 0)


class TestEnergy:
    def test_zero_field(self, grid24, vcos, f4):
        assert energy(Field.zeros(grid24), vcos, f4) == 0.0

    def test_soliton_value_oracle(self, soliton40, V1, f4):
        # quadrature oracle: 1/2 * 16/3 - 1/4 * integral((sqrt(2) sech)^4) = 4/3
        quartic = quad(lambda x: (np.sqrt(2) / np.cosh(x)) ** 4, -40, 40)[0]
        oracle = 0.5 * (16.0 / 3.0) - quartic / 4.0
        assert oracle == pytest.approx(4.0 / 3.0, abs=1e-10)
        assert energy(soliton40, V1, f4) == pytest.approx(oracle, abs=1e-9)

    def test_quadratic_small_amplitude(self, grid24, vcos, f4, smooth_field):
        u = smooth_field(grid24, seed=2)
        e1 = energy(Field(grid24, 1e-4 * u.values), vcos, f4)
        e2 = energy(Field(grid24, 2e-4 * u.values), vcos, f4)
        assert e2 / e1 == pytest.approx(4.0, rel=1e-6)


class TestStrongResidual:
    def test_soliton(self, soliton40, V1, f4):
        r = l2_residual(soliton40, 0.0, V1, f4)
        assert np.max(np.abs(r.values)) < 1e-8

    def test_zero_field(self, grid24, vcos, f4):
        r = l2_residual(Field.zeros(grid24), 0.7, vcos, f4)
        assert np.all(r.values == 0.0)

    def test_linear_in_multiplier(self, grid24, vcos, f4, smooth_field):
        u = smooth_field(grid24, seed=8)
        r1 = l2_residual(u, 0.3, vcos, f4)
        r2 = l2_residual(u, -0.4, vcos, f4)
        assert np.max(np.abs((r1.values - r2.values) + 0.7 * u.values)) < 1e-14


def _gradient(u, V, f):
    """The energy's gradient in the (u'v' + V u v) metric: the resolvent of
    the strong-form residual."""
    return resolvent_solve(l2_residual(u, 0.0, V, f), V)


class TestGradient:
    def test_matches_resolvent_of_residual(self, grid24, vcos, f4, smooth_field):
        # the field part of the extended gradient at lambda = 0, u - S f(u)
        for seed in range(10):
            u = smooth_field(grid24, seed=seed)
            lhs, _ = extended_gradient(ExtendedPoint(u, 0.0), 1.0, vcos, f4)
            rhs = _gradient(u, vcos, f4)
            assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10

    def test_vanishes_at_soliton(self, soliton40, V1, f4):
        g = _gradient(soliton40, V1, f4)
        assert np.max(np.abs(g.values)) < 1e-8

    def test_dilation_derivative_of_energy(self, grid24, vcos, f4, smooth_field):
        # d/dt E(t u) at t = 1 equals the gradient paired with u
        from multibump.grid import inner_h1v

        u = smooth_field(grid24, seed=33)
        pairing = inner_h1v(_gradient(u, vcos, f4), u, vcos)
        t = 1e-5
        fd = (
            energy(Field(grid24, (1 + t) * u.values), vcos, f4)
            - energy(Field(grid24, (1 - t) * u.values), vcos, f4)
        ) / (2 * t)
        assert fd == pytest.approx(pairing, rel=1e-7)

    def test_directional_derivative(self, grid24, vcos, f4, smooth_field):
        from multibump.grid import inner_h1v

        u = smooth_field(grid24, seed=30)
        v = smooth_field(grid24, seed=31)
        g = _gradient(u, vcos, f4)
        pairing = inner_h1v(g, v, vcos)
        errs = []
        for t in (1e-3, 5e-4):
            fd = (
                energy(u + t * v, vcos, f4) - energy(u - t * v, vcos, f4)
            ) / (2 * t)
            errs.append(abs(fd - pairing))
        # halving the step shrinks the error about fourfold
        assert errs[1] < errs[0] / 2.5
        assert errs[0] < 1e-5


class TestHessianForm:
    def test_translation_mode_in_kernel(self, grid40, V1, f4):
        u0 = limit_profile(grid40, 4.0)
        mode = limit_profile_derivative(grid40, 4.0)
        form = hessian_form(u0, 0.0, V1, f4)
        assert abs(form(mode, mode)) < 1e-8

    def test_symmetry(self, grid24, vcos, f4, smooth_field):
        u = smooth_field(grid24, seed=40)
        v, w = smooth_field(grid24, seed=41), smooth_field(grid24, seed=42)
        form = hessian_form(u, 0.2, vcos, f4)
        assert form(v, w) == pytest.approx(form(w, v), rel=1e-13, abs=1e-13)

    def test_second_difference_of_energy(self, grid24, vcos, f4, smooth_field):
        u = smooth_field(grid24, seed=43)
        v = smooth_field(grid24, seed=44)
        form = hessian_form(u, 0.0, vcos, f4)
        expected = form(v, v)
        errs = []
        for t in (1e-3, 5e-4):
            fd = (
                energy(u + t * v, vcos, f4)
                - 2 * energy(u, vcos, f4)
                + energy(u - t * v, vcos, f4)
            ) / t**2
            errs.append(abs(fd - expected))
        assert errs[1] < errs[0] / 2.5

    def test_negative_on_wave_itself(self, ubar, vcos, f4, soliton40, V1):
        # consequence of the monotone-quotient structure at any critical point
        form = hessian_form(ubar.u, ubar.lam, vcos, f4)
        assert form(ubar.u, ubar.u) < 0
        form0 = hessian_form(soliton40, 0.0, V1, f4)
        assert form0(soliton40, soliton40) < 0
