"""Heat kernel closed forms against independent oracles and stated bounds."""

import math

import numpy as np
import pytest

from adelic_diffusion import (
    KernelParams,
    TruncationError,
    alpha,
    ball_kernel_mass,
    ball_mass,
    density,
    density_center,
    exit_prob,
    exit_rate,
    overshoot_law,
    radial_convolve,
    radial_law,
    sphere_mass,
)
from adelic_diffusion import heat_kernel
from conftest import ball_mass_oracle, density_fourier_oracle, sphere_mass_oracle

KP = KernelParams(2, 1.0, 1.0)

# Frozen from the independent oracles in conftest (see test_*_oracle below).
DENSITY_2110_M0 = 0.4127075082929566
BALL_2110_NU0 = 0.5480427915295694


class TestAlpha:
    def test_p2_b1(self):
        assert alpha(KP) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_p3_b1(self):
        assert alpha(KernelParams(3, 1.0, 1.0)) == pytest.approx(0.75, abs=1e-15)

    def test_small_b_limit(self):
        assert alpha(KernelParams(2, 1e-9, 1.0)) == pytest.approx(1.0, abs=1e-6)

    def test_open_interval(self):
        for p in (2, 3, 97):
            for b in (0.1, 1.0, 8.0):
                a = alpha(KernelParams(p, b, 1.0))
                assert 0.0 < a < 1.0


class TestDensity:
    def test_frozen_value_and_fourier_oracle(self):
        lib = density(KP, 1.0, 0)
        oracle = density_fourier_oracle(2, 1.0, 1.0, 1.0, 0)
        assert lib == pytest.approx(DENSITY_2110_M0, abs=1e-13)
        assert oracle == pytest.approx(DENSITY_2110_M0, abs=1e-12)

    def test_fourier_oracle_across_radii(self):
        for m in (-3, -1, 0, 1, 2, 4):
            assert density(KP, 1.0, m) == pytest.approx(
                density_fourier_oracle(2, 1.0, 1.0, 1.0, m), rel=1e-10
            )

    def test_monotone_vanishing_in_m(self):
        vals = [density(KP, 1.0, m) for m in range(-5, 25)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-7

    def test_radial_only_depends_on_exponent(self):
        assert density(KP, 0.5, 2) == density(KP, 0.5, 2)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            density(KP, 0.0, 0)

    def test_truncation_guard(self, monkeypatch):
        monkeypatch.setattr(heat_kernel, "SERIES_MAX_TERMS", 2)
        heat_kernel._density_cached.cache_clear()
        with pytest.raises(TruncationError):
            density(KP, 1.0, 0)


class TestBallMass:
    def test_frozen_value_and_sphere_sum_oracle(self):
        lib = ball_mass(KP, 1.0, 0)
        oracle = ball_mass_oracle(2, 1.0, 1.0, 1.0, 0)
        assert lib == pytest.approx(BALL_2110_NU0, abs=1e-13)
        assert oracle == pytest.approx(BALL_2110_NU0, abs=1e-12)

    def test_dirac_limit(self):
        for nu in (-2, 0, 3):
            assert ball_mass(KP, 1e-9, nu) == pytest.approx(1.0, abs=1e-6)

    def test_unit_ball_lower_bound(self):
        for t in [10.0 ** (-k) for k in range(0, 7)] + [2.0, 10.0]:
            assert ball_mass(KP, t, 0) >= math.exp(-KP.sigma * t)

    def test_monotone_in_radius(self):
        vals = [ball_mass(KP, 1.0, nu) for nu in range(-8, 30)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1 - 1e-8

    def test_ball_kernel_mass_shifted_center(self):
        # center outside the ball: constant density on the sphere of |c|
        v = ball_kernel_mass(KP, 1.0, 3, -1)
        assert v == pytest.approx(density(KP, 1.0, 3) * 0.5, rel=1e-14)
        assert ball_kernel_mass(KP, 1.0, -4, -1) == pytest.approx(
            ball_mass(KP, 1.0, -1), rel=1e-14
        )


class TestSphereMass:
    def test_normalization(self):
        law = radial_law(KP, 1.0)
        assert abs(law.coverage() + law.bottom_mass + law.top_loss - 1.0) < 1e-10

    def test_nonnegative_and_consistent(self):
        for m in range(-6, 12):
            sm = sphere_mass(KP, 1.0, m)
            assert sm >= 0.0
            diff = ball_mass(KP, 1.0, m) - ball_mass(KP, 1.0, m - 1)
            assert abs(diff - sm) < 1e-12
            assert sm == pytest.approx(sphere_mass_oracle(2, 1.0, 1.0, 1.0, m), abs=1e-13)

    def test_grid_normalization(self):
        for p in (2, 3, 5):
            for b in (0.5, 1.0, 2.0):
                for s in (0.25, 1.0):
                    for t in (0.1, 1.0, 10.0):
                        law = radial_law(KernelParams(p, b, s), t)
                        total = law.coverage() + law.bottom_mass + law.top_loss
                        assert abs(total - 1.0) < 1e-10


    def test_huge_time_masses_are_ball_mass_differences(self):
        # at sigma t = 1e300 the series tail bound underflows while the terms do
        # not, and p^m overflows where the density underflows
        kp = KernelParams(2, 1.0, 1.0)
        law = radial_law(kp, 1e300)
        for m in range(law.m_lo, law.m_hi + 1):
            diff = ball_mass(kp, 1e300, m) - ball_mass(kp, 1e300, m - 1)
            assert sphere_mass(kp, 1e300, m) == pytest.approx(diff, rel=1e-9, abs=1e-15), m
        assert abs(law.coverage() + law.bottom_mass + law.top_loss - 1.0) < 1e-10


class TestExitLaw:
    def test_time_zero(self):
        assert exit_prob(KP, 0.0, 0) == 1.0

    def test_frozen_p2(self):
        assert exit_prob(KP, 1.0, 0) == pytest.approx(math.exp(-2.0 / 3.0), abs=1e-15)
        assert exit_prob(KP, 1.0, 0) == pytest.approx(0.513417119032592, abs=1e-14)

    def test_monotonicity(self):
        assert exit_prob(KP, 2.0, 0) < exit_prob(KP, 1.0, 0)
        assert exit_prob(KP, 1.0, 1) > exit_prob(KP, 1.0, 0)

    def test_rate_consistency(self):
        assert exit_rate(KP, 0) == pytest.approx(2.0 / 3.0, abs=1e-15)


class TestOvershoot:
    def test_normalized(self):
        total = sum(overshoot_law(KP, 0, k) for k in range(1, 200))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_geometric_values(self):
        assert overshoot_law(KP, 0, 1) == pytest.approx(0.5, abs=1e-15)
        assert overshoot_law(KP, 0, 2) == pytest.approx(0.25, abs=1e-15)

    def test_independent_of_r(self):
        for k in (1, 3, 7):
            assert overshoot_law(KP, -5, k) == overshoot_law(KP, 9, k)

    def test_small_t_sphere_rate_matches(self):
        # sphere_mass(dt, m)/dt -> jump rate to the sphere from the event chain
        dt = 1e-7
        for m in (1, 2, 3):
            rate_kernel = sphere_mass(KP, dt, m) / dt
            rate_chain = exit_rate(KP, 0) * overshoot_law(KP, 0, m)
            assert rate_kernel == pytest.approx(rate_chain, rel=1e-5)


class TestChapmanKolmogorov:
    @pytest.mark.parametrize("p,b,s", [(2, 1.0, 1.0), (3, 0.5, 0.25), (5, 2.0, 1.0)])
    def test_radial_convolution(self, p, b, s):
        params = KernelParams(p, b, s)
        half = radial_law(params, 0.5, coverage=1 - 1e-13)
        conv = radial_convolve(half, half)
        direct = radial_law(params, 1.0, coverage=1 - 1e-13)
        worst = max(
            abs(conv.mass(m) - direct.mass(m))
            for m in range(direct.m_lo, direct.m_hi + 1)
        )
        assert worst < 1e-8

    def test_mass_conserved(self):
        half = radial_law(KP, 0.5)
        conv = radial_convolve(half, half)
        assert conv.coverage() + conv.bottom_mass == pytest.approx(1.0, abs=1e-10)


class TestDensityCenter:
    def test_dominates_all_radii(self):
        c = density_center(KP, 1.0)
        for m in range(-10, 5):
            assert density(KP, 1.0, m) <= c + 1e-15

    def test_matches_deep_density(self):
        assert density_center(KP, 1.0) == pytest.approx(
            density(KP, 1.0, -40), rel=1e-12
        )


class TestPow:
    def test_clamps_at_both_float_limits(self):
        # 2^1030 = e^714 lies past the largest float, e^709.78, and below the
        # underflow clamp at e^745; 2^-1080 lies below the smallest subnormal
        assert heat_kernel._pow(2, 1030) == math.inf
        assert heat_kernel._pow(2, 1023) == pytest.approx(2.0 ** 1023, rel=1e-13)
        assert heat_kernel._pow(2, -1080) == 0.0
        assert heat_kernel._pow(2, -1070) > 0.0
