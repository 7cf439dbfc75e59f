"""Adelic truncations, tail certificates, exit counts, ball probabilities."""

import math

import numpy as np
import pytest

from adelic_diffusion import (
    AdelicPoint,
    Ball,
    ConfigError,
    PAdicScalar,
    RngStream,
    SigmaSequence,
    SummabilityError,
    ball_mass,
    choose_truncation,
    exit_count_factorial_bound,
    exit_count_moment,
    exit_count_pmf,
    exit_count_samples,
    exit_prob,
    sample_adelic_path,
    sample_event_path,
    tail_certificate,
)

from conftest import adelic_ball_probability

SIG = SigmaSequence.inverse_square()
B = 1.0


class TestSigmaSequence:
    def test_total_close_to_prime_zeta_two(self):
        # direct summation over the table converges to ~0.4522474200
        direct = sum(SIG.sigma(i) for i in range(1, 10_001))
        assert SIG.sigma_total_upper() == pytest.approx(direct, abs=2e-5)
        assert SIG.sigma_total_upper() == pytest.approx(0.4522474200, abs=1e-4)

    def test_nonsummable_rejected(self):
        with pytest.raises(SummabilityError):
            SigmaSequence(tail_coeff=1.0, tail_power=1.0)
        with pytest.raises(SummabilityError):
            SigmaSequence(explicit=(0.5, -1.0))

    def test_tail_upper_is_upper_bound(self):
        direct = sum(SIG.sigma(i) for i in range(6, 10_001))
        assert SIG.sigma_tail_upper(5) >= direct

    def test_explicit_only_past_end_errors(self):
        s = SigmaSequence(explicit=(1.0, 0.5))
        with pytest.raises(ConfigError):
            s.sigma(3)


class TestChooseTruncation:
    def test_loose_eps_needs_nothing(self):
        assert choose_truncation(SIG, B, 1.0, 0.999999) == 0

    def test_certificate_meets_target(self):
        N = choose_truncation(SIG, B, 1.0, 1e-3)
        assert tail_certificate(SIG, B, 1.0, N) >= 0.999
        if N > 0:
            assert tail_certificate(SIG, B, 1.0, N - 1) < 0.999

    def test_oracle_direct_tail_summation(self):
        N = choose_truncation(SIG, B, 1.0, 1e-3)
        direct_tail = sum(SIG.beta(i, B) for i in range(N + 1, 10_001))
        assert math.exp(-direct_tail) >= 0.999

    def test_monotone_in_horizon(self):
        assert (
            choose_truncation(SIG, B, 2.0, 1e-3)
            >= choose_truncation(SIG, B, 1.0, 1e-3)
        )


class TestBundles:
    def test_marginals_reuse_single_prime_streams(self):
        stream = RngStream(500)
        bundle = sample_adelic_path(SIG, B, 1.0, AdelicPoint.zero(), 3, stream,
                                    resolution=0)
        for i, (p, path) in enumerate(bundle.components, start=1):
            params = SIG.kernel_params(i, B)
            solo = sample_event_path(params, PAdicScalar.zero(p), 1.0, 0,
                                     stream.child(i))
            assert path == solo

    def test_joint_stay_probability(self):
        n = 4000
        N = 4
        stay = 0
        for j in range(n):
            bundle = sample_adelic_path(SIG, B, 1.0, AdelicPoint.zero(), N,
                                        RngStream(501).child(j), resolution=0)
            if bundle.exit_count() == 0:
                stay += 1
        analytic = 1.0
        for i in range(1, N + 1):
            analytic *= exit_prob(SIG.kernel_params(i, B), 1.0, 0)
        se = math.sqrt(analytic * (1 - analytic) / n)
        assert abs(stay / n - analytic) <= 3 * se

    def test_exit_indicators_uncorrelated(self):
        n = 4000
        a = np.zeros(n)
        c = np.zeros(n)
        for j in range(n):
            bundle = sample_adelic_path(SIG, B, 1.0, AdelicPoint.zero(), 2,
                                        RngStream(502).child(j), resolution=0)
            flags = {
                p: bool(path.events) for p, path in bundle.components
            }
            a[j], c[j] = flags[2], flags[3]
        cov = float(np.mean(a * c) - np.mean(a) * np.mean(c))
        se = 0.25 / math.sqrt(n)
        assert abs(cov) <= 3 * se

    def test_certificate_attached(self):
        bundle = sample_adelic_path(SIG, B, 1.0, AdelicPoint.zero(), 5,
                                    RngStream(503), resolution=0)
        assert bundle.tail_certificate == pytest.approx(
            math.exp(-SIG.beta_tail_upper(5, B)), rel=1e-12
        )
        assert 0 < bundle.tail_certificate <= 1

    def test_truncation_must_cover_actives(self):
        x = AdelicPoint.of({5: PAdicScalar.from_int(1, 5)})
        with pytest.raises(ConfigError):
            sample_adelic_path(SIG, B, 1.0, x, 2, RngStream(1), resolution=0)


class TestAdelicBallProbability:
    def test_single_prime_reduction(self):
        lo, hi = adelic_ball_probability(SIG, B, 1.0, {}, 1)
        bm = ball_mass(SIG.kernel_params(1, B), 1.0, 0)
        assert hi == pytest.approx(bm, rel=1e-14)
        assert lo == pytest.approx(bm * math.exp(-SIG.sigma_tail_upper(1)), rel=1e-12)

    def test_dirac_limit(self):
        lo, hi = adelic_ball_probability(SIG, B, 1e-9, {}, 3)
        assert lo > 1 - 1e-6 and hi <= 1 + 1e-12

    def test_bracket_contains_monte_carlo(self):
        balls = {2: Ball(PAdicScalar.zero(2), 0), 3: Ball(PAdicScalar.zero(3), 0)}
        lo, hi = adelic_ball_probability(SIG, B, 1.0, balls, 2)
        n = 4000
        inside = 0
        for j in range(n):
            bundle = sample_adelic_path(SIG, B, 1.0, AdelicPoint.zero(), 2,
                                        RngStream(504).child(j), resolution=0)
            if bundle.exit_count() == 0:
                inside += 1
        # staying in Z_p for the whole horizon implies X_t in Z_p
        freq = inside / n
        se = math.sqrt(freq * (1 - freq) / n)
        assert freq <= hi + 3 * se

    def test_rejects_ball_beyond_truncation(self):
        with pytest.raises(ConfigError):
            adelic_ball_probability(SIG, B, 1.0, {5: Ball(PAdicScalar.zero(5), 0)}, 2)


ZERO_TAIL_50 = SigmaSequence(
    explicit=tuple(float(p) ** -2 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
                                            31, 37, 41, 43, 47))
)


class TestExitCount:
    def test_pmf_zero_matches_product(self):
        dist = exit_count_pmf(ZERO_TAIL_50, B, 1.0, 15, 10)
        beta = sum(ZERO_TAIL_50.beta(i, B) for i in range(1, 16))
        assert dist.pmf[0] == pytest.approx(math.exp(-beta), rel=1e-12)

    def test_pmf_brute_force_enumeration(self):
        # small system: exact enumeration over all exit patterns
        small = SigmaSequence(explicit=(0.3, 0.2, 0.1))
        dist = exit_count_pmf(small, B, 1.0, 3, 3)
        qs = [1 - math.exp(-small.beta(i, B)) for i in (1, 2, 3)]
        brute = [0.0] * 4
        for mask in range(8):
            prob = 1.0
            k = 0
            for i in range(3):
                if mask >> i & 1:
                    prob *= qs[i]
                    k += 1
                else:
                    prob *= 1 - qs[i]
            brute[k] += prob
        for k in range(4):
            assert dist.pmf[k] == pytest.approx(brute[k], rel=1e-12)

    def test_factorial_bound(self):
        dist = exit_count_pmf(ZERO_TAIL_50, B, 1.0, 15, 10)
        for k in range(1, 11):
            assert dist.pmf[k] < exit_count_factorial_bound(ZERO_TAIL_50, B, 1.0, k)
        bound0 = exit_count_factorial_bound(ZERO_TAIL_50, B, 1.0, 0)
        assert dist.pmf[0] <= bound0 * (1 + 1e-12)

    def test_moments(self):
        dist = exit_count_pmf(ZERO_TAIL_50, B, 1.0, 15, 15)
        assert dist.mean() == pytest.approx(sum(dist.qs), rel=1e-12)
        assert dist.moment(1) == pytest.approx(dist.mean(), abs=1e-10)
        second = dist.moment(2)
        assert second - dist.mean() ** 2 == pytest.approx(dist.variance(), abs=1e-10)
        exact, bound = exit_count_moment(ZERO_TAIL_50, B, 1.0, 15, 1)
        assert exact < bound
        exact2, bound2 = exit_count_moment(ZERO_TAIL_50, B, 1.0, 15, 2)
        assert exact2 < bound2

    def test_mc_histogram_tv(self):
        dist = exit_count_pmf(ZERO_TAIL_50, B, 1.0, 15, 10)
        counts = np.bincount(
            exit_count_samples(ZERO_TAIL_50, B, 1.0, 15, 30_000, seed=505),
            minlength=11,
        )[:11]
        tv = 0.5 * float(np.sum(np.abs(counts / 30_000 - np.asarray(dist.pmf))))
        assert tv < 0.02

    def test_sampler_reduction_consistency(self):
        # vectorized exit counts agree in law with honest bundle counts
        honest = np.zeros(9, dtype=float)
        n = 2500
        for j in range(n):
            bundle = sample_adelic_path(ZERO_TAIL_50, B, 1.0, AdelicPoint.zero(), 15,
                                        RngStream(506).child(j), resolution=0)
            honest[min(bundle.exit_count(), 8)] += 1
        honest /= n
        fast = np.bincount(
            exit_count_samples(ZERO_TAIL_50, B, 1.0, 15, 30_000, seed=507),
            minlength=9,
        )[:9] / 30_000
        tv = 0.5 * float(np.sum(np.abs(honest - fast)))
        assert tv < 0.03

    def test_interval_bounds_cover_tail(self):
        dist = exit_count_pmf(SIG, B, 1.0, 8, 5)
        for k in range(6):
            assert dist.lo[k] <= dist.pmf[k] <= dist.hi[k]
            assert dist.hi[k] - dist.lo[k] <= 2 * dist.tail_exit_bound + 1e-12


class TestAdelicPoint:
    def test_component_access(self):
        x = AdelicPoint.of({2: PAdicScalar.from_int(5, 2)})
        assert x.component(2) is not None
        assert x.component(3) is None
        assert x.max_active_index() == 1

    def test_resolved_zeros(self):
        x = AdelicPoint.resolved_zeros(3, p3=PAdicScalar.from_int(2, 3))
        assert x.component(2).is_zero()
        assert not x.component(3).is_zero()
        assert x.component(5).is_zero()

    def test_duplicate_prime_rejected(self):
        with pytest.raises(ValueError):
            AdelicPoint(((2, PAdicScalar.zero(2)), (2, PAdicScalar.zero(2))))

    def test_agrees_with_tristate(self):
        one2 = PAdicScalar.from_int(1, 2)
        big2 = PAdicScalar(2, -3, 1, 8)  # |x| = 8, outside Z_2
        a = AdelicPoint.of({2: one2})
        b = AdelicPoint.of({2: one2})
        c = AdelicPoint.of({2: PAdicScalar.from_int(3, 2)})
        assert a.agrees_with(b) is True
        assert a.agrees_with(c) is False
        # resolved outside Z_2 vs unresolved-in-Z_2: definite difference
        assert AdelicPoint.of({2: big2}).agrees_with(AdelicPoint.zero()) is False
        # resolved inside Z_2 vs unresolved: indeterminate
        assert a.agrees_with(AdelicPoint.zero()) is None
        assert AdelicPoint.zero().agrees_with(AdelicPoint.zero()) is True
