"""Feynman-Kac estimators: action integrals, expectations, kernels, checks."""

import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from adelic_diffusion import (
    AdelicPoint,
    Ball,
    ConfigError,
    FKRequest,
    KernelParams,
    PAdicScalar,
    PrecisionError,
    ResolutionError,
    RngStream,
    SBFunction,
    SigmaSequence,
    SimpleAdelicSB,
    SimplePotential,
    action_integral,
    adelic_vladimirov_apply,
    ball_mass,
    density,
    density_center,
    eval_sb,
    fk_expectation,
    fk_expectation_pair,
    fk_kernel,
    free_propagate,
    sample_event_path,
)
from adelic_diffusion.primes import prime_at

from adelic_diffusion.feynman_kac import _factor_convolution
from conftest import (
    generator_check,
    occupation_series,
    semigroup_check_mc,
    semigroup_compose_free,
    semigroup_reference,
)

SIG = SigmaSequence.inverse_square()
KP2 = KernelParams(2, 1.0, SIG.sigma(1))
B = 1.0
OM = SimpleAdelicSB.vacuum()
V0 = SimplePotential.zero()
VPOT = SimplePotential.of({2: (0.7, SBFunction.vacuum(2))})
# 1_{B_-2(1)} + 2 * 1_{B_-1(4)} at 3 from x_3 = 0: both balls lie on the unit
# sphere, so a path landing there is in each ball on a share of the sphere
X3 = AdelicPoint.of({3: PAdicScalar.zero(3)})
ON_SPHERE3 = SimpleAdelicSB.of({3: SBFunction(3, (
    (Ball(PAdicScalar.from_int(1, 3), -2), 1.0 + 0j),
    (Ball(PAdicScalar.from_int(4, 3), -1), 2.0 + 0j),
))})


class TestActionIntegral:
    def test_zero_potential(self):
        path = sample_event_path(KP2, PAdicScalar.zero(2), 1.0, 0, RngStream(700))
        assert action_integral(path, V0, 1.0) == 0.0

    def test_constant_on_confined_path(self):
        # potential c * indicator(Z_2): a path that never leaves gives c * t
        gen = RngStream(701).generator()
        pot = SimplePotential.of({2: (2.5, SBFunction.vacuum(2))})
        while True:
            path = sample_event_path(KP2, PAdicScalar.zero(2), 1.0, 0, gen)
            if not path.events:
                break
        assert action_integral(path, pot, 1.0) == pytest.approx(2.5, rel=1e-14)

    def test_resolution_guard(self):
        pot = SimplePotential.of({
            2: (1.0, SBFunction.indicator(Ball(PAdicScalar.zero(2), -2), 1.0))
        })
        path = sample_event_path(KP2, PAdicScalar.zero(2), 1.0, 0, RngStream(702))
        with pytest.raises(ResolutionError):
            action_integral(path, pot, 1.0)


class TestFreePropagate:
    def test_vacuum_product_with_tail(self):
        fp = free_propagate(SIG, B, 1.0, OM, AdelicPoint.zero(), 5)
        manual = 1.0
        for i in range(1, 6):
            manual *= ball_mass(SIG.kernel_params(i, B), 1.0, 0)
        assert fp.value.real == pytest.approx(manual, rel=1e-13)
        assert fp.tail_lo_mult >= math.exp(-SIG.sigma_total_upper())

    def test_dirac_limit_recovers_observable(self):
        f2 = SBFunction.indicator(Ball(PAdicScalar.zero(2), 0), 1.0)
        alpha_f = SimpleAdelicSB.of({2: f2})
        x = AdelicPoint.resolved_zeros(1)
        fp = free_propagate(SIG, B, 1e-8, alpha_f, x, 1)
        assert fp.value.real == pytest.approx(1.0, abs=1e-6)

    def test_single_prime_reduction(self):
        sig1 = SigmaSequence(explicit=(1.0,))
        fp = free_propagate(sig1, B, 1.0, OM, AdelicPoint.resolved_zeros(1), 1)
        assert fp.value.real == pytest.approx(
            ball_mass(KernelParams(2, 1.0, 1.0), 1.0, 0), rel=1e-14
        )

    def test_shifted_point_uses_density(self):
        sig1 = SigmaSequence(explicit=(1.0,))
        x = AdelicPoint.of({2: PAdicScalar.from_rational(Fraction(1, 4), 2)})
        fp = free_propagate(sig1, B, 1.0, OM, x, 1)
        assert fp.value.real == pytest.approx(
            density(KernelParams(2, 1.0, 1.0), 1.0, 2), rel=1e-13
        )


class TestFkExpectation:
    def test_free_reduction_within_3se(self, run_chunks_calls):
        # first: the factor at 2 is sampled, the vacuum primes 3..11 fold
        # exactly; second: paths on the unit sphere at 3 take its Haar shares
        at_2 = SimpleAdelicSB.of({2: SBFunction.indicator(Ball(PAdicScalar.zero(2), -1))})
        cases = ((AdelicPoint.resolved_zeros(1), at_2, 1.0, 5, 30_000, 704),
                 (X3, ON_SPHERE3, 1.5, 2, 100_000, 77))
        for x, alpha_f, t, N, n, seed in cases:
            est = fk_expectation(FKRequest(SIG, B, t, x, alpha_f, V0, n, N, seed=seed))
            fp = free_propagate(SIG, B, t, alpha_f, x, N)
            assert abs(est.value.real - fp.value.real) <= 3 * est.std_error
        assert len(run_chunks_calls) == len(cases)

    def test_collision_sphere_takes_haar_share(self):
        from adelic_diffusion.feynman_kac import _compile_exact, _endpoint_factor

        req = FKRequest(SIG, B, 1.5, X3, ON_SPHERE3, V0, 1, 2, seed=1)
        _, (plan,) = _compile_exact(req)
        values = _endpoint_factor(plan, RngStream(731).generator(), 20_000)
        m = plan.law.sample_exponents(RngStream(731).generator(), 20_000)
        # the balls are unions of classes mod 9: average over the six unit classes
        units = [PAdicScalar.from_int(u, 3) for u in range(9) if u % 3]
        share = sum(eval_sb(plan.alpha_f, plan.start + u) for u in units) / len(units)
        assert share == pytest.approx(1 / 6 + 2 * (3 / 6), rel=1e-15)
        assert (m == 0).sum() > 100
        assert values[m == 0] == pytest.approx(share, rel=1e-14)
        assert not values[m != 0].any()

    def test_damping_below_free(self):
        strong = SimplePotential.of({2: (8.0, SBFunction.vacuum(2))})
        req = FKRequest(SIG, B, 1.0, AdelicPoint.zero(), OM, strong, 4000, 2, seed=705)
        est = fk_expectation(req)
        fp = free_propagate(SIG, B, 1.0, OM, AdelicPoint.zero(), 2)
        assert est.value.real < fp.value.real

    def test_contraction(self):
        req = FKRequest(SIG, B, 1.0, AdelicPoint.zero(), OM, VPOT, 4000, 3, seed=706)
        est = fk_expectation(req)
        assert abs(est.value) <= 1.0 + 3 * est.std_error

    def test_pair_shares_paths(self):
        req = FKRequest(SIG, B, 1.0, AdelicPoint.zero(), OM, VPOT, 4000, 2, seed=707)
        damped, plain, corr_se = fk_expectation_pair(req)
        # the only sampled prime runs event paths: its free factor is exact, so
        # the correction's SE is the damped estimate's
        assert plain.std_error == 0.0
        assert corr_se == pytest.approx(damped.std_error)
        assert damped.value.real <= plain.value.real

    def test_worker_invariance(self, run_chunks_calls):
        x = AdelicPoint.resolved_zeros(1)
        alpha_f = SimpleAdelicSB.of({2: SBFunction.indicator(Ball(PAdicScalar.zero(2), -1))})
        vals = []
        for w in (1, 4, 8):
            req = FKRequest(SIG, B, 1.0, x, alpha_f, V0, 10_000, 4,
                            seed=708, workers=w, chunk_size=1024)
            vals.append(fk_expectation(req))
        assert len(run_chunks_calls) == 3
        assert vals[0].value == vals[1].value == vals[2].value
        assert vals[0].std_error == vals[1].std_error == vals[2].std_error

    def test_unresolved_start_under_observable_fails_before_sampling(self, monkeypatch):
        from adelic_diffusion import feynman_kac

        def no_sampling(*args):
            raise AssertionError("sampling started")

        monkeypatch.setattr(feynman_kac, "_run_chunks", no_sampling)
        ball = Ball(PAdicScalar.from_int(1, 3), -1)
        alpha_f = SimpleAdelicSB.of({3: SBFunction.indicator(ball, 1.0)})
        req = FKRequest(SIG, B, 1.0, AdelicPoint.zero(), alpha_f, V0, 10**6, 4, seed=720)
        with pytest.raises(PrecisionError, match="needs a resolved point"):
            fk_expectation(req)

    def test_one_law_build_per_prime_per_request(self):
        # past the law cache's 512 entries, a per-chunk lookup would rebuild
        # every sampled prime's law in each of the 4 chunks
        from adelic_diffusion.heat_kernel import cached_radial_law

        n_primes = 600
        alpha_f = SimpleAdelicSB.of({
            prime_at(i): SBFunction.indicator(Ball(PAdicScalar.zero(prime_at(i)), -1))
            for i in range(1, n_primes + 1)
        })
        cached_radial_law.cache_clear()
        req = FKRequest(SIG, B, 1.0, AdelicPoint.resolved_zeros(n_primes), alpha_f, V0,
                        4 * 64, n_primes, seed=721, chunk_size=64)
        fk_expectation(req)
        assert cached_radial_law.cache_info().misses == n_primes
        # vacuum, potential-free primes fold into an exact factor: no law at all
        cached_radial_law.cache_clear()
        fk_expectation(replace(req, x=AdelicPoint.zero(), alpha=OM))
        assert cached_radial_law.cache_info().misses == 0

    def test_vacuum_request_is_free_propagation(self, monkeypatch):
        from adelic_diffusion import feynman_kac

        def no_sampling(*args):
            raise AssertionError("sampling started")

        monkeypatch.setattr(feynman_kac, "_run_chunks", no_sampling)
        x = AdelicPoint.of({2: PAdicScalar.from_rational(Fraction(1, 2), 2)})
        req = FKRequest(SIG, B, 1.0, x, OM, V0, 10_000, 6, seed=724, workers=2)
        damped, plain, corr_se = fk_expectation_pair(req)
        fp = free_propagate(SIG, B, 1.0, OM, x, 6)
        assert damped.value == plain.value == fp.value
        assert damped.std_error == plain.std_error == corr_se == 0.0

    def test_sampled_draws_ignore_folded_primes(self):
        x = AdelicPoint.resolved_zeros(3)
        alpha_f = SimpleAdelicSB.of({
            2: SBFunction.indicator(Ball(PAdicScalar.zero(2), -1)),
            3: SBFunction.indicator(Ball(PAdicScalar.from_int(1, 3), 0), 0.5 - 0.5j),
            5: SBFunction.indicator(Ball(PAdicScalar.zero(5), -2)),
        })
        short = fk_expectation(FKRequest(SIG, B, 1.0, x, alpha_f, V0, 3000, 3, seed=725))
        long = fk_expectation(FKRequest(SIG, B, 1.0, x, alpha_f, V0, 3000, 12, seed=725))
        # the nine folded vacuum factors at primes 7..37
        folded = (free_propagate(SIG, B, 1.0, OM, x, 12).value
                  / free_propagate(SIG, B, 1.0, OM, x, 3).value).real
        assert short.std_error > 0
        assert long.value == pytest.approx(short.value * folded, rel=1e-14)
        assert long.std_error == pytest.approx(short.std_error * folded, rel=1e-14)

    def test_worker_invariance_while_sampling(self):
        x = AdelicPoint.resolved_zeros(2)
        alpha_f = SimpleAdelicSB.of({2: SBFunction.indicator(Ball(PAdicScalar.zero(2), -1))})
        pot = SimplePotential.of({3: (0.8, SBFunction.indicator(Ball(PAdicScalar.zero(3), -1)))})
        ests = [fk_expectation_pair(FKRequest(SIG, B, 1.0, x, alpha_f, pot, 3000, 5,
                                              seed=726, workers=w, chunk_size=512))
                for w in (1, 4, 8)]
        assert ests[0][0].std_error > 0
        assert ests[0] == ests[1] == ests[2]

    def test_adelic_cli_shaped_request(self):
        # N = 666 with an observable at 2, 3 and 5 around a resolved unit point;
        # B_0(x_5) is Z_5, so only 2 and 3 are sampled
        units = {2: PAdicScalar.from_int(1, 2), 3: PAdicScalar.from_int(2, 3),
                 5: PAdicScalar.from_int(3, 5)}
        alpha_f = SimpleAdelicSB.of({
            p: SBFunction.indicator(Ball(u, -1 if p < 5 else 0)) for p, u in units.items()
        })
        x = AdelicPoint.of(units)
        est = fk_expectation(FKRequest(SIG, B, 1.0, x, alpha_f, V0, 20_000, 666, seed=727))
        fp = free_propagate(SIG, B, 1.0, alpha_f, x, 666)
        assert est.std_error > 0
        assert abs(est.value - fp.value) <= 4 * est.std_error

    def test_chunk_size_below_one_rejected(self):
        # a zero chunk would never advance the chunk loop
        with pytest.raises(ConfigError, match="chunk_size"):
            FKRequest(SIG, B, 1.0, AdelicPoint.zero(), OM, V0, 10, 2, seed=1, chunk_size=0)

    def test_workers_below_one_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            FKRequest(SIG, B, 1.0, AdelicPoint.zero(), OM, V0, 10, 2, seed=1, workers=0)

    def test_truncation_must_cover_actives(self):
        x = AdelicPoint.of({5: PAdicScalar.from_int(1, 5)})
        with pytest.raises(ConfigError, match="truncation must cover"):
            FKRequest(SIG, B, 1.0, x, OM, V0, 10, 2, seed=1)

    def test_bridge_steps_below_two_rejected(self):
        # one step leaves no interior epoch: a deterministic trapezoid with SE 0
        with pytest.raises(ConfigError, match="bridge_steps"):
            FKRequest(SIG, B, 1.0, AdelicPoint.zero(), OM, V0, 10, 2, seed=1, bridge_steps=1)

    def test_pool_failure_warns_and_matches_serial(self, monkeypatch):
        from adelic_diffusion import feynman_kac

        def no_pool(*args, **kwargs):
            raise OSError("no process pool here")

        req = FKRequest(SIG, B, 1.0, AdelicPoint.zero(), OM, VPOT, 2000, 2, seed=722,
                        chunk_size=500)
        serial = fk_expectation(req)
        monkeypatch.setattr(feynman_kac, "ProcessPoolExecutor", no_pool)
        with pytest.warns(RuntimeWarning, match="no process pool here"):
            pooled = fk_expectation(replace(req, workers=2))
        assert pooled.value == serial.value
        assert pooled.std_error == serial.std_error

    def test_coarse_centre_under_potential_fails_before_sampling(self, monkeypatch):
        # 1_{B_-2(c)} with c known mod 3 only: membership of a path ending in
        # 1 + 3Z_3 reads c's unknown second digit, so a prime carrying a
        # potential must reject the ball for every seed and path count
        from adelic_diffusion import feynman_kac

        def no_sampling(*args):
            raise AssertionError("sampling started")

        monkeypatch.setattr(feynman_kac, "_run_chunks", no_sampling)
        coarse = Ball(PAdicScalar.from_digits(3, 0, [1]), -2)
        alpha_f = SimpleAdelicSB.of({3: SBFunction.indicator(coarse)})
        pot = SimplePotential.of({3: (0.5, SBFunction.vacuum(3))})
        for seed in (1, 2, 3, 4):
            for n in (10, 2000):
                req = FKRequest(SIG, B, 1.5, X3, alpha_f, pot, n, 2, seed=seed)
                with pytest.raises(PrecisionError, match="ball centre .* known mod p\\^1"):
                    fk_expectation(req)
        # the same for a start known mod 3 under a finer ball: without the check,
        # seeds 1 and 4 returned 0.0 at t = 40 and seeds 2 and 3 raised
        fine = SimpleAdelicSB.of({3: SBFunction.indicator(Ball(PAdicScalar.from_int(1, 3), -2))})
        x = AdelicPoint.of({3: PAdicScalar.from_digits(3, 0, [1])})
        for seed in (1, 2, 3, 4):
            req = FKRequest(SIG, B, 40.0, x, fine, pot, 10, 2, seed=seed)
            with pytest.raises(PrecisionError, match="start .* known mod p\\^1"):
                fk_expectation(req)
        # a potential canonicalizes its balls, so it rejects the same ball when
        # built, and kernel mode (which takes no observable) never meets one
        with pytest.raises(PrecisionError, match="known too coarsely"):
            SimplePotential.of({3: (0.5, SBFunction.indicator(coarse))})

    def test_coarse_centre_at_potential_free_prime_takes_haar_share(self):
        # no potential at 3: the endpoint factor reads only the radius, never c's digits
        coarse = Ball(PAdicScalar.from_digits(3, 0, [1]), -2)
        alpha_f = SimpleAdelicSB.of({3: SBFunction.indicator(coarse)})
        est = fk_expectation(FKRequest(SIG, B, 1.5, X3, alpha_f, V0, 2000, 2, seed=3))
        assert est.std_error > 0
        assert 0 < est.value.real < 1

    def test_unresolved_non_vacuum_factor_is_one_rule(self):
        ball = Ball(PAdicScalar.from_int(1, 3), -1)
        alpha_f = SimpleAdelicSB.of({3: SBFunction.indicator(ball, 1.0)})
        pot = SimplePotential.of({3: (5.0, SBFunction.indicator(ball))})
        x = AdelicPoint.zero()
        # kernel mode: x_3 unresolved, y_3 = 1/3 outside Z_3, so |x_3 - y_3| is known
        x2 = AdelicPoint.resolved_zeros(1)
        y = AdelicPoint.of({2: PAdicScalar.zero(2),
                            3: PAdicScalar.from_rational(Fraction(1, 3), 3)})
        calls = (
            lambda: alpha_f.eval(x),
            lambda: free_propagate(SIG, B, 1.0, alpha_f, x, 4),
            lambda: fk_expectation(FKRequest(SIG, B, 1.0, x, alpha_f, V0, 10, 4, seed=723)),
            lambda: adelic_vladimirov_apply(SIG, B, alpha_f, x, 4),
            lambda: fk_expectation(FKRequest(SIG, B, 1.0, x, OM, pot, 10, 4, seed=723)),
            lambda: fk_kernel(FKRequest(SIG, B, 1.0, x2, OM, pot, 10, 2, seed=723, y=y)),
        )
        for call in calls:
            with pytest.raises(PrecisionError,
                               match="non-vacuum factor at prime 3 needs a resolved point"):
                call()


# Draws pinned from the PAdicScalar event-path engine (sample_event_path,
# _path_action and eval_sb per path) at fixed seeds: the window-integer engine
# must reproduce its raw draws, and the estimate without the controls, to the
# last digit.  The estimates are pinned with f_p(X_t) and the action as control
# variates at every event-path prime, their means from `lumped.event_means`.
X2 = PAdicScalar.from_rational(Fraction(5, 4), 2)
PINNED_POT = SimplePotential.of({
    3: (1.0, SBFunction(3, ((Ball(PAdicScalar.from_int(1, 3), -1), 1.0 + 0j),
                            (Ball(PAdicScalar.from_int(1, 3), 0), 0.25 + 0j)))),
    2: (0.5, SBFunction(2, ((Ball(X2, -2), 1.0 + 0j),
                            (Ball(PAdicScalar.from_int(3, 2), 1), 0.5 + 0j)))),
})
PINNED_ALPHA = SimpleAdelicSB.of({
    3: SBFunction(3, ((Ball(PAdicScalar.from_int(4, 3), -1), 0.5 - 0.25j),
                      (Ball(PAdicScalar.zero(3), 0), 1.0 + 0.5j))),
    2: SBFunction(2, ((Ball(X2, -1), 1.0 + 0j),)),
    5: SBFunction(5, ((Ball(PAdicScalar.zero(5), -1), 2.0 + 0j),)),
})
PINNED_X = AdelicPoint.of({2: X2, 3: PAdicScalar.zero(3), 5: PAdicScalar.zero(5)})


def _uncontrolled(req, plans):
    """The chunk columns of a request's plans, with each event plan's column
    the uncontrolled W = P e^{-A_p}, from that plan's raw draws."""
    from adelic_diffusion.feynman_kac import _raw_event_draws, _run_chunks

    columns = _run_chunks(req, plans)
    for col, plan in enumerate(plans):
        if plan.control is not None:
            ends, actions = _raw_event_draws(req, plan)
            columns[:, col] = ends * np.exp(-actions)
    return columns


class TestPinnedEventValues:
    def test_expectation_and_pair_at_every_worker_count(self):
        from adelic_diffusion.feynman_kac import _compile_exact, _estimate, _product_mean_se

        req = FKRequest(SIG, B, 1.5, PINNED_X, PINNED_ALPHA, PINNED_POT, 3000, 4, seed=1801,
                        chunk_size=1000)
        folded, plans = _compile_exact(req)
        raw = _uncontrolled(req, plans)
        assert repr(_estimate(req, folded, *_product_mean_se(raw))) == (
            'FKEstimate(value=(0.3307950767501668+0.15657301365094206j), '
            'std_error=0.006973883758268751, n_paths=3000, tail_certificate=0.9573632836247958, '
            'density_factor=None, bridge_factor=None)')
        assert repr(fk_expectation(req)) == (
            'FKEstimate(value=(0.3217965315994809+0.15148696720006685j), '
            'std_error=0.003717104250075044, n_paths=3000, tail_certificate=0.9573632836247958, '
            'density_factor=None, bridge_factor=None)')
        for w in (1, 2, 4):
            assert repr(fk_expectation_pair(replace(req, workers=w))) == (
                '(FKEstimate(value=(0.3217965315994809+0.15148696720006685j), '
                'std_error=0.003717104250075044, n_paths=3000, '
                'tail_certificate=0.9573632836247958, density_factor=None, bridge_factor=None), '
                'FKEstimate(value=(0.8985132552532863+0.40457709111687273j), '
                'std_error=0.009323835788269293, n_paths=3000, tail_certificate=0.9573632836247958, '
                'density_factor=None, bridge_factor=None), 0.0061647178908709604)')

    def test_generator_check(self):
        rep = generator_check(SIG, B, OM, VPOT, AdelicPoint.resolved_zeros(1), [1e-1, 1e-2],
                              n_paths=3000, N=3, seed=1802)
        assert repr(rep) == (
            'GeneratorReport(ts=(0.1, 0.01), finite_differences=(-0.9352466225791012, '
            '-0.9784551840544498), target=-0.9833333333333333, errors=(0.0480867107542321, '
            '0.004878149278883526), orders=(0.9937699850495092,), mc_ses=(0.0007614263512780377, '
            '0.00031444074839623564))')
        rep = generator_check(SIG, B, PINNED_ALPHA, PINNED_POT, PINNED_X, [0.5, 0.25],
                              n_paths=1500, N=4, seed=1803)
        assert repr(rep) == (
            'GeneratorReport(ts=(0.5, 0.25), finite_differences=(-1.8986558984632658, '
            '-2.2341953139617754), target=-2.619047619047619, errors=(0.7203917205843533, '
            '0.38485230508584367), orders=(0.9044767121375987,), mc_ses=(0.00856137049620847, '
            '0.007280438259592994))')

    def test_semigroup_check_mc(self):
        rep = semigroup_check_mc(SIG, B, 0.5, 0.5, PINNED_ALPHA, PINNED_POT, PINNED_X, 4,
                                 n=400, seed=1804)
        assert repr(rep) == (
            'SemigroupReport(s=0.5, t=0.5, direct=0.5847161242596413, '
            'composed=0.6877331410127788, combined_se=0.07266281966539154)')


# Kernel values pinned from the event-chain bridge engine (the trapezoid
# grid's streams and values were retired with it), folded ones from the
# two-pipeline estimators; the one pipeline must reproduce them to the last digit.
KERNEL_X = AdelicPoint.resolved_zeros(3)
KERNEL_Y = AdelicPoint.resolved_zeros(3, p2=PAdicScalar.from_int(1, 2),
                                      p3=PAdicScalar.from_rational(Fraction(2, 3), 3))
KERNEL_POT = SimplePotential.of({  # bridge slots 0 and 1
    2: (0.6, SBFunction.indicator(Ball(PAdicScalar.zero(2), 0))),
    3: (0.5, SBFunction(3, ((Ball(PAdicScalar.zero(3), -1), 1.0 + 0j),
                            (Ball(PAdicScalar.from_int(1, 3), 0), 0.25 + 0j)))),
})


class TestPinnedKernelAndFoldedValues:
    def test_kernel_both_ways_at_every_worker_count(self):
        # 700 paths in chunks of 300: two full chunks and a short one
        req = FKRequest(SIG, B, 1.0, KERNEL_X, OM, KERNEL_POT, 700, 3, seed=1901, y=KERNEL_Y,
                        chunk_size=300)
        for w in (1, 4):
            assert repr(fk_kernel(replace(req, workers=w))) == (
                'FKEstimate(value=(0.0322310744772457+0j), std_error=4.326798686135183e-05, '
                'n_paths=700, tail_certificate=0.9541776794342406, '
                'density_factor=0.07750939183400865, bridge_factor=0.41583443908669315)')
            assert repr(fk_kernel(replace(req, x=KERNEL_Y, y=KERNEL_X, seed=1902, workers=w))) == (
                'FKEstimate(value=(0.03218831179459432+0j), std_error=4.193911677099702e-05, '
                'n_paths=700, tail_certificate=0.9541776794342406, '
                'density_factor=0.07750939183400865, bridge_factor=0.4152827293952668)')
        assert repr(fk_kernel(replace(req, v=V0))) == (
            'FKEstimate(value=(0.07750939183400865+0j), std_error=0.0, n_paths=700, '
            'tail_certificate=0.9541776794342406, density_factor=0.07750939183400865, '
            'bridge_factor=1.0)')

    def test_all_folded_pair(self):
        x = AdelicPoint.of({2: PAdicScalar.from_rational(Fraction(1, 2), 2)})
        req = FKRequest(SIG, B, 1.0, x, OM, V0, 500, 6, seed=1903)
        exact = ('FKEstimate(value=(0.0613838737862764+0j), std_error=0.0, n_paths=500, '
                 'tail_certificate=0.9841489984914149, density_factor=None, bridge_factor=None)')
        assert repr(fk_expectation_pair(req)) == f'({exact}, {exact}, 0.0)'
        assert repr(fk_expectation(req)) == exact


class TestProductReduction:
    """Estimates are products of independent per-prime means."""

    # observables at 2 and 3 from x = 0; the one at 3 has a ball on the unit sphere
    F2 = SBFunction.indicator(Ball(PAdicScalar.zero(2), -1))
    F3 = SBFunction(3, ((Ball(PAdicScalar.zero(3), -1), 1.0 + 0j),
                        (Ball(PAdicScalar.from_int(1, 3), -1), 2.0 + 0j)))

    def test_one_column_is_mean_se(self):
        from adelic_diffusion.feynman_kac import _product_mean_se

        def mean_se(values):  # the per-path reduction before per-prime means
            n = len(values)
            mean = complex(np.mean(values))
            if n < 2:
                return mean, float("inf")
            var = float(np.var(values.real, ddof=1) + np.var(values.imag, ddof=1))
            return mean, math.sqrt(var / n)

        gen = np.random.default_rng(16_000)
        columns = [
            gen.random(997) + 1j * gen.standard_normal(997),
            np.where(gen.random(500) < 0.3, gen.exponential(size=500), 0.0).astype(complex),
            np.full(40, complex(-0.0, -0.0)),
            np.full(40, complex(-0.0, 0.0)),
            np.array([complex(-0.0, -0.0)]),
            np.array([0.25 - 0.5j]),
        ]
        for col in columns:
            got, ref = _product_mean_se(col[:, None]), mean_se(col)
            assert repr((got[0].real, got[0].imag, got[1])) == \
                repr((ref[0].real, ref[0].imag, ref[1]))

    def test_product_se_not_above_joint_on_same_columns(self):
        from adelic_diffusion.feynman_kac import (
            _chunk,
            _compile_exact,
            _product_mean_se,
            _raw_event_draws,
        )

        pot = SimplePotential.of({2: (0.8, SBFunction.indicator(Ball(PAdicScalar.zero(2), -1)))})
        x = AdelicPoint.resolved_zeros(3)
        alpha_f = SimpleAdelicSB.of({2: self.F2, 3: self.F3, 5: SBFunction.indicator(
            Ball(PAdicScalar.zero(5), -1))})
        req = FKRequest(SIG, B, 2.0, x, alpha_f, pot, 4000, 3, seed=16_050)
        _, plans = _compile_exact(req)
        assert len(plans) == 3  # no prime folds
        data = _chunk(req, plans, 0, req.n_paths)
        assert data.shape == (req.n_paths, 3) and plans[0].control is not None
        # the event path at 2, uncontrolled: damped W = P e^{-A_p}, and plain P
        ends, actions = _raw_event_draws(req, plans[0])
        weighted, plain = data.copy(), data.copy()
        weighted[:, 0], plain[:, 0] = ends * np.exp(-actions), ends
        for columns in (weighted, plain):  # all >= 0 and real
            assert (columns.real >= 0).all() and not columns.imag.any()
            _, product_se = _product_mean_se(columns)
            _, joint_se = _product_mean_se(np.prod(columns, axis=1, keepdims=True))
            assert 0 < product_se <= joint_se

    def test_calibrated_against_free_propagation(self):
        x = AdelicPoint.resolved_zeros(2)
        alpha_f = SimpleAdelicSB.of({2: self.F2, 3: self.F3})
        exact = free_propagate(SIG, B, 2.0, alpha_f, x, 2).value.real
        z = []
        for k in range(200):
            est = fk_expectation(FKRequest(SIG, B, 2.0, x, alpha_f, V0, 400, 2,
                                           seed=16_300 + k))
            z.append((est.value.real - exact) / est.std_error)
        assert 0.85 <= np.std(z, ddof=1) <= 1.15
        assert abs(np.mean(z)) <= 0.25

    def test_correction_se_with_two_potential_primes(self):
        pot = SimplePotential.of({
            2: (0.8, SBFunction.indicator(Ball(PAdicScalar.zero(2), -1))),
            3: (0.6, SBFunction.indicator(Ball(PAdicScalar.zero(3), -1))),
        })
        x = AdelicPoint.resolved_zeros(2)
        alpha_f = SimpleAdelicSB.of({2: self.F2})
        corrections, ses = [], []
        for k in range(100):
            damped, plain, corr_se = fk_expectation_pair(
                FKRequest(SIG, B, 1.0, x, alpha_f, pot, 200, 2, seed=16_100 + k))
            corrections.append(plain.value.real - damped.value.real)
            ses.append(corr_se)
        assert 0.8 <= np.std(corrections, ddof=1) / np.mean(ses) <= 1.2


def _raw_event_z(t, n, seed):
    """(P_bar - F_p)/SE for the real and the imaginary part, and (A_bar - a_p)/SE,
    from the raw draws of TestEventControl's request, against the
    heat-kernel series: _factor_convolution and occupation_series."""
    req = FKRequest(SIG, B, t, TestEventControl.X, TestEventControl.ALPHA3,
                    TestEventControl.POT3, n, 2, seed=seed)
    plan, ends, actions = TestEventControl.raw(req)
    free = _factor_convolution(plan.params, t, plan.alpha_f, plan.start)
    tau, f = plan.v_term
    action = tau * occupation_series(plan.params, t, plan.start, f.terms)
    return tuple((np.mean(col) - ref) / math.sqrt(np.var(col, ddof=1) / n) for col, ref in (
        (ends.real, free.real), (ends.imag, free.imag), (actions, action)))


@lru_cache(maxsize=1)
def _raw_event_z_batch():
    return np.array([_raw_event_z(2.0, 400, 24_100 + k) for k in range(200)])


class TestEventControl:
    """f_p(X_t) and the action A_p as control variates at event-path primes."""

    # a two-term potential at 3 (1 on B_-1(1) inside 0.25 on B_0(1)) and a
    # complex observable there, from x_3 = 0; prime 2 folds
    POT3 = SimplePotential.of({3: PINNED_POT.component(3)})
    ALPHA3 = SimpleAdelicSB.of({3: PINNED_ALPHA.factor(3)})
    X = AdelicPoint.resolved_zeros(2)

    @staticmethod
    def raw(req):
        """The one event plan of an exact-mode request and its raw draws P and A_p."""
        from adelic_diffusion.feynman_kac import _compile_exact, _raw_event_draws

        _, (plan,) = _compile_exact(req)
        return plan, *_raw_event_draws(req, plan)

    def test_end_law_calibrated_against_free_factor(self):
        for part in _raw_event_z_batch().T[:2]:
            assert 0.85 <= np.std(part, ddof=1) <= 1.15
            assert abs(np.mean(part)) <= 0.25

    def test_occupation_calibrated_against_series(self):
        z = _raw_event_z_batch()[:, 2]
        assert 0.85 <= np.std(z, ddof=1) <= 1.15
        assert abs(np.mean(z)) <= 0.25

    def test_end_law_catches_alpha_bug(self, monkeypatch):
        import adelic_diffusion.heat_kernel as hk

        from adelic_diffusion.feynman_kac import _factor_convolution, _mean_var

        req = FKRequest(SIG, B, 2.0, self.X, self.ALPHA3, self.POT3, 64_000, 2, seed=24_001)
        alpha = hk.alpha
        monkeypatch.setattr(hk, "alpha", lambda params: 1.15 * alpha(params))
        plan, ends, _ = self.raw(req)
        mean, var = _mean_var(ends)
        assert abs(mean - _factor_convolution(plan.params, req.t, plan.alpha_f, plan.start)) \
            > 6 * math.sqrt(var)

    def test_occupation_catches_alpha_bug(self, monkeypatch):
        import adelic_diffusion.heat_kernel as hk

        from adelic_diffusion.feynman_kac import _mean_var

        # time spent in B_-2(0) from 0 at 2: about 6 % less at 1.15 times the exit rate
        ball = SBFunction.indicator(Ball(PAdicScalar.zero(2), -2))
        req = FKRequest(SIG, B, 2.0, AdelicPoint.resolved_zeros(1), OM,
                        SimplePotential.of({2: (1.0, ball)}), 16_000, 1, seed=25_001)
        alpha = hk.alpha
        monkeypatch.setattr(hk, "alpha", lambda params: 1.15 * alpha(params))
        plan, _, actions = self.raw(req)
        mean, var = _mean_var(actions)
        exact = occupation_series(plan.params, req.t, plan.start, ball.terms)
        assert abs(mean.real - exact) > 6 * math.sqrt(var)

    def test_control_algebra_on_raw_draws(self):
        from adelic_diffusion.feynman_kac import (
            _chunk_counts,
            _compile_exact,
            _endpoint_factor,
            _generator,
            _raw_event_draws,
            _run_chunks,
        )

        req = FKRequest(SIG, B, 1.5, PINNED_X, PINNED_ALPHA, PINNED_POT, 3000, 4, seed=1801,
                        chunk_size=1000)
        _, plans = _compile_exact(req)
        data = _run_chunks(req, plans)
        assert [plan.control is not None for plan in plans] == [True, True, False]
        assert data.shape == (3000, 3) and data.dtype == complex  # one column per plan
        for col, plan in enumerate(plans):
            if plan.control is None:  # the endpoint prime's column, chunk by chunk
                want = np.concatenate([_endpoint_factor(plan, _generator(req, plan, i), count)
                                       for i, count in _chunk_counts(req)])
            else:
                free, action = plan.control
                g = math.exp(-action)
                ends, actions = _raw_event_draws(req, plan)
                assert actions.dtype == float
                want = ends * np.exp(-actions) - g * ((ends - free) - free * (actions - action))
            assert (data[:, col] == want).all()

    @pytest.mark.parametrize("tau", [0.5, 5.0])
    def test_control_se_not_above_raw_for_an_indicator(self, tau):
        from adelic_diffusion.feynman_kac import _mean_var, _run_chunks

        pot = SimplePotential.of({2: (tau, SBFunction.indicator(Ball(PAdicScalar.zero(2), -1)))})
        alpha_f = SimpleAdelicSB.of({2: SBFunction.indicator(Ball(PAdicScalar.zero(2), 0))})
        req = FKRequest(SIG, B, 1.0, AdelicPoint.resolved_zeros(1), alpha_f, pot, 4000, 1,
                        seed=24_200)
        plan, ends, actions = self.raw(req)
        assert plan.control[1] == pytest.approx(
            tau * occupation_series(plan.params, 1.0, plan.start, plan.v_term[1].terms), rel=1e-10)
        controlled = _run_chunks(req, (plan,))
        assert 0 < _mean_var(controlled[:, 0])[1] <= _mean_var(ends * np.exp(-actions))[1]

    def test_calibrated_against_raw_on_disjoint_seeds(self):
        from adelic_diffusion.feynman_kac import _compile_exact, _product_mean_se

        # real factors, so the SEs are those of the real parts; 5 is an endpoint prime
        alpha_f = SimpleAdelicSB.of({
            3: SBFunction(3, ((Ball(PAdicScalar.from_int(4, 3), -1), 0.5 + 0j),
                              (Ball(PAdicScalar.zero(3), 0), 1.0 + 0j))),
            5: SBFunction.indicator(Ball(PAdicScalar.zero(5), -1)),
        })
        x = AdelicPoint.resolved_zeros(3)
        z = []
        for k in range(200):
            req = FKRequest(SIG, B, 1.0, x, alpha_f, self.POT3, 400, 3, seed=24_300 + k)
            new = fk_expectation(req)
            raw_req = replace(req, seed=24_600 + k)
            folded, plans = _compile_exact(raw_req)
            raw_mean, raw_se = _product_mean_se(_uncontrolled(raw_req, plans))
            z.append((new.value.real - folded * raw_mean.real)
                     / math.hypot(new.std_error, folded * raw_se))
        assert 0.85 <= np.std(z, ddof=1) <= 1.15
        assert abs(np.mean(z)) <= 0.25


# kernels the event-chain bridge once refused: lam t = 10,923 jumps a path at a
# ball of radius 2^-14, and t tau (sup v - inf v) = 5,000 at one of radius 2^-3
HARD_KERNELS = {"radius_2^-14": (-14, 1.0, 64), "tau_5000": (-3, 5000.0, 200)}


@lru_cache(maxsize=None)
def _hard_kernel(case):
    r, tau, n = HARD_KERNELS[case]
    pot = SimplePotential.of({2: (tau, SBFunction.indicator(Ball(PAdicScalar.zero(2), r)))})
    x = AdelicPoint.resolved_zeros(1)
    sigma = SigmaSequence(explicit=(1.0,))
    return pot, sigma, fk_kernel(FKRequest(sigma, B, 1.0, x, OM, pot, n, 1, seed=2740, y=x))


class TestKernels:
    X = AdelicPoint.resolved_zeros(2)
    Y = AdelicPoint.resolved_zeros(2, p2=PAdicScalar.from_int(1, 2))

    def test_free_kernel_is_density_product(self):
        req = FKRequest(SIG, B, 1.0, self.X, OM, V0, 10, 2, seed=710, y=self.Y)
        est = fk_kernel(req)
        expect = density(SIG.kernel_params(1, B), 1.0, 0) * density_center(
            SIG.kernel_params(2, B), 1.0
        )
        assert est.value.real == pytest.approx(expect, rel=1e-13)
        assert est.std_error == 0.0

    def test_kernel_bounded_by_density(self):
        req = FKRequest(SIG, B, 1.0, self.X, OM, VPOT, 1500, 2, seed=711, y=self.Y)
        est = fk_kernel(req)
        assert est.value.real <= est.density_factor + 3 * est.std_error

    @pytest.mark.parametrize("case", list(HARD_KERNELS))
    def test_many_jumps_and_deep_wells_stay_in_bounds(self, case):
        pot, _, est = _hard_kernel(case)
        tau, f = pot.component(2)
        low = est.density_factor * math.exp(-tau * sum(c.real for _, c in f.terms))
        assert math.isfinite(est.std_error)
        assert low <= est.value.real <= est.density_factor

    def test_worker_invariance(self, run_chunks_calls):
        pot23 = SimplePotential.of({
            2: (0.6, SBFunction.vacuum(2)),
            3: (0.5, SBFunction.indicator(Ball(PAdicScalar.zero(3), -1))),
        })
        req = FKRequest(SIG, B, 1.0, self.X, OM, pot23, 600, 2, seed=724, y=self.Y,
                        chunk_size=200)
        ests = [fk_kernel(replace(req, workers=w)) for w in (1, 4, 8)]
        # one call per worker count, each sampling bridges at both potential slots
        assert [tuple(plan.slot for plan in plans if plan.bridge) for plans in run_chunks_calls] \
            == [(0, 1)] * 3
        assert ests[0].std_error > 0
        assert ests[0] == ests[1] == ests[2]

    def test_dropped_vacuum_prime_in_density_range(self):
        # removing a v-free prime from the product changes the value by a
        # factor inside [density on S_0, density at 0]
        params3 = SIG.kernel_params(2, B)
        lo_f = density(params3, 1.0, 0)
        hi_f = density_center(params3, 1.0)
        req2 = FKRequest(SIG, B, 1.0, self.X, OM, V0, 10, 2, seed=713, y=self.X)
        full = fk_kernel(req2).value.real
        req1 = FKRequest(SIG, B, 1.0, AdelicPoint.resolved_zeros(1), OM, V0, 10, 1,
                         seed=714, y=AdelicPoint.resolved_zeros(1))
        dropped = fk_kernel(req1).value.real
        assert dropped * lo_f <= full <= dropped * hi_f

    def test_coarse_start_for_potential_ball_rejected(self):
        # x_3 is known to 2 digits, the ball's offset from it needs 5
        pot = SimplePotential.of({3: (0.5, SBFunction.indicator(
            Ball(PAdicScalar.from_int(1, 3, 24), -5)))})
        x = AdelicPoint.resolved_zeros(2, p3=PAdicScalar.from_digits(3, 0, [1, 2]))
        req = FKRequest(SIG, B, 1.0, x, OM, pot, 20, 2, seed=725, y=x)
        with pytest.raises(PrecisionError):
            fk_kernel(req)

    def test_unresolved_endpoint_rejected(self):
        req = FKRequest(SIG, B, 1.0, AdelicPoint.zero(), OM, V0, 10, 2, seed=715,
                        y=self.Y)
        with pytest.raises(PrecisionError):
            fk_kernel(req)


class TestSemigroup:
    def test_analytic_composition(self):
        for s, t in ((0.4, 0.6), (0.25, 0.5), (1.0, 1.0)):
            rep = semigroup_compose_free(SIG, B, s, t, OM, AdelicPoint.zero(), 4)
            assert rep.discrepancy < 1e-10

    def test_nested_mc(self):
        rep = semigroup_check_mc(SIG, B, 0.5, 0.5, OM, VPOT, AdelicPoint.zero(), 2,
                                 n=2500, seed=716)
        assert rep.within(3.0)

    def test_degenerate_identity(self):
        # s -> 0: pi_s pi_t -> pi_t; realized as the Dirac limit of the kernel
        fp_small = free_propagate(SIG, B, 1e-9, OM, AdelicPoint.zero(), 3)
        assert fp_small.value.real == pytest.approx(1.0, abs=1e-6)


class TestGenerator:
    def test_free_observable_order_one(self):
        rep = generator_check(SIG, B, OM, V0, AdelicPoint.zero(), [1e-1, 1e-2, 1e-3],
                              n_paths=1, N=6, seed=717)
        for order in rep.orders:
            assert 0.7 <= order <= 1.3

    def test_potential_term_order_one(self):
        rep = generator_check(SIG, B, OM, VPOT, AdelicPoint.resolved_zeros(1),
                              [1e-1, 1e-2, 1e-3], n_paths=150_000, N=6, seed=718)
        for order in rep.orders:
            assert 0.7 <= order <= 1.3

    def test_controlled_se_is_positive_where_no_path_returns(self):
        # with a vacuum potential and observable at 2, a path that leaves Z_2 and
        # never returns has f_p(X_t) = 0, but its action still varies with the exit time
        rep = generator_check(SIG, B, OM, VPOT, AdelicPoint.resolved_zeros(1), [0.1, 0.01],
                              n_paths=3000, N=3, seed=1802)
        assert all(se > 0 for se in rep.mc_ses)

    def test_observable_away_from_point(self):
        # alpha supported off x: finite density-driven limit, no blowup
        ball = Ball(PAdicScalar.from_rational(Fraction(1, 2), 2), -1)
        alpha_f = SimpleAdelicSB.of({2: SBFunction.indicator(ball, 1.0)})
        x = AdelicPoint.resolved_zeros(1)
        rep = generator_check(SIG, B, alpha_f, V0, x, [1e-1, 1e-2], n_paths=1,
                              N=3, seed=719)
        assert all(math.isfinite(fd) for fd in rep.finite_differences)
        assert abs(rep.finite_differences[-1] - rep.target) < 0.05


# -- kernel mode and expectation mode against the semigroup reference ----------

# the benchmark's kernel_bridge law: x = 0, |y_2| = 2 and units at 3 .. 13,
# potentials centred on x at 2, 3 and 5; the digits of y are fixed here
BENCH_SIG = SigmaSequence(explicit=(3.0, 4.0, 6.0), tail_coeff=1.0, tail_power=2.0)
BENCH_POT = SimplePotential.of({
    2: (1.0, SBFunction(2, ((Ball(PAdicScalar.zero(2), 0), 1.0 + 0j),
                            (Ball(PAdicScalar.zero(2), -1), 0.5 + 0j)))),
    3: (1.0, SBFunction.indicator(Ball(PAdicScalar.zero(3), 0))),
    5: (2.0, SBFunction.indicator(Ball(PAdicScalar.zero(5), -1))),
})
BENCH_X = AdelicPoint.resolved_zeros(6)
BENCH_Y = AdelicPoint.of({
    2: PAdicScalar.from_digits(2, -1, [1, 1, 0, 1, 0, 0, 1, 1]),
    3: PAdicScalar.from_digits(3, 0, [2, 0, 1, 1, 2, 0, 1, 2]),
    5: PAdicScalar.from_digits(5, 0, [3, 4, 0, 2, 1, 1, 0, 4]),
    7: PAdicScalar.from_digits(7, 0, [1, 6, 2]), 11: PAdicScalar.from_digits(11, 0, [5, 3]),
    13: PAdicScalar.from_digits(13, 0, [12, 1]),
})


def _reference_kernel(sigma, pot, x, y, t, n):
    """prod_p K^V_t(x_p, y_p) over primes 1..n: the semigroup reference where
    the potential has a term, with leaves finer than |y_p - x_p| (or 5 levels
    below its finest radius at x_p = y_p), the free density elsewhere."""
    value = 1.0
    for i in range(1, n + 1):
        p = prime_at(i)
        params = sigma.kernel_params(i, B)
        xp = x.component(p) or PAdicScalar.zero(p)
        yp = y.component(p) or PAdicScalar.zero(p)
        e = (yp - xp).abs_exp()
        if (term := pot.component(p)) is None:
            value *= density(params, t, e) if e is not None else density_center(params, t)
            continue
        tau, f = term
        r = f.min_radius_exp()
        leaf = min(r, e) - 1 if e is not None else r - 5
        ref = semigroup_reference(params, t, [xp, yp, *(b.center for b, _ in f.terms)], leaf,
                                  tau, f)
        assert ref.lost < 1e-12
        value *= ref.kernel(xp, yp)
    return value


class TestSemigroupReference:
    @pytest.mark.parametrize("p, sigma", [(2, 3.0), (3, 4.0), (5, 6.0), (7, 0.5)])
    def test_free_values_are_the_series(self, p, sigma):
        params = KernelParams(p, B, sigma)
        zero, one = PAdicScalar.zero(p), PAdicScalar.from_int(1, p)
        y = PAdicScalar.from_digits(p, -1, [1, 2 % p, 1, 0, 1, 1])
        ref = semigroup_reference(params, 1.0, [zero, y, one], -3)
        assert ref.lost < 1e-12
        assert ref.kernel(zero, y) == pytest.approx(density(params, 1.0, 1), rel=1e-12)
        assert ref.kernel(zero, one) == pytest.approx(density(params, 1.0, 0), rel=1e-12)
        for f in (SBFunction.indicator(Ball(one, -2)), SBFunction.indicator(Ball(y, 0)),
                  SBFunction(p, ((Ball(zero, 1), 1.0 + 0j), (Ball(one, -1), 0.5 + 0j)))):
            assert ref.expectation(zero, f) == pytest.approx(
                _factor_convolution(params, 1.0, f, zero).real, rel=1e-12)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_fk_expectation_with_a_potential(self, t):
        # schrodinger_events-shaped: ball potentials of radius p^-1 on the start at
        # 2 and 3, ball observables at 2, 3, 5, 7 and 11; the theorem at finite t
        sig = SigmaSequence(explicit=(1.5, 1.0), tail_coeff=1.0, tail_power=2.0)
        x = {p: PAdicScalar.from_digits(p, 0, [1 + k % (p - 1), k % p, 1])
             for k, p in enumerate((2, 3, 5, 7, 11))}
        pot = SimplePotential.of({2: (0.5, SBFunction.indicator(Ball(x[2], -1))),
                                  3: (1.0, SBFunction.indicator(Ball(x[3], -1)))})
        obs = {2: Ball(x[2], 0), 3: Ball(x[3], 1), 5: Ball(PAdicScalar.zero(5), 0),
               7: Ball(x[7], -1), 11: Ball(x[11], 0)}
        alpha = SimpleAdelicSB.of({p: SBFunction.indicator(ball) for p, ball in obs.items()})
        point = AdelicPoint.of(x)
        est = fk_expectation(FKRequest(sig, B, t, point, alpha, pot, 4000, 8,
                                       seed=2600 + int(4 * t), chunk_size=1000))
        ref = 1.0
        for i in range(1, 9):
            p = prime_at(i)
            params = sig.kernel_params(i, B)
            if (term := pot.component(p)) is not None:
                ref *= semigroup_reference(params, t, [x[p], obs[p].center], -1, *term
                                           ).expectation(x[p], alpha.factor(p))
            else:
                ref *= _factor_convolution(params, t, alpha.factor(p), point.component(p)).real
        assert abs(est.value.real - ref) <= 4 * est.std_error


class TestEventBridgeGates:
    """Pre-registered gates of kernel mode's event-chain bridge."""

    CASES = {
        "kernel_bridge": (BENCH_SIG, BENCH_POT, BENCH_X, BENCH_Y),
        # x_3 = y_3 at a potential prime, slow enough (lam t = 0.225) that the
        # no-jump part carries most of the factor there
        "x3_is_y3": (SigmaSequence(explicit=(3.0, 0.3, 6.0), tail_coeff=1.0, tail_power=2.0),
                     BENCH_POT, BENCH_X,
                     AdelicPoint.of({**{p: BENCH_Y.component(p) for p in (2, 5, 7, 11, 13)},
                                     3: PAdicScalar.zero(3)})),
        # a ball of radius 2^-3 at x = y: 16 jumps a path on average
        "radius_2^-3_at_x_is_y": (
            SigmaSequence(explicit=(3.0,)),
            SimplePotential.of({2: (1.0, SBFunction.indicator(Ball(PAdicScalar.zero(2), -3)))}),
            AdelicPoint.resolved_zeros(1), AdelicPoint.resolved_zeros(1)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_estimate_within_band_of_reference(self, case):
        sigma, pot, x, y = self.CASES[case]
        n = max(x.max_active_index(), y.max_active_index(), 1)
        ref = _reference_kernel(sigma, pot, x, y, 1.0, n)
        for k, (a, b) in enumerate(((x, y), (y, x))):
            est = fk_kernel(FKRequest(sigma, B, 1.0, a, OM, pot, 4000, n, seed=2700 + k, y=b))
            assert abs(est.value.real - ref) <= 4 * est.std_error, (case, k, est, ref)

    @pytest.mark.parametrize("case", list(HARD_KERNELS))
    def test_many_jumps_and_deep_wells_within_band_of_reference(self, case):
        pot, sigma, est = _hard_kernel(case)
        x = AdelicPoint.resolved_zeros(1)
        ref = _reference_kernel(sigma, pot, x, x, 1.0, 1)
        assert abs(est.value.real - ref) <= 4 * est.std_error, (case, est, ref)

    def test_every_factor_in_bounds(self):
        from adelic_diffusion.feynman_kac import _bridge_column, _compile_kernel
        from adelic_diffusion.lumped import dirichlet_average
        from adelic_diffusion.sampler import event_bridge_visits

        req = FKRequest(BENCH_SIG, B, 1.0, BENCH_X, OM, BENCH_POT, 10, 6, seed=2710, y=BENCH_Y)
        for plan in _compile_kernel(req)[1]:
            tau, f = plan.v_term
            bridge, v = plan.bridge, plan.bridge.values
            # each path's factor before the column holds it in bounds against rounding
            visits = event_bridge_visits(bridge, RngStream(2711).generator(), 4000)
            share = bridge.law.share
            factors = np.array([share * math.exp(bridge.home) + (1 - share) * dirichlet_average(
                tuple((z, k) for z, k in zip(v, row) if k)) for row in visits.tolist()])
            # the potentials are nested sums at one centre: sup v sums the coefficients
            low = math.exp(-tau * sum(c.real for _, c in f.terms))
            assert factors.min() >= low * (1 - 4e-16)
            assert factors.max() <= 1 + 4e-16
            held = _bridge_column(bridge, RngStream(2711).generator(), 4000)
            assert np.array_equal(held, np.clip(factors, math.exp(min(v)), math.exp(max(v))))

    def test_alpha_fault_leaves_the_band(self, monkeypatch):
        import adelic_diffusion.heat_kernel as hk
        from adelic_diffusion.sampler import bridge_law

        ref = _reference_kernel(BENCH_SIG, BENCH_POT, BENCH_X, BENCH_Y, 1.0, 6)
        real_alpha = hk.alpha
        monkeypatch.setattr(hk, "alpha", lambda params: 1.15 * real_alpha(params))
        bridge_law.cache_clear()
        try:
            est = fk_kernel(FKRequest(BENCH_SIG, B, 1.0, BENCH_X, OM, BENCH_POT, 4000, 6,
                                      seed=2720, y=BENCH_Y))
        finally:
            bridge_law.cache_clear()
        assert abs(est.value.real - ref) > 4 * est.std_error
