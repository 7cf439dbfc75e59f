"""Feynman-Kac estimators: action integrals, expectations, kernels, checks."""

import math
from dataclasses import replace
from fractions import Fraction

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
    fk_kernel_product,
    free_propagate,
    generator_check,
    sample_event_path,
    semigroup_check_mc,
    semigroup_compose_free,
)
from adelic_diffusion.primes import prime_at

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

    def test_bundle_action_sums_components(self):
        from adelic_diffusion.feynman_kac import bundle_action
        from adelic_diffusion import sample_adelic_path

        pot = SimplePotential.of({
            2: (0.5, SBFunction.vacuum(2)),
            3: (0.25, SBFunction.vacuum(3)),
        })
        bundle = sample_adelic_path(SIG, B, 1.0, AdelicPoint.zero(), 2,
                                    RngStream(720), resolution=0)
        total = bundle_action(bundle.components, pot, 1.0)
        parts = sum(
            action_integral(path, pot, 1.0) for _, path in bundle.components
        )
        assert total == pytest.approx(parts, rel=1e-14)

    def test_bundle_action_rejects_skeletons(self):
        from adelic_diffusion.feynman_kac import bundle_action
        from adelic_diffusion import sample_adelic_path

        pot = SimplePotential.of({2: (0.5, SBFunction.vacuum(2))})
        bundle = sample_adelic_path(SIG, B, 1.0, AdelicPoint.zero(), 1,
                                    RngStream(721), epochs=[0.5, 1.0])
        with pytest.raises(ConfigError, match="event-path bundle"):
            bundle_action(bundle.components, pot, 1.0)


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
        from adelic_diffusion.feynman_kac import _compile_plans, _endpoint_factor

        req = FKRequest(SIG, B, 1.5, X3, ON_SPHERE3, V0, 1, 2, seed=1)
        plan, = [plan for plan in _compile_plans(req) if not plan.folds]
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
        assert damped.value.real <= plain.value.real
        assert corr_se < damped.std_error + plain.std_error

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
        req = FKRequest(SIG, B, 1.0, self.X, OM, VPOT, 1500, 2, seed=711,
                        y=self.Y, bridge_steps=32)
        est = fk_kernel(req)
        assert est.value.real <= est.density_factor + 3 * est.std_error

    def test_product_matches_joint(self):
        pot23 = SimplePotential.of({
            2: (0.6, SBFunction.vacuum(2)),
            3: (0.5, SBFunction.vacuum(3)),
        })
        req = FKRequest(SIG, B, 1.0, self.X, OM, pot23, 1500, 2, seed=712,
                        y=self.Y, bridge_steps=32)
        joint = fk_kernel(req)
        prod, factors = fk_kernel_product(req)
        comb = math.hypot(joint.std_error, prod.std_error)
        assert abs(joint.value.real - prod.value.real) <= 3 * comb
        assert len(factors) == 2

    def test_worker_invariance(self, run_chunks_calls):
        pot23 = SimplePotential.of({
            2: (0.6, SBFunction.vacuum(2)),
            3: (0.5, SBFunction.indicator(Ball(PAdicScalar.zero(3), -1))),
        })
        req = FKRequest(SIG, B, 1.0, self.X, OM, pot23, 600, 2, seed=724, y=self.Y,
                        bridge_steps=16, chunk_size=200)
        joint, product = [], []
        for w in (1, 4, 8):
            joint.append(fk_kernel(replace(req, workers=w)))
            product.append(fk_kernel_product(replace(req, workers=w)))
        # three chunks per call: one joint call and one per prime for the product
        assert run_chunks_calls == ["_kernel_chunk"] * 9
        assert joint[0].std_error > 0
        assert joint[0] == joint[1] == joint[2]
        assert product[0] == product[1] == product[2]

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
        req = FKRequest(SIG, B, 1.0, x, OM, pot, 20, 2, seed=725, y=x, bridge_steps=4)
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

    def test_observable_away_from_point(self):
        # alpha supported off x: finite density-driven limit, no blowup
        ball = Ball(PAdicScalar.from_rational(Fraction(1, 2), 2), -1)
        alpha_f = SimpleAdelicSB.of({2: SBFunction.indicator(ball, 1.0)})
        x = AdelicPoint.resolved_zeros(1)
        rep = generator_check(SIG, B, alpha_f, V0, x, [1e-1, 1e-2], n_paths=1,
                              N=3, seed=719)
        assert all(math.isfinite(fd) for fd in rep.finite_differences)
        assert abs(rep.finite_differences[-1] - rep.target) < 0.05
