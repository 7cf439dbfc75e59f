"""Pre-registered validation suite: every module's invariant block as a
runnable check with fixed seeds, so the whole battery is deterministic.

`run_checks` returns one result per check; the CLI turns failures into a
nonzero exit code.  `inject_alpha_bug` runs only the exit-law check, with its
analytic reference deliberately corrupted, as a self-test that the battery
detects a wrong exit-rate constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import stats

from . import heat_kernel as hk
from .adelic import AdelicPoint, SigmaSequence, exit_count_pmf, exit_count_samples
from .errors import SummabilityError
from .feynman_kac import (
    FKRequest,
    fk_expectation,
    free_propagate,
    fk_kernel,
)
from .padic import Ball, PAdicScalar, ball_measure, sphere_measure, uniform_ball, uniform_sphere
from .rng import RngStream
from .sampler import (
    BridgeSpec,
    increment_law,
    sample_bridge,
    sample_event_path,
    sample_skeleton,
)
from .schwartz import (
    SBFunction,
    SimpleAdelicSB,
    SimplePotential,
    canonicalize,
    eval_sb,
    multiplier_constant,
    sb_pairing,
    vacuum_multiplier_norm_sq,
)

BASE_SEED = 20_260_808


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    passed: bool
    detail: str
    tolerance: str


def _result(module, name, passed, detail, tol) -> CheckResult:
    return CheckResult(module, name, bool(passed), detail, tol)


# -- padic_core --------------------------------------------------------------


def check_canonical_and_abs(fast: bool) -> CheckResult:
    gen = RngStream(BASE_SEED).child(1).generator()
    n = 400 if fast else 4000
    ok = True
    for _ in range(n):
        p = [2, 3, 5, 7][int(gen.integers(0, 4))]
        u = uniform_sphere(gen, p, 0, 12)
        k = int(gen.integers(-6, 7))
        shift = PAdicScalar(p, k, 1, 12)
        prod = u * shift
        ok &= prod.abs() == u.abs() * shift.abs()
        ok &= prod.significand % p != 0
    return _result("padic_core", "canonical_abs_multiplicative", ok,
                   f"{n} unit*p^k products", "exact")


def check_ultrametric(fast: bool) -> CheckResult:
    n = 1000 if fast else 10_000
    ok = True
    for pi, p in enumerate([2, 3, 5, 7]):
        gen = RngStream(BASE_SEED).child(2, pi).generator()
        for _ in range(n):
            x = uniform_sphere(gen, p, int(gen.integers(-5, 6)), 10)
            y = uniform_sphere(gen, p, int(gen.integers(-5, 6)), 10)
            s = x + y
            bound = max(x.abs(), y.abs())
            if s.abs() > bound:
                ok = False
            if x.abs() != y.abs() and s.abs() != bound:
                ok = False
    return _result("padic_core", "ultrametric_inequality", ok,
                   f"{n} pairs per prime in 2,3,5,7", "exact")


def check_measure_additivity(fast: bool) -> CheckResult:
    ok = True
    for p in (2, 3, 5, 7):
        for r in range(-8, 9):
            lhs = ball_measure(p, r)
            rhs = ball_measure(p, r - 1) + sphere_measure(p, r)
            ok &= lhs == rhs
    return _result("padic_core", "measure_additivity", ok,
                   "mu(B_r) = mu(B_{r-1}) + mu(S_r), exact rationals", "exact")


def check_sampler_uniformity(fast: bool) -> CheckResult:
    n = 4000 if fast else 40_000
    worst = 1.0
    for pi, p in enumerate((2, 3, 5)):
        gen = RngStream(BASE_SEED).child(3, pi).generator()
        ball = Ball(PAdicScalar.zero(p), 0)
        counts = np.zeros((4, p))
        for _ in range(n):
            x = uniform_ball(gen, p, ball, 6)
            # digit at absolute scale p^idx, idx = 0..5
            full = [0] * 6
            if not x.is_zero():
                for k, d in enumerate(x.digits):
                    idx = x.valuation + k
                    if 0 <= idx < 6:
                        full[idx] = d
            for row in range(4):
                counts[row, full[row]] += 1
        for row in range(4):
            pval = stats.chisquare(counts[row]).pvalue
            worst = min(worst, float(pval))
    return _result("padic_core", "digit_uniformity_chisquare", worst > 1e-6,
                   f"min p-value {worst:.3g}", "p > 1e-6")


# -- heat_kernel --------------------------------------------------------------


def check_normalization_grid(fast: bool) -> CheckResult:
    worst = 0.0
    ts = (0.1, 1.0, 10.0)
    for p in (2, 3, 5):
        for b in (0.5, 1.0, 2.0):
            for s in (0.25, 1.0):
                for t in ts:
                    law = hk.radial_law(hk.KernelParams(p, b, s), t)
                    worst = max(worst, abs(law.coverage() + law.bottom_mass
                                           + law.top_loss - 1.0))
    return _result("heat_kernel", "normalization_grid", worst < 1e-10,
                   f"max |sum-1| = {worst:.3g}", "< 1e-10")


def check_ball_monotone(fast: bool) -> CheckResult:
    params = hk.KernelParams(3, 0.8, 0.7)
    vals = [hk.ball_mass(params, 1.3, nu) for nu in range(-6, 25)]
    mono = all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    return _result("heat_kernel", "ball_mass_monotone_to_one",
                   mono and vals[-1] > 1 - 1e-9,
                   f"final {vals[-1]:.12f}", "monotone, ->1")


def check_chapman_kolmogorov(fast: bool) -> CheckResult:
    worst = 0.0
    for p, b, s in ((2, 1.0, 1.0), (3, 0.5, 0.25), (5, 2.0, 1.0)):
        params = hk.KernelParams(p, b, s)
        half = hk.radial_law(params, 0.5, coverage=1 - 1e-13)
        conv = hk.radial_convolve(half, half)
        direct = hk.radial_law(params, 1.0, coverage=1 - 1e-13)
        for m in range(direct.m_lo, direct.m_hi + 1):
            worst = max(worst, abs(conv.mass(m) - direct.mass(m)))
    return _result("heat_kernel", "chapman_kolmogorov_radial", worst < 1e-8,
                   f"sup class diff {worst:.3g}", "< 1e-8")


def check_dirac_limit(fast: bool) -> CheckResult:
    params = hk.KernelParams(2, 1.0, 1.0)
    ok = True
    last = 0.0
    for k in range(0, 7):
        t = 10.0 ** (-k)
        bm = hk.ball_mass(params, t, 0)
        ok &= bm >= math.exp(-params.sigma * t)
        last = bm
    return _result("heat_kernel", "dirac_limit_bound", ok and last > 1 - 1e-6,
                   f"ball_mass(1e-6) = {last:.9f}", ">= e^{-sigma t}, ->1")


# -- sampler ------------------------------------------------------------------


def check_exit_law(fast: bool, alpha_override=None) -> CheckResult:
    params = hk.KernelParams(2, 1.0, 1.0)
    n = 5000 if fast else 20_000
    gen = RngStream(BASE_SEED).child(10).generator()
    zero = PAdicScalar.zero(2)
    stay = sum(
        1 for _ in range(n) if not sample_event_path(params, zero, 1.0, 0, gen).events
    )
    a = alpha_override if alpha_override is not None else hk.alpha(params)
    analytic = math.exp(-params.sigma * a * 1.0)
    q = stay / n
    se = math.sqrt(analytic * (1 - analytic) / n)
    return _result("sampler", "exit_law_event_mc", abs(q - analytic) <= 3 * se,
                   f"mc {q:.5f} vs analytic {analytic:.5f} (se {se:.5f})",
                   "within 3 SE")


def check_bridge_inequality(fast: bool) -> CheckResult:
    params = hk.KernelParams(2, 1.0, 1.0)
    t = 1.0
    n = 1500 if fast else 6000
    epochs = [t * k / 16 for k in range(1, 16)]
    x = PAdicScalar.zero(2)
    y = PAdicScalar.from_int(3, 2)  # y in x + Z_p
    genb = RngStream(BASE_SEED).child(11).generator()
    genf = RngStream(BASE_SEED).child(12).generator()
    spec = BridgeSpec(params, t, x, y)
    stay_b = stay_f = 0
    for _ in range(n):
        sk = sample_bridge(spec, epochs, genb, 16)
        if all(v.is_zero() or v.abs_exp() <= 0 for v in sk.values):
            stay_b += 1
        sk2 = sample_skeleton(params, epochs + [t], x, genf, 16)
        if all(v.is_zero() or v.abs_exp() <= 0 for v in sk2.values):
            stay_f += 1
    pb, pf = stay_b / n, stay_f / n
    se = math.sqrt(pf * (1 - pf) / n)
    return _result("sampler", "bridge_confinement_inequality",
                   pb >= pf - 3 * se,
                   f"bridge {pb:.4f} vs free {pf:.4f} (se {se:.4f})",
                   "P_bridge >= P_free - 3 SE")


def check_sampler_determinism(fast: bool) -> CheckResult:
    params = hk.KernelParams(3, 1.0, 0.5)
    zero = PAdicScalar.zero(3)
    a = sample_event_path(params, zero, 2.0, 0, RngStream(99).child(4))
    b = sample_event_path(params, zero, 2.0, 0, RngStream(99).child(4))
    ok = a == b
    sk1 = sample_skeleton(params, [0.5, 1.0], zero, RngStream(98).child(1), 16)
    sk2 = sample_skeleton(params, [0.5, 1.0], zero, RngStream(98).child(1), 16)
    ok &= sk1 == sk2
    return _result("sampler", "stream_determinism", ok,
                   "same (seed, path) => identical draws", "exact")


def check_event_action_exactness(fast: bool) -> CheckResult:
    from .feynman_kac import action_integral

    params = hk.KernelParams(2, 1.0, 1.0)
    pot = SimplePotential.of({2: (1.0, SBFunction.vacuum(2))})
    t = 1.0
    n = 400 if fast else 1500
    diffs = []
    for steps in (16, 32, 64):
        gen_e = RngStream(BASE_SEED).child(14).generator()
        acc = 0.0
        for _ in range(n):
            path = sample_event_path(params, PAdicScalar.zero(2), t, 0, gen_e)
            exact = action_integral(path, pot, t)
            times = [t * k / steps for k in range(1, steps + 1)]
            vals = [path.position_at(s) for s in [0.0] + times[:-1]]
            approx = sum(
                (t / steps) * eval_sb(SBFunction.vacuum(2), v).real for v in vals
            )
            acc += abs(approx - exact)
        diffs.append(acc / n)
    ok = diffs[2] <= diffs[0] + 1e-12 and diffs[2] < 0.05
    return _result("sampler", "event_action_exact_vs_refinement", ok,
                   f"mean |skeleton - exact| at 16/32/64 steps: "
                   f"{diffs[0]:.4g}/{diffs[1]:.4g}/{diffs[2]:.4g}",
                   "refinement converges to event-path value")


# -- adelic -------------------------------------------------------------------


def check_summability_guard(fast: bool) -> CheckResult:
    try:
        SigmaSequence(tail_coeff=1.0, tail_power=1.0)
        return _result("adelic", "summability_guard", False, "s=1 accepted", "reject")
    except SummabilityError:
        return _result("adelic", "summability_guard", True, "s=1 rejected", "reject")


def check_tail_certificate(fast: bool) -> CheckResult:
    sigma = SigmaSequence.inverse_square()
    b, T, N, N_ext = 1.0, 1.0, 3, 12
    n = 800 if fast else 10_000
    cert = math.exp(-T * (sigma.beta_tail_upper(N, b) - sigma.beta_tail_upper(N_ext, b)))
    # streams are keyed by (chunk, prime index), so the head primes' draws
    # cancel and the difference counts exits among primes N+1..N_ext
    seed = BASE_SEED + 15
    tail_exits = (exit_count_samples(sigma, b, T, N_ext, n, seed)
                  - exit_count_samples(sigma, b, T, N, n, seed))
    frac = float(np.mean(tail_exits > 0))
    se = math.sqrt(max(frac * (1 - frac), 1e-9) / n)
    ok = frac <= (1 - cert) + 3 * se
    return _result("adelic", "tail_certificate_validity", ok,
                   f"tail exit frac {frac:.4f} vs 1-cert {1-cert:.4f}",
                   "frac <= 1 - cert + 3 SE")


def check_pmf_intervals(fast: bool) -> CheckResult:
    sigma = SigmaSequence.inverse_square()
    b, T, N = 1.0, 1.0, 8
    n = 2000 if fast else 10_000
    dist = exit_count_pmf(sigma, b, T, N, 6)
    counts = np.bincount(exit_count_samples(sigma, b, T, N, n, BASE_SEED + 16),
                         minlength=7)[:7]
    ok = True
    for k in range(7):
        freq = counts[k] / n
        # binomial SE referenced to the larger of the observed and bound
        # probabilities, so zero-count rare classes are judged fairly
        p_ref = max(freq, dist.lo[k])
        se = math.sqrt(max(p_ref * (1 - p_ref), 1e-12) / n)
        if not (dist.lo[k] - 3 * se <= freq <= dist.hi[k] + 3 * se):
            ok = False
    return _result("adelic", "pmf_interval_bounds", ok,
                   f"checked k <= 6 at n={n}", "MC within interval +/- 3 SE")


# -- schwartz_operator --------------------------------------------------------


def check_disjointification(fast: bool) -> CheckResult:
    p = 3
    f = SBFunction(p, (
        (Ball(PAdicScalar.zero(p), 2), 1.0 + 0j),
        (Ball(PAdicScalar.from_int(3, p), 0), 2.0 - 1.0j),
        (Ball(PAdicScalar.from_int(1, p), -1), -0.5 + 0j),
    ))
    c1 = canonicalize(f)
    c2 = canonicalize(c1)
    ok = c1.terms == c2.terms

    def exact_integral(fn):
        re = sum((Fraction(c.real) * t.measure() for t, c in fn.terms), Fraction(0))
        im = sum((Fraction(c.imag) * t.measure() for t, c in fn.terms), Fraction(0))
        return re, im

    ok &= exact_integral(f) == exact_integral(c1)
    gen = RngStream(BASE_SEED).child(17).generator()
    for _ in range(100 if fast else 10_000):
        x = uniform_ball(gen, p, Ball(PAdicScalar.zero(p), 3), 10)
        ok &= abs(eval_sb(f, x) - eval_sb(c1, x)) < 1e-14
    return _result("schwartz_operator", "disjointification", ok,
                   "idempotent, integral- and pointwise-preserving", "exact")


def check_parseval_symmetry(fast: bool) -> CheckResult:
    params = hk.KernelParams(2, 1.3, 1.0)
    f = SBFunction(2, (
        (Ball(PAdicScalar.from_int(1, 2), -1), 2.0 + 1.0j),
        (Ball(PAdicScalar.zero(2), 1), 0.5 + 0j),
    ))
    g = SBFunction(2, (
        (Ball(PAdicScalar.zero(2), 0), 1.5 + 0j),
        (Ball(PAdicScalar.from_int(2, 2), -2), -0.5 + 2.0j),
    ))
    lhs = sb_pairing(params, f, g, True)
    rhs = sb_pairing(params, f, g, False)
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-30)
    return _result("schwartz_operator", "pairing_symmetry", rel < 1e-8,
                   f"relative asymmetry {rel:.3g}", "< 1e-8 relative")


def check_domain_bounds(fast: bool) -> CheckResult:
    sigma = SigmaSequence.inverse_square()
    b, N = 1.0, 30
    total_sq = 0.0
    sigmas = [sigma.sigma(i) for i in range(1, N + 1)]
    from .primes import prime_at

    cs = [multiplier_constant(prime_at(i), b) for i in range(1, N + 1)]
    msq = [vacuum_multiplier_norm_sq(prime_at(i), b) for i in range(1, N + 1)]
    for i in range(N):
        total_sq += sigmas[i] ** 2 * msq[i]
        for j in range(N):
            if i != j:
                total_sq += sigmas[i] * sigmas[j] * cs[i] * cs[j]
    lower = 0.25 * sigmas[0] * sum(sigmas[1:])
    upper = 4.0 * sum(sigmas) ** 2
    ok = lower < total_sq < upper
    return _result("schwartz_operator", "vacuum_norm_partial_sum_bounds", ok,
                   f"{lower:.4g} < {total_sq:.4g} < {upper:.4g}",
                   "strict two-sided bounds")


# -- feynman_kac --------------------------------------------------------------


def check_fk_free_reduction(fast: bool) -> CheckResult:
    sigma = SigmaSequence.inverse_square()
    n = 5000 if fast else 20_000
    # a non-vacuum factor keeps prime 2 sampled; vacuum, potential-free primes fold
    alpha = SimpleAdelicSB.of({2: SBFunction.indicator(Ball(PAdicScalar.zero(2), -1))})
    x = AdelicPoint.resolved_zeros(1)
    req = FKRequest(sigma, 1.0, 1.0, x, alpha, SimplePotential.zero(), n, 5,
                    seed=BASE_SEED + 5)
    est = fk_expectation(req)
    fp = free_propagate(sigma, 1.0, 1.0, alpha, x, 5)
    dev = abs(est.value.real - fp.value.real)
    return _result("feynman_kac", "free_reduction", dev <= 3 * est.std_error,
                   f"estimate {est.value.real:.5f} vs exact {fp.value.real:.5f} "
                   f"(se {est.std_error:.5f})", "within 3 SE")


def check_fk_kernel_consistency(fast: bool) -> CheckResult:
    sigma = SigmaSequence.inverse_square()
    b, t = 1.0, 1.0
    n_y = 24 if fast else 48
    n_in = 250 if fast else 600
    pot = SimplePotential.of({2: (0.7, SBFunction.vacuum(2))})
    alpha = SimpleAdelicSB.vacuum()
    x = AdelicPoint.resolved_zeros(1)
    direct = fk_expectation(FKRequest(
        sigma, b, t, x, alpha, pot, 8000 if fast else 20_000, 1, seed=BASE_SEED + 6,
    ))
    params = sigma.kernel_params(1, b)
    law = increment_law(params, t)
    gen = RngStream(BASE_SEED).child(18).generator()
    c, vals = np.cumsum(law.array[:1 - law.m_lo]), []  # y's radius law on Z_2
    for j in range(n_y):
        m = int(np.searchsorted(c, gen.random() * c[-1], side="right")) + law.m_lo
        y = AdelicPoint.of({2: uniform_sphere(gen, 2, m, 20)})
        vals.append(fk_kernel(FKRequest(sigma, b, t, x, alpha, pot, n_in, 1,
                                        seed=BASE_SEED + 7 + j, y=y)).bridge_factor)
    kernel_form = hk.ball_mass(params, t, 0) * float(np.mean(vals))
    se_k = hk.ball_mass(params, t, 0) * float(np.std(vals, ddof=1) / math.sqrt(n_y))
    comb = math.hypot(direct.std_error, se_k)
    dev = abs(kernel_form - direct.value.real)
    return _result("feynman_kac", "expectation_vs_kernel_assembly",
                   dev <= 3 * comb,
                   f"kernel {kernel_form:.5f} vs direct {direct.value.real:.5f} "
                   f"(comb se {comb:.5f})", "within 3 SE")


def check_fk_positivity(fast: bool) -> CheckResult:
    sigma = SigmaSequence.inverse_square()
    pot = SimplePotential.of({2: (0.4, SBFunction.vacuum(2))})
    req = FKRequest(sigma, 1.0, 0.7, AdelicPoint.zero(), SimpleAdelicSB.vacuum(),
                    pot, 4000, 3, seed=BASE_SEED + 8)
    est = fk_expectation(req)
    ok = est.value.real >= -3 * est.std_error
    return _result("feynman_kac", "positivity", ok,
                   f"estimate {est.value.real:.5f}", ">= -3 SE")


def check_fk_event_end_law(fast: bool) -> CheckResult:
    # estimates take f_p(X_t) as a control variate at event-path primes, with
    # its mean from the same chain as the draws, so a fault in the engine moves
    # both; the raw draws are checked against the heat-kernel series instead
    from .feynman_kac import _compile_exact, _factor_convolution, _mean_var, _raw_event_draws

    sigma = SigmaSequence.inverse_square()
    one, four = PAdicScalar.from_int(1, 3), PAdicScalar.from_int(4, 3)
    pot = SimplePotential.of({3: (1.0, SBFunction(3, ((Ball(one, -1), 1.0 + 0j),
                                                      (Ball(one, 0), 0.25 + 0j))))})
    alpha = SimpleAdelicSB.of({3: SBFunction(3, ((Ball(four, -1), 0.5 - 0.25j),
                                                 (Ball(PAdicScalar.zero(3), 0), 1.0 + 0.5j)))})
    req = FKRequest(sigma, 1.0, 2.0, AdelicPoint.resolved_zeros(2), alpha, pot,
                    8000 if fast else 32_000, 2, seed=BASE_SEED + 100)
    _, (plan,) = _compile_exact(req)
    mean, var = _mean_var(_raw_event_draws(req, plan)[0])
    free, se = _factor_convolution(plan.params, req.t, plan.alpha_f, plan.start), math.sqrt(var)
    return _result("feynman_kac", "event_end_law", abs(mean - free) <= 4 * se,
                   f"mean f(X_t) {mean:.5f} vs exact {free:.5f} (se {se:.5f})", "within 4 SE")


def check_fk_event_occupation(fast: bool) -> CheckResult:
    # the action A_p is the other control variate: its raw mean against the
    # time integral of the heat-kernel series' ball mass; time spent in a ball
    # around the start falls by about 6 % if the exit rate is 1.15 times too high
    from scipy.integrate import quad

    from .feynman_kac import _compile_exact, _mean_var, _raw_event_draws

    sigma = SigmaSequence.inverse_square()
    ball = Ball(PAdicScalar.zero(2), -2)
    req = FKRequest(sigma, 1.0, 2.0, AdelicPoint.resolved_zeros(1), SimpleAdelicSB.vacuum(),
                    SimplePotential.of({2: (1.0, SBFunction.indicator(ball))}),
                    8000 if fast else 32_000, 1, seed=BASE_SEED + 101)
    _, (plan,) = _compile_exact(req)
    mean, var = _mean_var(_raw_event_draws(req, plan)[1])
    exact = quad(lambda s: hk.ball_kernel_mass(plan.params, s, None, ball.radius_exp),
                 0.0, req.t, epsrel=1e-12)[0]
    se = math.sqrt(var)
    return _result("feynman_kac", "event_occupation", abs(mean.real - exact) <= 4 * se,
                   f"mean action {mean.real:.5f} vs exact {exact:.5f} (se {se:.5f})",
                   "within 4 SE")


def check_fk_worker_invariance(fast: bool) -> CheckResult:
    sigma = SigmaSequence.inverse_square()
    # a non-vacuum factor keeps prime 2 sampled; vacuum, potential-free primes fold
    alpha = SimpleAdelicSB.of({2: SBFunction.indicator(Ball(PAdicScalar.zero(2), -1))})
    ests = []
    for w in (1, 4, 8):
        req = FKRequest(sigma, 1.0, 1.0, AdelicPoint.resolved_zeros(1), alpha,
                        SimplePotential.zero(), 12_000, 4, seed=BASE_SEED + 9,
                        workers=w, chunk_size=2048)
        ests.append(fk_expectation(req))
    ok = all(e.value == ests[0].value and e.std_error == ests[0].std_error
             for e in ests)
    return _result("feynman_kac", "worker_count_invariance", ok,
                   "workers 1/4/8 bit-identical", "exact")


ALL_CHECKS = (
    check_canonical_and_abs,
    check_ultrametric,
    check_measure_additivity,
    check_sampler_uniformity,
    check_normalization_grid,
    check_ball_monotone,
    check_chapman_kolmogorov,
    check_dirac_limit,
    check_exit_law,
    check_bridge_inequality,
    check_sampler_determinism,
    check_event_action_exactness,
    check_summability_guard,
    check_tail_certificate,
    check_pmf_intervals,
    check_disjointification,
    check_parseval_symmetry,
    check_domain_bounds,
    check_fk_free_reduction,
    check_fk_kernel_consistency,
    check_fk_positivity,
    check_fk_event_end_law,
    check_fk_event_occupation,
    check_fk_worker_invariance,
)


def run_checks(fast: bool = True, inject_alpha_bug: bool = False) -> list[CheckResult]:
    """Every check in order; with inject_alpha_bug, only the exit-law check
    against a corrupted reference (no other check reads that reference)."""
    if inject_alpha_bug:
        wrong = hk.alpha(hk.KernelParams(2, 1.0, 1.0)) * 1.15
        return [check_exit_law(fast, alpha_override=wrong)]
    return [fn(fast) for fn in ALL_CHECKS]
