"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per
criterion.  Seeds are pre-registered so every statistical assertion is
deterministic.
"""

import json
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from adelic_diffusion import (
    AdelicPoint,
    Ball,
    BridgeSpec,
    FKRequest,
    KernelParams,
    PAdicScalar,
    RngStream,
    SBFunction,
    SigmaSequence,
    SimpleAdelicSB,
    SimplePotential,
    ball_mass,
    density,
    density_center,
    exit_count_factorial_bound,
    exit_count_moment,
    exit_count_pmf,
    exit_count_samples,
    fk_expectation,
    fk_kernel,
    free_propagate,
    increment_law,
    overshoot_law,
    radial_convolve,
    radial_law,
    sample_bridge,
    sample_event_path,
    vacuum_multiplier_norm_sq,
)
from adelic_diffusion.cli import main as cli_main
from conftest import (
    adelic_ball_probability,
    fine_skeleton_exit_landings,
    generator_check,
    norm_sq_quadrature,
    trapezoid_action,
)

KP = KernelParams(2, 1.0, 1.0)
ZERO2 = PAdicScalar.zero(2)


def report(k, msg):
    print(f"ACCEPTANCE {k:02d} PASS - {msg}")


def test_01_kernel_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (2, 3, 5):
        for b in (0.5, 1.0, 2.0):
            for s in (0.25, 1.0):
                for t in (0.1, 1.0, 10.0):
                    law = radial_law(KernelParams(p, b, s), t)
                    worst = max(worst, abs(
                        law.coverage() + law.bottom_mass + law.top_loss - 1.0))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 1.0
    report(1, f"grid normalization defect {worst:.2e} in {elapsed:.2f}s (<1s)")


def test_02_exit_law_event_sampler():
    t0 = time.perf_counter()
    n = 100_000
    gen = RngStream(9001).generator()
    stay = 0
    for _ in range(n):
        if not sample_event_path(KP, ZERO2, 1.0, 0, gen).events:
            stay += 1
    elapsed = time.perf_counter() - t0
    analytic = math.exp(-2.0 / 3.0)
    se = math.sqrt(analytic * (1 - analytic) / n)
    dev = abs(stay / n - analytic)
    assert dev <= 3 * se
    assert elapsed < 10.0
    report(2, f"|MC - e^(-2/3)| = {dev:.5f} <= 3 SE = {3*se:.5f}, "
              f"{elapsed:.1f}s (<10s)")


def test_03_sampler_cross_validation():
    n = 100_000
    # skeleton endpoints: one increment draw; event endpoints: jump chain
    law = increment_law(KP, 1.0)
    gen_s = RngStream(9002).generator()
    exps = law.sample_exponents(gen_s, n)
    sk = Counter()
    for m in exps:
        sk[int(m) if m >= 1 else 0] += 1
    gen_e = RngStream(9003).generator()
    ev = Counter()
    for _ in range(n):
        path = sample_event_path(KP, ZERO2, 1.0, 0, gen_e)
        e = path.end_position().abs_exp() if path.events else None
        ev[e if e is not None and e >= 1 else 0] += 1
    keys = set(sk) | set(ev)
    tv_end = 0.5 * sum(abs(sk.get(k, 0) / n - ev.get(k, 0) / n) for k in keys)
    assert tv_end < 0.01

    landings = fine_skeleton_exit_landings(KP, 1.0, 256, 80_000, seed=9004)
    cnt = Counter(int(k) for k in landings)
    total = len(landings)
    tv_over = 0.5 * sum(
        abs(cnt.get(k, 0) / total - overshoot_law(KP, 0, k)) for k in range(1, 16)
    )
    assert tv_over < 0.02
    report(3, f"end-position TV {tv_end:.4f} (<0.01), overshoot TV {tv_over:.4f} (<0.02)")


def test_04_chapman_kolmogorov():
    worst = 0.0
    for p, b, s, t in ((2, 1.0, 1.0, 1.0), (3, 0.5, 0.25, 2.0), (5, 2.0, 1.0, 0.5)):
        params = KernelParams(p, b, s)
        half = radial_law(params, t / 2, coverage=1 - 1e-13)
        conv = radial_convolve(half, half)
        direct = radial_law(params, t, coverage=1 - 1e-13)
        for m in range(direct.m_lo, direct.m_hi + 1):
            worst = max(worst, abs(conv.mass(m) - direct.mass(m)))
    assert worst < 1e-8
    report(4, f"radial convolution vs direct law, sup diff {worst:.2e} (<1e-8)")


def test_05_dirac_limit_and_bounds():
    last = 0.0
    for k in range(0, 7):
        t = 10.0 ** (-k)
        bm = ball_mass(KP, t, 0)
        assert bm >= math.exp(-KP.sigma * t)
        last = bm
    assert last > 1 - 1e-6

    sig = SigmaSequence.inverse_square()
    t = 0.3
    balls = {2: Ball(PAdicScalar.zero(2), -1), 3: Ball(PAdicScalar.zero(3), -2)}
    lo, hi = adelic_ball_probability(sig, 1.0, t, balls, 3)
    floor = math.exp(-t * sig.sigma_total_upper())
    for p, ball in balls.items():
        i = {2: 1, 3: 2}[p]
        floor *= math.exp(-sig.sigma(i) * t * (float(p) ** (-ball.radius_exp) - 1.0))
    assert lo >= floor - 1e-15
    lo0, hi0 = adelic_ball_probability(sig, 1.0, 1e-9, balls, 3)
    assert lo0 > 1 - 1e-6
    report(5, f"unit-ball bound holds on t-ladder; adelic bracket lo {lo:.6f} >= "
              f"product bound {floor:.6f}, Dirac lo(1e-9) = {lo0:.8f}")


def test_06_exit_count():
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    sig = SigmaSequence(explicit=tuple(float(p) ** -2 for p in primes))
    b, T, N = 1.0, 1.0, 15
    dist = exit_count_pmf(sig, b, T, N, N)
    n = 100_000
    counts = np.bincount(exit_count_samples(sig, b, T, N, n, seed=9005),
                         minlength=N + 1)[: N + 1]
    tv = 0.5 * float(np.sum(np.abs(counts / n - np.asarray(dist.pmf))))
    assert tv < 0.01
    for k in range(1, 11):
        assert dist.pmf[k] < exit_count_factorial_bound(sig, b, T, k)
    assert dist.pmf[0] <= exit_count_factorial_bound(sig, b, T, 0) * (1 + 1e-12)
    mean, bound = exit_count_moment(sig, b, T, N, 1)
    assert mean < bound
    report(6, f"pmf vs MC TV {tv:.4f} (<0.01); factorial bounds hold k<=10; "
              f"mean {mean:.4f} < {bound:.4f}")


def test_07_vacuum_norm_identity():
    worst = 0.0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97):
        for b in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            closed = vacuum_multiplier_norm_sq(p, b)
            worst = max(worst, abs(closed - norm_sq_quadrature(p, b)))
            assert 0.5 < closed < 2.0
    assert worst < 1e-12
    report(7, f"closed form vs quadrature, worst |diff| {worst:.2e} (<1e-12); "
              f"all values in (1/2, 2)")


def test_08_fk_free_reduction(run_chunks_calls):
    t0 = time.perf_counter()
    sig = SigmaSequence.inverse_square()
    b, t, n = 1.0, 1.0, 100_000
    v0 = SimplePotential.zero()
    half = PAdicScalar.from_rational(Fraction(1, 2), 2)
    f2 = SBFunction.indicator(Ball(PAdicScalar.zero(2), -1), 1.0)
    f2b = SBFunction(2, (
        (Ball(PAdicScalar.zero(2), 0), 1.0 + 0j),
        (Ball(PAdicScalar.from_int(1, 2), -1), 0.5 + 0j),
    ))
    f3 = SBFunction.indicator(Ball(PAdicScalar.zero(3), -1), 1.0)
    # every point has one non-vacuum factor, so one prime is sampled
    points = [
        (AdelicPoint.of({3: PAdicScalar.zero(3)}), SimpleAdelicSB.of({3: f3}), 6),
        (AdelicPoint.of({2: half}), SimpleAdelicSB.of({2: SBFunction.indicator(Ball(half, 0))}),
         4),
        (AdelicPoint.resolved_zeros(1), SimpleAdelicSB.of({2: f2}), 4),
        (AdelicPoint.of({3: PAdicScalar.from_int(3, 3)}), SimpleAdelicSB.of({3: f3}), 4),
        (AdelicPoint.resolved_zeros(1), SimpleAdelicSB.of({2: f2b}), 3),
    ]
    devs = []
    for k, (x, alpha_f, N) in enumerate(points):
        req = FKRequest(sig, b, t, x, alpha_f, v0, n, N, seed=9100 + k)
        est = fk_expectation(req)
        fp = free_propagate(sig, b, t, alpha_f, x, N)
        dev = abs(est.value.real - fp.value.real)
        assert len(run_chunks_calls) == k + 1
        assert dev <= 3 * est.std_error, (k, dev, est.std_error)
        devs.append(dev / est.std_error)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(8, f"5 test points, max dev {max(devs):.2f} SE (<3), {elapsed:.1f}s (<60s)")


SIG_P2 = SigmaSequence(explicit=(1.0,))
VP2 = SimplePotential.of({2: (0.7, SBFunction.vacuum(2))})


def _kernel_pair(x2, y2, seed, n=3000, steps=32):
    om = SimpleAdelicSB.vacuum()
    x = AdelicPoint.of({2: x2})
    y = AdelicPoint.of({2: y2})
    fwd = fk_kernel(FKRequest(SIG_P2, 1.0, 1.0, x, om, VP2, n, 1, seed=seed,
                              y=y, bridge_steps=steps))
    bwd = fk_kernel(FKRequest(SIG_P2, 1.0, 1.0, y, om, VP2, n, 1, seed=seed + 1,
                              y=x, bridge_steps=steps))
    return fwd, bwd


def test_09_kernel_symmetry():
    pairs = [
        (ZERO2, PAdicScalar.from_int(1, 2)),
        (ZERO2, PAdicScalar.from_rational(Fraction(1, 2), 2)),
        (PAdicScalar.from_int(1, 2), PAdicScalar.from_int(3, 2)),
    ]
    margins = []
    for k, (a, bb) in enumerate(pairs):
        fwd, bwd = _kernel_pair(a, bb, seed=9200 + 10 * k)
        comb = math.hypot(fwd.std_error, bwd.std_error)
        dev = abs(fwd.value.real - bwd.value.real)
        assert dev <= 3 * comb, (k, dev, comb)
        margins.append(dev / comb)
    report(9, f"3 endpoint pairs, max |K(x,y)-K(y,x)| = {max(margins):.2f} "
              f"combined SE (<3)")


def test_10_product_factorization():
    # fk_kernel against the density times the product over primes of the bridge
    # means of the digit-exact oracle sample_bridge, with the trapezoid action
    sig = SigmaSequence(explicit=(1.0, 1.0))
    pot = SimplePotential.of({
        2: (0.6, SBFunction.vacuum(2)),
        3: (0.5, SBFunction.vacuum(3)),
    })
    om = SimpleAdelicSB.vacuum()
    x = AdelicPoint.resolved_zeros(2)
    y = AdelicPoint.resolved_zeros(2, p2=PAdicScalar.from_int(1, 2))
    steps, n_oracle = 32, 1000
    req = FKRequest(sig, 1.0, 1.0, x, om, pot, 3000, 2, seed=9300, y=y,
                    bridge_steps=steps)
    est = fk_kernel(req)
    epochs = [j / steps for j in range(1, steps)]
    means, variances = [], []
    for i, p in enumerate((2, 3), start=1):
        params = sig.kernel_params(i, 1.0)
        spec = BridgeSpec(params, 1.0, x.component(p), y.component(p))
        gen = RngStream(9301).child(p).generator()
        tau, f = pot.component(p)
        w = [math.exp(-trapezoid_action(sample_bridge(spec, epochs, gen, 24), tau, f))
             for _ in range(n_oracle)]
        means.append(np.mean(w))
        variances.append(np.var(w, ddof=1) / n_oracle)
    # independent means: Var(m2 m3) = m2^2 v3 + m3^2 v2 + v2 v3
    (m2, m3), (v2, v3) = means, variances
    dens = density(sig.kernel_params(1, 1.0), 1.0, 0) * density_center(
        sig.kernel_params(2, 1.0), 1.0)
    ref = dens * m2 * m3
    ref_se = dens * math.sqrt(m2**2 * v3 + m3**2 * v2 + v2 * v3)
    z = (est.value.real - ref) / math.hypot(est.std_error, ref_se)
    assert abs(z) <= 3
    report(10, f"fk_kernel {est.value.real:.5f} vs density x oracle bridge means "
               f"{ref:.5f}, z = {z:+.2f} (|z| <= 3)")


def test_11_generator_convergence():
    sig = SigmaSequence.inverse_square()
    om = SimpleAdelicSB.vacuum()
    ladder = [1e-1, 1e-2, 1e-3]
    cases = [
        (om, SimplePotential.zero(), AdelicPoint.zero(), 1),
        (om, SimplePotential.of({2: (0.7, SBFunction.vacuum(2))}),
         AdelicPoint.resolved_zeros(1), 150_000),
        (om, SimplePotential.of({3: (0.4, SBFunction.vacuum(3))}),
         AdelicPoint.resolved_zeros(2), 150_000),
    ]
    orders_all = []
    for k, (alpha_f, v, x, n) in enumerate(cases):
        rep = generator_check(sig, 1.0, alpha_f, v, x, ladder, n_paths=n, N=6,
                              seed=9400 + k)
        for order in rep.orders:
            assert 0.7 <= order <= 1.3, (k, rep.orders, rep.errors)
        orders_all.extend(rep.orders)
    report(11, "finite differences converge at order "
               + ", ".join(f"{o:.3f}" for o in orders_all) + " (1.0 +/- 0.3)")


def test_12_reproducibility(run_chunks_calls):
    sig = SigmaSequence.inverse_square()
    # a non-vacuum factor at 2 keeps that prime sampled
    alpha_f = SimpleAdelicSB.of({2: SBFunction.indicator(Ball(ZERO2, -1))})
    vals = []
    for w in (1, 4, 8):
        req = FKRequest(sig, 1.0, 1.0, AdelicPoint.resolved_zeros(1), alpha_f,
                        SimplePotential.zero(), 20_000, 4, seed=9500,
                        workers=w, chunk_size=2048)
        vals.append(fk_expectation(req))
    assert len(run_chunks_calls) == 3
    assert vals[0].value == vals[1].value == vals[2].value
    assert vals[0].std_error == vals[1].std_error == vals[2].std_error

    # a potential at 2 keeps that prime sampled; 10,000 paths make three
    # chunks of the CLI's default size, so the workers have chunks to share
    runner = CliRunner()
    outputs = []
    with runner.isolated_filesystem():
        with open("pot.json", "w") as fh:
            json.dump({"components": [{"prime": 2, "tau": 0.5, "terms": [
                {"zero": True, "radius_exp": 0, "coeff": 1.0}]}]}, fh)
        for w in (1, 4, 8):
            res = runner.invoke(cli_main, [
                "fk", "--b", "1", "--t", "1", "--n-paths", "10000", "-N", "3",
                "--seed", "11", "--potential", "pot.json", "--workers", str(w),
                "-o", f"out_{w}.csv",
            ])
            assert res.exit_code == 0, res.output
            outputs.append(open(f"out_{w}.csv", "rb").read())
    assert len(run_chunks_calls) == 6
    assert outputs[0] == outputs[1] == outputs[2]
    report(12, "fk estimates and CLI outputs bit-identical for workers 1/4/8")
