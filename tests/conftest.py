"""Shared independent oracles for the test suite.

These deliberately avoid the library's series code paths: plain-Python
loops over the defining formulas, so agreement is a real cross-check.
"""

import math

import pytest


@pytest.fixture()
def run_chunks_calls(monkeypatch):
    """A list that grows by the plans of each call of feynman_kac._run_chunks,
    so a test can show that its request sampled rather than folded exactly,
    and what it sampled."""
    from adelic_diffusion import feynman_kac

    calls, real = [], feynman_kac._run_chunks

    def counting(req, plans):
        calls.append(plans)
        return real(req, plans)

    monkeypatch.setattr(feynman_kac, "_run_chunks", counting)
    return calls


def density_fourier_oracle(p, b, sigma, t, m_x, depth=400):
    """Radial density via Fourier-side shell quadrature.

    rho(t, x) = sum_m e^{-sigma t p^{mb}} shell(m, x) where the character
    integral over the sphere of radius p^m is p^m(1 - 1/p) for
    |x| <= p^{-m}, -p^{m-1} for |x| = p^{-m+1}, and 0 otherwise.
    """
    total = 0.0
    for m in range(-depth, depth):
        a = sigma * t * float(p) ** (m * b)
        w = math.exp(-a) if a < 700 else 0.0
        if m_x <= -m:
            shell = float(p) ** m * (1 - 1 / p)
        elif m_x == -m + 1:
            shell = -float(p) ** (m - 1)
        else:
            shell = 0.0
        total += w * shell
    return total


def sphere_mass_oracle(p, b, sigma, t, m, depth=800):
    """Sphere mass by direct summation of the telescoped series."""
    tot = 0.0
    for r in range(-m, -m - depth, -1):
        a1 = sigma * t * float(p) ** (r * b)
        a2 = sigma * t * float(p) ** ((r + 1) * b)
        e1 = math.exp(-a1) if a1 < 700 else 0.0
        e2 = math.exp(-a2) if a2 < 700 else 0.0
        tot += (e1 - e2) * float(p) ** r
    return tot * float(p) ** m * (1 - 1 / p)


def ball_mass_oracle(p, b, sigma, t, nu, shells=80):
    """Ball mass as a sum of sphere-mass oracles over m <= nu."""
    return sum(sphere_mass_oracle(p, b, sigma, t, m) for m in range(nu, nu - shells, -1))


def norm_sq_quadrature(p, b, tol=1e-20):
    """Radial quadrature of the squared multiplier norm on Z_p."""
    total, k = 0.0, 0
    while True:
        term = float(p) ** (-2 * b * k) * float(p) ** (-k) * (1 - 1 / p)
        total += term
        k += 1
        if term < tol:
            return total


def trapezoid_action(sk, tau, f):
    """The kernel estimator's trapezoid action on a digit-exact skeleton."""
    from adelic_diffusion.schwartz import eval_sb

    vals = [eval_sb(f, z).real for z in sk.values]
    return tau * sum((t1 - t0) * 0.5 * (v0 + v1) for t0, t1, v0, v1
                     in zip(sk.times, sk.times[1:], vals, vals[1:]))


def tv_distance(freqs_a: dict, freqs_b: dict) -> float:
    keys = set(freqs_a) | set(freqs_b)
    return 0.5 * sum(abs(freqs_a.get(k, 0.0) - freqs_b.get(k, 0.0)) for k in keys)


def fine_skeleton_exit_landings(params, T, steps, n, seed):
    """Independent oracle: radial exponent chain of a fine skeleton.

    Unit-invariance makes |X| Markov on exponents: an increment with a
    larger exponent replaces the position's, a smaller one leaves it, and
    an equal one drops it by an independent Geometric(1 - 1/p) (or keeps
    it with probability (p-2)/(p-1)).  Exact for any p, no digits needed.
    Returns the landing exponents of paths that exit the unit ball by T.
    """
    import numpy as np

    from adelic_diffusion import RngStream, increment_law

    p = params.p
    dt = T / steps
    law = increment_law(params, dt)
    cdf = np.cumsum(law.array / law.coverage())
    gen = RngStream(seed).generator()
    NEG = -(10**9)
    pos = np.full(n, NEG, dtype=np.int64)
    landing = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    stay_prob = (p - 2.0) / (p - 1.0)
    for _ in range(steps):
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        inc = np.searchsorted(cdf, gen.random(idx.size), side="right") + law.m_lo
        cur = pos[idx]
        new = np.maximum(cur, inc)
        coll = inc == cur
        if np.any(coll):
            c_idx = np.nonzero(coll)[0]
            stay = gen.random(c_idx.size) < stay_prob
            drop = gen.geometric(1.0 - 1.0 / p, size=c_idx.size)
            new[c_idx] = np.where(stay, cur[c_idx], cur[c_idx] - drop)
        pos[idx] = new
        exited = new >= 1
        landing[idx[exited]] = new[exited]
        alive[idx[exited]] = False
    return landing[landing >= 1]


def free_interval(fp):
    """The bracket [value * tail_lo_mult, value] of a FreePropagation's real part."""
    r = fp.value.real
    return min(r * fp.tail_lo_mult, r), max(r * fp.tail_lo_mult, r)


def adelic_ball_probability(sigma, b, t, balls, N):
    """P(X_t component-wise in the given balls, Z_p implicitly elsewhere).

    The free propagation from 0 of the product of the ball indicators:
    exact ball masses for primes 1..N, and the inactive tail contributes
    the bracket [e^{-t sum_{i>N} sigma_i}, 1].
    """
    from adelic_diffusion import AdelicPoint, SBFunction, SimpleAdelicSB, free_propagate

    alpha = SimpleAdelicSB.of({p: SBFunction.indicator(ball) for p, ball in balls.items()})
    x = AdelicPoint.resolved_zeros(N)
    return free_interval(free_propagate(sigma, b, t, alpha, x, N))


def semigroup_compose_free(sigma, b, s, t, alpha, x, N):
    """Analytic composition check: kernel_{s+t} * alpha vs the two-step
    radial convolution, both exact; discrepancy should sit at rounding."""
    from adelic_diffusion import SemigroupReport, free_propagate, radial_convolve, radial_law
    from adelic_diffusion.primes import prime_at

    direct = free_propagate(sigma, b, s + t, alpha, x, N).value.real
    composed = 1.0
    for i in range(1, N + 1):
        p = prime_at(i)
        params = sigma.kernel_params(i, b)
        law = radial_convolve(radial_law(params, s, coverage=1 - 1e-13),
                              radial_law(params, t, coverage=1 - 1e-13))
        xc = x.component(p)
        factor = 0.0
        for ball, coeff in alpha.factor(p).terms:
            d_exp = None if xc is None else (xc - ball.center).abs_exp()
            factor += coeff.real * law.ball_probability(d_exp, ball.radius_exp)
        composed *= factor
    return SemigroupReport(s, t, direct, composed, 0.0)


def occupation_series(params, t, start, terms):
    """int_0^t sum_j Re c_j P(X_s in B_j) ds from start, over (ball, coeff)
    terms, by quadrature of the heat-kernel series for each ball's mass."""
    from scipy.integrate import quad

    from adelic_diffusion import ball_kernel_mass

    total = 0.0
    for ball, coeff in terms:
        e = (start - ball.center).abs_exp()
        total += coeff.real * quad(lambda s: ball_kernel_mass(params, s, e, ball.radius_exp),
                                   0.0, t, epsabs=1e-14, epsrel=1e-13)[0]
    return total
