"""The event chain's means in closed form, against the heat-kernel series and
the Vladimirov operator, and kernel mode's bridge law and holding-time average."""

import math
from fractions import Fraction

import numpy as np
import pytest

from adelic_diffusion import Ball, PAdicScalar, SBFunction, SigmaSequence, vladimirov_apply
from adelic_diffusion import heat_kernel as hk
from adelic_diffusion.feynman_kac import _factor_convolution
from adelic_diffusion.heat_kernel import exit_rate
from adelic_diffusion.lumped import (
    _ball_means,
    dirichlet_average,
    event_means,
    wavelet_rate,
)
from adelic_diffusion.sampler import bridge_law

from conftest import occupation_series

SIG = SigmaSequence.inverse_square()
PRIMES = ((1, 2), (2, 3), (3, 5), (4, 7))


def _balls(p):
    """(start, observable, potential) cases at p: balls nested about the start,
    and balls off it around several centres, on the unit sphere, outside Z_p
    and one holding them all."""
    one, zero = PAdicScalar.from_int(1, p), PAdicScalar.zero(p)
    off = PAdicScalar.from_int(p + 1, p)            # |off - 1| = p^-1
    far = PAdicScalar.from_rational(Fraction(1, p), p)  # |far| = p
    nested = SBFunction(p, ((Ball(zero, -2), 1.0 + 0j), (Ball(zero, 0), 0.5 - 0.25j)))
    spread = SBFunction(p, ((Ball(one, -1), 1.0 + 0j), (Ball(off, -2), 2.0 + 0j),
                            (Ball(far, -1), 0.75 + 0.5j), (Ball(one, 0), 0.25 + 0j)))
    wide = SBFunction(p, ((Ball(PAdicScalar.from_int(p * p, p), 2), -0.5 + 0j),
                          (Ball(one, -1), 1.0 + 0j)))
    # balls of radius p^-3 within p^-1 of the start, one on it and one off it
    small = SBFunction(p, ((Ball(PAdicScalar.from_int(p * p, p), -3), 1.0 + 0j),))
    tiny = SBFunction(p, ((Ball(zero, -3), 1.0 + 0j),))
    return ((zero, nested, spread), (zero, spread, nested), (off, spread, wide),
            (far, wide, spread), (zero, small, tiny), (zero, tiny, small))


def _cases():
    for i, p in PRIMES:
        for start, f, v in _balls(p):
            for b in (1.0, 0.02):
                yield SIG.kernel_params(i, b), start, f, v
    # the complex observable and two-term potential at 3 of TestEventControl
    one, four = PAdicScalar.from_int(1, 3), PAdicScalar.from_int(4, 3)
    yield (SIG.kernel_params(2, 1.0), PAdicScalar.zero(3),
           SBFunction(3, ((Ball(four, -1), 0.5 - 0.25j), (Ball(PAdicScalar.zero(3), 0), 1.0 + 0.5j))),
           SBFunction(3, ((Ball(one, -1), 1.0 + 0j), (Ball(one, 0), 0.25 + 0j))))


def _r(f, v):
    return min(f.min_radius_exp(), v.min_radius_exp())


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_end_value_is_the_series_free_factor(t):
    for params, start, f, v in _cases():
        free, _ = event_means(params, t, start, _r(f, v), f.terms, v.terms)
        exact = _factor_convolution(params, t, f, start)
        assert abs(free - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_occupation_is_the_series_time_integral(t):
    for params, start, f, v in _cases():
        _, occupation = event_means(params, t, start, _r(f, v), f.terms, v.terms)
        exact = occupation_series(params, t, start, v.terms)
        assert abs(occupation - exact) <= 1e-10 * abs(exact)


def test_means_follow_the_rate_the_engine_draws_with(monkeypatch):
    # every rate of the chain scales with alpha, so alpha x 1.15 runs its clock 1.15 x faster
    params, start, f, v = next(_cases())
    t, r = 1.0, _r(f, v)
    fast = event_means(params, 1.15 * t, start, r, f.terms, v.terms)
    alpha = hk.alpha
    monkeypatch.setattr(hk, "alpha", lambda params: 1.15 * alpha(params))
    free, occupation = event_means(params, t, start, r, f.terms, v.terms)
    assert abs(free - fast[0]) <= 1e-12 * abs(free)
    assert abs(1.15 * occupation - fast[1]) <= 1e-12 * abs(occupation)


def _generator_value(params, r, ball, coeff, x):
    """(Q c 1_B)(x) by the wavelet expansion of 1_B, each wavelet at its rate."""
    p, rho, lam = params.p, ball.radius_exp, exit_rate(params, r)
    delta = (x - ball.center).abs_exp()
    if delta is None or delta <= rho:
        value = (1 - 1 / p) * sum(p ** (rho + 1 - l) * -wavelet_rate(params, lam, r, l)
                                  for l in range(rho + 1, rho + 200))
    else:
        value = p ** (rho - delta) * (wavelet_rate(params, lam, r, delta) - (p - 1) * sum(
            p ** (delta - l) * wavelet_rate(params, lam, r, l) for l in range(delta + 1, delta + 200)))
    return coeff * value


@pytest.mark.parametrize("b", [1.0, 1.5, 0.02])
def test_generator_is_the_vladimirov_operator(b):
    # Q f at the start against -sigma D f at the start, to 1e-12 absolute:
    # Q f sums rates of order sigma p^{-rb} that cancel
    for i, p in PRIMES:
        params = SIG.kernel_params(i, b)
        for start, f, v in _balls(p):
            r = _r(f, v)
            qf = sum(_generator_value(params, r, ball, c, start) for ball, c in f.terms)
            exact = -params.sigma * vladimirov_apply(params, f, start)
            assert abs(qf - exact) <= 1e-12


# -- kernel mode's event-chain bridge: pre-registered closed-form gates --------

# (p, sigma, r_V): the benchmark's rates at 2, 3 and 5, a slow prime 7 and a slow, coarse 2
BRIDGE_LAWS = ((2, 3.0, -1), (3, 4.0, 0), (5, 6.0, -1), (7, 0.5, 1), (2, 0.25, 2))


def _separations(r):
    """x = y, |y - x| inside B_r (below it and on it), and outside it."""
    return (None, r - 2, r, r + 1, r + 3)


@pytest.mark.parametrize("p, sigma, r", BRIDGE_LAWS)
def test_free_bridge_splits_the_density(p, sigma, r):
    # with V = 0 the no-jump part and the chain's part add up to rho_t(y - x)
    params = hk.KernelParams(p, 1.0, sigma)
    lam = exit_rate(params, r)
    for e in _separations(r):
        law = bridge_law(params, 1.0, r, e)
        chain = law.n_cum[-1] * float(p) ** -r
        rho = hk.density(params, 1.0, e) if e is not None else hk.density_center(params, 1.0)
        # the no-jump part, by the closed form of the small jumps' density summed
        # from its wavelets, e^{-lam t} p^-r plus sum_{l <= r} e^{-t sigma p^{-(l-1)b}} psi_l
        free = 0.0
        if e is None or e <= r:
            a = [math.exp(-sigma * float(p) ** -(l - 1)) for l in range(r - 60, r + 1)]
            free = math.exp(-lam) * float(p) ** -r + math.fsum(
                al * ((p - 1.0) * float(p) ** -l if e is None or l > e else -float(p) ** -l
                      if l == e else 0.0) for l, al in zip(range(r - 60, r + 1), a))
        assert (free + chain) / rho == pytest.approx(1.0, abs=1e-12), e
        assert law.share == pytest.approx(free / (free + chain), abs=1e-12)


@pytest.mark.parametrize("p, sigma, r", BRIDGE_LAWS)
def test_n_law_normaliser_is_the_ball_mean(p, sigma, r):
    # sum_{n >= 1} Pois(n; lam t) h_n(x) = P(X_t in B_r(y)) less the no-jump part
    params = hk.KernelParams(p, 1.0, sigma)
    lam = exit_rate(params, r)
    for e in _separations(r):
        law = bridge_law(params, 1.0, r, e)
        stay = math.exp(-lam) if law.start == 0 else 0.0
        assert law.n_cum[-1] + stay == pytest.approx(
            _ball_means(params, lam, 1.0, r, r, e)[0], rel=1e-12), e


@pytest.mark.parametrize("m, n, c", [(1, 1, 0.3), (3, 5, 1.0), (10, 20, 2.5), (40, 60, 7.0),
                                     (3, 7, 5000.0)])
def test_dirichlet_average_is_kummer(m, n, c):
    # a 0/1 potential: E e^{-c W}, W ~ Beta(m, n + 1 - m), is 1F1(m; n + 1; -c); at
    # c = 5000 the series takes about 5,200 terms, more than SERIES_MAX_TERMS
    from scipy.special import hyp1f1

    assert dirichlet_average(((-c, m), (0.0, n + 1 - m))) == pytest.approx(
        hyp1f1(m, n + 1, -c), rel=1e-12)


def test_dirichlet_average_of_three_values_by_monte_carlo():
    w = np.random.default_rng(1301).dirichlet(np.ones(9), size=400_000)
    draws = np.exp(-1.0 * w[:, :3].sum(axis=1) - 0.5 * w[:, 3:7].sum(axis=1))
    se = np.std(draws, ddof=1) / math.sqrt(len(draws))
    assert abs(dirichlet_average(((-1.0, 3), (-0.5, 4), (0.0, 2))) - np.mean(draws)) <= 4 * se

    # the terms reach e^800 before the e^-800 in front brings them back
    from scipy.special import hyp1f1

    assert dirichlet_average(((-800.0, 3), (0.0, 5))) == pytest.approx(hyp1f1(3, 8, -800.0),
                                                                       rel=1e-12)


def test_bridge_law_past_ten_thousand_jumps():
    # lam t = 10,923 at a ball of radius 2^-14: the n-law keeps the Poisson window
    # around lam t (fk_kernel's walk through the rows below it is checked against the
    # semigroup reference in test_feynman_kac.py).  The Poisson weights are formed from lgamma(n + 1), about 9e4 here, so they hold
    # about 1e-11, not 1e-12
    params = hk.KernelParams(2, 1.0, 1.0)
    r = -14
    lam = exit_rate(params, r)
    assert lam > 1e4
    for e in _separations(r):
        law = bridge_law(params, 1.0, r, e)
        assert law.lo > 1
        stay = math.exp(-lam) if law.start == 0 else 0.0
        assert law.n_cum[-1] + stay == pytest.approx(
            _ball_means(params, lam, 1.0, r, r, e)[0], rel=1e-9), e
