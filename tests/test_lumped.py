"""The event chain's means in closed form, against the heat-kernel series and
the Vladimirov operator."""

from fractions import Fraction

import pytest

from adelic_diffusion import Ball, PAdicScalar, SBFunction, SigmaSequence, vladimirov_apply
from adelic_diffusion import heat_kernel as hk
from adelic_diffusion.feynman_kac import _factor_convolution
from adelic_diffusion.heat_kernel import exit_rate
from adelic_diffusion.lumped import event_means, wavelet_rate

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
