"""p-adic scalars: arithmetic, absolute value, character, Haar samplers."""

import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adelic_diffusion import (
    Ball,
    PAdicScalar,
    PrecisionError,
    PrimeMismatchError,
    RngStream,
    ValuationRangeError,
    ball_measure,
    character,
    sphere_measure,
    uniform_ball,
    uniform_sphere,
)
from adelic_diffusion.padic import _unit_significand

PRIMES = [2, 3, 5, 7]


def scalars(p, min_val=-6, max_val=6):
    @st.composite
    def build(draw):
        v = draw(st.integers(min_val, max_val))
        sig = draw(st.integers(1, p**8 - 1).filter(lambda s: s % p != 0))
        return PAdicScalar(p, v, sig, 8)

    return build()


class TestArithmetic:
    def test_add_carry_base3(self):
        s = PAdicScalar.from_int(1, 3) + PAdicScalar.from_int(2, 3)
        assert s.valuation == 1 and s.digits[0] == 1
        assert s.abs() == Fraction(1, 3)

    def test_add_identity(self):
        x = PAdicScalar.from_int(42, 5)
        assert (x + PAdicScalar.zero(5)) == x

    def test_add_ultrametric_strict_drop(self):
        s = PAdicScalar.from_int(1, 2) + PAdicScalar.from_int(1, 2)
        assert s.abs() == Fraction(1, 2) < Fraction(1)

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatchError):
            PAdicScalar.from_int(1, 2) + PAdicScalar.from_int(1, 3)

    def test_sub_self_is_zero(self):
        x = PAdicScalar.from_int(10, 3)
        assert (x - x).is_zero()

    def test_valuation_clamp(self):
        with pytest.raises(ValuationRangeError):
            PAdicScalar(2, 2**20 + 1, 1, 4)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_add_matches_integer_arithmetic(self, data):
        p = data.draw(st.sampled_from(PRIMES))
        a = data.draw(st.integers(-(10**6), 10**6))
        b = data.draw(st.integers(-(10**6), 10**6))
        s = PAdicScalar.from_int(a, p, 24) + PAdicScalar.from_int(b, p, 24)
        expect = PAdicScalar.from_int(a + b, p, 12)
        if expect.is_zero():
            assert s.is_zero()
        else:
            assert s.valuation == expect.valuation
            assert s.digits[:8] == expect.digits[:8]


class TestAbs:
    def test_prime_square(self):
        assert PAdicScalar.from_int(9, 3).abs() == Fraction(1, 9)

    def test_zero(self):
        assert PAdicScalar.zero(7).abs() == 0

    def test_unit(self):
        x = PAdicScalar.from_int(3, 2)
        assert x.digits[:2] == (1, 1) and x.abs() == 1

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_ultrametric(self, data):
        p = data.draw(st.sampled_from(PRIMES))
        x = data.draw(scalars(p))
        y = data.draw(scalars(p))
        s = x + y
        bound = max(x.abs(), y.abs())
        assert s.abs() <= bound
        if x.abs() != y.abs():
            assert s.abs() == bound

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_abs_multiplicative(self, data):
        p = data.draw(st.sampled_from(PRIMES))
        x = data.draw(scalars(p))
        y = data.draw(scalars(p))
        assert (x * y).abs() == x.abs() * y.abs()


class TestMeasures:
    def test_ball_sphere_additivity_exact(self):
        for p in PRIMES:
            for r in range(-10, 11):
                assert ball_measure(p, r) == ball_measure(p, r - 1) + sphere_measure(p, r)

    def test_unit_ball_normalized(self):
        assert ball_measure(5, 0) == 1


class TestCharacter:
    def test_integers_map_to_one(self):
        for n in (0, 1, 7, 81):
            for p in PRIMES:
                assert character(PAdicScalar.from_int(n, p)) == 1

    def test_half_in_q2(self):
        val = character(PAdicScalar.from_rational(Fraction(1, 2), 2))
        assert abs(val - (-1.0)) < 1e-12

    def test_additivity_random_pairs(self):
        gen = RngStream(314).generator()
        for p in PRIMES:
            for _ in range(50):
                x = uniform_sphere(gen, p, int(gen.integers(1, 5)), 16)
                y = uniform_sphere(gen, p, int(gen.integers(1, 5)), 16)
                assert abs(character(x + y) - character(x) * character(y)) < 1e-10

    def test_conjugate_inverse(self):
        gen = RngStream(217).generator()
        for _ in range(50):
            x = uniform_sphere(gen, 3, 3, 12)
            assert abs(character(x) * character(-x) - 1) < 1e-12

    def test_needs_digits(self):
        with pytest.raises(PrecisionError):
            character(PAdicScalar(2, -8, 1, 4))


class TestUniformSphere:
    def test_norm_exact(self):
        gen = RngStream(9).generator()
        for p in PRIMES:
            for _ in range(100):
                r = int(gen.integers(-4, 5))
                assert uniform_sphere(gen, p, r, 8).abs() == Fraction(p) ** r

    def test_unit_sphere_membership_p2(self):
        gen = RngStream(10).generator()
        for _ in range(200):
            x = uniform_sphere(gen, 2, 0, 8)
            assert x.abs() == 1 and x.digits[0] == 1

    def test_leading_digit_frequencies(self):
        gen = RngStream(11).generator()
        n, p = 20000, 5
        counts = np.zeros(p)
        for _ in range(n):
            counts[uniform_sphere(gen, p, 0, 4).digits[0]] += 1
        assert counts[0] == 0
        freq = counts[1:] / n
        assert np.all(np.abs(freq - 1 / (p - 1)) < 5 * math.sqrt(0.25 / n) + 0.01)


class TestUniformBall:
    def test_membership(self):
        gen = RngStream(12).generator()
        for p in (2, 5):
            center = PAdicScalar.from_int(7, p)
            ball = Ball(center, -2)
            for _ in range(100):
                assert ball.contains(uniform_ball(gen, p, ball, 10))

    def test_translate_invariance_by_construction(self):
        c1 = PAdicScalar.from_int(0, 3)
        c2 = PAdicScalar.from_int(11, 3)
        draws1 = [
            uniform_ball(RngStream(77).child(k), 3, Ball(c1, 1), 8) for k in range(20)
        ]
        draws2 = [
            uniform_ball(RngStream(77).child(k), 3, Ball(c2, 1), 8) for k in range(20)
        ]
        for a, b in zip(draws1, draws2):
            assert (a - c1) == (b - c2)

    def test_digit_frequencies(self):
        gen = RngStream(13).generator()
        p, n = 3, 15000
        ball = Ball(PAdicScalar.zero(p), 0)
        counts = np.zeros(p)
        for _ in range(n):
            x = uniform_ball(gen, p, ball, 6)
            d0 = 0
            if not x.is_zero() and x.valuation == 0:
                d0 = x.digits[0]
            counts[d0] += 1
        assert np.all(np.abs(counts / n - 1 / p) < 0.02)


class TestRngStream:
    def test_value_semantics(self):
        a = RngStream(42, (1, 2)).generator().random(5)
        b = RngStream(42, (1, 2)).generator().random(5)
        assert np.array_equal(a, b)

    def test_children_independent_of_order(self):
        r = RngStream(7)
        first = r.child(3).generator().random()
        _ = r.child(4).generator().random()
        again = r.child(3).generator().random()
        assert first == again

    def test_coset_key_resolves_balls(self):
        x = PAdicScalar.from_int(5, 2, 16)
        y = PAdicScalar.from_int(13, 2, 16)  # 5 + 8 = 13: same ball radius 1/8? no: differ by 8
        assert x.coset_key(-2) != PAdicScalar.from_int(6, 2, 16).coset_key(-2)
        assert x.coset_key(-3) == y.coset_key(-3)


# -- the integer core against the digit-list model it replaced ---------------


def ref_digits(n, p, count):
    out = []
    for _ in range(count):
        n, d = divmod(n, p)
        out.append(d)
    return out


def ref_from_digits(p, valuation, digits, precision=None):
    digits = tuple(int(d) for d in digits)
    sig = reduce(lambda acc, d: acc * p + d, reversed(digits), 0)
    if sig == 0:
        return PAdicScalar.zero(p, valuation + len(digits))
    shift = 0
    while sig % p == 0:
        sig //= p
        shift += 1
    prec = (precision if precision is not None else len(digits)) - shift
    return PAdicScalar(p, valuation + shift, sig % p**prec, prec)


def ref_add(a, b):
    """Sum by way of a digit list: the reference model of __add__."""
    p = a.prime
    if a.is_zero() or b.is_zero():
        x, z = (b, a) if a.is_zero() else (a, b)
        if x.is_zero():
            return PAdicScalar.zero(p, min(a.precision, b.precision))
        mod = min(x.known_mod_exp(), z.known_mod_exp())
        if mod <= x.valuation:
            return PAdicScalar.zero(p, mod)
        prec = mod - x.valuation
        sig = x.significand % p**prec
        return ref_from_digits(p, x.valuation, ref_digits(sig, p, prec), prec)
    v = min(a.valuation, b.valuation)
    mod = min(a.known_mod_exp(), b.known_mod_exp())
    prec = mod - v
    total = (
        a.significand * p ** (a.valuation - v) + b.significand * p ** (b.valuation - v)
    ) % p**prec
    if total == 0:
        return PAdicScalar.zero(p, mod)
    return ref_from_digits(p, v, ref_digits(total, p, prec), prec)


def fields(x):
    return x.prime, x.valuation, x.significand, x.precision


@st.composite
def operand(draw, p):
    """Nonzero scalars of mixed valuation and precision, exact zero, coarse zero."""
    kind = draw(st.sampled_from(["unit", "unit", "unit", "exact_zero", "coarse_zero"]))
    if kind == "exact_zero":
        return PAdicScalar.zero(p)
    if kind == "coarse_zero":
        return PAdicScalar.zero(p, draw(st.integers(-8, 12)))
    prec = draw(st.integers(1, 10))
    sig = draw(st.integers(1, p**prec - 1).filter(lambda s: s % p != 0))
    return PAdicScalar(p, draw(st.integers(-6, 6)), sig, prec)


@st.composite
def operand_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    a = draw(operand(p))
    shape = draw(st.sampled_from(["independent", "cancel", "near_cancel"]))
    if shape == "independent":
        return a, draw(operand(p))
    if shape == "cancel":
        return a, -a
    return a, ref_add(-a, draw(operand(p)))


class TestIntegerCore:
    @settings(max_examples=400, deadline=None)
    @given(operand_pairs())
    def test_add_and_sub_match_digit_model(self, pair):
        a, b = pair
        assert fields(a + b) == fields(ref_add(a, b))
        assert fields(b + a) == fields(ref_add(b, a))
        assert fields(a - b) == fields(ref_add(a, -b))

    @pytest.mark.parametrize("p", PRIMES)
    def test_full_cancellation_keeps_known_modulus(self, p):
        a = PAdicScalar(p, -2, p + 1, 6)
        assert fields(a - a) == fields(ref_add(a, -a)) == (p, None, 0, 4)
        coarse = PAdicScalar.zero(p, -2)
        assert fields(a + coarse) == fields(ref_add(a, coarse)) == (p, None, 0, -2)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(PRIMES), st.integers(-6, 6),
           st.lists(st.integers(0, 6), min_size=1, max_size=12), st.integers(0, 4),
           st.booleans())
    def test_from_digits_round_trips_digits(self, p, v, raw, extra, explicit):
        digits = [d % p for d in raw]
        precision = len(digits) + extra if explicit else None
        x = PAdicScalar.from_digits(p, v, digits, precision)
        assert fields(x) == fields(ref_from_digits(p, v, digits, precision))
        if not any(digits):
            assert x.is_zero() and x.known_mod_exp() == v + len(digits)
            return
        lead = next(k for k, d in enumerate(digits) if d)
        assert x.valuation == v + lead
        assert x.digits == tuple(digits[lead:]) + (0,) * extra * explicit
        assert PAdicScalar.from_digits(p, x.valuation, x.digits) == x

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(PRIMES), st.integers(1, 40), st.integers(0, 2**32))
    def test_unit_significand_matches_reduce_composition(self, p, precision, seed):
        g_new, g_old = RngStream(seed).generator(), RngStream(seed).generator()
        lead = int(g_old.integers(1, p))
        expect = lead
        if precision > 1:
            rest = g_old.integers(0, p, size=precision - 1)
            expect = reduce(lambda acc, d: acc * p + int(d), rest[::-1], 0) * p + lead
        assert _unit_significand(g_new, p, precision) == expect
        assert g_new.random() == g_old.random()
