"""Exact finite-precision arithmetic in Q_p.

A scalar is p^valuation * u where u is a unit known modulo p^precision, so
the value is known modulo p^(valuation + precision).  Addition and negation
are exact up to the common known modulus; the ultrametric guarantees no
other precision loss.  Balls, Haar measures of balls and spheres, uniform
samplers on balls and spheres, and the rank-0 additive character live here
too, since everything downstream is built from them.

Batched samplers hold many values of one prime as integers in a window:
the window with coarse end p^coarse and `width` digits stores x as the
integer x * p^coarse mod p^width, so sums are exact integer sums, and
membership in a ball of radius p^r is divisibility by p^(coarse - r).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PrecisionError, PrimeMismatchError, ValuationRangeError
from .primes import is_prime
from .rng import as_generator

DEFAULT_PRECISION = 32
VALUATION_LIMIT = 2**20
# Known-modulus exponent assigned to the exact zero element.
_EXACT_ZERO_MOD = 4 * VALUATION_LIMIT


def _check_valuation(v: int) -> int:
    if abs(v) > VALUATION_LIMIT:
        raise ValuationRangeError(f"valuation {v} outside +/-{VALUATION_LIMIT}")
    return v


@dataclass(frozen=True)
class PAdicScalar:
    """Element of Q_p known modulo p^(valuation + precision).

    The zero element uses valuation None and stores its known-modulus
    exponent in `precision`; "zero" therefore means "indistinguishable from
    0 at the known modulus".
    """

    prime: int
    valuation: int | None
    significand: int
    precision: int

    def __post_init__(self):
        if self.valuation is None:
            if self.significand != 0:
                raise ValueError("zero element must have significand 0")
            return
        _check_valuation(self.valuation)
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if not 0 < self.significand < self.prime**self.precision:
            raise ValueError("significand out of range for precision")
        if self.significand % self.prime == 0:
            raise ValueError("non-canonical significand (leading digit 0)")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int, known_mod_exp: int = _EXACT_ZERO_MOD) -> "PAdicScalar":
        return cls(p, None, 0, known_mod_exp)

    @classmethod
    def from_digits(cls, p: int, valuation: int, digits, precision: int | None = None) -> "PAdicScalar":
        digits = [int(d) for d in digits]
        sig = 0
        for d in reversed(digits):
            sig = sig * p + d
        if sig == 0:
            return cls.zero(p, valuation + len(digits))
        return _normalised(p, valuation, sig, len(digits) if precision is None else precision)

    @classmethod
    def from_int(cls, n: int, p: int, precision: int = DEFAULT_PRECISION) -> "PAdicScalar":
        if n == 0:
            return cls.zero(p)
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return cls(p, v, n % p**precision, precision)

    @classmethod
    def from_rational(cls, q: Fraction, p: int, precision: int = DEFAULT_PRECISION) -> "PAdicScalar":
        q = Fraction(q)
        if q == 0:
            return cls.zero(p)
        num, den = q.numerator, q.denominator
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        sig = num * pow(den, -1, p**precision) % p**precision
        return cls(p, v, sig, precision)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.valuation is None

    @property
    def digits(self) -> tuple[int, ...]:
        """Base-p digits d_0..d_{K-1} of the unit part (empty for zero)."""
        if self.is_zero():
            return ()
        out, s = [], self.significand
        for _ in range(self.precision):
            s, d = divmod(s, self.prime)
            out.append(d)
        return tuple(out)

    def known_mod_exp(self) -> int:
        """Exponent M such that the value is known modulo p^M."""
        if self.is_zero():
            return self.precision
        return self.valuation + self.precision

    def abs(self) -> Fraction:
        """Exact p-adic absolute value |x| = p^(-valuation); 0 for zero."""
        if self.is_zero():
            return Fraction(0)
        return Fraction(self.prime) ** (-self.valuation)

    def abs_exp(self) -> int | None:
        """m with |x| = p^m, or None for the zero element."""
        return None if self.is_zero() else -self.valuation

    # -- arithmetic --------------------------------------------------------

    def _require_same_prime(self, other: "PAdicScalar"):
        if self.prime != other.prime:
            raise PrimeMismatchError(f"primes differ: {self.prime} vs {other.prime}")

    def __add__(self, other: "PAdicScalar") -> "PAdicScalar":
        self._require_same_prime(other)
        p = self.prime
        if self.valuation is None or other.valuation is None:
            x, z = (other, self) if self.valuation is None else (self, other)
            if x.valuation is None:
                return PAdicScalar.zero(p, min(self.precision, other.precision))
            mod = min(x.known_mod_exp(), z.known_mod_exp())
            if mod <= x.valuation:
                return PAdicScalar.zero(p, mod)
            prec = mod - x.valuation
            return PAdicScalar(p, x.valuation, x.significand % p**prec, prec)
        v = min(self.valuation, other.valuation)
        mod = min(self.valuation + self.precision, other.valuation + other.precision)
        total = (
            self.significand * p ** (self.valuation - v)
            + other.significand * p ** (other.valuation - v)
        ) % p ** (mod - v)
        if total == 0:
            return PAdicScalar.zero(p, mod)
        return _normalised(p, v, total, mod - v)

    def __neg__(self) -> "PAdicScalar":
        if self.is_zero():
            return self
        p, prec = self.prime, self.precision
        return PAdicScalar(p, self.valuation, p**prec - self.significand, prec)

    def __sub__(self, other: "PAdicScalar") -> "PAdicScalar":
        return self + (-other)

    def __mul__(self, other: "PAdicScalar") -> "PAdicScalar":
        self._require_same_prime(other)
        if self.is_zero() or other.is_zero():
            return PAdicScalar.zero(self.prime)
        prec = min(self.precision, other.precision)
        v = _check_valuation(self.valuation + other.valuation)
        sig = self.significand * other.significand % self.prime**prec
        return PAdicScalar(self.prime, v, sig, prec)

    def coset_key(self, radius_exp: int) -> Fraction:
        """Canonical representative of x modulo the ball p^(-radius_exp) Z_p.

        Two scalars lie in one ball of radius p^radius_exp iff their keys
        match.  Raises PrecisionError when the known modulus cannot resolve
        the coset.
        """
        m = -radius_exp
        if self.is_zero():
            if self.precision < m:
                raise PrecisionError("zero known too coarsely for this radius")
            return Fraction(0)
        if self.known_mod_exp() < m:
            raise PrecisionError("value known too coarsely for this radius")
        if self.valuation >= m:
            return Fraction(0)
        rep = self.significand % self.prime ** (m - self.valuation)
        return Fraction(rep) * Fraction(self.prime) ** self.valuation

    def __repr__(self):
        if self.is_zero():
            return f"PAdicScalar({self.prime}-adic 0)"
        shown = ",".join(str(d) for d in self.digits[:8])
        if self.precision > 8:
            shown += ",.."
        return f"PAdicScalar({self.prime}-adic, v={self.valuation}, digits={shown})"


def _normalised(p: int, valuation: int, sig: int, precision: int) -> PAdicScalar:
    """p^valuation * sig known to `precision` digits (sig != 0), with the
    factors of p in sig moved into the valuation."""
    while sig % p == 0:
        sig //= p
        valuation += 1
        precision -= 1
    return PAdicScalar(p, valuation, sig % p**precision, precision)


@dataclass(frozen=True)
class Ball:
    """Ball {|x - center| <= p^radius_exp}; Haar measure p^radius_exp."""

    center: PAdicScalar
    radius_exp: int

    @property
    def prime(self) -> int:
        return self.center.prime

    def measure(self) -> Fraction:
        return Fraction(self.prime) ** self.radius_exp

    def contains(self, x: PAdicScalar) -> bool:
        d = x - self.center
        if d.is_zero():
            if -d.precision > self.radius_exp:
                raise PrecisionError("membership undecidable at known modulus")
            return True
        return d.abs_exp() <= self.radius_exp

    def key(self) -> tuple[int, Fraction]:
        """(radius_exp, coset) pair identifying the ball as a set."""
        return self.radius_exp, self.center.coset_key(self.radius_exp)

    def subdivide(self) -> tuple["Ball", ...]:
        """The p disjoint child balls of radius p^(radius_exp - 1)."""
        p, r = self.prime, self.radius_exp
        kids = []
        for d0 in range(p):
            offset = (
                PAdicScalar.zero(p)
                if d0 == 0
                else PAdicScalar(p, -r, d0, DEFAULT_PRECISION)
            )
            kids.append(Ball(self.center + offset, r - 1))
        return tuple(kids)


def ball_measure(p: int, radius_exp: int) -> Fraction:
    return Fraction(p) ** radius_exp


def sphere_measure(p: int, radius_exp: int) -> Fraction:
    """Haar measure of {|x| = p^m}: p^m (1 - 1/p)."""
    return Fraction(p) ** radius_exp * (1 - Fraction(1, p))


def character(x: PAdicScalar) -> complex:
    """Rank-0 additive character chi(x) = exp(2 pi i {x}_p).

    {x}_p is the p-adic fractional part; chi is 1 on Z_p.
    """
    if x.is_zero() or x.valuation >= 0:
        return 1 + 0j
    m = -x.valuation
    if x.precision < m:
        raise PrecisionError("fractional part needs more digits than known")
    frac = Fraction(x.significand % x.prime**m, x.prime**m)
    return cmath.exp(2j * cmath.pi * float(frac))


def _unit_significand(gen: np.random.Generator, p: int, precision: int) -> int:
    lead = int(gen.integers(1, p))
    if precision == 1:
        return lead
    sig = 0
    for d in reversed(gen.integers(0, p, size=precision - 1).tolist()):
        sig = sig * p + d
    return sig * p + lead


def uniform_sphere(rng, p: int, radius_exp: int, precision: int = DEFAULT_PRECISION) -> PAdicScalar:
    """Uniform draw on the sphere {|x| = p^radius_exp} under normalized Haar.

    Leading digit uniform on 1..p-1, remaining digits uniform on 0..p-1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    gen = as_generator(rng)
    sig = _unit_significand(gen, p, precision)
    return PAdicScalar(p, _check_valuation(-radius_exp), sig, precision)


def uniform_ball(rng, p: int, ball: Ball, precision: int = DEFAULT_PRECISION) -> PAdicScalar:
    """Uniform draw on a ball: center + p^(-r) * (uniform Z_p element)."""
    gen = as_generator(rng)
    digits = gen.integers(0, p, size=precision)
    offset = PAdicScalar.from_digits(p, -ball.radius_exp, digits, precision)
    return ball.center + offset


def window_int(x: PAdicScalar, coarse: int, width: int) -> int:
    """x * p^coarse as an integer mod p^width, where every known digit of x
    must lie in the window (valuations -coarse .. width - coarse - 1)."""
    if x.is_zero():
        return 0
    shift = x.valuation + coarse
    if shift < 0 or shift + x.precision > width:
        raise ValueError(f"digits of {x!r} fall outside the window "
                         f"(coarse end p^{coarse}, {width} digits)")
    return x.significand * x.prime**shift


def window_ball(d: PAdicScalar, radius_exp: int, coarse: int) -> tuple[int, int] | bool:
    """(m, key) such that window integer w (coarse end p^coarse) lies in the
    ball B_radius_exp(d + origin) iff w % m == key; where the radius or |d|
    exceeds p^coarse, the one answer of the whole window, |d| <= p^radius_exp."""
    e = d.abs_exp()
    if radius_exp > coarse or (e is not None and e > coarse):
        return e is None or e <= radius_exp
    m = d.prime ** (coarse - radius_exp)
    # PrecisionError if d is known too coarsely for the radius
    return m, int(d.coset_key(radius_exp) * Fraction(d.prime) ** coarse) % m


def uniform_digits(gen: np.random.Generator, p: int, n: int, digits: int) -> np.ndarray:
    """n independent uniform draws from Z / p^digits, as an object array of
    Python ints; the digits come in int64 blocks of base p^k."""
    if digits <= 0:
        return np.zeros(n, dtype=object)
    k = 1
    while p ** (k + 1) < 2**62:
        k += 1
    blocks = gen.integers(0, p**k, size=(n, -(-digits // k)), dtype=np.int64)
    out = blocks[:, 0].astype(object)
    for j in range(1, blocks.shape[1]):
        out += blocks[:, j].astype(object) * p ** (k * j)
    return out % p**digits
