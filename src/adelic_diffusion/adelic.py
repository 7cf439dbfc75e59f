"""Adelic points, rate sequences and exit counts, truncated to finitely
many primes.

A diffusion rate sequence (sigma_i) with finite sum makes the adelic paths
a full-measure set, so a finite active-prime truncation plus a certificate
for the inactive tail is an honest representation: the certificate is the
guaranteed probability that every inactive component stays in Z_p over the
horizon.  Exit counts across primes are Poisson-binomial and computed by
exact dynamic programming with interval bounds for the dropped tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, SummabilityError
from .heat_kernel import KernelParams, alpha_pb
from .padic import PAdicScalar
from .primes import TABLE_SIZE, prime_at, prime_index
from .rng import RngStream

# Paths per (chunk, prime) stream in exit_count_samples; fixing it keeps the
# draws of prime i the same whatever the truncation N.
EXIT_COUNT_CHUNK = 8192


def _suffix(sigma: "SigmaSequence", term) -> tuple[float, ...]:
    """suffix[N] = rigorous upper bound on sum_{i > N} term(i), for a term
    dominated by sigma_i (alpha < 1 past the table)."""
    top = sigma.n_defined()
    beyond = 0.0
    if sigma.tail_coeff > 0:
        p_top = float(prime_at(TABLE_SIZE))
        s = sigma.tail_power
        beyond = sigma.tail_coeff * p_top ** (1.0 - s) / (s - 1.0)
    out = [beyond] * (top + 1)
    for i in range(top, 0, -1):
        out[i - 1] = out[i] + term(i)
    return tuple(out)


def _tail_at(suffix: tuple[float, ...], N: int) -> float:
    """suffix[N], with every N past the table reading the beyond-table tail."""
    if N < 0:
        raise ConfigError("truncation N must be nonnegative")
    return suffix[min(N, len(suffix) - 1)]


@lru_cache(maxsize=64)
def _beta_suffix(sigma: "SigmaSequence", b: float) -> tuple[float, ...]:
    """suffix[N] = rigorous upper bound on sum_{i > N} sigma_i alpha_i."""
    return _suffix(sigma, lambda i: sigma.beta(i, b))


@lru_cache(maxsize=64)
def _sigma_suffix(sigma: "SigmaSequence") -> tuple[float, ...]:
    """suffix[N] = rigorous upper bound on sum_{i > N} sigma_i."""
    return _suffix(sigma, sigma.sigma)


@dataclass(frozen=True)
class SigmaSequence:
    """Diffusion constants per prime: explicit head plus a summable tail rule.

    The tail rule assigns sigma_i = tail_coeff * p_i^(-tail_power) for all
    indices past the explicit list; tail_power > 1 keeps the total finite
    (prime sums are dominated by integer sums of the same power).
    """

    explicit: tuple[float, ...] = ()
    tail_coeff: float = 0.0
    tail_power: float = 2.0

    def __post_init__(self):
        if any(not s > 0 for s in self.explicit):
            raise SummabilityError("all diffusion constants must be positive")
        if self.tail_coeff < 0:
            raise SummabilityError("tail coefficient must be nonnegative")
        if self.tail_coeff > 0 and not self.tail_power > 1:
            raise SummabilityError(
                "tail rule p^(-s) needs s > 1 for a finite total rate"
            )

    @classmethod
    def inverse_square(cls) -> "SigmaSequence":
        """Canonical summable choice sigma_i = p_i^(-2)."""
        return cls(explicit=(), tail_coeff=1.0, tail_power=2.0)

    def sigma(self, i: int) -> float:
        """sigma for the i-th prime (1-based)."""
        if i <= len(self.explicit):
            return self.explicit[i - 1]
        if self.tail_coeff == 0.0:
            raise ConfigError(f"sigma requested past explicit list at index {i}")
        return self.tail_coeff * float(prime_at(i)) ** (-self.tail_power)

    def n_defined(self) -> int:
        return TABLE_SIZE if self.tail_coeff > 0 else len(self.explicit)

    def kernel_params(self, i: int, b: float) -> KernelParams:
        return KernelParams(prime_at(i), b, self.sigma(i))

    def sigma_tail_upper(self, N: int) -> float:
        """Rigorous upper bound on sum_{i > N} sigma_i.

        Beyond the prime table the tail rule is dominated by the integral
        C x^-s over x > p_top.
        """
        return _tail_at(_sigma_suffix(self), N)

    def sigma_total_upper(self) -> float:
        return self.sigma_tail_upper(0)

    def beta(self, i: int, b: float) -> float:
        """Exit rate of the i-th component from Z_p: sigma_i alpha_i."""
        return self.sigma(i) * alpha_pb(prime_at(i), b)

    def beta_tail_upper(self, N: int, b: float) -> float:
        """Upper bound on sum_{i > N} sigma_i alpha_i (alpha < 1 past table)."""
        return _tail_at(_beta_suffix(self, b), N)


@dataclass(frozen=True)
class AdelicPoint:
    """Finitely many resolved components; every other component is an
    unresolved element of Z_p ("unknown-in-Z_p")."""

    active: tuple[tuple[int, PAdicScalar], ...] = ()

    def __post_init__(self):
        seen = set()
        for p, x in self.active:
            if p in seen:
                raise ValueError(f"duplicate active prime {p}")
            if x.prime != p:
                raise ValueError("component prime mismatch")
            seen.add(p)

    @classmethod
    def zero(cls) -> "AdelicPoint":
        return cls()

    @classmethod
    def of(cls, components: dict[int, PAdicScalar]) -> "AdelicPoint":
        return cls(tuple(sorted(components.items())))

    @classmethod
    def resolved_zeros(cls, n_primes: int, **overrides: PAdicScalar) -> "AdelicPoint":
        """Exact zero components at the first n primes (kernel endpoints need
        resolved differences); keyword overrides replace single components,
        keyed as p2, p3, p5, ..."""
        comps = {prime_at(i): PAdicScalar.zero(prime_at(i)) for i in range(1, n_primes + 1)}
        for key, scalar in overrides.items():
            comps[int(key.lstrip("p"))] = scalar
        return cls.of(comps)

    def component(self, p: int) -> PAdicScalar | None:
        for q, x in self.active:
            if q == p:
                return x
        return None

    def active_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.active)

    def max_active_index(self) -> int:
        return max((prime_index(p) for p, _ in self.active), default=0)

    def agrees_with(self, other: "AdelicPoint") -> bool | None:
        """Componentwise comparison on resolved digits.

        False on any definite difference (two resolved components that
        differ within their common known modulus, or a resolved component
        outside Z_p against an unresolved one); True when every prime with
        any information is resolved on both sides and agrees; None when the
        comparison is indeterminate (some component is only known to lie in
        Z_p on one side).
        """
        definite = True
        for p in set(self.active_primes()) | set(other.active_primes()):
            a, b = self.component(p), other.component(p)
            if a is not None and b is not None:
                if not (a - b).is_zero():
                    return False
                continue
            known = a if a is not None else b
            e = known.abs_exp()
            if e is not None and e > 0:
                return False
            definite = False
        return True if definite else None


def component_difference(x: AdelicPoint, y: AdelicPoint, p: int):
    """Knowledge about x_p - y_p: a scalar, an |.| exponent, or None.

    Returns ('exact', scalar) when both sides are resolved, ('exp', m) when
    only the absolute value p^m is forced (one side resolved outside Z_p),
    and ('unit_ball', None) when all that is known is membership in Z_p.
    """
    a, b = x.component(p), y.component(p)
    if a is not None and b is not None:
        return ("exact", a - b)
    known = a if a is not None else b
    if known is None:
        return ("unit_ball", None)
    e = known.abs_exp()
    if e is not None and e > 0:
        return ("exp", e)
    return ("unit_ball", None)


def choose_truncation(sigma: SigmaSequence, b: float, T: float, eps: float) -> int:
    """Smallest N with certificate e^{-T sum_{i>N} sigma_i alpha_i} >= 1 - eps."""
    if not 0 < eps < 1:
        raise ConfigError("eps must be in (0, 1)")
    if T < 0:
        raise ConfigError("T must be nonnegative")
    budget = -math.log1p(-eps)
    for N, tail in enumerate(_beta_suffix(sigma, b)):
        if T * tail <= budget:
            return N
    raise ConfigError("tail rule cannot achieve eps within the prime table")


def tail_certificate(sigma: SigmaSequence, b: float, T: float, N: int) -> float:
    return math.exp(-T * sigma.beta_tail_upper(N, b))


def _check_exit_count(b: float, T: float, N: int) -> None:
    if not b > 0:
        raise ConfigError("exponent b must be positive")
    if not T >= 0:
        raise ConfigError("T must be nonnegative")
    if N < 0:
        raise ConfigError("truncation N must be nonnegative")


def exit_count_samples(sigma: SigmaSequence, b: float, T: float, N: int,
                       n: int, seed: int) -> np.ndarray:
    """n Monte Carlo draws of the exit count over primes 1..N.

    A component exits Z_p by T iff the first holding time of its event
    chain at resolution 0 is below T, i.e. an Exponential(beta_i) draw;
    only that first draw is simulated, vectorized per (chunk, prime)
    stream, so the law matches per-prime event paths exactly and the
    output is independent of scheduling.
    """
    _check_exit_count(b, T, N)
    rates = np.array([sigma.beta(i, b) for i in range(1, N + 1)])
    out = np.zeros(n, dtype=np.int64)
    base = RngStream(seed)
    start = 0
    chunk = 0
    while start < n:
        m = min(EXIT_COUNT_CHUNK, n - start)
        acc = np.zeros(m, dtype=np.int64)
        for i in range(N):
            gen = base.child(chunk, i).generator()
            first = gen.exponential(1.0 / rates[i], size=m)
            acc += first <= T
        out[start : start + m] = acc
        start += m
        chunk += 1
    return out


@dataclass(frozen=True)
class ExitCountDistribution:
    """Exact Poisson-binomial pmf of the exit count over primes 1..N, with
    interval bounds covering the dropped tail primes."""

    T: float
    qs: tuple[float, ...]
    pmf: tuple[float, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    tail_exit_bound: float

    def mean(self) -> float:
        return float(sum(self.qs))

    def variance(self) -> float:
        return float(sum(q * (1.0 - q) for q in self.qs))

    def moment(self, m: int) -> float:
        if m < 1:
            raise ConfigError("moment order must be >= 1")
        full = _poisson_binomial_pmf(self.qs, len(self.qs))
        return float(sum(k**m * w for k, w in enumerate(full)))


def _poisson_binomial_pmf(qs, k_max: int) -> np.ndarray:
    pmf = np.zeros(k_max + 1)
    pmf[0] = 1.0
    for q in qs:
        upper = pmf[:-1] * q
        pmf *= 1.0 - q
        pmf[1:] += upper
    return pmf


def exit_count_pmf(sigma: SigmaSequence, b: float, T: float, N: int,
                   k_max: int) -> ExitCountDistribution:
    """Exit-count pmf over primes 1..N with tail interval bounds.

    q_i = 1 - e^{-T beta_i}; the count is a sum of independent Bernoulli
    variables, so the pmf follows by dynamic programming.
    """
    _check_exit_count(b, T, N)
    if k_max < 0:
        raise ConfigError("k_max must be >= 0")
    qs = tuple(1.0 - math.exp(-T * sigma.beta(i, b)) for i in range(1, N + 1))
    pmf = _poisson_binomial_pmf(qs, min(k_max, N))
    if k_max > N:
        pmf = np.concatenate([pmf, np.zeros(k_max - N)])
    tail_beta = sigma.beta_tail_upper(N, b)
    none_tail = math.exp(-T * tail_beta)
    lo = pmf * none_tail
    hi = np.minimum(pmf + (1.0 - none_tail), 1.0)
    return ExitCountDistribution(
        T, qs, tuple(pmf.tolist()), tuple(lo.tolist()), tuple(hi.tolist()),
        1.0 - none_tail,
    )


def exit_count_factorial_bound(sigma: SigmaSequence, b: float, T: float,
                               k: int) -> float:
    """Upper bound P(N_T = k) < e^{-T beta} (e^{T beta})^k / k!."""
    beta = sigma.beta_tail_upper(0, b)
    return math.exp(-T * beta) * math.exp(T * beta) ** k / math.factorial(k)


def exit_count_moment(sigma: SigmaSequence, b: float, T: float, N: int,
                      m: int) -> tuple[float, float]:
    """(exact truncated m-th moment, analytic upper bound on the full moment).

    The bound for m = 1 is P(A) e^{T beta} e^{e^{T beta}}; higher orders use
    the corresponding factorial-series estimate.
    """
    if m < 1:
        raise ConfigError("moment order must be >= 1")
    dist = exit_count_pmf(sigma, b, T, N, N)
    exact = dist.moment(m)
    beta = sigma.beta_tail_upper(0, b)
    g = math.exp(T * beta)
    pa = math.exp(-T * beta)
    if m == 1:
        bound = pa * g * math.exp(g)
    else:
        head = sum(k**m * g**k / math.factorial(k) for k in range(1, m))
        bound = pa * (head + g**m * m**m / math.factorial(m) * math.exp(g))
    return exact, bound
