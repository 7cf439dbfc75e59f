"""Closed-form single-prime heat kernel: radial density, ball and sphere
masses, exit laws, first-exit overshoot law, and exact radial convolution.

The kernel of the diffusion generated by the exponent-b multiplier at rate
sigma is radial; on the sphere of radius p^m it equals

    density(t, m) = sum_{r <= -m} (e^{-sigma t p^{rb}} - e^{-sigma t p^{(r+1)b}}) p^r.

All series here have geometrically decaying positive terms with a closed
form tail bound, so truncation is decided rigorously rather than by
heuristics.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, TruncationError
from .primes import is_prime

_TINY = 1e-318
_EXP_UNDERFLOW = 745.0
_EXP_OVERFLOW = math.log(sys.float_info.max)
VALUATION_GUARD = 2**20


@dataclass(frozen=True)
class KernelParams:
    """One p-adic diffusion component: prime p, exponent b, rate sigma."""

    p: int
    b: float
    sigma: float

    def __post_init__(self):
        if not is_prime(self.p):
            raise ConfigError(f"p={self.p} is not prime")
        if not self.b > 0:
            raise ConfigError("exponent b must be positive")
        if not self.sigma > 0:
            raise ConfigError("diffusion constant sigma must be positive")


SERIES_REL_TOL = 1e-14
SERIES_MAX_TERMS = 4096


def _pow(p: int, x: float) -> float:
    """p**x with clamped over/underflow (exact limits 0 and inf)."""
    e = x * math.log(p)
    if e > _EXP_OVERFLOW:
        return math.inf
    if e < -_EXP_UNDERFLOW:
        return 0.0
    return math.exp(e)


def _decay(params: KernelParams, t: float, r: int) -> float:
    """e^{-sigma t p^{rb}}, clamped to exact limits."""
    a = params.sigma * t * _pow(params.p, r * params.b)
    if a == math.inf:
        return 0.0
    return math.exp(-a)


def alpha(params: KernelParams) -> float:
    """Exit-rate constant 1 - (p^b - 1)/(p^{b+1} - 1), strictly in (0, 1)."""
    return alpha_pb(params.p, params.b)


def alpha_pb(p: int, b: float) -> float:
    """alpha for prime p and exponent b, without building KernelParams."""
    return 1.0 - (_pow(p, b) - 1.0) / (_pow(p, b + 1.0) - 1.0)


def _series_down(params: KernelParams, t: float, r_start: int,
                 weight_exp_shift: float) -> float:
    """sum_{r <= r_start} p^{r + shift} (E(r) - E(r+1)), cut by a tail bound in logs."""
    p, b, sigma = params.p, params.b, params.sigma
    ratio = _pow(p, -(b + 1.0))
    log_coeff = math.log(sigma) + math.log(t) + math.log((_pow(p, b) - 1.0) / (1.0 - ratio))
    total = 0.0
    e_next = _decay(params, t, r_start + 1)
    r = r_start
    for _ in range(SERIES_MAX_TERMS):
        e_cur = _decay(params, t, r)
        total += (e_cur - e_next) * _pow(p, r + weight_exp_shift)
        log_tail = log_coeff + ((r - 1) * (b + 1.0) + weight_exp_shift) * math.log(p)
        if log_tail <= math.log(max(SERIES_REL_TOL * total, _TINY)):
            return total
        e_next = e_cur
        r -= 1
    raise TruncationError(
        f"radial series did not converge within {SERIES_MAX_TERMS} terms"
    )


def _r_all_terms(params: KernelParams, t: float) -> int:
    """r above which e^{-sigma t p^{rb}} underflows to exactly 0."""
    st = params.sigma * t
    if st >= _EXP_UNDERFLOW:
        return 2
    return int(math.ceil(math.log(_EXP_UNDERFLOW / st) / (params.b * math.log(params.p)))) + 2


@lru_cache(maxsize=1 << 18)
def _density_cached(params: KernelParams, t: float, m: int) -> float:
    r_start = min(-m, _r_all_terms(params, t))
    return _series_down(params, t, r_start, 0.0)


def density(params: KernelParams, t: float, m: int) -> float:
    """Kernel value on the sphere {|x| = p^m} at time t (radial density)."""
    if not t > 0:
        raise ConfigError("t must be positive")
    return _density_cached(params, t, m)


def density_center(params: KernelParams, t: float) -> float:
    """Kernel value at the origin, the supremum of the density."""
    if not t > 0:
        raise ConfigError("t must be positive")
    return _series_down(params, t, _r_all_terms(params, t), 0.0)


@lru_cache(maxsize=1 << 18)
def _ball_mass_cached(params: KernelParams, t: float, nu: int) -> float:
    head = _decay(params, t, -nu)
    r_start = min(-nu - 1, _r_all_terms(params, t))
    return head + _series_down(params, t, r_start, float(nu))


def ball_mass(params: KernelParams, t: float, nu: int) -> float:
    """Mass of the ball {|x| <= p^nu} under the time-t kernel.

    Equals e^{-sigma t p^{-nu b}} plus the deeper-shell series; always at
    least e^{-sigma t p^{-nu b}}.
    """
    if not t > 0:
        raise ConfigError("t must be positive")
    return _ball_mass_cached(params, t, nu)


def sphere_mass(params: KernelParams, t: float, m: int) -> float:
    """Mass of the sphere {|x| = p^m}: density(t, m) * p^m (1 - 1/p), or, where
    the density is subnormal or p^m overflows, its series with p^m inside."""
    mu = _pow(params.p, m) * (1.0 - 1.0 / params.p)
    rho = density(params, t, m)
    if rho >= sys.float_info.min and mu < math.inf:
        return rho * mu
    r_start = min(-m, _r_all_terms(params, t))
    return _series_down(params, t, r_start, float(m)) * (1.0 - 1.0 / params.p)


def ball_kernel_mass(params: KernelParams, t: float, center_exp: int | None,
                     r: int) -> float:
    """Mass the time-t kernel started at 0 assigns to a ball B_r(c).

    center_exp is the exponent of |c| (None for c = 0).  For |c| <= p^r the
    ball coincides with B_r(0); otherwise every point of the ball sits on
    the sphere of radius |c|, where the density is constant.
    """
    if center_exp is None or center_exp <= r:
        return ball_mass(params, t, r)
    return density(params, t, center_exp) * _pow(params.p, r)


def sphere_ball_share(p: int, r: int, e: int) -> float:
    """Haar share p^(r-e) p/(p-1) of the sphere {|x| = p^e} that a ball of
    radius p^r (r < e) lying on it fills."""
    return _pow(p, r - e) * p / (p - 1.0)


def exit_prob(params: KernelParams, T: float, r: int) -> float:
    """P(sup_{s <= T} |X_s| <= p^r) = e^{-sigma alpha T p^{-rb}}."""
    if T < 0:
        raise ConfigError("T must be nonnegative")
    a = params.sigma * alpha(params) * T * _pow(params.p, -r * params.b)
    return math.exp(-a) if a != math.inf else 0.0


def exit_rate(params: KernelParams, r: int) -> float:
    """First-exit rate of the ball of radius p^r: sigma alpha p^{-rb}."""
    return params.sigma * alpha(params) * _pow(params.p, -r * params.b)


def overshoot_law(params: KernelParams, r: int, k: int) -> float:
    """P(first exit from a radius-p^r ball lands on the sphere p^{r+k}).

    Geometric in k >= 1 with ratio p^{-b}; independent of r.  This is the
    unique landing law consistent with the exponential exit times at every
    coarser radius.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = _pow(params.p, -params.b)
    return (1.0 - q) * q ** (k - 1)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RadialLaw:
    """Radial law over spheres p^m, m in [m_lo, m_hi], plus deep-ball rest.

    masses[m - m_lo] is the sphere mass at exponent m; bottom_mass is the
    mass of the ball {|x| <= p^(m_lo - 1)}; top_loss of the window's
    complement above m_hi.
    """

    p: int
    m_lo: int
    m_hi: int
    masses: tuple[float, ...]
    bottom_mass: float
    top_loss: float

    def __post_init__(self):
        assert len(self.masses) == self.m_hi - self.m_lo + 1

    @cached_property
    def array(self) -> np.ndarray:
        """The sphere masses, built once per law (read-only)."""
        return _frozen(np.asarray(self.masses))

    @cached_property
    def _cumulative(self) -> np.ndarray:
        return _frozen(np.cumsum(self.array))

    def mass(self, m: int) -> float:
        if self.m_lo <= m <= self.m_hi:
            return self.masses[m - self.m_lo]
        return 0.0

    def coverage(self) -> float:
        return float(np.sum(self.array))

    def cdf(self) -> np.ndarray:
        """Cumulative sphere masses, built once per law (read-only)."""
        return self._cumulative

    def sample_exponents(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """Sphere exponents from the window law renormalized to mass one."""
        c = self.cdf()
        u = gen.random(n) * c[-1]
        return np.searchsorted(c, u, side="right") + self.m_lo


def radial_law(params: KernelParams, t: float,
               coverage: float = 1.0 - 1e-12) -> RadialLaw:
    """Sphere-mass window covering at least `coverage` of the time-t kernel."""
    if not t > 0:
        raise ConfigError("t must be positive")
    eps = (1.0 - coverage) / 2.0
    p, b = params.p, params.b

    rate = params.sigma * alpha(params) * t
    log_ratio = math.log(max(rate, _TINY)) - math.log(max(eps, _TINY))  # rate / eps overflows
    m = max(0, math.ceil(log_ratio / (b * math.log(p))))
    for _ in range(SERIES_MAX_TERMS):
        if 1.0 - ball_mass(params, t, m) <= eps:
            break
        m += 1
    else:
        raise TruncationError("could not find upper truncation radius")
    while m > -VALUATION_GUARD and 1.0 - ball_mass(params, t, m - 1) <= eps:
        m -= 1
    m_hi = m

    target = math.log(1.0 / max(eps, _TINY)) / (params.sigma * t)
    m = min(m_hi, -int(math.floor(math.log(max(target, 1e-300)) / (b * math.log(p)))))
    for _ in range(SERIES_MAX_TERMS):
        if ball_mass(params, t, m - 1) <= eps:
            break
        m -= 1
        if m < -VALUATION_GUARD:
            raise TruncationError(
                "truncation window cannot reach requested coverage within valuation range"
            )
    else:
        raise TruncationError("could not find lower truncation radius")
    while m + 1 <= m_hi and ball_mass(params, t, m) <= eps:
        m += 1
    m_lo = m

    masses = tuple(sphere_mass(params, t, j) for j in range(m_lo, m_hi + 1))
    bottom = ball_mass(params, t, m_lo - 1)
    top = max(1.0 - ball_mass(params, t, m_hi), 0.0)
    return RadialLaw(params.p, m_lo, m_hi, masses, bottom, top)


@lru_cache(maxsize=512)
def cached_radial_law(params: KernelParams, t: float) -> RadialLaw:
    return radial_law(params, t)


def radial_convolve(u: RadialLaw, v: RadialLaw) -> RadialLaw:
    """Exact radial law of X + Y for independent radial X ~ u, Y ~ v.

    Ultrametric classes: |x + y| = max(|x|, |y|) off the diagonal; on the
    diagonal |x| = |y| = p^a the sum lands on p^e (e < a) with probability
    p^{e-a} and stays on p^a with probability (p-2)/(p-1).
    """
    if u.p != v.p:
        raise ValueError("laws live over different primes")
    p = u.p
    lo = min(u.m_lo, v.m_lo)
    hi = max(u.m_hi, v.m_hi)
    n = hi - lo + 1
    U = np.zeros(n)
    V = np.zeros(n)
    U[u.m_lo - lo : u.m_hi - lo + 1] = u.array
    V[v.m_lo - lo : v.m_hi - lo + 1] = v.array

    U_below = u.bottom_mass + np.concatenate(([0.0], np.cumsum(U)[:-1]))
    V_below = v.bottom_mass + np.concatenate(([0.0], np.cumsum(V)[:-1]))

    diag = U * V
    # G[e] = sum_{a > e} U[a] V[a] p^{e-a}
    G = np.zeros(n)
    acc = 0.0
    for i in range(n - 1, -1, -1):
        G[i] = acc
        acc = (acc + diag[i]) / p
    W = U * V_below + V * U_below + diag * ((p - 2.0) / (p - 1.0)) + G

    # Diagonal mass landing below the window: sum_a diag[a] p^{lo-a}/(p-1),
    # and acc = sum_a diag[a] p^{lo-1-a} after the scan above.
    bottom = u.bottom_mass * v.bottom_mass + acc * p / (p - 1.0)
    return RadialLaw(p, lo, hi, tuple(W.tolist()), bottom, u.top_loss + v.top_loss)
