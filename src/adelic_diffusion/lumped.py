"""The semigroup side of an event path, from the chain's own rates in closed form.

An event path at resolution p^r (sampler.event_path_sums) leaves its ball
B_r(X) at rate lam = exit_rate(r) and lands uniformly on the sphere
|y - X| = p^{r+k}, with k >= 1 geometric, P(k) = (1 - q) q^{k-1} and
q = p^{-b}.  On functions constant on the balls B_r its generator Q has the
ball wavelets as eigenfunctions (Albeverio-Karwowski 1994; Kochubei 2001):
a function carried by a ball B_l(c), l > r, constant on its p children and
of mean zero, has

    Q psi = -mu_l psi,  mu_l = lam q^{l-r-1} (p - q) / (p - 1),

since a jump that reaches the sphere p^l leaves the child for the rest of
B_l, one that goes further averages psi to zero, and a shorter one keeps
psi's value.  A ball's indicator is a sum of such wavelets,
1_{B_rho(c)} = p^rho sum_{l > rho} (g_{l-1} - g_l) with g_l = p^{-l} 1_{B_l(c)},
so for any h, read at x with |x - c| = p^delta,

    h(Q) 1_B(x) = (1 - 1/p) sum_{l > rho} p^{rho+1-l} h(-mu_l)          x in B,
                = p^{rho-delta} (H_delta - (p - 1) sum_{l > delta} p^{delta-l} H_l)
                                                                    otherwise,

with H_l = h(0) - h(-mu_l) (the wavelets off B sum to zero).  h(z) = e^{tz}
gives E 1_B(X_t), and h(z) = (e^{tz} - 1)/z its time integral.  Both sums
have nonnegative terms, and what follows a term is at most its weight times
h(0) (x in B), or times that term's H (off B, as H falls in l), so a sum
stops where that bound is below TAIL_TOL of it: no space is truncated, no
matrix is formed, and any b > 0 works.

One jump acts on the wavelet as 1 - mu_l/lam, so h(z) = (1 + z/lam)^n gives
the chance that the n-th jump ends in B, which conditions kernel mode's bridges.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import TruncationError
from .heat_kernel import SERIES_MAX_TERMS, KernelParams, exit_rate
from .padic import PAdicScalar

TAIL_TOL = 1e-17  # a sum stops where a bound on its rest is below this share of it


def event_means(params: KernelParams, t: float, start: PAdicScalar, r: int,
                end_terms, action_terms) -> tuple[complex, float]:
    """(E f(X_t), E int_0^t Re v(X_s) ds) for the event path from start at
    resolution p^r, with f and v the sums of end_terms and action_terms,
    (ball, coeff) pairs of radius at least p^r."""
    # the rate is an argument so that the cache follows the rate the engine draws with
    lam = exit_rate(params, r)

    def means(terms):
        for ball, coeff in terms:
            delta = (ball.center - start).abs_exp()
            yield coeff, _ball_means(params, lam, t, r, ball.radius_exp, delta)

    return (sum((c * end for c, (end, _) in means(end_terms)), 0j),
            sum((c.real * occupation for c, (_, occupation) in means(action_terms)), 0.0))


def wavelet_rate(params: KernelParams, lam: float, r: int, l: int) -> float:
    """mu_l, the decay rate under the resolution-p^r chain (exit rate lam) of a
    wavelet carried by a ball of radius p^l, l > r."""
    q = params.p ** -params.b  # the overshoot ratio sampler.sample_overshoot draws with
    return lam * q ** (l - r - 1) * (params.p - q) / (params.p - 1)


@lru_cache(maxsize=1024)
def _ball_means(params: KernelParams, lam: float, t: float, r: int, rho: int,
                delta: int | None) -> tuple[float, float]:
    """(E 1_B(X_t), int_0^t E 1_B(X_s) ds) for B = B_rho(c) and a start x with
    |x - c| = p^delta (None: x = c)."""
    p = params.p
    inside = delta is None or delta <= rho
    first = rho + 1 if inside else delta
    # inside: sums of p^-n h(-mu_{first+n}), each term below p^-n h(0); off B:
    # the same of H_{first+n}, with the rest below the last term
    sums = [0.0, 0.0]
    for n in range(SERIES_MAX_TERMS):
        y = t * wavelet_rate(params, lam, r, first + n)
        if inside:  # e^{-y}, and t (1 - e^{-y}) / y
            terms = (math.exp(-y), -t * math.expm1(-y) / y if y > 0.0 else t)
        else:       # 1 - e^{-y}, and t (e^{-y} - 1 + y) / y
            terms = (-math.expm1(-y), t * y * _phi2(y))
        w = float(p) ** -n
        for k, h in enumerate(terms):
            sums[k] += w * h if n == 0 or inside else -(p - 1) * w * h
        rest = (w / (p - 1), w * t / (p - 1)) if inside else (w * terms[0], w * terms[1])
        if all(e <= TAIL_TOL * s for e, s in zip(rest, sums)):
            break
    else:
        raise TruncationError(f"wavelet series did not converge within {SERIES_MAX_TERMS} terms")
    scale = 1.0 - 1.0 / p if inside else float(p) ** (rho - delta)
    return scale * sums[0], scale * sums[1]


def _phi2(y: float) -> float:
    """(e^{-y} - 1 + y) / y^2 for y >= 0, by its series where the closed form cancels."""
    if y > 0.5:
        return (math.expm1(-y) + y) / (y * y)
    total, term, k = 0.0, 0.5, 2
    while abs(term) > TAIL_TOL * abs(total) or total == 0.0:
        total += term
        k += 1
        term *= -y / k
        if term == 0.0:
            break
    return total


def return_probabilities(params: KernelParams, lam: float, r: int, classes: int,
                         rows: np.ndarray) -> np.ndarray:
    """h[., i] = P(Y_n in B_r(c) | |Y_0 - c| = p^{r+i}) (i = 0: in B_r(c)) at each n of rows, for
    the jump chain Y at p^r: _ball_means's sums with (1 - mu_l/lam)^n for e^{-t mu_l}, to 2^-64."""
    p, levels = params.p, classes + math.ceil(64 / math.log2(params.p))
    a = np.array([wavelet_rate(params, lam, r, r + 1 + j) / lam for j in range(levels)])
    n, j, i = np.asarray(rows, dtype=float)[:, None], np.arange(levels), np.arange(1, classes)
    log_e = n * np.log1p(-np.where(a < 1.0, a, 0.0))  # 1 - a < 0 on the first level
    E = np.where(a < 1.0, np.exp(log_e), (1.0 - a) ** n)
    H = np.where(a < 1.0, -np.expm1(log_e), 1.0 - E)
    later = np.where(j[:, None] >= i, (p - 1.0) * float(p) ** (i - 1.0 - j[:, None]), 0.0)
    # inside, the levels past the last add p^-levels; off B, p^-i (H_i - sum later H_l)
    h = np.column_stack((E @ ((1.0 - 1.0 / p) * float(p) ** -j) + float(p) ** -levels,
                         float(p) ** -i * (H[:, :classes - 1] - H @ later)))
    return np.maximum(h, 0.0)  # h_1 vanishes inside: keep its rounding from going negative


@lru_cache(maxsize=1 << 14)
def dirichlet_average(nodes: tuple[tuple[float, int], ...]) -> float:
    """E exp(sum_i z_i W_i) over nodes (z_i, k_i), W_i the sum of k_i parts of a flat
    Dirichlet of n + 1 = sum k_i parts (Hermite-Genocchi; Carlson 1977): e^{z_min}
    sum_k T_k, T_k = [u^k] G / (n+1)_k, G = prod_i (1 - c_i u)^{-k_i}, c_i = z_i - z_min.
    P G' = R G, P = prod_i (1 - c_i u), R = sum_i k_i c_i prod_{j != i} (1 - c_j u), gives
    T_k from the last len(R) terms; T_{k+1} <= c T_k / (k + 1), c = max c_i, bounds the
    rest, and the terms share a running scale e^scale, so any c works."""
    z_min = min(z for z, _ in nodes)
    if all(z == z_min for z, _ in nodes):
        return math.exp(z_min)
    n1, c, P, R = sum(k for _, k in nodes), max(nodes)[0] - z_min, [1.0], [0.0]
    for z, k in ((z - z_min, k) for z, k in nodes if z > z_min):
        R = [x - z * y + k * z * w for x, y, w in zip(R + [0.0], [0.0] + R, P)]
        P = [x - z * y for x, y in zip(P + [0.0], [0.0] + P)]
    T, total, scale = [1.0], 1.0, 0.0  # T[l] = T_{k-l}
    for k in itertools.count():
        # (k+1) T_{k+1} = sum_l T_{k-l} (R_l - (k-l) P_{l+1}) / ((n+1+k-l) .. (n+1+k))
        term, f = 0.0, 1.0
        for l, (u, r_l, p_l) in enumerate(zip(T, R, P[1:])):
            f /= n1 + k - l
            term += u * (r_l - (k - l) * p_l) * f
        term /= k + 1
        T, total = [term, *T[:len(R) - 1]], total + term
        if term > 1e150:
            T, total, scale = [u * 1e-150 for u in T], total * 1e-150, scale + math.log(1e150)
        if k + 2 > c and T[0] * c <= TAIL_TOL * total * (k + 2 - c):
            return math.exp(z_min + scale + math.log(total))
