"""Independent oracles for the benchmark's output checks.

Nothing here calls the library.  The radial series are summed on the
Fourier side (frequency spheres), where the library sums telescoped
differences in space, and the exponent chain simulates |X_s - x| directly
from exponential holding times and geometric overshoots, with no digits.
"""

from __future__ import annotations

import math

import numpy as np

_TERM_FLOOR = 1e-22


def alpha(p: int, b: float) -> float:
    """Exit-rate constant 1 - (p^b - 1) / (p^(b+1) - 1)."""
    return 1.0 - (p**b - 1.0) / (p ** (b + 1.0) - 1.0)


def density(p: int, b: float, sigma: float, t: float, m: int) -> float:
    """Kernel value on the sphere |x| = p^m.

    The character integral over the frequency sphere p^k is p^k (1 - 1/p)
    for k <= -m, -p^(k-1) for k = 1 - m and 0 beyond.  Far from the centre
    each e^{-a} is written as 1 + (e^{-a} - 1), with the 1s summed to
    p^{-m} in closed form, so the two large parts never cancel.
    """
    edge = sigma * t * float(p) ** ((1 - m) * b)
    near = edge > 1.0   # near the centre the k = 1 - m term is small: sum directly
    decay = math.exp if near else math.expm1
    total = -decay(-edge) * float(p) ** (-m)
    k = -m
    while True:
        w = float(p) ** k * (1 - 1 / p)
        term = decay(-sigma * t * float(p) ** (k * b)) * w
        total += term
        if abs(term) < _TERM_FLOOR * abs(total) or w < _TERM_FLOOR * abs(total):
            return total
        k -= 1


def ball_mass(p: int, b: float, sigma: float, t: float, nu: int) -> float:
    """Mass of {|x| <= p^nu}: sum_{k <= -nu} e^{-sigma t p^{kb}} p^{k+nu} (1 - 1/p).

    The Fourier transform of the ball indicator is p^nu times the indicator
    of the dual ball; written as 1 + sum expm1(...) so masses near 1 keep
    their digits.
    """
    total = 1.0
    k = -nu
    while True:
        w = float(p) ** (k + nu)
        term = math.expm1(-sigma * t * float(p) ** (k * b)) * w * (1 - 1 / p)
        total += term
        if w < _TERM_FLOOR:
            return total
        k -= 1


def ball_mass_at(p: int, b: float, sigma: float, t: float, d_exp: int | None, r: int) -> float:
    """Mass the kernel started at x gives B_r(c), where |x - c| = p^d_exp.

    d_exp None means c = x.  A ball that does not contain x lies on the
    sphere of radius |x - c|, where the density is constant.
    """
    if d_exp is None or d_exp <= r:
        return ball_mass(p, b, sigma, t, r)
    return density(p, b, sigma, t, d_exp) * float(p) ** r


def exponent_chain(p: int, b: float, sigma: float, T: float, r0: int, r_pot: int,
                   n: int, gen: np.random.Generator):
    """Simulate e_s = log_p |X_s - x| at resolution p^r0 for n paths.

    Returns (time with e_s <= r_pot, e_T, max_s e_s), one entry per path;
    states at or below r0 all read r0.  The process leaves its p^r0 ball at
    rate sigma alpha p^{-r0 b} and lands p^{r0+k} away with k geometric of
    ratio p^{-b}.  A landing distance above e replaces it, one below leaves
    it, and an equal one keeps it with probability (p - 2)/(p - 1) or else
    drops it by a Geometric(1 - 1/p) number of levels.
    """
    if r_pot < r0:
        raise ValueError("the potential ball must be resolved at p^r0")
    rate = sigma * alpha(p, b) * float(p) ** (-r0 * b)
    state = np.full(n, r0, dtype=np.int64)
    top = state.copy()
    clock = np.zeros(n)
    occupied = np.zeros(n)
    idx = np.arange(n)
    keep = (p - 2.0) / (p - 1.0)
    while idx.size:
        hold = gen.exponential(1.0 / rate, size=idx.size)
        stop = clock[idx] + hold >= T
        inside = state[idx] <= r_pot
        occupied[idx] += np.where(stop, T - clock[idx], hold) * inside
        idx = idx[~stop]
        clock[idx] += hold[~stop]
        jump = r0 + gen.geometric(1.0 - float(p) ** (-b), size=idx.size)
        cur = state[idx]
        new = np.maximum(cur, jump)
        tie = jump == cur
        if tie.any():
            stay = gen.random(int(tie.sum())) < keep
            drop = gen.geometric(1.0 - 1.0 / p, size=stay.size)
            new[tie] = np.where(stay, cur[tie], np.maximum(cur[tie] - drop, r0))
        state[idx] = new
        top[idx] = np.maximum(top[idx], new)
    return occupied, state, top


def damped_ball_expectation(p: int, b: float, sigma: float, T: float, tau: float,
                            r_pot: int, r_obs: int, n: int,
                            gen: np.random.Generator) -> tuple[float, float]:
    """(mean, standard error) of E_x[e^{-tau int_0^T 1_B(X_s) ds} 1_B'(X_T)]
    for B = B_{r_pot}(x) and B' = B_{r_obs}(x)."""
    occupied, final, _ = exponent_chain(p, b, sigma, T, min(r_pot, r_obs), r_pot, n, gen)
    w = np.exp(-tau * occupied) * (final <= r_obs)
    return float(w.mean()), float(w.std(ddof=1) / math.sqrt(n))
