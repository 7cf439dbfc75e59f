"""Shared independent oracles for the test suite.

These deliberately avoid the library's series code paths: plain-Python
loops over the defining formulas, so agreement is a real cross-check.  The
semigroup and generator harnesses are built on the estimators and check
them against the paper's semigroup and generator identities, and
`semigroup_reference` solves e^{t(Q - V)} at one prime from the operator
alone, for the estimators with a potential.
"""

import math
from dataclasses import dataclass

import numpy as np
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


def fine_skeleton_exit_landings(params, T, steps, n, seed):
    """Independent oracle: radial exponent chain of a fine skeleton.

    Unit-invariance makes |X| Markov on exponents: an increment with a
    larger exponent replaces the position's, a smaller one leaves it, and
    an equal one drops it by an independent Geometric(1 - 1/p) (or keeps
    it with probability (p-2)/(p-1)).  Exact for any p, no digits needed.
    Returns the landing exponents of paths that exit the unit ball by T.
    """
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


@dataclass(frozen=True)
class SemigroupReport:
    s: float
    t: float
    direct: float
    composed: float
    combined_se: float

    @property
    def discrepancy(self) -> float:
        return abs(self.direct - self.composed)

    def within(self, k: float = 3.0) -> bool:
        return self.discrepancy <= k * self.combined_se or math.isclose(
            self.direct, self.composed, abs_tol=1e-10
        )


def semigroup_compose_free(sigma, b, s, t, alpha, x, N):
    """Analytic composition check: kernel_{s+t} * alpha vs the two-step
    radial convolution, both exact; discrepancy should sit at rounding."""
    from adelic_diffusion import free_propagate, radial_convolve, radial_law
    from adelic_diffusion.heat_kernel import sphere_ball_share
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
            # P(Z in B_r(c - x)) for Z ~ law: the window mass of B_r(0) when
            # |c - x| <= p^r, else the ball's share of the sphere |c - x|
            r, d_exp = ball.radius_exp, None if xc is None else (xc - ball.center).abs_exp()
            if d_exp is None or r >= d_exp:
                prob = law.bottom_mass + sum(law.mass(m) for m in range(law.m_lo, r + 1))
            else:
                prob = law.mass(d_exp) * sphere_ball_share(p, r, d_exp)
            factor += coeff.real * prob
        composed *= factor
    return SemigroupReport(s, t, direct, composed, 0.0)


def semigroup_check_mc(sigma, b, s, t, alpha, v, x, N, n, seed):
    """Nested Monte Carlo: pi_{s+t} alpha vs pi_s(pi_t alpha) at x.

    Outer and inner sample counts are both ~sqrt(n) (balanced variance).
    Outer path j draws prime i from stream (seed, 777, j, i - 1): an event
    path where the potential has a term, one increment elsewhere.
    """
    from adelic_diffusion import (
        AdelicPoint,
        FKRequest,
        PAdicScalar,
        RngStream,
        action_integral,
        fk_expectation,
        resolution_for,
        sample_event_path,
        sample_increment,
    )
    from adelic_diffusion.primes import prime_at

    direct = fk_expectation(FKRequest(sigma, b, s + t, x, alpha, v, n, N, seed=seed))
    n_out = max(2, int(math.sqrt(n)))
    n_in = n_out
    stream = RngStream(seed).child(777)
    outer_vals = np.zeros(n_out)
    for j in range(n_out):
        action = 0.0
        endpoint = {}
        for i in range(1, N + 1):
            p = prime_at(i)
            params = sigma.kernel_params(i, b)
            start = x.component(p)
            if start is None:
                start = PAdicScalar.zero(p)
            gen = stream.child(j, i - 1).generator()
            if (v_term := v.component(p)) is not None:
                r_min = resolution_for(alpha.factor(p), v_term[1])
                path = sample_event_path(params, start, s, r_min, gen)
                action += action_integral(path, v, s)
                endpoint[p] = path.end_position()
            else:
                endpoint[p] = start + sample_increment(params, s, gen, 24)
        inner = fk_expectation(FKRequest(
            sigma, b, t, AdelicPoint.of(endpoint), alpha, v, n_in, N,
            seed=seed * 1_000_003 + j + 1,
        ))
        outer_vals[j] = math.exp(-action) * inner.value.real
    composed = float(np.mean(outer_vals))
    se_comp = float(np.std(outer_vals, ddof=1) / math.sqrt(n_out))
    combined = math.hypot(direct.std_error, se_comp)
    return SemigroupReport(s, t, direct.value.real, composed, combined)


@dataclass(frozen=True)
class GeneratorReport:
    ts: tuple[float, ...]
    finite_differences: tuple[float, ...]
    target: float
    errors: tuple[float, ...]
    orders: tuple[float, ...]
    mc_ses: tuple[float, ...]


def generator_check(sigma, b, alpha, v, x, t_ladder, n_paths, N, seed):
    """Finite differences (pi_t alpha - alpha)/t against -(D_A + V) alpha.

    The free part is analytic; the potential damping correction is Monte
    Carlo with paths shared between the damped and free estimators of
    fk_expectation_pair, whose free factors at event-path primes are exact,
    so only the damping carries noise there.  All quantities are truncated
    at N primes consistently, so the observed convergence order is 1 for
    the truncated system.
    """
    from adelic_diffusion import FKRequest, fk_expectation_pair, free_propagate
    from adelic_diffusion.schwartz import truncated_vladimirov_apply

    op_truncated = truncated_vladimirov_apply(sigma, b, alpha, x, N)[0].real
    target = -op_truncated - v.value(x) * alpha.eval(x).real

    fds, errs, ses = [], [], []
    for k, t in enumerate(t_ladder):
        free_val = free_propagate(sigma, b, t, alpha, x, N).value.real
        if v.components:
            req = FKRequest(sigma, b, t, x, alpha, v, n_paths, N, seed=seed + k)
            damped, plain, corr_se = fk_expectation_pair(req)
            correction = plain.value.real - damped.value.real
            se = corr_se / t
        else:
            correction, se = 0.0, 0.0
        pi_t = free_val - correction
        fd = (pi_t - alpha.eval(x).real) / t
        fds.append(fd)
        errs.append(abs(fd - target))
        ses.append(se)
    orders = tuple(
        math.log(errs[k] / errs[k + 1]) / math.log(t_ladder[k] / t_ladder[k + 1])
        for k in range(len(errs) - 1)
        if errs[k] > 0 and errs[k + 1] > 0
    )
    return GeneratorReport(
        tuple(t_ladder), tuple(fds), target, tuple(errs), orders, tuple(ses)
    )


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


@dataclass(frozen=True)
class SemigroupReference:
    """e^{t(Q - V)} at one prime on the lumped ball tree of a set of centres.

    States 0 .. leaves - 1 are the leaf balls B_leaf(c); then come each tree
    node's shell (the node less its child nodes) and the outer shells around
    the top node.  Between two states the distance is one value, so the
    chain lumps exactly.  Every rate is Q 1_B(x_A) = -sigma (D 1_B)(x_A) from
    `vladimirov_apply` at a point x_A of state A, and V is tau Re v there.
    Paths that pass the last outer shell are lost; `lost` bounds their mass.
    """

    matrix: np.ndarray
    points: tuple
    log_haar: np.ndarray
    leaves: int
    leaf: int
    lost: float

    def state(self, x) -> int:
        """The leaf state holding x, one of the centres."""
        return next(k for k, z in enumerate(self.points[:self.leaves])
                    if (x - z).is_zero() or (x - z).abs_exp() <= self.leaf)

    def expectation(self, x, f) -> float:
        """E_x[e^{-int V} f(X_t)] for f constant on the states."""
        from adelic_diffusion.schwartz import eval_sb

        return float(self.matrix[self.state(x)] @ [eval_sb(f, z).real for z in self.points])

    def kernel(self, x, y) -> float:
        """K^V_t(x, .) averaged over the leaf ball around y."""
        k = self.state(y)
        return float(self.matrix[self.state(x), k] * math.exp(-self.log_haar[k]))


def semigroup_reference(params, t, centres, leaf, tau=0.0, v=None, lost_tol=1e-13):
    """SemigroupReference at resolution p^leaf (at most v's finest radius) over
    the centres (with the start, every ball centre and, for a kernel, y).

    Balls are keyed by (radius exponent, exact coset key); Haar measures are
    kept as logs.  Outer shells go on until 1 - P(no exit from the outermost
    ball by t), by expm1 with the exit rate from the operator, is below lost_tol.
    """
    from scipy.linalg import expm

    from adelic_diffusion import Ball, PAdicScalar, SBFunction, eval_sb, vladimirov_apply

    p = params.p

    def key(c, k):
        return k, c.coset_key(k)

    def unit_at(k, digit):  # a point of |.| = p^k, known to 40 digits below p^leaf
        return PAdicScalar(p, -k, digit, k - leaf + 40)

    top = max([leaf] + [(a - b).abs_exp() for a in centres for b in centres
                        if not (a - b).is_zero()])
    nodes = {}  # (k, key) -> a centre in the ball
    for k in range(leaf, top + 1):
        for c in centres:
            nodes.setdefault(key(c, k), c)
    states = []  # (indicator terms, point, log Haar)
    for (k, _), c in nodes.items():
        if k == leaf:
            states.append((((Ball(c, k), 1.0 + 0j),), c, k * math.log(p)))
    for (k, kk), c in nodes.items():
        if k == leaf:
            continue
        children = [z for (j, _), z in nodes.items() if j == k - 1 and key(z, k) == (k, kk)]
        if len(children) == p:
            continue
        child_keys = {key(z, k - 1) for z in children}
        point = next(c + unit_at(k, u) for u in range(1, p)
                     if key(c + unit_at(k, u), k - 1) not in child_keys)
        terms = ((Ball(c, k), 1.0 + 0j), *((Ball(z, k - 1), -1.0 + 0j) for z in children))
        states.append((terms, point, math.log(p - len(children)) + (k - 1) * math.log(p)))
    centre = centres[0]

    def lost(k):  # 1 - P(no exit from B_k(centre) by t), the exit rate from the operator
        rate = params.sigma * vladimirov_apply(params, SBFunction.indicator(Ball(centre, k)),
                                               centre).real
        return -math.expm1(-t * rate)

    k = top + 1
    while True:
        states.append((((Ball(centre, k), 1.0 + 0j), (Ball(centre, k - 1), -1.0 + 0j)),
                       centre + unit_at(k, 1), math.log(p - 1) + (k - 1) * math.log(p)))
        if lost(k) <= lost_tol:
            break
        k += 1
    q = np.array([[-params.sigma * vladimirov_apply(params, SBFunction(p, terms), z).real
                   for terms, _, _ in states] for _, z, _ in states])
    pot = [tau * eval_sb(v, z).real if v is not None else 0.0 for _, z, _ in states]
    leaves = sum(1 for kk in nodes if kk[0] == leaf)
    return SemigroupReference(expm(t * (q - np.diag(pot))), tuple(z for _, z, _ in states),
                              np.array([h for _, _, h in states]), leaves, leaf, lost(k))
