"""Monte Carlo estimation of the damped semigroup and its kernels.

The semigroup acts on an observable by pi_t f(x) = E_x[e^{-int_0^t v} f(X_t)].
Estimates run over adelic bundles truncated at N primes.  The path measure
is a product over primes, so in both modes one pipeline compiles a request
into an exact factor and per-prime plans, draws a column per plan from its
own (chunk, prime) stream, and returns the factor times the product of the
independent per-prime means, with the plug-in SE of that product:

* exact mode: potentials and observables locally constant at known scales.
  Vacuum, potential-free primes give their exact free factor, other primes
  without a potential one radius, its sphere point integrated out, and
  primes with one event paths, so the action integral is exact (no time
  discretization anywhere).  `event_path_sums` holds each position as one
  window integer, draw for draw and bit for bit what `sample_event_path`,
  `_path_action` and `eval_sb` give.  At an event-path prime the end value
  P = f_p(X_t) and the action A_p are control variates, with exact means
  F_p and a_p from the rates of the chain the paths are drawn from, in closed
  form (`lumped.event_means`): as the paths are drawn, `_chunk` makes the
  prime's one column the first-order expansion of e^{-A_p} about a_p,
  W - g_p (P - F_p) + g_p F_p (A_p - a_p) with g_p = e^{-a_p}, and keeps
  neither P nor A_p;
* kernel mode: the analytic endpoint density is the factor, and each prime
  with a potential draws bridges.  `sample_bridges` fills every path of a
  batch together in a p-adic integer window, and the action is a
  time-symmetric trapezoid over its ball memberships, so kernel estimates
  are exactly reversal-symmetric in law.  `sample_bridge`, one path of
  `PAdicScalar`s, is the digit-exact oracle it is tested against.

Paths are assigned to fixed-size chunks keyed by (seed, chunk index), so
results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .adelic import (
    AdelicPoint,
    SigmaSequence,
    component_difference,
    tail_certificate,
)
from .errors import ConfigError, PrecisionError, ResolutionError
from .heat_kernel import (
    KernelParams,
    RadialLaw,
    ball_kernel_mass,
    density,
    density_center,
    sphere_ball_share,
)
from .padic import PAdicScalar
from .padic import uniform_sphere  # noqa: F401  unused here; perfbench/layers.py patches this name
from .primes import prime_at, prime_index
from .rng import RngStream
from .sampler import (
    BridgeSpec,
    BridgeWindow,
    EventPath,
    event_path_sums,
    increment_law,
    sample_bridge,  # noqa: F401  unused here; perfbench/layers.py patches this name
    sample_bridges,
    sample_event_path,
    sample_increment,
)
from .schwartz import (
    SBFunction,
    SimpleAdelicSB,
    SimplePotential,
    eval_sb,
    require_resolved,
    resolution_for,
    truncated_vladimirov_apply,
)

DEFAULT_CHUNK = 4096
# Bridges sampled together; bounds the window integers a chunk holds at once.
BRIDGE_BATCH = 256
# p-adic digits kept in bridge jumps and semigroup-check increments, counting the leading one.
PRECISION = 24


@dataclass(frozen=True)
class FKRequest:
    """One estimation task; the seed pins every random draw."""

    sigma: SigmaSequence
    b: float
    t: float
    x: AdelicPoint
    alpha: SimpleAdelicSB
    v: SimplePotential
    n_paths: int
    truncation: int
    seed: int
    y: AdelicPoint | None = None
    bridge_steps: int = 128
    chunk_size: int = DEFAULT_CHUNK
    workers: int = 1

    def __post_init__(self):
        if not self.t > 0:
            raise ConfigError("t must be positive")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be positive")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be positive")
        if self.bridge_steps < 2:
            raise ConfigError("bridge_steps must be at least 2")
        if self.truncation < _min_truncation(self.x, self.y, self.alpha, self.v):
            raise ConfigError("truncation must cover active primes and factors")


def _min_truncation(x: AdelicPoint, y: AdelicPoint | None, alpha: SimpleAdelicSB,
                    v: SimplePotential) -> int:
    """The index of the last prime a request must cover: every active point
    component, observable factor and potential component."""
    return max(
        x.max_active_index(),
        y.max_active_index() if y is not None else 0,
        max((prime_index(p) for p in v.component_primes()), default=0),
        max((prime_index(p) for p in alpha.factor_primes()), default=0),
    )


@dataclass(frozen=True)
class FKEstimate:
    value: complex
    std_error: float
    n_paths: int
    tail_certificate: float
    density_factor: float | None = None
    bridge_factor: float | None = None


# -- action integrals --------------------------------------------------------


def _require_constant_at(resolution: int, f: SBFunction) -> None:
    if resolution > f.min_radius_exp():
        raise ResolutionError("event path coarser than the potential constancy scale")


def _path_action(path: EventPath, tau: float, f: SBFunction, t: float) -> float:
    """tau * int_0^t f(X_s) ds along an event path already known to be at
    f's constancy scale."""
    total = 0.0
    for duration, pos in path.segments(min(t, path.horizon)):
        total += duration * eval_sb(f, pos).real
    return tau * total


def action_integral(path: EventPath, v: SimplePotential, t: float) -> float:
    """Exact time integral of the potential component along an event path,
    which needs the potential constant at the path resolution."""
    comp = v.component(path.params.p)
    if comp is None:
        return 0.0
    tau, f = comp
    _require_constant_at(path.resolution, f)
    return _path_action(path, tau, f, t)


# -- free propagation --------------------------------------------------------


@dataclass(frozen=True)
class FreePropagation:
    """Exact truncated free value with a multiplicative tail bracket.

    The full free value lies in [value * tail_lo_mult, value] when value is
    a nonnegative real (general complex values scale along the same ray).
    """

    value: complex
    tail_lo_mult: float
    truncation: int


def _factor_convolution(params: KernelParams, t: float, f: SBFunction,
                        xc: PAdicScalar | None) -> complex:
    """(kernel_t * f)(xc); unresolved xc (in Z_p) is exact for vacuum f."""
    require_resolved(f, xc)
    if xc is None:
        return complex(ball_kernel_mass(params, t, None, 0))
    out = 0j
    for ball, coeff in f.terms:
        d = xc - ball.center
        out += coeff * ball_kernel_mass(params, t, d.abs_exp(), ball.radius_exp)
    return out


def free_propagate(sigma: SigmaSequence, b: float, t: float,
                   alpha: SimpleAdelicSB, x: AdelicPoint, N: int) -> FreePropagation:
    """Free semigroup value (kernel_t * alpha)(x), truncated at N primes.

    Primes 1..N contribute exact per-prime convolutions; the inactive tail
    multiplies the result by a factor in [e^{-t sum_{i>N} sigma_i}, 1].
    """
    if not t > 0:
        raise ConfigError("t must be positive")
    needed = max(
        x.max_active_index(),
        max((prime_index(p) for p in alpha.factor_primes()), default=0),
    )
    if N < needed:
        raise ConfigError("truncation must cover active primes and factors")
    value = 1.0 + 0j
    for i in range(1, N + 1):
        p = prime_at(i)
        params = sigma.kernel_params(i, b)
        value *= _factor_convolution(params, t, alpha.factor(p), x.component(p))
    return FreePropagation(value, math.exp(-t * sigma.sigma_tail_upper(N)), N)


# -- one Monte Carlo pipeline: compile, draw chunks, reduce, scale -------------


@dataclass(frozen=True)
class _PrimePlan:
    slot: int  # stream key: prime index - 1, or a bridge's place among the potential's primes
    params: KernelParams
    start: PAdicScalar
    alpha_f: SBFunction
    v_term: tuple[float, SBFunction] | None
    r_min: int
    law: RadialLaw | None  # increment law at t; None where nothing is sampled from it
    spec: BridgeSpec | None = None  # kernel mode: the bridge drawn at this prime
    control: tuple[complex, float] | None = None  # event paths: (F_p, a_p), see _chunk

    @property
    def folds(self) -> bool:  # no potential, vacuum factor: an exact mean
        return self.v_term is None and self.alpha_f.is_vacuum()


def _compile_plans(req: FKRequest) -> tuple[_PrimePlan, ...]:
    plans = []
    for i in range(1, req.truncation + 1):
        p = prime_at(i)
        params = req.sigma.kernel_params(i, req.b)
        start = req.x.component(p)
        alpha_f = req.alpha.factor(p)
        v_term = req.v.component(p)
        fns = (alpha_f, v_term[1]) if v_term is not None else (alpha_f,)
        for f in fns:
            require_resolved(f, start)
        if start is None:
            start = PAdicScalar.zero(p)
        r_min = resolution_for(*fns)
        if v_term is not None:
            # event paths are tested against every ball, so whether a membership
            # is decidable must not depend on where the draws land; a
            # potential's balls are canonical, so their centres are known already
            _require_known_to(start, r_min, "start")
            for ball, _ in alpha_f.terms:
                _require_known_to(ball.center, ball.radius_exp, "ball centre")
        plan = _PrimePlan(i - 1, params, start, alpha_f, v_term, r_min, None)
        plans.append(plan if v_term is not None or plan.folds
                     else replace(plan, law=increment_law(params, req.t)))
    return tuple(plans)


def _require_known_to(x: PAdicScalar, radius_exp: int, what: str) -> None:
    if x.known_mod_exp() < -radius_exp:
        raise PrecisionError(f"{what} at prime {x.prime} is known mod p^{x.known_mod_exp()}, "
                             f"but radius p^{radius_exp} needs it mod p^{-radius_exp}")


def _compile_exact(req: FKRequest) -> tuple[float, tuple[_PrimePlan, ...]]:
    """(exact factor of the folded primes, plans of the sampled ones).

    Vacuum factors convolve to reals, so the folded factor is real.  Each
    event plan carries the exact means of its controls, from the rates its
    event paths are drawn with: F_p = E f_p(X_t) and a_p = E A_p, with
    A_p = tau int_0^t Re v_p(X_s) ds.
    """
    folded, sampled = 1.0, []
    for plan in _compile_plans(req):
        if plan.folds:
            xc = req.x.component(plan.params.p)
            folded *= _factor_convolution(plan.params, req.t, plan.alpha_f, xc).real
        elif plan.v_term is not None:  # event paths
            # imported here: only a potential needs it, and each fk command pays
            # for every import in a fresh process
            from .lumped import event_means

            tau, f = plan.v_term
            free, occupation = event_means(plan.params, req.t, plan.start, plan.r_min,
                                           plan.alpha_f.terms, f.terms)
            sampled.append(replace(plan, control=(free, tau * occupation)))
        else:
            sampled.append(plan)
    return folded, tuple(sampled)


def _compile_kernel(req: FKRequest) -> tuple[float, tuple[_PrimePlan, ...]]:
    """(product over primes 1..N of the endpoint density rho^i(t, x_i - y_i),
    a bridge plan per potential prime, in the potential's order)."""
    if req.y is None:
        raise ConfigError("kernel estimation needs an endpoint y")
    if any(not f.is_vacuum() for _, f in req.alpha.factors):
        raise ConfigError("kernel estimation takes no observable")
    dens, plans = 1.0, []
    for i in range(1, req.truncation + 1):
        p = prime_at(i)
        params = req.sigma.kernel_params(i, req.b)
        kind, info = component_difference(req.x, req.y, p)
        if kind == "exact":
            e = info.abs_exp()
            dens *= density(params, req.t, e) if e is not None else density_center(params, req.t)
        elif kind == "exp":
            dens *= density(params, req.t, info)
        else:
            raise PrecisionError(
                f"kernel endpoint difference unresolved at prime {p}; "
                "resolve both components or lower the truncation"
            )
        if (v_term := req.v.component(p)) is not None:
            require_resolved(v_term[1], req.x.component(p))
            require_resolved(v_term[1], req.y.component(p))
            xc = req.x.component(p) or PAdicScalar.zero(p)
            yc = req.y.component(p) or PAdicScalar.zero(p)
            plans.append(_PrimePlan(req.v.component_primes().index(p), params, xc,
                                    req.alpha.factor(p), v_term, resolution_for(v_term[1]),
                                    None, BridgeSpec(params, req.t, xc, yc)))
    return dens, tuple(sorted(plans, key=lambda plan: plan.slot))


def _endpoint_factor(plan: _PrimePlan, gen: np.random.Generator, count: int) -> np.ndarray:
    """E[f(X_t) | |X_t - start|] per path, from one increment radius p^m each.

    For a term on B_r(c) with |start - c| = p^e, the ultrametric inequality
    decides the indicator for every m when e <= r (it is m <= r), and for
    every m but e otherwise; on that sphere the term holds on the Haar share
    of the sphere the ball fills.
    """
    m = plan.law.sample_exponents(gen, count)
    p = plan.params.p
    values = np.zeros(count, dtype=complex)
    for ball, coeff in plan.alpha_f.terms:
        r = ball.radius_exp
        e = (plan.start - ball.center).abs_exp()
        if e is None or e <= r:
            values += coeff * (m <= r)
        else:
            values += coeff * np.where(m == e, sphere_ball_share(p, r, e), 0.0)
    return values


def _bridge_action(paths: BridgeWindow, tau: float, f: SBFunction) -> np.ndarray:
    """tau * int_0^t f(X_s) ds per path, by the trapezoid rule over the bridge
    grid (invariant under time reversal), from window ball memberships."""
    vals = np.zeros(paths.offsets.shape)
    for ball, coeff in f.terms:
        vals += coeff.real * paths.in_ball(ball)
    dt = np.diff(paths.times)
    return tau * ((vals[:, :-1] + vals[:, 1:]) * (0.5 * dt)).sum(axis=1)


def _generator(req: FKRequest, plan: _PrimePlan, chunk_idx: int) -> np.random.Generator:
    # a leading 0 keys bridge streams apart from exact-mode ones; seeded kernel files rely on it
    key = (chunk_idx, plan.slot) if plan.spec is None else (0, chunk_idx, plan.slot)
    return RngStream(req.seed).child(*key).generator()


def _chunk_counts(req: FKRequest) -> list[tuple[int, int]]:
    """(chunk index, path count) of each fixed-size chunk of a request."""
    return [(i, min(req.chunk_size, req.n_paths - lo))
            for i, lo in enumerate(range(0, req.n_paths, req.chunk_size))]


def _event_draws(req: FKRequest, plan: _PrimePlan, gen: np.random.Generator,
                 count: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, A_p) per event path: the end value f_p(X_t) and the action, the
    values of sample_event_path, _path_action and eval_sb bit for bit."""
    tau, f = plan.v_term
    integrals, values = event_path_sums(plan.params, plan.start, req.t, plan.r_min, gen,
                                        count, f.terms, plan.alpha_f.terms)
    return values, tau * integrals


def _raw_event_draws(req: FKRequest, plan: _PrimePlan) -> tuple[np.ndarray, np.ndarray]:
    """(P, A_p) over all of a request's paths at one event plan, drawn from the
    streams and chunks that _run_chunks draws them from."""
    draws = [_event_draws(req, plan, _generator(req, plan, i), count)
             for i, count in _chunk_counts(req)]
    return tuple(np.concatenate(parts) for parts in zip(*draws))


def _chunk(req: FKRequest, plans, chunk_idx: int, count: int) -> np.ndarray:
    """Per-prime columns, shape (count, len(plans)): f_p e^{-A_p} for each plan
    (f_p = 1 on bridges, A_p = 0 at endpoint primes), and at an event-path
    prime, whose P = f_p(X_t) and A_p have exact means F_p and a_p, the
    controlled W - g_p (P - F_p) + g_p F_p (A_p - a_p), W = P e^{-A_p}."""
    out = np.empty((count, len(plans)), dtype=complex)
    for col, plan in enumerate(plans):
        gen = _generator(req, plan, chunk_idx)
        if plan.spec is not None:
            tau, f = plan.v_term
            cover = tuple(ball for ball, _ in f.terms)
            for lo in range(0, count, BRIDGE_BATCH):
                n = min(BRIDGE_BATCH, count - lo)
                paths = sample_bridges(plan.spec, req.bridge_steps, n, gen, PRECISION, cover=cover)
                out[lo:lo + n, col] = np.exp(-_bridge_action(paths, tau, f))
        elif plan.v_term is None:
            out[:, col] = _endpoint_factor(plan, gen, count)
        else:
            values, action = _event_draws(req, plan, gen, count)
            free, mean_action = plan.control
            g = math.exp(-mean_action)
            out[:, col] = values * np.exp(-action)
            out[:, col] -= g * ((values - free) - free * (action - mean_action))
    return out


def _chunk_entry(args):
    return _chunk(*args)


def _run_chunks(req: FKRequest, plans) -> np.ndarray:
    """The chunks' (count, len(plans)) columns stacked in chunk order, each
    copied into one preallocated (n_paths, len(plans)) array as it arrives
    and then dropped."""
    tasks = [(req, plans, i, count) for i, count in _chunk_counts(req)]

    def fill(chunks) -> np.ndarray:
        out = np.empty((req.n_paths, len(plans)), dtype=complex)
        for (*_, i, count), chunk in zip(tasks, chunks):
            out[i * req.chunk_size:i * req.chunk_size + count] = chunk
        return out

    if req.workers > 1 and len(tasks) > 1:
        try:
            with ProcessPoolExecutor(max_workers=req.workers) as pool:
                return fill(pool.map(_chunk_entry, tasks))
        except OSError as exc:
            warnings.warn(f"process pool unavailable ({exc!r}); running chunks serially",
                          RuntimeWarning, stacklevel=2)
    return fill(map(_chunk_entry, tasks))


# -- reduction over primes ----------------------------------------------------
# Per-prime means are independent (one stream per chunk and prime), so every
# estimate is their product, with the plug-in of its exact variance
# Var(prod m_p) = prod(|mu_p|^2 + v_p/n) - prod |mu_p|^2 (Goodman 1960).


def _mean_var(values: np.ndarray) -> tuple[complex, float]:
    """Sample mean of one column and its plug-in variance s^2 / n."""
    n = len(values)
    mean = complex(np.mean(values))
    if n < 2:
        return mean, math.inf
    return mean, float(np.var(values.real, ddof=1) + np.var(values.imag, ddof=1)) / n


def _product_se(stats, n: int) -> tuple[complex, float]:
    """Product of independent per-prime means, given as (m_p, e_p) pairs with
    e_p their variance s_p^2/n (0 for an exact factor), and its SE; one pair
    gives m_p and sqrt(e_p).

    V = prod(a_p + e_p) - prod a_p with a_p = |m_p|^2 is carried with
    A = prod a_p as V <- V (a_p + e_p) + A e_p, A <- A a_p, so nothing
    cancels.  The product starts from the first mean, so signed zeros
    survive.
    """
    (mean, var), *rest = stats
    sq = abs(mean) ** 2
    for m, e in rest:
        a = abs(m) ** 2
        mean *= m
        var = var * (a + e) + sq * e
        sq *= a
    return mean, math.sqrt(var) if n > 1 else math.inf


def _product_mean_se(columns: np.ndarray) -> tuple[complex, float]:
    """Product of the column means of an (n, k) array of independent
    per-prime values, and its SE; one column gives its mean and sqrt(s^2/n)."""
    return _product_se([_mean_var(col) for col in columns.T], len(columns))


def _weighted_mean_se(req: FKRequest, plans) -> tuple[complex, float]:
    """Product of the per-prime means of f_p e^{-A_p} (with the controls at
    event primes) and its SE; exactly 1, SE 0, where nothing is sampled."""
    if not plans:
        return 1 + 0j, 0.0
    return _product_mean_se(_run_chunks(req, plans))


def _estimate(req: FKRequest, factor: float, mean: complex, se: float,
              **kernel_fields) -> FKEstimate:
    """The exact factor times a product of per-prime means, and its SE."""
    # componentwise, so a factor of exactly 1 keeps every bit (signed zeros too)
    return FKEstimate(complex(mean.real * factor, mean.imag * factor), se * abs(factor),
                      req.n_paths, tail_certificate(req.sigma, req.b, req.t, req.truncation),
                      **kernel_fields)


def fk_expectation(req: FKRequest) -> FKEstimate:
    """Unbiased estimate of (pi_t alpha)(x) truncated at N primes.

    Vacuum, potential-free primes contribute their exact free factor (as in
    free_propagate; with nothing else the estimate is exact, SE 0); other
    primes without a potential term one radius, its sphere point integrated
    out; primes with one event paths at the constancy scale, so the action
    integral is exact.  The estimate is the product of the per-prime means
    of f_p e^{-A_p}, scaled by the folded factor; at an event-path prime
    f_p(X_t) and A_p serve as control variates with exact means (see
    _chunk).
    """
    folded, plans = _compile_exact(req)
    return _estimate(req, folded, *_weighted_mean_se(req, plans))


def fk_expectation_pair(req: FKRequest) -> tuple[FKEstimate, FKEstimate, float]:
    """(damped estimate, free estimate, se of the damping correction).

    Each estimate is the product of per-prime means: f_p e^{-A_p} for the
    damped one (with fk_expectation's controls), f_p for the free one, which
    is the exact F_p at an event-path prime and the damped column at an
    endpoint prime.  So the difference, an estimate of
    E[(1 - e^{-int v}) alpha(X_t)], is M (prod F_p - prod W_bar_p) with M the
    endpoint means' product, independent of the event-path factor; its SE is
    that of a product of independent factors.  The folded primes' exact
    factor scales the means and SEs.
    """
    folded, plans = _compile_exact(req)
    if not plans:
        exact = _estimate(req, folded, 1 + 0j, 0.0)
        return exact, exact, 0.0
    n = req.n_paths
    stats = [_mean_var(col) for col in _run_chunks(req, plans).T]
    free = [(plan.control[0], 0.0) if plan.control is not None else st
            for plan, st in zip(plans, stats)]
    events = [st for plan, st in zip(plans, stats) if plan.control is not None]
    damped, damped_se = _product_se(events, n) if events else (1 + 0j, 0.0)  # prod W_bar_p
    exact = math.prod(plan.control[0] for plan in plans if plan.control is not None)
    ends = [st for plan, st in zip(plans, stats) if plan.control is None]
    _, correction_se = _product_se([*ends, (exact - damped, damped_se ** 2)], n)
    return (
        _estimate(req, folded, *_product_se(stats, n)),
        _estimate(req, folded, *_product_se(free, n)),
        correction_se * abs(folded),
    )


def fk_kernel(req: FKRequest) -> FKEstimate:
    """Kernel estimate K_t(x, y) = E_bridge[e^{-int v}] * rho(t, x - y).

    The density factor is analytic (exact at the truncation); only the
    bridge expectation carries Monte Carlo error, and without a potential
    the estimate is exact, SE 0.  For a simple potential the bridge measure
    is a product over primes, each prime drawing from its own stream, so the
    bridge factor is the product of the per-prime means.  The trapezoid
    action makes the estimator's law invariant under swapping x and y.
    """
    dens, plans = _compile_kernel(req)
    mean, se = _weighted_mean_se(req, plans)
    return _estimate(req, dens, mean, se, density_factor=dens, bridge_factor=mean.real)


# -- semigroup and generator checks ------------------------------------------


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


def semigroup_check_mc(sigma: SigmaSequence, b: float, s: float, t: float,
                       alpha: SimpleAdelicSB, v: SimplePotential,
                       x: AdelicPoint, N: int, n: int, seed: int) -> SemigroupReport:
    """Nested Monte Carlo: pi_{s+t} alpha vs pi_s(pi_t alpha) at x.

    Outer and inner sample counts are both ~sqrt(n) (balanced variance).
    """
    direct = fk_expectation(FKRequest(
        sigma, b, s + t, x, alpha, v, n, N, seed=seed,
    ))
    n_out = max(2, int(math.sqrt(n)))
    n_in = n_out
    stream = RngStream(seed).child(777)
    outer_vals = np.zeros(n_out)
    plans = _compile_plans(FKRequest(sigma, b, s, x, alpha, v, 1, N, seed=seed))
    for j in range(n_out):
        action = 0.0
        endpoint: dict[int, PAdicScalar] = {}
        for plan in plans:
            gen = stream.child(j, plan.slot).generator()
            if plan.v_term is not None:
                path = sample_event_path(plan.params, plan.start, s, plan.r_min, gen)
                action += action_integral(path, v, s)
                endpoint[plan.params.p] = path.end_position()
            else:
                inc = sample_increment(plan.params, s, gen, PRECISION)
                endpoint[plan.params.p] = plan.start + inc
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


def generator_check(sigma: SigmaSequence, b: float, alpha: SimpleAdelicSB,
                    v: SimplePotential, x: AdelicPoint, t_ladder,
                    n_paths: int, N: int, seed: int) -> GeneratorReport:
    """Finite differences (pi_t alpha - alpha)/t against -(D_A + V) alpha.

    The free part is analytic; the potential damping correction is Monte
    Carlo with paths shared between the damped and free estimators of
    fk_expectation_pair, whose free factors at event-path primes are exact,
    so only the damping carries noise there.  All quantities are truncated
    at N primes consistently, so the observed convergence order is 1 for
    the truncated system.
    """
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
