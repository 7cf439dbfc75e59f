"""Monte Carlo estimation of the damped semigroup and its kernels.

The semigroup acts on an observable by pi_t f(x) = E_x[e^{-int_0^t v} f(X_t)].
Estimates run over adelic bundles truncated at N primes:

* exact mode: potentials and observables locally constant at known scales,
  so event-driven paths make the action integral exact, endpoint-only
  primes reduce to one radius, its sphere point integrated out, and vacuum,
  potential-free primes to their exact free factor (no time discretization
  anywhere);
* kernel mode: bridge Monte Carlo times the analytic endpoint density.  The
  batched engine `sample_bridges` fills every path of a chunk together in
  a p-adic integer window, and the action is a time-symmetric trapezoid
  over its ball memberships, so kernel estimates are exactly
  reversal-symmetric in law.  `sample_bridge`, one path of `PAdicScalar`s,
  is the digit-exact oracle it is tested against.

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
    radial_convolve,
    radial_law,
    sphere_ball_share,
)
from .padic import Ball, PAdicScalar
from .padic import uniform_sphere  # noqa: F401  unused here; perfbench/layers.py patches this name
from .primes import prime_at, prime_index
from .rng import RngStream
from .sampler import (
    BridgeSpec,
    BridgeWindow,
    EventPath,
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
        if self.truncation < max(
            self.x.max_active_index(),
            self.y.max_active_index() if self.y is not None else 0,
            max((prime_index(p) for p in self.v.component_primes()), default=0),
            max((prime_index(p) for p in self.alpha.factor_primes()), default=0),
        ):
            raise ConfigError("truncation must cover active primes and factors")


@dataclass(frozen=True)
class FKEstimate:
    value: complex
    std_error: float
    n_paths: int
    tail_certificate: float
    density_factor: float | None = None
    bridge_factor: float | None = None


# -- action integrals --------------------------------------------------------


def action_integral(path: EventPath, v: SimplePotential, t: float) -> float:
    """Exact time integral of the potential component along an event path,
    which needs the potential constant at the path resolution."""
    comp = v.component(path.params.p)
    if comp is None:
        return 0.0
    tau, f = comp
    if path.resolution > f.min_radius_exp():
        raise ResolutionError("event path coarser than the potential constancy scale")
    total = 0.0
    for duration, pos in path.segments(min(t, path.horizon)):
        total += duration * eval_sb(f, pos).real
    return tau * total


def bundle_action(bundle_components, v: SimplePotential, t: float) -> float:
    """Sum of per-prime exact action integrals over an event-path bundle."""
    if not all(isinstance(path, EventPath) for _, path in bundle_components):
        raise ConfigError("exact action integrals need an event-path bundle, not skeletons")
    sampled = {p for p, _ in bundle_components}
    for p in v.component_primes():
        if p not in sampled:
            raise ConfigError(f"potential prime {p} not sampled in bundle")
    return sum(
        action_integral(path, v, t) for p, path in bundle_components
    )


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

    def interval(self) -> tuple[float, float]:
        r = self.value.real
        return min(r * self.tail_lo_mult, r), max(r * self.tail_lo_mult, r)


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


def adelic_ball_probability(sigma: SigmaSequence, b: float, t: float,
                            balls: dict[int, Ball], N: int) -> tuple[float, float]:
    """P(X_t component-wise in the given balls, Z_p implicitly elsewhere).

    The free propagation from 0 of the product of the ball indicators:
    exact ball masses for primes 1..N, and the inactive tail contributes
    the bracket [e^{-t sum_{i>N} sigma_i}, 1].
    """
    alpha = SimpleAdelicSB.of({p: SBFunction.indicator(ball) for p, ball in balls.items()})
    x = AdelicPoint.resolved_zeros(N)
    return free_propagate(sigma, b, t, alpha, x, N).interval()


# -- chunked deterministic Monte Carlo engine --------------------------------


@dataclass(frozen=True)
class _PrimePlan:
    slot: int
    params: KernelParams
    start: PAdicScalar
    alpha_f: SBFunction
    v_term: tuple[float, SBFunction] | None
    r_min: int
    law: RadialLaw | None  # increment law at t; None where nothing is sampled from it

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
        plan = _PrimePlan(i - 1, params, start, alpha_f, v_term, resolution_for(*fns), None)
        plans.append(plan if v_term is not None or plan.folds
                     else replace(plan, law=increment_law(params, req.t)))
    return tuple(plans)


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


def _event_factor(plan: _PrimePlan, v: SimplePotential, t: float,
                  gen: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(action, observable factor) for primes carrying a potential term."""
    actions = np.zeros(count)
    values = np.zeros(count, dtype=complex)
    for j in range(count):
        path = sample_event_path(plan.params, plan.start, t, plan.r_min, gen)
        actions[j] = action_integral(path, v, t)
        values[j] = eval_sb(plan.alpha_f, path.end_position())
    return actions, values


def _fk_exact_chunk(req: FKRequest, plans, chunk_idx: int, count: int) -> np.ndarray:
    stream = RngStream(req.seed)
    weighted = np.ones(count, dtype=complex)
    plain = np.ones(count, dtype=complex)
    actions = np.zeros(count)
    for plan in plans:
        gen = stream.child(chunk_idx, plan.slot).generator()
        if plan.v_term is None:
            vals = _endpoint_factor(plan, gen, count)
        else:
            acts, vals = _event_factor(plan, req.v, req.t, gen, count)
            actions += acts
        weighted *= vals
        plain *= vals
    weighted = weighted * np.exp(-actions)
    return np.stack([weighted, plain], axis=1)


def _fk_chunk_entry(args):
    chunk_fn, req, plans, chunk_idx, count = args
    return chunk_idx, chunk_fn(req, plans, chunk_idx, count)


def _run_chunks(chunk_fn, req: FKRequest, plans) -> np.ndarray:
    sizes = []
    remaining = req.n_paths
    idx = 0
    while remaining > 0:
        m = min(req.chunk_size, remaining)
        sizes.append((idx, m))
        remaining -= m
        idx += 1
    tasks = [(chunk_fn, req, plans, i, m) for i, m in sizes]
    if req.workers > 1 and len(tasks) > 1:
        try:
            with ProcessPoolExecutor(max_workers=req.workers) as pool:
                results = dict(pool.map(_fk_chunk_entry, tasks))
        except OSError as exc:
            warnings.warn(f"process pool unavailable ({exc!r}); running chunks serially",
                          RuntimeWarning, stacklevel=2)
            results = dict(map(_fk_chunk_entry, tasks))
    else:
        results = dict(map(_fk_chunk_entry, tasks))
    return np.concatenate([results[i] for i, _ in sizes], axis=0)


def _mean_se(values: np.ndarray) -> tuple[complex, float]:
    n = len(values)
    mean = complex(np.mean(values))
    if n < 2:
        return mean, float("inf")
    var = float(np.var(values.real, ddof=1) + np.var(values.imag, ddof=1))
    return mean, math.sqrt(var / n)


def fk_expectation(req: FKRequest) -> FKEstimate:
    """Unbiased estimate of (pi_t alpha)(x) truncated at N primes.

    Vacuum, potential-free primes contribute their exact free factor (as in
    free_propagate; with nothing else the estimate is exact, SE 0); other
    primes without a potential term one radius, its sphere point integrated
    out; primes with one event paths at the constancy scale, so the action
    integral is exact.
    """
    return fk_expectation_pair(req)[0]


def fk_expectation_pair(req: FKRequest) -> tuple[FKEstimate, FKEstimate, float]:
    """(damped estimate, free estimate, se of the damping correction).

    Both estimates share paths, so their difference estimates
    E[(1 - e^{-int v}) alpha(X_t)] with strongly reduced variance.  The path
    measure is a product over primes, so the folded primes' exact factor
    scales the mean and SEs of the sampled ones, which keep their streams.
    """
    plans = _compile_plans(req)
    cert = tail_certificate(req.sigma, req.b, req.t, req.truncation)
    folded, sampled = 1.0, []  # vacuum factors convolve to reals
    for plan in plans:
        if plan.folds:
            xc = req.x.component(plan.params.p)
            folded *= _factor_convolution(plan.params, req.t, plan.alpha_f, xc).real
        else:
            sampled.append(plan)
    if not sampled:
        exact = FKEstimate(complex(folded), 0.0, req.n_paths, cert)
        return exact, exact, 0.0
    data = _run_chunks(_fk_exact_chunk, req, tuple(sampled))
    w_mean, w_se = _mean_se(data[:, 0])
    p_mean, p_se = _mean_se(data[:, 1])
    _, d_se = _mean_se(data[:, 1] - data[:, 0])
    # componentwise, so a factor of exactly 1 keeps every bit (signed zeros too)
    w_mean, p_mean = (complex(m.real * folded, m.imag * folded) for m in (w_mean, p_mean))
    scale = abs(folded)
    return (
        FKEstimate(w_mean, w_se * scale, req.n_paths, cert),
        FKEstimate(p_mean, p_se * scale, req.n_paths, cert),
        d_se * scale,
    )


# -- kernels -----------------------------------------------------------------


@dataclass(frozen=True)
class _BridgePlan:
    slot: int
    params: KernelParams
    x: PAdicScalar
    y: PAdicScalar
    salt: int = 0


def _bridge_action(paths: BridgeWindow, tau: float, f: SBFunction) -> np.ndarray:
    """tau * int_0^t f(X_s) ds per path, by the trapezoid rule over the bridge
    grid (invariant under time reversal), from window ball memberships."""
    vals = np.zeros(paths.offsets.shape)
    for ball, coeff in f.terms:
        vals += coeff.real * paths.in_ball(ball)
    dt = np.diff(paths.times)
    return tau * ((vals[:, :-1] + vals[:, 1:]) * (0.5 * dt)).sum(axis=1)


def _kernel_chunk(req: FKRequest, plans, chunk_idx: int, count: int) -> np.ndarray:
    """e^{-action} per path and plan, from batches of bridges drawn in turn
    from the plan's stream."""
    stream = RngStream(req.seed)
    out = np.ones((count, len(plans)))
    for col, plan in enumerate(plans):
        gen = stream.child(plan.salt, chunk_idx, plan.slot).generator()
        tau, f = req.v.component(plan.params.p)
        spec = BridgeSpec(plan.params, req.t, plan.x, plan.y)
        for lo in range(0, count, BRIDGE_BATCH):
            n = min(BRIDGE_BATCH, count - lo)
            paths = sample_bridges(plan.params, spec, req.bridge_steps, n, gen, PRECISION,
                                   cover=tuple(ball for ball, _ in f.terms))
            out[lo:lo + n, col] = np.exp(-_bridge_action(paths, tau, f))
    return out


def _kernel_density_factor(req: FKRequest) -> float:
    """Product over primes 1..N of the endpoint density rho^i(t, x_i - y_i)."""
    if req.y is None:
        raise ConfigError("kernel estimation needs an endpoint y")
    if any(not f.is_vacuum() for _, f in req.alpha.factors):
        raise ConfigError("kernel estimation takes no observable")
    total = 1.0
    for i in range(1, req.truncation + 1):
        p = prime_at(i)
        params = req.sigma.kernel_params(i, req.b)
        kind, info = component_difference(req.x, req.y, p)
        if kind == "exact":
            e = info.abs_exp()
            total *= (
                density(params, req.t, e) if e is not None
                else density_center(params, req.t)
            )
        elif kind == "exp":
            total *= density(params, req.t, info)
        else:
            raise PrecisionError(
                f"kernel endpoint difference unresolved at prime {p}; "
                "resolve both components or lower the truncation"
            )
    return total


def _bridge_plans(req: FKRequest) -> tuple[_BridgePlan, ...]:
    if req.y is None:
        raise ConfigError("kernel estimation needs an endpoint y")
    plans = []
    for slot, p in enumerate(req.v.component_primes()):
        params = req.sigma.kernel_params(prime_index(p), req.b)
        f = req.v.component(p)[1]
        require_resolved(f, req.x.component(p))
        require_resolved(f, req.y.component(p))
        xc = req.x.component(p) or PAdicScalar.zero(p)
        yc = req.y.component(p) or PAdicScalar.zero(p)
        plans.append(_BridgePlan(slot, params, xc, yc))
    return tuple(plans)


def fk_kernel(req: FKRequest) -> FKEstimate:
    """Kernel estimate K_t(x, y) = E_bridge[e^{-int v}] * rho(t, x - y).

    The density factor is analytic (exact at the truncation); only the
    bridge expectation carries Monte Carlo error.  The trapezoid action
    makes the estimator's law invariant under swapping x and y.
    """
    dens = _kernel_density_factor(req)
    plans = _bridge_plans(req)
    if not plans:
        return FKEstimate(
            complex(dens), 0.0, req.n_paths,
            tail_certificate(req.sigma, req.b, req.t, req.truncation),
            density_factor=dens, bridge_factor=1.0,
        )
    data = _run_chunks(_kernel_chunk, req, plans)
    per_path = np.prod(data, axis=1)
    mean, se = _mean_se(per_path.astype(complex))
    return FKEstimate(
        value=complex(mean.real * dens),
        std_error=se * dens,
        n_paths=req.n_paths,
        tail_certificate=tail_certificate(req.sigma, req.b, req.t, req.truncation),
        density_factor=dens,
        bridge_factor=mean.real,
    )


def fk_kernel_product(req: FKRequest) -> tuple[FKEstimate, tuple]:
    """Product-form kernel: independent per-prime bridge factors multiplied.

    For a simple potential the kernel factorizes over primes, so this
    estimates the same quantity as fk_kernel with independent streams; the
    standard error combines per-prime relative errors in quadrature.
    """
    dens = _kernel_density_factor(req)
    factors = []
    total = dens
    rel_var = 0.0
    for salt, plan in enumerate(_bridge_plans(req), start=1):
        data = _run_chunks(_kernel_chunk, req, (replace(plan, salt=salt, slot=0),))
        mean, se = _mean_se(data[:, 0].astype(complex))
        factors.append((plan.params.p, mean.real, se))
        total *= mean.real
        rel_var += (se / mean.real) ** 2
    est = FKEstimate(
        value=total,
        std_error=abs(total) * math.sqrt(rel_var),
        n_paths=req.n_paths,
        tail_certificate=tail_certificate(req.sigma, req.b, req.t, req.truncation),
        density_factor=dens,
        bridge_factor=total / dens if dens else None,
    )
    return est, tuple(factors)


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


def semigroup_compose_free(sigma: SigmaSequence, b: float, s: float, t: float,
                           alpha: SimpleAdelicSB, x: AdelicPoint, N: int) -> SemigroupReport:
    """Analytic composition check: kernel_{s+t} * alpha vs the two-step
    radial convolution, both exact; discrepancy should sit at rounding."""
    direct = free_propagate(sigma, b, s + t, alpha, x, N).value.real
    composed = 1.0
    for i in range(1, N + 1):
        p = prime_at(i)
        params = sigma.kernel_params(i, b)
        law = radial_convolve(radial_law(params, s, coverage=1 - 1e-13),
                              radial_law(params, t, coverage=1 - 1e-13))
        f = alpha.factor(p)
        xc = x.component(p)
        factor = 0.0
        for ball, coeff in f.terms:
            d_exp = None if xc is None else (xc - ball.center).abs_exp()
            factor += coeff.real * law.ball_probability(d_exp, ball.radius_exp)
        composed *= factor
    return SemigroupReport(s, t, direct, composed, 0.0)


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
    Carlo with paths shared between the damped and free estimators.  All
    quantities are truncated at N primes consistently, so the observed
    convergence order is 1 for the truncated system.
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
