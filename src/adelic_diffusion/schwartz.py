"""Schwartz-Bruhat test functions and the exponent-b multiplier operator.

An SBFunction is a finite combination of ball indicators; canonical form
has pairwise disjoint balls, which ultrametric nesting always permits.
The operator

    (D f)(x) = (F^{-1} |.|^b F f)(x)

has an exact closed form on a ball indicator: writing
C(p, b) = integral of |xi|^b over Z_p = (1 - 1/p) / (1 - p^{-(b+1)}),

    D 1_{B_r(c)}(x) = C p^{-rb}                      if |x - c| <= p^r,
                      (C - p^b) p^r |x - c|^{-(b+1)} otherwise,

so everything here is assembled from that one kernel by linearity and
translation.  Adelic applications carry interval tails for dropped primes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adelic import AdelicPoint, SigmaSequence
from .errors import ConfigError, PrecisionError, SummabilityError
from .heat_kernel import KernelParams, _pow
from .padic import Ball, PAdicScalar
from .primes import TABLE_SIZE, prime_at, prime_index


def unit_ball_abs_moment(p: int, beta: float) -> float:
    """Integral of |x|^beta over Z_p: (1 - 1/p) / (1 - p^{-(beta+1)})."""
    if not beta > 0:
        raise ValueError("moment exponent must be positive")
    return (1.0 - 1.0 / p) / (1.0 - _pow(p, -(beta + 1.0)))


def vacuum_multiplier_norm_sq(p: int, b: float) -> float:
    """Squared L2 norm of |.|^b applied to the Z_p indicator.

    Closed form (1 - 1/p) p^{2b+1} / (p^{2b+1} - 1), always in (1/2, 2).
    """
    return unit_ball_abs_moment(p, 2.0 * b)


@dataclass(frozen=True)
class SBFunction:
    """Finite ball-indicator combination over one prime."""

    prime: int
    terms: tuple[tuple[Ball, complex], ...]

    def __post_init__(self):
        for ball, _ in self.terms:
            if ball.prime != self.prime:
                raise ConfigError("ball prime mismatch in SBFunction")

    @classmethod
    def vacuum(cls, p: int) -> "SBFunction":
        return cls(p, ((Ball(PAdicScalar.zero(p), 0), 1.0 + 0j),))

    @classmethod
    def indicator(cls, ball: Ball, coeff: complex = 1.0) -> "SBFunction":
        return cls(ball.prime, ((ball, complex(coeff)),))

    def is_vacuum(self) -> bool:
        if len(self.terms) != 1:
            return False
        ball, coeff = self.terms[0]
        return (
            coeff == 1.0
            and ball.radius_exp == 0
            and ball.center.coset_key(0) == 0
        )

    def min_radius_exp(self) -> int:
        """Smallest ball exponent; the function is constant at this scale."""
        if not self.terms:
            return 0
        return min(ball.radius_exp for ball, _ in self.terms)

    def sup_bound(self) -> float:
        """Supremum of |f| over the canonical disjoint terms."""
        return max((abs(c) for _, c in canonicalize(self).terms), default=0.0)

    def scaled(self, factor: complex) -> "SBFunction":
        return SBFunction(
            self.prime, tuple((ball, coeff * factor) for ball, coeff in self.terms)
        )


def eval_sb(f: SBFunction, x: PAdicScalar) -> complex:
    """Sum of coefficients over balls containing x (one ball if canonical)."""
    if x.prime != f.prime:
        raise ConfigError("point prime differs from function prime")
    return sum((c for ball, c in f.terms if ball.contains(x)), 0j)


def require_resolved(f: SBFunction, xc: PAdicScalar | None) -> None:
    """An unresolved component (somewhere in Z_p) settles only a vacuum factor."""
    if xc is None and not f.is_vacuum():
        raise PrecisionError(f"non-vacuum factor at prime {f.prime} needs a resolved point")


def resolution_for(*functions: SBFunction) -> int:
    """Coarsest ball exponent at which every given function is constant.

    Event paths sampled at this resolution make time integrals of the
    functions exact.
    """
    return min((f.min_radius_exp() for f in functions), default=0)


def _forest(balls: list[Ball]):
    """Containment forest over distinct balls (ultrametric: nested or disjoint)."""
    order = sorted(range(len(balls)), key=lambda i: -balls[i].radius_exp)
    parent = [-1] * len(balls)
    for pos, i in enumerate(order):
        best = -1
        for j in order[:pos]:
            bj = balls[j]
            if bj.radius_exp > balls[i].radius_exp and bj.contains(balls[i].center):
                if best == -1 or bj.radius_exp < balls[best].radius_exp:
                    best = j
        parent[i] = best
    return parent


def canonicalize(f: SBFunction) -> SBFunction:
    """Equivalent SBFunction with pairwise disjoint balls.

    Nested terms are resolved by splitting the enclosing ball into cosets
    down the path toward each nested term, so pointwise values (the sum of
    coefficients of containing balls) are preserved exactly.
    """
    merged: dict[tuple[int, object], tuple[Ball, complex]] = {}
    for ball, coeff in f.terms:
        k = ball.key()
        if k in merged:
            b0, c0 = merged[k]
            merged[k] = (b0, c0 + coeff)
        else:
            merged[k] = (ball, complex(coeff))
    balls = [b for b, _ in merged.values()]
    coeffs = [c for _, c in merged.values()]
    parent = _forest(balls)
    kids: dict[int, list[int]] = {i: [] for i in range(len(balls))}
    for i, par in enumerate(parent):
        if par != -1:
            kids[par].append(i)

    out: list[tuple[Ball, complex]] = []

    def emit(ball: Ball, coeff: complex, children: list[int]):
        if not children:
            if coeff != 0:
                out.append((ball, coeff))
            return
        for sub in ball.subdivide():
            inside = [i for i in children if sub.contains(balls[i].center)]
            if not inside:
                if coeff != 0:
                    out.append((sub, coeff))
                continue
            exact = [i for i in inside if balls[i].radius_exp == sub.radius_exp]
            if exact:
                i = exact[0]
                emit(sub, coeff + coeffs[i], kids[i])
            else:
                emit(sub, coeff, inside)

    for i, par in enumerate(parent):
        if par == -1:
            emit(balls[i], coeffs[i], kids[i])
    return SBFunction(f.prime, tuple(out))


def multiplier_constant(p: int, b: float) -> float:
    """C(p, b): value of D applied to the Z_p indicator, on Z_p itself."""
    return unit_ball_abs_moment(p, b)


def vladimirov_indicator(params: KernelParams, ball: Ball, x: PAdicScalar) -> float:
    """(D 1_ball)(x) for the sigma-free operator with exponent params.b."""
    p, b = params.p, params.b
    C = multiplier_constant(p, b)
    d = x - ball.center
    e = d.abs_exp()
    r = ball.radius_exp
    if e is None:
        if -d.precision > r:
            raise PrecisionError("point known too coarsely relative to the ball")
        e = r  # indistinguishable from the center: inside
    if e <= r:
        return C * _pow(p, -r * b)
    return (C - _pow(p, b)) * _pow(p, r) * _pow(p, -e * (b + 1.0))


def vladimirov_apply(params: KernelParams, f: SBFunction, x: PAdicScalar) -> complex:
    """(D f)(x) by linearity over the terms of f; sigma multiplies externally."""
    if f.prime != params.p:
        raise ConfigError("function prime differs from kernel prime")
    return sum(
        (coeff * vladimirov_indicator(params, ball, x) for ball, coeff in f.terms),
        0j,
    )


def vladimirov_ball_integral(params: KernelParams, source: Ball, region: Ball) -> float:
    """Exact integral of (D 1_source) over `region`.

    Used as a quadrature oracle for symmetry and mean-zero checks; the three
    ultrametric cases (region inside source, source inside region, disjoint)
    each reduce to geometric sums in closed form.
    """
    p, b = params.p, params.b
    C = multiplier_constant(p, b)
    rs, rg = source.radius_exp, region.radius_exp
    d = region.center - source.center
    e = d.abs_exp()
    if e is None:
        if -d.precision > max(rs, rg):
            raise PrecisionError("ball centers known too coarsely to relate")
        e = min(rs, rg)
    if e <= max(rs, rg):
        if rg <= rs:
            return _pow(p, rg) * C * _pow(p, -rs * b)
        inner = _pow(p, rs) * C * _pow(p, -rs * b)
        # shells j = rs+1 .. rg around the source inside the region
        geo = (_pow(p, -(rs + 1) * b) - _pow(p, -(rg + 1) * b)) / (1.0 - _pow(p, -b))
        return inner + (C - _pow(p, b)) * _pow(p, rs) * (1.0 - 1.0 / p) * geo
    return _pow(p, rg) * (C - _pow(p, b)) * _pow(p, rs) * _pow(p, -e * (b + 1.0))


def sb_pairing(params: KernelParams, f: SBFunction, g: SBFunction,
               apply_to_first: bool) -> complex:
    """<D f, g> (or <f, D g>) via the exact ball-integral quadrature."""
    total = 0j
    for fb, fc in f.terms:
        for gb, gc in g.terms:
            if apply_to_first:
                total += fc * gc.conjugate() * vladimirov_ball_integral(params, fb, gb)
            else:
                total += fc * gc.conjugate() * vladimirov_ball_integral(params, gb, fb)
    return total


@dataclass(frozen=True)
class SimpleAdelicSB:
    """Finite tensor product of per-prime SBFunctions; unlisted factors are
    the Z_p indicator (vacuum)."""

    factors: tuple[tuple[int, SBFunction], ...] = ()

    def __post_init__(self):
        seen = set()
        for p, f in self.factors:
            if p in seen:
                raise ConfigError(f"duplicate factor for prime {p}")
            if f.prime != p:
                raise ConfigError("factor prime mismatch")
            seen.add(p)

    @classmethod
    def vacuum(cls) -> "SimpleAdelicSB":
        return cls(())

    @classmethod
    def of(cls, factors: dict[int, SBFunction]) -> "SimpleAdelicSB":
        return cls(tuple(sorted(factors.items())))

    def factor(self, p: int) -> SBFunction:
        for q, f in self.factors:
            if q == p:
                return f
        return SBFunction.vacuum(p)

    def factor_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def sup_bound(self) -> float:
        out = 1.0
        for _, f in self.factors:
            out *= max(f.sup_bound(), 0.0)
        return out

    def eval(self, x: AdelicPoint) -> complex:
        """Pointwise value; unresolved components require vacuum factors."""
        primes = set(self.factor_primes()) | set(x.active_primes())
        out = 1.0 + 0j
        for p in sorted(primes):
            f = self.factor(p)
            xc = x.component(p)
            require_resolved(f, xc)
            if xc is not None:
                out *= eval_sb(f, xc)
        return out


@dataclass(frozen=True)
class SimplePotential:
    """v(x) = sum_i tau_i v_i(x_i): nonnegative bounded per-prime terms."""

    components: tuple[tuple[int, float, SBFunction], ...] = ()

    def __post_init__(self):
        seen = set()
        for p, tau, f in self.components:
            if p in seen:
                raise ConfigError(f"duplicate potential component for prime {p}")
            seen.add(p)
            if f.prime != p:
                raise ConfigError("potential component prime mismatch")
            if tau < 0:
                raise ConfigError("potential weights must be nonnegative")
            for _, coeff in canonicalize(f).terms:
                if abs(coeff.imag) > 0 or coeff.real < 0:
                    raise ConfigError("potential must be real and nonnegative")

    @classmethod
    def zero(cls) -> "SimplePotential":
        return cls(())

    @classmethod
    def of(cls, components: dict[int, tuple[float, SBFunction]]) -> "SimplePotential":
        return cls(tuple((p, tau, f) for p, (tau, f) in sorted(components.items())))

    def component(self, p: int) -> tuple[float, SBFunction] | None:
        for q, tau, f in self.components:
            if q == p:
                return tau, f
        return None

    def component_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _, _ in self.components)

    def sup_bound(self) -> float:
        return sum(tau * f.sup_bound() for _, tau, f in self.components)

    def value(self, x: AdelicPoint) -> float:
        total = 0.0
        for p, tau, f in self.components:
            xc = x.component(p)
            if xc is None:
                raise PrecisionError(
                    f"potential at prime {p} needs a resolved component"
                )
            total += tau * eval_sb(f, xc).real
        return total


def adelic_multiplier(sigma: SigmaSequence, b: float, a: AdelicPoint,
                      N: int) -> tuple[float, float]:
    """Interval for sum_i sigma_i |a_i|^b at the point a.

    Resolved components contribute exactly; each unresolved component lies
    in Z_p so contributes within [0, sigma_i].
    """
    if a.max_active_index() > N:
        raise ConfigError("active primes exceed truncation N")
    lo = 0.0
    for p, x in a.active:
        e = x.abs_exp()
        if e is not None:
            lo += sigma.sigma(prime_index(p)) * _pow(p, e * b)
    inactive = sum(
        sigma.sigma(i)
        for i in range(1, N + 1)
        if prime_at(i) not in a.active_primes()
    )
    hi = lo + inactive + sigma.sigma_tail_upper(N)
    return lo, hi


def truncated_vladimirov_apply(sigma: SigmaSequence, b: float, f: SimpleAdelicSB,
                               a: AdelicPoint, N: int) -> tuple[complex, complex]:
    """(center, full): (D_A f)(a) of the system truncated at N primes, exact,
    sum_{j <= N} sigma_j (D_j f_j)(a) prod_{i <= N, i != j} f_i(a), and the
    product of f's factors at primes 1..N."""
    if sigma.tail_coeff == 0 and sigma.n_defined() < N:
        raise SummabilityError("sigma sequence does not cover truncation N")
    for p, fp in f.factors:
        require_resolved(fp, a.component(p))
    if f.factors and max(prime_index(p) for p, _ in f.factors) > N:
        raise ConfigError("non-vacuum factors must sit within the truncation")

    vals: list[complex] = []
    ops: list[complex] = []
    for i in range(1, N + 1):
        p = prime_at(i)
        fi = f.factor(p)
        xi = a.component(p)
        params = KernelParams(p, b, sigma.sigma(i))
        if xi is None:
            # unresolved in Z_p: vacuum factor is 1 and D(vacuum) = C there
            vals.append(1.0 + 0j)
            ops.append(complex(multiplier_constant(p, b)))
        else:
            vals.append(eval_sb(fi, xi))
            ops.append(vladimirov_apply(params, fi, xi))

    full = 1.0 + 0j
    for v in vals:
        full *= v
    center = 0j
    for j in range(N):
        partial = 1.0 + 0j
        for i, v in enumerate(vals):
            if i != j:
                partial *= v
        center += sigma.sigma(j + 1) * ops[j] * partial
    return center, full


def adelic_vladimirov_apply(sigma: SigmaSequence, b: float, f: SimpleAdelicSB,
                            a: AdelicPoint, N: int) -> tuple[complex, float]:
    """(center, radius) disk containing (D_A f)(a) for simple f.

    D_A f = sum_j sigma_j (D_j f_j) (x) prod_{i != j} f_i; primes 1..N and
    the within-table tail are exact (vacuum factors are constant on Z_p),
    the beyond-table remainder is bracketed through the (1/2, 2) bounds on
    the vacuum multiplier constant.
    """
    center, full = truncated_vladimirov_apply(sigma, b, f, a, N)
    # tail primes within the table: factor is vacuum, component in Z_p, so the
    # term is sigma_j C_j times the full product; exact through the table.
    top = sigma.n_defined()
    tail_exact = 0.0
    for i in range(N + 1, top + 1):
        tail_exact += sigma.sigma(i) * multiplier_constant(prime_at(i), b)
    center += tail_exact * full
    # beyond the table: each term in [0, sigma_j * p/(p-1)]; cover with a disk
    beyond = sigma.sigma_tail_upper(top)
    p_top = prime_at(TABLE_SIZE)
    radius = abs(full) * beyond * (p_top / (p_top - 1.0))
    return center, radius
